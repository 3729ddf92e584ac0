"""Posterior summary statistics and convergence diagnostics.

Implements every column of the standard summary table:

* ``mean`` — arithmetic mean of the pooled post-warmup draws.
* ``mode`` — argmax of a Gaussian KDE (Silverman bandwidth
  ``0.9 * min(sd, IQR/1.34) * n^(-1/5)``) on a 512-point grid over
  ``[min, max]``.  The grid is screened with a kernel truncated at 9
  bandwidths, over the distinct draws weighted by their counts when repeats
  are most of the draws (as rejected RWM proposals make them), and only the
  points that could still be the argmax are summed in full over every draw,
  so the reported grid point is the full sum's argmax, bit for bit.
* ``sd`` — sample standard deviation (denominator n-1).
* ``hdi_3%`` / ``hdi_97%`` — the narrowest window of ``ceil(prob*n)``
  consecutive sorted samples (94% interval by default).
* ``ess_bulk`` — effective sample size on rank-normalized split chains,
  with a multi-chain autocorrelation estimate truncated by Geyer's initial
  monotone positive-pair sequence, and at most ``N * log10(N)`` for N
  draws (the bound of Vehtari et al. 2021), so antithetic chains read a
  large finite figure rather than NaN.
* ``r_hat`` — split potential scale reduction factor
  ``sqrt(((n-1)/n * W + B/n) / W)`` over half-chains.

Degenerate inputs (zero variance, too few samples) produce warnings and
NaN cells rather than aborting, so a broken model still yields a report; a
non-finite draw makes every cell but the mean NaN, without numpy warnings.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, astuple, dataclass, fields
from statistics import NormalDist

import numpy as np

from .errors import InsufficientSamples, PlainbayesError, SummaryCellWarning, ZeroVarianceWarning
from .sampler import Trace

__all__ = [
    "SummaryRow",
    "SummaryTable",
    "split_rhat",
    "ess_bulk",
    "hdi",
    "mode_estimate",
    "check_hdi_prob",
    "summarize",
    "render_text",
    "render_csv",
    "to_json_obj",
]

def _as_chain_matrix(chains) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(chains, dtype=float))
    if arr.ndim != 2:
        raise InsufficientSamples("chains must be a (n_chains, n_draws) matrix")
    return arr


def _split_chains(arr: np.ndarray) -> np.ndarray:
    """Halve each chain (dropping a trailing odd draw) and stack the halves."""
    half = arr.shape[1] // 2
    return np.vstack([arr[:, :half], arr[:, half : 2 * half]])


def split_rhat(chains) -> float:
    """Split potential scale reduction factor over half-chains.

    Returns NaN (with a :class:`ZeroVarianceWarning`) when all samples are
    identical, rather than crashing on a degenerate model, and NaN if any
    draw is not finite.
    """
    arr = _as_chain_matrix(chains)
    if arr.shape[1] < 4:
        raise InsufficientSamples(f"split_rhat needs >= 4 draws per chain, got {arr.shape[1]}")
    if not np.isfinite(arr).all():
        return math.nan
    halves = _split_chains(arr)
    n = halves.shape[1]
    within = float(np.mean(np.var(halves, axis=1, ddof=1)))
    between = n * float(np.var(np.mean(halves, axis=1), ddof=1))
    if within == 0.0:
        warnings.warn("all samples are identical; r_hat is undefined", ZeroVarianceWarning, stacklevel=2)
        return math.nan
    return math.sqrt(((n - 1) / n * within + between / n) / within)


def _average_ranks(arr: np.ndarray) -> np.ndarray:
    """Average ranks of the pooled samples: 1-based, each tie group sharing
    its mean rank (an exact half); any NaN makes all ranks NaN."""
    flat = arr.reshape(-1)
    if np.isnan(flat).any():
        return np.full(arr.shape, math.nan)
    order = np.argsort(flat, kind="stable")
    sorted_values = flat[order]
    starts = np.flatnonzero(np.r_[True, sorted_values[1:] != sorted_values[:-1]])
    stops = np.r_[starts[1:], flat.size]
    ranks = np.empty(flat.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + stops), stops - starts)
    return ranks.reshape(arr.shape)


def _rank_normalize(arr: np.ndarray) -> np.ndarray:
    """Map pooled samples to normal quantiles via average ranks (NaN stays NaN)."""
    probabilities = (_average_ranks(arr) - 0.5) / arr.size
    distinct, inverse = np.unique(probabilities.ravel(), return_inverse=True)  # tied draws share one
    inv_cdf = NormalDist().inv_cdf  # Wichura's AS 241, accurate to about 1e-16
    return np.array([inv_cdf(p) for p in distinct.tolist()])[inverse].reshape(arr.shape)


def _next_fast_len(target: int) -> int:
    """Smallest 11-smooth integer >= ``target``: FFTs of such sizes are fast."""
    size = target
    while True:
        rest = size
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased (1/n) autocovariance of one chain via FFT."""
    n = x.shape[0]
    centered = x - x.mean()
    size = _next_fast_len(2 * n)
    spectrum = np.fft.rfft(centered, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[:n].real
    return acov / n


def _ess_core(arr: np.ndarray) -> float:
    """Multi-chain ESS with Geyer initial-monotone-positive truncation."""
    n_chains, n_draws = arr.shape
    acov = np.vstack([_autocovariance(arr[c]) for c in range(n_chains)])
    chain_means = arr.mean(axis=1)
    mean_var = float(np.mean(acov[:, 0])) * n_draws / (n_draws - 1.0)
    var_plus = mean_var * (n_draws - 1.0) / n_draws
    if n_chains > 1:
        var_plus += float(np.var(chain_means, ddof=1))
    if var_plus == 0.0:
        return math.nan

    rho = np.zeros(n_draws)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - float(np.mean(acov[:, 1]))) / var_plus
    rho[1] = rho_odd
    # initial positive pair sequence
    t = 1
    while t < n_draws - 2 and (rho_even + rho_odd) >= 0.0:
        rho_even = 1.0 - (mean_var - float(np.mean(acov[:, t + 1]))) / var_plus
        rho_odd = 1.0 - (mean_var - float(np.mean(acov[:, t + 2]))) / var_plus
        rho[t + 1] = rho_even
        if (rho_even + rho_odd) >= 0.0:
            rho[t + 2] = rho_odd
        t += 2
    max_t = t
    # enforce monotone decrease of the pair sums
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = (rho[t - 1] + rho[t]) / 2.0
            rho[t + 2] = rho[t + 1]
        t += 2

    tau = -1.0 + 2.0 * float(np.sum(rho[:max_t])) + float(np.sum(rho[max_t + 1 : max_t + 2]))
    total = n_chains * n_draws
    return total / max(tau, 1.0 / math.log10(total))  # ess <= N log10 N (Vehtari et al. 2021)


def ess_bulk(chains) -> float:
    """Bulk effective sample size: rank-normalized, split-chain ESS.

    NaN if any draw is not finite: the ranks, and so the ESS, are undefined.
    """
    arr = _as_chain_matrix(chains)
    if arr.shape[1] < 4:
        raise InsufficientSamples(f"ess_bulk needs >= 4 draws per chain, got {arr.shape[1]}")
    if not np.isfinite(arr).all():
        return math.nan
    if float(np.var(arr)) == 0.0:
        warnings.warn("all samples are identical; ess_bulk is undefined", ZeroVarianceWarning, stacklevel=2)
        return math.nan
    return _ess_core(_rank_normalize(_split_chains(arr)))


def hdi(samples, prob: float) -> tuple[float, float]:
    """Narrowest interval of ``ceil(prob*n)`` consecutive sorted samples.

    Ties are broken toward the lowest left endpoint.  NaN at both ends if
    any sample is not finite.
    """
    check_hdi_prob(prob)
    return _sorted_hdi(np.sort(np.asarray(samples, dtype=float).reshape(-1)), prob)


def _finite_sorted(ordered: np.ndarray) -> bool:
    """Whether sorted samples are all finite: -inf sorts first, +inf and NaN last."""
    return math.isfinite(ordered[0]) and math.isfinite(ordered[-1])


def _sorted_hdi(ordered: np.ndarray, prob: float) -> tuple[float, float]:
    n = ordered.shape[0]
    if n < 2:
        raise InsufficientSamples(f"hdi needs >= 2 samples, got {n}")
    if not _finite_sorted(ordered):
        return math.nan, math.nan
    width = min(n, max(2, math.ceil(prob * n)))
    spans = ordered[width - 1 :] - ordered[: n - width + 1]
    best = int(np.argmin(spans))  # argmin returns the first (lowest) minimizer
    return float(ordered[best]), float(ordered[best + width - 1])


_GRID_POINTS = 512
_KDE_CHUNK = 4096  # draws per kernel matrix in the full sum
_SCREEN_REACH = 9.0  # bandwidths: a farther draw adds under exp(-40.5) to a grid point
_SCREEN_BLOCK = 256  # sorted draws per kernel matrix in the screen
_UNIT_ROUNDOFF = 2.0**-53


def mode_estimate(samples) -> float:
    """KDE-based mode: Gaussian kernel, Silverman bandwidth, 512-point grid.

    NaN if any sample is not finite.
    """
    values = np.asarray(samples, dtype=float).reshape(-1)
    return _kde_mode(values, np.sort(values))


def _quantile(ordered: np.ndarray, q: float) -> float:
    """The q-quantile (0 <= q < 1) of sorted finite samples, ``np.percentile``'s bit for bit, which would
    import ``numpy.ma``: numpy's ``_lerp`` of the samples either side of the virtual index (n - 1) q."""
    virtual = (ordered.shape[0] - 1) * q
    below = math.floor(virtual)
    gamma = virtual - below
    a, b = float(ordered[below]), float(ordered[below + 1])
    return b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma


def _kde_mode(values: np.ndarray, ordered: np.ndarray) -> float:
    """``mode_estimate`` of ``values``, given them also sorted as ``ordered``."""
    n = values.shape[0]
    if n < 10:
        raise InsufficientSamples(f"mode_estimate needs >= 10 samples, got {n}")
    if not _finite_sorted(ordered):
        return math.nan
    lo, hi = float(ordered[0]), float(ordered[-1])
    if lo == hi:
        return lo
    sd = float(np.std(values, ddof=1))
    iqr = _quantile(ordered, 0.75) - _quantile(ordered, 0.25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd  # bandwidth floor for spiky samples
    bandwidth = 0.9 * spread * n ** (-0.2)
    if bandwidth <= 0:  # np.median's, bit for bit: the middle draw, or the mean of the two
        mid = n // 2
        return float(ordered[mid]) if n % 2 else (float(ordered[mid - 1]) + float(ordered[mid])) / 2.0
    grid = np.linspace(lo, hi, _GRID_POINTS)

    # Screen: each block of sorted draws adds its kernel to the grid points
    # within reach of it; where repeats are most of the draws (RWM traces, not
    # NUTS ones), each distinct draw once, times its count.  At every grid
    # point, the screen and the full sum below are each within ``error`` of
    # the exact KDE: n draws' terms each off by at most 16 roundoffs u (the
    # argument and exp; 17 with a count's product), summation off by at most
    # n * u * (their total), and for the screen the skipped terms, each under
    # exp(-40) (the reach, less rounding).  So the full sum's argmax is among
    # the points the screen puts within 2 * 2 * error of its maximum.
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    points, counts = (ordered, None) if 2 * starts.size > n else (ordered[starts], np.diff(np.r_[starts, n])[:, None])
    screened = np.zeros(_GRID_POINTS)
    reach = _SCREEN_REACH * bandwidth
    for start in range(0, points.shape[0], _SCREEN_BLOCK):
        block = points[start : start + _SCREEN_BLOCK, None]
        first = int(np.searchsorted(grid, block[0, 0] - reach))
        stop = int(np.searchsorted(grid, block[-1, 0] + reach, "right"))
        kernel = np.exp(-0.5 * ((grid[None, first:stop] - block) / bandwidth) ** 2)
        if counts is not None:
            kernel *= counts[start : start + _SCREEN_BLOCK]
        screened[first:stop] += kernel.sum(axis=0)
        del kernel  # so no two blocks' kernels are held at once
    top = float(screened.max())
    error = n * (math.exp(-40.0) + (16 if counts is None else 17) * _UNIT_ROUNDOFF) + 1.01 * n * _UNIT_ROUNDOFF * (top + 1.0)
    candidates = np.flatnonzero(screened >= top - 4.0 * error) if math.isfinite(top) else np.arange(_GRID_POINTS)
    if candidates.size == 1:
        # numpy sums a one-column kernel matrix pairwise, not row by row as
        # it sums wider ones, so certify a neighbour too
        first = max(int(candidates[0]) - 1, 0)
        candidates = np.array([first, first + 1])

    # Certify: the full sum at the candidates only, in the same order of
    # chunks and rows and with the same expression as over the whole grid.
    density = np.zeros(candidates.size)
    points = grid[None, candidates]
    for start in range(0, n, _KDE_CHUNK):
        chunk = values[start : start + _KDE_CHUNK, None]
        density += np.exp(-0.5 * ((points - chunk) / bandwidth) ** 2).sum(axis=0)
    return float(grid[candidates[int(np.argmax(density))]])


# ---------------------------------------------------------------------------
# Summary table


@dataclass(frozen=True)
class SummaryRow:
    mean: float
    mode: float
    sd: float
    hdi_low: float
    hdi_high: float
    ess_bulk: float
    r_hat: float


@dataclass(frozen=True)
class SummaryTable:
    rows: dict[str, SummaryRow]
    hdi_prob: float = 0.94

    def hdi_labels(self) -> tuple[str, str]:
        lo = (1.0 - self.hdi_prob) / 2.0 * 100.0
        return f"hdi_{lo:g}%", f"hdi_{100.0 - lo:g}%"


def _guarded(fn, *args, cell: str, param: str):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ZeroVarianceWarning)
            return fn(*args)
    except (InsufficientSamples, ZeroVarianceWarning) as exc:
        warnings.warn(f"{param}/{cell}: {exc}", SummaryCellWarning, stacklevel=3)
        return math.nan


def check_hdi_prob(hdi_prob: float) -> None:
    """Raise unless ``hdi_prob`` is a probability strictly between 0 and 1."""
    if not 0.0 < hdi_prob < 1.0:
        raise PlainbayesError(f"hdi prob must be in (0, 1), got {hdi_prob}")


def summarize(trace: Trace, hdi_prob: float = 0.94) -> SummaryTable:
    """Per-parameter summary over the pooled post-warmup draws."""
    check_hdi_prob(hdi_prob)
    if trace.draws.size == 0:
        raise InsufficientSamples("trace holds no draws")
    rows: dict[str, SummaryRow] = {}
    for name in trace.param_names:
        per_chain = trace.chains_for(name)
        pooled = per_chain.reshape(-1)
        ordered = np.sort(pooled)
        with np.errstate(invalid="ignore"):  # +inf and -inf draws average to NaN
            mean = float(np.mean(pooled))
        sd = float(np.std(pooled, ddof=1)) if pooled.size > 1 and _finite_sorted(ordered) else math.nan
        mode = _guarded(_kde_mode, pooled, ordered, cell="mode", param=name)
        low, high = (math.nan, math.nan)
        try:
            low, high = _sorted_hdi(ordered, hdi_prob)
        except InsufficientSamples as exc:
            warnings.warn(f"{name}/hdi: {exc}", SummaryCellWarning, stacklevel=2)
        ess = _guarded(ess_bulk, per_chain, cell="ess_bulk", param=name)
        rhat = _guarded(split_rhat, per_chain, cell="r_hat", param=name)
        rows[name] = SummaryRow(
            mean=mean, mode=mode, sd=sd, hdi_low=low, hdi_high=high, ess_bulk=ess, r_hat=rhat
        )
    return SummaryTable(rows=rows, hdi_prob=hdi_prob)


# ---------------------------------------------------------------------------
# Renderers


_TEXT_FORMATS = {"ess_bulk": ".0f", "r_hat": ".2f"}  # every other column: ".3f"


def _header(table: SummaryTable) -> list[str]:
    """The column names: ``SummaryRow``'s fields, the HDI ends labelled by their probability."""
    labels = dict(zip(("hdi_low", "hdi_high"), table.hdi_labels()))
    return ["parameter"] + [labels.get(f.name, f.name) for f in fields(SummaryRow)]


def render_text(table: SummaryTable) -> str:
    header = _header(table)
    body = [
        [name] + [format(v, _TEXT_FORMATS.get(k, ".3f")) for k, v in asdict(row).items()]
        for name, row in table.rows.items()
    ]
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    lines = []
    for line in [header] + body:
        lines.append("  ".join(cell.rjust(w) if i else cell.ljust(w) for i, (cell, w) in enumerate(zip(line, widths))))
    return "\n".join(lines)


def render_csv(table: SummaryTable) -> str:
    lines = [",".join(_header(table))]
    lines += [",".join([name] + [repr(v) for v in astuple(row)]) for name, row in table.rows.items()]
    return "\n".join(lines) + "\n"


def to_json_obj(table: SummaryTable) -> dict:
    return {
        "hdi_prob": table.hdi_prob,
        "parameters": {name: asdict(row) for name, row in table.rows.items()},
    }
