"""Checks of a fit's outputs against computations made apart from plainbayes.

Nothing here imports plainbayes.  The reference posterior is a grid
quadrature built from the data's sufficient statistics: for a mean
``a + b * X`` the sum of squared errors is a quadratic in ``(a, b)``, so the
likelihood on any grid is exact at any n.  A reciprocal slope
(``a + X / tau``) is the same quadratic with ``b = 1 / tau``.  Prior
log-densities come from ``scipy.stats``.

Sampling error is judged with this module's own effective sample size
(rank-normalized split-chain ESS, Vehtari et al. 2021), so every tolerance
scales with the Monte-Carlo standard error of the draws at hand, never with
a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.special import ndtri

MEAN_Z = 5.0  # posterior means must sit within this many MCSEs of the grid
SD_Z = 5.0  # same for posterior sds, with the MCSE of the sd
RHAT_MAX = 1.05
GRID_HALF_WIDTH = 10.0  # grid spans the mean +- this many sds on every axis
GRID_POINTS = (61, 81)  # two resolutions; their difference bounds the quadrature error


# ---------------------------------------------------------------------------
# Priors and sufficient statistics


def prior_logpdf(family: str, params: dict, x: np.ndarray) -> np.ndarray:
    """Log prior density from scipy.stats, for the four blueprint families."""
    if family == "Normal":
        return stats.norm.logpdf(x, loc=params["mu"], scale=params["sigma"])
    if family == "HalfNormal":
        return stats.halfnorm.logpdf(x, scale=params["sigma"])
    if family == "Uniform":
        lo, hi = params["lower"], params["upper"]
        return stats.uniform.logpdf(x, loc=lo, scale=hi - lo)
    if family == "Exponential":
        return stats.expon.logpdf(x, scale=1.0 / params["lam"])
    raise ValueError(f"no reference density for prior family {family!r}")


@dataclass(frozen=True)
class SuffStats:
    n: int
    sx: float
    sy: float
    sxx: float
    sxy: float
    syy: float

    @classmethod
    def of(cls, x: np.ndarray, y: np.ndarray) -> "SuffStats":
        return cls(
            n=int(x.size),
            sx=math.fsum(x),
            sy=math.fsum(y),
            sxx=math.fsum(x * x),
            sxy=math.fsum(x * y),
            syy=math.fsum(y * y),
        )

    def least_squares(self):
        """(a_hat, b_hat, rss, cxx) of the regression of y on X."""
        xm, ym = self.sx / self.n, self.sy / self.n
        cxx = self.sxx - self.n * xm * xm
        cxy = self.sxy - self.n * xm * ym
        cyy = self.syy - self.n * ym * ym
        b = cxy / cxx
        return ym - b * xm, b, max(cyy - b * cxy, 0.0), cxx

    def sse(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Sum of squared errors of ``a + b * X`` on an (a, b) grid.

        ``SSE = RSS + n (a + b xbar - ybar)^2 + Cxx (b - b_hat)^2`` is the
        expansion of the polynomial in the six sums, written around the
        least-squares point so that it loses no digits at large n.
        """
        a_hat, b_hat, rss, cxx = self.least_squares()
        xm, ym = self.sx / self.n, self.sy / self.n
        a = a[:, None]
        b = b[None, :]
        return rss + self.n * (a + b * xm - ym) ** 2 + cxx * (b - b_hat) ** 2


# ---------------------------------------------------------------------------
# Grid quadrature


@dataclass(frozen=True)
class LinearModel:
    """``y ~ Normal(intercept + slope(X), noise)`` with named priors.

    ``reciprocal`` means the slope parameter enters as ``X / slope``.
    """

    intercept: str
    slope: str
    noise: str
    priors: dict  # name -> (family, params)
    reciprocal: bool = False


@dataclass(frozen=True)
class Moments:
    mean: float
    sd: float
    quad_err_mean: float
    quad_err_sd: float


def _grid_moments(model: LinearModel, ss: SuffStats, ranges, points: int) -> dict[str, tuple[float, float]]:
    axes = [np.linspace(lo, hi, points) for lo, hi in ranges]
    a, s, sig = axes
    b = 1.0 / s if model.reciprocal else s
    names = (model.intercept, model.slope, model.noise)
    lp_prior = [prior_logpdf(*model.priors[nm], ax) for nm, ax in zip(names, axes)]
    sse = ss.sse(a, b)
    lp = (
        lp_prior[0][:, None, None]
        + lp_prior[1][None, :, None]
        + lp_prior[2][None, None, :]
        - ss.n * np.log(sig)[None, None, :]
        - sse[:, :, None] / (2.0 * sig * sig)[None, None, :]
    )
    w = np.exp(lp - lp.max())
    total = w.sum()
    out = {}
    for axis, (nm, ax) in enumerate(zip(names, axes)):
        marginal = w.sum(axis=tuple(i for i in range(3) if i != axis)) / total
        edge = max(marginal[0], marginal[-1]) / marginal.max()
        if edge > 1e-6 and not _at_support_edge(model.priors[nm], ax):
            raise RuntimeError(f"grid for {nm} is too narrow (edge mass ratio {edge:.2e})")
        mean = float(np.dot(marginal, ax))
        out[nm] = (mean, float(math.sqrt(max(np.dot(marginal, (ax - mean) ** 2), 0.0))))
    return out


def _at_support_edge(prior, axis: np.ndarray) -> bool:
    family, params = prior
    if family == "Uniform":
        return axis[0] <= params["lower"] + 1e-12 or axis[-1] >= params["upper"] - 1e-12
    return family in ("HalfNormal", "Exponential") and axis[0] <= 1e-9 * axis[-1]


def _clip_range(prior, lo: float, hi: float) -> tuple[float, float]:
    family, params = prior
    if family == "Uniform":
        lo, hi = max(lo, params["lower"]), min(hi, params["upper"])
    elif family in ("HalfNormal", "Exponential"):
        lo = max(lo, 0.0)
    if lo <= 0.0 and family in ("HalfNormal", "Exponential"):
        lo = hi * 1e-9  # the noise scale cannot be 0 on the grid
    return lo, hi


def grid_posterior(model: LinearModel, ss: SuffStats) -> dict[str, Moments]:
    """Posterior mean and sd of each parameter by 3-D grid quadrature.

    A first grid is centred on the least-squares fit; the final grids are
    centred on the first grid's moments, so prior pull cannot leave the
    posterior outside the box.  The two final resolutions give the
    quadrature error.
    """
    a_hat, b_hat, rss, cxx = ss.least_squares()
    s2 = rss / (ss.n - 2)
    se_a = math.sqrt(s2 * (1.0 / ss.n + (ss.sx / ss.n) ** 2 / cxx))
    se_b = math.sqrt(s2 / cxx)
    s_hat = math.sqrt(s2)
    if model.reciprocal:
        centre = (a_hat, 1.0 / b_hat, s_hat)
        spread = (se_a, se_b / b_hat**2, s_hat / math.sqrt(2.0 * ss.n))
    else:
        centre = (a_hat, b_hat, s_hat)
        spread = (se_a, se_b, s_hat / math.sqrt(2.0 * ss.n))
    names = (model.intercept, model.slope, model.noise)

    def ranges(centres, sds, k):
        return [
            _clip_range(model.priors[nm], c - k * sd, c + k * sd)
            for nm, c, sd in zip(names, centres, sds)
        ]

    first = _grid_moments(model, ss, ranges(centre, spread, 2.0 * GRID_HALF_WIDTH), 121)
    final_ranges = ranges([first[nm][0] for nm in names], [first[nm][1] for nm in names], GRID_HALF_WIDTH)
    coarse, fine = (_grid_moments(model, ss, final_ranges, p) for p in GRID_POINTS)
    return {
        nm: Moments(
            mean=fine[nm][0],
            sd=fine[nm][1],
            quad_err_mean=abs(fine[nm][0] - coarse[nm][0]),
            quad_err_sd=abs(fine[nm][1] - coarse[nm][1]),
        )
        for nm in names
    }


# ---------------------------------------------------------------------------
# Effective sample size and R-hat


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    bounds = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1], True])
    avg = (bounds[:-1] + bounds[1:] + 1) / 2.0  # mean of 1-based ranks in each tie group
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(avg, np.diff(bounds))
    return ranks


def _split(chains: np.ndarray) -> np.ndarray:
    half = chains.shape[1] // 2
    return np.vstack([chains[:, :half], chains[:, half : 2 * half]])


def _ess(chains: np.ndarray) -> float:
    """Multi-chain ESS with Geyer's initial monotone sequence estimator."""
    m, n = chains.shape
    centred = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, size, axis=1)
    acov = np.fft.irfft(spec * np.conj(spec), size, axis=1)[:, :n] / n
    w = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = w * (n - 1.0) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus <= 0.0:
        return math.nan
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    pairs = rho[0 : 2 * (n // 2) : 2] + rho[1 : 2 * (n // 2) : 2]
    negative = np.flatnonzero(pairs < 0.0)
    if negative.size:
        pairs = pairs[: negative[0]]
    tau = -1.0 + 2.0 * float(np.minimum.accumulate(pairs).sum())
    return m * n / tau


def ess_bulk(chains: np.ndarray) -> float:
    """Bulk ESS: split chains, pooled average ranks, normal scores."""
    split = _split(np.asarray(chains, dtype=float))
    ranks = _average_ranks(split.ravel())
    scores = ndtri((ranks - 0.375) / (ranks.size + 0.25)).reshape(split.shape)
    return _ess(scores)


def ess_mean(chains: np.ndarray) -> float:
    """ESS of the draws themselves, which sets the MCSE of the mean."""
    return _ess(_split(np.asarray(chains, dtype=float)))


def split_rhat(chains: np.ndarray) -> float:
    split = _split(np.asarray(chains, dtype=float))
    n = split.shape[1]
    within = split.var(axis=1, ddof=1).mean()
    between = n * split.mean(axis=1).var(ddof=1)
    return math.sqrt(((n - 1.0) / n * within + between / n) / within)


# ---------------------------------------------------------------------------
# Reading outputs


def read_trace(path: Path) -> tuple[list[str], np.ndarray]:
    """trace.csv -> (parameter names, draws of shape (chains, draws, params))."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if header[:2] != ["chain", "draw"]:
        raise ValueError(f"{path}: unexpected trace header {header}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    chain = table[:, 0].astype(int)
    draw = table[:, 1].astype(int)
    n_chains, n_draws = chain.max() + 1, draw.max() + 1
    if table.shape[0] != n_chains * n_draws:
        raise ValueError(f"{path}: {table.shape[0]} rows for {n_chains} x {n_draws} draws")
    draws = np.empty((n_chains, n_draws, len(header) - 2))
    draws[chain, draw] = table[:, 2:]
    return header[2:], draws


def read_xy(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, header.index("X")], table[:, header.index("y")]


# ---------------------------------------------------------------------------
# Checks; each returns a list of failure messages (empty when it passes)


def check_fit(label: str, names: list[str], draws: np.ndarray, reference: dict[str, Moments]) -> list[str]:
    """Means and sds against the grid, within MCSE-scaled bands; R-hat bound."""
    failures = []
    if sorted(names) != sorted(reference):
        return [f"{label}: trace parameters {names} differ from the model's {sorted(reference)}"]
    for i, nm in enumerate(names):
        chains = draws[:, :, i]
        pooled = chains.ravel()
        ref = reference[nm]
        mean = float(pooled.mean())
        sd = float(pooled.std(ddof=1))
        mcse_mean = sd / math.sqrt(ess_mean(chains))
        tol_mean = MEAN_Z * mcse_mean + 2.0 * ref.quad_err_mean
        if not abs(mean - ref.mean) <= tol_mean:
            failures.append(
                f"{label}: mean of {nm} is {mean:.6g}, grid says {ref.mean:.6g} (tolerance {tol_mean:.3g})"
            )
        dev2 = (chains - mean) ** 2
        m4 = float((dev2**2).mean())
        mcse_var = math.sqrt(max(m4 - sd**4, 0.0) / ess_mean(dev2))
        tol_sd = SD_Z * mcse_var / (2.0 * sd) + 2.0 * ref.quad_err_sd
        if not abs(sd - ref.sd) <= tol_sd:
            failures.append(f"{label}: sd of {nm} is {sd:.6g}, grid says {ref.sd:.6g} (tolerance {tol_sd:.3g})")
        rhat = split_rhat(chains)
        if not rhat <= RHAT_MAX:
            failures.append(f"{label}: R-hat of {nm} is {rhat:.4f} (bound {RHAT_MAX})")
    return failures


def check_same_mean(param: str, fits: list[tuple[str, list[str], np.ndarray, dict[str, Moments]]]) -> list[str]:
    """Two fits' posterior means of ``param`` agree up to MCSE and their grids' gap."""
    (la, na, da, ra), (lb, nb, db, rb) = fits
    ca, cb = da[:, :, na.index(param)], db[:, :, nb.index(param)]
    mcse2 = sum(c.ravel().var(ddof=1) / ess_mean(c) for c in (ca, cb))
    tol = MEAN_Z * math.sqrt(mcse2) + abs(ra[param].mean - rb[param].mean)
    tol += 2.0 * (ra[param].quad_err_mean + rb[param].quad_err_mean)
    gap = abs(float(ca.mean()) - float(cb.mean()))
    if not gap <= tol:
        return [f"{la} and {lb} disagree on the mean of {param}: gap {gap:.4g} > {tol:.3g}"]
    return []


def check_histograms(plot_dir: Path, series: dict[str, tuple[list[str], np.ndarray]]) -> list[str]:
    """Every hist_<param>.csv column counts each pooled draw exactly once."""
    failures = []
    names = next(iter(series.values()))[0]
    for nm in names:
        path = plot_dir / f"hist_{nm}.csv"
        if not path.exists():
            failures.append(f"missing histogram {path.name}")
            continue
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        edges = np.r_[table[:, 0], table[-1, 1]]
        for label, (trace_names, draws) in series.items():
            column = f"count_{label}"
            if column not in header:
                failures.append(f"{path.name}: no column {column}")
                continue
            counts = table[:, header.index(column)]
            expected, _ = np.histogram(draws[:, :, trace_names.index(nm)].ravel(), bins=edges)
            if counts.sum() != expected.sum() or not np.array_equal(counts, expected):
                failures.append(
                    f"{path.name}: {column} counts {int(counts.sum())} draws, "
                    f"binning the trace gives {int(expected.sum())} of {draws.shape[0] * draws.shape[1]}"
                )
    return failures


def check_summary_means(path: Path, names: list[str], draws: np.ndarray) -> list[str]:
    """The ``summarize --format json`` means equal the trace's pooled means."""
    summary = json.loads(Path(path).read_text(encoding="utf-8"))["parameters"]
    failures = []
    for i, nm in enumerate(names):
        mean = float(draws[:, :, i].mean())
        if not abs(summary[nm]["mean"] - mean) <= 1e-9 * max(1.0, abs(mean)):
            failures.append(f"{Path(path).name}: mean of {nm} is {summary[nm]['mean']!r}, the trace's is {mean!r}")
    return failures


_ALIASES = {
    "mu": "mu", "loc": "mu", "mean": "mu",
    "sigma": "sigma", "sd": "sigma", "scale": "sigma",
    "lower": "lower", "low": "lower", "upper": "upper", "high": "upper",
    "lam": "lam", "rate": "lam", "lambda": "lam",
}


def check_blueprint(path: Path, priors: dict, formula: str) -> list[str]:
    """model.json states exactly the expected priors and likelihood mean."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    got = {
        name: (p["distribution"], {_ALIASES.get(k.lower(), k): float(v) for k, v in p["params"].items()})
        for name, p in obj.get("priors", {}).items()
    }
    want = {name: (family, {k: float(v) for k, v in params.items()}) for name, (family, params) in priors.items()}
    failures = []
    if got != want:
        failures.append(f"{path.name}: priors {got} differ from {want}")
    got_formula = "".join(str(obj.get("likelihood", {}).get("formula", "")).split())
    if got_formula != "".join(formula.split()):
        failures.append(f"{path.name}: likelihood mean {got_formula!r} differs from {formula!r}")
    return failures
