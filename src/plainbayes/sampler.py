"""Multi-chain MCMC: No-U-Turn sampler and adaptive random-walk Metropolis.

One Levenberg–Marquardt search per fit, before any chain runs, finds the mode
and the Laplace approximation Σ₀ = (−H)⁻¹ there; each chain starts at a draw
from N(mode, Σ₀), or, where the search finds none (no gradient, a non-finite
value, an indefinite Hessian, too many steps), from N(0, 0.1 I) with Σ₀ = I.
NUTS grows a trajectory by one join, which picks the proposal multinomially
within subtrees and by biased progressive sampling at the top, with a U-turn
check at each join; transitions whose Hamiltonian error exceeds 1000 are
divergent.  Its warmup adapts the step size by dual averaging toward a target
acceptance statistic, and a dense inverse metric: Σ₀, then each doubling
window's covariance.  RWM proposes z + m L ξ, L Lᵀ being Σ₀ and then each
window's covariance shrunk toward Σ₀ (without a mode, the Laplace
approximation at the window's mean by central differences of the value, or
where that has none the window's covariance shrunk toward its own variances,
as NUTS's is), with one dual averaging of m throughout.

Chain c takes its standard normals and its uniforms from two Philox streams
of its own, keyed by ``SeedSequence([seed, c, purpose])``, each drawn in
blocks and consumed in order, so chains, and fits at different seeds, are
independent and results reproducible bit for bit, whatever the block length.
They run in parallel in forked worker processes,
by default one per usable CPU and never more than chains (``jobs`` sets the
number).  Each worker runs its chains in order and sends their unconstrained
draws and stats back over a pipe; the parent constrains the draws as it does
for chains run in process, so the trace is the same bytes with any number of
workers.  With one worker, or a density not marked ``fork_safe`` (its side
effects must reach the caller), the chains run one after another in process.
``forked_map`` is that worker pool; the CLI's ``run`` also maps its fits
over it, one worker per fit, each with its share of the chain workers.
Warmup draws are discarded; adaptation is frozen after warmup so the kept
chain is Markovian.  Past the initial point, a non-finite density (say, a
positive parameter underflowing to 0 under a division) is log density -inf:
NUTS marks the step divergent and RWM rejects it; numpy overflow there is not
warned.  Both samplers step in Python floats, in code generated once per
dimension (``_float_core``), and call the density's float entry,
``PosteriorFn.float_density``.  A state is a tuple, (z, ∇log p, log p) for
NUTS and (z, log p) for RWM, z a tuple of floats.  A NUTS trajectory's edge is
(z, x, p, k): x = L⁻¹(z − z₀) and p = Lᵀ r, the position and momentum in the
coordinates the metric L Lᵀ makes isotropic, and k the half kick shared with
the next step in its direction.  The U-turn test projects x+ − x− on p, that
is z+ − z− on the momenta r, not on the velocities, as Stan's sum-of-momenta
test does for small steps.  The samplers take no BLAS product: matrices are
factored and the mode search's and starts' products summed in Python floats,
so the draws depend neither on the BLAS thread count nor on the CPU's kernel.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import threading
import warnings
from dataclasses import asdict, dataclass, replace
from functools import cache, partial
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, NoReturn

import numpy as np

from .data_io import SEED_BOUND, make_rng
from .errors import AllDivergent, BadInitialPoint, MalformedTrace, NonFiniteDensity, NonFiniteGradient, SamplerError

if TYPE_CHECKING:  # the model compiler loads only where a posterior is built, not to read a trace
    from .posterior import PosteriorFn

__all__ = ["SamplerConfig", "Trace", "nuts_sample", "rwm_sample", "sample", "worker_count", "forked_map", "save_trace", "load_trace"]

_DIVERGENCE_THRESHOLD = 1000.0  # Hamiltonian error that flags a divergence
_INIT_JITTER_SD = math.sqrt(0.1)  # initial z ~ N(0, 0.1 I)
_RWM_TARGET_ACCEPT = 0.234
_LAPLACE_MAX_STEPS = 100  # trial steps before the mode search gives up
_DA_GAMMA, _DA_T0, _DA_KAPPA = 0.05, 10.0, 0.75  # dual averaging's shrinkage, offset and decay
_NORMALS, _UNIFORMS = 1, 2  # a chain's stream purposes (0 would key the stream that [seed, chain] keys)
_BLOCK = 1024  # values a stream draws at a time


@dataclass(frozen=True)
class SamplerConfig:
    algorithm: str = "nuts"  # "nuts" | "rwm"
    chains: int = 4
    warmup_draws: int = 1000
    kept_draws: int = 1000
    seed: int = 0
    target_accept: float = 0.8
    max_tree_depth: int = 10
    step_size_init: float = 1.0

    def __post_init__(self):
        if self.algorithm not in ("nuts", "rwm"):
            raise SamplerError(f"unknown algorithm {self.algorithm!r} (expected 'nuts' or 'rwm')")
        if self.chains < 1:
            raise SamplerError(f"chains must be >= 1, got {self.chains}")
        if self.warmup_draws < 0:
            raise SamplerError(f"warmup_draws must be >= 0, got {self.warmup_draws}")
        if self.kept_draws < 1:
            raise SamplerError(f"kept_draws must be >= 1, got {self.kept_draws}")
        if not 0.0 < self.target_accept < 1.0:
            raise SamplerError(f"target_accept must be in (0, 1), got {self.target_accept}")
        if self.max_tree_depth < 1:
            raise SamplerError(f"max_tree_depth must be >= 1, got {self.max_tree_depth}")
        if not 0.0 < self.step_size_init < math.inf:
            raise SamplerError(f"step_size_init must be finite and > 0, got {self.step_size_init}")
        if not 0 <= self.seed < SEED_BOUND:
            raise SamplerError(f"seed must be a non-negative integer below 2**128, got {self.seed}")


@dataclass
class Trace:
    """Post-warmup constrained draws plus per-draw sampler statistics."""

    param_names: list[str]
    draws: np.ndarray  # (chains, kept_draws, dim)
    stats: dict[str, np.ndarray]  # each (chains, kept_draws)
    config: SamplerConfig | None = None

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    @property
    def n_draws(self) -> int:
        return self.draws.shape[1]

    def chains_for(self, param: str) -> np.ndarray:
        """Per-chain sample matrix (chains, draws) for one parameter."""
        return self.draws[:, :, self.param_names.index(param)]

    def pooled(self, param: str) -> np.ndarray:
        return self.chains_for(param).reshape(-1)


# ---------------------------------------------------------------------------
# Shared adaptation machinery


def _streams(seed: int, chain_index: int) -> tuple[Callable, Callable]:
    """Chain ``chain_index``'s next standard normal and next uniform on [0, 1): each the
    ``next`` of its own Philox stream keyed by (seed, chain, purpose), drawn ``_BLOCK`` values
    at a time and consumed in order, so no value depends on the block length."""
    normals, uniforms = (make_rng(seed, chain_index, purpose) for purpose in (_NORMALS, _UNIFORMS))
    return (chain.from_iterable(iter(lambda: normals.standard_normal(_BLOCK).tolist(), None)).__next__,
            chain.from_iterable(iter(lambda: uniforms.random(_BLOCK).tolist(), None)).__next__)


def _adapt_then_sample(bind: Callable, state: tuple, size: float, low: np.ndarray, refit: Callable,
                       warmup: int, target: float):
    """Warm up, then yield ``(z, stats_row)`` per kept draw, the row ``(accept, stat, divergent,
    size)``.  ``bind(low)`` is the move ``move(state, size) -> (state, accept, stat, divergent)``
    for the inverse metric L Lᵀ, ``state[0]`` its z.  Warm-up adapts ``size`` by Nesterov dual
    averaging of its log toward the acceptance ``target``, and at each window's close binds the
    factor L of ``refit(mean, cov, w)``, a ``_metric`` from the window's mean, covariance and
    shrinkage weight; where that is None (a window too degenerate to factor), the last L."""
    move, exp, sqrt = bind(low), math.exp, math.sqrt
    mu, count, h_bar, log_step, log_avg = math.log(10.0 * size), 0, 0.0, math.log(size), math.log(size)
    for n, window in _warmup_segments(warmup):
        rows = []
        for _ in range(n):
            state, accept, _, _ = move(state, exp(log_step))
            count += 1
            eta = 1.0 / (count + _DA_T0)
            h_bar = (1.0 - eta) * h_bar + eta * (target - accept)
            log_step = mu - sqrt(count) / _DA_GAMMA * h_bar
            w = count ** -_DA_KAPPA
            log_avg = w * log_step + (1.0 - w) * log_avg
            rows.append(state[0])
        if window:
            metric = refit(*_window_covariance(rows, low.shape[0]))
            move = bind(metric[2]) if metric else move
    size = exp(log_avg) if warmup > 0 else size
    while True:
        state, accept, stat, divergent = move(state, size)
        yield state[0], (accept, stat, divergent, size)


def _window_covariance(rows: list, dim: int) -> tuple[tuple, np.ndarray, float]:
    """A closed window's mean and sample covariance matrix of its states ``rows``, and its
    shrinkage weight: ``_welford(dim)``'s recurrences in Python floats (the upper triangle,
    mirrored here), whose diagonal has the bits of per-coordinate array recurrences."""
    n, mean, m2 = _welford(dim)(rows)
    m2 = np.array(m2)
    m2 += np.triu(m2, 1).T
    return tuple(mean), m2 / max(n - 1, 1), n / (n + 5.0)


def _shrunk(cov: np.ndarray, w: float, toward: np.ndarray):
    """``_metric`` of a window's covariance shrunk toward ``toward`` by its weight ``w``."""
    return _metric(w * cov + (1.0 - w) * toward)


@cache
def _welford(dim: int) -> Callable:
    """``welford(rows)``, generated for ``dim`` coordinates: the count of ``rows``, their means
    and their sums of squared deviations, upper triangle (the rest 0.0), by Welford's
    recurrences, one assignment per operation: per row, every delta from the
    old means, then the means, then every product with the new deviations."""
    idx = range(dim)
    upper = [(i, j) for i in idx for j in idx[i:]]
    matrix = ", ".join("[" + ", ".join(f"s{i}_{j}" if j >= i else "0.0" for j in idx) + "]" for i in idx)
    body = [f"d{j} = z{j} - m{j}" for j in idx] + [f"m{j} += d{j} / n" for j in idx]
    body += [f"a{j} = z{j} - m{j}" for j in idx] + [f"s{i}_{j} += d{i} * a{j}" for i, j in upper]
    source = "\n".join([
        "def welford(rows):",
        "    n = 0",
        *(f"    m{j} = 0.0" for j in idx),
        *(f"    s{i}_{j} = 0.0" for i, j in upper),
        f"    for {''.join(f'z{j}, ' for j in idx)}in rows:",
        "        n += 1",
        *(f"        {line}" for line in body),
        f"    return n, [{', '.join(f'm{j}' for j in idx)}], [{matrix}]",
    ])
    namespace = {}
    exec(source, namespace)
    return namespace["welford"]


def _adaptation_windows(warmup: int, init_buffer: int = 75, term_buffer: int = 50, base: int = 25):
    """(start, end] draw-index intervals for mass-matrix estimation windows."""
    if warmup < init_buffer + term_buffer + base:
        return []
    last = warmup - term_buffer
    windows = []
    pos, width = init_buffer, base
    while pos + width < last:
        if pos + 3 * width > last:
            windows.append((pos, last))
            pos = last
        else:
            windows.append((pos, pos + width))
            pos += width
            width *= 2
    if pos < last:
        windows.append((pos, last))
    return windows


def _warmup_segments(warmup: int) -> list:
    """``warmup`` iterations as runs ``(length, whether they are an adaptation window)``, in order."""
    windows = _adaptation_windows(warmup)
    if not windows:
        return [(warmup, False)]
    return [(windows[0][0], False), *((end - start, True) for start, end in windows), (warmup - windows[-1][1], False)]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a matrix ``a`` and a vector or matrix ``b``, each entry ``fsum_dot``'s."""
    from .posterior import fsum_dot
    out = np.array([[fsum_dot(row, col) for col in (b.T if b.ndim == 2 else [b])] for row in a])
    return out if b.ndim == 2 else out[:, 0]


def _laplace(vag: Callable | None, dim: int):
    """The Laplace approximation ``(mode, R, _metric(Σ₀))``, Σ₀ = (−H)⁻¹ = R Rᵀ with R = L⁻ᵀ
    of ``_metric(−H)`` (Tierney & Kadane 1986), by Levenberg–Marquardt on −log p from z = 0,
    H by central differences of the gradient; None without a gradient, where z = 0 or a
    difference point is not finite, at a final Σ₀ not positive definite, or after
    ``_LAPLACE_MAX_STEPS`` trial steps.  Numpy warns of nothing here."""
    if vag is None:
        return None
    from .posterior import fsum_dot

    def minus(z):  # (−log p, −∇log p) at z, or None where either is not finite
        try:
            logp, grad = vag(z)
        except (NonFiniteDensity, NonFiniteGradient):
            return None
        return (-logp, -grad) if math.isfinite(logp) and np.isfinite(grad).all() else None

    def hessian(z):  # of −log p, symmetrised, or None
        h = np.array([1e-5 * max(1.0, abs(v)) for v in z.tolist()])
        ends = [(minus(z + step), minus(z - step)) for step in np.diag(h)]
        if any(None in pair for pair in ends):
            return None
        columns = np.array([up[1] - down[1] for up, down in ends]) / (2.0 * h[:, None])
        return 0.5 * (columns + columns.T)

    def newton(damping):  # (R, Rᵀ g) with (H + damping |diag H|)⁻¹ = R Rᵀ, or None
        metric = _metric(hess + np.diag(damping * np.abs(np.diagonal(hess))))
        return metric and (metric[1], _product(metric[1].T, here[1]))

    with np.errstate(all="ignore"):
        z, here = np.zeros(dim), minus(np.zeros(dim))
        hess, damping = here and hessian(z), 1e-3
        for _ in range(_LAPLACE_MAX_STEPS):
            if hess is None:
                return None
            step = newton(0.0)
            if step and fsum_dot(step[1], step[1]) < 1e-10:  # the Newton decrement g·H⁻¹g
                metric = _metric(_product(step[0], step[0].T))
                return metric and (z, step[0], metric)
            step = newton(damping)
            if step:
                trial_z = z - _product(*step)
                trial = minus(trial_z)
                if trial and trial[0] < here[0]:
                    z, here, hess, damping = trial_z, trial, hessian(trial_z), damping / 10.0
                    continue
            damping *= 10.0
    return None


def _value_laplace(value: Callable, z: tuple):
    """``_metric(Σ)``, Σ = (−H)⁻¹ with H the Hessian of log p at ``z`` by central differences of
    ``value`` (the lower triangle, which alone ``_metric`` reads); None where a value is not
    finite or −H is not positive definite.  Numpy warns of nothing here."""
    h = [1e-4 * max(1.0, abs(v)) for v in z]

    def at(i, si, j, sj):  # log p at z moved si h_i along i, then sj h_j along j
        w = list(z)
        w[i] += si * h[i]
        w[j] += sj * h[j]
        try:
            return value(*w)
        except NonFiniteDensity:
            return -math.inf

    minus_h = [[(at(i, -1, j, 1) + at(i, 1, j, -1) - at(i, 1, j, 1) - at(i, -1, j, -1)) / (4.0 * h[i] * h[j])
                for j in range(i + 1)] + [0.0] * (len(z) - i - 1) for i in range(len(z))]
    with np.errstate(all="ignore"):
        metric = _metric(np.array(minus_h))
        return metric and _metric(_product(metric[1], metric[1].T))


def _initial_point(density: Callable, normal: Callable, dim: int, laplace, with_grad: bool, attempts: int = 100):
    """A chain's start z (a tuple), ``density(*z, with_grad)`` there and ``_metric(Σ₀)``: z ~
    N(mode, Σ₀) from the Laplace approximation ``laplace``, or without one z ~
    N(0, 0.1 I) and Σ₀ = I; redrawn while the density is not finite."""
    for _ in range(attempts):
        xi = np.array([normal() for _ in range(dim)])
        z = tuple((_INIT_JITTER_SD * xi if laplace is None else laplace[0] + _product(laplace[1], xi)).tolist())
        out = density(*z, with_grad)
        if math.isfinite(out[0] if with_grad else out):
            return z, out, _metric(np.eye(dim)) if laplace is None else laplace[2]
    raise BadInitialPoint(f"no finite log density found in {attempts} jittered initializations")


@cache
def _float_core(dim: int) -> Callable:
    """``make(low, density, normal, random)``, generated for ``dim`` coordinates: the samplers'
    arithmetic in Python floats, one line per coordinate, each sum unrolled, with the entries of
    a Cholesky factor L of the inverse metric (``low``, its lower triangle row by row) bound.
    It returns the functions
    - ``leapfrog(edge, e, h, h0)``: one step of signed size ``e`` = 2 ``h`` from the trajectory
      edge (z, x, p, k), in the coordinates x = L⁻¹(z − z₀) with momentum p = Lᵀ r, where the
      metric is the identity, k the half kick ``h`` Lᵀ∇log p; it returns the step as a one-leaf
      tree for ``_nuts``: [edge, edge, state (z, ∇log p, log p), ΔH, min(1, exp ΔH), 1,
      divergent, ok], ΔH the change in log joint density from ``h0`` (NaN is -inf, as is a
      ``NonFiniteDensity``, with gradient 0), divergent below ``-_DIVERGENCE_THRESHOLD``;
    - ``turning(minus, plus)``: whether the span x+ − x− shrinks at either end, projected on p;
    - ``start(state)``: a fresh momentum p ~ N(0, I), so r = L⁻ᵀ p ~ N(0, (L Lᵀ)⁻¹), and
      ``(z, p, Lᵀ∇log p, log p − p·p / 2)``;
    - ``edge(z, p, c, h)``: the edge at x = 0 toward the side of the signed half step ``h``;
    - ``propose(state, m)``: one random-walk Metropolis step from (z, log p) to z + m L ξ."""
    idx = range(dim)

    def names(prefix):  # "z0, z1, "
        return "".join(f"{prefix}{i}, " for i in idx)

    def lower(i, v):  # (L v)_i
        return " + ".join(f"l{i}_{j} * {v}{j}" for j in range(i + 1))

    def upper(i, v):  # (Lᵀ v)_i
        return " + ".join(f"l{j}_{i} * {v}{j}" for j in range(i, dim))

    def squares(prefix):
        return " + ".join(f"{prefix}{i} * {prefix}{i}" for i in idx)

    def each(line):
        return [line.format(i=i) for i in idx]

    kicks = "".join(f"{upper(i, 'g')}, " for i in idx)
    turned = " or ".join(f"{' + '.join(f'd{i} * {p}{i}' for i in idx)} < 0.0" for p in ("q", "p"))
    functions = {
        "leapfrog(edge, e, h, h0)": [
            f"z, {names('x')}{names('p')}{names('k')}= edge", f"{names('z')}= z",
            *each("p{i} += k{i}"), *each("v{i} = e * p{i}"), *each("x{i} += v{i}"),
            *(f"z{i} += {lower(i, 'v')}" for i in idx),
            "try:", f"    logp, {names('g')}= density({names('z')}True)",
            "except NonFiniteDensity:", f"    logp, {names('g')}= -inf, {'0.0, ' * dim}",
            *(f"k{i} = h * ({upper(i, 'g')})" for i in idx), *each("p{i} += k{i}"),
            f"dh = logp - 0.5 * ({squares('p')}) - h0", "dh = -inf if dh != dh else dh",
            f"z = ({names('z')})", f"edge = (z, {names('x')}{names('p')}{names('k')})",
            f"return [edge, edge, (z, ({names('g')}), logp), dh, exp(dh) if dh < 0.0 else 1.0, 1, dh < bound, dh >= bound]"],
        "turning(minus, plus)": [f"_, {names('a')}{names('q')}{'_, ' * dim}= minus",
                                 f"_, {names('b')}{names('p')}{'_, ' * dim}= plus", *each("d{i} = b{i} - a{i}"),
                                 f"return {turned}"],
        "start(state)": [
            f"z, ({names('g')}), logp = state", *each("p{i} = normal()"),
            f"return z, ({names('p')}), ({kicks}), logp - 0.5 * ({squares('p')})"],
        "edge(z, p, c, h)": [
            f"{names('p')}= p", f"{names('c')}= c", f"return (z, {'0.0, ' * dim}{names('p')}{names('h * c')})"],
        "propose(state, m)": [
            f"({names('z')}), logp = state", *each("n{i} = normal()"), *(f"y{i} = z{i} + m * ({lower(i, 'n')})" for i in idx),
            "try:", f"    new = density({names('y')})", "except NonFiniteDensity:", "    new = -inf",
            "delta = new - logp", "alpha = 1.0 if delta >= 0.0 else exp(delta)",
            f"if random() < alpha: return (({names('y')}), new), alpha, True, False", "return state, alpha, False, False"],
    }
    source = ["def make(low, density, normal, random):", f"    {''.join(f'l{i}_{j}, ' for i in idx for j in range(i + 1))}= low"]
    for signature, body in functions.items():
        source += [f"    def {signature}:", *(f"        {line}" for line in body)]
    source.append(f"    return {', '.join(signature.split('(')[0] for signature in functions)}")
    namespace = {"NonFiniteDensity": NonFiniteDensity, "inf": math.inf, "exp": math.exp, "bound": -_DIVERGENCE_THRESHOLD}
    exec("\n".join(source), namespace)
    return namespace["make"]


def _bound(low: np.ndarray, density: Callable, normal: Callable, random: Callable) -> tuple:
    """``_float_core``'s functions with the factor ``low`` bound."""
    return _float_core(low.shape[0])(low[np.tril_indices(low.shape[0])].tolist(), density, normal, random)


def _metric(inv_mass: np.ndarray):
    """``(inv_mass, L⁻ᵀ, L)`` with ``inv_mass = L Lᵀ``, the factors found in
    Python floats, so in the same bits under any BLAS; None if ``inv_mass``
    is not numerically positive definite."""
    a, dim = inv_mass.tolist(), inv_mass.shape[0]
    low, inv = [[0.0] * dim for _ in range(dim)], [[0.0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1):
            s = a[i][j] - math.fsum(low[i][k] * low[j][k] for k in range(j))
            if i > j:
                low[i][j] = s / low[j][j]
            elif 0.0 < s < math.inf:
                low[i][i] = math.sqrt(s)
            else:
                return None
    for c in range(dim):  # L⁻¹ by forward substitution, column by column
        for i in range(c, dim):
            inv[i][c] = (float(i == c) - math.fsum(low[i][k] * inv[k][c] for k in range(c, i))) / low[i][i]
    return inv_mass, np.array(inv).T.copy(), np.array(low)


def _diagonal(cov: np.ndarray) -> np.ndarray:
    return np.diag(np.diagonal(cov))


# ---------------------------------------------------------------------------
# NUTS


def _logaddexp(x: float, y: float) -> float:
    """``np.logaddexp`` of two floats, by numpy's formula and libm calls, bit for bit."""
    if x == y:
        return x + math.log(2.0)
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    if d <= 0:
        return y + math.log1p(math.exp(d))
    return d  # NaN


def _nuts(low: np.ndarray, density: Callable, normal: Callable, random: Callable, max_depth: int) -> tuple:
    """``(transition, first_step)`` for the inverse metric L Lᵀ, L = ``low``, on ``_float_core``'s
    arithmetic.  ``transition(state, eps) -> (state, accept, depth, divergent)`` is one NUTS
    transition from ``state = (z, ∇log p, log p)``: the tree of the state alone doubles toward
    random sides by biased joins, and the depth counts the subtrees that ended well.
    ``first_step(state)`` draws a momentum and gives the change in log joint density of one
    forward leapfrog step from ``state`` with it, as a function of the step size."""
    leapfrog, turning, start, edge, _ = _bound(low, density, normal, random)
    exp = math.exp

    def build(edge_, side, depth, e, h, h0):
        """A subtree of 2**depth leapfrog steps from ``edge_``, forward if ``side`` else
        backward, as the list [minus edge, plus edge, proposed state, log weight, acceptance
        sum, acceptance count, divergent, ok]: a leaf, or two halves and one ``join``."""
        if depth == 0:
            return leapfrog(edge_, e, h, h0)
        tree = build(edge_, side, depth - 1, e, h, h0)
        if tree[7]:
            join(tree, build(tree[side], side, depth - 1, e, h, h0), side, False)
        return tree

    def join(tree, sub, side, biased=False):
        """Grow the unfinished ``tree`` toward ``side`` by ``sub``, built from its edge
        there.  A ``sub`` that ended well adds its weight and gives its proposal with
        probability w(sub) / w(tree + sub) (multinomial, within subtrees) or, if ``biased``,
        min(1, w(sub) / w(tree)) (biased progressive, at the top); the joined tree stops if
        it turns."""
        tree[side] = sub[side]
        tree[4] += sub[4]
        tree[5] += sub[5]
        tree[6] = tree[6] or sub[6]
        if sub[7]:
            total = _logaddexp(tree[3], sub[3])
            log_ratio = sub[3] - (tree[3] if biased else total)
            if random() < (exp(log_ratio) if log_ratio < 0.0 else 1.0):  # exp(min(0, log_ratio))
                tree[2] = sub[2]
            tree[3] = total
        tree[7] = sub[7] and not turning(tree[0], tree[1])

    def transition(state, eps):
        z, p, c, h0 = start(state)
        h = 0.5 * eps
        tree = [edge(z, p, c, -h), edge(z, p, c, h), state, 0.0, 0.0, 0, False, True]
        depth = 0
        while tree[7] and depth < max_depth:
            side = random() < 0.5
            sub = build(tree[side], side, depth, eps if side else -eps, h if side else -h, h0)
            join(tree, sub, side, biased=True)
            depth += sub[7]
        return tree[2], tree[4] / max(tree[5], 1), depth, tree[6]

    def first_step(state):
        z, p, c, h0 = start(state)
        return lambda eps: leapfrog(edge(z, p, c, 0.5 * eps), eps, 0.5 * eps, h0)[3]

    return transition, first_step


def _find_reasonable_step_size(delta_h: Callable, init: float) -> float:
    """Double/halve the step size until ``delta_h``, one step's acceptance on its log scale, crosses 1/2."""
    eps = min(max(init, 1e-10), 1e7)  # a start outside the search range begins at its nearer end
    dh = delta_h(eps)
    direction = 1.0 if dh > math.log(0.5) else -1.0
    for _ in range(100):
        if not direction * dh > -direction * math.log(2.0):
            break
        eps *= 2.0 ** direction
        if not 1e-10 < eps < 1e7:
            break
        dh = delta_h(eps)
    return eps


_NUTS_STATS = (("accept_prob", float), ("tree_depth", np.int64), ("divergent", bool), ("step_size", float))


def _run_nuts_chain(pf: PosteriorFn, cfg: SamplerConfig, chain_index: int, laplace):
    """Warm up, then yield ``(z, stats_row)`` per kept transition, ordered as ``_NUTS_STATS``."""
    normal, random = _streams(cfg.seed, chain_index)
    z, (logp, *grad), metric = _initial_point(pf.float_density, normal, pf.dimension, laplace, True)
    state = (z, tuple(grad), logp)

    def bind(low):
        return _nuts(low, pf.float_density, normal, random, cfg.max_tree_depth)

    eps = _find_reasonable_step_size(bind(metric[2])[1](state), cfg.step_size_init)
    # Shrink the correlations toward 0, not the matrix toward 1e-3 I as Stan does, which
    # swamps a posterior variance far below 1e-3
    yield from _adapt_then_sample(lambda low: bind(low)[0], state, eps, metric[2],
                                  lambda mean, cov, w: _shrunk(cov, w, _diagonal(cov)), cfg.warmup_draws, cfg.target_accept)


def nuts_sample(pf: PosteriorFn, cfg: SamplerConfig, *, jobs: int | None = None) -> Trace:
    """Run ``cfg.chains`` independent NUTS chains and collect kept draws;
    ``jobs`` caps the worker processes (see ``worker_count``)."""
    return _run_chains(_run_nuts_chain, _NUTS_STATS, pf, replace(cfg, algorithm="nuts"), jobs)


# ---------------------------------------------------------------------------
# Random-walk Metropolis


_RWM_STATS = (("accept_prob", float), ("step_accepted", bool), ("divergent", bool), ("step_size", float))


def _run_rwm_chain(pf: PosteriorFn, cfg: SamplerConfig, chain_index: int, laplace):
    """Warm up, then yield ``(z, stats_row)`` per kept transition, ordered as ``_RWM_STATS``."""
    normal, random = _streams(cfg.seed, chain_index)
    value = pf.float_density
    z, logp, (cov0, _, low) = _initial_point(value, normal, pf.dimension, laplace, False)

    def refit(mean, cov, w):  # without a mode, the Laplace approximation at the window's mean where it has one
        if laplace is not None:
            return _shrunk(cov, w, cov0)
        return _value_laplace(value, mean) or _shrunk(cov, w, _diagonal(cov))

    yield from _adapt_then_sample(lambda low: _bound(low, value, normal, random)[4], (z, logp),
                                  2.38 / math.sqrt(pf.dimension), low, refit, cfg.warmup_draws, _RWM_TARGET_ACCEPT)


def rwm_sample(pf: PosteriorFn, cfg: SamplerConfig, *, jobs: int | None = None) -> Trace:
    """Gradient-free fallback: adaptive Gaussian random-walk Metropolis."""
    return _run_chains(_run_rwm_chain, _RWM_STATS, pf, replace(cfg, algorithm="rwm"), jobs)


def worker_count(chains: int, jobs: int | None = None) -> int:
    """Worker processes for ``chains`` chains: ``jobs``, by default one per
    usable CPU, and never more than there are chains."""
    if jobs is None:
        try:
            jobs = len(os.sched_getaffinity(0))
        except AttributeError:  # a platform without CPU affinity
            jobs = os.cpu_count() or 1
    elif jobs < 1:
        raise SamplerError(f"jobs must be >= 1, got {jobs}")
    return min(chains, jobs)


def _run_chains(run_chain: Callable, stat_types, pf: PosteriorFn, cfg: SamplerConfig, jobs: int | None) -> Trace:
    """Pull ``cfg.kept_draws`` kept ``(z, stats_row)`` transitions from each
    chain's runner and collect the constrained draws and the named stats, the
    chains mapped over ``worker_count(cfg.chains, jobs)`` workers by
    ``forked_map``."""
    if pf.dimension < 1:
        raise SamplerError("posterior must have dimension >= 1")
    run_chain = partial(run_chain, laplace=_laplace(pf.unchecked_value_and_grad, pf.dimension))  # before any fork
    chains = forked_map(partial(_kept, run_chain, stat_types, pf, cfg), cfg.chains, worker_count(cfg.chains, jobs), pf.fork_safe)
    unconstrained = np.array([rows for rows, _ in chains])
    stats = {name: np.array([columns[k] for _, columns in chains]) for k, (name, _) in enumerate(stat_types)}
    # Each column through its own transform's scalar forward (an identity's is
    # the column): the floats and function a per-draw pf.constrain uses, so the same bits.
    from .distributions import IdentityTransform
    draws = unconstrained.copy()
    for i, tf in enumerate(pf.transforms):
        if not isinstance(tf, IdentityTransform):
            column = unconstrained[:, :, i]
            draws[:, :, i] = np.reshape([tf.forward(v) for v in column.ravel().tolist()], column.shape)
    divergent_fraction = float(np.mean(stats["divergent"]))
    if divergent_fraction > 0.5:
        raise AllDivergent(divergent_fraction)
    return Trace(param_names=list(pf.param_names), draws=draws, stats=stats, config=cfg)


def _kept(run_chain: Callable, stat_types, pf: PosteriorFn, cfg: SamplerConfig, c: int) -> tuple:
    """Chain ``c``'s kept draws, shape (kept_draws, dim), and one array per stat."""
    with np.errstate(over="ignore"):
        kept = list(islice(run_chain(pf, cfg, c), cfg.kept_draws))
    columns = zip(*[stats_row for _, stats_row in kept])
    return np.array([z for z, _ in kept]), [np.array(values, dtype) for (_, dtype), values in zip(stat_types, columns)]


# ---------------------------------------------------------------------------
# Forked workers

_in_worker = False  # set in each forked worker: its own workers join its process group


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def forked_map(fn: Callable, n: int, workers: int, fork_safe: bool) -> list:
    """``[fn(i) for i in range(n)]``, in ``min(workers, n)`` forked processes
    when that is more than one, ``fn`` is ``fork_safe`` (its only effects are
    its result and files), the platform forks and this is the main thread
    (which alone receives signals); else one after another here.  Worker
    ``w`` runs tasks w, w + workers, ... in order, stops at the first that
    raises, and sends back its results, which must pickle.

    The caller gets the exception of the lowest-index task that raised.
    Whatever ends this call stops and reaps every worker first: a return, an
    exception, Ctrl-C, or SIGTERM while its action is the default one (it
    then ends the process with status 128 + SIGTERM, as SystemExit).  A
    worker forked here leads a process group, which its own workers join, so
    one ``killpg`` stops a worker and all it forked."""
    workers = min(workers, n)
    if workers < 2 or not fork_safe or not hasattr(os, "fork") or threading.current_thread() is not threading.main_thread():
        return [fn(i) for i in range(n)]
    relay = signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
    if relay:
        signal.signal(signal.SIGTERM, _exit_on_sigterm)
    results, pids, pipes = [None] * n, [], []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(read_fd)
            # Hold SIGINT and SIGTERM until the new worker is on the list the cleanup stops.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
            try:
                pid = _fork()
                if pid == 0:
                    _worker(fn, range(w, n, workers), write_fd, mask)
                pids.append(pid)
                if not _in_worker:
                    os.setpgid(pid, pid)  # as the worker does, so the cleanup finds its group
            finally:
                os.close(write_fd)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        failures = []
        for pid, read_fd in zip(pids, pipes):
            with open(read_fd, "rb", closefd=False) as pipe:
                try:
                    done, failure = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise SamplerError(f"worker {pid} exited without sending its results") from None
            for i, result in done:
                results[i] = result
            if failure is not None:
                failures.append(failure)
        if failures:
            exc = min(failures, key=lambda failure: failure[0])[1]
            if not isinstance(exc, BaseException):
                cls, args, attrs = exc
                exc = cls.__new__(cls, *args)
                exc.__dict__.update(attrs)
            raise exc
        return results
    finally:
        for read_fd in pipes:
            os.close(read_fd)
        for pid in pids:
            (os.kill if _in_worker else os.killpg)(pid, signal.SIGKILL)  # one that sent its results is only exiting
            os.waitpid(pid, 0)
        if relay:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _fork() -> int:
    with warnings.catch_warnings():
        # Python 3.12+ warns when it forks a process that has other threads,
        # such as OpenBLAS's pool, since one may hold a lock the child then
        # waits on forever.  OpenBLAS joins its pool before a fork (it
        # registers pthread_atfork), so none of its threads holds one.
        warnings.simplefilter("ignore", DeprecationWarning)
        return os.fork()


def _worker(fn: Callable, tasks, fd: int, mask) -> NoReturn:
    """A forked worker: run ``tasks`` in order, stopping at the first that
    raises, and send the parent ``(done, failure)``, the finished tasks'
    ``(i, fn(i))`` and ``(i, _portable(exception))`` of the failing task or
    None.  It leaves only through ``os._exit``, so nothing of
    the parent's (buffers, atexit hooks, callers' cleanup) runs twice."""
    global _in_worker
    code = 1
    try:
        if not _in_worker:
            os.setpgid(0, 0)
        _in_worker = True
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        done, failure = [], None
        for i in tasks:
            try:
                done.append((i, fn(i)))
            except Exception as exc:
                failure = (i, _portable(exc))
                break
        with open(fd, "wb") as pipe:
            pickle.dump((done, failure), pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _portable(exc: Exception):
    """``exc`` where pickle carries it whole (an ``OSError`` with its file
    name), else as (type, args, attributes), rebuilt in the parent without
    ``__init__``: unpickling an exception calls ``__init__`` with ``args``,
    which some of ours do not take (``AllDivergent``) or take as other words
    (``UnknownDistribution``)."""
    try:
        copy = pickle.loads(pickle.dumps(exc))
        if type(copy) is type(exc) and str(copy) == str(exc) and vars(copy) == vars(exc):
            return exc
    except Exception:
        pass
    parts = (type(exc), exc.args, vars(exc))
    try:
        pickle.dumps(parts)
    except Exception:  # a class or an attribute pickle cannot carry
        return SamplerError, (f"{type(exc).__name__}: {exc}",), {}
    return parts


def sample(pf: PosteriorFn, cfg: SamplerConfig, *, jobs: int | None = None) -> Trace:
    """Dispatch on ``cfg.algorithm``."""
    return nuts_sample(pf, cfg, jobs=jobs) if cfg.algorithm == "nuts" else rwm_sample(pf, cfg, jobs=jobs)


# ---------------------------------------------------------------------------
# Serialization


def save_trace(trace: Trace, csv_path, stats_path=None) -> None:
    """Write draws as CSV (``chain,draw,<params...>``) and stats as sidecar JSON.

    Floats are rendered with ``repr`` so a load reproduces them bit for bit.
    The sidecar is what ``json.dump(payload, fh, indent=2)`` writes; each
    chain's list is rendered by the C encoder and indented by separators.
    """
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["chain", "draw"] + list(trace.param_names)) + "\n")
        for c in range(trace.n_chains):
            chain = np.ascontiguousarray(trace.draws[c], dtype=float)
            # a rejected RWM proposal repeats the previous row bit for bit
            # (-0.0 and 0.0 differ): render such a row's cells once
            repeats = [False] + (chain[1:].view(np.int64) == chain[:-1].view(np.int64)).all(axis=1).tolist()
            lines = []
            for d, (row, repeat) in enumerate(zip(chain.tolist(), repeats)):
                if not repeat:
                    cells = "".join("," + repr(v) for v in row)
                lines.append(f"{c},{d}{cells}\n")
            fh.write("".join(lines))
    if stats_path is not None:
        payload = {
            "param_names": list(trace.param_names),
            "config": asdict(trace.config) if trace.config is not None else None,
            "stats": {name: np.asarray(values).tolist() for name, values in trace.stats.items()},
        }
        with open(stats_path, "w", encoding="utf-8") as fh:
            for piece in _indented_json(payload):
                fh.write(piece)


def _indented_json(value, depth: int = 0):
    """Yield in pieces the text ``json.dump(value, fh, indent=2)`` writes for a
    value ``depth`` levels deep.  A list of scalars (one chain's stat, the
    ``tolist`` of one array, so of one type) is one piece, rendered by the C
    encoder with the indentation as its separator, or from one item if all
    are equal."""
    pad = "\n" + "  " * (depth + 1)
    if isinstance(value, dict) and value:
        for k, (key, item) in enumerate(value.items()):
            yield ("{" if k == 0 else ",") + pad + json.dumps(key) + ": "
            yield from _indented_json(item, depth + 1)
        yield pad[:-2] + "}"
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        for k, item in enumerate(value):
            yield ("[" if k == 0 else ",") + pad
            yield from _indented_json(item, depth + 1)
        yield pad[:-2] + "]"
    elif isinstance(value, list) and value:
        first = value[0]  # equal items (a chain's step size) render alike, but for a float 0 (signed)
        if value.count(first) == len(value) and (first or type(first) is not float):
            yield "[" + pad + ("," + pad).join([json.dumps(first)] * len(value)) + pad[:-2] + "]"
        else:
            yield "[" + pad + json.dumps(value, separators=("," + pad, ": "))[1:-1] + pad[:-2] + "]"
    else:
        yield json.dumps(value)


def load_trace(csv_path, stats_path=None) -> Trace:
    """Read a trace CSV (plus optional stats sidecar) back into a Trace."""
    with open(csv_path, "r", encoding="utf-8", errors="replace") as fh:  # a byte not UTF-8 makes a bad cell
        header = fh.readline().strip()
        if not header:
            raise MalformedTrace(f"{csv_path}: empty trace file")
        columns = header.split(",")
        if len(columns) < 3 or columns[0] != "chain" or columns[1] != "draw":
            raise MalformedTrace(f"{csv_path}: expected header 'chain,draw,<params...>'")
        param_names = columns[2:]
        if bad := [n for n in param_names if not (n.isascii() and n.isidentifier()) or param_names.count(n) > 1]:
            raise MalformedTrace(f"{csv_path}: parameter column {bad[0]!r} is not a distinct identifier")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(columns):
                raise MalformedTrace(f"{csv_path}:{lineno}: expected {len(columns)} cells, got {len(cells)}")
            try:
                chain, draw = int(cells[0]), int(cells[1])
                rows.append((chain, draw, [float(v) for v in cells[2:]]))
            except ValueError as exc:
                raise MalformedTrace(f"{csv_path}:{lineno}: {exc}") from None
            if chain < 0 or draw < 0:
                raise MalformedTrace(f"{csv_path}:{lineno}: negative chain or draw id")
    if not rows:
        raise MalformedTrace(f"{csv_path}: no draws")

    n_chains = max(r[0] for r in rows) + 1
    n_draws = max(r[1] for r in rows) + 1
    if len(rows) != n_chains * n_draws:
        raise MalformedTrace(f"{csv_path}: expected {n_chains * n_draws} rows, found {len(rows)}")
    draws = np.empty((n_chains, n_draws, len(param_names)))
    seen = np.zeros((n_chains, n_draws), dtype=bool)
    for chain, draw, values in rows:
        if seen[chain, draw]:
            raise MalformedTrace(f"{csv_path}: duplicate (chain={chain}, draw={draw})")
        seen[chain, draw] = True
        draws[chain, draw] = values

    stats: dict[str, np.ndarray] = {}
    config = None
    if stats_path is not None:
        with open(stats_path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise MalformedTrace(f"{stats_path}: not valid JSON: {exc}") from None
        if not isinstance(payload, dict) or not isinstance(payload.get("stats", {}), dict):
            raise MalformedTrace(f"{stats_path}: expected a JSON object with a 'stats' object")
        sidecar_names = payload.get("param_names")
        if sidecar_names is not None and sidecar_names != param_names:
            raise MalformedTrace(
                f"{stats_path}: sidecar parameters {sidecar_names} do not match trace header {param_names}"
            )
        if payload.get("config") is not None:
            try:
                config = SamplerConfig(**payload["config"])
            except (TypeError, SamplerError) as exc:
                raise MalformedTrace(f"{stats_path}: bad sampler config: {exc}") from None
        for name, values in payload.get("stats", {}).items():
            try:
                arr = np.asarray(values)
            except ValueError as exc:  # lists nested unevenly
                raise MalformedTrace(f"{stats_path}: stat {name!r}: {exc}") from None
            if arr.shape[:2] != (n_chains, n_draws):
                raise MalformedTrace(
                    f"{stats_path}: stat {name!r} has shape {arr.shape}, expected ({n_chains}, {n_draws})"
                )
            stats[name] = arr
    return Trace(param_names=param_names, draws=draws, stats=stats, config=config)
