"""Multi-chain MCMC: No-U-Turn sampler and adaptive random-walk Metropolis.

The NUTS implementation uses multinomial state selection over the implicit
trajectory tree, dual averaging of the step size toward a target acceptance
statistic, and windowed estimation of a diagonal mass matrix during warmup
(a short initial step-size-only phase, doubling estimation windows, and a
terminal step-size-only phase).  Transitions whose Hamiltonian error exceeds
1000 are flagged divergent and their subtree is discarded.

Chains run one after another, each drawing from its own Philox stream keyed
by ``seed + chain_index``, so results are reproducible bit for bit.  Warmup
draws are discarded; adaptation is frozen after warmup so the kept chain is
Markovian.  Past the initial point, a non-finite density (say, a positive
parameter underflowing to 0 under a division) is log density -inf: NUTS marks
the step divergent and RWM rejects it; numpy overflow there is not warned.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import AllDivergent, BadInitialPoint, MalformedTrace, NonFiniteDensity, SamplerError
from .posterior import PosteriorFn

__all__ = ["SamplerConfig", "Trace", "nuts_sample", "rwm_sample", "save_trace", "load_trace"]

_DIVERGENCE_THRESHOLD = 1000.0  # Hamiltonian error that flags a divergence
_INIT_JITTER_SD = math.sqrt(0.1)  # initial z ~ N(0, 0.1 I)
_RWM_TARGET_ACCEPT = 0.234


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
        if not self.step_size_init > 0:
            raise SamplerError(f"step_size_init must be > 0, got {self.step_size_init}")
        if self.seed < 0:
            raise SamplerError(f"seed must be a non-negative integer, got {self.seed}")


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


class _DualAveraging:
    """Nesterov dual averaging of log step size toward a target acceptance."""

    GAMMA = 0.05
    T0 = 10.0
    KAPPA = 0.75

    def __init__(self, step_size: float, target: float):
        self.mu = math.log(10.0 * step_size)
        self.log_step = math.log(step_size)
        self.log_step_avg = math.log(step_size)
        self.h_bar = 0.0
        self.m = 0
        self.target = target

    def update(self, accept: float) -> None:
        self.m += 1
        eta = 1.0 / (self.m + self.T0)
        self.h_bar = (1.0 - eta) * self.h_bar + eta * (self.target - accept)
        self.log_step = self.mu - math.sqrt(self.m) / self.GAMMA * self.h_bar
        w = self.m ** (-self.KAPPA)
        self.log_step_avg = w * self.log_step + (1.0 - w) * self.log_step_avg

    @property
    def current(self) -> float:
        return math.exp(self.log_step)

    @property
    def averaged(self) -> float:
        return math.exp(self.log_step_avg)


class _Welford:
    """Streaming mean/variance accumulator for mass-matrix estimation."""

    def __init__(self, dim: int):
        self.n = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)

    def add(self, x: np.ndarray) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    def regularized_variance(self) -> np.ndarray:
        # Shrink toward 1e-3 like Stan does, so short windows stay sane.
        var = self.m2 / max(self.n - 1, 1)
        w = self.n / (self.n + 5.0)
        return w * var + 1e-3 * (1.0 - w)


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


def _chain_rng(seed: int, chain_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed + chain_index))


def _initial_point(value_fn: Callable, rng: np.random.Generator, dim: int, attempts: int = 100):
    for _ in range(attempts):
        z = _INIT_JITTER_SD * rng.standard_normal(dim)
        out = value_fn(z)
        logp = out[0] if isinstance(out, tuple) else out
        if math.isfinite(logp):
            return z, out
    raise BadInitialPoint(
        f"no finite log density found in {attempts} jittered initializations"
    )


# ---------------------------------------------------------------------------
# NUTS


@dataclass
class _Tree:
    z_minus: np.ndarray
    r_minus: np.ndarray
    grad_minus: np.ndarray
    logp_minus: float
    z_plus: np.ndarray
    r_plus: np.ndarray
    grad_plus: np.ndarray
    logp_plus: float
    z_prop: np.ndarray
    logp_prop: float
    grad_prop: np.ndarray
    log_weight: float
    alpha_sum: float
    n_alpha: int
    divergent: bool
    ok: bool


def _kinetic(r: np.ndarray, inv_mass: np.ndarray) -> float:
    return 0.5 * float(np.dot(r, inv_mass * r))


def _leapfrog(vag, z, r, grad, eps, inv_mass):
    r_half = r + 0.5 * eps * grad
    z_new = z + eps * inv_mass * r_half
    try:
        logp_new, grad_new = vag(z_new)
    except NonFiniteDensity:
        logp_new, grad_new = -math.inf, np.zeros_like(z_new)
    r_new = r_half + 0.5 * eps * grad_new
    return z_new, r_new, grad_new, logp_new


def _is_turning(z_minus, z_plus, r_minus, r_plus, inv_mass) -> bool:
    dz = z_plus - z_minus
    return (
        float(np.dot(dz, inv_mass * r_minus)) < 0.0
        or float(np.dot(dz, inv_mass * r_plus)) < 0.0
    )


def _build_tree(vag, z, r, grad, logp, direction, depth, eps, inv_mass, h0, rng) -> _Tree:
    if depth == 0:
        z1, r1, grad1, logp1 = _leapfrog(vag, z, r, grad, direction * eps, inv_mass)
        h1 = logp1 - _kinetic(r1, inv_mass)
        delta_h = h1 - h0
        if math.isnan(delta_h):
            delta_h = -math.inf
        divergent = delta_h < -_DIVERGENCE_THRESHOLD
        return _Tree(
            z_minus=z1, r_minus=r1, grad_minus=grad1, logp_minus=logp1,
            z_plus=z1, r_plus=r1, grad_plus=grad1, logp_plus=logp1,
            z_prop=z1, logp_prop=logp1, grad_prop=grad1,
            log_weight=delta_h,
            alpha_sum=min(1.0, math.exp(min(0.0, delta_h))),
            n_alpha=1,
            divergent=divergent,
            ok=not divergent,
        )

    first = _build_tree(vag, z, r, grad, logp, direction, depth - 1, eps, inv_mass, h0, rng)
    if not first.ok:
        return first

    if direction == -1:
        second = _build_tree(
            vag, first.z_minus, first.r_minus, first.grad_minus, first.logp_minus,
            direction, depth - 1, eps, inv_mass, h0, rng,
        )
        first.z_minus = second.z_minus
        first.r_minus = second.r_minus
        first.grad_minus = second.grad_minus
        first.logp_minus = second.logp_minus
    else:
        second = _build_tree(
            vag, first.z_plus, first.r_plus, first.grad_plus, first.logp_plus,
            direction, depth - 1, eps, inv_mass, h0, rng,
        )
        first.z_plus = second.z_plus
        first.r_plus = second.r_plus
        first.grad_plus = second.grad_plus
        first.logp_plus = second.logp_plus

    first.alpha_sum += second.alpha_sum
    first.n_alpha += second.n_alpha
    first.divergent = first.divergent or second.divergent
    if not second.ok:
        first.ok = False
        return first

    # Multinomial selection between the two sibling subtrees.
    total = np.logaddexp(first.log_weight, second.log_weight)
    p_second = math.exp(min(0.0, second.log_weight - total))
    if rng.random() < p_second:
        first.z_prop = second.z_prop
        first.logp_prop = second.logp_prop
        first.grad_prop = second.grad_prop
    first.log_weight = float(total)

    if _is_turning(first.z_minus, first.z_plus, first.r_minus, first.r_plus, inv_mass):
        first.ok = False
    return first


def _nuts_transition(vag, z, logp, grad, eps, inv_mass, rng, max_depth):
    dim = z.shape[0]
    r0 = rng.standard_normal(dim) / np.sqrt(inv_mass)
    h0 = logp - _kinetic(r0, inv_mass)

    z_minus = z_plus = z
    r_minus = r_plus = r0
    grad_minus = grad_plus = grad
    logp_minus = logp_plus = logp
    z_cur, logp_cur, grad_cur = z, logp, grad

    log_weight = 0.0  # weight of the initial point relative to itself
    alpha_sum = 0.0
    n_alpha = 0
    divergent = False
    depth = 0

    while depth < max_depth:
        direction = 1 if rng.random() < 0.5 else -1
        if direction == -1:
            sub = _build_tree(vag, z_minus, r_minus, grad_minus, logp_minus,
                              -1, depth, eps, inv_mass, h0, rng)
            z_minus, r_minus = sub.z_minus, sub.r_minus
            grad_minus, logp_minus = sub.grad_minus, sub.logp_minus
        else:
            sub = _build_tree(vag, z_plus, r_plus, grad_plus, logp_plus,
                              1, depth, eps, inv_mass, h0, rng)
            z_plus, r_plus = sub.z_plus, sub.r_plus
            grad_plus, logp_plus = sub.grad_plus, sub.logp_plus

        alpha_sum += sub.alpha_sum
        n_alpha += sub.n_alpha
        divergent = divergent or sub.divergent
        if not sub.ok:
            break

        # Biased progressive sampling: favor the fresh subtree.
        p_new = math.exp(min(0.0, sub.log_weight - log_weight))
        if rng.random() < p_new:
            z_cur, logp_cur, grad_cur = sub.z_prop, sub.logp_prop, sub.grad_prop
        log_weight = float(np.logaddexp(log_weight, sub.log_weight))

        depth += 1
        if _is_turning(z_minus, z_plus, r_minus, r_plus, inv_mass):
            break

    accept_stat = alpha_sum / max(n_alpha, 1)
    return z_cur, logp_cur, grad_cur, accept_stat, depth, divergent


def _find_reasonable_step_size(vag, z, logp, grad, inv_mass, rng, init: float) -> float:
    """Double/halve the step size until the one-step acceptance crosses 1/2."""
    eps = init
    dim = z.shape[0]
    r = rng.standard_normal(dim) / np.sqrt(inv_mass)
    h0 = logp - _kinetic(r, inv_mass)

    def delta_h(step: float) -> float:
        _, r1, _, logp1 = _leapfrog(vag, z, r, grad, step, inv_mass)
        dh = (logp1 - _kinetic(r1, inv_mass)) - h0
        return -math.inf if math.isnan(dh) else dh

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


def _run_nuts_chain(pf: PosteriorFn, cfg: SamplerConfig, chain_index: int):
    rng = _chain_rng(cfg.seed, chain_index)
    dim = pf.dimension
    vag = pf.log_density_and_grad

    z, (logp, grad) = _initial_point(vag, rng, dim)
    inv_mass = np.ones(dim)
    eps = _find_reasonable_step_size(vag, z, logp, grad, inv_mass, rng, cfg.step_size_init)
    averaging = _DualAveraging(eps, cfg.target_accept)

    windows = _adaptation_windows(cfg.warmup_draws)
    window_index = 0
    welford = _Welford(dim)

    for m in range(cfg.warmup_draws):
        z, logp, grad, accept, _, _ = _nuts_transition(
            vag, z, logp, grad, averaging.current, inv_mass, rng, cfg.max_tree_depth
        )
        averaging.update(accept)
        if window_index < len(windows):
            start, end = windows[window_index]
            if start <= m < end:
                welford.add(z)
            if m + 1 == end:
                inv_mass = welford.regularized_variance()
                welford = _Welford(dim)
                window_index += 1

    eps = averaging.averaged if cfg.warmup_draws > 0 else eps

    draws = np.empty((cfg.kept_draws, dim))
    accept_stats = np.empty(cfg.kept_draws)
    depths = np.empty(cfg.kept_draws, dtype=np.int64)
    divergences = np.zeros(cfg.kept_draws, dtype=bool)
    for d in range(cfg.kept_draws):
        z, logp, grad, accept, depth, divergent = _nuts_transition(
            vag, z, logp, grad, eps, inv_mass, rng, cfg.max_tree_depth
        )
        constrained = pf.constrain(z)
        draws[d] = [constrained[name] for name in pf.param_names]
        accept_stats[d] = accept
        depths[d] = depth
        divergences[d] = divergent
    step_sizes = np.full(cfg.kept_draws, eps)
    return draws, {
        "accept_prob": accept_stats,
        "tree_depth": depths,
        "divergent": divergences,
        "step_size": step_sizes,
    }


def nuts_sample(pf: PosteriorFn, cfg: SamplerConfig) -> Trace:
    """Run ``cfg.chains`` independent NUTS chains and collect kept draws."""
    return _run_chains(_run_nuts_chain, pf, cfg)


# ---------------------------------------------------------------------------
# Random-walk Metropolis


def _run_rwm_chain(pf: PosteriorFn, cfg: SamplerConfig, chain_index: int):
    rng = _chain_rng(cfg.seed, chain_index)
    dim = pf.dimension
    value = pf.log_density

    z, logp = _initial_point(value, rng, dim)
    base_scale = np.ones(dim)
    multiplier = 2.38 / math.sqrt(dim)
    averaging = _DualAveraging(multiplier, _RWM_TARGET_ACCEPT)

    windows = _adaptation_windows(cfg.warmup_draws)
    window_index = 0
    welford = _Welford(dim)

    def step(z, logp, scale):
        proposal = z + scale * rng.standard_normal(dim)
        try:
            logp_new = value(proposal)
        except NonFiniteDensity:
            logp_new = -math.inf
        delta = logp_new - logp
        alpha = 1.0 if delta >= 0 else math.exp(delta)
        if rng.random() < alpha:
            return proposal, logp_new, alpha, True
        return z, logp, alpha, False

    for m in range(cfg.warmup_draws):
        z, logp, alpha, _ = step(z, logp, averaging.current * base_scale)
        averaging.update(alpha)
        if window_index < len(windows):
            start, end = windows[window_index]
            if start <= m < end:
                welford.add(z)
            if m + 1 == end:
                base_scale = np.sqrt(welford.regularized_variance())
                welford = _Welford(dim)
                window_index += 1
                averaging = _DualAveraging(averaging.current, _RWM_TARGET_ACCEPT)

    multiplier = averaging.averaged if cfg.warmup_draws > 0 else multiplier
    scale = multiplier * base_scale

    draws = np.empty((cfg.kept_draws, dim))
    accept_stats = np.empty(cfg.kept_draws)
    accepted = np.zeros(cfg.kept_draws, dtype=bool)
    for d in range(cfg.kept_draws):
        z, logp, alpha, moved = step(z, logp, scale)
        constrained = pf.constrain(z)
        draws[d] = [constrained[name] for name in pf.param_names]
        accept_stats[d] = alpha
        accepted[d] = moved
    return draws, {
        "accept_prob": accept_stats,
        "step_accepted": accepted,
        "divergent": np.zeros(cfg.kept_draws, dtype=bool),
        "step_size": np.full(cfg.kept_draws, multiplier),
    }


def rwm_sample(pf: PosteriorFn, cfg: SamplerConfig) -> Trace:
    """Gradient-free fallback: adaptive Gaussian random-walk Metropolis."""
    return _run_chains(_run_rwm_chain, pf, cfg)


def _run_chains(run_chain: Callable, pf: PosteriorFn, cfg: SamplerConfig) -> Trace:
    if pf.dimension < 1:
        raise SamplerError("posterior must have dimension >= 1")
    with np.errstate(over="ignore"):
        per_chain = [run_chain(pf, cfg, c) for c in range(cfg.chains)]
    trace = _assemble(pf, cfg, per_chain)
    divergent_fraction = float(np.mean(trace.stats["divergent"]))
    if divergent_fraction > 0.5:
        raise AllDivergent(divergent_fraction)
    return trace


def sample(pf: PosteriorFn, cfg: SamplerConfig) -> Trace:
    """Dispatch on ``cfg.algorithm``."""
    return nuts_sample(pf, cfg) if cfg.algorithm == "nuts" else rwm_sample(pf, cfg)


def _assemble(pf: PosteriorFn, cfg: SamplerConfig, per_chain) -> Trace:
    draws = np.stack([chain_draws for chain_draws, _ in per_chain])
    stat_names = per_chain[0][1].keys()
    stats = {name: np.stack([chain_stats[name] for _, chain_stats in per_chain]) for name in stat_names}
    return Trace(param_names=list(pf.param_names), draws=draws, stats=stats, config=cfg)


# ---------------------------------------------------------------------------
# Serialization


def save_trace(trace: Trace, csv_path, stats_path=None) -> None:
    """Write draws as CSV (``chain,draw,<params...>``) and stats as sidecar JSON.

    Floats are rendered with ``repr`` so a load reproduces them bit for bit.
    """
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["chain", "draw"] + list(trace.param_names)) + "\n")
        for c in range(trace.n_chains):
            for d in range(trace.n_draws):
                cells = [str(c), str(d)] + [repr(float(v)) for v in trace.draws[c, d]]
                fh.write(",".join(cells) + "\n")
    if stats_path is not None:
        payload = {
            "param_names": list(trace.param_names),
            "config": asdict(trace.config) if trace.config is not None else None,
            "stats": {
                name: [[_json_scalar(v) for v in chain] for chain in values]
                for name, values in trace.stats.items()
            },
        }
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)


def _json_scalar(v):
    if isinstance(v, (np.bool_, bool)):
        return bool(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    return float(v)


def load_trace(csv_path, stats_path=None) -> Trace:
    """Read a trace CSV (plus optional stats sidecar) back into a Trace."""
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise MalformedTrace(f"{csv_path}: empty trace file")
        columns = header.split(",")
        if len(columns) < 3 or columns[0] != "chain" or columns[1] != "draw":
            raise MalformedTrace(f"{csv_path}: expected header 'chain,draw,<params...>'")
        param_names = columns[2:]
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(columns):
                raise MalformedTrace(f"{csv_path}:{lineno}: expected {len(columns)} cells, got {len(cells)}")
            try:
                rows.append((int(cells[0]), int(cells[1]), [float(v) for v in cells[2:]]))
            except ValueError as exc:
                raise MalformedTrace(f"{csv_path}:{lineno}: {exc}") from None
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
    if not seen.all():
        raise MalformedTrace(f"{csv_path}: missing (chain, draw) combinations")

    stats: dict[str, np.ndarray] = {}
    config = None
    if stats_path is not None:
        with open(stats_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        sidecar_names = payload.get("param_names")
        if sidecar_names is not None and list(sidecar_names) != param_names:
            raise MalformedTrace(
                f"{stats_path}: sidecar parameters {sidecar_names} do not match trace header {param_names}"
            )
        if payload.get("config") is not None:
            config = SamplerConfig(**payload["config"])
        for name, values in payload.get("stats", {}).items():
            arr = np.asarray(values)
            if arr.shape[:2] != (n_chains, n_draws):
                raise MalformedTrace(
                    f"{stats_path}: stat {name!r} has shape {arr.shape}, expected ({n_chains}, {n_draws})"
                )
            stats[name] = arr
    return Trace(param_names=param_names, draws=draws, stats=stats, config=config)
