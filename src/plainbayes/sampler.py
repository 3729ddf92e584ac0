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
from itertools import islice
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


class _WindowedVariance:
    """Streaming per-coordinate variance of the warm-up draws in each adaptation window."""

    def __init__(self, warmup: int, dim: int):
        self.windows = _adaptation_windows(warmup)
        self.zeros = np.zeros(dim)  # shared: mean and m2 are rebound, never updated in place
        self.n, self.mean, self.m2 = 0, self.zeros, self.zeros

    def observe(self, m: int, z: np.ndarray) -> np.ndarray | None:
        """Add the state after warm-up iteration ``m``; if ``m`` closes a
        window, return that window's regularized variance, else None."""
        if not self.windows:
            return None
        start, end = self.windows[0]
        if start <= m < end:
            self.n += 1
            delta = z - self.mean
            self.mean = self.mean + delta / self.n
            self.m2 = self.m2 + delta * (z - self.mean)
        if m + 1 != end:
            return None
        # Shrink toward 1e-3 like Stan does, so short windows stay sane.
        w = self.n / (self.n + 5.0)
        var = w * (self.m2 / max(self.n - 1, 1)) + 1e-3 * (1.0 - w)
        del self.windows[0]
        self.n, self.mean, self.m2 = 0, self.zeros, self.zeros
        return var


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
    # Each state is a (z, r, grad, logp) tuple, as _leapfrog returns it;
    # ends[direction > 0] is the edge a doubling in that direction extends.
    ends: list[tuple]  # [minus, plus]
    prop: tuple  # the state proposed from this subtree
    log_weight: float
    alpha_sum: float
    n_alpha: int
    divergent: bool
    ok: bool


def _kinetic(r: np.ndarray, inv_mass: np.ndarray) -> float:
    return 0.5 * float(np.dot(r, inv_mass * r))


def _leapfrog(vag, z, r, grad, eps, inv_mass, h0):
    """One leapfrog step: the new (z, r, grad, logp) state and its change in
    log joint density from ``h0`` (NaN counts as -inf)."""
    r_half = r + 0.5 * eps * grad
    z_new = z + eps * inv_mass * r_half
    try:
        logp_new, grad_new = vag(z_new)
    except NonFiniteDensity:
        logp_new, grad_new = -math.inf, np.zeros_like(z_new)
    r_new = r_half + 0.5 * eps * grad_new
    delta_h = (logp_new - _kinetic(r_new, inv_mass)) - h0
    return (z_new, r_new, grad_new, logp_new), -math.inf if math.isnan(delta_h) else delta_h


def _is_turning(ends, inv_mass) -> bool:
    (z_minus, r_minus, _, _), (z_plus, r_plus, _, _) = ends
    dz = z_plus - z_minus
    return (
        float(np.dot(dz, inv_mass * r_minus)) < 0.0
        or float(np.dot(dz, inv_mass * r_plus)) < 0.0
    )


def _build_tree(vag, edge, direction, depth, eps, inv_mass, h0, rng) -> _Tree:
    """Build a subtree of 2**depth leapfrog steps from ``edge`` in ``direction``."""
    if depth == 0:
        leaf, delta_h = _leapfrog(vag, *edge[:3], direction * eps, inv_mass, h0)
        divergent = delta_h < -_DIVERGENCE_THRESHOLD
        return _Tree(
            ends=[leaf, leaf],
            prop=leaf,
            log_weight=delta_h,
            alpha_sum=min(1.0, math.exp(min(0.0, delta_h))),
            n_alpha=1,
            divergent=divergent,
            ok=not divergent,
        )

    first = _build_tree(vag, edge, direction, depth - 1, eps, inv_mass, h0, rng)
    if not first.ok:
        return first

    side = direction > 0
    second = _build_tree(vag, first.ends[side], direction, depth - 1, eps, inv_mass, h0, rng)
    first.ends[side] = second.ends[side]
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
        first.prop = second.prop
    first.log_weight = float(total)

    if _is_turning(first.ends, inv_mass):
        first.ok = False
    return first


def _nuts_transition(vag, z, logp, grad, eps, inv_mass, rng, max_depth):
    dim = z.shape[0]
    r0 = rng.standard_normal(dim) / np.sqrt(inv_mass)
    h0 = logp - _kinetic(r0, inv_mass)

    ends = [(z, r0, grad, logp)] * 2  # [minus, plus]
    prop = ends[0]
    log_weight = 0.0  # weight of the initial point relative to itself
    alpha_sum = 0.0
    n_alpha = 0
    divergent = False
    depth = 0

    while depth < max_depth:
        direction = 1 if rng.random() < 0.5 else -1
        side = direction > 0
        sub = _build_tree(vag, ends[side], direction, depth, eps, inv_mass, h0, rng)
        ends[side] = sub.ends[side]

        alpha_sum += sub.alpha_sum
        n_alpha += sub.n_alpha
        divergent = divergent or sub.divergent
        if not sub.ok:
            break

        # Biased progressive sampling: favor the fresh subtree.
        p_new = math.exp(min(0.0, sub.log_weight - log_weight))
        if rng.random() < p_new:
            prop = sub.prop
        log_weight = float(np.logaddexp(log_weight, sub.log_weight))

        depth += 1
        if _is_turning(ends, inv_mass):
            break

    accept_stat = alpha_sum / max(n_alpha, 1)
    z, _, grad, logp = prop
    return z, logp, grad, accept_stat, depth, divergent


def _find_reasonable_step_size(vag, z, logp, grad, inv_mass, rng, init: float) -> float:
    """Double/halve the step size until the one-step acceptance crosses 1/2."""
    eps = init
    dim = z.shape[0]
    r = rng.standard_normal(dim) / np.sqrt(inv_mass)
    h0 = logp - _kinetic(r, inv_mass)
    dh = _leapfrog(vag, z, r, grad, eps, inv_mass, h0)[1]
    direction = 1.0 if dh > math.log(0.5) else -1.0
    for _ in range(100):
        if not direction * dh > -direction * math.log(2.0):
            break
        eps *= 2.0 ** direction
        if not 1e-10 < eps < 1e7:
            break
        dh = _leapfrog(vag, z, r, grad, eps, inv_mass, h0)[1]
    return eps


_NUTS_STATS = (("accept_prob", float), ("tree_depth", np.int64), ("divergent", bool), ("step_size", float))


def _run_nuts_chain(pf: PosteriorFn, cfg: SamplerConfig, chain_index: int):
    """Warm up, then yield ``(z, stats_row)`` per kept transition, ordered as ``_NUTS_STATS``."""
    rng = _chain_rng(cfg.seed, chain_index)
    dim = pf.dimension
    vag = pf.log_density_and_grad

    z, (logp, grad) = _initial_point(vag, rng, dim)
    inv_mass = np.ones(dim)
    eps = _find_reasonable_step_size(vag, z, logp, grad, inv_mass, rng, cfg.step_size_init)
    averaging = _DualAveraging(eps, cfg.target_accept)

    variance = _WindowedVariance(cfg.warmup_draws, dim)
    for m in range(cfg.warmup_draws):
        z, logp, grad, accept, _, _ = _nuts_transition(
            vag, z, logp, grad, averaging.current, inv_mass, rng, cfg.max_tree_depth
        )
        averaging.update(accept)
        window_var = variance.observe(m, z)
        if window_var is not None:
            inv_mass = window_var

    eps = averaging.averaged if cfg.warmup_draws > 0 else eps
    while True:
        z, logp, grad, accept, depth, divergent = _nuts_transition(
            vag, z, logp, grad, eps, inv_mass, rng, cfg.max_tree_depth
        )
        yield z, (accept, depth, divergent, eps)


def nuts_sample(pf: PosteriorFn, cfg: SamplerConfig) -> Trace:
    """Run ``cfg.chains`` independent NUTS chains and collect kept draws."""
    return _run_chains(_run_nuts_chain, _NUTS_STATS, pf, cfg)


# ---------------------------------------------------------------------------
# Random-walk Metropolis


_RWM_STATS = (("accept_prob", float), ("step_accepted", bool), ("divergent", bool), ("step_size", float))


def _run_rwm_chain(pf: PosteriorFn, cfg: SamplerConfig, chain_index: int):
    """Warm up, then yield ``(z, stats_row)`` per kept transition, ordered as ``_RWM_STATS``."""
    rng = _chain_rng(cfg.seed, chain_index)
    dim = pf.dimension
    value = pf.log_density

    z, logp = _initial_point(value, rng, dim)
    base_scale = np.ones(dim)
    multiplier = 2.38 / math.sqrt(dim)
    averaging = _DualAveraging(multiplier, _RWM_TARGET_ACCEPT)

    variance = _WindowedVariance(cfg.warmup_draws, dim)

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
        window_var = variance.observe(m, z)
        if window_var is not None:
            base_scale = np.sqrt(window_var)
            averaging = _DualAveraging(averaging.current, _RWM_TARGET_ACCEPT)

    multiplier = averaging.averaged if cfg.warmup_draws > 0 else multiplier
    scale = multiplier * base_scale
    while True:
        z, logp, alpha, moved = step(z, logp, scale)
        yield z, (alpha, moved, False, multiplier)


def rwm_sample(pf: PosteriorFn, cfg: SamplerConfig) -> Trace:
    """Gradient-free fallback: adaptive Gaussian random-walk Metropolis."""
    return _run_chains(_run_rwm_chain, _RWM_STATS, pf, cfg)


def _run_chains(run_chain: Callable, stat_types, pf: PosteriorFn, cfg: SamplerConfig) -> Trace:
    """Pull ``cfg.kept_draws`` kept ``(z, stats_row)`` transitions from each
    chain's runner and collect the constrained draws and the named stats."""
    if pf.dimension < 1:
        raise SamplerError("posterior must have dimension >= 1")
    unconstrained = np.empty((cfg.chains, cfg.kept_draws, pf.dimension))
    stats = {name: np.empty((cfg.chains, cfg.kept_draws), dtype) for name, dtype in stat_types}
    with np.errstate(over="ignore"):
        for c in range(cfg.chains):
            for d, (z, stats_row) in enumerate(islice(run_chain(pf, cfg, c), cfg.kept_draws)):
                unconstrained[c, d] = z
                for column, value in zip(stats.values(), stats_row):
                    column[c, d] = value
    # Each column through its own transform's scalar forward: the floats and
    # the function a per-draw pf.constrain would use, so the same bits.
    draws = np.empty_like(unconstrained)
    for i, tf in enumerate(pf.transforms):
        column = unconstrained[:, :, i]
        draws[:, :, i] = np.reshape([tf.forward(v) for v in column.ravel().tolist()], column.shape)
    divergent_fraction = float(np.mean(stats["divergent"]))
    if divergent_fraction > 0.5:
        raise AllDivergent(divergent_fraction)
    return Trace(param_names=list(pf.param_names), draws=draws, stats=stats, config=cfg)


def sample(pf: PosteriorFn, cfg: SamplerConfig) -> Trace:
    """Dispatch on ``cfg.algorithm``."""
    return nuts_sample(pf, cfg) if cfg.algorithm == "nuts" else rwm_sample(pf, cfg)


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
    value ``depth`` levels deep.  A list of scalars (one chain's stat) is one
    piece, rendered by the C encoder with the indentation as its separator."""
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
        yield "[" + pad + json.dumps(value, separators=("," + pad, ": "))[1:-1] + pad[:-2] + "]"
    else:
        yield json.dumps(value)


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
    if not seen.all():
        raise MalformedTrace(f"{csv_path}: missing (chain, draw) combinations")

    stats: dict[str, np.ndarray] = {}
    config = None
    if stats_path is not None:
        with open(stats_path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise MalformedTrace(f"{stats_path}: not valid JSON: {exc}") from None
        if not isinstance(payload, dict) or not isinstance(payload.get("stats", {}), dict):
            raise MalformedTrace(f"{stats_path}: expected a JSON object with a 'stats' object")
        sidecar_names = payload.get("param_names")
        if sidecar_names is not None and list(sidecar_names) != param_names:
            raise MalformedTrace(
                f"{stats_path}: sidecar parameters {sidecar_names} do not match trace header {param_names}"
            )
        if payload.get("config") is not None:
            try:
                config = SamplerConfig(**payload["config"])
            except TypeError as exc:
                raise MalformedTrace(f"{stats_path}: bad sampler config: {exc}") from None
        for name, values in payload.get("stats", {}).items():
            arr = np.asarray(values)
            if arr.shape[:2] != (n_chains, n_draws):
                raise MalformedTrace(
                    f"{stats_path}: stat {name!r} has shape {arr.shape}, expected ({n_chains}, {n_draws})"
                )
            stats[name] = arr
    return Trace(param_names=param_names, draws=draws, stats=stats, config=config)
