"""Sampler micro-benchmarks: microseconds per NUTS leapfrog step, less the
density, on a standard normal at d = 3 and 10; microseconds per RWM step,
less the density, in warm-up and in kept draws at d = 3, and the warm-up
window estimator's share of a step; and the gradient evaluations and ESS of
NUTS fits at the CLI defaults.

Run them with::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_sampler.py --benchmark-only -s

The file name keeps it out of the tier-1 suite (``test_*.py``).  One chain
warms up for 300 iterations, untimed; then each round pulls 100 kept
transitions from it, counting the density's calls: one call is one leapfrog
step, and a step's time is the median round's over the mean steps per
round.  The density, ``-z.z / 2`` and ``-z`` as the samplers call it
(``PosteriorFn.float_density``, on the floats of z), is timed on its own
and its cost subtracted, which leaves the sampler's own work per step: the
leapfrog's arithmetic, the tree's bookkeeping, the U-turn checks and, once
per transition, the momentum draw.  Each test prints that
figure and stores it in the benchmark's ``extra_info``.

``test_rwm_overhead`` times RWM on the same standard normal at d = 3, its
value density ``-z.z / 2`` timed on its own and subtracted.  A warm-up round
starts a chain and runs its 1000 warm-up iterations (five adaptation windows)
and one kept draw; a kept round pulls 1000 kept draws from a chain warmed up
untimed.  ``test_window_estimator`` gives the adaptation windows'
covariance estimator the rows of the windows of 1000 warm-up states at
d = 3 and reports microseconds per warm-up iteration.

``test_gradient_evaluations`` fits two models with NUTS at the CLI defaults
(4 chains x (1000 warm-up + 1000 kept draws)), at seeds 0-3, the chains run
one after another in process: the demo (``manual_priors_model.json`` on 100
rows simulated at seed 42) and ``alpha + X / tau`` on 20 000 rows drawn as
``perfbench``'s ``recip-large-n`` draws them.  It prints the gradient
evaluations of the mode search, of warm-up (with the initial point and
step-size search) and of sampling, the smallest bulk ESS over the
parameters, and that ESS per gradient evaluation; the per-seed medians go
to ``extra_info``.  A chain yields its first kept draw after warm-up and one
transition, so warm-up is that count less the chain's mean per kept draw.
"""

import json
import math
import statistics
import timeit
from importlib import resources
from itertools import islice

import numpy as np
import pytest

from plainbayes import sampler
from plainbayes.data_io import Dataset, SimConfig, simulate_linear
from plainbayes.diagnostics import ess_bulk
from plainbayes.posterior import PosteriorFn, build_posterior
from plainbayes.sampler import SamplerConfig
from plainbayes.spec_schema import parse_model_json, validate_model

TRANSITIONS = 100


def _posterior(dim, calls):
    """The standard normal, its float entry ``-z.z / 2`` and, on a gradient call, ``-z``,
    counting its calls in ``calls``; the mode search takes the array callable, uncounted."""

    def density(*args):  # z's floats, then with_grad
        calls.append(1)
        z = args[:dim]
        logp = -0.5 * sum([v * v for v in z])
        return (logp, *[-v for v in z]) if args[dim:] and args[dim] else logp

    return PosteriorFn([f"x{i}" for i in range(dim)], lambda z: (-0.5 * float(z @ z), -z), float_density=density)


@pytest.mark.parametrize("dim", [3, 10])
def test_leapfrog_overhead(benchmark, dim):
    calls = []
    pf = _posterior(dim, calls)
    laplace = sampler._laplace(pf.unchecked_value_and_grad, dim)
    chain = sampler._run_nuts_chain(pf, SamplerConfig(warmup_draws=300, seed=dim), 0, laplace)
    next(chain)  # warm-up
    steps = []

    def transitions():
        before = len(calls)
        for _ in islice(chain, TRANSITIONS):
            pass
        steps.append(len(calls) - before)

    benchmark.group = "NUTS sampler overhead"
    benchmark(transitions)
    z, density = (0.3,) * dim, _posterior(dim, []).float_density
    density_s = min(timeit.repeat(lambda: density(*z, True), number=20_000, repeat=5)) / 20_000
    step_s = benchmark.stats.stats.median / (sum(steps) / len(steps))
    overhead_us = (step_s - density_s) * 1e6
    benchmark.extra_info.update(us_per_step=step_s * 1e6, density_us=density_s * 1e6, overhead_us_per_step=overhead_us)
    print(f"\nd = {dim}: {sum(steps) / len(steps) / TRANSITIONS:.2f} steps per transition, "
          f"{step_s * 1e6:.2f} us per step, {overhead_us:.2f} us less the density")
    assert math.isfinite(overhead_us) and overhead_us > 0.0


RWM_STEPS = 1000


@pytest.mark.parametrize("phase", ["warm-up", "kept"])
def test_rwm_overhead(benchmark, phase):
    dim, calls = 3, []
    pf = _posterior(dim, calls)
    laplace = sampler._laplace(pf.unchecked_value_and_grad, dim)
    cfg = SamplerConfig(algorithm="rwm", warmup_draws=RWM_STEPS, seed=dim)
    chain, counts = sampler._run_rwm_chain(pf, cfg, 0, laplace), []
    next(chain)

    def steps():
        before = len(calls)
        if phase == "warm-up":
            next(sampler._run_rwm_chain(pf, cfg, 0, laplace))  # every warm-up iteration and one kept draw
        else:
            for _ in islice(chain, RWM_STEPS):
                pass
        counts.append(len(calls) - before)

    benchmark.group = "RWM sampler overhead"
    benchmark(steps)
    per_round = sum(counts) / len(counts)
    z, value = (0.3,) * dim, _posterior(dim, []).float_density
    density_s = min(timeit.repeat(lambda: value(*z), number=20_000, repeat=5)) / 20_000
    step_s = benchmark.stats.stats.median / per_round
    overhead_us = (step_s - density_s) * 1e6
    benchmark.extra_info.update(us_per_step=step_s * 1e6, density_us=density_s * 1e6, overhead_us_per_step=overhead_us)
    print(f"\nRWM {phase}, d = {dim}: {per_round:.0f} value calls per round, {step_s * 1e6:.2f} us per step, "
          f"{overhead_us:.2f} us less the density")
    assert math.isfinite(overhead_us) and overhead_us > 0.0


def test_window_estimator(benchmark):
    dim = 3
    states = [tuple(z) for z in np.random.default_rng(dim).standard_normal((RWM_STEPS, dim)).tolist()]
    rows = [states[start:end] for start, end in sampler._adaptation_windows(RWM_STEPS)]

    benchmark.group = "RWM sampler overhead"
    windows = benchmark(lambda: [sampler._window_covariance(window, dim) for window in rows])
    us_per_iteration = benchmark.stats.stats.median / RWM_STEPS * 1e6
    benchmark.extra_info.update(us_per_iteration=us_per_iteration)
    print(f"\nwindow estimator, d = {dim}: {len(windows)} windows, {us_per_iteration:.2f} us per warm-up iteration")
    assert len(windows) == len(sampler._adaptation_windows(RWM_STEPS))


def demo():
    data = simulate_linear(SimConfig(alpha=2.5, beta=1.8, sigma=15.0, n=100, seed=42))
    return (resources.files("plainbayes") / "resources" / "examples" / "manual_priors_model.json").read_text(), data


def recip_large_n():
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 100.0, 20_000)
    data = Dataset({"X": x, "y": 2.5 + x / 0.5 + 15.0 * rng.standard_normal(20_000)})
    model = {
        "priors": {"alpha": {"distribution": "Normal", "params": {"mu": 0, "sigma": 25}},
                   "tau": {"distribution": "Exponential", "params": {"lam": 1}},
                   "sigma": {"distribution": "HalfNormal", "params": {"sigma": 25}}},
        "likelihood": {"distribution": "Normal", "formula": "alpha + X / tau"},
    }
    return json.dumps(model), data


def _counted_fit(pf, cfg):
    """(search, warm-up, sampling) gradient evaluations and the smallest bulk ESS of one fit."""
    calls = [0]
    vag = pf.unchecked_value_and_grad

    def counted(z):
        calls[0] += 1
        return vag(z)

    counted_pf = PosteriorFn(pf.param_names, counted, transforms=pf.transforms)
    with np.errstate(over="ignore"):
        laplace = sampler._laplace(counted, pf.dimension)
        search, warm, kept, draws = calls[0], 0, 0, []
        for c in range(cfg.chains):
            before = calls[0]
            chain = sampler._run_nuts_chain(counted_pf, cfg, c, laplace)
            draws.append([next(chain)[0]])
            first = calls[0] - before
            draws[-1] += [z for z, _ in islice(chain, cfg.kept_draws - 1)]
            per_draw = (calls[0] - before - first) / (cfg.kept_draws - 1)
            warm += first - per_draw
            kept += calls[0] - before - first + per_draw
    draws = np.array(draws)
    return search, warm, kept, min(ess_bulk(draws[:, :, i]) for i in range(pf.dimension))


@pytest.mark.parametrize("model", [demo, recip_large_n], ids=["demo", "recip-large-n"])
def test_gradient_evaluations(benchmark, model):
    text, data = model()
    pf = build_posterior(validate_model(parse_model_json(text), data.column_names()), data)
    fits = []

    def fit_seeds():
        fits.extend(_counted_fit(pf, SamplerConfig(seed=seed)) for seed in range(4))

    benchmark.group = "NUTS gradient evaluations"
    benchmark.pedantic(fit_seeds, rounds=1, iterations=1)
    print()
    for seed, (search, warm, kept, ess) in enumerate(fits):
        print(f"{model.__name__} seed {seed}: search {search}, warm-up {warm:.0f}, sampling {kept:.0f} "
              f"gradient evaluations; min bulk ESS {ess:.0f}, {ess / (search + warm + kept):.4f} per evaluation")
    medians = {name: statistics.median(column) for name, column in
               zip(("search", "warm_up", "sampling", "min_ess"), zip(*fits))}
    medians["ess_per_eval"] = statistics.median(ess / (s + w + k) for s, w, k, ess in fits)
    benchmark.extra_info.update(medians)
    print(f"{model.__name__} medians: " + ", ".join(f"{k} {v:.4g}" for k, v in medians.items()))
    assert all(ess > 0 for *_, ess in fits)
