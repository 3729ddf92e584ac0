"""Sampler micro-benchmark: microseconds per NUTS leapfrog step, less the
density, on a standard normal at d = 3 and 10.

Run it with::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_sampler.py --benchmark-only -s

The file name keeps it out of the tier-1 suite (``test_*.py``).  One chain
warms up for 300 iterations, untimed; then each round pulls 100 kept
transitions from it, counting the density's calls: one call is one leapfrog
step, and a step's time is the median round's over the mean steps per
round.  The density, ``-z.z / 2`` and ``-z``, is
timed on its own and its cost subtracted, which leaves the sampler's own
work per step: the leapfrog's arithmetic, the tree's bookkeeping, the U-turn
checks and, once per transition, the momentum draw.  Each test prints that
figure and stores it in the benchmark's ``extra_info``.
"""

import math
import timeit
from itertools import islice

import numpy as np
import pytest

from plainbayes import sampler
from plainbayes.posterior import PosteriorFn, np_dot
from plainbayes.sampler import SamplerConfig

TRANSITIONS = 100


def _density(calls):
    def vag(z):
        calls.append(1)
        return -0.5 * float(np_dot(z, z)), -z

    return vag


@pytest.mark.parametrize("dim", [3, 10])
def test_leapfrog_overhead(benchmark, dim):
    calls = []
    pf = PosteriorFn(param_names=[f"x{i}" for i in range(dim)], log_density_and_grad=_density(calls))
    chain = sampler._run_nuts_chain(pf, SamplerConfig(warmup_draws=300, seed=dim), 0)
    next(chain)  # warm-up
    steps = []

    def transitions():
        before = len(calls)
        for _ in islice(chain, TRANSITIONS):
            pass
        steps.append(len(calls) - before)

    benchmark.group = "NUTS sampler overhead"
    benchmark(transitions)
    z, density = np.full(dim, 0.3), _density([])
    density_s = min(timeit.repeat(lambda: density(z), number=20_000, repeat=5)) / 20_000
    step_s = benchmark.stats.stats.median / (sum(steps) / len(steps))
    overhead_us = (step_s - density_s) * 1e6
    benchmark.extra_info.update(us_per_step=step_s * 1e6, density_us=density_s * 1e6, overhead_us_per_step=overhead_us)
    print(f"\nd = {dim}: {sum(steps) / len(steps) / TRANSITIONS:.2f} steps per transition, "
          f"{step_s * 1e6:.2f} us per step, {overhead_us:.2f} us less the density")
    assert math.isfinite(overhead_us) and overhead_us > 0.0
