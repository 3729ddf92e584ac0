"""Density micro-benchmark: microseconds per ``log_density_and_grad`` and per
``log_density`` call, at n = 100, 10 000 and 100 000 rows.

Run it with::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_density.py --benchmark-only

The file name keeps it out of the tier-1 suite (``test_*.py``).  Two means
are affine in X and take their sums from the QR factorisation of [1, X];
``alpha / (X + tau)`` is not, and sums over the rows at every call, so its
cost grows with n while theirs does not.  The data are those of the
``recip-large-n`` benchmark workload: X ~ Uniform(0, 100) and
y = 2.5 + X / 0.5 + Normal(0, 15).
"""

import math

import numpy as np
import pytest

from plainbayes.data_io import Dataset
from plainbayes.distributions import Exponential, HalfNormal, Normal
from plainbayes.posterior import build_posterior
from plainbayes.spec_schema import LikelihoodSpec, ModelSpec, validate_model

MEANS = {
    "alpha + beta * X": "beta",
    "alpha + X / tau": "tau",
    "alpha / (X + tau)": "tau",
}
SIZES = [100, 10_000, 100_000]
# alpha = 2.5, the second parameter 0.5 (the fit of y = 2.5 + X / 0.5), sigma = 15
Z = np.array([2.5, math.log(0.5), math.log(15.0)])


def _posterior(source: str, n: int):
    rng = np.random.default_rng(n)
    x = rng.uniform(0.0, 100.0, n)
    data = Dataset({"X": x, "y": 2.5 + x / 0.5 + rng.normal(0.0, 15.0, n)})
    spec = ModelSpec(
        priors={
            "alpha": Normal(mu=0, sigma=25),
            MEANS[source]: Exponential(lam=1),
            "sigma": HalfNormal(sigma=25),
        },
        likelihood=LikelihoodSpec(formula_source=source, noise_param="sigma"),
    )
    return build_posterior(validate_model(spec, data.column_names()), data)


@pytest.mark.parametrize("call", ["log_density_and_grad", "log_density"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("source", list(MEANS))
def test_density(benchmark, source, n, call):
    fn = getattr(_posterior(source, n), call)
    benchmark.group = f"{call} n={n}"
    result = benchmark(fn, Z)
    value = result[0] if isinstance(result, tuple) else result
    assert math.isfinite(value)
