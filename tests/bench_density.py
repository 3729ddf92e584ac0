"""Density micro-benchmark: microseconds per ``log_density_and_grad`` and per
``log_density`` call, at n = 100, 10 000 and 100 000 rows.

Run it with::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_density.py --benchmark-only

The file name keeps it out of the tier-1 suite (``test_*.py``).  Two means
are affine in X and take their sums from the QR factorisation of [1, X];
``alpha / (X + tau)`` is not, and sums over the rows at every call, so its
cost grows with n while theirs does not.  These three put Normal,
Exponential and HalfNormal priors on their parameters; ``experiment-ii`` is
the blueprint of the paper's Experiment II, ``alpha + beta * X`` with
Uniform(-25, 25), Exponential(0.5) and HalfNormal(15) priors, so alpha takes
the logistic transform; ``manual-priors`` is ``manual_priors_model.json``,
the baseline of the paper's Experiment I, with Normal(0, 100), Normal(0, 50)
and HalfNormal(50) priors.  The data are those of the ``recip-large-n``
benchmark workload: X ~ Uniform(0, 100) and y = 2.5 + X / 0.5 + Normal(0, 15).
"""

import math

import numpy as np
import pytest

from plainbayes.data_io import Dataset
from plainbayes.distributions import Exponential, HalfNormal, Normal, Uniform
from plainbayes.posterior import build_posterior
from plainbayes.spec_schema import LikelihoodSpec, ModelSpec, validate_model

# name: (mean, priors)
CASES = {
    **{
        source: (source, {"alpha": Normal(mu=0, sigma=25), second: Exponential(lam=1), "sigma": HalfNormal(sigma=25)})
        for source, second in [("alpha + beta * X", "beta"), ("alpha + X / tau", "tau"), ("alpha / (X + tau)", "tau")]
    },
    "experiment-ii": (
        "alpha + beta * X",
        {"alpha": Uniform(lower=-25, upper=25), "beta": Exponential(lam=0.5), "sigma": HalfNormal(sigma=15)},
    ),
    "manual-priors": (
        "alpha + beta * X",
        {"alpha": Normal(mu=0, sigma=100), "beta": Normal(mu=0, sigma=50), "sigma": HalfNormal(sigma=50)},
    ),
}
SIZES = [100, 10_000, 100_000]
# alpha = 2.5, the second parameter 0.5 (the fit of y = 2.5 + X / 0.5), sigma = 15
POINT = (2.5, 0.5, 15.0)


def _posterior(case: str, n: int):
    """The case's posterior on n rows, and the unconstrained point that maps onto POINT."""
    rng = np.random.default_rng(n)
    x = rng.uniform(0.0, 100.0, n)
    data = Dataset({"X": x, "y": 2.5 + x / 0.5 + rng.normal(0.0, 15.0, n)})
    source, priors = CASES[case]
    spec = ModelSpec(priors=priors, likelihood=LikelihoodSpec(formula_source=source, noise_param="sigma"))
    z = np.array([dist.transform().inverse(v) for dist, v in zip(priors.values(), POINT)])
    return build_posterior(validate_model(spec, data.column_names()), data), z


@pytest.mark.parametrize("call", ["log_density_and_grad", "log_density"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", list(CASES))
def test_density(benchmark, case, n, call):
    pf, z = _posterior(case, n)
    benchmark.group = f"{call} n={n}"
    result = benchmark(getattr(pf, call), z)
    value = result[0] if isinstance(result, tuple) else result
    assert math.isfinite(value)
