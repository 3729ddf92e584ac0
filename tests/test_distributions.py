import math

import numpy as np
import pytest
from scipy import integrate

from plainbayes.distributions import (
    FAMILIES,
    Exponential,
    HalfNormal,
    IdentityTransform,
    LogisticIntervalTransform,
    Normal,
    Uniform,
    from_spec,
)
from plainbayes.errors import InvalidParamValue
from plainbayes.spec_schema import DistributionSpec

# 5 parameter settings per family, frozen from one seeded draw
_RNG = np.random.default_rng(99)
CASES = (
    [Normal(float(m), float(s)) for m, s in zip(_RNG.uniform(-10, 10, 5), _RNG.uniform(0.2, 20, 5))]
    + [HalfNormal(float(s)) for s in _RNG.uniform(0.2, 20, 5)]
    + [Uniform(float(a), float(a + w)) for a, w in zip(_RNG.uniform(-30, 0, 5), _RNG.uniform(0.5, 50, 5))]
    + [Exponential(float(l)) for l in _RNG.uniform(0.05, 4, 5)]
)


def _quad_bounds(dist):
    if isinstance(dist, Normal):
        return dist.mu - 14 * dist.sigma, dist.mu + 14 * dist.sigma
    if isinstance(dist, HalfNormal):
        return 0.0, 14 * dist.sigma
    if isinstance(dist, Uniform):
        return dist.lower, dist.upper
    return 0.0, 40.0 / dist.lam


class TestLogPdf:
    def test_uniform_interval(self):
        assert Uniform(-25, 25).log_pdf(0.0) == pytest.approx(-math.log(50), abs=1e-12)

    def test_exponential_at_zero(self):
        assert Exponential(0.5).log_pdf(0.0) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_halfnormal_negative(self):
        assert HalfNormal(15).log_pdf(-1.0) == -math.inf

    def test_standard_normal_at_zero(self):
        assert Normal(0, 1).log_pdf(0.0) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_halfnormal_halves_the_mass(self):
        # density at 0 doubles the corresponding full normal's
        assert HalfNormal(3).log_pdf(0.1) == pytest.approx(Normal(0, 3).log_pdf(0.1) + math.log(2), abs=1e-12)

    @pytest.mark.parametrize("dist", CASES, ids=str)
    def test_integrates_to_one(self, dist):
        value, _ = integrate.quad(lambda x: math.exp(dist.log_pdf(x)), *_quad_bounds(dist), limit=200)
        assert value == pytest.approx(1.0, abs=1e-6)


class TestDerivative:
    def test_normal_mode(self):
        assert Normal(2, 1).dlogpdf_dx(2.0) == 0.0

    def test_exponential_constant(self):
        for x in (0.3, 1.7, 42.0):
            assert Exponential(0.5).dlogpdf_dx(x) == -0.5

    def test_uniform_flat(self):
        assert Uniform(-25, 25).dlogpdf_dx(3.0) == 0.0

    @pytest.mark.parametrize("dist", CASES, ids=str)
    def test_matches_finite_differences(self, dist):
        lo, hi = dist.support()
        rng = np.random.default_rng(5)
        for _ in range(5):
            if isinstance(dist, Uniform):
                x = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
            elif math.isinf(hi):
                x = (lo if math.isfinite(lo) else 0.0) + rng.uniform(0.3, 3.0)
            h = 1e-6 * max(1.0, abs(x))
            fd = (dist.log_pdf(x + h) - dist.log_pdf(x - h)) / (2 * h)
            exact = dist.dlogpdf_dx(x)
            assert exact == pytest.approx(fd, rel=1e-7, abs=1e-7)

    def test_one_sided_at_support_edges(self):
        # the posterior's gradient reaches the edge when exp(z) underflows to 0
        assert HalfNormal(2).dlogpdf_dx(0.0) == 0.0
        assert Exponential(1.5).dlogpdf_dx(0.0) == -1.5
        assert Uniform(0, 1).dlogpdf_dx(1.0) == 0.0


class TestTransforms:
    def test_halfnormal_exp_at_zero(self):
        tf = HalfNormal(1).transform()
        assert tf.forward(0.0) == 1.0
        assert tf.log_jacobian(0.0) == 0.0

    def test_uniform_log_jacobian_at_center(self):
        tf = Uniform(-25, 25).transform()
        assert tf.forward(0.0) == pytest.approx(0.0, abs=1e-12)
        expected = math.log(50) + 2 * math.log(0.5)
        assert tf.log_jacobian(0.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(2.5257, abs=5e-5)

    def test_normal_identity(self):
        tf = Normal(0, 1).transform()
        assert tf.forward(1.7) == 1.7
        assert tf.log_jacobian(1.7) == 0.0

    @pytest.mark.parametrize("dist", CASES, ids=str)
    def test_inverse_round_trip(self, dist):
        tf = dist.transform()
        # 1e-12 away from logistic saturation; merely close near it
        for z in np.linspace(-8, 8, 33):
            assert tf.inverse(tf.forward(float(z))) == pytest.approx(z, abs=1e-12, rel=1e-12)
        for z in (-20.0, -15.0, 15.0, 20.0):
            assert tf.inverse(tf.forward(z)) == pytest.approx(z, rel=1e-6)

    @pytest.mark.parametrize("dist", CASES, ids=str)
    def test_transform_derivatives_match_fd(self, dist):
        tf = dist.transform()
        for z in np.linspace(-8, 8, 9):
            z = float(z)
            h = 1e-6
            fd_fwd = (tf.forward(z + h) - tf.forward(z - h)) / (2 * h)
            fd_lj = (tf.log_jacobian(z + h) - tf.log_jacobian(z - h)) / (2 * h)
            assert tf.dforward_dz(z) == pytest.approx(fd_fwd, rel=1e-6, abs=1e-9)
            assert tf.dlog_jacobian_dz(z) == pytest.approx(fd_lj, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("dist", CASES, ids=str)
    def test_change_of_variables_integrates_to_one(self, dist):
        tf = dist.transform()

        def integrand(z):
            return math.exp(dist.log_pdf(tf.forward(z)) + tf.log_jacobian(z))

        if isinstance(tf, IdentityTransform):
            lo, hi = _quad_bounds(dist)
        elif isinstance(tf, LogisticIntervalTransform):
            lo, hi = -45.0, 45.0
        else:  # exp transform: z = log x
            x_lo, x_hi = _quad_bounds(dist)
            lo, hi = -60.0, math.log(x_hi) + 1.0
        value, _ = integrate.quad(integrand, lo, hi, limit=400)
        assert value == pytest.approx(1.0, abs=1e-5)

    def test_uniform_saturation(self):
        tf = Uniform(-25, 25).transform()
        assert abs(tf.forward(40.0) - 25.0) <= 1e-12


class TestRegistry:
    def test_names_and_parameters(self):
        assert list(FAMILIES) == ["Normal", "HalfNormal", "Uniform", "Exponential"]
        assert {name: f.param_names() for name, f in FAMILIES.items()} == {
            "Normal": ("mu", "sigma"),
            "HalfNormal": ("sigma",),
            "Uniform": ("lower", "upper"),
            "Exponential": ("lam",),
        }

    @pytest.mark.parametrize("family", FAMILIES.values(), ids=lambda f: f.__name__)
    def test_aliases_are_lowercase_and_map_onto_parameters(self, family):
        for alias, canonical in family.ALIASES.items():
            assert alias == alias.lower() and alias not in family.param_names()
            assert canonical in family.param_names()


class TestFromSpec:
    def test_mapping(self):
        assert from_spec(DistributionSpec("Normal", {"mu": 1, "sigma": 2})) == Normal(1, 2)
        assert from_spec(DistributionSpec("HalfNormal", {"sigma": 3})) == HalfNormal(3)
        assert from_spec(DistributionSpec("Uniform", {"lower": 0, "upper": 2})) == Uniform(0, 2)
        assert from_spec(DistributionSpec("Exponential", {"lam": 0.5})) == Exponential(0.5)

    def test_invalid_construction(self):
        with pytest.raises(InvalidParamValue):
            Normal(0, -1)
        with pytest.raises(InvalidParamValue):
            Uniform(2, 2)
        with pytest.raises(InvalidParamValue):
            Exponential(0)
