import math
import time

import numpy as np
import pytest

from plainbayes import formula, posterior
from plainbayes.data_io import Dataset
from plainbayes.distributions import (
    FAMILIES,
    Exponential,
    ExpTransform,
    HalfNormal,
    IdentityTransform,
    LogisticIntervalTransform,
    Normal,
    Uniform,
)
from plainbayes.errors import (
    DimensionMismatch,
    FormulaTooDeep,
    MissingResponseColumn,
    NonFiniteDensity,
    NonFiniteGradient,
    NonFiniteResult,
    UnresolvedVariable,
)
from plainbayes.formula import Binary, Negate, NumberLiteral, Variable
from plainbayes.posterior import _GRADIENT_OVERFLOW_FLOOR, PosteriorFn, build_posterior
from plainbayes.spec_schema import (
    LikelihoodSpec,
    ModelSpec,
    parse_model_json,
    validate_model,
)

from conftest import EXPERIMENT_MODEL_JSON


@pytest.fixture()
def rows_only(monkeypatch):
    """Every posterior built in the test sums over its rows, the reference path."""
    monkeypatch.setattr(posterior, "_thin_qr", lambda *args: None)


def _experiment_pf(dataset):
    spec = parse_model_json(EXPERIMENT_MODEL_JSON)
    vm = validate_model(spec, dataset.column_names())
    return build_posterior(vm, dataset)


def _experiment_prior_plus_jacobian(z):
    """Prior plus log-Jacobian of the experiment model, straight from the distributions."""
    priors = [Uniform(-25, 25), Exponential(0.5), HalfNormal(15)]
    return sum(d.log_pdf(d.transform().forward(zi)) + d.transform().log_jacobian(zi) for d, zi in zip(priors, z))


class TestLogDensity:
    def test_hand_summed_single_row(self, tiny_dataset):
        # alpha=0 (logistic z=0), beta=2 (z=ln 2), sigma=15 (z=ln 15)
        pf = _experiment_pf(tiny_dataset)
        z = np.array([0.0, math.log(2.0), math.log(15.0)])

        alpha_prior = Uniform(-25, 25)
        beta_prior = Exponential(0.5)
        sigma_prior = HalfNormal(15)
        expected = (
            alpha_prior.log_pdf(0.0)
            + alpha_prior.transform().log_jacobian(0.0)
            + beta_prior.log_pdf(2.0)
            + beta_prior.transform().log_jacobian(math.log(2.0))
            + sigma_prior.log_pdf(15.0)
            + sigma_prior.transform().log_jacobian(math.log(15.0))
            + Normal(0.0, 15.0).log_pdf(0.0)  # y=0 given mu = alpha + beta*0 = 0
        )
        assert pf.log_density(z) == pytest.approx(expected, rel=1e-14)

    def test_deterministic_bit_for_bit(self, experiment_dataset):
        pf = _experiment_pf(experiment_dataset)
        z = np.array([0.1, 0.2, 0.3])
        assert pf.log_density(z) == pf.log_density(z)
        v1, g1 = pf.log_density_and_grad(z)
        v2, g2 = pf.log_density_and_grad(z)
        assert v1 == v2 and np.array_equal(g1, g2)

    def test_translation_of_sigma_coordinate(self, experiment_dataset):
        pf = _experiment_pf(experiment_dataset)
        z = np.array([0.0, 0.1, 1.0])
        delta = 0.37
        shifted = z.copy()
        shifted[2] += delta
        assert pf.log_density(shifted) == pf.log_density(np.array([0.0, 0.1, 1.0 + delta]))

    def test_density_higher_near_truth(self, experiment_dataset):
        pf = _experiment_pf(experiment_dataset)
        tf_alpha = Uniform(-25, 25).transform()
        z_true = np.array([tf_alpha.inverse(2.5), math.log(1.8), math.log(15.0)])
        z_far = np.array([tf_alpha.inverse(24.0), math.log(100.0), math.log(100.0)])
        assert pf.log_density(z_true) > pf.log_density(z_far)

    def test_never_nan(self, experiment_dataset):
        pf = _experiment_pf(experiment_dataset)
        rng = np.random.default_rng(0)
        for _ in range(200):
            value = pf.log_density(rng.normal(scale=30, size=3))
            assert not math.isnan(value)

    def test_dimension_mismatch(self, experiment_dataset):
        pf = _experiment_pf(experiment_dataset)
        with pytest.raises(DimensionMismatch):
            pf.log_density(np.zeros(2))
        with pytest.raises(DimensionMismatch):
            pf.constrain(np.zeros(5))

    def test_missing_response_column(self, experiment_dataset):
        spec = parse_model_json(EXPERIMENT_MODEL_JSON)
        data = Dataset({"X": experiment_dataset.columns["X"]})
        vm = validate_model(spec, {"X", "y"})
        with pytest.raises(MissingResponseColumn):
            build_posterior(vm, data)

    def test_formula_column_missing_from_dataset(self, experiment_dataset):
        spec = parse_model_json(EXPERIMENT_MODEL_JSON)
        vm = validate_model(spec, {"X", "y"})
        data = Dataset({"y": experiment_dataset.columns["y"]})
        with pytest.raises(UnresolvedVariable):
            build_posterior(vm, data)

    def test_nonfinite_mean_is_hard_error(self):
        # alpha / X explodes on the X=0 row
        spec = ModelSpec(
            priors={
                "alpha": Normal(mu=0, sigma=1),
                "sigma": HalfNormal(sigma=1),
            },
            likelihood=LikelihoodSpec(formula_source="alpha / X"),
        )
        data = Dataset({"X": np.array([1.0, 0.0]), "y": np.array([0.0, 0.0])})
        pf = build_posterior(validate_model(spec, data.column_names()), data)
        with pytest.raises(NonFiniteDensity) as err:
            pf.log_density(np.array([0.5, 0.0]))
        assert err.value.row == 1

    @staticmethod
    def _split_log_densities(experiment_dataset, z):
        """The log density at ``z`` on all rows, on the first 40 and on the rest."""
        x = experiment_dataset.columns["X"]
        y = experiment_dataset.columns["y"]
        spec = parse_model_json(EXPERIMENT_MODEL_JSON)
        out = []
        for rows in (slice(None), slice(None, 40), slice(40, None)):
            ds = Dataset({"X": x[rows], "y": y[rows]})
            out.append(build_posterior(validate_model(spec, ds.column_names()), ds).log_density(z))
        return out

    def test_row_contributions_additive(self, experiment_dataset, rows_only):
        z = np.array([0.4, 0.1, 0.9])
        both, a, b = self._split_log_densities(experiment_dataset, z)
        prior = _experiment_prior_plus_jacobian(z)
        assert both - a - b == pytest.approx(-prior, rel=1e-12)

    def test_row_contributions_additive_factorised(self, experiment_dataset):
        # the factorisation's sums are accurate to a few ulps of each log
        # density (about 1.8e-12 here), not of their 4.6 difference
        z = np.array([0.4, 0.1, 0.9])
        both, a, b = self._split_log_densities(experiment_dataset, z)
        prior = _experiment_prior_plus_jacobian(z)
        assert both - a - b == pytest.approx(-prior, abs=1e-14 * (abs(both) + abs(a) + abs(b)))

    def test_prior_dominates_at_huge_sigma(self, experiment_dataset):
        # with sigma pushed to ~1e8 the likelihood is flat: density differences
        # between two points approach the prior+Jacobian differences
        pf = _experiment_pf(experiment_dataset)
        z_sigma = 18.5
        z1 = np.array([0.2, 0.1, z_sigma])
        z2 = np.array([-0.4, 0.6, z_sigma])
        full_diff = pf.log_density(z1) - pf.log_density(z2)
        prior_diff = _experiment_prior_plus_jacobian(z1) - _experiment_prior_plus_jacobian(z2)
        assert abs(full_diff - prior_diff) < 1e-3


class TestTinyNoiseScale:
    """sigma^3 underflows to 0 below sigma of about 1.7e-108 (z_sigma below about -248)."""

    @pytest.mark.parametrize("z_sigma", [-300.0, -400.0, -700.0])
    def test_gradient_finite_where_value_is(self, z_sigma):
        spec = ModelSpec(
            priors={
                "beta": Normal(mu=0, sigma=1),
                "sigma": HalfNormal(sigma=1),
            },
            likelihood=LikelihoodSpec(formula_source="beta * X"),
        )
        data = Dataset({"X": np.zeros(5), "y": np.zeros(5)})
        pf = build_posterior(validate_model(spec, data.column_names()), data)
        z = np.array([0.0, z_sigma])
        value, grad = pf.log_density_and_grad(z)
        assert math.isfinite(value) and value == pf.log_density(z)
        # d/dz_sigma: 1 - sigma^2 from the HalfNormal(1) prior and its Jacobian, -n from the likelihood
        assert grad[0] == 0.0
        assert grad[1] == pytest.approx(1.0 - 5, rel=1e-12)


class TestOverflowWarnsNothing:
    """Direct calls where a prior term, ``resid / sigma`` or ``t . t`` overflows: -inf with a
    zero gradient, and no numpy overflow warning, which pyproject's filterwarnings makes an error."""

    @pytest.mark.parametrize("source", ["alpha / (X + tau)", "alpha + beta * X", "alpha * X * X"])
    def test_minus_infinity_with_a_zero_gradient(self, source):
        data = Dataset({"X": np.linspace(0.5, 3.0, 50), "y": np.linspace(-2.0, 2.0, 50)})
        names = sorted(formula.free_vars(formula.parse_formula(source)) - {"X"})
        priors = {**{name: Normal(mu=0, sigma=1) for name in names}, "sigma": HalfNormal(sigma=1)}
        spec = ModelSpec(priors=priors, likelihood=LikelihoodSpec(formula_source=source, noise_param="sigma"))
        pf = build_posterior(validate_model(spec, data.column_names()), data)
        points = [[1.0] * len(names) + [log_sigma] for log_sigma in (-700.0, -745.0)]
        for i in range(len(names)):
            for big, log_sigma in ((1e155, 0.0), (1e300, -300.0)):
                points.append([big if j == i else 1.0 for j in range(len(names))] + [log_sigma])
        for z in map(np.array, points):
            assert pf.log_density(z) == -math.inf
            value, grad = pf.log_density_and_grad(z)
            assert value == -math.inf and grad.tolist() == [0.0] * pf.dimension


class TestZeroDenominatorGradient:
    """On ``alpha + X / tau``, ``formula.simplify`` folds alpha's partial to 1 and
    sigma's to 0, so only tau's own partial, -X / (tau * tau), divides by tau^2."""

    Y = np.array([0.5, -1.0, 0.0, 2.0])

    def _pf(self):
        spec = ModelSpec(
            priors={
                "alpha": Normal(mu=0, sigma=1),
                "tau": Exponential(lam=1),
                "sigma": HalfNormal(sigma=1),
            },
            likelihood=LikelihoodSpec(formula_source="alpha + X / tau"),
        )
        data = Dataset({"X": np.zeros(4), "y": self.Y})
        return build_posterior(validate_model(spec, data.column_names()), data)

    def test_underflowing_denominator_still_fails_the_gradient(self):
        # tau = e^-400: X / tau is 0 and the density finite, but tau * tau is 0,
        # so tau's partial is 0 / 0 and the gradient a hard error, as before the fold
        pf = self._pf()
        z = np.array([0.3, -400.0, 0.2])
        assert math.isfinite(pf.log_density(z))
        with pytest.raises(NonFiniteGradient):
            pf.log_density_and_grad(z)

    def test_folded_components(self):
        pf = self._pf()
        alpha, sigma = 0.3, math.exp(0.2)
        _, grad = pf.log_density_and_grad(np.array([alpha, 0.0, 0.2]))
        # N(0, 1) prior on alpha, and d loglik / d alpha = sum(resid) / sigma^2
        assert grad[0] == pytest.approx(-alpha + float(np.sum(self.Y - alpha)) / sigma**2, rel=1e-12)
        # X = 0 leaves the likelihood flat in tau: -tau + 1 from the Exponential(1)
        # prior and the log-Jacobian, 0 at tau = 1
        assert grad[1] == pytest.approx(0.0, abs=1e-12)


class TestOverflowingQuotient:
    def test_raises_nonfinite_density_not_a_warning(self):
        # a / b with Normal priors divides numpy floats: 1e150 / 1e-160 overflows,
        # which must raise NonFiniteDensity, not numpy's RuntimeWarning
        spec = ModelSpec(
            priors={
                "a": Normal(mu=0, sigma=1),
                "b": Normal(mu=0, sigma=1),
                "sigma": HalfNormal(sigma=1),
            },
            likelihood=LikelihoodSpec(formula_source="a / b * X", noise_param="sigma"),
        )
        data = Dataset({"X": np.array([0.5, 1.0, 2.0]), "y": np.array([0.1, -0.2, 0.3])})
        pf = build_posterior(validate_model(spec, data.column_names()), data)
        z = np.array([1e150, 1e-160, 0.0])
        for call in (pf.log_density, pf.log_density_and_grad):
            with pytest.raises(NonFiniteDensity, match="non-finite quotient"):
                call(z)


class TestConstrain:
    def test_zero_vector(self, experiment_dataset):
        pf = _experiment_pf(experiment_dataset)
        out = pf.constrain(np.zeros(3))
        assert out["alpha"] == pytest.approx(0.0, abs=1e-12)
        assert out["beta"] == 1.0
        assert out["sigma"] == 1.0

    def test_round_trip_through_inverse(self, experiment_dataset):
        pf = _experiment_pf(experiment_dataset)
        z = np.array([0.7, -1.2, 0.4])
        constrained = pf.constrain(z)
        back = [tf.inverse(constrained[name]) for name, tf in zip(pf.param_names, pf.transforms)]
        np.testing.assert_allclose(back, z, atol=1e-12)

    def test_constrain_callable_needs_transforms(self):
        # the samplers constrain through the transforms and would ignore it
        with pytest.raises(TypeError, match="transforms"):
            PosteriorFn(param_names=["u"], log_density_and_grad=lambda z: (0.0, z), constrain=lambda z: {"u": 1.0})

    def test_uniform_saturation(self, experiment_dataset):
        pf = _experiment_pf(experiment_dataset)
        out = pf.constrain(np.array([40.0, 0.0, 0.0]))
        assert abs(out["alpha"] - 25.0) <= 1e-12


# ---------------------------------------------------------------------------
# Gradient suite


def _random_model_and_data(rng, *, affine_only=False, n=None):
    n_priors = int(rng.integers(1, 5))
    names = [f"p{i}" for i in range(n_priors)]
    priors = {}
    for name in names:
        kind = int(rng.integers(0, 4))
        if kind == 0:
            priors[name] = Normal(mu=float(rng.uniform(-5, 5)), sigma=float(rng.uniform(0.3, 10)))
        elif kind == 1:
            priors[name] = HalfNormal(sigma=float(rng.uniform(0.3, 10)))
        elif kind == 2:
            lo = float(rng.uniform(-20, 0))
            priors[name] = Uniform(lower=lo, upper=lo + float(rng.uniform(1, 30)))
        else:
            priors[name] = Exponential(lam=float(rng.uniform(0.1, 3)))
    noise = str(rng.choice(names))
    priors[noise] = HalfNormal(sigma=float(rng.uniform(1, 10)))

    # a random formula over priors and the data column, from terms affine in
    # X and, unless affine_only, terms that are not (X + 5 stays clear of 0,
    # so no singular surfaces confound the finite differences)
    forms = ("{p} * X", "{p} * {p}", "{p}") if affine_only else ("{p} * X", "{p} * {p}", "{p} * X * X", "{p} / (X + 5)")
    terms = [forms[int(rng.integers(0, len(forms)))].format(p=name) for name in names]
    formula_source = " + ".join(terms) if rng.random() < 0.8 else " - ".join(terms)

    n = int(rng.integers(3, 12)) if n is None else n
    data = Dataset({"X": rng.uniform(-3, 3, n), "y": rng.uniform(-5, 5, n)})
    spec = ModelSpec(priors=priors, likelihood=LikelihoodSpec(formula_source=formula_source, noise_param=noise))
    return spec, data


def _is_affine(vm):
    return "X" not in formula.free_vars(formula.differentiate(vm.spec.likelihood.ast, "X"))


def gradient_check(pf, z, rel_tol=1e-6, abs_tol=1e-4):
    value, grad = pf.log_density_and_grad(z)
    assert math.isfinite(value)
    for i in range(len(z)):
        h = 1e-6 * max(1.0, abs(z[i]))
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        fd = (pf.log_density(zp) - pf.log_density(zm)) / (2 * h)
        if abs(grad[i]) < 1e-3 and abs(fd) < 1e-3:
            assert abs(grad[i] - fd) <= abs_tol
        else:
            assert abs(grad[i] - fd) <= rel_tol * max(abs(grad[i]), abs(fd)) + 1e-10


class TestGradient:
    def test_random_models_match_finite_differences(self):
        rng = np.random.default_rng(2718)
        for _ in range(100):
            spec, data = _random_model_and_data(rng)
            vm = validate_model(spec, data.column_names())
            pf = build_posterior(vm, data)
            z = rng.normal(scale=0.8, size=pf.dimension)
            gradient_check(pf, z)

    def test_value_matches_value_and_grad_exactly(self):
        # RWM reads log_density and NUTS log_density_and_grad: the two must agree bit for bit
        rng = np.random.default_rng(2718)
        for _ in range(100):
            spec, data = _random_model_and_data(rng)
            pf = build_posterior(validate_model(spec, data.column_names()), data)
            z = rng.normal(scale=0.8, size=pf.dimension)
            assert pf.log_density(z) == pf.log_density_and_grad(z)[0]

    def test_experiment_model_gradient(self, experiment_dataset):
        pf = _experiment_pf(experiment_dataset)
        rng = np.random.default_rng(11)
        for _ in range(20):
            gradient_check(pf, rng.normal(scale=1.0, size=3))


# ---------------------------------------------------------------------------
# The compiled density against a reference: the formula walked as an AST at
# every call, the way the density evaluated it before it was compiled.


def _reference_eval(node, env):
    if isinstance(node, NumberLiteral):
        return node.value
    if isinstance(node, Variable):
        return env[node.name]
    if isinstance(node, Negate):
        return -_reference_eval(node.child, env)
    left = _reference_eval(node.left, env)
    right = _reference_eval(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = left / right
    except ZeroDivisionError:
        raise NonFiniteResult(f"division by zero in {formula.to_source(node)!r}") from None
    if not np.all(np.isfinite(out)):
        raise NonFiniteResult(f"non-finite quotient in {formula.to_source(node)!r}", value=out)
    return out


def _reference_evaluate(ast, env):
    value = _reference_eval(ast, env)
    if not np.all(np.isfinite(value)):
        raise NonFiniteResult("expression evaluated to a non-finite value", value=value)
    return value


def _reference_density(vm, data, z, with_grad):
    spec = vm.spec
    names = list(spec.priors)
    dists = list(spec.priors.values())
    transforms = [dist.transform() for dist in dists]
    noise_index = names.index(spec.likelihood.noise_param)
    y = data.columns["y"]
    n_rows = data.n_rows
    fixed_env = {v: data.columns[v] for v in vm.columns}
    mean_ast = spec.likelihood.ast
    partials = [formula.differentiate(mean_ast, name) for name in names]

    x = [tf.forward(zi) for tf, zi in zip(transforms, z)]
    total = 0.0
    for zi, xi, dist, tf in zip(z, x, dists, transforms):
        total += dist.log_pdf(xi) + tf.log_jacobian(zi)
    if math.isnan(total):
        raise NonFiniteDensity("prior log density is NaN")
    sigma = x[noise_index]
    loglik = -math.inf
    if total > -math.inf and sigma > 0.0 and math.isfinite(sigma):
        env = dict(zip(names, x), **fixed_env)
        try:
            mu = np.broadcast_to(np.asarray(_reference_evaluate(mean_ast, env), dtype=float), (n_rows,))
        except NonFiniteResult as exc:
            bad = np.broadcast_to(np.asarray(exc.value, dtype=float), (n_rows,)) if exc.value is not None else None
            row = int(np.argmin(np.isfinite(bad))) if bad is not None else None
            raise NonFiniteDensity(f"likelihood mean is non-finite: {exc}", row=row) from None
        resid = y - mu
        t = resid / sigma
        loglik = -0.5 * float(np.dot(t, t)) - n_rows * math.log(sigma) - 0.5 * n_rows * math.log(2.0 * math.pi)
        if math.isnan(loglik):
            raise NonFiniteDensity("likelihood log density is NaN")
    if loglik == -math.inf:
        return (-math.inf, np.zeros(len(z))) if with_grad else -math.inf
    total += loglik
    if not with_grad:
        return total
    dljk = np.array([tf.dlog_jacobian_dz(zi) for tf, zi in zip(transforms, z)], dtype=float)
    dfwd = np.array([tf.dforward_dz(zi) for tf, zi in zip(transforms, z)], dtype=float)
    dprior = np.array([dist.dlogpdf_dx(xi) for dist, xi in zip(dists, x)], dtype=float)
    grad = dprior * dfwd + dljk
    inv_var = 1.0 / (sigma * sigma)
    try:
        for i, partial in enumerate(partials):
            dmu = np.broadcast_to(np.asarray(_reference_evaluate(partial, env), dtype=float), (n_rows,))
            s = inv_var * float(np.dot(resid, dmu))
            if i == noise_index:
                s += float(np.dot(resid, resid)) / (sigma * sigma * sigma) - n_rows / sigma
            grad[i] += s * dfwd[i]
    except NonFiniteResult:
        grad[:] = math.nan
    if not np.all(np.isfinite(grad)):
        if total < _GRADIENT_OVERFLOW_FLOOR:
            return total, np.zeros(len(z))
        raise NonFiniteGradient("gradient contains non-finite components", z=z)
    return total, grad


def _outcome(fn, z):
    """A call's result, or its exception as (type, message, row)."""
    try:
        return fn(z)
    except (NonFiniteDensity, NonFiniteGradient) as exc:
        return type(exc), str(exc), getattr(exc, "row", None)


def _outcomes(vm, data, z):
    """(value, value and gradient) of the posterior and of the reference at ``z``."""
    pf = build_posterior(vm, data)
    with np.errstate(over="ignore"):  # as the sampler runs it
        return (
            (_outcome(pf.log_density, z), _outcome(pf.log_density_and_grad, z)),
            (
                _outcome(lambda v: _reference_density(vm, data, v, False), z),
                _outcome(lambda v: _reference_density(vm, data, v, True), z),
            ),
        )


def _assert_same_as_reference(vm, data, z):
    (value, pair), (expected_value, expected) = _outcomes(vm, data, z)
    assert value == expected_value
    if isinstance(expected[1], np.ndarray):
        assert pair[0] == expected[0] and np.array_equal(pair[1], expected[1])
    else:
        assert pair == expected


def _assert_close_to_reference(vm, data, z):
    """Values and gradients within 1e-10 relative; the same exceptions, messages and rows."""
    (value, pair), (expected_value, expected) = _outcomes(vm, data, z)
    if isinstance(expected_value, tuple):
        assert value == expected_value
    else:
        assert value == pytest.approx(expected_value, rel=1e-10)
    if isinstance(expected[1], np.ndarray):
        assert pair[0] == pytest.approx(expected[0], rel=1e-10)
        scale = max(1.0, float(np.max(np.abs(expected[1]))))
        np.testing.assert_allclose(pair[1], expected[1], rtol=1e-10, atol=1e-10 * scale)
        assert pair[0] == value  # the value call and the gradient call agree bit for bit
    else:
        assert pair == expected


class TestCompiledMatchesReference:
    def test_random_models_bit_for_bit(self, monkeypatch):
        # the rows, forced on every model, and the default path on every mean
        # that is not affine in X, bit for bit
        rng = np.random.default_rng(31415)
        n_not_affine = 0
        for _ in range(200):
            spec, data = _random_model_and_data(rng)
            vm = validate_model(spec, data.column_names())
            zs = [rng.normal(scale=scale, size=len(spec.priors)) for scale in (0.8, 6.0)]
            with monkeypatch.context() as m:
                m.setattr(posterior, "_thin_qr", lambda *args: None)
                for z in zs:
                    _assert_same_as_reference(vm, data, z)
            if not _is_affine(vm):
                n_not_affine += 1
                for z in zs:
                    _assert_same_as_reference(vm, data, z)
        assert n_not_affine >= 100

    @pytest.mark.parametrize("n", [7, 9000, 100_000])
    def test_random_affine_models_close(self, n):
        # n = 9000 and 100 000 rows make the blocked dot products sum 2 and 13 blocks
        rng = np.random.default_rng(27182 + n)
        for _ in range(100 if n < 1000 else 10):
            spec, data = _random_model_and_data(rng, affine_only=True, n=n)
            vm = validate_model(spec, data.column_names())
            assert _is_affine(vm)
            for scale in (0.8, 6.0):
                _assert_close_to_reference(vm, data, rng.normal(scale=scale, size=len(spec.priors)))

    @pytest.mark.parametrize("n", [3, 4, 50])
    def test_two_columns_close(self, n):
        # B = [1, X, Z]: n = 3 is square (the rows serve it), 4 and 50 factorise
        rng = np.random.default_rng(n)
        data = Dataset({"X": rng.uniform(-3, 3, n), "Z": rng.uniform(0, 5, n), "y": rng.normal(size=n)})
        spec = ModelSpec(
            priors={
                "a": Normal(mu=0, sigma=2),
                "b": Exponential(lam=1),
                "s": HalfNormal(sigma=3),
            },
            likelihood=LikelihoodSpec(formula_source="a + b * X - Z / (b + a * a) + a * Z", noise_param="s"),
        )
        vm = validate_model(spec, data.column_names())
        for _ in range(20):
            _assert_close_to_reference(vm, data, rng.normal(scale=1.5, size=3))

    def test_near_collinear_column_to_rounding(self):
        # X's part apart from the constant column is 3e-8 of its norm, just above the
        # rank tolerance: the second Gram-Schmidt pass keeps Q orthonormal to rounding
        rng = np.random.default_rng(1)
        x = 1000.0 + rng.uniform(0.0, 1e-4, 50)
        data = Dataset({"X": x, "y": 2.0 + 3e4 * (x - 1000.0) + rng.normal(size=50)})
        spec = ModelSpec(
            priors={
                "a": Normal(mu=0, sigma=10),
                "b": Normal(mu=0, sigma=10),
                "s": HalfNormal(sigma=3),
            },
            likelihood=LikelihoodSpec(formula_source="a + b * X", noise_param="s"),
        )
        vm = validate_model(spec, data.column_names())
        assert posterior._thin_qr([np.ones(50), x], data.columns["y"], np.dot) is not None
        z = np.array([0.5, 0.3, 0.2])
        value, grad = build_posterior(vm, data).log_density_and_grad(z)
        expected_value, expected_grad = _reference_density(vm, data, z, True)
        assert value == pytest.approx(expected_value, rel=1e-13)
        np.testing.assert_allclose(grad, expected_grad, rtol=1e-13)

    SOURCES = [
        "a / X",  # X = 0 on one row: a non-finite quotient at that row
        "a + X / (X * X)",  # a parameter-free subtree that raises at every call
        "X / a",  # a = 0 at z_a = 0
        "a / (b - b)",  # a zero denominator for every z
        "a * X / (b * X) + s",  # 0 / 0 on the X = 0 row
        "a + b / s",  # the noise scale in the mean; s near 0 in z-space far below 0
        "a * (b / b)",  # a finite mean whose partial for b is 0 / 0 once b * b underflows
    ]

    @staticmethod
    def _singular_model(source):
        spec = ModelSpec(
            priors={
                "a": Normal(mu=0, sigma=2),
                "b": Exponential(lam=1),
                "s": HalfNormal(sigma=3),
            },
            likelihood=LikelihoodSpec(formula_source=source, noise_param="s"),
        )
        data = Dataset({"X": np.array([1.5, -2.0, 0.0, 3.0]), "y": np.array([0.5, -1.0, 0.0, 2.0])})
        return validate_model(spec, data.column_names()), data

    SINGULAR_ZS = ([0.0, 0.0, 0.0], [1.0, -0.5, 0.3], [0.0, -800.0, 0.2], [0.5, -400.0, 0.2], [2.0, 3.0, -200.0], [0.5, 0.5, -750.0])

    @pytest.mark.parametrize("source", SOURCES)
    def test_division_singularities_raise_alike(self, source, rows_only):
        vm, data = self._singular_model(source)
        for z in self.SINGULAR_ZS:
            _assert_same_as_reference(vm, data, np.array(z))

    @pytest.mark.parametrize("source", SOURCES)
    def test_division_singularities_by_default_path(self, source):
        # the affine means among them ("X / a", "a / (b - b)", "a + b / s",
        # "a * (b / b)") take the factorisation wherever it vouches for a call
        vm, data = self._singular_model(source)
        for z in self.SINGULAR_ZS:
            _assert_close_to_reference(vm, data, np.array(z))


class TestAffineFallback:
    """Where the factorisation cannot serve, the rows do, to the bit."""

    @staticmethod
    def _vm(source, data, a_sigma=2.0):
        spec = ModelSpec(
            priors={
                "a": Normal(mu=0, sigma=a_sigma),
                "b": Exponential(lam=1),
                "s": HalfNormal(sigma=3),
            },
            likelihood=LikelihoodSpec(formula_source=source, noise_param="s"),
        )
        return validate_model(spec, data.column_names())

    def _assert_rows(self, vm, data, zs):
        for z in zs:
            _assert_same_as_reference(vm, data, np.array(z))

    ZS = ([0.3, -0.2, 0.1], [-1.2, 0.7, 1.5], [2.0, -1.0, -0.5])

    def test_constant_column(self):
        data = Dataset({"X": np.full(6, 3.0), "y": np.linspace(-1.0, 2.0, 6)})
        self._assert_rows(self._vm("a + b * X", data), data, self.ZS)

    @pytest.mark.parametrize("n", [1, 2])
    def test_no_more_rows_than_coefficients(self, n):
        data = Dataset({"X": np.array([0.5, -1.5])[:n], "y": np.array([1.0, 0.25])[:n]})
        self._assert_rows(self._vm("a + b * X", data), data, self.ZS)

    def test_quotient_at_zero_raises_with_its_row(self):
        # X / a at a = 0: the coefficient 1 / a raises, and the rows report row 0
        data = Dataset({"X": np.array([0.0, 1.5, -2.0]), "y": np.array([0.5, -1.0, 2.0])})
        vm = self._vm("X / a + b", data)
        with pytest.raises(NonFiniteDensity) as err:
            build_posterior(vm, data).log_density(np.array([0.0, 0.0, 0.0]))
        assert err.value.row == 0
        self._assert_rows(vm, data, [[0.0, 0.0, 0.0], [0.0, 1.0, -1.0]])

    def test_overflowing_coefficient(self):
        # X's coefficient a * 1e300 * 1e-300 overflows at a = 1e10, while every
        # row's ((X * a) * 1e300) * 1e-300 is finite: the rows give the density
        data = Dataset({"X": np.array([1.0, 1.5, 2.0, 1.2]) * 1e-20, "y": np.array([0.1, -0.2, 0.3, 0.0])})
        vm = self._vm("X * a * 1e300 * 1e-300 + b", data, a_sigma=1e12)
        z = np.array([1e10, 0.2, 0.1])
        assert math.isfinite(build_posterior(vm, data).log_density(z))
        self._assert_rows(vm, data, [z])

    def test_coefficient_partial_underflow(self):
        # at a = 1e-100 X's coefficient a / (a * a) is finite but its partial
        # divides by (a * a) * (a * a) = 0, while the rows' -X / (a * a) is finite
        data = Dataset({"X": np.array([1.0, 1.5, -2.0, 3.0]), "y": np.array([0.5, -1.0, 0.0, 2.0])})
        vm = self._vm("X / a + b", data)
        z = np.array([1e-100, 0.2, 0.1])
        pair = build_posterior(vm, data).log_density_and_grad(z)
        expected = _reference_density(vm, data, z, True)
        assert np.all(np.isfinite(pair[1])) and pair[1][0] != 0.0
        assert pair[0] == expected[0] and np.array_equal(pair[1], expected[1])

    def test_noise_scale_cube_underflow(self, monkeypatch):
        # y = 0 = a * X + a fits exactly at a = 0, so every sum is 0 and the value
        # finite where sigma^3 underflows to 0 (and at e^-400 sigma^2 too)
        data = Dataset({"X": np.array([1.0, 2.0, 3.0, 4.0, 5.0]), "y": np.zeros(5)})
        vm = self._vm("a * X + a + 0 * b", data)
        pf = build_posterior(vm, data)
        with monkeypatch.context() as m:
            m.setattr(posterior, "_thin_qr", lambda *args: None)
            rows = build_posterior(vm, data)
        for z_s in (-300.0, -400.0):
            z = np.array([0.0, 0.0, z_s])
            value, grad = pf.log_density_and_grad(z)
            assert value == pf.log_density(z) == rows.log_density(z)
            assert np.all(np.isfinite(grad)) and np.array_equal(grad, rows.log_density_and_grad(z)[1])

    def test_residual_beyond_float_range(self):
        # |y| near 1e200 makes rho = |y - Q Q^T y|^2 overflow: the posterior still
        # builds, and every call sums the rows, where sigma near 1e200 keeps them finite
        rng = np.random.default_rng(8)
        x = rng.uniform(-3.0, 3.0, 30)
        data = Dataset({"X": x, "y": 1e200 * rng.normal(size=30)})
        assert posterior._thin_qr([np.ones(30), x], data.columns["y"], np.dot)[2] == math.inf
        spec = ModelSpec(
            priors={"a": Normal(mu=0, sigma=2), "b": Exponential(lam=1), "s": HalfNormal(sigma=1e250)},
            likelihood=LikelihoodSpec(formula_source="a + b * X", noise_param="s"),
        )
        vm = validate_model(spec, data.column_names())
        zs = [[0.3, -0.2, 461.0], [-1.2, 0.7, 465.5], [2.0, -1.0, 0.1]]
        assert math.isfinite(build_posterior(vm, data).log_density(np.array(zs[0])))
        self._assert_rows(vm, data, zs)

    @pytest.mark.parametrize("source, row_sums", [("a + X / b", False), ("a / (X + b)", True)])
    def test_affine_mean_sums_no_rows_per_call(self, monkeypatch, source, row_sums):
        # every sum over the rows goes through np_dot; the factorisation takes
        # its sums once, at build time, and a mean that is not affine every call
        calls = []
        monkeypatch.setattr(posterior, "np_dot", lambda a, b: calls.append(a.shape) or np.dot(a, b))
        rng = np.random.default_rng(5)
        data = Dataset({"X": rng.uniform(0, 10, 50), "y": rng.normal(size=50)})
        pf = build_posterior(self._vm(source, data), data)
        assert bool(calls) == (not row_sums)
        calls.clear()
        z = np.array([0.4, -0.3, 0.2])
        pf.log_density(z)
        pf.log_density_and_grad(z)
        assert bool(calls) == row_sums


def _built_counting_row_sums(monkeypatch, vm, data):
    """The posterior, and a list that counts the sums over the rows its calls take."""
    calls = []
    monkeypatch.setattr(posterior, "np_dot", lambda a, b: calls.append(a.shape) or np.dot(a, b))
    pf = build_posterior(vm, data)
    calls.clear()
    return pf, calls


class TestStraightLine:
    """The factorisation's density is generated as source: no blueprint text and no
    formula the parser accepts may break it."""

    def test_blueprint_names_are_not_source(self, monkeypatch):
        # names that are Python keywords, builtins or the generated function's own
        # words, as parameters and as data columns, two columns to a mean
        rng = np.random.default_rng(21)
        data = Dataset({"z": rng.uniform(-3, 3, 30), "__import__": rng.uniform(0, 5, 30), "y": rng.normal(size=30)})
        spec = ModelSpec(
            priors={
                "lambda": Normal(mu=0, sigma=2),
                "None": Exponential(lam=1),
                "total": Normal(mu=1, sigma=3),
                "math": HalfNormal(sigma=3),
            },
            likelihood=LikelihoodSpec(formula_source="lambda + None * z - total * __import__ / None", noise_param="math"),
        )
        vm = validate_model(spec, data.column_names())
        for _ in range(20):
            _assert_close_to_reference(vm, data, rng.normal(scale=1.5, size=4))
        pf, row_sums = _built_counting_row_sums(monkeypatch, vm, data)
        pf.log_density_and_grad(np.array([0.1, 0.2, 0.3, 0.4]))
        assert not row_sums

    @pytest.mark.parametrize("name", ["lambda", "None", "z", "math", "total", "__import__"])
    def test_each_name_as_parameter_and_column(self, name):
        rng = np.random.default_rng(22)
        for param, column in ((name, "X"), ("a", name)):
            data = Dataset({column: rng.uniform(-3, 3, 20), "y": rng.normal(size=20)})
            spec = ModelSpec(
                priors={param: Normal(mu=0, sigma=2), "b": Exponential(lam=1), "s": HalfNormal(sigma=3)},
                likelihood=LikelihoodSpec(formula_source=f"{param} + b * {column}", noise_param="s"),
            )
            vm = validate_model(spec, data.column_names())
            for scale in (0.8, 6.0):
                _assert_close_to_reference(vm, data, rng.normal(scale=scale, size=3))

    @staticmethod
    def _deepest(make):
        """``make(k)`` for the largest k the parser accepts."""
        k = 1
        while True:
            try:
                formula.parse_formula(make(k + 1))
            except FormulaTooDeep:
                return make(k)
            k += 1

    @pytest.mark.parametrize("make", [
        lambda k: "a + " + "-(" * k + "b * X" + ")" * k,  # a negation chain
        lambda k: " * ".join(["b"] * k + ["X"]) + " + a",  # a product chain
        lambda k: "a + X / " + "(b / " * k + "b" + ")" * k,  # a nested quotient
    ], ids=["negations", "products", "quotients"])
    def test_formulas_at_the_depth_limit(self, monkeypatch, make):
        # one assignment per node: no accepted formula nests the source deeper than one operation
        rng = np.random.default_rng(23)
        data = Dataset({"X": rng.uniform(0.5, 2.0, 40), "y": rng.normal(size=40)})
        spec = ModelSpec(
            priors={"a": Normal(mu=0, sigma=2), "b": Exponential(lam=1), "s": HalfNormal(sigma=3)},
            likelihood=LikelihoodSpec(formula_source=self._deepest(make), noise_param="s"),
        )
        vm = validate_model(spec, data.column_names())
        pf, row_sums = _built_counting_row_sums(monkeypatch, vm, data)
        z = np.array([0.3, 0.01, 0.2])
        value, grad = pf.log_density_and_grad(z)
        assert pf.log_density(z) == value and not row_sums
        expected_value, expected_grad = _reference_density(vm, data, z, True)
        assert value == pytest.approx(expected_value, rel=1e-10)
        np.testing.assert_allclose(grad, expected_grad, rtol=1e-10)


def _bits(fn, z):
    """A call's value and gradient as bytes, or its exception as (type, message)."""
    try:
        result = fn(z)
    except (NonFiniteDensity, NonFiniteGradient) as exc:
        return type(exc), str(exc)
    value, grad = result if isinstance(result, tuple) else (result, None)
    return np.float64(value).tobytes(), None if grad is None else grad.tobytes()


def _built_with_method_calls(monkeypatch, vm, data):
    """The posterior whose kernel calls each family's and transform's methods,
    as the row path does, where the kernel inlines them."""
    with monkeypatch.context() as m:
        for cls in (IdentityTransform, ExpTransform, LogisticIntervalTransform):
            m.setattr(cls, "emit", lambda self, z, let, bind: (
                let(f"{bind(self.forward)}({z})"), f"{bind(self.log_jacobian)}({z})",
                f"{bind(self.dforward_dz)}({z})", f"{bind(self.dlog_jacobian_dz)}({z})"))
        for cls in FAMILIES.values():
            m.setattr(cls, "emit", lambda self, x, let, bind: (f"{bind(self.log_pdf)}({x})", f"{bind(self.dlogpdf_dx)}({x})"))
        return build_posterior(vm, data)


_INLINED = {
    "Normal": Normal(mu=1.5, sigma=2.5),
    "HalfNormal": HalfNormal(sigma=3.0),
    "Exponential": Exponential(lam=0.7),
    "Uniform": Uniform(lower=-4.0, upper=9.0),
}


class TestInlinedFamilies:
    """The kernel inlines each family's log density and its derivative, and each
    transform's map, log-Jacobian and their derivatives, bit for bit."""

    # the logistic's tails, exp's last finite and first overflowing arguments, a prior
    # total of -inf (exp(700) squared, 1e200 squared), signed zeros and a subnormal
    EDGES = [750.0, -750.0, 709.0, 710.0, 1000.0, -1000.0, 700.0, 1e200, -1e200, 36.0, -36.0, 0.0, -0.0, 5e-324]

    @staticmethod
    def _model(role, dist):
        rng = np.random.default_rng(41)
        data = Dataset({"X": rng.uniform(-3, 3, 30), "y": rng.normal(1.0, 2.0, 30)})
        priors = {"a": Normal(mu=0, sigma=2), "b": Exponential(lam=1), "s": HalfNormal(sigma=3)}
        priors[role] = dist
        spec = ModelSpec(priors=priors, likelihood=LikelihoodSpec(formula_source="a + b * X", noise_param="s"))
        return validate_model(spec, data.column_names()), data

    @pytest.mark.parametrize("family, role", [
        (family, role) for family in _INLINED for role in "abs" if role != "s" or family in ("HalfNormal", "Exponential")
    ])
    def test_value_and_gradient_as_method_calls(self, monkeypatch, family, role):
        # each family as the intercept a, the slope b and, where it may be, the noise scale s
        vm, data = self._model(role, _INLINED[family])
        pf, reference = build_posterior(vm, data), _built_with_method_calls(monkeypatch, vm, data)
        rng = np.random.default_rng(42)
        zs = [rng.normal(scale=scale, size=3) for scale in (0.3, 2.0, 30.0) for _ in range(20)]
        for edge in self.EDGES:
            z = rng.normal(scale=0.5, size=3)
            z["abs".index(role)] = edge
            zs += [z, np.full(3, edge)]
        with np.errstate(over="ignore"):  # as the sampler runs it
            for z in zs:
                assert _bits(pf.log_density, z) == _bits(reference.log_density, z)
                assert _bits(pf.log_density_and_grad, z) == _bits(reference.log_density_and_grad, z)

    @pytest.mark.parametrize("z", [[0.1, 710.0, 0.2], [0.1, 0.2, 1000.0], [1e200, 0.1, 0.2], [0.1, 0.2, 700.0]],
                             ids=["slope-exp-overflows", "noise-exp-overflows", "normal-minus-inf", "half-normal-minus-inf"])
    def test_overflow_and_minus_infinity_take_the_rows(self, monkeypatch, z):
        vm, data = self._model("a", Normal(mu=0, sigma=2))
        pf = build_posterior(vm, data)
        monkeypatch.setattr(posterior, "_thin_qr", lambda *args: None)
        rows = build_posterior(vm, data)
        z = np.array(z)
        with np.errstate(over="ignore"):
            assert _bits(pf.log_density, z) == _bits(rows.log_density, z) == (np.float64(-math.inf).tobytes(), None)
            assert _bits(pf.log_density_and_grad, z) == _bits(rows.log_density_and_grad, z)

    def test_random_affine_models_as_method_calls(self, monkeypatch):
        rng = np.random.default_rng(43)
        for _ in range(100):
            spec, data = _random_model_and_data(rng, affine_only=True, n=int(rng.integers(3, 40)))
            vm = validate_model(spec, data.column_names())
            pf, reference = build_posterior(vm, data), _built_with_method_calls(monkeypatch, vm, data)
            with np.errstate(over="ignore"):
                for scale in (0.3, 2.0, 30.0):
                    z = rng.normal(scale=scale, size=pf.dimension)
                    assert _bits(pf.log_density, z) == _bits(reference.log_density, z)
                    assert _bits(pf.log_density_and_grad, z) == _bits(reference.log_density_and_grad, z)


class _Unmemoised(dict):
    """A memo that keeps nothing: ``formula.simplify`` walks every shared subtree anew."""

    def __setitem__(self, key, value):
        pass


class TestDeepNestedQuotient:
    """``X / (a / (a / ... b))`` at the parser's depth limit (98 quotients).  The
    quotient rule shares each denominator in three places, which ``simplify``
    simplifies once per call; walked as a tree, the slope's partial in ``b``
    alone took seconds."""

    SOURCE = TestStraightLine._deepest(lambda k: "X / " + "(a / " * k + "b" + ")" * k)

    def test_partials_equal_an_unmemoised_reference(self):
        ast = formula.parse_formula(self.SOURCE)
        assert self.SOURCE.count("(a /") == 98
        slope = formula.differentiate(ast, "X")
        assert slope == formula.simplify(formula._diff(ast, "X"), _Unmemoised())
        for tree in (ast, slope):  # the partials build_posterior takes: of the mean and of its slope
            for name in ("a", "b"):
                assert formula.differentiate(tree, name) == formula.simplify(formula._diff(tree, name), _Unmemoised())

    def test_kernel_has_one_local_per_distinct_operation(self):
        # the trees the kernel emits, X bound to a number, and those the rows emit, X bound
        # as an array, share each denominator in three places, and a partial shares the
        # subtrees simplify leaves as they are with its formula; with one memo per build,
        # each distinct operation node is one assignment
        ast = formula.parse_formula(self.SOURCE)
        slope = formula.differentiate(ast, "X")
        kernel = [ast, slope] + [formula.differentiate(tree, name) for tree in (ast, slope) for name in ("a", "b")]
        rows = [ast] + [formula.differentiate(ast, name) for name in ("a", "b")]
        for trees, x, expected in ((kernel, 2.0, 3249), (rows, np.linspace(0.5, 2.0, 5), 888)):
            nodes, stack = {}, list(trees)
            while stack:
                node = stack.pop()
                if id(node) not in nodes:
                    nodes[id(node)] = node
                    stack += [getattr(node, part) for part in ("child", "left", "right") if hasattr(node, part)]
            operations = sum(isinstance(node, (Binary, Negate)) for node in nodes.values())
            lets, memo = [], {}
            for tree in trees:
                formula.emit(tree, {"a": "a", "b": "b"}, {"X": x}, lambda expr: lets.append(expr) or f"t{len(lets)}",
                             lambda value: "k", memo)
            # the kernel's count was 13 247 while simplify rebuilt every node, and is 100 765 walked as trees
            assert len(lets) == operations == expected

    def test_build_takes_seconds_at_most(self):
        rng = np.random.default_rng(29)
        data = Dataset({"X": rng.uniform(0.5, 2.0, 100), "y": rng.normal(size=100)})
        spec = ModelSpec(
            priors={"a": Normal(mu=0, sigma=2), "b": Exponential(lam=1), "s": HalfNormal(sigma=3)},
            likelihood=LikelihoodSpec(formula_source=self.SOURCE, noise_param="s"),
        )
        vm = validate_model(spec, data.column_names())
        started = time.perf_counter()
        pf = build_posterior(vm, data)
        # about 0.1 s on a 2-vCPU x86-64 host; 1.5 s when each partial rebuilt its formula's
        # nodes, 4 s when the kernel also emitted each shared denominator anew, and 9 s when
        # simplify also walked it anew
        assert time.perf_counter() - started < 60.0
        z = np.array([0.3, 0.01, 0.2])
        value, grad = pf.log_density_and_grad(z)
        expected_value, expected_grad = _reference_density(vm, data, z, True)
        assert value == pytest.approx(expected_value, rel=1e-10)
        np.testing.assert_allclose(grad, expected_grad, rtol=1e-10)
