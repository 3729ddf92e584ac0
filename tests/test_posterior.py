import math

import numpy as np
import pytest

from plainbayes import formula
from plainbayes.data_io import Dataset
from plainbayes.distributions import Exponential, HalfNormal, Normal, Uniform, from_spec
from plainbayes.errors import (
    DimensionMismatch,
    MissingResponseColumn,
    NonFiniteDensity,
    NonFiniteGradient,
    NonFiniteResult,
    UnresolvedVariable,
)
from plainbayes.formula import Binary, Negate, NumberLiteral, Variable
from plainbayes.posterior import _GRADIENT_OVERFLOW_FLOOR, PosteriorFn, build_posterior
from plainbayes.spec_schema import (
    DistributionSpec,
    LikelihoodSpec,
    ModelSpec,
    parse_model_json,
    validate_model,
)

from conftest import EXPERIMENT_MODEL_JSON


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
                "alpha": DistributionSpec("Normal", {"mu": 0, "sigma": 1}),
                "sigma": DistributionSpec("HalfNormal", {"sigma": 1}),
            },
            likelihood=LikelihoodSpec(formula_source="alpha / X"),
        )
        data = Dataset({"X": np.array([1.0, 0.0]), "y": np.array([0.0, 0.0])})
        pf = build_posterior(validate_model(spec, data.column_names()), data)
        with pytest.raises(NonFiniteDensity) as err:
            pf.log_density(np.array([0.5, 0.0]))
        assert err.value.row == 1

    def test_row_contributions_additive(self, experiment_dataset):
        x = experiment_dataset.columns["X"]
        y = experiment_dataset.columns["y"]
        a = Dataset({"X": x[:40], "y": y[:40]})
        b = Dataset({"X": x[40:], "y": y[40:]})
        both = Dataset({"X": x, "y": y})
        z = np.array([0.4, 0.1, 0.9])
        spec = parse_model_json(EXPERIMENT_MODEL_JSON)

        def logp(ds):
            return build_posterior(validate_model(spec, ds.column_names()), ds).log_density(z)

        prior = _experiment_prior_plus_jacobian(z)
        assert logp(both) - logp(a) - logp(b) == pytest.approx(-prior, rel=1e-12)

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
                "beta": DistributionSpec("Normal", {"mu": 0, "sigma": 1}),
                "sigma": DistributionSpec("HalfNormal", {"sigma": 1}),
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


def _random_model_and_data(rng):
    n_priors = int(rng.integers(1, 5))
    names = [f"p{i}" for i in range(n_priors)]
    priors = {}
    for name in names:
        kind = int(rng.integers(0, 4))
        if kind == 0:
            priors[name] = DistributionSpec(
                "Normal", {"mu": float(rng.uniform(-5, 5)), "sigma": float(rng.uniform(0.3, 10))}
            )
        elif kind == 1:
            priors[name] = DistributionSpec("HalfNormal", {"sigma": float(rng.uniform(0.3, 10))})
        elif kind == 2:
            lo = float(rng.uniform(-20, 0))
            priors[name] = DistributionSpec("Uniform", {"lower": lo, "upper": lo + float(rng.uniform(1, 30))})
        else:
            priors[name] = DistributionSpec("Exponential", {"lam": float(rng.uniform(0.1, 3))})
    noise = str(rng.choice(names))
    priors[noise] = DistributionSpec("HalfNormal", {"sigma": float(rng.uniform(1, 10))})

    # linear-ish random formula over priors and the data column (no division,
    # so no singular surfaces confound the finite differences)
    terms = []
    for name in names:
        form = int(rng.integers(0, 3))
        terms.append((name, f"{name} * X", f"{name} * {name}")[form])
    formula_source = " + ".join(terms) if rng.random() < 0.8 else " - ".join(terms)

    n = int(rng.integers(3, 12))
    data = Dataset({"X": rng.uniform(-3, 3, n), "y": rng.uniform(-5, 5, n)})
    spec = ModelSpec(priors=priors, likelihood=LikelihoodSpec(formula_source=formula_source, noise_param=noise))
    return spec, data


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
    dists = [from_spec(spec.priors[name]) for name in names]
    transforms = [dist.transform() for dist in dists]
    noise_index = names.index(spec.likelihood.noise_param)
    y = data.columns["y"]
    n_rows = data.n_rows
    fixed_env = {v: data.columns[v] for v, role in vm.variable_roles.items() if role == "column"}
    partials = [formula.differentiate(vm.formula_ast, name) for name in names]

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
            mu = np.broadcast_to(np.asarray(_reference_evaluate(vm.formula_ast, env), dtype=float), (n_rows,))
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


def _assert_same_as_reference(vm, data, z):
    pf = build_posterior(vm, data)
    with np.errstate(over="ignore"):  # as the sampler runs it
        value = _outcome(pf.log_density, z)
        assert value == _outcome(lambda v: _reference_density(vm, data, v, False), z)
        pair = _outcome(pf.log_density_and_grad, z)
        expected = _outcome(lambda v: _reference_density(vm, data, v, True), z)
    if isinstance(expected[1], np.ndarray):
        assert pair[0] == expected[0] and np.array_equal(pair[1], expected[1])
    else:
        assert pair == expected


class TestCompiledMatchesReference:
    def test_random_models_bit_for_bit(self):
        rng = np.random.default_rng(31415)
        for _ in range(200):
            spec, data = _random_model_and_data(rng)
            vm = validate_model(spec, data.column_names())
            for scale in (0.8, 6.0):
                _assert_same_as_reference(vm, data, rng.normal(scale=scale, size=len(spec.priors)))

    @pytest.mark.parametrize(
        "source",
        [
            "a / X",  # X = 0 on one row: a non-finite quotient at that row
            "a + X / (X * X)",  # a parameter-free subtree that raises at every call
            "X / a",  # a = 0 at z_a = 0
            "a / (b - b)",  # a zero denominator for every z
            "a * X / (b * X) + s",  # 0 / 0 on the X = 0 row
            "a + b / s",  # the noise scale in the mean; s near 0 in z-space far below 0
            "a * (b / b)",  # a finite mean whose partial for b is 0 / 0 once b * b underflows
        ],
    )
    def test_division_singularities_raise_alike(self, source):
        spec = ModelSpec(
            priors={
                "a": DistributionSpec("Normal", {"mu": 0, "sigma": 2}),
                "b": DistributionSpec("Exponential", {"lam": 1}),
                "s": DistributionSpec("HalfNormal", {"sigma": 3}),
            },
            likelihood=LikelihoodSpec(formula_source=source, noise_param="s"),
        )
        data = Dataset({"X": np.array([1.5, -2.0, 0.0, 3.0]), "y": np.array([0.5, -1.0, 0.0, 2.0])})
        vm = validate_model(spec, data.column_names())
        zs = ([0.0, 0.0, 0.0], [1.0, -0.5, 0.3], [0.0, -800.0, 0.2], [0.5, -400.0, 0.2], [2.0, 3.0, -200.0], [0.5, 0.5, -750.0])
        for z in zs:
            _assert_same_as_reference(vm, data, np.array(z))
