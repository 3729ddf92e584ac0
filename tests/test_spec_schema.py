import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plainbayes import formula
from plainbayes.distributions import Exponential, HalfNormal, Normal, Uniform
from plainbayes.errors import (
    ExtraKeyWarning,
    FormulaSyntax,
    InvalidParamValue,
    InvalidSpec,
    MalformedJson,
    MissingKey,
    MissingParam,
    NoiseNotPositiveSupport,
    NoJsonObject,
    ShadowedColumn,
    UnknownDistribution,
    UnresolvedVariable,
)
from plainbayes.formula import parse_formula
from plainbayes.spec_schema import (
    LikelihoodSpec,
    ModelSpec,
    model_to_json,
    parse_model_json,
    parse_prior_json,
    prior_to_obj,
    sanitize_llm_text,
    validate_model,
)

EXPERIMENT_MODEL = """
{
  "priors": {
    "alpha": {"distribution": "Uniform", "params": {"lower": -25, "upper": 25}},
    "beta": {"distribution": "Exponential", "params": {"rate": 0.5}},
    "sigma": {"distribution": "HalfNormal", "params": {"scale": 15}}
  },
  "likelihood": {"distribution": "Normal", "formula": "alpha + beta * X"}
}
"""


class TestSanitize:
    def test_strips_markdown_fence(self):
        assert sanitize_llm_text('```json\n{"a":1}\n```') == '{"a":1}'

    def test_trailing_prose(self):
        assert sanitize_llm_text('{"a":{"b":2}} trailing') == '{"a":{"b":2}}'

    def test_no_braces(self):
        with pytest.raises(NoJsonObject):
            sanitize_llm_text("no braces here")

    def test_braces_inside_strings(self):
        text = 'noise {"a": "}{", "b": 1} more'
        assert sanitize_llm_text(text) == '{"a": "}{", "b": 1}'

    def test_unbalanced_first_brace_recovers(self):
        text = 'weird { prose\n```json\n{"a": 1}\n```'
        # the first "{" never balances; the scanner moves on to the object
        assert json.loads(sanitize_llm_text(text)) == {"a": 1}

    def test_escaped_quote_in_string(self):
        text = '{"a": "say \\"hi\\" {"}'
        assert sanitize_llm_text(text) == text


def _assert_rejected_alike(family, params, match):
    """Parsing ``params`` as prior JSON and constructing ``family`` from them
    both raise InvalidParamValue, with one message."""
    with pytest.raises(InvalidParamValue, match=match) as parsed:
        parse_prior_json(json.dumps({"distribution": family.__name__, "params": params}))
    with pytest.raises(InvalidParamValue) as built:
        family(**params)
    assert str(built.value) == str(parsed.value)


class TestParsePriorJson:
    def test_normal(self):
        name, spec = parse_prior_json('{"distribution":"Normal","params":{"mu":2,"sigma":1}}')
        assert name is None
        assert spec == Normal(mu=2.0, sigma=1.0)

    def test_halfnormal_scale_alias(self):
        _, spec = parse_prior_json('{"distribution":"HalfNormal","params":{"scale":15}}')
        assert spec == HalfNormal(sigma=15.0)

    def test_unknown_distribution(self):
        with pytest.raises(UnknownDistribution):
            parse_prior_json('{"distribution":"Cauchy","params":{"x0":0}}')

    def test_missing_param(self):
        with pytest.raises(MissingParam):
            parse_prior_json('{"distribution":"Normal","params":{"mu":0}}')

    def test_missing_params_object(self):
        with pytest.raises(MissingParam):
            parse_prior_json('{"distribution":"Normal"}')

    def test_nonpositive_sigma(self):
        with pytest.raises(InvalidParamValue):
            parse_prior_json('{"distribution":"Normal","params":{"mu":0,"sigma":-1}}')

    def test_lower_not_below_upper(self):
        with pytest.raises(InvalidParamValue):
            parse_prior_json('{"distribution":"Uniform","params":{"lower":2,"upper":2}}')

    def test_width_beyond_float_range(self):
        # each bound is finite, but upper - lower is inf
        _assert_rejected_alike(Uniform, {"lower": -1e308, "upper": 1e308},
                               "Uniform: lower must be < upper, upper - lower finite, got lower=-1e\\+308, upper=1e\\+308$")

    def test_positional_params_rejected(self):
        with pytest.raises(MissingParam, match="positional"):
            parse_prior_json('{"distribution":"Normal","params":{"param1":0,"param2":1}}')

    def test_conflicting_aliases(self):
        with pytest.raises(InvalidParamValue, match="more than once"):
            parse_prior_json('{"distribution":"Normal","params":{"mu":0,"sigma":1,"sd":2}}')

    def test_boolean_param_rejected(self):
        _assert_rejected_alike(Exponential, {"lam": True}, "'lam' must be a number, got True$")

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_param_beyond_float_range_rejected(self, sign):
        value = int(sign + "1" + "0" * 400)
        _assert_rejected_alike(Exponential, {"lam": value}, f"'lam' must be finite, got {sign}inf$")

    def test_string_param_rejected(self):
        _assert_rejected_alike(Exponential, {"lam": "0.5"}, "'lam' must be a number, got '0.5'$")

    def test_extra_top_level_key_warns(self):
        with pytest.warns(ExtraKeyWarning):
            _, spec = parse_prior_json(
                '{"distribution":"Normal","params":{"mu":0,"sigma":1},"confidence":"high"}'
            )
        assert spec == Normal(0, 1)

    def test_extra_param_warns(self):
        with pytest.warns(ExtraKeyWarning):
            _, spec = parse_prior_json(
                '{"distribution":"Normal","params":{"mu":0,"sigma":1,"skew":0}}'
            )
        assert spec == Normal(0, 1)

    def test_case_insensitive_distribution(self):
        _, spec = parse_prior_json('{"distribution":"halfnormal","params":{"sd":2}}')
        assert spec == HalfNormal(sigma=2.0)

    def test_named_prior(self):
        name, _ = parse_prior_json(
            '{"parameter":"beta","distribution":"Normal","params":{"mu":2,"sigma":1}}'
        )
        assert name == "beta"

    def test_malformed_json(self):
        with pytest.raises(MalformedJson):
            parse_prior_json('{"distribution": "Normal",')

    def test_lambda_alias(self):
        _, spec = parse_prior_json('{"distribution":"Exponential","params":{"lambda":0.5}}')
        assert spec == Exponential(0.5)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ('{"distribution":"Normal","params":{"loc":1,"scale":2}}', Normal(mu=1, sigma=2)),
            ('{"distribution":"Normal","params":{"mean":1,"sd":2}}', Normal(mu=1, sigma=2)),
            ('{"distribution":"Uniform","params":{"low":0,"high":2}}', Uniform(lower=0, upper=2)),
            ('{"distribution":"Uniform","params":{"a":0,"b":2}}', Uniform(lower=0, upper=2)),
            ('{"distribution":"Exponential","params":{"rate":2}}', Exponential(lam=2)),
        ],
    )
    def test_alias_table(self, text, expected):
        assert parse_prior_json(text)[1] == expected

    def test_alias_normalization_idempotent(self):
        canonical = '{"distribution":"Uniform","params":{"lower":-1,"upper":1}}'
        _, spec = parse_prior_json(canonical)
        _, spec2 = parse_prior_json(json.dumps(prior_to_obj(spec)))
        assert spec == spec2


class TestParseModelJson:
    def test_experiment_model(self):
        spec = parse_model_json(EXPERIMENT_MODEL)
        assert list(spec.priors) == ["alpha", "beta", "sigma"]
        assert spec.priors["alpha"] == Uniform(lower=-25.0, upper=25.0)
        assert spec.priors["beta"] == Exponential(lam=0.5)
        assert spec.priors["sigma"] == HalfNormal(sigma=15.0)
        assert spec.likelihood.formula_source == "alpha + beta * X"
        assert spec.likelihood.noise_param == "sigma"

    def test_missing_likelihood(self):
        with pytest.raises(MissingKey) as err:
            parse_model_json('{"priors":{}}')
        assert err.value.key == "likelihood"

    def test_missing_priors(self):
        with pytest.raises(MissingKey) as err:
            parse_model_json('{"likelihood":{"distribution":"Normal","formula":"a"}}')
        assert err.value.key == "priors"

    def test_truncated_formula(self):
        bad = EXPERIMENT_MODEL.replace("alpha + beta * X", "alpha + beta *")
        with pytest.raises(FormulaSyntax):
            parse_model_json(bad)

    def test_overflowing_formula_literal(self):
        bad = EXPERIMENT_MODEL.replace("alpha + beta * X", "alpha + 1e999 * X")
        with pytest.raises(FormulaSyntax, match="position 8 overflows a float: 1e999"):
            parse_model_json(bad)

    def test_duplicate_prior_key(self):
        text = (
            '{"priors":{"a":{"distribution":"HalfNormal","params":{"sigma":1}},'
            '"a":{"distribution":"HalfNormal","params":{"sigma":2}}},'
            '"likelihood":{"distribution":"Normal","formula":"a"}}'
        )
        with pytest.raises(MalformedJson, match="duplicate"):
            parse_model_json(text)

    def test_non_normal_likelihood(self):
        bad = EXPERIMENT_MODEL.replace('"distribution": "Normal", "formula"', '"distribution": "StudentT", "formula"')
        with pytest.raises(UnknownDistribution):
            parse_model_json(bad)

    def test_missing_formula(self):
        text = '{"priors":{"s":{"distribution":"HalfNormal","params":{"sigma":1}}},"likelihood":{"distribution":"Normal"}}'
        with pytest.raises(MissingKey) as err:
            parse_model_json(text)
        assert err.value.key == "likelihood.formula"

    def test_bad_prior_name(self):
        text = '{"priors":{"2bad":{"distribution":"HalfNormal","params":{"sigma":1}}},"likelihood":{"distribution":"Normal","formula":"x"}}'
        with pytest.raises(MalformedJson, match="identifier"):
            parse_model_json(text)


class TestValidateModel:
    def test_experiment_classification(self):
        spec = parse_model_json(EXPERIMENT_MODEL)
        vm = validate_model(spec, {"X", "y"})
        assert vm.columns == ("X",)

    def test_unresolved_variable(self):
        spec = parse_model_json(EXPERIMENT_MODEL.replace("alpha + beta * X", "alpha + gamma * X"))
        with pytest.raises(UnresolvedVariable) as err:
            validate_model(spec, {"X", "y"})
        assert err.value.name == "gamma"

    def test_noise_without_positive_support(self):
        text = EXPERIMENT_MODEL.replace(
            '"sigma": {"distribution": "HalfNormal", "params": {"scale": 15}}',
            '"sigma": {"distribution": "Normal", "params": {"mu": 15, "sigma": 3}}',
        )
        with pytest.raises(NoiseNotPositiveSupport):
            validate_model(parse_model_json(text), {"X", "y"})

    def test_shadowed_column(self):
        spec = parse_model_json(EXPERIMENT_MODEL)
        with pytest.raises(ShadowedColumn):
            validate_model(spec, {"X", "y", "beta"})

    def test_noise_prior_missing(self):
        text = (
            '{"priors":{"a":{"distribution":"Normal","params":{"mu":0,"sigma":1}}},'
            '"likelihood":{"distribution":"Normal","formula":"a"}}'
        )
        with pytest.raises(UnresolvedVariable) as err:
            validate_model(parse_model_json(text), {"y"})
        assert err.value.name == "sigma"


class TestConstruction:
    def test_likelihood_requires_parsable_formula(self):
        with pytest.raises(FormulaSyntax):
            LikelihoodSpec(formula_source="a +")

    def test_model_requires_priors(self):
        with pytest.raises(InvalidSpec):
            ModelSpec(priors={}, likelihood=LikelihoodSpec(formula_source="a"))

    def test_unknown_distribution_at_construction(self):
        # a prior is an instance of a family FAMILIES names, so a model cannot name another
        text = EXPERIMENT_MODEL.replace('"Exponential", "params": {"rate": 0.5}', '"Gamma", "params": {"k": 1}')
        with pytest.raises(UnknownDistribution):
            parse_model_json(text)

    def test_nan_param_rejected(self):
        _assert_rejected_alike(Normal, {"mu": float("nan"), "sigma": 1.0}, "'mu' must be finite, got nan$")

    def test_likelihood_parses_its_formula_once(self, monkeypatch):
        likelihood = LikelihoodSpec(formula_source="alpha + beta * X")
        assert likelihood.ast == parse_formula("alpha + beta * X")
        assert likelihood == LikelihoodSpec(formula_source="alpha + beta * X")  # the AST is not compared
        spec = ModelSpec(priors={"alpha": Normal(0, 1), "beta": Normal(0, 1), "sigma": HalfNormal(1)},
                         likelihood=likelihood)
        monkeypatch.setattr(formula, "parse_formula", None)  # validation reads the AST it has
        assert validate_model(spec, {"X", "y"}).columns == ("X",)


# ---------------------------------------------------------------------------
# Properties

_prior_strategy = st.one_of(
    st.tuples(
        st.floats(-50, 50, allow_nan=False),
        st.floats(0.01, 60, allow_nan=False),
    ).map(lambda t: Normal(mu=t[0], sigma=t[1])),
    st.floats(0.01, 60).map(lambda s: HalfNormal(sigma=s)),
    st.tuples(st.floats(-50, 0), st.floats(1, 50)).map(
        lambda t: Uniform(lower=t[0], upper=t[0] + t[1])
    ),
    st.floats(0.01, 10).map(lambda l: Exponential(lam=l)),
)

_names = st.lists(
    st.sampled_from(["alpha", "beta", "gamma", "delta"]), min_size=1, max_size=4, unique=True
)


@st.composite
def _model_strategy(draw):
    names = draw(_names)
    priors = {name: draw(_prior_strategy) for name in names}
    noise = draw(st.sampled_from(names))
    priors[noise] = draw(
        st.one_of(
            st.floats(0.01, 60).map(lambda s: HalfNormal(sigma=s)),
            st.floats(0.01, 10).map(lambda l: Exponential(lam=l)),
        )
    )
    terms = [f"{name} * X" if draw(st.booleans()) else name for name in names]
    formula_source = " + ".join(terms)
    return ModelSpec(
        priors=priors,
        likelihood=LikelihoodSpec(formula_source=formula_source, noise_param=noise),
    )


@settings(max_examples=120, deadline=None)
@given(_model_strategy())
def test_model_json_round_trip(spec):
    assert parse_model_json(model_to_json(spec)) == spec


@settings(max_examples=120, deadline=None)
@given(_model_strategy())
def test_validate_model_accepts_iff_resolvable(spec):
    from plainbayes.formula import free_vars

    columns = {"X", "y"}
    resolvable = free_vars(parse_formula(spec.likelihood.formula_source)) <= (
        set(spec.priors) | columns
    )
    vm = validate_model(spec, columns)  # priors built by the strategy are resolvable
    assert resolvable
    assert set(vm.columns) <= columns
