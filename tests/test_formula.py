import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plainbayes import formula, posterior
from plainbayes.data_io import Dataset
from plainbayes.distributions import HalfNormal, Normal
from plainbayes.errors import (
    FormulaSyntax,
    FormulaTooDeep,
    IllegalCharacter,
    LiteralOverflow,
    NonFiniteDensity,
    NonFiniteGradient,
    NonFiniteResult,
    UnboundVariable,
    UnexpectedEnd,
    UnexpectedToken,
)
from plainbayes.formula import (
    Binary,
    Negate,
    NumberLiteral,
    Variable,
    differentiate,
    emit,
    evaluate,
    free_vars,
    parse,
    parse_formula,
    simplify,
    to_source,
    tokenize,
    writer,
)
from plainbayes.posterior import build_posterior
from plainbayes.spec_schema import LikelihoodSpec, ModelSpec, ValidatedModel, validate_model


class TestTokenize:
    def test_example_expression(self):
        kinds = [(t.kind, t.text) for t in tokenize("alpha + beta * X")]
        assert kinds == [
            ("ident", "alpha"), ("+", "+"), ("ident", "beta"), ("*", "*"), ("ident", "X"),
        ]

    def test_scientific_literal(self):
        tokens = tokenize("1.5e2")
        assert len(tokens) == 1 and tokens[0].value == 150.0

    @pytest.mark.parametrize("source", ["1", "2.5", ".5", "1.", "3e-2", "7E+10"])
    def test_number_forms(self, source):
        (tok,) = tokenize(source)
        assert tok.value == float(source)

    def test_caret_rejected_with_position(self):
        with pytest.raises(IllegalCharacter, match="position 2.*'\\^'"):
            tokenize("a ^ 2")

    def test_double_star_rejected_by_name(self):
        with pytest.raises(IllegalCharacter, match="'\\*\\*'"):
            tokenize("a ** 2")

    def test_stray_character(self):
        with pytest.raises(IllegalCharacter, match="position 4"):
            tokenize("a + $b")

    @pytest.mark.parametrize("source", ["a + 1e999", "a + 1" + "0" * 400])
    def test_overflowing_literal_is_a_syntax_error(self, source):
        with pytest.raises(LiteralOverflow, match="position 4") as err:
            parse_formula(source)
        assert err.value.position == 4

    def test_whitespace_skipped(self):
        assert [t.kind for t in tokenize("  a\t+\n b ")] == ["ident", "+", "ident"]


class TestParse:
    # fixed golden expressions: precedence, grouping, associativity
    GOLDEN = [
        ("a + b * X", Binary("+", Variable("a"), Binary("*", Variable("b"), Variable("X")))),
        ("(a + b) * X", Binary("*", Binary("+", Variable("a"), Variable("b")), Variable("X"))),
        ("a - b - c", Binary("-", Binary("-", Variable("a"), Variable("b")), Variable("c"))),
        ("a / b / c", Binary("/", Binary("/", Variable("a"), Variable("b")), Variable("c"))),
        ("-a * b", Binary("*", Negate(Variable("a")), Variable("b"))),
        ("a + b - c", Binary("-", Binary("+", Variable("a"), Variable("b")), Variable("c"))),
    ]

    @pytest.mark.parametrize("source,expected", GOLDEN)
    def test_golden(self, source, expected):
        assert parse_formula(source) == expected

    def test_unary_minus_literal_folds(self):
        assert parse_formula("-3.5") == NumberLiteral(-3.5)

    def test_truncated_expression(self):
        with pytest.raises(UnexpectedEnd):
            parse(tokenize("alpha + beta *"))

    def test_leftover_tokens(self):
        with pytest.raises(UnexpectedToken):
            parse(tokenize("a b"))

    def test_function_call_rejected(self):
        with pytest.raises(UnexpectedToken, match="function calls are not supported"):
            parse_formula("exp(x)")

    def test_unbalanced_paren(self):
        with pytest.raises(UnexpectedEnd):
            parse_formula("(a + b")

    def test_close_paren_alone(self):
        with pytest.raises(UnexpectedToken):
            parse_formula(")")

    @pytest.mark.parametrize(
        "source, position",
        [
            ("(" * 300 + "a" + ")" * 300, 100),  # the 101st parenthesis
            ("-(" * 300 + "a" + ")" * 300, 100),  # a negation and a parenthesis are a level each
            # "a * X" is 2 levels, so the 99th "+", at 8 * 98 + 6, makes the 101st
            (" + ".join(["a * X"] * 1000), 790),
        ],
        ids=["parentheses", "negations", "sum-of-1000-terms"],
    )
    def test_too_deep_is_a_syntax_error_with_its_position(self, source, position):
        # these used to raise RecursionError, in the parser or in differentiate
        with pytest.raises(FormulaTooDeep) as err:
            parse_formula(source)
        assert isinstance(err.value, FormulaSyntax)
        assert err.value.position == position
        assert str(err.value) == f"formula nests deeper than 100 levels at position {position}"

    def test_deepest_accepted_formula_differentiates_twice(self):
        chain = " + ".join(["a * X"] * 50 + ["a"] * 49)  # a 2-level term and 98 operators: 100 levels
        nested = "(" * 100 + "a * X" + ")" * 100
        for source in (chain, nested):
            slope = differentiate(parse_formula(source), "X")
            assert differentiate(slope, "a") is not None
        with pytest.raises(FormulaTooDeep):
            parse_formula(chain + " + a")
        with pytest.raises(FormulaTooDeep):
            parse_formula("(" + nested + ")")


class TestFreeVars:
    def test_example(self):
        assert free_vars(parse_formula("alpha + beta * X")) == {"alpha", "beta", "X"}

    def test_constant(self):
        assert free_vars(parse_formula("3.0")) == set()

    def test_set_semantics(self):
        assert free_vars(parse_formula("x + x")) == {"x"}


class TestEvaluate:
    def test_linear_mean(self):
        ast = parse_formula("alpha + beta * X")
        assert evaluate(ast, {"alpha": 2.5, "beta": 1.8, "X": 10.0}) == 20.5

    def test_zero_over_zero(self):
        with pytest.raises(NonFiniteResult):
            evaluate(parse_formula("x / x"), {"x": 0.0})

    def test_division_by_zero_scalar(self):
        with pytest.raises(NonFiniteResult):
            evaluate(parse_formula("1 / x"), {"x": 0.0})

    def test_unary_minus(self):
        assert evaluate(parse_formula("-(a)"), {"a": 3.0}) == -3.0

    def test_unbound(self):
        with pytest.raises(UnboundVariable):
            evaluate(parse_formula("a + b"), {"a": 1.0})

    def test_array_env_matches_row_loop(self):
        # broadcasting over a column is exactly a per-row scalar evaluation
        ast = parse_formula("a + b * X / (X + 1) - 2")
        x = np.array([0.0, 1.5, 3.0, 10.0])
        vec = evaluate(ast, {"a": 0.5, "b": 2.0, "X": x})
        rows = [evaluate(ast, {"a": 0.5, "b": 2.0, "X": xi}) for xi in x]
        np.testing.assert_array_equal(vec, np.array(rows))

    def test_intermediate_arrays_freed_on_return(self):
        # with no reference cycle in the walk, refcounting frees them; the collector need not run
        made = []

        class Tracked(np.ndarray):
            def __array_finalize__(self, obj):
                made.append(weakref.ref(self))

        x = np.linspace(1.0, 2.0, 5).view(Tracked)
        made.clear()
        gc.disable()
        try:
            evaluate(parse_formula("a + x / b * x"), {"a": 1.0, "b": 2.0, "x": x})
            assert made and all(ref() is None for ref in made)
        finally:
            gc.enable()

    def test_array_division_by_zero(self):
        with pytest.raises(NonFiniteResult):
            evaluate(parse_formula("1 / X"), {"X": np.array([1.0, 0.0])})


class TestDifferentiate:
    def test_slope_partial(self):
        ast = parse_formula("alpha + beta * X")
        assert differentiate(ast, "beta") == Variable("X")

    def test_intercept_partial(self):
        ast = parse_formula("alpha + beta * X")
        assert differentiate(ast, "alpha") == NumberLiteral(1.0)

    def test_absent_variable(self):
        ast = parse_formula("alpha + beta * X")
        assert differentiate(ast, "y") == NumberLiteral(0.0)

    def test_quotient_rule_value(self):
        ast = parse_formula("a / b")
        d = differentiate(ast, "b")
        # d/db(a/b) = -a/b^2
        assert evaluate(d, {"a": 3.0, "b": 2.0}) == pytest.approx(-0.75)

    def test_partials_share_the_formulas_unchanged_subtrees(self):
        # so one memo across a formula and its partials computes X + tau once
        ast = parse_formula("alpha / (X + tau)")
        shared = ast.right
        d_alpha, d_tau = differentiate(ast, "alpha"), differentiate(ast, "tau")
        assert d_alpha == parse_formula("(X + tau) / ((X + tau) * (X + tau))")
        assert d_alpha.left is shared and d_alpha.right.left is shared and d_tau.right.right is shared
        assert simplify(ast) is ast

    def test_free_vars_shrink(self):
        ast = parse_formula("a + b * X")
        assert free_vars(differentiate(ast, "b")) <= free_vars(ast)

    def test_reciprocal_partials_fold_to_literals(self):
        # the quotient rule gives 0 / (tau * tau) for a parameter absent from X / tau
        ast = parse_formula("alpha + X / tau")
        assert differentiate(ast, "alpha") == NumberLiteral(1.0)
        assert differentiate(ast, "sigma") == NumberLiteral(0.0)
        assert differentiate(ast, "tau") == Binary(
            "/", Negate(Variable("X")), Binary("*", Variable("tau"), Variable("tau"))
        )


class TestSimplifyZeroNumerator:
    def test_zero_over_expression_folds(self):
        assert simplify(parse_formula("0 / tau")) == NumberLiteral(0.0)
        assert simplify(parse_formula("0 / (tau * tau)")) == NumberLiteral(0.0)

    def test_zero_over_literal_zero_stays(self):
        ast = parse_formula("0 / 0")
        assert simplify(ast) == ast

    def test_folded_node_ignores_a_zero_denominator(self):
        # unfolded, 0 / e raises where e is 0; folded, it is 0 there too
        ast = parse_formula("0 / (tau * tau)")
        with pytest.raises(NonFiniteResult):
            evaluate(ast, {"tau": 0.0})
        assert evaluate(simplify(ast), {"tau": 0.0}) == 0.0


def _random_ast(rng, variables, depth):
    kind = rng.integers(0, 4 if depth > 0 else 2)
    if kind == 0:
        return NumberLiteral(float(np.round(rng.uniform(-5, 5), 3)))
    if kind == 1:
        return Variable(str(rng.choice(variables)))
    if kind == 2:
        return Negate(_random_ast(rng, variables, depth - 1))
    op = str(rng.choice(["+", "-", "*", "/"]))
    return Binary(op, _random_ast(rng, variables, depth - 1), _random_ast(rng, variables, depth - 1))


class TestRowFormulas:
    """The rows of the generated density (see :func:`plainbayes.posterior.build_posterior`), the
    factorisation put aside: the mean's n-vector and, on a gradient call, its partials'."""

    X = np.array([1.5, 0.0, -2.0, 4.0])
    Y = np.array([0.5, -1.0, 2.0, 1.0])
    PRIORS = {"a": Normal(mu=0, sigma=2), "b": Normal(mu=1, sigma=3), "s": HalfNormal(sigma=3)}

    def _rows(self, monkeypatch, source, products=None):
        """The posterior of the mean ``source``, noise scale s, over X and Y, summing its rows; a copy
        of the product each of its sums over the rows reduces is appended to ``products``, if given."""
        monkeypatch.setattr(posterior, "_thin_qr", lambda *args: None)
        if products is not None:
            monkeypatch.setattr(posterior, "row_sum", lambda a: products.append(a.copy()) or np.add.reduce(a))
        spec = ModelSpec(priors=self.PRIORS, likelihood=LikelihoodSpec(formula_source=source, noise_param="s"))
        return build_posterior(validate_model(spec, ["X", "y"]), Dataset({"X": self.X, "y": self.Y}))

    def _expected(self, ast, z):
        """The log density at ``z`` with the mean ``evaluate`` gives: the priors' own methods on
        the numpy scalars of ``z``, then the Normal log likelihood of the rows, in the rows' order."""
        transforms = [dist.transform() for dist in self.PRIORS.values()]
        x = [tf.forward(zi) for tf, zi in zip(transforms, z)]
        total = 0.0
        for dist, tf, xi, zi in zip(self.PRIORS.values(), transforms, x, z):
            total += dist.log_pdf(xi) + tf.log_jacobian(zi)
        try:
            mean = evaluate(ast, dict(zip(self.PRIORS, x), X=self.X))
        except NonFiniteResult as exc:
            bad = np.broadcast_to(np.asarray(exc.value, dtype=float), (4,)) if exc.value is not None else None
            expected = NonFiniteDensity(f"likelihood mean is non-finite: {exc}",
                                        row=None if bad is None else int(np.argmin(np.isfinite(bad))))
            return NonFiniteDensity, str(expected), expected.row
        t = (self.Y - mean) / x[2]
        return total + (-0.5 * float(np.add.reduce(t * t)) - 4 * math.log(x[2]) - 0.5 * 4 * math.log(2.0 * math.pi))

    @staticmethod
    def _outcome(fn, z):
        try:
            return fn(z)
        except NonFiniteDensity as exc:
            return type(exc), str(exc), exc.row

    def test_parameter_free_expression_is_its_value(self, monkeypatch):
        # computed once, at build, as a contiguous vector, which every call reads: the mean where a
        # tiny sigma makes t . t overflow and the mean is checked, a partial in each gradient sum
        pf = self._rows(monkeypatch, "2 * X - 1")
        z = np.array([0.5, -0.5, 0.2])
        assert pf.log_density(z) == pf.log_density_and_grad(z)[0] == self._expected(parse_formula("2 * X - 1"), z)
        checked = []
        monkeypatch.setattr(formula, "check_finite", checked.append)
        pf = self._rows(monkeypatch, "2 * X - 1")
        z = np.array([0.5, -0.5, -690.0])
        assert pf.log_density(z) == pf.log_density_and_grad(z)[0] == -math.inf
        assert len(checked) == 2 and checked[0] is checked[1]
        assert checked[0].flags.c_contiguous and checked[0].tolist() == (2 * self.X - 1).tolist()
        products = []  # the partials in a and b are 2 * X - 1 and the literal 1, a scalar at build
        pf = self._rows(monkeypatch, "a * (2 * X - 1) + b", products)
        vectors = [v for v in pf.float_density.__globals__.values() if isinstance(v, np.ndarray) and v.shape == (4,)]
        dmus = [v for v in vectors if v.tolist() in ((2 * self.X - 1).tolist(), [1.0] * 4)]
        assert {1.0, 2.0} <= {dmu[0] for dmu in dmus} and all(dmu.flags.c_contiguous for dmu in dmus)
        for a, b, s in ([0.5, -0.5, 0.2], [1.5, 0.5, 0.0]):
            pf.log_density_and_grad(np.array([a, b, s]))
            sigma = self.PRIORS["s"].transform().forward(np.float64(s))
            t = (self.Y - (np.float64(a) * (2 * self.X - 1) + np.float64(b))) / sigma
            # t . t, then t . d mu / d a and t . d mu / d b, each an elementwise product summed
            assert [p.tobytes() for p in products[-3:]] == [(t * t).tobytes(), (t * (2 * self.X - 1)).tobytes(),
                                                            (t * 1.0).tobytes()]
        assert len(products) == 6
        # a parameter-only partial, d/da of a * a + X, is a + a at each call, a scalar the product broadcasts
        products.clear()
        pf = self._rows(monkeypatch, "a * a + X", products)
        z = np.array([3.0, 0.0, 0.0])
        value, grad = pf.log_density_and_grad(z)
        assert value == self._expected(parse_formula("a * a + X"), z)
        t = self.Y - (np.float64(9.0) + self.X)  # sigma is 1
        assert len(products) == 2 and products[-1].tobytes() == (t * 6.0).tobytes()
        assert grad[0] == -0.75 + float(np.add.reduce(t * 6.0))

    def test_raising_constant_subtree_raises_at_call(self, monkeypatch):
        pf = self._rows(monkeypatch, "a + X / (X * X)")
        for call in (pf.log_density, pf.log_density_and_grad, pf.log_density):
            with pytest.raises(NonFiniteDensity, match=r"non-finite quotient in 'X / \(X \* X\)'") as err:
                call(np.array([1.0, 0.0, 0.0]))
            assert err.value.row == 1  # X = 0 there

    def test_unbound_name_raises_at_build(self, monkeypatch):
        # a model whose mean names neither a prior nor a column it was given
        spec = ModelSpec(priors=self.PRIORS, likelihood=LikelihoodSpec(formula_source="a + c", noise_param="s"))
        data = Dataset({"X": self.X, "y": self.Y})
        with pytest.raises(UnboundVariable):
            build_posterior(ValidatedModel(spec, ()), data)
        monkeypatch.setattr(posterior, "_thin_qr", lambda *args: None)
        with pytest.raises(UnboundVariable):
            build_posterior(ValidatedModel(spec, ()), data)

    def test_raising_partial_gives_no_partials(self, monkeypatch):
        # the mean a is fine and its partial in b divides 0 by b * b = 0: the gradient's concern, not the mean's
        pf = self._rows(monkeypatch, "a * (b / b)")
        z = np.array([0.5, 1e-200, 0.0])
        assert pf.log_density(z) == self._expected(parse_formula("a * (b / b)"), z)
        with pytest.raises(NonFiniteGradient, match="gradient contains non-finite components"):
            pf.log_density_and_grad(z)

    def test_float_quotients_as_numpy_scalars(self):
        # Python floats skip numpy's errstate: the same quotients, and the same errors
        lines, env, let, bind = _emitter()
        name = emit(parse_formula("a / b"), {"a": "a", "b": "b"}, {}, let, bind)
        exec("def divide(a, b):\n" + "".join(f"    {line}\n" for line in lines) + f"    return {name}", env)
        divide = env["divide"]
        rng = np.random.default_rng(8)
        pairs = [(float(a), float(b)) for a, b in rng.normal(scale=1e3, size=(200, 2))]
        pairs += [(1e300, 1e-300), (-1e300, 1e-300), (1e-300, 1e300), (5e-324, 2.0), (0.0, 3.0), (-0.0, -3.0)]
        for a, b in pairs:
            try:
                with np.errstate(over="ignore"):  # which numpy scalars warn of, and Python floats do not
                    expected = divide(np.float64(a), np.float64(b))
            except NonFiniteResult as exc:
                with pytest.raises(NonFiniteResult, match="non-finite quotient") as err:
                    divide(a, b)
                assert err.value.value == exc.value
            else:
                out = divide(a, b)
                assert type(out) is float and np.float64(out).tobytes() == expected.tobytes()
        for a in (0.0, 1.0, -2.0):
            with pytest.raises(NonFiniteResult, match="division by zero"):
                divide(a, 0.0)

    def test_random_asts_match_evaluate(self, monkeypatch):
        # y = 0 and sigma = 1, so that t = (y - mu) / sigma is -mu and the first sum's product, t * t,
        # is the mean's n-vector squared; at sigma = e^-690, where t . t overflows unless the mean is
        # 0, the mean itself, as the density checks it; where the mean raises, its value and row
        monkeypatch.setattr(self, "Y", np.zeros(4))
        rng = np.random.default_rng(99)
        for _ in range(500):
            ast = _random_ast(rng, ["a", "b", "X"], depth=4)
            values = [float(rng.uniform(-3, 3)), 0.0 if rng.random() < 0.2 else float(rng.uniform(-3, 3))]
            z, products = np.array([*values, 0.0]), []
            pf = self._rows(monkeypatch, to_source(ast), products)
            assert self._outcome(pf.log_density, z) == self._expected(ast, z), to_source(ast)
            try:
                mean = np.broadcast_to(evaluate(ast, dict(zip("ab", z), X=self.X)), (4,))
            except NonFiniteResult as exc:
                with pytest.raises(NonFiniteDensity) as err:
                    pf.log_density(z)
                value, other = exc.value, err.value.__context__.value  # raised from None, within the handler
                assert (value is None) == (other is None), to_source(ast)
                if value is not None:
                    assert np.array_equal(np.broadcast_to(value, (4,)), np.broadcast_to(other, (4,)),
                                          equal_nan=True), to_source(ast)
            else:
                assert np.array_equal(products[0], mean * mean), to_source(ast)
                checked = []
                pf.float_density.__globals__["check_finite"] = checked.append
                value = pf.log_density(np.array([*values, -690.0]))
                if mean.any():
                    assert value == -math.inf, to_source(ast)
                    (checked_mean,) = checked  # a scalar where the mean has no column
                    assert np.broadcast_to(checked_mean, (4,)).tobytes() == mean.tobytes(), to_source(ast)
                else:
                    assert not checked, to_source(ast)


def _emitter():
    """(the source lines, the namespace, ``let``, ``bind``) of one straight-line function."""
    env = {}
    lines, let, bind = writer(env)
    return lines, env, let, bind


class TestEmit:
    PARAMS = {"a": "a", "b": "b", "c": "c"}

    @staticmethod
    def _tree(shared):
        return Binary("+", Binary("/", Variable("c"), shared), shared)

    def test_a_shared_subtree_gets_one_local(self):
        shared = parse_formula("a * b - c")
        lines, env, let, bind = _emitter()
        name = emit(self._tree(shared), self.PARAMS, {}, let, bind)
        assert len(lines) == 4  # a * b, - c, c / (...), + (...)
        exec("\n".join(lines), env, values := {"a": 1.5, "b": -2.0, "c": 0.7})
        expected = evaluate(self._tree(shared), {"a": 1.5, "b": -2.0, "c": 0.7})
        assert np.float64(values[name]).tobytes() == np.float64(expected).tobytes()
        # an equal tree whose two copies are distinct nodes: each copy its own locals
        lines, _, let, bind = _emitter()
        emit(Binary("+", Binary("/", Variable("c"), parse_formula("a * b - c")), parse_formula("a * b - c")),
             self.PARAMS, {}, let, bind)
        assert len(lines) == 6

    def test_one_memo_across_calls_reads_earlier_locals(self):
        shared, memo = parse_formula("a * b - c"), {}
        lines, _, let, bind = _emitter()
        first = emit(shared, self.PARAMS, {}, let, bind, memo)
        emit(self._tree(shared), self.PARAMS, {}, let, bind, memo)
        assert len(lines) == 4 and lines[2] == f"t2 = k0(c, {first})"  # the quotient calls its divide
        assert emit(shared, self.PARAMS, {}, let, bind, memo) == first and len(lines) == 4


class TestFiniteDifferenceProperty:
    def test_derivative_matches_central_differences(self):
        rng = np.random.default_rng(2024)
        variables = ["a", "b", "c"]
        checked = 0
        while checked < 300:
            ast = _random_ast(rng, variables, depth=4)
            var = str(rng.choice(variables))
            env = {v: float(rng.uniform(-3, 3)) for v in variables}
            deriv = differentiate(ast, var)
            v = env[var]
            h = 1e-5 * max(1.0, abs(v))
            try:
                # skip envs too close to a division singularity
                for probe in (v - 2 * h, v - h, v, v + h, v + 2 * h):
                    _assert_away_from_singularity(ast, {**env, var: probe})
                f_plus = evaluate(ast, {**env, var: v + h})
                f_minus = evaluate(ast, {**env, var: v - h})
                exact = evaluate(deriv, env)
            except NonFiniteResult:
                continue
            fd = (f_plus - f_minus) / (2 * h)
            scale = max(abs(exact), abs(fd))
            if scale < 1e-6 or scale > 1e6:
                continue  # cancellation noise dominates tiny/huge derivatives
            assert abs(exact - fd) <= 1e-6 * scale + 1e-9, f"{to_source(ast)} d/d{var}"
            checked += 1


def _assert_away_from_singularity(ast, env):
    stack = [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, Negate):
            stack.append(node.child)
        elif isinstance(node, Binary):
            stack += [node.left, node.right]
            if node.op == "/" and abs(evaluate(node.right, env)) < 1e-3:
                raise NonFiniteResult("near-singular denominator")


class TestPrinterRoundTrip:
    def test_examples(self):
        for source in ["a + b * X", "(a + b) * X", "-(a * b)", "a - -b", "1.5e2 / x"]:
            ast = parse_formula(source)
            assert parse_formula(to_source(ast)) == ast

    def test_many_random_asts(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            ast = _random_ast(rng, ["a", "b", "x_1"], depth=5)
            assert parse_formula(to_source(ast)) == ast


_ast_strategy = st.recursive(
    st.one_of(
        st.floats(min_value=-100, max_value=100, allow_nan=False).map(NumberLiteral),
        st.sampled_from(["a", "bb", "x_0"]).map(Variable),
    ),
    lambda children: st.one_of(
        children.map(Negate),
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: Binary(*t)),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_ast_strategy)
def test_round_trip_property(ast):
    assert parse_formula(to_source(ast)) == ast


@settings(max_examples=200, deadline=None)
@given(_ast_strategy, st.sampled_from(["a", "bb", "x_0"]))
def test_differentiate_never_adds_variables(ast, var):
    assert free_vars(differentiate(ast, var)) <= free_vars(ast)
