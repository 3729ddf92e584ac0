"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Everything here is seeded and runs offline (replay fixtures only);
the slow fixtures (full experiment replications) execute once per session.
"""

import json
import math
import socket
import time
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import conftest
from plainbayes.cli import main as cli_main
from plainbayes.data_io import SimConfig, make_rng, simulate_linear, save_csv
from plainbayes.diagnostics import ess_bulk, hdi, split_rhat
from plainbayes.distributions import Exponential, HalfNormal, Normal, Uniform
from plainbayes.errors import (
    FormulaSyntax,
    IllegalCharacter,
    InvalidParamValue,
    MissingKey,
    MissingParam,
    NoiseNotPositiveSupport,
    UnexpectedToken,
    UnknownDistribution,
    UnresolvedVariable,
)
from plainbayes.formula import parse_formula, to_source
from plainbayes.posterior import PosteriorFn, build_posterior
from plainbayes.sampler import SamplerConfig, nuts_sample
from plainbayes.spec_schema import (
    parse_model_json,
    parse_prior_json,
    sanitize_llm_text,
    validate_model,
)

from test_formula import _random_ast
from test_posterior import _random_model_and_data, gradient_check

EXAMPLES = resources.files("plainbayes") / "resources" / "examples"
FIXTURES = Path(str(resources.files("plainbayes") / "resources" / "fixtures"))

DATA_SEED = 42
SAMPLER = ["--chains", "4", "--warmup", "1000", "--draws", "1000", "--seed", "1"]


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    print(f"\n[PASS] criterion {number}: {description}")


def _run(*argv):
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"command failed: {argv}"


def _summary(path) -> dict:
    return json.loads(Path(path).read_text())["parameters"]


@pytest.fixture(scope="module")
def exp1(tmp_path_factory):
    """Experiment replication with elicited priors vs manual baseline priors."""
    out = tmp_path_factory.mktemp("exp1")
    started = time.time()
    _run(
        "run",
        "--beliefs-file", EXAMPLES / "linear_regression_beliefs.json",
        "--compare-model", EXAMPLES / "manual_priors_model.json",
        "--n", "100", "--seed", DATA_SEED,
        "--chains", "4", "--warmup", "1000", "--draws", "1000",
        "--out-dir", out,
    )
    elapsed = time.time() - started
    return {
        "dir": out,
        "elapsed": elapsed,
        "llm": _summary(out / "summary.json"),
        "manual": _summary(out / "compare_summary.json"),
    }


@pytest.fixture(scope="module")
def exp2(exp1, tmp_path_factory):
    """Fully automated replication: description -> model -> fit, same dataset."""
    out = tmp_path_factory.mktemp("exp2")
    _run(
        "run",
        "--description-file", EXAMPLES / "linear_regression_description.txt",
        "--data", exp1["dir"] / "data.csv",
        *SAMPLER,
        "--out-dir", out,
    )
    return {"dir": out, "summary": _summary(out / "summary.json")}


def _check_replication_bands(rows: dict, label: str):
    beta, sigma = rows["beta"], rows["sigma"]
    assert abs(beta["mean"] - 1.8) <= 0.15, f"{label}: beta mean {beta['mean']}"
    assert 0.03 <= beta["sd"] <= 0.08, f"{label}: beta sd {beta['sd']}"
    assert 12.5 <= sigma["mean"] <= 17.5, f"{label}: sigma mean {sigma['mean']}"
    for name, row in rows.items():
        assert row["r_hat"] <= 1.01, f"{label}: r_hat({name}) = {row['r_hat']}"
        assert row["ess_bulk"] >= 400, f"{label}: ess_bulk({name}) = {row['ess_bulk']}"


class TestCriterion1:
    def test_experiment_one_replication(self, exp1):
        with criterion(1, "experiment-one replication bands for both prior choices"):
            _check_replication_bands(exp1["llm"], "llm-priors")
            _check_replication_bands(exp1["manual"], "manual-priors")
            assert exp1["elapsed"] <= 120.0, f"runtime {exp1['elapsed']:.1f}s > 2 minutes"


class TestCriterion2:
    def test_prior_insensitivity(self, exp1):
        with criterion(2, "posterior insensitivity to manual vs elicited priors"):
            d_beta = abs(exp1["manual"]["beta"]["mean"] - exp1["llm"]["beta"]["mean"])
            d_sigma = abs(exp1["manual"]["sigma"]["mean"] - exp1["llm"]["sigma"]["mean"])
            assert d_beta <= 0.02, f"beta means differ by {d_beta}"
            assert d_sigma <= 0.3, f"sigma means differ by {d_sigma}"


class TestCriterion3:
    EXPECTED_PRIORS = {
        "alpha": Uniform(lower=-25.0, upper=25.0),
        "beta": Exponential(lam=0.5),
        "sigma": HalfNormal(sigma=15.0),
    }

    def test_fully_automated_pipeline(self, exp2):
        with criterion(3, "fully automated replication from the narrative description"):
            spec = parse_model_json((exp2["dir"] / "model.json").read_text())
            assert dict(spec.priors) == self.EXPECTED_PRIORS
            assert spec.likelihood.formula_source == "alpha + beta * X"
            assert spec.likelihood.noise_param == "sigma"
            _check_replication_bands(exp2["summary"], "automated")


class TestCriterion4:
    """Known-sigma linear regression: NUTS vs the closed-form posterior."""

    @staticmethod
    def _problem(rng, n):
        x = rng.uniform(-2, 3, n)
        design = np.column_stack([np.ones(n), x])
        sigma = float(rng.uniform(0.5, 3.0))
        prior_mean = rng.uniform(-2, 2, 2)
        prior_sd = rng.uniform(0.5, 5.0, 2)
        truth = prior_mean + prior_sd * rng.standard_normal(2)
        y = design @ truth + sigma * rng.standard_normal(n)
        precision = np.diag(1.0 / prior_sd**2) + design.T @ design / sigma**2
        covariance = np.linalg.inv(precision)
        post_mean = covariance @ (prior_mean / prior_sd**2 + design.T @ y / sigma**2)

        def vag(z):
            resid = y - design @ z
            logp = (
                -0.5 * float(np.sum(((z - prior_mean) / prior_sd) ** 2))
                - 0.5 * float(np.dot(resid, resid)) / sigma**2
            )
            grad = -(z - prior_mean) / prior_sd**2 + design.T @ resid / sigma**2
            return logp, grad

        pf = PosteriorFn(param_names=["intercept", "slope"], log_density_and_grad=vag)
        return pf, post_mean, np.sqrt(np.diag(covariance))

    def test_conjugate_oracle(self):
        with criterion(4, "conjugate closed-form oracle on 5 random configurations"):
            for case, n in enumerate([10, 100, 10, 100, 100]):
                rng = np.random.default_rng(900 + case)
                pf, post_mean, post_sd = self._problem(rng, n)
                trace = nuts_sample(
                    pf, SamplerConfig(chains=4, warmup_draws=800, kept_draws=1000, seed=60 + case)
                )
                for i, name in enumerate(pf.param_names):
                    draws = trace.pooled(name)
                    mcse = post_sd[i] / math.sqrt(ess_bulk(trace.chains_for(name)))
                    assert abs(draws.mean() - post_mean[i]) <= 3 * mcse, (case, name)
                    assert abs(draws.std(ddof=1) - post_sd[i]) <= 0.1 * post_sd[i], (case, name)


GRID_DATA_SEED = 11


class TestCriterion5:
    """120^3 grid evaluation of the unnormalized posterior (scipy densities)."""

    @staticmethod
    def _grid_marginal_means(data):
        x, y = data.columns["X"], data.columns["y"]
        n = data.n_rows
        design = np.column_stack([np.ones(n), x])
        coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        sigma_hat = math.sqrt(float(resid @ resid) / (n - 2))
        cov = sigma_hat**2 * np.linalg.inv(design.T @ design)
        se = np.sqrt(np.diag(cov))

        alphas = np.linspace(max(-25.0, coef[0] - 10 * se[0]), min(25.0, coef[0] + 10 * se[0]), 120)
        betas = np.linspace(max(1e-9, coef[1] - 10 * se[1]), coef[1] + 10 * se[1], 120)
        sigmas = np.linspace(sigma_hat / 4, sigma_hat * 4, 120)

        log_prior_a = stats.uniform.logpdf(alphas, loc=-25, scale=50)
        log_prior_b = stats.expon.logpdf(betas, scale=1 / 0.5)
        log_prior_s = stats.halfnorm.logpdf(sigmas, scale=15)

        # residual sums over the (alpha, beta) plane, then broadcast over sigma
        r = y[None, None, :] - alphas[:, None, None] - betas[None, :, None] * x[None, None, :]
        sse = np.sum(r * r, axis=2)  # (120, 120)
        loglik = (
            -0.5 * sse[:, :, None] / sigmas[None, None, :] ** 2
            - n * np.log(sigmas)[None, None, :]
            - 0.5 * n * math.log(2 * math.pi)
        )
        logpost = (
            loglik
            + log_prior_a[:, None, None]
            + log_prior_b[None, :, None]
            + log_prior_s[None, None, :]
        )
        w = np.exp(logpost - logpost.max())
        total = w.sum()
        return {
            "alpha": float((w.sum(axis=(1, 2)) * alphas).sum() / total),
            "beta": float((w.sum(axis=(0, 2)) * betas).sum() / total),
            "sigma": float((w.sum(axis=(0, 1)) * sigmas).sum() / total),
        }

    def test_grid_oracle(self):
        with criterion(5, "marginal means vs a 120^3 grid quadrature (n=20)"):
            data = simulate_linear(SimConfig(alpha=2.5, beta=1.8, sigma=15.0, n=20, seed=GRID_DATA_SEED))
            grid_means = self._grid_marginal_means(data)

            spec = parse_model_json(conftest.EXPERIMENT_MODEL_JSON)
            pf = build_posterior(validate_model(spec, data.column_names()), data)
            trace = nuts_sample(pf, SamplerConfig(chains=4, warmup_draws=1000, kept_draws=2000, seed=3))
            for name in ("alpha", "beta", "sigma"):
                mcmc_mean = float(trace.pooled(name).mean())
                rel = abs(mcmc_mean - grid_means[name]) / abs(grid_means[name])
                assert rel <= 0.05, f"{name}: grid {grid_means[name]:.4f} vs mcmc {mcmc_mean:.4f}"


class TestCriterion6:
    def test_gradient_suite(self):
        with criterion(6, "gradients vs central differences on 100 random models"):
            rng = np.random.default_rng(2718)
            for _ in range(100):
                spec, data = _random_model_and_data(rng)
                vm = validate_model(spec, data.column_names())
                pf = build_posterior(vm, data)
                gradient_check(pf, rng.normal(scale=0.8, size=pf.dimension))


class TestCriterion7:
    def test_diagnostics_calibration(self):
        with criterion(7, "diagnostics calibration: r_hat, ess_bulk, hdi"):
            iid = make_rng(123).standard_normal((4, 1000))
            assert 0.99 <= split_rhat(iid) <= 1.01
            assert 3200 <= ess_bulk(iid) <= 4400

            rng = make_rng(42)
            phi, scale = 0.9, math.sqrt(1 - 0.9**2)
            ar = np.empty((4, 1000))
            for c in range(4):
                value = rng.standard_normal()
                for t in range(1000):
                    value = phi * value + scale * rng.standard_normal()
                    ar[c, t] = value
            assert 130 <= ess_bulk(ar) <= 350

            low, high = hdi(make_rng(201).standard_normal(100_000), 0.94)
            assert abs(low - (-1.88)) <= 0.05 and abs(high - 1.88) <= 0.05

            rng = make_rng(4)
            split = np.vstack([rng.standard_normal((1, 1000)), 5.0 + rng.standard_normal((1, 1000))])
            assert split_rhat(split) > 2.0


class TestCriterion8:
    GOLDEN = [
        ("a + b * X", "a + b * X"),
        ("(a + b) * X", "(a + b) * X"),
        ("a - b - c", "a - b - c"),
        ("a / b / c", "a / b / c"),
        ("-a * b", "-a * b"),
        ("a + b * c - d", "a + b * c - d"),
    ]

    def test_parser_suite(self):
        with criterion(8, "parser goldens, 10^4 round-trips, loud rejections"):
            for source, canonical in self.GOLDEN:
                assert to_source(parse_formula(source)) == canonical
            # associativity/precedence shape checks
            from plainbayes.formula import Binary, Variable

            assert parse_formula("a - b - c") == Binary(
                "-", Binary("-", Variable("a"), Variable("b")), Variable("c")
            )
            assert parse_formula("a + b * X") == Binary(
                "+", Variable("a"), Binary("*", Variable("b"), Variable("X"))
            )

            rng = np.random.default_rng(31337)
            for _ in range(10_000):
                ast = _random_ast(rng, ["a", "b", "x"], depth=4)
                assert parse_formula(to_source(ast)) == ast

            with pytest.raises(IllegalCharacter) as err:
                parse_formula("a ^ 2")
            assert err.value.position == 2
            with pytest.raises(IllegalCharacter) as err:
                parse_formula("a ** 2")
            assert err.value.position == 2
            with pytest.raises(UnexpectedToken) as err:
                parse_formula("exp(a) + b")
            assert err.value.position == 3


class TestCriterion9:
    MUTATIONS = [
        # (kind, payload, expected error)
        ("model", '{"likelihood": {"distribution": "Normal", "formula": "a"}}', MissingKey),
        ("model", '{"priors": {}}', MissingKey),
        ("prior", '{"distribution": "Cauchy", "params": {"x0": 0}}', UnknownDistribution),
        ("prior", '{"distribution": "Normal", "params": {"mu": 0, "sigma": 0}}', InvalidParamValue),
        ("prior", '{"distribution": "Uniform", "params": {"lower": 3, "upper": -3}}', InvalidParamValue),
        ("prior", '{"distribution": "Normal", "params": {"mu": 0}}', MissingParam),
        ("prior", '{"distribution": "Normal", "params": {"param1": 0, "param2": 1}}', MissingParam),
        ("model", '{"priors": {"s": {"distribution": "HalfNormal", "params": {"sigma": 1}}},'
                  ' "likelihood": {"distribution": "Poisson", "formula": "s"}}', UnknownDistribution),
        ("model", '{"priors": {"s": {"distribution": "HalfNormal", "params": {"sigma": 1}}},'
                  ' "likelihood": {"distribution": "Normal", "formula": "s +"}}', FormulaSyntax),
        ("validate", '{"priors": {"a": {"distribution": "Normal", "params": {"mu": 0, "sigma": 1}},'
                     ' "sigma": {"distribution": "HalfNormal", "params": {"sigma": 1}}},'
                     ' "likelihood": {"distribution": "Normal", "formula": "a + missing * X"}}', UnresolvedVariable),
        ("validate", '{"priors": {"a": {"distribution": "Normal", "params": {"mu": 0, "sigma": 1}},'
                     ' "sigma": {"distribution": "Normal", "params": {"mu": 1, "sigma": 1}}},'
                     ' "likelihood": {"distribution": "Normal", "formula": "a"}}', NoiseNotPositiveSupport),
    ]

    def test_schema_robustness(self):
        with criterion(9, "all shipped fixtures parse; wrapped variants; 11 mutations"):
            fixture_files = sorted(FIXTURES.glob("*.json"))
            assert len(fixture_files) == 4
            parsed_models = parsed_priors = 0
            for path in fixture_files:
                response = json.loads(path.read_text())["response_text"]
                text = sanitize_llm_text(response)
                try:
                    parse_model_json(text)
                    parsed_models += 1
                except MissingKey:
                    parse_prior_json(text)
                    parsed_priors += 1
            assert parsed_models == 1 and parsed_priors == 3

            plain = '{"distribution": "Normal", "params": {"mu": 2, "sigma": 1}}'
            for wrapped in (
                plain,
                f"```json\n{plain}\n```",
                f"Sure! Here is the JSON you asked for:\n\n{plain}\n\nLet me know if that helps.",
                f"```\n{plain}\n```",
            ):
                _, spec = parse_prior_json(sanitize_llm_text(wrapped))
                assert spec == Normal(mu=2.0, sigma=1.0)

            for kind, payload, expected in self.MUTATIONS:
                with pytest.raises(expected):
                    if kind == "prior":
                        parse_prior_json(payload)
                    elif kind == "model":
                        parse_model_json(payload)
                    else:
                        validate_model(parse_model_json(payload), {"X", "y"})


class TestCriterion10:
    def test_offline_guarantee(self, tmp_path):
        with criterion(10, "entire replay pipeline runs with sockets disabled"):
            assert conftest.NETWORK_BLOCKED["active"]
            with pytest.raises(RuntimeError, match="network access"):
                socket.create_connection(("example.com", 443))

            data = simulate_linear(SimConfig(alpha=2.5, beta=1.8, sigma=15.0, n=30, seed=5))
            data_path = tmp_path / "offline.csv"
            save_csv(data, data_path)
            out = tmp_path / "offline_run"
            _run(
                "run",
                "--description-file", EXAMPLES / "linear_regression_description.txt",
                "--data", data_path,
                "--chains", "2", "--warmup", "200", "--draws", "150",
                "--out-dir", out,
            )
            assert (out / "summary.json").exists()
