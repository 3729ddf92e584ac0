import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats

from plainbayes.data_io import Dataset, SimConfig, simulate_linear
from plainbayes.distributions import LogisticIntervalTransform
from plainbayes.errors import AllDivergent, BadInitialPoint, MalformedTrace, NonFiniteDensity, SamplerError
from plainbayes.posterior import PosteriorFn, build_posterior
from plainbayes.sampler import (
    SamplerConfig,
    Trace,
    _adaptation_windows,
    load_trace,
    nuts_sample,
    rwm_sample,
    save_trace,
)
from plainbayes.diagnostics import ess_bulk, split_rhat
from plainbayes.spec_schema import parse_model_json, validate_model


def std_normal_posterior(dim):
    def vag(z):
        return -0.5 * float(np.dot(z, z)), -z

    return PosteriorFn(
        param_names=[f"x{i}" for i in range(dim)],
        log_density_and_grad=vag,
        log_density=lambda z: -0.5 * float(np.dot(z, z)),
    )


class TestConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.chains == 4 and cfg.warmup_draws == 1000 and cfg.kept_draws == 1000
        assert cfg.target_accept == 0.8 and cfg.max_tree_depth == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "hmc"},
            {"chains": 0},
            {"kept_draws": 0},
            {"target_accept": 1.0},
            {"step_size_init": 0.0},
            {"seed": -1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(SamplerError):
            SamplerConfig(**kwargs)


class TestAdaptationWindows:
    def test_standard_schedule(self):
        assert _adaptation_windows(1000) == [(75, 100), (100, 150), (150, 250), (250, 450), (450, 950)]

    def test_too_short_for_windows(self):
        assert _adaptation_windows(100) == []

    def test_windows_cover_middle_exactly_once(self):
        for warmup in (150, 400, 777, 1000, 3000):
            windows = _adaptation_windows(warmup)
            if not windows:
                continue
            assert windows[0][0] == 75
            assert windows[-1][1] == warmup - 50
            for (a, b), (c, d) in zip(windows, windows[1:]):
                assert b == c and a < b


_STD_NORMAL_CFG = SamplerConfig(chains=4, warmup_draws=1000, kept_draws=1000, seed=7)


@pytest.fixture(scope="module")
def std_normal_trace():
    return nuts_sample(std_normal_posterior(3), _STD_NORMAL_CFG)


class TestNutsOnStandardNormal:
    cfg = _STD_NORMAL_CFG

    @pytest.fixture()
    def trace(self, std_normal_trace):
        return std_normal_trace

    def test_moments(self, trace):
        pooled = trace.draws.reshape(-1, 3)
        assert np.all(np.abs(pooled.mean(axis=0)) < 0.05)
        assert np.all(np.abs(pooled.std(axis=0, ddof=1) - 1.0) < 0.05)

    def test_accept_stat_near_target(self, trace):
        mean_accept = float(trace.stats["accept_prob"].mean())
        assert abs(mean_accept - self.cfg.target_accept) <= 0.1

    def test_chain_exchangeability(self, trace):
        for name in trace.param_names:
            assert split_rhat(trace.chains_for(name)) <= 1.01

    def test_no_divergences(self, trace):
        assert int(trace.stats["divergent"].sum()) == 0

    def test_deterministic(self, trace):
        again = nuts_sample(std_normal_posterior(3), self.cfg)
        assert np.array_equal(trace.draws, again.draws)
        for key in trace.stats:
            assert np.array_equal(trace.stats[key], again.stats[key])

    def test_detailed_balance_smoke(self):
        # 1-D standard normal; KS of pooled draws vs analytic CDF at 1e4
        # effective draws
        cfg = SamplerConfig(chains=4, warmup_draws=800, kept_draws=6000, seed=17)
        trace = nuts_sample(std_normal_posterior(1), cfg)
        pooled = trace.pooled("x0")
        n_eff = ess_bulk(trace.chains_for("x0"))
        statistic = stats.kstest(pooled, stats.norm.cdf).statistic
        assert n_eff >= 1e4
        assert statistic < 1.9495 / math.sqrt(1e4)


class TestRwm:
    def test_standard_normal_means(self):
        cfg = SamplerConfig(algorithm="rwm", chains=4, warmup_draws=1000, kept_draws=2000, seed=3)
        trace = rwm_sample(std_normal_posterior(3), cfg)
        pooled = trace.draws.reshape(-1, 3)
        assert np.all(np.abs(pooled.mean(axis=0)) < 0.1)

    def test_uniform_prior_support(self):
        # degenerate 1-D target: Uniform(-2, 5) prior alone
        tf = LogisticIntervalTransform(-2.0, 5.0)

        def vag(z):
            return tf.log_jacobian(float(z[0])) - math.log(7.0), np.array([tf.dlog_jacobian_dz(float(z[0]))])

        pf = PosteriorFn(
            param_names=["u"],
            log_density_and_grad=vag,
            transforms=[tf],
        )
        cfg = SamplerConfig(algorithm="rwm", chains=2, warmup_draws=300, kept_draws=500, seed=5)
        trace = rwm_sample(pf, cfg)
        draws = trace.pooled("u")
        assert draws.min() >= -2.0 and draws.max() <= 5.0

    def test_deterministic(self):
        cfg = SamplerConfig(algorithm="rwm", chains=2, warmup_draws=200, kept_draws=300, seed=8)
        a = rwm_sample(std_normal_posterior(2), cfg)
        b = rwm_sample(std_normal_posterior(2), cfg)
        assert np.array_equal(a.draws, b.draws)

    def test_acceptance_fraction_near_rwm_target(self):
        cfg = SamplerConfig(algorithm="rwm", chains=4, warmup_draws=2000, kept_draws=2000, seed=9)
        trace = rwm_sample(std_normal_posterior(3), cfg)
        assert abs(float(trace.stats["step_accepted"].mean()) - 0.234) < 0.1


@pytest.fixture(scope="module")
def experiment_trace(experiment_dataset, experiment_model):
    pf = build_posterior(experiment_model, experiment_dataset)
    return nuts_sample(pf, SamplerConfig(chains=4, warmup_draws=1000, kept_draws=1000, seed=1))


class TestExperimentPosterior:
    @pytest.fixture()
    def trace(self, experiment_trace):
        return experiment_trace

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_support_invariant(self, trace):
        alpha = trace.pooled("alpha")
        beta = trace.pooled("beta")
        sigma = trace.pooled("sigma")
        assert np.all((alpha >= -25.0) & (alpha <= 25.0))
        assert np.all(beta > 0)
        assert np.all(sigma > 0)
        assert np.all(np.isfinite(trace.draws))

    def test_slope_recovered(self, trace):
        assert abs(trace.pooled("beta").mean() - 1.8) < 0.15


class TestConjugateOracle:
    """Known-sigma Bayesian linear regression has a closed-form posterior."""

    @staticmethod
    def _make_problem(rng, n):
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

    @pytest.mark.parametrize("case,n", [(0, 10), (1, 100)])
    def test_nuts_matches_closed_form(self, case, n):
        rng = np.random.default_rng(500 + case)
        pf, post_mean, post_sd = self._make_problem(rng, n)
        trace = nuts_sample(pf, SamplerConfig(chains=4, warmup_draws=800, kept_draws=1000, seed=37 + case))
        for i, name in enumerate(pf.param_names):
            draws = trace.pooled(name)
            mcse = post_sd[i] / math.sqrt(ess_bulk(trace.chains_for(name)))
            assert abs(draws.mean() - post_mean[i]) <= 3 * mcse
            assert abs(draws.std(ddof=1) - post_sd[i]) <= 0.1 * post_sd[i]


class TestNonFiniteGradient:
    def test_propagates_with_offending_point(self):
        from plainbayes.errors import NonFiniteGradient

        def vag(z):
            if abs(float(z[0])) > 0.5:
                raise NonFiniteGradient("gradient contains non-finite components", z=z)
            return -0.5 * float(np.dot(z, z)), -z

        pf = PosteriorFn(param_names=["a"], log_density_and_grad=vag)
        with pytest.raises(NonFiniteGradient, match="z="):
            nuts_sample(pf, SamplerConfig(chains=1, warmup_draws=50, kept_draws=10, seed=0))


class TestBadInitialPoint:
    @pytest.mark.parametrize("sample", [nuts_sample, rwm_sample])
    def test_no_finite_start_raises(self, sample):
        pf = PosteriorFn(
            param_names=["a", "b"],
            log_density_and_grad=lambda z: (-math.inf, np.zeros_like(z)),
            log_density=lambda z: -math.inf,
        )
        with pytest.raises(BadInitialPoint, match="100 jittered"):
            sample(pf, SamplerConfig(chains=1, warmup_draws=10, kept_draws=10, seed=0))


class TestNonFiniteDensity:
    RATIO_MODEL = """
    {"priors": {"alpha": {"distribution": "Normal", "params": {"mu": 0, "sigma": 25}},
                "tau": {"distribution": "Exponential", "params": {"lam": 1}},
                "sigma": {"distribution": "HalfNormal", "params": {"sigma": 25}}},
     "likelihood": {"distribution": "Normal", "formula": "alpha + X / tau"}}
    """

    def test_underflowing_divisor_is_rejected(self):
        # the step-size search drives tau = exp(z) to 0, where X / tau is not finite
        data = simulate_linear(SimConfig(alpha=2.5, beta=1.8, sigma=15.0, n=2000, seed=7))
        model = validate_model(parse_model_json(self.RATIO_MODEL), data.column_names())
        pf = build_posterior(model, data)
        trace = nuts_sample(pf, SamplerConfig(chains=1, warmup_draws=20, kept_draws=10, seed=8))
        assert np.all(np.isfinite(trace.draws))

    def test_rwm_rejects_nonfinite_proposal(self):
        def value(z):
            if abs(float(z[0])) > 1.0:
                raise NonFiniteDensity("outside the box")
            return -0.5 * float(z[0]) ** 2

        pf = PosteriorFn(param_names=["a"], log_density_and_grad=None, log_density=value)
        trace = rwm_sample(pf, SamplerConfig(algorithm="rwm", chains=2, warmup_draws=200, kept_draws=200, seed=3))
        assert np.all(np.abs(trace.draws) <= 1.0)
        assert not np.all(trace.stats["step_accepted"])

    @pytest.mark.parametrize("sample", [nuts_sample, rwm_sample])
    def test_initial_point_still_raises_with_row(self, sample):
        # alpha / X is not finite on the X = 0 row at every point
        spec = parse_model_json(
            '{"priors": {"alpha": {"distribution": "Normal", "params": {"mu": 0, "sigma": 1}},'
            ' "sigma": {"distribution": "HalfNormal", "params": {"sigma": 1}}},'
            ' "likelihood": {"distribution": "Normal", "formula": "alpha / X"}}'
        )
        data = Dataset({"X": np.array([1.0, 0.0]), "y": np.array([0.0, 0.0])})
        pf = build_posterior(validate_model(spec, data.column_names()), data)
        with pytest.raises(NonFiniteDensity) as err:
            sample(pf, SamplerConfig(chains=1, warmup_draws=10, kept_draws=10, seed=0))
        assert err.value.row == 1


class TestAllDivergent:
    def test_raised_when_most_transitions_diverge(self):
        # density is flat inside the unit box and "falls off a cliff" outside;
        # with no warmup the initial (large) step size always exits the box
        def vag(z):
            if np.all(np.abs(z) < 1.0):
                return 0.0, np.zeros_like(z)
            return -math.inf, np.zeros_like(z)

        pf = PosteriorFn(param_names=["a"], log_density_and_grad=vag)
        cfg = SamplerConfig(chains=2, warmup_draws=0, kept_draws=50, seed=2)
        with pytest.raises(AllDivergent):
            nuts_sample(pf, cfg)


def _reference_save_trace(trace, csv_path, stats_path=None):
    """``save_trace`` as it was before its fast path: one ``repr`` per cell and
    ``json.dump(indent=2)``.  The fast path must write the same bytes."""
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["chain", "draw"] + list(trace.param_names)) + "\n")
        for c in range(trace.n_chains):
            for d in range(trace.n_draws):
                cells = [str(c), str(d)] + [repr(float(v)) for v in trace.draws[c, d]]
                fh.write(",".join(cells) + "\n")
    if stats_path is not None:

        def scalar(v):
            if isinstance(v, (np.bool_, bool)):
                return bool(v)
            if isinstance(v, (np.integer, int)):
                return int(v)
            return float(v)

        payload = {
            "param_names": list(trace.param_names),
            "config": dataclasses.asdict(trace.config) if trace.config is not None else None,
            "stats": {name: [[scalar(v) for v in chain] for chain in values] for name, values in trace.stats.items()},
        }
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)


_EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, -1e-300, 0.1, 1.0 / 3.0]


def _edge_trace(config):
    rng = np.random.default_rng(4)
    draws = rng.choice(_EDGE_VALUES, size=(3, 40, 2))
    draws[:, 10:20] = draws[:, 9:10]  # a run of repeated rows
    draws[1, 21], draws[1, 22] = [0.0, 1.0], [-0.0, 1.0]  # equal as floats, not as text
    draws[2, 30:33] = [math.nan, 5e-324]
    stats = {
        "accept_prob": rng.choice(_EDGE_VALUES, size=(3, 40)),
        "tree_depth": rng.integers(0, 2**40, size=(3, 40), dtype=np.int64),
        "divergent": rng.random((3, 40)) < 0.5,
    }
    return Trace(param_names=["a", "b"], draws=draws, stats=stats, config=config)


class TestTraceSerialization:
    @pytest.mark.parametrize(
        "make_trace",
        [
            lambda: _edge_trace(SamplerConfig(algorithm="rwm", chains=3, kept_draws=40, seed=7)),
            lambda: _edge_trace(None),
            lambda: Trace(param_names=["x"], draws=np.arange(6.0).reshape(2, 3, 1), stats={}),
            lambda: Trace(param_names=["x"], draws=np.full((1, 1, 1), -0.0), stats={"n": np.array([[3]])}),
            lambda: rwm_sample(  # rejections repeat rows
                std_normal_posterior(3), SamplerConfig(algorithm="rwm", chains=2, warmup_draws=100, kept_draws=300, seed=3)
            ),
        ],
        ids=["edge-values", "no-config", "no-stats", "one-draw", "rwm-run"],
    )
    def test_same_bytes_as_reference_writer(self, tmp_path, make_trace):
        trace = make_trace()
        save_trace(trace, tmp_path / "fast.csv", tmp_path / "fast.json")
        _reference_save_trace(trace, tmp_path / "ref.csv", tmp_path / "ref.json")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_round_trip_bit_exact(self, tmp_path):
        cfg = SamplerConfig(chains=3, warmup_draws=150, kept_draws=80, seed=13)
        trace = nuts_sample(std_normal_posterior(2), cfg)
        csv_path = tmp_path / "trace.csv"
        stats_path = tmp_path / "stats.json"
        save_trace(trace, csv_path, stats_path)
        loaded = load_trace(csv_path, stats_path)
        assert loaded.param_names == trace.param_names
        assert np.array_equal(loaded.draws, trace.draws)
        assert loaded.config == trace.config
        for key, values in trace.stats.items():
            assert np.array_equal(np.asarray(loaded.stats[key]), np.asarray(values))

    def test_header_contract(self, tmp_path):
        trace = Trace(
            param_names=["a", "b"],
            draws=np.arange(12, dtype=float).reshape(2, 3, 2),
            stats={},
        )
        path = tmp_path / "t.csv"
        save_trace(trace, path)
        first = path.read_text().splitlines()[0]
        assert first == "chain,draw,a,b"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MalformedTrace):
            load_trace(path)

    @pytest.mark.parametrize("bad_row", ["-2,0,1.0", "0,-1,1.0"])
    def test_negative_ids_rejected(self, tmp_path, bad_row):
        # negative indexing would map -2 onto chain 0 and load a 2 x 2 trace
        path = tmp_path / "t.csv"
        path.write_text(f"chain,draw,a\n{bad_row}\n0,1,2.0\n1,0,3.0\n1,1,4.0\n")
        with pytest.raises(MalformedTrace, match=r"t\.csv:2: negative"):
            load_trace(path)

    @pytest.mark.parametrize(
        "payload",
        [
            {"param_names": ["a"], "config": {"chains": 2, "thinning": 2}, "stats": {}},
            {"param_names": ["a"], "config": [1, 2], "stats": {}},
            ["a"],
            {"param_names": ["a"], "stats": [1, 2]},
        ],
        ids=["unknown-config-key", "config-not-object", "payload-not-object", "stats-not-object"],
    )
    def test_malformed_sidecar_rejected(self, tmp_path, payload):
        trace = Trace(param_names=["a"], draws=np.zeros((2, 3, 1)), stats={})
        csv_path, stats_path = tmp_path / "t.csv", tmp_path / "stats.json"
        save_trace(trace, csv_path)
        stats_path.write_text(json.dumps(payload))
        with pytest.raises(MalformedTrace, match="stats.json"):
            load_trace(csv_path, stats_path)

    def test_sidecar_not_json_rejected(self, tmp_path):
        trace = Trace(param_names=["a"], draws=np.zeros((2, 3, 1)), stats={})
        csv_path, stats_path = tmp_path / "t.csv", tmp_path / "stats.json"
        save_trace(trace, csv_path)
        stats_path.write_text('{"stats": ')
        with pytest.raises(MalformedTrace, match="stats.json: not valid JSON"):
            load_trace(csv_path, stats_path)
