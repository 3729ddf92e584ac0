import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import plainbayes
from plainbayes import sampler
from plainbayes.data_io import Dataset, SimConfig, make_rng, simulate_linear
from plainbayes.distributions import LogisticIntervalTransform
from plainbayes.errors import (
    AllDivergent,
    BadInitialPoint,
    DimensionMismatch,
    MalformedTrace,
    NonFiniteDensity,
    NonFiniteGradient,
    SamplerError,
)
from plainbayes.posterior import PosteriorFn, build_posterior
from plainbayes.sampler import (
    SamplerConfig,
    Trace,
    _adaptation_windows,
    load_trace,
    nuts_sample,
    rwm_sample,
    save_trace,
    worker_count,
)
from plainbayes.diagnostics import ess_bulk, split_rhat
from plainbayes.spec_schema import parse_model_json, validate_model

from conftest import EXPERIMENT_MODEL_JSON


def _std_normal_vag(z):
    return -0.5 * float(np.dot(z, z)), -z


def _floats(vag, dim):
    """The float entry, ``float_density``, of a posterior built from the array callable ``vag``."""
    return PosteriorFn([f"x{i}" for i in range(dim)], vag).float_density


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
            {"step_size_init": math.inf},
            {"seed": -1},
            {"seed": 2**128},
            {"warmup_draws": -1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(SamplerError):
            SamplerConfig(**kwargs)

    def test_largest_seeds_for_the_chains(self):
        cfg = SamplerConfig(seed=2**128 - 1, chains=4, warmup_draws=0, kept_draws=5)
        assert nuts_sample(std_normal_posterior(1), cfg, jobs=1).draws.shape == (4, 5, 1)


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
        # 1-D standard normal; KS of pooled draws vs analytic CDF at the 0.1%
        # level for the draws' effective sample size
        cfg = SamplerConfig(chains=4, warmup_draws=800, kept_draws=6000, seed=17)
        trace = nuts_sample(std_normal_posterior(1), cfg)
        pooled = trace.pooled("x0")
        n_eff = ess_bulk(trace.chains_for("x0"))
        statistic = stats.kstest(pooled, stats.norm.cdf).statistic
        assert statistic < 1.9495 / math.sqrt(n_eff)


class TestDenseMetric:
    def test_correlated_gaussian(self):
        # alpha and beta of the demo regression correlate at -0.88, which a
        # diagonal metric cannot absorb (about 1 500 ESS from 51 000 gradients here)
        cov = np.array([[1.0, -0.88, 0.0], [-0.88, 1.0, 0.0], [0.0, 0.0, 1.0]])
        precision = np.linalg.inv(cov)
        evaluations = []

        def vag(z):
            evaluations.append(1)
            grad = -np.dot(precision, z)
            return 0.5 * float(np.dot(z, grad)), grad

        pf = PosteriorFn(param_names=["a", "b", "c"], log_density_and_grad=vag)
        trace = nuts_sample(pf, SamplerConfig(chains=4, warmup_draws=1000, kept_draws=1000, seed=0), jobs=1)
        assert min(ess_bulk(trace.chains_for(name)) for name in trace.param_names) >= 3000
        assert len(evaluations) <= 35_000

    def test_metric_factors(self):
        inv_mass = np.array([[2.0, -0.9, 0.1], [-0.9, 1.0, 0.0], [0.1, 0.0, 0.5]])
        _, root, low = sampler._metric(inv_mass)
        # root = L^-T with inv_mass = L L^T, so root^T inv_mass root = I and r = root xi ~ N(0, inv_mass^-1)
        assert np.allclose(root.T @ inv_mass @ root, np.eye(3), atol=1e-14)
        assert np.array_equal(root, np.triu(root))
        assert np.allclose(low @ low.T, inv_mass, atol=1e-15) and np.array_equal(low, np.tril(low))
        assert sampler._metric(np.array([[1.0, 1.0], [1.0, 1.0]])) is None
        assert sampler._metric(np.array([[math.nan]])) is None


class _Counted:
    """``next`` of a list of draws, counting the draws taken."""

    def __init__(self, values):
        self.values, self.taken = values, 0

    def __call__(self):
        self.taken += 1
        return self.values[self.taken - 1]


# The NUTS transition and RWM step as they were before the generated float core: numpy arrays,
# the momentum r = L⁻ᵀ ξ and the kinetic energy r·M r / 2 in z's coordinates, the U-turn test on
# z+ − z− and r; fed normals by ``normal()`` and uniforms by ``random()``.  The core must take the
# same decisions from the same draws, its z and log p equal up to rounding.

def _ref_leapfrog(vag, state, half_step, mass_step, inv_mass, h0):
    r_half = state[1] + state[4]
    z = state[0] + np.dot(mass_step, r_half)
    try:
        logp, grad = vag(z)
    except NonFiniteDensity:
        logp, grad = -math.inf, np.zeros_like(z)
    half_grad = half_step * grad
    r = r_half + half_grad
    delta_h = (logp - 0.5 * float(np.dot(r, np.dot(inv_mass, r)))) - h0
    return (z, r, grad, logp, half_grad), -math.inf if math.isnan(delta_h) else delta_h


def _ref_steps(eps, inv_mass):
    return [(np.array([0.5 * signed] * inv_mass.shape[0]), signed * inv_mass) for signed in (-eps, eps)]


def _ref_momentum(z, logp, metric, normal):
    inv_mass, root, _ = metric
    r = np.dot(root, np.array([normal() for _ in range(z.shape[0])]))
    return r, logp - 0.5 * float(np.dot(r, np.dot(inv_mass, r)))


def _ref_is_turning(minus, plus):
    dz = plus[0] - minus[0]
    return np.dot(dz, minus[1]) < 0.0 or np.dot(dz, plus[1]) < 0.0


def _ref_join(tree, sub, side, random, biased=False):
    tree[side] = sub[side]
    tree[4] += sub[4]
    tree[5] += sub[5]
    tree[6] = tree[6] or sub[6]
    if sub[7]:
        total = sampler._logaddexp(tree[3], sub[3])
        if random() < math.exp(min(0.0, sub[3] - (tree[3] if biased else total))):
            tree[2] = sub[2]
        tree[3] = total
    tree[7] = sub[7] and not _ref_is_turning(tree[0], tree[1])


def _ref_build_tree(vag, edge, side, depth, half_step, mass_step, inv_mass, h0, random):
    if depth == 0:
        leaf, delta_h = _ref_leapfrog(vag, edge, half_step, mass_step, inv_mass, h0)
        divergent = delta_h < -1000.0
        return [leaf, leaf, leaf, delta_h, math.exp(min(0.0, delta_h)), 1, divergent, not divergent]
    tree = _ref_build_tree(vag, edge, side, depth - 1, half_step, mass_step, inv_mass, h0, random)
    if tree[7]:
        sub = _ref_build_tree(vag, tree[side], side, depth - 1, half_step, mass_step, inv_mass, h0, random)
        _ref_join(tree, sub, side, random)
    return tree


def _ref_nuts_transition(vag, z, logp, grad, eps, metric, normal, random, max_depth, subtrees=None):
    """The reference transition; ``subtrees`` gets (divergent, ok) of each top-level subtree."""
    steps = _ref_steps(eps, metric[0])
    r, h0 = _ref_momentum(z, logp, metric, normal)
    tree = [(z, r, grad, logp, half_step * grad) for half_step, _ in steps]
    tree += [tree[0], 0.0, 0.0, 0, False, True]
    depth = 0
    while tree[7] and depth < max_depth:
        side = random() < 0.5
        sub = _ref_build_tree(vag, tree[side], side, depth, *steps[side], metric[0], h0, random)
        if subtrees is not None:
            subtrees.append((sub[6], sub[7]))
        _ref_join(tree, sub, side, random, biased=True)
        depth += sub[7]
    z, _, grad, logp = tree[2][:4]
    return z, logp, grad, tree[4] / max(tree[5], 1), depth, tree[6]


def _ref_rwm_step(value, z, logp, scale, normal, random):
    proposal = z + np.dot(scale, np.array([normal() for _ in range(z.shape[0])]))
    try:
        logp_new = value(proposal)
    except NonFiniteDensity:
        logp_new = -math.inf
    delta = logp_new - logp
    alpha = 1.0 if delta >= 0 else math.exp(delta)
    if random() < alpha:
        return proposal, logp_new, alpha, True
    return z, logp, alpha, False


def _close(a, b, scale):
    """Equal up to 1e-12 relative to the larger of |b| and ``scale``, coordinate by coordinate."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all((a == b) | (np.abs(a - b) <= 1e-12 * np.maximum(np.abs(b), scale))))


def _gaussian(dim):
    """A correlated Gaussian target (its sds 0.1 to 10) and a dense metric unlike its covariance,
    so a large step diverges: (name, vag, dim, metric, start points' factor, mean, scale)."""
    rng = np.random.default_rng(100 + dim)
    a = rng.standard_normal((dim, dim)) * np.logspace(-1, 1, dim)
    cov = a @ a.T / dim + np.diag(np.logspace(-2, 2, dim))
    precision, mean = np.linalg.inv(cov), rng.normal(size=dim)

    def vag(z):
        d = z - mean
        return -0.5 * float(d @ precision @ d), -(precision @ d)

    shrunk = 0.5 * cov + 0.5 * np.diag(np.diagonal(cov)) * rng.uniform(0.5, 2.0, dim)
    return vag, sampler._metric(shrunk), np.linalg.cholesky(cov), mean, 0.1


def _demo():
    data = simulate_linear(SimConfig(alpha=2.5, beta=1.8, sigma=15.0, n=100, seed=42))
    model = (resources.files("plainbayes") / "resources" / "examples" / "manual_priors_model.json").read_text()
    pf = build_posterior(validate_model(parse_model_json(model), data.column_names()), data)
    mode, root, metric = sampler._laplace(pf.float_density, 3)
    return pf.log_density_and_grad, metric, root, mode, 0.01, pf


_TARGETS = {"gauss-1": lambda: _gaussian(1), "gauss-3": lambda: _gaussian(3), "gauss-10": lambda: _gaussian(10),
            "demo-3": _demo}


class TestTrajectory:
    """The top level of a NUTS trajectory: how it stops and what it reports."""

    def test_nonfinite_everywhere_but_the_start(self):
        def density(z0, z1, with_grad=False):
            if (z0, z1) == (0.0, 0.0):
                return (0.0, 0.0, 0.0) if with_grad else 0.0
            raise NonFiniteDensity("off the start")

        transition, _ = sampler._nuts(np.eye(2), density, *sampler._streams(0, 0), 10)
        state = ((0.0, 0.0), (0.0, 0.0), 0.0)
        assert transition(state, 0.5) == (state, 0.0, 0, True)

    def test_depth_bound_of_one(self):
        cfg = SamplerConfig(chains=2, warmup_draws=200, kept_draws=200, seed=4, max_tree_depth=1)
        depths = nuts_sample(std_normal_posterior(3), cfg, jobs=1).stats["tree_depth"]
        assert depths.max() == 1

    @pytest.mark.parametrize("wall", [math.inf, 1.5])
    def test_failed_subtree_not_counted(self, wall):
        # tree_depth counts the subtrees joined: one that diverges (outside the
        # wall) or turns inside ends the trajectory without adding a level; the
        # reference records its top-level subtrees, and the core agrees with it
        def vag(z):
            if np.any(np.abs(z) > wall):
                raise NonFiniteDensity("outside the wall")
            return -0.5 * float(np.dot(z, z)), -z

        metric, rng = sampler._metric(np.eye(2)), np.random.default_rng(5)
        density = PosteriorFn(["a", "b"], vag).float_density
        z = np.zeros(2)
        logp, grad = vag(z)
        endings = set()
        for _ in range(300):
            normals, uniforms, subtrees = rng.standard_normal(2).tolist(), rng.random(2100).tolist(), []
            ref = _ref_nuts_transition(vag, z, logp, grad, 1.3, metric, iter(normals).__next__,
                                       iter(uniforms).__next__, 10, subtrees)
            transition, _ = sampler._nuts(metric[2], density, iter(normals).__next__, iter(uniforms).__next__, 10)
            _, _, depth, divergent = transition((tuple(z.tolist()), tuple(grad.tolist()), logp), 1.3)
            z, logp, grad, _, ref_depth, ref_divergent = ref
            assert (depth, divergent) == (ref_depth, ref_divergent)
            assert ref_depth == sum(ok for _, ok in subtrees)
            assert ref_divergent == any(d for d, _ in subtrees)
            if not subtrees[-1][1]:
                endings.add("divergent" if subtrees[-1][0] else "turned inside")
        assert endings == ({"turned inside", "divergent"} if wall < math.inf else {"turned inside"})

    @pytest.mark.parametrize("target", sorted(_TARGETS))
    def test_transitions_match_the_reference(self, target):
        """200 transitions from fixed states, each fed the same normals and uniforms: equal depth,
        divergence and draws taken, so equal decisions; z and log p equal up to rounding."""
        vag, metric, factor, mean, scale, *_ = _TARGETS[target]()
        density, dim = PosteriorFn([f"x{i}" for i in range(len(mean))], vag).float_density, len(mean)
        rng = np.random.default_rng(7)
        depths, divergences = set(), 0
        for _ in range(200):
            z = mean + factor @ rng.standard_normal(dim)
            logp, grad = vag(z)
            eps = float(rng.uniform(0.05, 4.0))
            draws = rng.standard_normal(dim).tolist(), rng.random(2100).tolist()
            ref_draws, core_draws = [_Counted(d) for d in draws], [_Counted(d) for d in draws]
            ref = _ref_nuts_transition(vag, z, logp, grad, eps, metric, *ref_draws, 10)
            transition, _ = sampler._nuts(metric[2], density, *core_draws, 10)
            state = (tuple(z.tolist()), tuple(grad.tolist()), logp)
            (z_core, grad_core, logp_core), accept, depth, divergent = transition(state, eps)
            assert (depth, divergent) == ref[4:] and [d.taken for d in core_draws] == [d.taken for d in ref_draws]
            assert _close(z_core, ref[0], scale) and _close(logp_core, ref[1], 1.0) and _close(grad_core, ref[2], 1.0)
            assert _close(accept, ref[3], 1.0)
            depths.add(depth)
            divergences += divergent
        assert len(depths) >= 3 and (divergences > 0 or dim == 1), (depths, divergences)  # in 1-D an unstable step turns first

    @pytest.mark.parametrize("target", ["gauss-3", "demo-3"])
    def test_rwm_steps_match_the_reference(self, target):
        vag, metric, factor, mean, scale, *rest = _TARGETS[target]()
        value = rest[0].log_density if rest else (lambda z: vag(z)[0])
        dim = len(mean)
        density = PosteriorFn([f"x{i}" for i in range(dim)], vag, value).float_density
        rng = np.random.default_rng(8)
        moves = 0
        for _ in range(200):
            z = mean + factor @ rng.standard_normal(dim)
            logp, m = value(z), float(rng.uniform(0.1, 3.0))
            draws = rng.standard_normal(dim).tolist(), rng.random(1).tolist()
            ref = _ref_rwm_step(value, z, logp, m * metric[2], *[iter(d).__next__ for d in draws])
            propose = sampler._bound(metric[2], density, *[iter(d).__next__ for d in draws])[4]
            (z_core, logp_core), alpha, moved, divergent = propose((tuple(z.tolist()), logp), m)
            assert moved == ref[3] and not divergent
            assert _close(z_core, ref[0], scale) and _close(logp_core, ref[1], 1.0) and _close(alpha, ref[2], 1.0)
            moves += moved
        assert 0 < moves < 200


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


class TestStepSizeSearch:
    def test_start_above_search_range(self):
        # the search used to stop after one halving, outside its range: from
        # 1e300, every transition diverged and the prior sum warned on -inf + inf
        data = simulate_linear(SimConfig(alpha=2.5, beta=1.8, sigma=15.0, n=100, seed=1))
        model = (resources.files("plainbayes") / "resources" / "examples" / "manual_priors_model.json").read_text()
        pf = build_posterior(validate_model(parse_model_json(model), data.column_names()), data)
        cfg = SamplerConfig(chains=2, warmup_draws=300, kept_draws=200, step_size_init=1e300)
        trace = nuts_sample(pf, cfg, jobs=1)
        assert int(trace.stats["divergent"].sum()) == 0


class TestRecordedAlgorithm:
    @pytest.mark.parametrize("sample, algorithm", [(nuts_sample, "nuts"), (rwm_sample, "rwm")])
    def test_trace_names_the_sampler_that_ran(self, tmp_path, sample, algorithm):
        cfg = SamplerConfig(algorithm="rwm" if algorithm == "nuts" else "nuts", chains=1, warmup_draws=20, kept_draws=10)
        trace = sample(std_normal_posterior(2), cfg)
        assert trace.config == dataclasses.replace(cfg, algorithm=algorithm)
        save_trace(trace, tmp_path / "trace.csv", tmp_path / "stats.json")
        assert json.loads((tmp_path / "stats.json").read_text())["config"]["algorithm"] == algorithm


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


def _bits(x) -> int:
    return int(np.float64(x).view(np.int64))


def _np_logaddexp(x, y):
    with np.errstate(all="ignore"):  # numpy warns on overflow and NaN; _logaddexp need not
        return np.logaddexp(x, y)


class TestLogAddExp:
    """``_logaddexp`` replaces ``np.logaddexp`` on two floats in the NUTS tree."""

    def test_random_pairs_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for scale in (1e-6, 1e-2, 1.0, 40.0, 1e4, 1e300):
            for x, y in (rng.standard_normal((4000, 2)) * scale).tolist():
                assert _bits(sampler._logaddexp(x, y)) == _bits(_np_logaddexp(x, y)), (x, y)

    @pytest.mark.parametrize(
        "x, y",
        [(0.0, 0.0), (-0.0, 0.0), (-3.5, -3.5), (1e308, 1e308), (math.inf, math.inf), (-math.inf, -math.inf),
         (math.inf, -math.inf), (-math.inf, math.inf), (-math.inf, 2.0), (2.0, -math.inf), (math.inf, 2.0),
         (-1e308, 1e308), (5e-324, -5e-324)],
    )
    def test_edges_bit_for_bit(self, x, y):
        assert _bits(sampler._logaddexp(x, y)) == _bits(_np_logaddexp(x, y))

    @pytest.mark.parametrize("x, y", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (math.nan, -math.inf)])
    def test_nan_propagates(self, x, y):
        assert math.isnan(sampler._logaddexp(x, y)) and math.isnan(_np_logaddexp(x, y))


def _windowed_draws(warmup, dim):
    rng = np.random.default_rng(warmup)
    draws = rng.standard_normal((warmup, dim)) * np.logspace(-8, 8, dim) + 1e3 * rng.standard_normal(dim)
    draws[:, -1] -= 0.9 * draws[:, 0]  # a correlated pair when dim > 1
    draws[1::3] = draws[0::3][: len(draws[1::3])]  # repeated rows, as rejected RWM proposals give
    return draws


class TestWindowedVariance:
    @pytest.mark.parametrize("warmup, dim", [(150, 1), (1000, 3), (5000, 4)])
    def test_matrix_matches_numpy_cov(self, warmup, dim):
        # each window's np.cov and its shrinkage weight n / (n + 5)
        draws, windows = _windowed_draws(warmup, dim), sampler._adaptation_windows(warmup)
        assert len(windows) > 0
        for start, end in windows:
            window, n = draws[start:end], end - start
            mean, cov, w = sampler._window_covariance([tuple(z) for z in window.tolist()], dim)
            want = np.cov(window.T).reshape(dim, dim)
            assert np.allclose(mean, window.mean(axis=0), rtol=1e-13, atol=0.0)
            # rounding error in a sum of products scales with the raw second moments
            moments = np.mean(window * window, axis=0)
            assert w == n / (n + 5.0) and np.array_equal(cov, cov.T)
            assert np.all(np.abs(cov - want) <= 1e-13 * np.sqrt(np.outer(moments, moments)))


class _ReferenceWindowedCovariance:
    """The window estimator as it was before its generated pass: Welford's
    recurrences on Python floats, run at every warm-up iteration."""

    def __init__(self, warmup, dim):
        self.windows, self.dim = sampler._adaptation_windows(warmup), dim

    def observe(self, m, z):
        if not self.windows:
            return None
        start, end = self.windows[0]
        if m == start:
            self.n, self.mean, self.m2 = 0, [0.0] * self.dim, [[0.0] * self.dim for _ in range(self.dim)]
        if start <= m < end:
            self.n += 1
            n, mean, z = self.n, self.mean, z.tolist()
            delta = [zj - mj for zj, mj in zip(z, mean)]
            for j, dj in enumerate(delta):
                mean[j] += dj / n
            after = [zj - mj for zj, mj in zip(z, mean)]
            for i, (row, di) in enumerate(zip(self.m2, delta)):
                for j in range(i, self.dim):
                    row[j] += di * after[j]
        if m + 1 != end:
            return None
        m2 = np.array(self.m2)
        m2 += np.triu(m2, 1).T
        del self.windows[0]
        return m2 / max(self.n - 1, 1), self.n / (self.n + 5.0)


class TestGeneratedWindowPass:
    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_bit_for_bit_as_the_per_iteration_recurrences(self, dim, scale):
        # 2000 warm-up iterations close 6 windows, of 25 to 925 rows; every third row repeats
        draws = _windowed_draws(2000, dim) * scale
        want = _ReferenceWindowedCovariance(2000, dim)
        closed = [(m, window) for m, z in enumerate(draws) if (window := want.observe(m, z)) is not None]
        assert [m + 1 for m, _ in closed] == [end for _, end in sampler._adaptation_windows(2000)] and len(closed) == 6
        for (start, end), (_, (ref_cov, ref_w)) in zip(sampler._adaptation_windows(2000), closed):
            _, cov, w = sampler._window_covariance([tuple(z) for z in draws[start:end].tolist()], dim)
            assert cov.tobytes() == ref_cov.tobytes() and w == ref_w

    def test_one_generated_function_per_dimension(self):
        assert sampler._welford(4) is sampler._welford(4) is not sampler._welford(5)
        assert sampler._welford(2)([[1.0, 2.0], [3.0, 5.0], [2.0, 2.0]]) == (3, [2.0, 3.0], [[2.0, 3.0], [0.0, 6.0]])


class TestStreamBlocks:
    """A chain's normals and uniforms are drawn ``_BLOCK`` at a time and consumed in order, so
    no value, and no byte a fit writes, depends on the block length."""

    @pytest.mark.parametrize("algorithm", ["nuts", "rwm"])
    def test_block_length_moves_no_byte(self, tmp_path, monkeypatch, experiment_dataset, experiment_model, algorithm):
        pf = build_posterior(experiment_model, experiment_dataset)
        cfg = SamplerConfig(algorithm=algorithm, chains=2, warmup_draws=150, kept_draws=100, seed=11)
        written = []
        for block in (sampler._BLOCK, 1, 7):
            monkeypatch.setattr(sampler, "_BLOCK", block)
            save_trace(sampler.sample(pf, cfg, jobs=2), tmp_path / f"{block}.csv", tmp_path / f"{block}.json")
            written.append([(tmp_path / f"{block}.{kind}").read_bytes() for kind in ("csv", "json")])
        assert written[1] == written[0] and written[2] == written[0]


class TestUncheckedCalls:
    """The samplers call a PosteriorFn's float entry, without ``_check`` on
    each call; the array callables it was built from get z as float64 of
    shape (dim,)."""

    @pytest.mark.parametrize("algorithm", ["nuts", "rwm"])
    def test_fit_never_checks(self, experiment_dataset, monkeypatch, algorithm):
        def refuse(self, z):
            raise AssertionError("PosteriorFn._check called during a fit")

        model = validate_model(parse_model_json(EXPERIMENT_MODEL_JSON), experiment_dataset.column_names())
        pf = build_posterior(model, experiment_dataset)
        monkeypatch.setattr(PosteriorFn, "_check", refuse)
        cfg = SamplerConfig(algorithm=algorithm, chains=2, warmup_draws=200, kept_draws=100, seed=4)
        trace = sampler.sample(pf, cfg, jobs=1)
        assert np.all(np.isfinite(trace.draws))
        with pytest.raises(AssertionError, match="_check called"):
            pf.log_density(np.zeros(3))  # the public methods still check

    @pytest.mark.parametrize("algorithm", ["nuts", "rwm"])
    def test_wrapping_counter_sees_every_call(self, algorithm):
        # perfbench/traced.py counts density calls by wrapping a built
        # PosteriorFn's public methods in a new one, as here
        evaluated, counted = [], []

        def vag(z):
            evaluated.append(z)
            return -0.5 * float(np.dot(z, z)), -z

        def value(z):
            evaluated.append(z)
            return -0.5 * float(np.dot(z, z))

        def counter(fn):
            def count(z):
                counted.append(z)
                return fn(z)

            return count

        inner = PosteriorFn(["a", "b"], vag, value)
        pf = PosteriorFn(
            inner.param_names, counter(inner.log_density_and_grad), counter(inner.log_density), transforms=inner.transforms
        )
        cfg = SamplerConfig(algorithm=algorithm, chains=2, warmup_draws=200, kept_draws=100, seed=4)
        sampler.sample(pf, cfg, jobs=2)  # not fork-safe: in process, so the counts land here
        assert len(counted) == len(evaluated) > cfg.chains * (cfg.warmup_draws + cfg.kept_draws)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(counted, evaluated))
        assert all(z.dtype == np.float64 and z.shape == (2,) for z in evaluated)
        if algorithm == "rwm":  # the mode search's gradient calls, then per chain
            # one value call at the initial point and one per iteration
            search = []
            sampler._laplace(_floats(lambda z: search.append(z) or vag(z), 2), 2)
            assert len(counted) == len(search) + cfg.chains * (1 + cfg.warmup_draws + cfg.kept_draws)


class TestOneDensity:
    """A PosteriorFn holds one callable, ``float_density``: given, or built from array callables."""

    MEAN, PRECISION = (1.5, -0.5), ((2.0, 0.6), (0.6, 1.0))

    @classmethod
    def _density(cls, a, b, with_grad=False):  # a correlated Gaussian in two floats
        (m0, m1), ((p00, p01), (_, p11)) = cls.MEAN, cls.PRECISION
        d0, d1 = a - m0, b - m1
        g0, g1 = -(p00 * d0 + p01 * d1), -(p01 * d0 + p11 * d1)
        logp = 0.5 * (d0 * g0 + d1 * g1)
        return (logp, g0, g1) if with_grad else logp

    @pytest.mark.parametrize("algorithm", ["nuts", "rwm"])
    def test_float_density_alone_samples(self, algorithm):
        pf = PosteriorFn(["a", "b"], float_density=self._density)
        mode, _, (sigma, _, _) = sampler._laplace(pf.float_density, 2)
        assert np.allclose(mode, self.MEAN) and np.allclose(sigma, np.linalg.inv(self.PRECISION))
        trace = sampler.sample(pf, SamplerConfig(algorithm=algorithm, chains=2, warmup_draws=300, kept_draws=500, seed=6))
        assert np.allclose(trace.draws.reshape(-1, 2).mean(axis=0), self.MEAN, atol=0.25)

    def test_methods_return_the_float_function_values(self):
        pf, z = PosteriorFn(["a", "b"], float_density=self._density), np.array([0.25, 2.0])
        value, grad = pf.log_density_and_grad(z)
        assert pf.log_density(z) == value == self._density(0.25, 2.0)
        assert (value, *grad.tolist()) == self._density(0.25, 2.0, with_grad=True)
        with pytest.raises(DimensionMismatch):
            pf.log_density(np.zeros(3))

    def test_array_entry_takes_with_grad_by_position_or_keyword(self):
        density = PosteriorFn(["a"], lambda z: (-0.5 * float(z @ z), -z)).float_density
        assert density(0.5, with_grad=True) == density(0.5, True) == (-0.125, -0.5)
        assert density(0.5) == density(0.5, False) == density(0.5, with_grad=False) == -0.125

    def test_value_only_has_no_gradient(self):
        pf = PosteriorFn(["a"], log_density=lambda z: -0.5 * float(z @ z))
        assert pf.float_density(0.5) == -0.125 and sampler._laplace(pf.float_density, 1) is None
        with pytest.raises(SamplerError, match="no gradient"):
            pf.float_density(0.5, with_grad=True)
        with pytest.raises(SamplerError, match="no gradient"):
            nuts_sample(pf, SamplerConfig(chains=1, warmup_draws=10, kept_draws=10))

    @pytest.mark.parametrize("callables", [{}, {"log_density": lambda z: 0.0, "float_density": lambda z0: 0.0}],
                             ids=["neither", "both"])
    def test_one_representation(self, callables):
        with pytest.raises(TypeError, match="one of the two"):
            PosteriorFn(["a"], **callables)


def _flat_in_one_coordinate(z):
    return -0.5 * float(z[0]) ** 2, np.array([-float(z[0]), 0.0])


def _mode_beyond_reach(z):
    # log p = z - 1e-300 e^z: Newton's first step from 0 is 1e300 long and
    # overflows e^z, and damping cannot shorten it to a finite one in 100 trials
    return float(z[0] - 1e-300 * np.exp(z[0])), np.array([1.0 - 1e-300 * float(np.exp(z[0]))])


def _not_finite_at_zero(z):
    return (-math.inf, np.zeros(1)) if not z.any() else _std_normal_vag(z)


class TestLaplaceStart:
    """One mode search per fit, in the caller before any chain runs, gives
    each chain its start and first metric; where it finds no mode, chains
    start as ``_initial_point`` jitters them, from N(0, 0.1 I), with Σ₀ = I."""

    def test_gaussian_mode_and_covariance(self):
        # an exact Gaussian: the mode is its mean and Σ₀ its covariance
        mean, cov = np.array([3.0, -200.0, 0.01]), np.array([[4.0, 0.3, 0.0], [0.3, 0.25, 0.001], [0.0, 0.001, 1e-4]])
        precision = np.linalg.inv(cov)

        def vag(z):
            d = z - mean
            return -0.5 * float(d @ precision @ d), -(precision @ d)

        mode, root, (sigma, _, low) = sampler._laplace(_floats(vag, 3), 3)
        assert np.allclose(mode, mean, rtol=0.0, atol=1e-6 * np.sqrt(np.diag(cov)).max())
        assert np.allclose(sigma, cov, rtol=1e-6, atol=1e-12)
        assert np.allclose(root @ root.T, sigma, rtol=1e-12) and np.allclose(low @ low.T, sigma, rtol=1e-12)

    @pytest.mark.parametrize(
        "vag, dim, algorithm",
        [
            (_std_normal_vag, 2, "nuts"), (_std_normal_vag, 2, "rwm"),
            (None, 1, "rwm"),
            (_mode_beyond_reach, 1, "rwm"),  # NUTS diverges on its drift toward z = 690
            (_not_finite_at_zero, 1, "nuts"), (_not_finite_at_zero, 1, "rwm"),
            (_flat_in_one_coordinate, 2, "nuts"), (_flat_in_one_coordinate, 2, "rwm"),
        ],
        ids=["found-nuts", "found-rwm", "value-only", "iteration-cap", "not-finite-nuts", "not-finite-rwm",
             "not-positive-definite-nuts", "not-positive-definite-rwm"],
    )
    def test_chains_start_from_the_search_or_jittered(self, monkeypatch, vag, dim, algorithm):
        # the start of chain c is made of the first normals of its own normal stream, so
        # the search drew nothing from it; with no mode it is _initial_point's jitter
        value = (lambda z: vag(z)[0]) if vag is not None else (lambda z: -0.5 * float(z[0]) ** 2)
        pf = PosteriorFn([f"x{i}" for i in range(dim)], vag, value)
        laplace = sampler._laplace(pf.float_density, dim)
        assert (laplace is None) == (vag is not _std_normal_vag)
        starts = {}
        initial_point = sampler._initial_point

        def recorded(density, normal, dim, laplace, with_grad):
            z, out, metric = initial_point(density, normal, dim, laplace, with_grad)
            starts[len(starts)] = z, laplace
            return z, out, metric

        monkeypatch.setattr(sampler, "_initial_point", recorded)
        cfg = SamplerConfig(algorithm=algorithm, chains=2, warmup_draws=20, kept_draws=10, seed=5)
        trace = sampler.sample(pf, cfg, jobs=1)
        assert trace.draws.shape == (2, 10, dim) and np.all(np.isfinite(trace.draws))
        for c, (z, used) in starts.items():
            xi = make_rng(cfg.seed, c, sampler._NORMALS).standard_normal(dim)
            if laplace is None:
                assert used is None and np.array(z).tobytes() == (math.sqrt(0.1) * xi).tobytes()
            else:
                assert used is not None and np.array(z).tobytes() == (laplace[0] + sampler._product(laplace[1], xi)).tobytes()

    def test_no_runtime_warning_escapes_the_search(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            _mode_beyond_reach(np.array([1e300]))  # the density warns where the search goes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sampler._laplace(_floats(_mode_beyond_reach, 1), 1) is None

    def test_seeds_do_not_share_chain_streams(self):
        # each (seed, chain) has a normal and a uniform stream of its own
        firsts = [tuple(next_value() for _ in range(4)) for seed in (0, 1) for c in range(4)
                  for next_value in sampler._streams(seed, c)]
        assert len(set(firsts)) == len(firsts)

    def test_split_rhat_sees_a_second_mode(self):
        """Two modes 11 sds apart, 0.5 N(-2, 0.4²) + 0.5 N(2.5, 0.4²): the
        search finds the one at -2 and every start is near it, so R-hat sees
        the other only when warm-up's first long steps carry a chain across.
        Over seeds 0-7 it flags 2 fits of 8; from the no-mode path's jittered
        starts at 0, 4 of 8."""
        def vag(z):
            x = float(z[0])
            la, lb = -0.5 * ((x + 2.0) / 0.4) ** 2, -0.5 * ((x - 2.5) / 0.4) ** 2
            top = max(la, lb)
            lp = top + math.log(0.5 * math.exp(la - top) + 0.5 * math.exp(lb - top))
            pa = 0.5 * math.exp(la - lp)
            return lp, np.array([-(pa * (x + 2.0) + (1.0 - pa) * (x - 2.5)) / 0.16])

        pf = PosteriorFn(["x"], vag)
        assert np.allclose(sampler._laplace(pf.float_density, 1)[0], -2.0)

        rhats = [split_rhat(nuts_sample(pf, SamplerConfig(warmup_draws=500, kept_draws=500, seed=seed), jobs=1)
                            .chains_for("x")) for seed in range(8)]
        assert sum(r > 1.1 for r in rhats) >= 1, rhats


def _elicited_posterior(dataset):
    """The Experiment I model with the priors elicited from the packaged fixtures."""
    from plainbayes import elicitation, spec_schema

    beliefs = json.loads((resources.files("plainbayes") / "resources" / "examples"
                          / "linear_regression_beliefs.json").read_text())
    llm = elicitation.LlmConfig(fixtures_dir=elicitation.packaged_fixtures_dir())
    spec = spec_schema.ModelSpec(
        priors={name: elicitation.elicit_prior(name, belief, llm) for name, belief in beliefs.items()},
        likelihood=spec_schema.LikelihoodSpec("alpha + beta * X", noise_param="sigma"),
    )
    return build_posterior(validate_model(spec, dataset.column_names()), dataset)


class TestRwmChainsMix:
    def test_no_stuck_chain(self, experiment_dataset):
        """RWM on the elicited Experiment I model: no chain's beta ESS falls
        below half its seed's median chain (a proposal scale learned from a
        chain's own draws alone can collapse and leave the chain stuck)."""
        pf = _elicited_posterior(experiment_dataset)
        for seed in range(4):
            cfg = SamplerConfig(algorithm="rwm", warmup_draws=1000, kept_draws=2000, seed=seed)
            beta = rwm_sample(pf, cfg).chains_for("beta")
            per_chain = [ess_bulk(chain[None]) for chain in beta]
            assert min(per_chain) >= 0.5 * float(np.median(per_chain)), (seed, per_chain)

    def test_no_mode_found(self, experiment_dataset, monkeypatch):
        """Without a mode each window's close takes the Laplace approximation
        at the window's mean, by central differences of the value, which
        carries the posterior's scales: on the elicited model the smallest
        bulk ESS is 623-734 over seeds 0-3, and below 250 on none of seeds
        0-47 (with each window shrunk toward its own variances alone, on 13 of
        48, a chain left under-scaled along alpha; 12-47 shrunk toward I)."""
        monkeypatch.setattr(sampler, "_laplace", lambda density, dim: None)
        pf = _elicited_posterior(experiment_dataset)
        for seed in range(4):
            trace = rwm_sample(pf, SamplerConfig(algorithm="rwm", warmup_draws=1000, kept_draws=2000, seed=seed))
            assert min(ess_bulk(trace.chains_for(name)) for name in trace.param_names) >= 250, seed

    def test_value_only_scales_far_apart(self):
        """A density without a gradient has no mode search; sds of 1.7e-3 (as
        log tau on 20 000 rows), 1 and 30 are each sampled at their own scale
        (on each of seeds 0-47; with each window shrunk toward its own
        variances alone, the sd-30 coordinate stayed under-scaled on 9)."""
        sd = np.array([1.7e-3, 1.0, 30.0])
        pf = PosteriorFn(["a", "b", "c"], None, lambda z: -0.5 * float(np.dot(z / sd, z / sd)))
        for seed in range(4):
            trace = rwm_sample(pf, SamplerConfig(algorithm="rwm", warmup_draws=1000, kept_draws=2000, seed=seed))
            for name, scale in zip(trace.param_names, sd):
                assert split_rhat(trace.chains_for(name)) <= 1.05, (seed, name)
                assert abs(trace.pooled(name).std() / scale - 1.0) <= 0.1, (seed, name)


class TestWorkerCount:
    def test_default_is_usable_cpus_capped_by_chains(self):
        assert worker_count(64) == min(64, len(os.sched_getaffinity(0)))
        assert worker_count(1) == 1

    def test_jobs_above_chains_clamp(self):
        assert worker_count(2, 5) == 2

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(SamplerError, match="jobs must be >= 1, got 0"):
            worker_count(3, 0)


def _failing_posterior(make_exc, failing_chains, seed, dim=2):
    """A fork-safe standard normal that raises ``make_exc(c)`` at chain ``c``'s
    first initial point, mode + R ξ from its Laplace approximation and the
    first normals of its normal stream, for each ``c`` in ``failing_chains``."""
    mode, root, _ = sampler._laplace(_floats(_std_normal_vag, dim), dim)
    starts = {}
    for c in failing_chains:
        z = mode + sampler._product(root, make_rng(seed, c, sampler._NORMALS).standard_normal(dim))
        starts[z.tobytes()] = c

    def vag(z):
        if z.tobytes() in starts:
            raise make_exc(starts[z.tobytes()])
        return _std_normal_vag(z)

    return PosteriorFn(param_names=[f"x{i}" for i in range(dim)], log_density_and_grad=vag, fork_safe=True)


class TestChainWorkers:
    """Chains in forked workers fail as chains run in process do; no worker outlives the call."""

    CFG = SamplerConfig(chains=3, warmup_draws=30, kept_draws=20, seed=4)

    @staticmethod
    def _raised(pf, cfg, jobs):
        with pytest.raises(Exception) as err:
            nuts_sample(pf, cfg, jobs=jobs)
        return type(err.value), str(err.value), vars(err.value)

    @pytest.mark.parametrize(
        "make_exc",
        [
            lambda c: NonFiniteDensity("likelihood mean is non-finite", row=10 + c),
            lambda c: AllDivergent(0.5 + c / 10),  # its __init__ does not take its args
            lambda c: NonFiniteGradient("gradient contains non-finite components", z=np.full(2, float(c))),
        ],
    )
    def test_lowest_failing_chain_wins(self, worker_pids, make_exc):
        # chain 0 runs to the end; workers: {0, 2} and {1}, so chain 2's failure arrives first
        pf = _failing_posterior(make_exc, failing_chains=(1, 2), seed=self.CFG.seed)
        serial = self._raised(pf, self.CFG, jobs=1)
        assert worker_pids == []
        parallel = self._raised(pf, self.CFG, jobs=2)
        assert len(worker_pids) == 2
        assert parallel[:2] == serial[:2] and parallel[2].keys() == serial[2].keys()
        for name, value in serial[2].items():
            assert np.array_equal(parallel[2][name], value) if isinstance(value, np.ndarray) else parallel[2][name] == value
        if serial[0] is NonFiniteDensity:
            assert serial[2]["row"] == 11

    def test_exception_pickle_cannot_carry(self):
        pf = _failing_posterior(lambda c: type("Unnamed", (Exception,), {})(f"chain {c}"), (0,), self.CFG.seed)
        with pytest.raises(SamplerError, match="^Unnamed: chain 0$"):
            nuts_sample(pf, self.CFG, jobs=2)

    def test_workers_reaped_after_a_failure(self, worker_pids):
        pf = _failing_posterior(lambda c: NonFiniteDensity("bad", row=c), (0, 1, 2), self.CFG.seed)
        with pytest.raises(NonFiniteDensity):
            nuts_sample(pf, self.CFG, jobs=2)
        assert len(worker_pids) == 2
        for pid in worker_pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_density_not_fork_safe_runs_in_process(self, worker_pids):
        # its side effects, here a call count, must land in the caller
        calls = []

        def vag(z):
            calls.append(1)
            return -0.5 * float(np.dot(z, z)), -z

        pf = PosteriorFn(param_names=["a"], log_density_and_grad=vag)
        nuts_sample(pf, self.CFG, jobs=2)
        assert worker_pids == [] and len(calls) > self.CFG.chains * (self.CFG.warmup_draws + self.CFG.kept_draws)

    def test_fork_warning_does_not_leak(self, monkeypatch):
        # Python 3.12+ warns when forking a process that has other threads
        fork = os.fork

        def warning_fork():
            warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks", DeprecationWarning)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        pf = PosteriorFn(param_names=["a"], log_density_and_grad=lambda z: (-0.5 * float(z @ z), -z), fork_safe=True)
        nuts_sample(pf, self.CFG, jobs=2)  # the suite turns a leaked warning into an error

    def test_workers_leave_through_os_exit(self, tmp_path):
        # an atexit hook (or any cleanup of the parent's) must run in the parent alone
        marker = tmp_path / "exits"
        code = (
            "import atexit, os\n"
            "from plainbayes.posterior import PosteriorFn\n"
            "from plainbayes.sampler import SamplerConfig, nuts_sample\n"
            f"atexit.register(lambda: open({str(marker)!r}, 'a').write(f'{{os.getpid()}}\\n'))\n"
            "pf = PosteriorFn(['a'], lambda z: (-0.5 * float(z @ z), -z), fork_safe=True)\n"
            "nuts_sample(pf, SamplerConfig(chains=2, warmup_draws=20, kept_draws=10), jobs=2)\n"
            "print(os.getpid())\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(plainbayes.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert marker.read_text().split() == [out.stdout.strip()]


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


def _equal_stats_trace():
    """Stats whose chains each hold one value, rendered from one item, and
    chains equal as values but not as text, rendered item by item."""
    stats = {
        "step_size": np.array([[0.25] * 30, [1e-300] * 30, [math.inf] * 30]),
        "divergent": np.array([[False] * 30, [True] * 30, [False] * 29 + [True]]),
        "tree_depth": np.array([[3] * 30, [0] * 30, [2**40] * 30], dtype=np.int64),
        "zeros": np.array([[0.0] * 30, [-0.0] * 30, [0.0] * 15 + [-0.0] * 15]),
        "nans": np.array([[math.nan] * 30, [-0.0] + [0.0] * 29, [1.0] * 29 + [1.0 + 2**-52]]),
    }
    return Trace(param_names=["a"], draws=np.zeros((3, 30, 1)), stats=stats)


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
            lambda: _equal_stats_trace(),
        ],
        ids=["edge-values", "no-config", "no-stats", "one-draw", "rwm-run", "equal-stats"],
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
