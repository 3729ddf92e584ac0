import json
import math
import pickle
import subprocess
import sys
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.special import ndtri
from scipy.stats import rankdata

from plainbayes.data_io import make_rng
from plainbayes.diagnostics import (
    _autocovariance,
    _ess_core,
    _next_fast_len,
    _quantile,
    _rank_normalize,
    _split_chains,
    ess_bulk,
    hdi,
    mode_estimate,
    render_csv,
    render_text,
    split_rhat,
    summarize,
    to_json_obj,
)
from plainbayes.errors import InsufficientSamples, SummaryCellWarning, ZeroVarianceWarning
from plainbayes.sampler import Trace


def ar1_chains(rng, n_chains, n_draws, phi):
    out = np.empty((n_chains, n_draws))
    scale = math.sqrt(1 - phi * phi)
    for c in range(n_chains):
        x = rng.standard_normal()
        for t in range(n_draws):
            x = phi * x + scale * rng.standard_normal()
            out[c, t] = x
    return out


def _quantiles_of_rankdata(arr):
    """Each draw's own normal quantile of its rankdata average rank."""
    probabilities = (rankdata(arr, method="average") - 0.5) / arr.size
    return np.array([NormalDist().inv_cdf(p) for p in probabilities.ravel().tolist()]).reshape(arr.shape)


def _reference_ess_core(arr):
    """``_ess_core`` as Stan's ``compute_effective_sample_size`` and ArviZ's ``_ess`` truncate
    (Vehtari et al. 2021), over every complete pair of lags: Geyer's initial positive sequence
    keeps the pairs before the first one with a negative sum, the monotone pass runs over the
    kept pairs, and that negative pair's even lag counts once, if positive.  Each lag's
    autocovariance is averaged over the chains by its own ``np.mean`` of one column."""
    n_chains, n_draws = arr.shape
    acov = np.vstack([_autocovariance(arr[c]) for c in range(n_chains)])
    mean_var = float(np.mean(acov[:, 0])) * n_draws / (n_draws - 1.0)
    var_plus = mean_var * (n_draws - 1.0) / n_draws + float(np.var(arr.mean(axis=1), ddof=1))
    rho = np.zeros(n_draws)
    rho[0] = 1.0
    rho[1] = 1.0 - (mean_var - float(np.mean(acov[:, 1]))) / var_plus
    rho_even = rho_odd = 0.0
    t = 1
    while t < n_draws - 2:
        rho_even = 1.0 - (mean_var - float(np.mean(acov[:, t + 1]))) / var_plus
        rho_odd = 1.0 - (mean_var - float(np.mean(acov[:, t + 2]))) / var_plus
        if (rho_even + rho_odd) < 0.0:
            break
        rho[t + 1] = rho_even
        rho[t + 2] = rho_odd
        t += 2
    max_t = t
    improved = rho_even if (rho_even + rho_odd) < 0.0 and rho_even > 0.0 else 0.0
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = (rho[t - 1] + rho[t]) / 2.0
        t += 2
    tau = -1.0 + 2.0 * float(np.sum(rho[: max_t + 1])) + improved
    total = n_chains * n_draws
    return total / max(tau, 1.0 / math.log10(total))


class TestSplitRhat:
    def test_iid_chains_near_one(self):
        chains = make_rng(123).standard_normal((4, 1000))
        assert 0.99 <= split_rhat(chains) <= 1.01

    def test_separated_chains_exceed_two(self):
        rng = make_rng(4)
        chains = np.vstack([rng.standard_normal((1, 1000)), 5.0 + rng.standard_normal((1, 1000))])
        assert split_rhat(chains) > 2.0

    def test_single_chain_split(self):
        assert 0.99 <= split_rhat(make_rng(5).standard_normal((1, 1000))) <= 1.02

    def test_affine_invariance(self):
        chains = make_rng(6).standard_normal((4, 500))
        base = split_rhat(chains)
        assert split_rhat(3.7 * chains - 11.0) == pytest.approx(base, abs=1e-10)

    def test_zero_variance_warns_nan(self):
        with pytest.warns(ZeroVarianceWarning):
            value = split_rhat(np.ones((4, 100)))
        assert math.isnan(value)

    def test_odd_draw_count_truncated(self):
        chains = make_rng(7).standard_normal((2, 1001))
        assert math.isfinite(split_rhat(chains))

    def test_too_few_draws(self):
        with pytest.raises(InsufficientSamples):
            split_rhat(np.zeros((2, 3)))


class TestEssBulk:
    def test_iid_near_total(self):
        chains = make_rng(123).standard_normal((4, 1000))
        assert 3200 <= ess_bulk(chains) <= 4400

    def test_ar1_autocorrelation_time(self):
        # theory: n * (1 - phi) / (1 + phi) ~= 210 at phi = 0.9
        chains = ar1_chains(make_rng(42), 4, 1000, 0.9)
        assert 130 <= ess_bulk(chains) <= 350

    def test_monotone_transform_invariance(self):
        chains = np.abs(make_rng(8).standard_normal((4, 800))) + 0.1
        assert ess_bulk(np.exp(chains)) == pytest.approx(ess_bulk(chains), abs=1e-9)
        assert ess_bulk(chains**3) == pytest.approx(ess_bulk(chains), abs=1e-9)

    def test_constant_chains_warn(self):
        with pytest.warns(ZeroVarianceWarning):
            value = ess_bulk(np.full((4, 100), 2.5))
        assert math.isnan(value)

    def test_bounded_by_n_log10_n(self):
        # antithetic chains: the truncated autocorrelation sum tau is below
        # 1 / log10(N), or not even positive, so the bound is the estimate
        bound = 4000 * math.log10(4000)
        for seed in range(5):
            for phi in (-0.8, -0.9):
                assert ess_bulk(ar1_chains(make_rng(seed), 4, 1000, phi)) == pytest.approx(bound, rel=1e-12)
        assert ess_bulk(make_rng(9).standard_normal((4, 250))) <= 1000 * math.log10(1000)

    def test_antithetic_above_draws(self):
        # theory: n * (1 - phi) / (1 + phi) ~= 7429 at phi = -0.3, above 1.5 n
        for seed in range(5):
            assert 7000 <= ess_bulk(ar1_chains(make_rng(seed), 4, 1000, -0.3)) <= 8500

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_draw_gives_nan(self, bad):
        chains = make_rng(12).standard_normal((2, 50))
        chains[1, 17] = bad
        assert math.isnan(ess_bulk(chains))


class TestScipyReplacements:
    def test_rank_normalize_matches_rankdata_on_ties(self):
        # rejected RWM proposals repeat draws, so tied values are the common case
        rng = make_rng(5)
        for _ in range(200):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 200)))
            arr = rng.integers(0, int(rng.integers(1, 20)), size=shape).astype(float)
            assert _rank_normalize(arr).tobytes() == _quantiles_of_rankdata(arr).tobytes()

    def test_rank_normalize_propagates_nan(self):
        arr = np.array([[1.0, math.nan], [2.0, 2.0]])
        ranked = _rank_normalize(arr)
        assert ranked.shape == arr.shape and np.all(np.isnan(ranked))
        assert np.all(np.isnan(rankdata(arr, method="average")))

    def test_next_fast_len_matches_scipy(self):
        assert [_next_fast_len(n) for n in range(1, 30001)] == [next_fast_len(n) for n in range(1, 30001)]

    @pytest.mark.parametrize("n_draws", [4_000, 40_000])
    @pytest.mark.parametrize("tied", [False, True])
    def test_rank_normalize_matches_ndtri(self, n_draws, tied):
        rng = make_rng(8)
        arr = rng.standard_normal((8, n_draws // 8))
        if tied:  # rejected RWM proposals repeat draws
            arr = np.round(arr, 1)
        expected = ndtri((rankdata(arr, method="average").reshape(arr.shape) - 0.5) / arr.size)
        np.testing.assert_allclose(_rank_normalize(arr), expected, rtol=2e-15, atol=0)

    @pytest.mark.parametrize("tied", [False, True])
    def test_rank_normalize_one_quantile_per_draw_bit_for_bit(self, tied):
        # each distinct probability's quantile, computed once, is what each draw's own call gives
        rng = make_rng(9)
        arr = _with_repeats(rng, 12_000).reshape(4, -1) if tied else rng.standard_normal((4, 3000))
        assert _rank_normalize(arr).tobytes() == _quantiles_of_rankdata(arr).tobytes()

    @pytest.mark.parametrize("n_chains", [4, 8])
    @pytest.mark.parametrize("phi", [0.0, 0.6, -0.4])
    def test_ess_core_sums_each_lag_over_the_chains_pairwise(self, n_chains, phi):
        # 8 and 16 split chains: from 8 rows up, acov.mean(axis=0) adds the rows one by one,
        # while the reference's np.mean of one column sums pairwise
        for seed in range(5):
            arr = _rank_normalize(_split_chains(ar1_chains(make_rng(seed), n_chains, 400, phi)))
            assert _ess_core(arr) == _reference_ess_core(arr)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(10, 10_000), seed=st.integers(0, 2**32 - 1), distinct=st.sampled_from([None, 1, 2, 3, 7, 50]),
           scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e6, 1e300]))
    def test_quartiles_and_median_match_numpy_bit_for_bit(self, n, seed, distinct, scale):
        # the KDE's bandwidth takes them from the sorted draws, as np.percentile and np.median do,
        # which would import numpy.ma; ties, as rejected RWM proposals make them, included
        rng = make_rng(seed)
        pool = rng.standard_normal(distinct or n) * scale
        ordered = np.sort(pool[rng.integers(0, pool.size, n)] if distinct else pool)
        q75, q25 = np.percentile(ordered, [75.0, 25.0])
        assert np.array([_quantile(ordered, 0.75), _quantile(ordered, 0.25)]).tobytes() == np.array([q75, q25]).tobytes()
        # draws a few subnormal steps apart, whose squared deviations underflow: sd and the
        # bandwidth are 0, and the mode is the median
        tiny = rng.integers(-3, 4, n) * 5e-324
        if tiny.min() < tiny.max():
            assert np.float64(mode_estimate(tiny)).tobytes() == np.median(tiny).tobytes()

    def test_summarize_skips_numpy_ma(self, tmp_path):
        trace = Trace(param_names=["a"], draws=make_rng(4).standard_normal((2, 300, 1)), stats={})
        code = (f"import sys, pickle; from plainbayes import diagnostics; "
                f"diagnostics.summarize(pickle.loads({pickle.dumps(trace)!r})); print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_cli_import_skips_scipy_stats_and_fft(self):
        # the runtime is numpy and the standard library alone, and chain
        # workers are bare forks, with no multiprocessing or executor start-up
        packages = ("scipy", "requests", "urllib3", "multiprocessing", "concurrent")
        code = f"import sys, plainbayes.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestHdi:
    def test_standard_normal(self):
        draws = make_rng(201).standard_normal(100_000)
        low, high = hdi(draws, 0.94)
        assert low == pytest.approx(-1.88, abs=0.05)
        assert high == pytest.approx(1.88, abs=0.05)

    def test_small_integer_example(self):
        low, high = hdi(np.arange(1.0, 11.0), 0.5)
        assert (low, high) == (1.0, 5.0)

    def test_exponential_low_end(self):
        draws = -np.log1p(-make_rng(120).random(100_000))
        low, _ = hdi(draws, 0.94)
        assert 0 <= low < 0.01

    def test_window_optimality_exhaustive(self):
        rng = make_rng(10)
        for _ in range(25):
            n = int(rng.integers(5, 400))
            samples = np.sort(rng.standard_normal(n) * rng.uniform(0.5, 3))
            prob = float(rng.uniform(0.2, 0.95))
            low, high = hdi(samples, prob)
            width = max(2, math.ceil(prob * n))
            best = min(samples[i + width - 1] - samples[i] for i in range(n - width + 1))
            assert high - low == pytest.approx(best, abs=0)

    def test_low_below_high(self):
        rng = make_rng(11)
        for _ in range(50):
            samples = rng.standard_normal(int(rng.integers(2, 50)))
            low, high = hdi(samples, float(rng.uniform(0.05, 0.95)))
            assert low < high or (low == high and len(np.unique(samples)) == 1)

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples):
            hdi(np.array([1.0]), 0.94)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_sample_gives_nan(self, bad):
        samples = make_rng(13).standard_normal(40)
        samples[5] = bad
        assert all(math.isnan(v) for v in hdi(samples, 0.94))


class TestMode:
    def test_normal_peak(self):
        draws = 3.0 + make_rng(9).standard_normal(100_000)
        assert mode_estimate(draws) == pytest.approx(3.0, abs=0.05)

    def test_degenerate_constant(self):
        assert mode_estimate(np.full(100, 2.25)) == 2.25

    def test_exponential_boundary(self):
        draws = -np.log1p(-make_rng(120).random(100_000))
        assert 0.0 <= mode_estimate(draws) <= 0.15

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples):
            mode_estimate(np.arange(5.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_sample_gives_nan(self, bad):
        draws = make_rng(8).standard_normal(50)
        draws[17] = bad
        assert math.isnan(mode_estimate(draws))


def _full_sum_mode_estimate(samples) -> float:
    """``mode_estimate`` before the screen: the whole n x 512 kernel summed in
    chunks of 4096 draws.  The fast path must return its grid point exactly."""
    values = np.asarray(samples, dtype=float).reshape(-1)
    n = values.shape[0]
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return lo
    sd = float(np.std(values, ddof=1))
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    bandwidth = 0.9 * spread * n ** (-0.2)
    if bandwidth <= 0:
        return float(np.median(values))
    grid = np.linspace(lo, hi, 512)
    density = np.zeros(512)
    for start in range(0, n, 4096):
        chunk = values[start : start + 4096, None]
        density += np.exp(-0.5 * ((grid[None, :] - chunk) / bandwidth) ** 2).sum(axis=0)
    return float(grid[int(np.argmax(density))])


_MODE_SAMPLERS = {
    "normal": lambda rng, n: rng.normal(rng.uniform(-5, 5), rng.uniform(0.01, 10), n),
    "student-t2": lambda rng, n: rng.standard_t(2, n),
    "cauchy": lambda rng, n: rng.standard_cauchy(n),
    "bimodal": lambda rng, n: np.where(rng.random(n) < rng.uniform(0.2, 0.8), rng.normal(-2, 1, n), rng.normal(2, 1, n)),
    "exponential": lambda rng, n: rng.exponential(rng.uniform(0.1, 5), n),
    "rounded-ties": lambda rng, n: np.round(rng.normal(0, rng.uniform(0.2, 3), n), 1),
}


def _with_repeats(rng, n):
    """n draws in runs of repeats, as rejected RWM proposals make them: each
    value held for a geometric number of draws, a quarter of them distinct."""
    values = rng.standard_normal(n) * rng.uniform(0.01, 10)
    return np.repeat(values, rng.geometric(0.25, n))[:n]


class TestModeMatchesFullSum:
    """The screened mode is the full sum's grid point on 6 x 170 seeded samples."""

    @pytest.mark.parametrize("seed, kind", enumerate(_MODE_SAMPLERS))
    def test_same_grid_point(self, seed, kind):
        rng = make_rng(700 + seed)
        # one sample of 25 000 draws, the rest from 10 to 25 000, most of them small
        sizes = [25_000] + [round(10 * 2500 ** (u * u)) for u in rng.random(169)]
        differ = []
        for n in sizes:
            draws = _MODE_SAMPLERS[kind](rng, n)
            if mode_estimate(draws) != _full_sum_mode_estimate(draws):
                differ.append(n)
        assert differ == []

    @pytest.mark.parametrize("seed", range(3))
    def test_repeated_draws_same_grid_point(self, seed):
        # the screen sums each distinct draw once, weighted by its count
        rng = make_rng(720 + seed)
        sizes = [20_000] + [round(10 * 2000 ** (u * u)) for u in rng.random(99)]
        differ = []
        for n in sizes:
            draws = _with_repeats(rng, n)
            if rng.random() < 0.3:  # a bimodal pair of runs
                draws[: n // 3] += 4.0
            assert np.unique(draws).size < n
            if mode_estimate(draws) != _full_sum_mode_estimate(draws):
                differ.append(n)
        assert differ == []


def _iid_trace(seed=100, chains=4, draws=1000):
    values = make_rng(seed).standard_normal((chains, draws, 1))
    return Trace(param_names=["theta"], draws=values, stats={})


class TestSummarize:
    def test_iid_standard_normal(self):
        table = summarize(_iid_trace())
        row = table.rows["theta"]
        assert row.mean == pytest.approx(0.0, abs=0.05)
        assert row.sd == pytest.approx(1.0, abs=0.05)
        assert row.hdi_low == pytest.approx(-1.88, abs=0.06)
        assert row.hdi_high == pytest.approx(1.88, abs=0.06)
        assert 0.99 <= row.r_hat <= 1.01
        assert 3200 <= row.ess_bulk <= 4400

    def test_mean_is_exact_pooled_mean(self):
        trace = _iid_trace(seed=55)
        table = summarize(trace)
        assert table.rows["theta"].mean == float(np.mean(trace.draws[:, :, 0]))

    def test_single_draw_trace_warns(self):
        trace = Trace(param_names=["a"], draws=np.ones((2, 1, 1)), stats={})
        with pytest.warns(SummaryCellWarning):
            table = summarize(trace)
        row = table.rows["a"]
        assert math.isnan(row.ess_bulk) and math.isnan(row.mode)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_draw_gives_nan_cells_without_warnings(self, bad):
        trace = _iid_trace(chains=2, draws=25)
        trace.draws[1, 7, 0] = bad
        row = summarize(trace).rows["theta"]
        assert row.mean == bad or (math.isnan(bad) and math.isnan(row.mean))
        assert all(math.isnan(v) for v in (row.mode, row.sd, row.hdi_low, row.hdi_high, row.ess_bulk, row.r_hat))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_opposite_infinities_give_nan_mean_without_warnings(self):
        trace = _iid_trace(chains=2, draws=25)
        trace.draws[0, 3, 0], trace.draws[1, 7, 0] = math.inf, -math.inf
        assert math.isnan(summarize(trace).rows["theta"].mean)

    def test_hdi_prob_flows_through(self):
        table = summarize(_iid_trace(), hdi_prob=0.5)
        assert table.hdi_labels() == ("hdi_25%", "hdi_75%")
        row = table.rows["theta"]
        assert row.hdi_high - row.hdi_low == pytest.approx(2 * 0.674, abs=0.05)


class TestRenderers:
    @pytest.fixture()
    def table(self):
        return summarize(_iid_trace())

    def test_text_column_order(self, table):
        header = render_text(table).splitlines()[0].split()
        assert header == ["parameter", "mean", "mode", "sd", "hdi_3%", "hdi_97%", "ess_bulk", "r_hat"]

    def test_csv_parses_back(self, table):
        lines = render_csv(table).strip().splitlines()
        assert lines[0].startswith("parameter,mean,mode,sd,")
        cells = lines[1].split(",")
        assert cells[0] == "theta"
        assert float(cells[1]) == table.rows["theta"].mean

    def test_json_shape(self, table):
        obj = json.loads(json.dumps(to_json_obj(table)))
        assert obj["hdi_prob"] == 0.94
        assert set(obj["parameters"]["theta"]) == {
            "mean", "mode", "sd", "hdi_low", "hdi_high", "ess_bulk", "r_hat",
        }
