"""Post-processing benchmarks: milliseconds for ``save_trace``, ``summarize``
and ``plot_trace`` on a paper Experiment I trace.

Run them with::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_report.py --benchmark-only -s

The file name keeps it out of the tier-1 suite (``test_*.py``).  The trace
is the size ``perfbench``'s ``paper`` workload reports on: the manual-priors
model on 100 rows simulated at seed 42, RWM with 4 chains x (5000 warm-up +
5000 kept draws) of 3 parameters, sampled once per session, untimed.
``plot_trace`` draws it against itself as the comparison, as ``run`` draws
the elicited fit against the baseline.  Each test prints its median and
stores it in the benchmark's ``extra_info``.
"""

from importlib import resources

import pytest

from plainbayes import diagnostics, plotting, sampler
from plainbayes.data_io import SimConfig, simulate_linear
from plainbayes.posterior import build_posterior
from plainbayes.sampler import SamplerConfig
from plainbayes.spec_schema import parse_model_json, validate_model


@pytest.fixture(scope="module")
def trace():
    data = simulate_linear(SimConfig(alpha=2.5, beta=1.8, sigma=15.0, n=100, seed=42))
    text = (resources.files("plainbayes") / "resources" / "examples" / "manual_priors_model.json").read_text()
    pf = build_posterior(validate_model(parse_model_json(text), data.column_names()), data)
    cfg = SamplerConfig(algorithm="rwm", chains=4, warmup_draws=5000, kept_draws=5000, seed=7)
    out = sampler.sample(pf, cfg, jobs=1)
    assert out.draws.shape == (4, 5000, 3)
    return out


def _report(benchmark, stage: str) -> None:
    median_ms = benchmark.stats.stats.median * 1e3
    benchmark.extra_info.update(median_ms=median_ms)
    print(f"\n{stage}: {median_ms:.1f} ms on 4 x 5000 x 3 draws")


def test_save_trace(benchmark, trace, tmp_path):
    benchmark.group = "post-processing"
    benchmark(sampler.save_trace, trace, tmp_path / "trace.csv", tmp_path / "stats.json")
    _report(benchmark, "save_trace")
    assert sampler.load_trace(tmp_path / "trace.csv").draws.tobytes() == trace.draws.tobytes()


def test_summarize(benchmark, trace):
    benchmark.group = "post-processing"
    table = benchmark(diagnostics.summarize, trace)
    _report(benchmark, "summarize")
    assert list(table.rows) == trace.param_names


def test_plot_trace(benchmark, trace, tmp_path):
    benchmark.group = "post-processing"
    written = benchmark(plotting.plot_trace, trace, tmp_path / "plots", compare=trace)
    _report(benchmark, "plot_trace")
    assert len(written) == 2 * len(trace.param_names)
