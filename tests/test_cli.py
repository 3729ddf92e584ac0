import dataclasses
import hashlib
import importlib
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from importlib import resources
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import plainbayes
from plainbayes import cli, plotting, posterior, sampler
from plainbayes.cli import main
from plainbayes.data_io import SimConfig, load_csv
from plainbayes.elicitation import (
    FixtureStore,
    LlmConfig,
    packaged_fixtures_dir,
    render_model_prompt,
    render_prior_prompt,
)
from plainbayes.errors import SamplerError, SummaryCellWarning
from plainbayes.sampler import SamplerConfig, load_trace

from conftest import EXPERIMENT_MODEL_JSON

EXAMPLES = resources.files("plainbayes") / "resources" / "examples"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture()
def data_csv(tmp_path):
    out = tmp_path / "data.csv"
    assert run_cli("simulate", "--n", 40, "--seed", 42, "--out", out) == 0
    return out


@pytest.fixture()
def small_trace(tmp_path):
    """A trace CSV of one parameter, 2 chains x 25 draws, written without sampling."""
    trace = tmp_path / "t.csv"
    trace.write_text("chain,draw,a\n" + "".join(f"{c},{d},{0.01 * d + c}\n" for c in range(2) for d in range(25)))
    return trace


@pytest.fixture()
def model_json(tmp_path):
    path = tmp_path / "model.json"
    assert (
        run_cli(
            "elicit-model",
            "--description-file", EXAMPLES / "linear_regression_description.txt",
            "--out", path,
        )
        == 0
    )
    return path


@pytest.fixture()
def fit_dir(tmp_path, data_csv, model_json):
    out_dir = tmp_path / "fit"
    code = run_cli(
        "fit", "--model", model_json, "--data", data_csv,
        "--chains", 2, "--warmup", 200, "--draws", 150, "--seed", 5,
        "--out-dir", out_dir,
    )
    assert code == 0
    return out_dir


class TestSimulate:
    def test_writes_rows_and_manifest(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli("simulate", "--alpha", 2.5, "--beta", 1.8, "--sigma", 15,
                       "--n", 100, "--seed", 42, "--out", out) == 0
        data = load_csv(out)
        assert data.n_rows == 100 and data.column_names() == ["X", "y"]
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert str(out) in manifest["outputs"]

    def test_negative_sigma_fails(self, tmp_path, capsys):
        code = run_cli("simulate", "--sigma", -1, "--out", tmp_path / "d.csv")
        assert code != 0
        assert "sigma" in capsys.readouterr().err

    def test_default_x_range_is_0_100(self, tmp_path):
        out = tmp_path / "d.csv"
        run_cli("simulate", "--n", 500, "--seed", 1, "--out", out)
        x = load_csv(out).columns["X"]
        assert x.min() >= 0.0 and x.max() <= 100.0 and x.max() > 90.0
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert (manifest["config"]["x_low"], manifest["config"]["x_high"]) == (SimConfig.x_low, SimConfig.x_high)

    @pytest.mark.parametrize("n", [2**62, 2**63 - 1])  # numpy refuses both before it allocates
    def test_more_rows_than_an_array_holds_fail_in_one_line(self, tmp_path, capsys, n):
        assert run_cli("simulate", "--n", n, "--out", tmp_path / "d.csv") == 1
        assert capsys.readouterr().err == f"simulate: DataError: n = {n} rows is more than an array can hold\n"
        args = ["--description-file", EXAMPLES / "linear_regression_description.txt", "--n", n]
        assert run_cli("run", *args, "--out-dir", tmp_path / "run") == 1
        assert capsys.readouterr().err == f"run: DataError: n = {n} rows is more than an array can hold\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [["--sigma", "1e308"], ["--alpha", "1e308", "--beta", "1e308"]],
                             ids=["sigma", "alpha-beta"])
    def test_overflow_is_one_error_line_and_no_warning(self, tmp_path, flags):
        env = {**os.environ, "PYTHONPATH": str(Path(plainbayes.__file__).parents[1])}
        for command, out in (("simulate", ["--out", tmp_path / "d.csv"]), ("run", ["--out-dir", tmp_path / "run"])):
            args = ["--description-file", EXAMPLES / "linear_regression_description.txt"] if command == "run" else []
            proc = subprocess.run([sys.executable, "-m", "plainbayes", command, *args, *flags, *out],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert (proc.returncode, proc.stderr) == (1, f"{command}: DataError: column 'y' contains non-finite entries\n")
        assert not any(tmp_path.iterdir())


class TestSeedBeyondPhiloxKeys:
    """A seed Philox cannot take fails in one line before any work (``run``
    without ``--data`` simulates from the seed, and the samplers take the
    same bound)."""

    SAMPLER_ERROR = "SamplerError: seed must be a non-negative integer below 2**128, got "

    def test_simulate(self, tmp_path, capsys):
        assert run_cli("simulate", "--seed", 2**128, "--out", tmp_path / "d.csv") == 1
        err = capsys.readouterr().err
        assert err == f"simulate: DataError: seed must be a non-negative integer below 2**128, got {2**128}\n"
        assert not any(tmp_path.iterdir())

    def test_fit(self, tmp_path, data_csv, capsys):
        code = run_cli("fit", "--model", EXAMPLES / "manual_priors_model.json", "--data", data_csv,
                       "--chains", 2, "--seed", 2**128, "--out-dir", tmp_path / "fit")
        assert code == 1
        assert capsys.readouterr().err == f"fit: {self.SAMPLER_ERROR}{2**128}\n"
        assert not (tmp_path / "fit").exists()

    def test_run_without_data(self, tmp_path, capsys):
        args = ["run", "--description-file", EXAMPLES / "linear_regression_description.txt", "--chains", 1]
        assert run_cli(*args, "--seed", 2**128, "--out-dir", tmp_path / "bad") == 1
        assert capsys.readouterr().err == f"run: {self.SAMPLER_ERROR}{2**128}\n"
        assert not (tmp_path / "bad").exists()
        # the largest seed both configs take
        small = ["--n", 20, "--warmup", 20, "--draws", 20]
        assert run_cli(*args, *small, "--seed", 2**128 - 1, "--out-dir", tmp_path / "ok") == 0
        manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
        assert manifest["config"]["simulate"]["seed"] == manifest["config"]["sampler"]["seed"] == 2**128 - 1


class TestElicit:
    def test_prior_to_stdout_and_file(self, tmp_path, capsys):
        beliefs = json.loads((EXAMPLES / "linear_regression_beliefs.json").read_text())
        out = tmp_path / "prior.json"
        code = run_cli("elicit-prior", "--param", "beta", "--belief", beliefs["beta"], "--out", out)
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == {"distribution": "Normal", "params": {"mu": 2.0, "sigma": 1.0}}
        assert json.loads(out.read_text()) == printed

    def test_prior_from_belief_file(self, tmp_path, capsys):
        beliefs = json.loads((EXAMPLES / "linear_regression_beliefs.json").read_text())
        belief = tmp_path / "belief.txt"
        belief.write_text(beliefs["beta"], encoding="utf-8")
        assert run_cli("elicit-prior", "--param", "beta", "--belief-file", belief) == 0
        assert json.loads(capsys.readouterr().out) == {"distribution": "Normal", "params": {"mu": 2.0, "sigma": 1.0}}

    def test_prior_without_belief_fails_in_one_line(self, capsys):
        assert run_cli("elicit-prior", "--param", "beta") == 1
        assert capsys.readouterr().err == "elicit-prior: PlainbayesError: provide --belief or --belief-file\n"

    def test_exhausted_retries_print_the_last_response(self, tmp_path, capsys):
        # every attempt's response fails to parse: one error line, then the last response's excerpt
        FixtureStore(tmp_path).put(render_prior_prompt("beta", "b"), "no object here " * 20, "m")
        code = run_cli("elicit-prior", "--param", "beta", "--belief", "b", "--fixtures-dir", tmp_path,
                       "--max-retries", 0)
        assert code == 1
        first, second = capsys.readouterr().err.splitlines()
        assert first.startswith("elicit-prior: ElicitationFailed: all attempts exhausted; last error: ")
        assert second == f"last response excerpt: {('no object here ' * 20)[:200]!r}"

    def test_model_file_contents(self, model_json):
        obj = json.loads(model_json.read_text())
        assert obj["likelihood"]["formula"] == "alpha + beta * X"
        assert obj["priors"]["beta"] == {"distribution": "Exponential", "params": {"lam": 0.5}}

    def test_unseen_prompt_fails(self, tmp_path, capsys):
        code = run_cli("elicit-prior", "--param", "zeta", "--belief", "no fixture for this")
        assert code != 0
        assert "FixtureMiss" in capsys.readouterr().err

    def test_live_without_key_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        code = run_cli(
            "elicit-prior", "--param", "beta", "--belief", "b",
            "--llm-mode", "live", "--endpoint-url", "https://example.invalid",
        )
        assert code != 0
        assert "MissingApiKey" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ['{"response_text": ', '{"x": 1}'])
    def test_corrupt_fixture_fails_in_one_line(self, tmp_path, capsys, body):
        description = EXAMPLES / "linear_regression_description.txt"
        prompt = render_model_prompt(description.read_text(encoding="utf-8"))
        fixture = FixtureStore(tmp_path).path_for(prompt)
        fixture.write_text(body, encoding="utf-8")
        code = run_cli("elicit-model", "--description-file", description, "--fixtures-dir", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("elicit-model: ElicitationError: ") and str(fixture) in err
        assert err.count("\n") == 1

    def test_nonpositive_timeout_fails_in_one_line(self, capsys, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "k")
        code = run_cli(
            "elicit-model", "--description-file", EXAMPLES / "linear_regression_description.txt",
            "--llm-mode", "live", "--endpoint-url", "http://127.0.0.1:9/x", "--timeout", -1,
        )
        assert code == 1
        assert capsys.readouterr().err == "elicit-model: ElicitationError: timeout must be finite and > 0, got -1.0\n"


class TestFit:
    def test_prior_name_with_trailing_newline_fails_in_one_line(self, tmp_path, data_csv, capsys):
        # "unused\n" once passed validation, and the fit wrote a trace whose header broke in two
        obj = json.loads((EXAMPLES / "manual_priors_model.json").read_text())
        obj["priors"]["unused\n"] = {"distribution": "Normal", "params": {"mu": 0, "sigma": 1}}
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(obj))
        code = run_cli("fit", "--model", bad, "--data", data_csv, "--out-dir", tmp_path / "f")
        assert code == 1
        err = capsys.readouterr().err
        assert err == "fit: MalformedJson: prior name 'unused\\n' is not a valid identifier\n"
        assert not (tmp_path / "f").exists()

    def test_outputs(self, fit_dir):
        trace = load_trace(fit_dir / "trace.csv", fit_dir / "stats.json")
        assert trace.param_names == ["alpha", "beta", "sigma"]
        assert trace.draws.shape == (2, 150, 3)
        manifest = json.loads((fit_dir / "manifest.json").read_text())
        assert len(manifest["input_hashes"]) == 2

    def test_missing_column_fails(self, tmp_path, data_csv, capsys):
        bad = tmp_path / "bad_model.json"
        obj = json.loads((EXAMPLES / "manual_priors_model.json").read_text())
        obj["likelihood"]["formula"] = "alpha + beta * Z"
        bad.write_text(json.dumps(obj))
        code = run_cli("fit", "--model", bad, "--data", data_csv, "--out-dir", tmp_path / "f")
        assert code != 0
        assert "UnresolvedVariable" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()  # validated before the output directory is made

    @pytest.mark.parametrize("old, new, message", [
        ('"alpha + beta * X"', '"alpha + 1e999 * X"', "LiteralOverflow: number at position 8 overflows a float: 1e999"),
        ('"sigma": 100', '"sigma": 1' + "0" * 400, "InvalidParamValue: Normal: parameter 'sigma' must be finite, got inf"),
    ])
    def test_number_beyond_float_range_fails_in_one_line(self, tmp_path, data_csv, capsys, old, new, message):
        bad = tmp_path / "bad_model.json"
        bad.write_text((EXAMPLES / "manual_priors_model.json").read_text().replace(old, new, 1))
        code = run_cli("fit", "--model", bad, "--data", data_csv, "--out-dir", tmp_path / "f")
        assert code == 1
        assert capsys.readouterr().err == f"fit: {message}\n"

    @pytest.mark.parametrize("algorithm", ["nuts", "rwm"])
    def test_uniform_width_beyond_float_range_fails_in_one_line(self, tmp_path, data_csv, capsys, algorithm):
        # each bound is finite and their difference is not: rejected with the blueprint, before any
        # density call (which gave NaN, after a RuntimeWarning, for either algorithm)
        bad = tmp_path / "bad_model.json"
        prior = '{"distribution": "Uniform", "params": {"lower": -1e308, "upper": 1e308}}'
        bad.write_text((EXAMPLES / "manual_priors_model.json").read_text().replace(
            '{"distribution": "Normal", "params": {"mu": 0, "sigma": 100}}', prior, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("fit", "--model", bad, "--data", data_csv, "--algorithm", algorithm, "--jobs", 1,
                           "--out-dir", tmp_path / "f")
        assert code == 1 and not caught
        assert capsys.readouterr().err == (
            "fit: InvalidParamValue: Uniform: lower must be < upper, upper - lower finite, got lower=-1e+308, upper=1e+308\n")

    def test_rwm_same_contract(self, tmp_path, data_csv, model_json):
        out_dir = tmp_path / "rwm"
        code = run_cli(
            "fit", "--model", model_json, "--data", data_csv, "--algorithm", "rwm",
            "--chains", 2, "--warmup", 150, "--draws", 100, "--out-dir", out_dir,
        )
        assert code == 0
        trace = load_trace(out_dir / "trace.csv", out_dir / "stats.json")
        assert trace.draws.shape == (2, 100, 3)
        assert "step_accepted" in trace.stats

    @pytest.mark.parametrize("algorithm", ["nuts", "rwm"])
    def test_affine_fit_sums_no_rows(self, tmp_path, monkeypatch, data_csv, model_json, algorithm):
        # the demo mean alpha + beta * X is affine: the factorisation sums over the rows once, when the
        # posterior is built, and no density call of the fit falls through to the rows, whose every
        # sum over the rows goes through posterior.row_sum
        row_sums, build = [], cli.build_posterior

        def built(*args, **kwargs):
            pf = build(*args, **kwargs)
            row_sums.clear()
            return pf

        monkeypatch.setattr(posterior, "row_sum", lambda a: row_sums.append(a.shape) or np.add.reduce(a))
        monkeypatch.setattr(cli, "build_posterior", built)
        code = run_cli(
            "fit", "--model", model_json, "--data", data_csv, "--algorithm", algorithm,
            "--chains", 2, "--warmup", 200, "--draws", 100, "--jobs", 1, "--seed", 3,
            "--out-dir", tmp_path / "fit",
        )
        assert code == 0 and not row_sums


class TestConfigDefaults:
    """With no sampler or LLM flags, a command runs and records the config
    dataclasses' own defaults."""

    @pytest.fixture()
    def sampled_configs(self, monkeypatch):
        configs = []
        sample = sampler.sample

        def short_sample(pf, cfg, *, jobs=None):  # the given config, recorded; a short fit
            configs.append(cfg)
            return sample(pf, SamplerConfig(chains=2, warmup_draws=20, kept_draws=10), jobs=1)

        monkeypatch.setattr(sampler, "sample", short_sample)
        return configs

    def test_fit(self, tmp_path, data_csv, sampled_configs):
        out_dir = tmp_path / "fit"
        assert run_cli("fit", "--model", EXAMPLES / "manual_priors_model.json", "--data", data_csv,
                       "--out-dir", out_dir) == 0
        assert sampled_configs == [SamplerConfig()]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"] == {"sampler": dataclasses.asdict(SamplerConfig()), "response_column": "y"}

    def test_run(self, tmp_path, sampled_configs):
        out_dir = tmp_path / "run"
        assert run_cli("run", "--description-file", EXAMPLES / "linear_regression_description.txt",
                       "--out-dir", out_dir) == 0
        assert sampled_configs == [SamplerConfig()]
        config = json.loads((out_dir / "manifest.json").read_text())["config"]
        assert config["sampler"] == dataclasses.asdict(SamplerConfig())
        llm = dataclasses.asdict(LlmConfig(fixtures_dir=str(packaged_fixtures_dir())))
        assert config["llm"] == llm
        sim = SimConfig(alpha=2.5, beta=1.8, sigma=15.0, n=100, seed=SamplerConfig.seed)
        assert config["simulate"] == dataclasses.asdict(sim)


def _trace_with_one_bad_cell(tmp_path, bad: str) -> Path:
    """A 50-draw, one-parameter trace CSV whose 18th draw is ``bad``."""
    values = [repr(0.01 * d) for d in range(50)]
    values[17] = bad
    trace = tmp_path / "t.csv"
    trace.write_text("chain,draw,a\n" + "".join(f"0,{d},{v}\n" for d, v in enumerate(values)))
    return trace


class TestSummarize:
    def test_text_output(self, fit_dir, capsys):
        assert run_cli("summarize", "--trace", fit_dir / "trace.csv") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == [
            "parameter", "mean", "mode", "sd", "hdi_3%", "hdi_97%", "ess_bulk", "r_hat",
        ]
        assert "beta" in out

    def test_json_format(self, fit_dir, capsys):
        assert run_cli("summarize", "--trace", fit_dir / "trace.csv", "--format", "json") == 0
        obj = json.loads(capsys.readouterr().out)
        assert set(obj["parameters"]) == {"alpha", "beta", "sigma"}

    def test_custom_hdi(self, fit_dir, capsys):
        assert run_cli("summarize", "--trace", fit_dir / "trace.csv", "--hdi", 0.5) == 0
        assert "hdi_25%" in capsys.readouterr().out

    def test_nan_draw_gives_nan_cells(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        values = ["0.1", "0.4", "nan", "0.3", "0.9", "0.2", "0.6", "0.5"]
        trace.write_text("chain,draw,a\n" + "".join(f"0,{d},{v}\n" for d, v in enumerate(values)))
        with pytest.warns(SummaryCellWarning):  # mode_estimate needs 10 draws
            assert run_cli("summarize", "--trace", trace, "--format", "json") == 0
        row = json.loads(capsys.readouterr().out)["parameters"]["a"]
        assert all(math.isnan(row[k]) for k in ("mean", "hdi_low", "hdi_high", "ess_bulk"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_draw_prints_nan_cells(self, tmp_path, capsys, bad):
        assert run_cli("summarize", "--trace", _trace_with_one_bad_cell(tmp_path, bad)) == 0
        cells = capsys.readouterr().out.splitlines()[1].split()
        assert cells == ["a", bad] + ["nan"] * 6

    def test_bad_hdi_fails_before_reading(self, tmp_path, capsys):
        assert run_cli("summarize", "--trace", tmp_path / "missing.csv", "--hdi", 2) == 1
        assert capsys.readouterr().err == "summarize: PlainbayesError: hdi prob must be in (0, 1), got 2.0\n"


_TWO_DRAWS = "chain,draw,a\n0,0,0.5\n0,1,0.25\n"


class TestMalformedTrace:
    """A trace or stats sidecar that ``load_trace`` cannot read fails ``summarize``, and ``plot``
    where it reads no sidecar, with one stderr line naming the file, and the line where the
    message has one: no traceback, and nothing written.  A trace's parameter names become
    summary rows and plot file names, so they must be distinct identifiers."""

    CASES = {  # id: (trace bytes, sidecar JSON bytes or None, the message after the failing file's path)
        "empty": (b"", None, ": empty trace file"),
        "bad-header": (b"chain,step,a\n0,0,0.5\n", None, ": expected header 'chain,draw,<params...>'"),
        "repeated-name": (b"chain,draw,a,a\n0,0,0.5,0.5\n", None, ": parameter column 'a' is not a distinct identifier"),
        "empty-name": (b"chain,draw,\n0,0,0.5\n", None, ": parameter column '' is not a distinct identifier"),
        "path-name": (b"chain,draw,../x\n0,0,0.5\n", None, ": parameter column '../x' is not a distinct identifier"),
        "short-row": (b"chain,draw,a,b\n0,0,0.5,1.5\n0,1,0.5\n", None, ":3: expected 4 cells, got 3"),
        "bad-cell": (b"chain,draw,a\n0,0,0.5\n0,1,x\n", None, ":3: could not convert string to float: 'x'"),
        "bad-draw-id": (b"chain,draw,a\n0,1.0,0.5\n", None, ":2: invalid literal for int() with base 10: '1.0'"),
        "not-utf8": (b"chain,draw,a\n0,0,0.5\n\n0,1,0.\xff\n", None, ":4: could not convert string to float: '0.\ufffd'"),
        "no-draws": (b"chain,draw,a\n\n", None, ": no draws"),
        "missing-draw": (b"chain,draw,a\n0,0,0.5\n0,2,0.5\n", None, ": expected 3 rows, found 2"),
        "duplicate-draw": (b"chain,draw,a\n0,0,0.5\n0,0,0.5\n1,0,0.5\n1,1,0.5\n", None, ": duplicate (chain=0, draw=0)"),
        "short-chain": (b"chain,draw,a\n0,0,0.5\n0,1,0.5\n1,0,0.5\n", None, ": expected 4 rows, found 3"),
        "stat-shape": (_TWO_DRAWS.encode(), b'{"stats": {"accept_prob": [[0.5]]}}',
                       ": stat 'accept_prob' has shape (1, 1), expected (1, 2)"),
        "stat-ragged": (_TWO_DRAWS.encode(), b'{"stats": {"accept_prob": [[0.5, 0.5], [0.5]]}}',
                        ": stat 'accept_prob': setting an array element with a sequence."),
        "sidecar-names": (_TWO_DRAWS.encode(), b'{"param_names": ["b"], "stats": {}}',
                          ": sidecar parameters ['b'] do not match trace header ['a']"),
        "sidecar-names-not-a-list": (_TWO_DRAWS.encode(), b'{"param_names": 5, "stats": {}}',
                                     ": sidecar parameters 5 do not match trace header ['a']"),
        "sidecar-config": (_TWO_DRAWS.encode(), b'{"config": {"chains": 0}, "stats": {}}',
                           ": bad sampler config: chains must be >= 1, got 0"),
        "sidecar-not-json": (_TWO_DRAWS.encode(), b'{"stats": ', ": not valid JSON: Expecting value: line 1 column 11"),
        "sidecar-not-utf8": (_TWO_DRAWS.encode(), b'{"stats": "\xff"}', ": not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    }

    @pytest.mark.parametrize("case, command", [(case, command) for case, (_, stats, _) in CASES.items()
                                               for command in ("summarize", "plot")[:1 if stats else 2]])
    def test_fails_in_one_line_and_writes_nothing(self, tmp_path, capsys, case, command):
        trace_bytes, stats_bytes, message = self.CASES[case]
        trace, stats, out = tmp_path / "t.csv", tmp_path / "stats.json", tmp_path / "out"
        trace.write_bytes(trace_bytes)
        args = ["--trace", trace]
        if stats_bytes is not None:
            stats.write_bytes(stats_bytes)
            args += ["--stats", stats]
        args += ["--out-dir", out] if command == "plot" else ["--out", out / "summary.txt"]
        assert run_cli(command, *args) == 1
        captured = capsys.readouterr()
        failing = trace if stats_bytes is None else stats
        assert captured.err.startswith(f"{command}: MalformedTrace: {failing}{message}")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n") and not captured.out
        assert not out.exists()

    def test_blank_lines_load_the_same_draws(self, tmp_path, capsys):
        lines = ["chain,draw,a,b"] + [f"{c},{d},{0.1 * c + d},{-d / 7}" for c in range(2) for d in range(12)]
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        plain.write_text("\n".join(lines) + "\n")
        blank.write_text("\n".join([lines[0], "", *lines[1:13], "  ", "\r", *lines[13:], "", ""]))
        assert load_trace(blank).draws.tobytes() == load_trace(plain).draws.tobytes()
        summaries = []
        for trace in (plain, blank):
            assert run_cli("summarize", "--trace", trace) == 0
            summaries.append(capsys.readouterr())
        assert summaries[0] == summaries[1] and summaries[0].err == ""


class TestPlot:
    def test_single_trace(self, fit_dir, tmp_path):
        plots = tmp_path / "plots"
        assert run_cli("plot", "--trace", fit_dir / "trace.csv", "--out-dir", plots, "--bins", 30) == 0
        for name in ("alpha", "beta", "sigma"):
            assert (plots / f"hist_{name}.csv").exists()
            svg = (plots / f"hist_{name}.svg").read_text()
            assert svg.startswith("<svg") and name in svg

    def test_histogram_counts_sum_to_draws(self, fit_dir, tmp_path):
        plots = tmp_path / "plots"
        run_cli("plot", "--trace", fit_dir / "trace.csv", "--out-dir", plots)
        lines = (plots / "hist_beta.csv").read_text().strip().splitlines()
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 2 * 150

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_draw_fails_in_one_line(self, tmp_path, capsys, bad):
        assert run_cli("plot", "--trace", _trace_with_one_bad_cell(tmp_path, bad), "--out-dir", tmp_path / "p") == 1
        err = capsys.readouterr().err
        assert err == "plot: NonFiniteDraws: parameter 'a' has non-finite draws; cannot bin them\n"

    def test_bad_bins_fail_before_reading(self, tmp_path, capsys):
        assert run_cli("plot", "--trace", tmp_path / "missing.csv", "--bins", 0, "--out-dir", tmp_path / "p") == 1
        assert capsys.readouterr().err == "plot: PlainbayesError: bins must be >= 1, got 0\n"

    def test_mismatched_params_fail(self, fit_dir, tmp_path, capsys):
        other = tmp_path / "other.csv"
        other.write_text("chain,draw,theta\n0,0,1.0\n0,1,2.0\n")
        code = run_cli("plot", "--trace", fit_dir / "trace.csv", "--compare", other,
                       "--out-dir", tmp_path / "p")
        assert code != 0
        assert "PlotMismatch" in capsys.readouterr().err

    def test_labels_are_escaped_in_well_formed_svg(self, fit_dir, tmp_path):
        labels = ("prior <elicited> & co", "a<b & \"c\"")
        assert run_cli("plot", "--trace", fit_dir / "trace.csv", "--compare", fit_dir / "trace.csv",
                       "--label", labels[0], "--compare-label", labels[1], "--out-dir", tmp_path / "p") == 0
        for name in ("alpha", "beta", "sigma"):
            root = ElementTree.parse(tmp_path / "p" / f"hist_{name}.svg").getroot()
            texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
            assert texts[0] == texts[-4] == name and texts[-3] == "count" and tuple(texts[-2:]) == labels


RECIP_MODEL = {
    "priors": {
        "alpha": {"distribution": "Normal", "params": {"mu": 0, "sigma": 25}},
        "tau": {"distribution": "Exponential", "params": {"lam": 1}},
        "sigma": {"distribution": "HalfNormal", "params": {"sigma": 25}},
    },
    "likelihood": {"distribution": "Normal", "formula": "alpha + X / tau"},
}
# a mean not affine in X, which the factorisation cannot serve: every call sums over the rows
ROWS_MODEL = {**RECIP_MODEL, "likelihood": {"distribution": "Normal", "formula": "alpha / (X + tau)"}}


class TestDrawsLocked:
    """Short fixed-seed fits must keep writing the same ``trace.csv`` and
    ``stats.json``.

    The hashes were recorded on x86-64 Linux (Python 3.11.7, numpy 2.4.6,
    OpenBLAS single-threaded) when the samplers began to step in Python
    floats, drawing each chain's normals and uniforms from two streams keyed
    by (seed, chain, purpose), which moved every draw.  ``nuts-linear-depth2``
    caps its trees at depth 2, which most kept trees reach, an exit the other
    fits seldom take.  The stats hashes also pin the stat names, their order
    and their dtypes.  A change that moves the draws updates them and names
    the change in CHANGES.md.  ``nuts-recip``'s mean, ``alpha + X / tau``, is
    affine in X, so the factorisation serves it as it does the linear fits;
    ``nuts-rows``'s, ``alpha / (X + tau)``, is not, and every call sums over
    the rows.  Its hashes were recorded when those sums left BLAS for
    numpy's pairwise sum of an elementwise product, and the rows' gradient
    came to be taken through t = (y - mu) / sigma, which moved its draws.
    No fit calls a BLAS routine, so every hash holds under any BLAS kernel
    and thread count (``TestDrawsIndependentOfTheCpu``).
    """

    HASHES = {
        "nuts-linear": "9f577bdc283b4b5fc9aae8e0502e39f9cce62595ef7eabee08b25d3c3e73edda",
        "nuts-linear-depth2": "af10084e6bc77baaef7190bba57277a4dc5cc10965c336534b44b8871b2bec57",
        "nuts-recip": "03f5a23a6cd9483c1acef801621b8cea593ce1b2b3620c92c58bab4e42175a13",
        "nuts-rows": "a9276451c58ae61380804d57021a48646b2bafe4f32e1b0292dde4acb212adb1",
        "rwm-linear": "4cecca95571f800c33254f37d1ea98912e20a720c7cbf821892ba6d687c0e7b3",
    }
    STATS_HASHES = {
        "nuts-linear": "206f053075d097d2e655a7816bfe5fa7763f89dd851e220284012294bb60c2e5",
        "nuts-linear-depth2": "7e34dd91bc26b4a605be6136682cf18b4e30dc2bedb604fd6d5ae228bc44be11",
        "nuts-recip": "7f2af420ab138d9d018f4d6aa65f5cd563a3ca0f84865c20c1e4440bd1ca97e1",
        "nuts-rows": "9c242cb5ffb7e100e9950878bd8beb295636927d26cef00057484f40a9954ef7",
        "rwm-linear": "02fd374f1942e0ba0d362c3858bb6927ae9a17287e2371a912599dd221556ea6",
    }

    @pytest.mark.parametrize("case", sorted(HASHES))
    def test_trace_hash(self, tmp_path, case):
        data = tmp_path / "data.csv"
        assert run_cli("simulate", "--n", 40, "--seed", 42, "--out", data) == 0
        algorithm, model = case.split("-")[:2]
        depth_flags = ["--max-tree-depth", "2"] if case.endswith("-depth2") else []
        if model == "linear":
            model_json = EXAMPLES / "manual_priors_model.json"
        else:
            model_json = tmp_path / "model.json"
            model_json.write_text(json.dumps(RECIP_MODEL if model == "recip" else ROWS_MODEL))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(Path(plainbayes.__file__).parents[1])}
        subprocess.run(
            [
                sys.executable, "-m", "plainbayes", "fit", "--model", str(model_json), "--data", str(data),
                "--algorithm", algorithm, "--chains", "2", "--warmup", "150", "--draws", "100",
                "--seed", "11", *depth_flags, "--out-dir", str(tmp_path / "fit"),
            ],
            env=env, check=True, capture_output=True,
        )
        digest = hashlib.sha256((tmp_path / "fit" / "trace.csv").read_bytes()).hexdigest()
        assert digest == self.HASHES[case]
        digest = hashlib.sha256((tmp_path / "fit" / "stats.json").read_bytes()).hexdigest()
        assert digest == self.STATS_HASHES[case]


_LOCKED_FITS = """
import sys
from plainbayes import cli
for algorithm in ("nuts", "rwm"):
    argv = ["fit", "--model", sys.argv[1], "--data", sys.argv[2], "--algorithm", algorithm, "--chains", "2",
            "--warmup", "150", "--draws", "100", "--seed", "11", "--out-dir", sys.argv[3] + "/" + algorithm]
    assert cli.main(argv) == 0
"""


class TestDrawsIndependentOfTheCpu:
    """OpenBLAS picks its kernels by CPU, and kernels with and without FMA round a dot product
    differently.  No fit calls a BLAS routine: the samplers and the factorisation sum in
    Python floats, and the rows by numpy's pairwise sum of an elementwise product.  So a fit
    writes the same bytes under every kernel the host can run, whatever its mean; one
    subprocess per kernel runs TestDrawsLocked's NUTS and RWM fits, of the demo model and of
    a mean on the rows.  The rows' fits also run on numpy's baseline loops alone, with every
    SIMD target numpy dispatches to on this CPU disabled; other CPUs' targets are not covered."""

    KERNELS = {"host": {}, **{coretype: {"OPENBLAS_CORETYPE": coretype} for coretype in ("Prescott", "Sandybridge", "Haswell")}}

    @staticmethod
    def _written(tmp_path, model_json, data_csv, variants):
        """Per variant, the files the fits write with its environment entries set."""
        written = {}
        for name, entries in variants.items():
            env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(Path(plainbayes.__file__).parents[1])}
            env.pop("OPENBLAS_CORETYPE", None)
            env.pop("NPY_DISABLE_CPU_FEATURES", None)
            out = tmp_path / name
            argv = [sys.executable, "-c", _LOCKED_FITS, str(model_json), str(data_csv), str(out)]
            subprocess.run(argv, env={**env, **entries}, check=True, capture_output=True)
            written[name] = [(out / fit / file).read_bytes() for fit in ("nuts", "rwm") for file in ("trace.csv", "stats.json")]
        return written

    def test_same_bytes_under_every_openblas_kernel(self, tmp_path, data_csv):
        written = self._written(tmp_path, EXAMPLES / "manual_priors_model.json", data_csv, self.KERNELS)
        assert all(files == written["host"] for files in written.values())

    def test_rows_same_bytes_under_every_openblas_kernel(self, tmp_path, data_csv):
        try:  # the module's place in numpy 2, then in numpy 1
            from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        except ImportError:
            from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        model_json = tmp_path / "model.json"
        model_json.write_text(json.dumps(ROWS_MODEL))
        targets = " ".join(target for target in __cpu_dispatch__ if __cpu_features__.get(target))
        variants = {**self.KERNELS, "numpy-baseline": {"NPY_DISABLE_CPU_FEATURES": targets}}
        written = self._written(tmp_path, model_json, data_csv, variants)
        assert all(files == written["host"] for files in written.values())


class TestReportsLocked:
    """A short fixed-seed Experiment I run must keep writing the same summaries
    and histograms, for the elicited model and the manual baseline.

    The hashes were recorded where TestDrawsLocked's were (x86-64 Linux,
    Python 3.11.7, numpy 2.4.6, OpenBLAS single-threaded) with them, when
    the samplers' float core and streams moved the draws of both fits.  5 000
    pooled draws per fit make the mode's kernel sum span two chunks of 4 096.
    The summaries' were recorded again, the histograms' kept, when bulk ESS
    took Stan's truncation of the autocorrelations.
    """

    HASHES = {
        "summary.txt": "4a57c6b66d533a4d80a362358ff8e563dfd38e9c72427daf7a5f7ae54b836eb6",
        "summary.json": "0ec8307cffa7a1c8107c07d5fd3f426cc763d4c88accb75da1d578d342945016",
        "summary.csv": "c29ee3db709a58814cc44727efcf8a658d350df8c5ef9bdc35bf95abbb7de09e",
        "compare_summary.txt": "bb1d998a6e8d5263d8ca0309f5a6f74a98e6cb43413dac7c27d919e04dd1e7b7",
        "compare_summary.json": "88c7c3dcda4d8d36dcc90316376b1768fce65802d7d07de277815938a16b0cea",
        "compare_summary.csv": "c4be8906b1b01466380468d72c00fb6745a4726ca9bc6e20b4f3e98f418a1acf",
        "plots/hist_alpha.csv": "f0bfb139cc98b231e6c995869f401482c6a1f86b2ebef1668f48deb0cf10d327",
        "plots/hist_alpha.svg": "1112e53f0e32487cb032d3b151aae80102ff4293c35aa8976d2b552d0ac7f7fa",
        "plots/hist_beta.csv": "141d9780fe9afb6bd59b7a430fb75dcde0ec9ae090a76503f4899509637a188f",
        "plots/hist_beta.svg": "eeb7cdce059ded6db7880ca214699df8f5d995b7856977325e2e865b786e9132",
        "plots/hist_sigma.csv": "08004eebfd75e2f11460273b682fa26648149aab11e5bf76c81f8b77d5d163ca",
        "plots/hist_sigma.svg": "525a10e94ca2938a438df19ef68d1511946d86036b898b435ff146adf581c575",
    }

    def test_report_hashes(self, tmp_path):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(Path(plainbayes.__file__).parents[1])}
        subprocess.run(
            [
                sys.executable, "-m", "plainbayes", "run",
                "--beliefs-file", str(EXAMPLES / "linear_regression_beliefs.json"),
                "--compare-model", str(EXAMPLES / "manual_priors_model.json"), "--algorithm", "rwm",
                "--n", "40", "--seed", "42", "--chains", "2", "--warmup", "500", "--draws", "2500",
                "--out-dir", str(tmp_path),
            ],
            env=env, check=True, capture_output=True,
        )
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.HASHES}
        assert digests == self.HASHES


class TestDrawsIndependentOfBlasThreads:
    def test_large_n_trace_same_with_one_and_two_threads(self, tmp_path):
        # the mean is affine in X: the factorisation takes its sums over the 20 000 rows once, in
        # Python floats, and no call takes a sum over the rows
        data = tmp_path / "data.csv"
        assert run_cli("simulate", "--n", 20000, "--seed", 3, "--out", data) == 0
        model_json = tmp_path / "model.json"
        model_json.write_text(json.dumps(RECIP_MODEL))
        traces = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(Path(plainbayes.__file__).parents[1])}
            subprocess.run(
                [
                    sys.executable, "-m", "plainbayes", "fit", "--model", str(model_json), "--data", str(data),
                    "--chains", "2", "--warmup", "30", "--draws", "20", "--seed", "5",
                    "--out-dir", str(tmp_path / threads),
                ],
                env=env, check=True, capture_output=True,
            )
            traces.append((tmp_path / threads / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    def test_large_n_row_sums_same_with_one_and_two_threads(self, tmp_path):
        # the mean above is affine in X and takes its sums over the rows once, to
        # factorise [1, X]; this one is not, and sums over the rows at every call
        # (shallow trees: each of its calls costs O(n))
        data = tmp_path / "data.csv"
        assert run_cli("simulate", "--n", 20000, "--seed", 3, "--out", data) == 0
        model_json = tmp_path / "model.json"
        model_json.write_text(json.dumps(ROWS_MODEL))
        traces = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(Path(plainbayes.__file__).parents[1])}
            subprocess.run(
                [
                    sys.executable, "-m", "plainbayes", "fit", "--model", str(model_json), "--data", str(data),
                    "--chains", "2", "--warmup", "10", "--draws", "10", "--max-tree-depth", "3", "--seed", "5",
                    "--out-dir", str(tmp_path / threads),
                ],
                env=env, check=True, capture_output=True,
            )
            traces.append((tmp_path / threads / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    def test_small_n_dense_metric_same_with_one_and_two_threads(self, tmp_path):
        # 200 warm-up draws close two metric windows: the dense metric's
        # factors, its products with the momentum and the momentum's draw
        data = tmp_path / "data.csv"
        assert run_cli("simulate", "--n", 100, "--seed", 3, "--out", data) == 0
        traces = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(Path(plainbayes.__file__).parents[1])}
            subprocess.run(
                [
                    sys.executable, "-m", "plainbayes", "fit", "--model", str(EXAMPLES / "manual_priors_model.json"),
                    "--data", str(data), "--chains", "2", "--warmup", "200", "--draws", "100", "--seed", "5",
                    "--out-dir", str(tmp_path / threads),
                ],
                env=env, check=True, capture_output=True,
            )
            traces.append((tmp_path / threads / "trace.csv").read_bytes())
        assert traces[0] == traces[1]


# Runs the CLI with each chain worker's pid appended to the file argv[1].
_LOGGED_FORK_MAIN = """
import sys
from plainbayes import cli, sampler

fork = sampler._fork

def logged_fork():
    pid = fork()
    if pid:
        with open(sys.argv[1], "a") as fh:
            fh.write(f"{pid}\\n")
    return pid

sampler._fork = logged_fork
sys.exit(cli.main(sys.argv[2:]))
"""


class TestChainWorkers:
    """``--jobs`` sets how many forked workers run the chains and changes no output byte."""

    @pytest.mark.parametrize("algorithm", ["nuts", "rwm"])
    @pytest.mark.parametrize("chains,jobs", [(3, 2), (2, 5)])
    def test_same_bytes_as_in_process(self, tmp_path, data_csv, worker_pids, algorithm, chains, jobs):
        args = [
            "fit", "--model", EXAMPLES / "manual_priors_model.json", "--data", data_csv, "--algorithm", algorithm,
            "--chains", chains, "--warmup", 150, "--draws", 100, "--seed", 11,
        ]
        assert run_cli(*args, "--jobs", 1, "--out-dir", tmp_path / "serial") == 0
        assert worker_pids == []
        assert run_cli(*args, "--jobs", jobs, "--out-dir", tmp_path / "workers") == 0
        assert len(worker_pids) == min(chains, jobs)
        for name in ("trace.csv", "stats.json"):
            assert (tmp_path / "workers" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()

    def test_one_chain_never_forks(self, tmp_path, data_csv, monkeypatch):
        def no_fork():
            raise AssertionError("forked a worker for one chain")

        monkeypatch.setattr(os, "fork", no_fork)
        code = run_cli(
            "fit", "--model", EXAMPLES / "manual_priors_model.json", "--data", data_csv,
            "--chains", 1, "--warmup", 50, "--draws", 20, "--out-dir", tmp_path / "fit",
        )
        assert code == 0

    @pytest.mark.parametrize("command", ["fit", "run"])
    def test_zero_jobs_is_a_one_line_error(self, tmp_path, data_csv, capsys, command):
        if command == "fit":
            args = ["--model", EXAMPLES / "manual_priors_model.json", "--data", data_csv]
        else:
            args = ["--description-file", EXAMPLES / "linear_regression_description.txt"]
        out_dir = tmp_path / "out"
        assert run_cli(command, *args, "--jobs", 0, "--out-dir", out_dir) == 1
        assert capsys.readouterr().err == f"{command}: SamplerError: jobs must be >= 1, got 0\n"
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize(
        "signum,returncode",
        [
            (signal.SIGINT, -signal.SIGINT),  # KeyboardInterrupt, re-raised as the signal at exit
            (signal.SIGTERM, 128 + signal.SIGTERM),
        ],
    )
    def test_signal_to_the_command_stops_its_workers(self, tmp_path, data_csv, signum, returncode):
        # the signal goes to the command's pid alone, as a benchmark or a job runner sends it
        log = tmp_path / "workers"
        env = {**os.environ, "PYTHONPATH": str(Path(plainbayes.__file__).parents[1])}
        argv = [
            sys.executable, "-c", _LOGGED_FORK_MAIN, str(log),
            "fit", "--model", str(EXAMPLES / "manual_priors_model.json"), "--data", str(data_csv),
            "--algorithm", "rwm", "--chains", "2", "--warmup", "10000000", "--draws", "10",
            "--out-dir", str(tmp_path / "fit"),
        ]
        pids = []
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            deadline = time.monotonic() + 60
            while len(pids) < 2:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
                pids = [int(pid) for pid in log.read_text().split()] if log.exists() else []
            proc.send_signal(signum)
            assert proc.wait(timeout=30) == returncode
            for pid in pids:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
        finally:
            proc.kill()
            proc.wait()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


# paper Experiment I: elicited priors against manual ones, two RWM fits of 4 chains
_EXPERIMENT_I = [
    "run", "--beliefs-file", EXAMPLES / "linear_regression_beliefs.json",
    "--compare-model", EXAMPLES / "manual_priors_model.json", "--algorithm", "rwm",
    "--n", 40, "--seed", 8, "--chains", 4,
]


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs: it is not gone, nor a zombie its new parent has yet to reap."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _outputs(out_dir: Path) -> dict:
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*")) if p.is_file() and p.name != "manifest.json"
    }


class TestFitWorkers:
    """``run`` forks one worker per fit, which gets ``worker_count`` divided across
    the fits for its chains, samples and reports; the command prints, plots and
    writes the manifest, with the same bytes at any ``--jobs``."""

    def test_same_bytes_and_stdout_at_any_job_count(self, tmp_path, capsys, worker_pids):
        runs = {}
        for jobs in (1, 2, 3, 5):  # 5: two chain workers inside each fit's worker
            out_dir = tmp_path / f"jobs{jobs}"
            assert run_cli(*_EXPERIMENT_I, "--warmup", 200, "--draws", 300, "--jobs", jobs, "--out-dir", out_dir) == 0
            stdout = capsys.readouterr().out.replace(str(out_dir), "OUT")
            manifest = json.loads((out_dir / "manifest.json").read_text())
            outputs = [Path(p).relative_to(out_dir) for p in manifest["outputs"]]
            runs[jobs] = _outputs(out_dir), stdout.rsplit("run complete in", 1)[0], outputs
            assert len(worker_pids) == (0 if jobs == 1 else 2)
            for pid in worker_pids:
                with pytest.raises(ChildProcessError):  # already reaped
                    os.waitpid(pid, os.WNOHANG)
            worker_pids.clear()
        assert "compare_summary.csv" in runs[1][0] and "plots/hist_beta.svg" in runs[1][0]
        assert "--- elicited model ---" in runs[1][1] and "--- baseline model ---" in runs[1][1]
        for jobs in (2, 3, 5):
            assert runs[jobs] == runs[1], jobs

    def test_cell_warnings_surface_in_the_command_as_in_process(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(plainbayes.__file__).parents[1])}
        stderr = {}
        for jobs in (1, 4):
            argv = [str(a) for a in (*_EXPERIMENT_I, "--warmup", 200, "--draws", 3, "--jobs", jobs, "--out-dir", tmp_path / str(jobs))]
            done = subprocess.run([sys.executable, "-m", "plainbayes", *argv], env=env, capture_output=True, check=True)
            stderr[jobs] = done.stderr.decode()
        assert stderr[1].count("SummaryCellWarning: ") == 12  # ess_bulk and r_hat of 3 parameters in 2 fits
        assert stderr[1].index("alpha/ess_bulk") < stderr[1].index("sigma/r_hat")
        assert stderr[4] == stderr[1]

    @pytest.mark.parametrize("failing", [("compare_",), ("", "compare_")], ids=["baseline", "both"])
    @pytest.mark.parametrize("error,line", [
        (lambda name: SamplerError(f"cannot write {name}"), "SamplerError: cannot write {}"),
        (lambda name: FileNotFoundError(2, "No such file or directory", name), "[Errno 2] No such file or directory: '{}'"),
    ], ids=["ours", "oserror"])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_a_failing_fit_is_one_line_and_every_worker_is_reaped(
        self, tmp_path, capsys, monkeypatch, worker_pids, failing, error, line, jobs
    ):
        save_trace = sampler.save_trace

        def save_or_fail(trace, csv_path, stats_path=None):
            if Path(csv_path).name[: -len("trace.csv")] in failing:
                raise error(Path(csv_path).name)
            save_trace(trace, csv_path, stats_path)

        monkeypatch.setattr(sampler, "save_trace", save_or_fail)
        assert run_cli(*_EXPERIMENT_I, "--warmup", 200, "--draws", 100, "--jobs", jobs, "--out-dir", tmp_path) == 1
        captured = capsys.readouterr()
        # the lowest-index failing fit's exception, whichever worker ends first
        assert captured.err == "run: " + line.format(f"{failing[0]}trace.csv") + "\n"
        assert captured.out == ""
        assert len(worker_pids) == (0 if jobs == 1 else 2)
        for pid in worker_pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
    @pytest.mark.parametrize("ending", ["finish", "sigterm"])
    def test_no_process_outlives_the_command(self, tmp_path, ending):
        # --jobs 4 over two fits of 4 chains: two fit workers, each forking two chain workers
        log = tmp_path / "workers"
        env = {**os.environ, "PYTHONPATH": str(Path(plainbayes.__file__).parents[1])}
        warmup = 100 if ending == "finish" else 10_000_000
        argv = [
            sys.executable, "-c", _LOGGED_FORK_MAIN, str(log),
            *(str(a) for a in _EXPERIMENT_I), "--warmup", str(warmup), "--draws", "50", "--jobs", "4",
            "--out-dir", str(tmp_path / "run"),
        ]
        pids = []
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            if ending == "finish":
                assert proc.wait(timeout=120) == 0
            else:
                deadline = time.monotonic() + 60
                while len(pids) < 6:
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.02)
                    pids = [int(pid) for pid in log.read_text().split()] if log.exists() else []
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=30) == 128 + signal.SIGTERM
            pids = [int(pid) for pid in log.read_text().split()]
            assert len(pids) == 6
            deadline = time.monotonic() + 10
            while any(_alive(pid) for pid in pids):  # a killed chain worker's new parent reaps it
                assert time.monotonic() < deadline, [pid for pid in pids if _alive(pid)]
                time.sleep(0.02)
        finally:
            proc.kill()
            proc.wait()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


class TestRun:
    def test_full_pipeline_replay(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        started = time.perf_counter()
        code = run_cli(
            "run",
            "--description-file", EXAMPLES / "linear_regression_description.txt",
            "--n", 40, "--seed", 42,
            "--chains", 2, "--warmup", 200, "--draws", 150,
            "--out-dir", out_dir,
        )
        wall = time.perf_counter() - started
        assert code == 0
        for name in (
            "data.csv", "model.json", "trace.csv", "stats.json",
            "summary.txt", "summary.json", "summary.csv", "manifest.json",
        ):
            assert (out_dir / name).exists(), name
        assert (out_dir / "plots" / "hist_sigma.svg").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "run"
        assert 0 <= manifest["elapsed_seconds"] <= wall + 0.0005  # rounded to the millisecond

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_reruns_are_byte_identical(self, tmp_path):
        args = [
            "run",
            "--description-file", EXAMPLES / "linear_regression_description.txt",
            "--n", 30, "--seed", 7, "--chains", 2, "--warmup", 150, "--draws", 100,
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out-dir", a) == 0
        assert run_cli(*args, "--out-dir", b) == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_beliefs_mode_with_comparison(self, tmp_path):
        out_dir = tmp_path / "cmp"
        code = run_cli(
            "run",
            "--beliefs-file", EXAMPLES / "linear_regression_beliefs.json",
            "--compare-model", EXAMPLES / "manual_priors_model.json",
            "--n", 40, "--seed", 42, "--chains", 2, "--warmup", 200, "--draws", 150,
            "--out-dir", out_dir,
        )
        assert code == 0
        assert (out_dir / "compare_trace.csv").exists()
        assert (out_dir / "compare_summary.json").exists()
        svg = (out_dir / "plots" / "hist_beta.svg").read_text()
        assert "elicited" in svg and "baseline" in svg

    def test_missing_description_file(self, tmp_path, capsys):
        code = run_cli("run", "--description-file", tmp_path / "nope.txt", "--out-dir", tmp_path / "r")
        assert code != 0

    def test_bad_simulation_flag_fails_before_any_work(self, tmp_path, capsys):
        description = EXAMPLES / "linear_regression_description.txt"
        assert run_cli("run", "--description-file", description, "--n", 0, "--out-dir", tmp_path / "r") == 1
        assert capsys.readouterr().err == "run: DataError: n must be >= 1, got 0\n"
        assert not (tmp_path / "r").exists()

    def test_requires_some_input(self, tmp_path, capsys):
        code = run_cli("run", "--out-dir", tmp_path / "r")
        assert code != 0
        assert "description-file" in capsys.readouterr().err

    def test_malformed_beliefs_file(self, tmp_path, capsys):
        bad = tmp_path / "beliefs.json"
        bad.write_text('["not", "an", "object"]')
        code = run_cli("run", "--beliefs-file", bad, "--out-dir", tmp_path / "r")
        assert code != 0
        assert "beliefs file" in capsys.readouterr().err


    def test_beliefs_file_not_json(self, tmp_path, capsys):
        bad = tmp_path / "beliefs.json"
        bad.write_text('{"alpha": ')
        assert run_cli("run", "--beliefs-file", bad, "--out-dir", tmp_path / "r") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"run: PlainbayesError: beliefs file {bad}: invalid JSON: ") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("mode", ["replay", "live", "record"])
    @pytest.mark.parametrize("key", ["my param", "unused\n"])
    def test_belief_key_not_an_identifier_fails_before_any_llm_call(self, tmp_path, capsys, monkeypatch, mode, key):
        beliefs = tmp_path / "beliefs.json"
        beliefs.write_text(json.dumps({"alpha": "about 0", key: "about 1", "sigma": "about 2"}))
        assert self._llm_calls(tmp_path, monkeypatch, mode, "--beliefs-file", beliefs) == []
        assert capsys.readouterr().err == (
            f"run: PlainbayesError: beliefs file {beliefs}: parameter name {key!r} is not a valid identifier\n")

    @pytest.mark.parametrize("flags, error", [
        (["--formula", "alpha +"], "run: UnexpectedEnd: expression ended unexpectedly\n"),
        (["--noise-param", "my sigma"], "run: InvalidSpec: noise parameter name 'my sigma' is not a valid identifier\n"),
    ], ids=["formula", "noise-param"])
    def test_bad_likelihood_flag_fails_before_any_llm_call(self, tmp_path, capsys, monkeypatch, flags, error):
        beliefs = EXAMPLES / "linear_regression_beliefs.json"
        assert self._llm_calls(tmp_path, monkeypatch, "live", "--beliefs-file", beliefs, *flags) == []
        assert capsys.readouterr().err == error

    @pytest.mark.parametrize("path", ["--description-file", "--beliefs-file"])
    @pytest.mark.parametrize("model, error", [
        ("{", "run: MalformedJson: "),
        (EXPERIMENT_MODEL_JSON.replace("beta * X", "beta * Z"),
         "run: UnresolvedVariable: variable 'Z' is neither a prior parameter nor a data column: "
         "formula 'alpha + beta * Z'\n"),
    ], ids=["malformed", "unresolved"])
    def test_compare_model_fails_before_any_llm_call(self, tmp_path, capsys, monkeypatch, path, model, error):
        compare = tmp_path / "compare.json"
        compare.write_text(model)
        inputs = {"--description-file": EXAMPLES / "linear_regression_description.txt",
                  "--beliefs-file": EXAMPLES / "linear_regression_beliefs.json"}
        assert self._replayed_calls(tmp_path, monkeypatch, path, inputs[path], "--compare-model", compare) == 0
        err = capsys.readouterr().err
        assert err.startswith(error) and err.count("\n") == 1

    @pytest.mark.parametrize("flags, error", [
        (["--formula", "alpha + gamma * X"],
         "UnresolvedVariable: variable 'gamma' is neither a prior parameter nor a data column: "
         "formula 'alpha + gamma * X'"),
        (["--data", "ALPHA_CSV"], "ShadowedColumn: prior name 'alpha' collides with a data column of the same name"),
        (["--noise-param", "tau"],
         "UnresolvedVariable: variable 'tau' is neither a prior parameter nor a data column: "
         "the likelihood noise parameter must name a prior"),
    ], ids=["formula", "shadowed-column", "noise-param"])
    def test_belief_names_checked_before_any_llm_call(self, tmp_path, capsys, monkeypatch, flags, error):
        data = tmp_path / "alpha.csv"
        data.write_text("X,y,alpha\n0,1,2\n1,3,2\n2,4,2\n")
        argv = [data if f == "ALPHA_CSV" else f for f in flags]
        beliefs = EXAMPLES / "linear_regression_beliefs.json"
        assert self._replayed_calls(tmp_path, monkeypatch, "--beliefs-file", beliefs, *argv) == 0
        assert capsys.readouterr().err == f"run: {error}\n"

    @staticmethod
    def _replayed_calls(tmp_path, monkeypatch, *argv) -> int:
        """How many LLM calls ``run`` makes on ``argv`` in replay mode, each answered from the
        packaged fixtures, asserting that it fails and writes nothing."""
        from plainbayes import elicitation
        calls, replay = [], elicitation.call_llm
        monkeypatch.setattr(elicitation, "call_llm", lambda prompt, cfg: calls.append(prompt) or replay(prompt, cfg))
        assert run_cli("run", *argv, "--chains", 1, "--out-dir", tmp_path / "r") == 1
        assert not (tmp_path / "r").exists()
        return len(calls)

    @staticmethod
    def _llm_calls(tmp_path, monkeypatch, mode, *argv) -> list:
        """The prompts ``run`` sends in ``mode``, on ``argv``, asserting that it fails and writes nothing."""
        from plainbayes import elicitation
        calls = []
        monkeypatch.setattr(elicitation, "call_llm", lambda prompt, cfg: calls.append(prompt) or "{}")
        monkeypatch.setenv("LLM_API_KEY", "k")
        llm = [] if mode == "replay" else ["--endpoint-url", "http://127.0.0.1:9/x", "--fixtures-dir", tmp_path]
        assert run_cli("run", *argv, "--llm-mode", mode, *llm, "--out-dir", tmp_path / "r") == 1
        assert not (tmp_path / "r").exists()
        return calls


class TestOutputsIntoMissingDirectories:
    """Every command makes the directory its outputs go into, before writing them."""

    FIT = ("--chains", 1, "--warmup", 20, "--draws", 10, "--jobs", 1)

    def test_simulate(self, tmp_path):
        out = tmp_path / "new" / "deeper" / "d.csv"
        assert run_cli("simulate", "--n", 5, "--out", out) == 0
        assert load_csv(out).n_rows == 5

    def test_elicit_prior(self, tmp_path, capsys):
        out = tmp_path / "new" / "deeper" / "prior.json"
        beliefs = json.loads((EXAMPLES / "linear_regression_beliefs.json").read_text())
        assert run_cli("elicit-prior", "--param", "beta", "--belief", beliefs["beta"], "--out", out) == 0
        assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)

    def test_elicit_model(self, tmp_path, capsys):
        out = tmp_path / "new" / "deeper" / "model.json"
        description = EXAMPLES / "linear_regression_description.txt"
        assert run_cli("elicit-model", "--description-file", description, "--out", out) == 0
        assert out.read_text() == capsys.readouterr().out
        assert out.with_suffix(".manifest.json").exists()

    def test_fit(self, tmp_path, data_csv):
        out_dir = tmp_path / "new" / "deeper"
        assert run_cli("fit", "--model", EXAMPLES / "manual_priors_model.json", "--data", data_csv,
                       *self.FIT, "--out-dir", out_dir) == 0
        assert load_trace(out_dir / "trace.csv").n_draws == 10

    def test_summarize(self, tmp_path, capsys):
        out = tmp_path / "new" / "deeper" / "s.txt"
        assert run_cli("summarize", "--trace", _trace_with_one_bad_cell(tmp_path, "0.5"), "--out", out) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_plot(self, tmp_path):
        out_dir = tmp_path / "new" / "deeper"
        assert run_cli("plot", "--trace", _trace_with_one_bad_cell(tmp_path, "0.5"), "--out-dir", out_dir) == 0
        assert (out_dir / "hist_a.svg").exists()

    def test_run(self, tmp_path):
        out_dir = tmp_path / "new" / "deeper"
        assert run_cli("run", "--description-file", EXAMPLES / "linear_regression_description.txt",
                       "--n", 30, *self.FIT, "--out-dir", out_dir) == 0
        assert (out_dir / "summary.txt").exists() and (out_dir / "manifest.json").exists()


class TestInputsBeforeOutputs:
    """``fit`` and ``run`` read, parse and elicit every input before they make
    ``--out-dir``: a missing or malformed one fails in one line, exit 1, and
    leaves no directory and no ``data.csv`` behind."""

    @pytest.mark.parametrize("bad", ["--model", "--data"])
    @pytest.mark.parametrize("malformed", [False, True], ids=["missing", "malformed"])
    def test_fit(self, tmp_path, data_csv, capsys, bad, malformed):
        nope = tmp_path / "nope"
        if malformed:
            nope.write_text("{")
        inputs = {"--model": EXAMPLES / "manual_priors_model.json", "--data": data_csv, bad: nope}
        out_dir = tmp_path / "out" / "fit"
        assert run_cli("fit", *[a for kv in inputs.items() for a in kv], "--out-dir", out_dir) == 1
        err = capsys.readouterr().err
        assert err.startswith("fit: ") and err.count("\n") == 1
        if not malformed:
            assert err == f"fit: [Errno 2] No such file or directory: '{nope}'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, error", [
        (["--description-file", "NOPE"], "[Errno 2] No such file or directory: 'NOPE'"),
        (["--beliefs-file", "NOPE"], "[Errno 2] No such file or directory: 'NOPE'"),
        (["--description-file", EXAMPLES / "linear_regression_description.txt", "--compare-model", "NOPE"],
         "[Errno 2] No such file or directory: 'NOPE'"),
        (["--beliefs-file", EXAMPLES / "linear_regression_beliefs.json", "--formula", "alpha + gamma * X"],
         "UnresolvedVariable: variable 'gamma' is neither a prior parameter nor a data column"),
    ], ids=["description", "beliefs", "compare-model", "unresolved-formula"])
    def test_run(self, tmp_path, capsys, flags, error):
        nope = tmp_path / "nope"
        out_dir = tmp_path / "out"
        argv = [nope if f == "NOPE" else f for f in flags]
        assert run_cli("run", *argv, "--n", 20, "--chains", 1, "--out-dir", out_dir) == 1
        err = capsys.readouterr().err
        assert err.startswith("run: " + error.replace("NOPE", str(nope))) and err.count("\n") == 1
        assert not out_dir.exists()
        assert list(tmp_path.rglob("data.csv")) == []

    def test_fit_response_column(self, tmp_path, data_csv, capsys):
        out_dir = tmp_path / "out" / "fit"
        code = run_cli("fit", "--model", EXAMPLES / "manual_priors_model.json", "--data", data_csv,
                       "--response-column", "nope", "--out-dir", out_dir)
        assert code == 1
        assert capsys.readouterr().err == "fit: MissingResponseColumn: dataset has no response column 'nope'\n"
        assert not (tmp_path / "out").exists()

    def test_run_response_column(self, tmp_path, data_csv, capsys):
        out_dir = tmp_path / "out"
        code = run_cli("run", "--beliefs-file", EXAMPLES / "linear_regression_beliefs.json", "--data", data_csv,
                       "--compare-model", EXAMPLES / "manual_priors_model.json", "--response-column", "nope",
                       "--chains", 1, "--out-dir", out_dir)
        assert code == 1
        assert capsys.readouterr().err == "run: MissingResponseColumn: dataset has no response column 'nope'\n"
        assert not out_dir.exists()
        assert list(tmp_path.rglob("data.csv")) == [data_csv]


# Runs the CLI on argv[2:] and writes the names of the modules loaded by its end to the file argv[1].
_MODULES_MAIN = """
import sys
from plainbayes import cli

try:
    code = cli.main(sys.argv[2:])
except SystemExit as exc:  # argparse's exit: --version, --help, a bad flag
    code = exc.code
with open(sys.argv[1], "w") as fh:
    fh.write("\\n".join(sys.modules))
sys.exit(code)
"""

# Runs ``python -m plainbayes`` on argv[2:] through runpy, as the interpreter does, and writes
# the names of the modules loaded by its end to the file argv[1].
_MODULES_ENTRY = """
import runpy
import sys

out, sys.argv = sys.argv[1], ["plainbayes", *sys.argv[2:]]
try:
    runpy.run_module("plainbayes", run_name="__main__", alter_sys=True)
except SystemExit as exc:  # __main__ always exits
    code = exc.code
with open(out, "w") as fh:
    fh.write("\\n".join(sys.modules))
sys.exit(code)
"""

_MODEL_COMPILER = {f"plainbayes.{m}" for m in ("posterior", "formula", "spec_schema", "distributions", "elicitation")}
_PARSE_ONLY = {"plainbayes.cli", "plainbayes.errors", "hashlib", "json", "dataclasses", "numpy"}


class TestImportFence:
    """The CLI parses its command line before it loads the library, and a command loads the modules it runs."""

    @pytest.mark.parametrize(
        "command, code, unloaded",
        [
            ("--version", 0, {"numpy"}),
            ("--help", 0, {"numpy"}),
            ("fit --bogus", 2, {"numpy"}),
            ("summarize", 0, _MODEL_COMPILER),
            ("plot", 0, _MODEL_COMPILER),
            ("fit", 0, {"plainbayes.elicitation", "plainbayes.diagnostics", "plainbayes.plotting"}),
        ],
        ids=["version", "help", "bad-flag", "summarize", "plot", "fit"],
    )
    def test_a_command_loads_only_what_it_runs(self, tmp_path, data_csv, small_trace, command, code, unloaded):
        argv = {
            "summarize": ["summarize", "--trace", small_trace],
            "plot": ["plot", "--trace", small_trace, "--out-dir", tmp_path / "p"],
            "fit": ["fit", "--model", EXAMPLES / "manual_priors_model.json", "--data", data_csv, "--chains", 1,
                    "--warmup", 20, "--draws", 10, "--jobs", 1, "--out-dir", tmp_path / "fit"],
        }.get(command, command.split())
        env = {**os.environ, "PYTHONPATH": str(Path(plainbayes.__file__).parents[1])}
        modules = tmp_path / "modules"
        proc = subprocess.run([sys.executable, "-c", _MODULES_MAIN, str(modules), *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        loaded = set(modules.read_text().split())
        assert "plainbayes.cli" in loaded and not loaded & unloaded

    @pytest.mark.parametrize(
        "command, code, unloaded",
        [
            ("--version", 0, _PARSE_ONLY),
            ("--help", 0, _PARSE_ONLY),
            ("fit --bogus", 2, _PARSE_ONLY),
            ("summarize", 0, {"hashlib"}),  # no manifest: no OpenSSL
            ("plot", 0, {"hashlib"}),
        ],
        ids=["version", "help", "bad-flag", "summarize", "plot"],
    )
    def test_module_entry_parses_before_loading_cli(self, tmp_path, small_trace, command, code, unloaded):
        argv = {
            "summarize": ["summarize", "--trace", small_trace],
            "plot": ["plot", "--trace", small_trace, "--out-dir", tmp_path / "p"],
        }.get(command, command.split())
        env = {**os.environ, "PYTHONPATH": str(Path(plainbayes.__file__).parents[1])}
        bare = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                              env=env, capture_output=True, text=True, check=True).stdout.split()
        modules = tmp_path / "modules"
        proc = subprocess.run([sys.executable, "-c", _MODULES_ENTRY, str(modules), *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        loaded = set(modules.read_text().split()) - set(bare)
        assert not loaded & unloaded

    def test_package_names_resolve_on_first_use(self):
        exported = {
            "data_io": ("Dataset", "SimConfig", "load_csv", "save_csv", "simulate_linear"),
            "diagnostics": ("SummaryTable", "ess_bulk", "hdi", "mode_estimate", "split_rhat", "summarize"),
            "elicitation": ("LlmConfig", "elicit_model", "elicit_prior"),
            "posterior": ("PosteriorFn", "build_posterior"),
            "sampler": ("SamplerConfig", "Trace", "load_trace", "nuts_sample", "rwm_sample", "save_trace"),
            "spec_schema": ("LikelihoodSpec", "ModelSpec", "ValidatedModel", "parse_model_json", "parse_prior_json",
                            "sanitize_llm_text", "validate_model"),
        }
        for module, names in exported.items():
            for name in names:
                assert getattr(plainbayes, name) is getattr(importlib.import_module(f"plainbayes.{module}"), name)
        with pytest.raises(AttributeError, match="'nope'"):
            plainbayes.nope


class TestTracedBenchmark:
    """``perfbench/traced.py`` patches plainbayes functions by name: a fit run
    through it must still exit 0 and record the spans and counters its
    per-layer metrics read."""

    def test_traced_fit(self, tmp_path, data_csv):
        root = Path(__file__).resolve().parent.parent
        spans = tmp_path / "spans.json"
        argv = [root / "perfbench" / "traced.py", spans, "fit",
                "--model", EXAMPLES / "manual_priors_model.json", "--data", data_csv,
                "--chains", 1, "--warmup", 30, "--draws", 20, "--jobs", 1, "--out-dir", tmp_path / "fit"]
        proc = subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(spans.read_text())
        names = {s["name"] for s in doc["spans"]}
        assert {"spec_schema.validate_model", "posterior.build_posterior"} <= names
        assert any(c["name"] == "posterior.log_density_and_grad" and c["calls"] > 0 for c in doc["counters"])


class TestFlagValidation:
    def test_hdi_out_of_range(self, fit_dir, capsys):
        assert run_cli("summarize", "--trace", fit_dir / "trace.csv", "--hdi", 1.5) != 0
        assert "hdi prob" in capsys.readouterr().err

    def test_nonpositive_bins(self, fit_dir, tmp_path, capsys):
        code = run_cli("plot", "--trace", fit_dir / "trace.csv", "--out-dir", tmp_path / "p", "--bins", 0)
        assert code != 0
        assert "bins" in capsys.readouterr().err

    @pytest.mark.parametrize("bins", [2**62, 2**63 - 1])  # numpy refused both with a traceback
    def test_more_bins_than_an_array_holds_fail_in_one_line(self, tmp_path, small_trace, capsys, bins):
        code = run_cli("plot", "--trace", small_trace, "--out-dir", tmp_path / "p", "--bins", bins)
        assert code == 1
        assert capsys.readouterr().err == f"plot: PlainbayesError: bins must be <= {plotting.MAX_BINS}, got {bins}\n"
        assert not (tmp_path / "p").exists()
        plotting.check_bins(plotting.MAX_BINS)

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--hdi", 1.5, "hdi prob must be in (0, 1), got 1.5"), ("--bins", 0, "bins must be >= 1, got 0"),
         ("--bins", 2**62, f"bins must be <= 1000000, got {2**62}")],
    )
    def test_run_rejects_report_flags_before_any_work(self, tmp_path, capsys, flag, value, message):
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        code = run_cli(
            "run", "--description-file", EXAMPLES / "linear_regression_description.txt",
            "--n", 30, "--chains", 1, "--warmup", 20, "--draws", 10, flag, value, "--out-dir", out_dir,
        )
        assert code == 1
        assert capsys.readouterr().err == f"run: PlainbayesError: {message}\n"
        assert list(out_dir.iterdir()) == []

    def test_too_deep_formula_fails_in_one_line(self, tmp_path, data_csv, capsys):
        # a sum of 1000 terms used to end in a RecursionError traceback
        model = json.loads((EXAMPLES / "manual_priors_model.json").read_text())
        model["likelihood"]["formula"] = " + ".join(["alpha + beta * X"] * 500)
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(model))
        code = run_cli("fit", "--model", path, "--data", data_csv, "--out-dir", tmp_path / "fit")
        assert code == 1
        # after the first "+" the chain is 3 levels deep; its 99th "+", at 6 + 19 * 49, makes the 101st
        assert capsys.readouterr().err == "fit: FormulaTooDeep: formula nests deeper than 100 levels at position 937\n"
