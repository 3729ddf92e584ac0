import hashlib
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import plainbayes
from plainbayes.cli import main
from plainbayes.data_io import load_csv
from plainbayes.elicitation import FixtureStore, render_model_prompt
from plainbayes.errors import SummaryCellWarning
from plainbayes.sampler import load_trace

EXAMPLES = resources.files("plainbayes") / "resources" / "examples"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture()
def data_csv(tmp_path):
    out = tmp_path / "data.csv"
    assert run_cli("simulate", "--n", 40, "--seed", 42, "--out", out) == 0
    return out


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


class TestElicit:
    def test_prior_to_stdout_and_file(self, tmp_path, capsys):
        beliefs = json.loads((EXAMPLES / "linear_regression_beliefs.json").read_text())
        out = tmp_path / "prior.json"
        code = run_cli("elicit-prior", "--param", "beta", "--belief", beliefs["beta"], "--out", out)
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == {"distribution": "Normal", "params": {"mu": 2.0, "sigma": 1.0}}
        assert json.loads(out.read_text()) == printed

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

    def test_empty_trace_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run_cli("summarize", "--trace", empty) != 0
        assert "MalformedTrace" in capsys.readouterr().err

    def test_nan_draw_gives_nan_cells(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        values = ["0.1", "0.4", "nan", "0.3", "0.9", "0.2", "0.6", "0.5"]
        trace.write_text("chain,draw,a\n" + "".join(f"0,{d},{v}\n" for d, v in enumerate(values)))
        with pytest.warns(SummaryCellWarning):  # mode_estimate needs 10 draws
            assert run_cli("summarize", "--trace", trace, "--format", "json") == 0
        row = json.loads(capsys.readouterr().out)["parameters"]["a"]
        assert all(math.isnan(row[k]) for k in ("mean", "hdi_low", "hdi_high", "ess_bulk"))

    def test_stats_sidecar_not_json(self, fit_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"stats": ')
        assert run_cli("summarize", "--trace", fit_dir / "trace.csv", "--stats", bad) != 0
        assert "MalformedTrace" in capsys.readouterr().err


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

    def test_mismatched_params_fail(self, fit_dir, tmp_path, capsys):
        other = tmp_path / "other.csv"
        other.write_text("chain,draw,theta\n0,0,1.0\n0,1,2.0\n")
        code = run_cli("plot", "--trace", fit_dir / "trace.csv", "--compare", other,
                       "--out-dir", tmp_path / "p")
        assert code != 0
        assert "PlotMismatch" in capsys.readouterr().err


RECIP_MODEL = {
    "priors": {
        "alpha": {"distribution": "Normal", "params": {"mu": 0, "sigma": 25}},
        "tau": {"distribution": "Exponential", "params": {"lam": 1}},
        "sigma": {"distribution": "HalfNormal", "params": {"sigma": 25}},
    },
    "likelihood": {"distribution": "Normal", "formula": "alpha + X / tau"},
}


class TestDrawsLocked:
    """Short fixed-seed fits must keep writing the same ``trace.csv`` and
    ``stats.json``.

    The hashes were recorded on x86-64 Linux (Python 3.11.7, numpy 2.4.6,
    OpenBLAS single-threaded): the trace hashes at the commit before the
    formula compiler replaced AST evaluation in the density, the stats hashes
    (which also pin the stat names, their order and their dtypes) at the
    commit before the chain runners' kept-draw loops became one.  Both
    changes kept every draw.  A change that moves the draws updates them and
    names the change in CHANGES.md.  Another BLAS build may sum dot products
    in another order, so the hashes hold only where they were recorded.
    """

    HASHES = {
        "nuts-linear": "82c39359c5d514bbf31f553edd8af9ab1677fde42ad4416b547ac4bede2ff8fc",
        "nuts-recip": "da5c08168d1c5804a80a0c2ff4425e6ba624f459bfcec363a40224713e70d02a",
        "rwm-linear": "5dcd905412301041a28b86ef0a32d2ec383def8a213f5ad7a626b0231a0afb71",
    }
    STATS_HASHES = {
        "nuts-linear": "ead6054507afe78ab1904dc4505578602d805f04ea9e9fad14d36ae501cbd436",
        "nuts-recip": "d7eb119480ef2ee369c1ea4a5f04f146e614db93aa0d6ded6e5b42a030899e24",
        "rwm-linear": "bef057caa293b5c956530fa0f3b6b819231819e7180d6db680d89effa27ee7b0",
    }

    @pytest.mark.parametrize("case", sorted(HASHES))
    def test_trace_hash(self, tmp_path, case):
        data = tmp_path / "data.csv"
        assert run_cli("simulate", "--n", 40, "--seed", 42, "--out", data) == 0
        algorithm, model = case.split("-")
        if model == "linear":
            model_json = EXAMPLES / "manual_priors_model.json"
        else:
            model_json = tmp_path / "model.json"
            model_json.write_text(json.dumps(RECIP_MODEL))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(Path(plainbayes.__file__).parents[1])}
        subprocess.run(
            [
                sys.executable, "-m", "plainbayes", "fit", "--model", str(model_json), "--data", str(data),
                "--algorithm", algorithm, "--chains", "2", "--warmup", "150", "--draws", "100",
                "--seed", "11", "--out-dir", str(tmp_path / "fit"),
            ],
            env=env, check=True, capture_output=True,
        )
        digest = hashlib.sha256((tmp_path / "fit" / "trace.csv").read_bytes()).hexdigest()
        assert digest == self.HASHES[case]
        digest = hashlib.sha256((tmp_path / "fit" / "stats.json").read_bytes()).hexdigest()
        assert digest == self.STATS_HASHES[case]


class TestRun:
    def test_full_pipeline_replay(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = run_cli(
            "run",
            "--description-file", EXAMPLES / "linear_regression_description.txt",
            "--n", 40, "--seed", 42,
            "--chains", 2, "--warmup", 200, "--draws", 150,
            "--out-dir", out_dir,
        )
        assert code == 0
        for name in (
            "data.csv", "model.json", "trace.csv", "stats.json",
            "summary.txt", "summary.json", "summary.csv", "manifest.json",
        ):
            assert (out_dir / name).exists(), name
        assert (out_dir / "plots" / "hist_sigma.svg").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "run"

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


class TestFlagValidation:
    def test_hdi_out_of_range(self, fit_dir, capsys):
        assert run_cli("summarize", "--trace", fit_dir / "trace.csv", "--hdi", 1.5) != 0
        assert "hdi prob" in capsys.readouterr().err

    def test_nonpositive_bins(self, fit_dir, tmp_path, capsys):
        code = run_cli("plot", "--trace", fit_dir / "trace.csv", "--out-dir", tmp_path / "p", "--bins", 0)
        assert code != 0
        assert "bins" in capsys.readouterr().err

    def test_stats_sidecar_mismatch(self, fit_dir, tmp_path, capsys):
        import json as json_module

        stats = json_module.loads((fit_dir / "stats.json").read_text())
        stats["param_names"] = ["wrong", "names", "here"]
        bad = tmp_path / "stats.json"
        bad.write_text(json_module.dumps(stats))
        code = run_cli("summarize", "--trace", fit_dir / "trace.csv", "--stats", bad)
        assert code != 0
        assert "MalformedTrace" in capsys.readouterr().err
