"""Benchmark of the plainbayes pipeline, end to end and per module.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

Each workload is a round of CLI commands (``python -m plainbayes ...`` with
``PYTHONPATH=src``), run one at a time; rounds repeat, each on inputs drawn
from ``(seed, round)``, until the next round would likely end past
``--seconds``.  After every round the outputs are checked against
``oracle.py``, which does not use plainbayes.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` (CLI
commands launched, and those that exited non-zero) and ``metrics``: the
end-to-end metrics over the run's rounds (``--trace 0``) or the medians over
rounds of the per-layer metrics (``--trace 1``).  See README.md for what
each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLES = SRC / "plainbayes" / "resources" / "examples"
TRACED = Path(__file__).resolve().parent / "traced.py"
SPAWN = Path(__file__).resolve().parent / "spawn.py"
RUNS = ROOT / ".perfbench_runs"

SETUP_LAUNCHES = 3  # setup_s is the median of this many cold `--version` launches
IMPORT_PROBES = 3  # `-X importtime` launches per traced run

LINEAR = "alpha + beta * X"
EXP2_PRIORS = {  # the blueprint the paper reports for Experiment II
    "alpha": ("Uniform", {"lower": -25, "upper": 25}),
    "beta": ("Exponential", {"lam": 0.5}),
    "sigma": ("HalfNormal", {"sigma": 15}),
}
ELICITED_PRIORS = {  # the replayed answers to linear_regression_beliefs.json
    "alpha": ("Normal", {"mu": 0, "sigma": 12.5}),
    "beta": ("Normal", {"mu": 2, "sigma": 1}),
    "sigma": ("HalfNormal", {"sigma": 15}),
}
MANUAL_PRIORS = {  # manual_priors_model.json
    "alpha": ("Normal", {"mu": 0, "sigma": 100}),
    "beta": ("Normal", {"mu": 0, "sigma": 50}),
    "sigma": ("HalfNormal", {"sigma": 50}),
}
RECIP = "alpha + X / tau"
RECIP_PRIORS = {
    "alpha": ("Normal", {"mu": 0, "sigma": 25}),
    "tau": ("Exponential", {"lam": 1}),
    "sigma": ("HalfNormal", {"sigma": 25}),
}
RECIP_ROWS = 20_000
RECIP_TRUTH = {"alpha": 2.5, "tau": 0.5, "sigma": 15.0}  # X ~ Uniform(0, 100)


# ---------------------------------------------------------------------------
# Launching commands


@dataclass
class Launch:
    argv: list[str]
    wall: float
    rss_mb: float
    code: int


def launch(argv: list[str], out_stem: Path | None = None) -> Launch:
    """Run one command to its end through spawn.py; wall time from spawn to reaped exit.

    BLAS runs on one thread: on two cores a second thread made the large-n
    dot products no faster, and stalled them whenever the other core was
    busy, which turned a 27 s fit into 135-184 s now and then.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    sinks = [f"{out_stem}.out", f"{out_stem}.err"] if out_stem is not None else [os.devnull, os.devnull]
    proc = subprocess.Popen(
        [sys.executable, "-S", str(SPAWN), *sinks, *argv],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    try:
        stdout, _ = proc.communicate()
    finally:
        if proc.poll() is None:  # interrupted: stop the launcher, which stops the command
            proc.terminate()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"launcher failed ({proc.returncode}) for {' '.join(argv)}")
    result = json.loads(stdout)
    return Launch(argv, result["wall"], result["maxrss_kb"] / 1024.0, result["code"])


def plainbayes(*args) -> list[str]:
    return [sys.executable, "-m", "plainbayes", *map(str, args)]


# ---------------------------------------------------------------------------
# Workloads: a round's commands, and the checks of its outputs


@dataclass
class Fit:
    label: str
    names: list[str]
    draws: np.ndarray
    reference: dict
    stats_path: Path
    trace_path: Path
    inputs: Path  # the directory holding the fit's data.csv and model.json

    @cached_property
    def min_ess(self) -> float:
        return min(oracle.ess_bulk(self.draws[:, :, i]) for i in range(len(self.names)))


@dataclass
class Workload:
    name: str
    rows: int
    chains: int
    warmup: int
    draws: int
    algorithm = "nuts"
    fits = 1  # fits per round

    @property
    def parts(self) -> list["Workload"]:
        return [self]

    def prepare(self, seed: int, d: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, d: Path) -> tuple[list[Fit], list[str]]:
        raise NotImplementedError


class Exp2Nuts(Workload):
    """Paper Experiment II: a whole model from one description, then NUTS."""

    def prepare(self, seed, d):
        return [
            plainbayes("run", "--description-file", EXAMPLES / "linear_regression_description.txt",
                       "--n", self.rows, "--seed", seed, "--out-dir", d)
        ]

    def check(self, d):
        failures = oracle.check_blueprint(d / "model.json", EXP2_PRIORS, LINEAR)
        x, y = oracle.read_xy(d / "data.csv")
        ref = oracle.grid_posterior(oracle.LinearModel("alpha", "beta", "sigma", EXP2_PRIORS), oracle.SuffStats.of(x, y))
        fit = Fit("exp2", *oracle.read_trace(d / "trace.csv"), ref, d / "stats.json", d / "trace.csv", d)
        failures += oracle.check_fit(fit.label, fit.names, fit.draws, ref)
        failures += oracle.check_histograms(d / "plots", {"elicited": (fit.names, fit.draws)})
        return [fit], failures


class Exp1Rwm(Workload):
    """Paper Experiment I: three elicited priors against manual ones, RWM."""

    algorithm = "rwm"
    fits = 2

    def prepare(self, seed, d):
        return [
            plainbayes("run", "--beliefs-file", EXAMPLES / "linear_regression_beliefs.json",
                       "--compare-model", EXAMPLES / "manual_priors_model.json", "--algorithm", "rwm",
                       "--chains", self.chains, "--warmup", self.warmup, "--draws", self.draws,
                       "--n", self.rows, "--seed", seed, "--out-dir", d)
        ]

    def check(self, d):
        failures = oracle.check_blueprint(d / "model.json", ELICITED_PRIORS, LINEAR)
        failures += oracle.check_blueprint(d / "compare_model.json", MANUAL_PRIORS, LINEAR)
        ss = oracle.SuffStats.of(*oracle.read_xy(d / "data.csv"))
        fits = []
        for label, prefix, priors in (("elicited", "", ELICITED_PRIORS), ("baseline", "compare_", MANUAL_PRIORS)):
            ref = oracle.grid_posterior(oracle.LinearModel("alpha", "beta", "sigma", priors), ss)
            trace = d / f"{prefix}trace.csv"
            fit = Fit(label, *oracle.read_trace(trace), ref, d / f"{prefix}stats.json", trace, d)
            failures += oracle.check_fit(label, fit.names, fit.draws, ref)
            fits.append(fit)
        failures += oracle.check_same_mean("beta", [(f.label, f.names, f.draws, f.reference) for f in fits])
        failures += oracle.check_histograms(d / "plots", {f.label: (f.names, f.draws) for f in fits})
        return fits, failures


# Before the first metric window, a unit metric on scales a hundredfold apart
# drives trees to depth 10; capped at 6, warm-up costs a third less and
# varies less from seed to seed.  Trees after warm-up are 2-3 deep.
MAX_TREE_DEPTH = 6
# From the default initial step of 1.0, the first trial leapfrog underflows
# tau = exp(z) to 0 in about 2% of chain starts at n = 20 000, and the
# sampler aborts (see CHANGES.md, FOUND).  A failure that depends on the
# seed cannot be counted steadily, so the fit starts its search at 0.001.
STEP_SIZE_INIT = 0.001


def model_json(priors: dict, formula: str) -> str:
    """A model blueprint in the CLI's JSON format."""
    return json.dumps({
        "priors": {k: {"distribution": fam, "params": p} for k, (fam, p) in priors.items()},
        "likelihood": {"distribution": "Normal", "formula": formula},
    }, indent=2)


class RecipLargeN(Workload):
    """A mean that is not linear in its parameters, on a large CSV."""

    def prepare(self, seed, d):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 100.0, self.rows)
        y = RECIP_TRUTH["alpha"] + x / RECIP_TRUTH["tau"] + RECIP_TRUTH["sigma"] * rng.standard_normal(self.rows)
        np.savetxt(d / "data.csv", np.column_stack([x, y]), delimiter=",", header="X,y", comments="", fmt="%.17g")
        (d / "model.json").write_text(model_json(RECIP_PRIORS, RECIP), encoding="utf-8")
        fit = d / "fit"
        return [
            plainbayes("fit", "--model", d / "model.json", "--data", d / "data.csv", "--out-dir", fit,
                       "--chains", self.chains, "--warmup", self.warmup, "--draws", self.draws,
                       "--max-tree-depth", MAX_TREE_DEPTH, "--step-size-init", STEP_SIZE_INIT, "--seed", seed),
            plainbayes("summarize", "--trace", fit / "trace.csv", "--stats", fit / "stats.json",
                       "--format", "json", "--out", d / "summary.json"),
            plainbayes("plot", "--trace", fit / "trace.csv", "--out-dir", d / "plots", "--label", "fit"),
        ]

    def check(self, d):
        ss = oracle.SuffStats.of(*oracle.read_xy(d / "data.csv"))
        ref = oracle.grid_posterior(oracle.LinearModel("alpha", "tau", "sigma", RECIP_PRIORS, reciprocal=True), ss)
        fit = Fit("recip", *oracle.read_trace(d / "fit" / "trace.csv"), ref, d / "fit" / "stats.json", d / "fit" / "trace.csv", d)
        failures = oracle.check_fit(fit.label, fit.names, fit.draws, ref)
        failures += oracle.check_histograms(d / "plots", {"fit": (fit.names, fit.draws)})
        failures += oracle.check_summary_means(d / "summary.json", fit.names, fit.draws)
        return [fit], failures


class Sequence:
    """Several workloads in one round, each in a directory of its own, on one seed."""

    def __init__(self, name: str, parts: list[Workload]):
        self.name = name
        self.parts = parts
        self.rows = parts[0].rows

    def prepare(self, seed, d):
        commands = []
        for part in self.parts:
            (d / part.name).mkdir()
            commands += part.prepare(seed, d / part.name)
        return commands

    def check(self, d):
        fits, failures = [], []
        for part in self.parts:
            part_fits, part_failures = part.check(d / part.name)
            fits += part_fits
            failures += part_failures
        return fits, failures


EXP2 = Exp2Nuts("exp2-nuts", rows=100, chains=4, warmup=1000, draws=1000)
EXP1 = Exp1Rwm("exp1-rwm", rows=100, chains=4, warmup=5000, draws=5000)
# The two experiments share the `paper` round rather than being workloads of
# their own: a run can then be 55 s long, and a round's wall time varies by
# about 15 % with the load on a shared host.  Each can still run alone.
BENCHMARKED = ("paper", "recip-large-n")  # the workloads of BENCHMARK.json, and `--workload all`
WORKLOADS = {
    w.name: w
    for w in (
        Sequence("paper", [EXP2, EXP1]),
        RecipLargeN("recip-large-n", rows=RECIP_ROWS, chains=1, warmup=1000, draws=4000),
        EXP2,
        EXP1,
    )
}


# ---------------------------------------------------------------------------
# Rounds


@dataclass
class Round:
    dir: Path
    launches: list[Launch]
    fits: list[Fit] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(l.code == 0 for l in self.launches)

    @property
    def wall(self) -> float:
        return sum(l.wall for l in self.launches)

    @property
    def ess(self) -> float:
        """The smallest bulk ESS over each fit's parameters, summed over the round's fits."""
        return sum(f.min_ess for f in self.fits)


def round_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_round(w: Workload, seed: int, index: int, base: Path, traced: bool) -> Round:
    d = base / f"{'traced' if traced else 'plain'}-{index}"
    d.mkdir(parents=True)
    commands = w.prepare(round_seed(seed, index), d)
    launches, spans = [], []
    for k, argv in enumerate(commands):
        if traced:
            spans_path = d / f"spans-{k}.json"
            argv = [sys.executable, str(TRACED), str(spans_path), *argv[3:]]
        result = launch(argv, d / f"cmd-{k}")
        launches.append(result)
        if result.code != 0:
            break
        if traced:
            spans.append(json.loads(spans_path.read_text(encoding="utf-8")))
    rnd = Round(d, launches, spans=spans)
    if rnd.ok:
        rnd.fits, rnd.failures = w.check(d)
    return rnd


def repeat(seconds: float, body) -> list:
    """Call body(index) until the next call would likely end past ``seconds``."""
    results, start = [], time.perf_counter()
    while True:
        results.append(body(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(rounds: list[Round], setup: list[Launch]) -> dict:
    """Means and totals over the run's rounds, not medians: a run holds two
    to four rounds, and with a round's wall time varying by about 15 % with
    the host's load, the mean of so few is the steadier figure."""
    good = [r for r in rounds if r.ok]
    wall = sum(r.wall for r in good)
    return {
        "wall_s": (wall / len(good), "s"),
        "setup_s": (statistics.median(l.wall for l in setup), "s"),
        "ess_per_s": (sum(r.ess for r in good) / wall, "1/s"),
        "peak_rss_mb": (statistics.median(max(l.rss_mb for l in r.launches) for r in good), "MB"),
    }


def span_table(spans_files: list[dict]) -> tuple[dict, float]:
    """Per span name: [calls, self seconds, total seconds]; and the traced stage time."""
    table: dict[str, list] = {}
    staged = 0.0
    for doc in spans_files:
        spans = {s["id"]: s for s in doc["spans"]}
        inner = {sid: 0.0 for sid in spans}
        for s in spans.values():
            if s["parent"] is not None:
                inner[s["parent"]] += s["end"] - s["start"]
        for c in doc["counters"]:
            inner[c["parent"]] += c["seconds"]
            row = table.setdefault(c["name"], [0, 0.0, 0.0])
            row[0] += c["calls"]
            row[1] += c["seconds"]
            row[2] += c["seconds"]
        main = next(s["id"] for s in spans.values() if s["name"] == "cli.main")
        for s in spans.values():
            dur = s["end"] - s["start"]
            row = table.setdefault(s["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur - inner[s["id"]]
            row[2] += dur
            if s["name"] == "cli.import" or s["parent"] == main:
                staged += dur
    return table, staged


def per_layer(w: Workload, plain: Round, traced: Round) -> dict:
    table, staged = span_table(traced.spans)

    def self_s(*names):
        return sum(table.get(n, (0, 0.0, 0.0))[1] for n in names)

    def calls(*names):
        return sum(table.get(n, (0, 0.0, 0.0))[0] for n in names)

    density = ("posterior.log_density_and_grad", "posterior.log_density")
    fits = len(traced.fits)
    nuts_fits = sum(p.fits for p in w.parts if p.algorithm == "nuts")
    rwm_fits = sum(p.fits for p in w.parts if p.algorithm == "rwm")
    iterations = sum(p.fits * p.chains * (p.warmup + p.draws) for p in w.parts)
    evals = calls(*density)
    accept, divergent = [], 0
    for f in traced.fits:
        st = json.loads(f.stats_path.read_text(encoding="utf-8"))["stats"]
        accept.append(float(np.mean(st["step_accepted"] if "step_accepted" in st else st["accept_prob"])))
        divergent += int(np.sum(st["divergent"]))
    eval_us = self_s(*density) / evals * 1e6
    return {
        "cli.residual_s": (traced.wall - staged, "s"),
        "data_io.ms": (self_s("data_io.simulate_linear", "data_io.save_csv", "data_io.load_csv") * 1e3, "ms"),
        "elicitation.calls": (calls("elicitation.elicit_model", "elicitation.elicit_prior"), "count"),
        "spec_schema.validate_ms": (self_s("spec_schema.validate_model") * 1e3, "ms"),
        "posterior.build_ms": (self_s("posterior.build_posterior") * 1e3, "ms"),
        "posterior.grad_evals": (calls("posterior.log_density_and_grad") / nuts_fits if nuts_fits else 0, "count"),
        "posterior.value_evals": (calls("posterior.log_density") / rwm_fits if rwm_fits else 0, "count"),
        "posterior.eval_us": (eval_us, "us"),
        "posterior.ns_per_row": (eval_us * 1e3 / w.rows, "ns"),
        "sampler.sample_s": (table["sampler.sample"][2] / fits, "s"),
        "sampler.self_us_per_eval": (self_s("sampler.sample") / evals * 1e6, "us"),
        "sampler.evals_per_draw": (evals / iterations, "1"),
        "sampler.ess_per_eval": (traced.ess / evals, "1"),
        "sampler.accept_rate": (statistics.mean(accept), "1"),
        "sampler.divergences": (divergent, "count"),
        "sampler.trace_io_ms": (self_s("sampler.save_trace", "sampler.load_trace") * 1e3, "ms"),
        "sampler.trace_mb": (sum(f.trace_path.stat().st_size for f in traced.fits) / fits / 1e6, "MB"),
        "diagnostics.summarize_ms": (self_s("diagnostics.summarize") * 1e3, "ms"),
        "plotting.plot_ms": (self_s("plotting.plot_trace") * 1e3, "ms"),
        "trace.overhead_s": (traced.wall - plain.wall, "s"),
    }


_IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)")


def import_times(base: Path, index: int) -> tuple[Launch, dict]:
    """Cumulative import time (ms) of plainbayes.cli and scipy.stats, from -X importtime."""
    stem = base / f"importtime-{index}"
    result = launch([sys.executable, "-X", "importtime", "-c", "import plainbayes.cli"], stem)
    cumulative = {}
    for line in Path(f"{stem}.err").read_text(encoding="utf-8").splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e3
    return result, {
        "cli.import_ms": cumulative.get("plainbayes.cli", 0.0),
        "cli.import_scipy_stats_ms": cumulative.get("scipy.stats", 0.0),
    }


def formula_probe(w: Workload, rnd: Round) -> float:
    """Median µs of one formula.evaluate of the workload's mean, data bound."""
    sys.path.insert(0, str(SRC))
    from plainbayes import formula

    fit = rnd.fits[0]
    model = json.loads((fit.inputs / "model.json").read_text(encoding="utf-8"))
    ast = formula.parse_formula(model["likelihood"]["formula"])
    x, _ = oracle.read_xy(fit.inputs / "data.csv")
    env = {"X": x, **{nm: float(fit.draws[:, :, i].mean()) for i, nm in enumerate(fit.names)}}
    reps = max(10, int(2e6 / w.rows))
    samples = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(reps):
            formula.evaluate(ast, env)
        samples.append((time.perf_counter() - start) / reps * 1e6)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Driver


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    base = RUNS / w.name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    launches: list[Launch] = []
    rounds: list[Round] = []
    if trace:
        probes = [import_times(base, i) for i in range(IMPORT_PROBES)]
        launches += [p[0] for p in probes]
        pairs = repeat(seconds, lambda i: (run_round(w, seed, i, base, False), run_round(w, seed, i, base, True)))
        rounds = [r for pair in pairs for r in pair]
        good = [pair for pair in pairs if pair[0].ok and pair[1].ok]
        metrics = {}
        if good:
            samples = [per_layer(w, plain, traced) for plain, traced in good]
            metrics = {k: (statistics.median(s[k][0] for s in samples), unit) for k, (_, unit) in samples[0].items()}
            for name in ("cli.import_ms", "cli.import_scipy_stats_ms"):
                metrics[name] = (statistics.median(p[1][name] for p in probes), "ms")
            metrics["formula.evaluate_us"] = (formula_probe(w, good[-1][0]), "us")
            print_span_table(w, good[-1][1])
    else:
        setup = [launch(plainbayes("--version")) for _ in range(SETUP_LAUNCHES)]
        launches += setup
        rounds = repeat(seconds, lambda i: run_round(w, seed, i, base, False))
        metrics = end_to_end(rounds, setup) if any(r.ok for r in rounds) else {}
    for r in rounds:
        launches += r.launches
        for msg in r.failures:
            print(f"CHECK FAILED [{w.name} {r.dir.name}] {msg}")
        for l in r.launches:
            if l.code != 0:
                print(f"COMMAND FAILED [{w.name} {r.dir.name}] exit {l.code}: {' '.join(l.argv[1:])}")
    if not metrics:
        return {}
    ok_rounds = [r for r in rounds if r.ok]
    for r in ok_rounds:
        rss = max(l.rss_mb for l in r.launches)
        print(f"{w.name} {r.dir.name}: wall {r.wall:.3f} s, bulk ESS {r.ess:.0f}, peak RSS {rss:.1f} MB")
    print(f"{w.name}: seed {seed}, {len(ok_rounds)} rounds checked, {sum(len(r.fits) for r in ok_rounds)} fits")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    return {
        "correct": all(not r.failures for r in ok_rounds),
        "attempted": len(launches),
        "failed": sum(1 for l in launches if l.code != 0),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def print_span_table(w: Workload, traced: Round) -> None:
    table, _ = span_table(traced.spans)
    print(f"{w.name}: traced round {traced.dir.name}, {traced.wall:.3f} s of commands")
    print(f"  {'span':34s} {'calls':>8s} {'self ms':>11s} {'total ms':>11s}")
    for name, (calls, self_s, total_s) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:34s} {calls:8d} {self_s * 1e3:11.2f} {total_s * 1e3:11.2f}")


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so launches stop their commands
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "plainbayes" / "__init__.py").is_file():
        print(f"error: no plainbayes sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = BENCHMARKED if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if not result:
            print(f"error: no round of {name} completed", file=sys.stderr)
            code = 1
            continue
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
