"""Command-line interface: one subcommand per pipeline stage plus `run`.

Subcommands:

* ``simulate``       — generate a synthetic linear dataset CSV.
* ``elicit-prior``   — belief text -> validated prior JSON.
* ``elicit-model``   — problem description -> validated model JSON.
* ``fit``            — model JSON + dataset CSV -> trace CSV + stats JSON.
* ``summarize``      — trace CSV -> summary table (text/json/csv).
* ``plot``           — trace CSV (optionally two) -> histogram CSV + SVG.
* ``run``            — the full pipeline into one run directory.

``simulate``, ``fit`` and ``run`` write a manifest describing their inputs
(by content hash), configuration, and outputs, so a run can be reproduced
exactly in replay mode; ``elicit-prior`` and ``elicit-model`` write one only
with ``--out``, and ``summarize`` and ``plot`` write none.  Exit code is 0
iff no stage failed.  ``flags`` parses the command line and then loads this
module, which imports the standard library, ``errors`` and ``flags`` alone:
each command imports the modules it runs.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import ElicitationFailed, PlainbayesError
from .flags import build_parser, main

if TYPE_CHECKING:
    from . import diagnostics, elicitation, posterior, sampler

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# Manifest


def _sha256_file(path: Path) -> str:
    import hashlib  # OpenSSL: only the commands that write a manifest load it
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class _Manifest:
    def __init__(self, command: str, config: dict):
        self.payload = {
            "tool": "plainbayes",
            "version": __version__,
            "command": command,
            "created_at": _utc_now(),
            "config": config,
            "input_hashes": {},
            "outputs": [],
        }

    def add_input(self, path) -> None:
        self.payload["input_hashes"][str(path)] = _sha256_file(path)

    def add_output(self, *paths) -> None:
        self.payload["outputs"] += map(str, paths)

    def write(self, path) -> None:
        self.payload["finished_at"] = _utc_now()
        self.add_output(path)
        Path(path).write_text(json.dumps(self.payload, indent=2) + "\n", encoding="utf-8")


def _utc_now() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def _write_text(path, text: str, manifest: _Manifest | None = None) -> None:
    """Write a text output ending in one newline, making its directory, and
    list it on ``manifest``."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")
    if manifest is not None:
        manifest.add_output(path)


# ---------------------------------------------------------------------------
# Commands


def _config(cls, args, **fallbacks):
    """A ``cls`` from the flags given for its fields: a flag named after a
    field has it as its dest and no default, so a missing flag leaves the
    field to ``fallbacks``, then to its dataclass default."""
    given = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**{**fallbacks, **given})


def _llm_config(args) -> elicitation.LlmConfig:
    from . import elicitation
    live = getattr(args, "mode", elicitation.LlmConfig.mode) == "live"
    return _config(elicitation.LlmConfig, args, fixtures_dir=None if live else elicitation.packaged_fixtures_dir())


def _cmd_simulate(args) -> int:
    from . import data_io
    cfg = _config(data_io.SimConfig, args)
    dataset = data_io.simulate_linear(cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data_io.save_csv(dataset, out)
    manifest = _Manifest("simulate", asdict(cfg))
    manifest.add_output(out)
    manifest.write(Path(str(out) + ".manifest.json"))
    print(f"wrote {dataset.n_rows} rows to {out}")
    return 0


def _read_text_arg(inline: str | None, file_arg: str | None, what: str) -> str:
    if inline is not None:
        return inline
    if file_arg is None:
        raise PlainbayesError(f"provide --{what} or --{what}-file")
    return Path(file_arg).read_text(encoding="utf-8")


def _cmd_elicit_prior(args) -> int:
    from . import elicitation, spec_schema
    cfg = _llm_config(args)
    belief = _read_text_arg(args.belief, args.belief_file, "belief")
    spec = elicitation.elicit_prior(args.param, belief, cfg)
    text = json.dumps(spec_schema.prior_to_obj(spec), indent=2)
    print(text)
    if args.out:
        manifest = _Manifest("elicit-prior", {"param": args.param, "llm": _public_llm_config(cfg)})
        _write_text(args.out, text, manifest)
        manifest.write(Path(args.out).with_suffix(".manifest.json"))
    return 0


def _cmd_elicit_model(args) -> int:
    from . import elicitation, spec_schema
    cfg = _llm_config(args)
    description = Path(args.description_file).read_text(encoding="utf-8")
    spec = elicitation.elicit_model(description, cfg)
    text = spec_schema.model_to_json(spec)
    print(text)
    if args.out:
        manifest = _Manifest("elicit-model", {"llm": _public_llm_config(cfg)})
        manifest.add_input(args.description_file)
        _write_text(args.out, text, manifest)
        manifest.write(Path(args.out).with_suffix(".manifest.json"))
    return 0


def _public_llm_config(cfg: elicitation.LlmConfig) -> dict:
    obj = asdict(cfg)
    obj["fixtures_dir"] = str(obj["fixtures_dir"]) if obj["fixtures_dir"] else None
    return obj  # the config holds the key's env-var NAME only, never the key


def _fit(args, scfg: sampler.SamplerConfig, workers: int, pf: posterior.PosteriorFn, prefix: str = "") -> tuple:
    """Sample the built posterior ``pf``, free it (the caller keeps no reference), write
    ``{prefix}trace.csv`` and ``{prefix}stats.json`` in ``--out-dir``, and return the
    trace and their paths."""
    from . import sampler
    trace = sampler.sample(pf, scfg, jobs=workers)
    del pf
    paths = [Path(args.out_dir) / f"{prefix}trace.csv", Path(args.out_dir) / f"{prefix}stats.json"]
    sampler.save_trace(trace, *paths)
    return trace, paths


def build_posterior(*args, **kwargs) -> posterior.PosteriorFn:  # loads the model compiler when fit or run calls it
    from .posterior import build_posterior
    return build_posterior(*args, **kwargs)


def _cmd_fit(args) -> int:
    from . import data_io, sampler, spec_schema
    scfg = _config(sampler.SamplerConfig, args)
    workers = sampler.worker_count(scfg.chains, args.jobs)
    spec = spec_schema.parse_model_json(Path(args.model).read_text(encoding="utf-8"))
    dataset = data_io.load_csv(args.data)
    model = spec_schema.validate_model(spec, dataset.column_names())
    posteriors = [build_posterior(model, dataset, response_column=args.response_column)]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest("fit", {"sampler": asdict(scfg), "response_column": args.response_column})
    trace, paths = _fit(args, scfg, workers, posteriors.pop())
    manifest.add_output(*paths)
    manifest.add_input(args.model)
    manifest.add_input(args.data)
    manifest.write(out_dir / "manifest.json")
    n_div = int(trace.stats["divergent"].sum())
    print(f"wrote {trace.n_chains}x{trace.n_draws} draws to {out_dir / 'trace.csv'} ({n_div} divergent)")
    return 0


def _render_summary(table: diagnostics.SummaryTable, fmt: str) -> str:
    from . import diagnostics
    if fmt == "text":
        return diagnostics.render_text(table)
    if fmt == "csv":
        return diagnostics.render_csv(table)
    return json.dumps(diagnostics.to_json_obj(table), indent=2)


def _cmd_summarize(args) -> int:
    from . import diagnostics, sampler
    diagnostics.check_hdi_prob(args.hdi)  # before reading the trace
    trace = sampler.load_trace(args.trace, args.stats)
    table = diagnostics.summarize(trace, hdi_prob=args.hdi)
    text = _render_summary(table, args.format)
    print(text)
    if args.out:
        _write_text(args.out, text)
    return 0


def _cmd_plot(args) -> int:
    from . import plotting, sampler
    plotting.check_bins(args.bins)  # before reading the traces
    trace = sampler.load_trace(args.trace)
    compare = sampler.load_trace(args.compare) if args.compare else None
    written = plotting.plot_trace(
        trace,
        args.out_dir,
        compare=compare,
        bins=args.bins,
        label=args.label,
        compare_label=args.compare_label,
    )
    print("\n".join(str(p) for p in written))
    return 0


def _load_beliefs(path) -> dict[str, str]:
    try:
        beliefs = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PlainbayesError(f"beliefs file {path}: invalid JSON: {exc}") from None
    if not isinstance(beliefs, dict) or not beliefs or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in beliefs.items()
    ):
        raise PlainbayesError(
            f"beliefs file {path}: expected a non-empty JSON object mapping parameter names to belief text"
        )
    from .spec_schema import is_identifier
    if bad := [name for name in beliefs if not is_identifier(name)]:
        raise PlainbayesError(f"beliefs file {path}: parameter name {bad[0]!r} is not a valid identifier")
    return beliefs


def _cmd_run(args) -> int:
    started = time.perf_counter()
    from . import data_io, diagnostics, elicitation, plotting, sampler, spec_schema
    diagnostics.check_hdi_prob(args.hdi)  # before any work: these stages come last
    plotting.check_bins(args.bins)
    llm_cfg = _llm_config(args)
    scfg = _config(sampler.SamplerConfig, args)
    sim = None if args.data else _config(data_io.SimConfig, args, seed=scfg.seed)
    workers = sampler.worker_count(scfg.chains, args.jobs)
    manifest = _Manifest(
        "run",
        {"sampler": asdict(scfg), "llm": _public_llm_config(llm_cfg), "hdi": args.hdi, "bins": args.bins},
    )

    # --- inputs: read, parse, elicit and validate everything before writing anything;
    # every check an input allows before eliciting comes before the first LLM call
    if args.data:
        dataset = data_io.load_csv(args.data)
        manifest.add_input(Path(args.data))
    else:
        dataset = data_io.simulate_linear(sim)
        manifest.payload["config"]["simulate"] = asdict(sim)
    if args.compare_model:
        compare_spec = spec_schema.parse_model_json(Path(args.compare_model).read_text(encoding="utf-8"))
        compare = spec_schema.validate_model(compare_spec, dataset.column_names())
    if args.description_file:
        description = Path(args.description_file).read_text(encoding="utf-8")
        manifest.add_input(args.description_file)
        spec = elicitation.elicit_model(description, llm_cfg)
    elif args.beliefs_file:
        beliefs = _load_beliefs(args.beliefs_file)
        manifest.add_input(args.beliefs_file)
        likelihood = spec_schema.LikelihoodSpec(formula_source=args.formula, noise_param=args.noise_param)
        spec_schema.resolve_names(likelihood, beliefs, dataset.column_names())
        priors = {
            name: elicitation.elicit_prior(name, belief, llm_cfg)
            for name, belief in beliefs.items()
        }
        spec = spec_schema.ModelSpec(priors=priors, likelihood=likelihood)
    else:
        raise PlainbayesError("provide --description-file or --beliefs-file")
    jobs = [("", spec_schema.validate_model(spec, dataset.column_names()))]
    if args.compare_model:
        manifest.add_input(args.compare_model)
        jobs.append(("compare_", compare))
    posteriors = {i: build_posterior(model, dataset, response_column=args.response_column) for i, (_, model) in enumerate(jobs)}

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not args.data:
        data_io.save_csv(dataset, out_dir / "data.csv")
        manifest.add_output(out_dir / "data.csv")
    for prefix, model in jobs:
        _write_text(out_dir / f"{prefix}model.json", spec_schema.model_to_json(model.spec), manifest)

    # --- fit + report for the elicited model (and optionally a baseline), each
    # fit in its own worker with its share of the chain workers
    fork_safe = all(pf.fork_safe for pf in posteriors.values())
    share = max(1, workers // len(jobs)) if fork_safe else workers

    def fit_and_report(i):
        prefix = jobs[i][0]
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")  # the caller's filters judge them as it re-issues them
            trace, paths = _fit(args, scfg, share, posteriors.pop(i), prefix)
            table = diagnostics.summarize(trace, hdi_prob=args.hdi)
            for fmt, suffix in (("text", "txt"), ("json", "json"), ("csv", "csv")):
                paths.append(out_dir / f"{prefix}summary.{suffix}")
                _write_text(paths[-1], _render_summary(table, fmt))
        return trace, table, paths, [(str(w.message), w.category, w.filename, w.lineno) for w in warned]

    reports = sampler.forked_map(fit_and_report, len(jobs), workers, fork_safe)
    traces = {}
    for (prefix, _), (trace, table, paths, warned) in zip(jobs, reports):
        for message, category, filename, lineno in warned:
            warnings.warn_explicit(message, category, filename, lineno)
        manifest.add_output(*paths)
        traces[prefix] = trace
        print(f"--- {'baseline' if prefix else 'elicited'} model ---")
        print(diagnostics.render_text(table))

    plots = plotting.plot_trace(
        traces[""],
        out_dir / "plots",
        compare=traces.get("compare_"),
        bins=args.bins,
        label="elicited",
        compare_label="baseline",
    )
    manifest.add_output(*plots)

    manifest.payload["elapsed_seconds"] = round(time.perf_counter() - started, 3)
    manifest.write(out_dir / "manifest.json")
    print(f"run complete in {manifest.payload['elapsed_seconds']}s; outputs in {out_dir}")
    return 0


def run_command(args) -> int:
    """Run the command ``args.command`` names; an error it raises is one stderr line and exit 1."""
    command = {"simulate": _cmd_simulate, "elicit-prior": _cmd_elicit_prior, "elicit-model": _cmd_elicit_model,
               "fit": _cmd_fit, "summarize": _cmd_summarize, "plot": _cmd_plot, "run": _cmd_run}[args.command]
    try:
        return command(args)
    except ElicitationFailed as exc:
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        if exc.last_response:
            print(f"last response excerpt: {exc.last_response[:200]!r}", file=sys.stderr)
        return 1
    except PlainbayesError as exc:
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
