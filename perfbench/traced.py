"""Run one plainbayes CLI command with spans around its calls into each module.

    python perfbench/traced.py SPANS.json <plainbayes arguments...>

The public functions the CLI calls are replaced, before ``cli.main`` runs,
by wrappers that record a span (id, name, parent, start, end).  Density
calls are too many for one span each: the built ``PosteriorFn`` is wrapped
in a new ``PosteriorFn`` whose public callables add their count and time to
a counter under the enclosing span.  Spans stay in memory and are written
to SPANS.json when the command ends; the exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, parent, start, end]
        self.counters = {}  # (parent id, name) -> [calls, seconds]
        self._stack = []

    def open(self, name):
        rec = [len(self.spans), name, self._stack[-1] if self._stack else None, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def close(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)

        return traced

    def count(self, name, fn):
        clock = time.perf_counter
        stack = self._stack
        counters = self.counters

        def counted(z):
            t0 = clock()
            try:
                return fn(z)
            finally:
                dt = clock() - t0
                slot = counters.get((stack[-1], name))
                if slot is None:
                    slot = counters[(stack[-1], name)] = [0, 0.0]
                slot[0] += 1
                slot[1] += dt

        return counted

    def dump(self, path):
        payload = {
            "spans": [dict(zip(("id", "name", "parent", "start", "end"), s)) for s in self.spans],
            "counters": [
                {"parent": parent, "name": name, "calls": calls, "seconds": seconds}
                for (parent, name), (calls, seconds) in self.counters.items()
            ],
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def install(tracer: Tracer):
    """Patch the module attributes the CLI looks up at call time."""
    from plainbayes import cli, data_io, diagnostics, elicitation, plotting, sampler, spec_schema
    from plainbayes.posterior import PosteriorFn

    for module, names in (
        (data_io, ("simulate_linear", "load_csv", "save_csv")),
        (elicitation, ("elicit_model", "elicit_prior")),
        (spec_schema, ("parse_model_json", "validate_model")),
        (sampler, ("sample", "save_trace", "load_trace")),
        (diagnostics, ("summarize",)),
        (plotting, ("plot_trace",)),
    ):
        layer = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            setattr(module, name, tracer.wrap(f"{layer}.{name}", getattr(module, name)))

    build = tracer.wrap("posterior.build_posterior", cli.build_posterior)

    def build_posterior(*args, **kwargs):
        pf = build(*args, **kwargs)
        return PosteriorFn(
            param_names=pf.param_names,
            log_density_and_grad=tracer.count("posterior.log_density_and_grad", pf.log_density_and_grad),
            log_density=tracer.count("posterior.log_density", pf.log_density),
            constrain=pf.constrain,
            transforms=pf.transforms,
        )

    cli.build_posterior = build_posterior
    return cli


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    rec = tracer.open("cli.import")
    import plainbayes.cli  # noqa: F401  (timed: the import is a stage of every command)

    tracer.close(rec)
    cli = install(tracer)
    rec = tracer.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(rec)
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
