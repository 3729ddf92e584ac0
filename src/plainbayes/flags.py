"""The command line: every subcommand's flags, parsed before any command code loads.

This module imports ``argparse`` and ``__version__`` alone, so ``--version``,
``--help`` and a bad flag exit without loading ``cli`` or numpy; ``main`` then
imports ``cli`` to run the command.  A flag named after a config dataclass's
field has it as its dest and no default, so the dataclass keeps its default.
"""

import argparse

from . import __version__

__all__ = ["main", "build_parser"]


def _add_llm_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("llm", argument_default=argparse.SUPPRESS)
    g.add_argument("--llm-mode", dest="mode", choices=("live", "replay", "record"))
    g.add_argument("--fixtures-dir", help="fixture directory (default: packaged fixtures)")
    g.add_argument("--endpoint-url")
    g.add_argument("--model-name")
    g.add_argument("--api-key-env")
    g.add_argument("--temperature", type=float)
    g.add_argument("--timeout", type=float)
    g.add_argument("--max-retries", type=int)


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("sampler", argument_default=argparse.SUPPRESS)
    g.add_argument("--algorithm", choices=("nuts", "rwm"))
    g.add_argument("--chains", type=int)
    g.add_argument("--warmup", dest="warmup_draws", metavar="WARMUP", type=int)
    g.add_argument("--draws", dest="kept_draws", metavar="DRAWS", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--target-accept", type=float)
    g.add_argument("--max-tree-depth", type=int)
    g.add_argument("--step-size-init", type=float)
    g.add_argument("--response-column", default="y")
    g.add_argument("--jobs", type=int, default=None,
                   help="most processes sampling at once (default: one per usable CPU, at most one per chain); "
                        "run gives each fit its own process and an equal share, at least 1, for its chains; "
                        "1 runs everything in process. Outputs do not depend on it")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("simulate", argument_default=argparse.SUPPRESS)
    g.add_argument("--alpha", type=float, default=2.5)
    g.add_argument("--beta", type=float, default=1.8)
    g.add_argument("--sigma", type=float, default=15.0)
    g.add_argument("--n", type=int, default=100)
    g.add_argument("--x-low", type=float)
    g.add_argument("--x-high", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plainbayes",
        description="Turn plain-language model descriptions into Bayesian inferences.",
    )
    parser.add_argument("--version", action="version", version=f"plainbayes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic linear dataset")
    _add_sim_flags(p)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)

    p = sub.add_parser("elicit-prior", help="turn one belief into a prior JSON")
    p.add_argument("--param", required=True)
    p.add_argument("--belief", default=None)
    p.add_argument("--belief-file", default=None)
    p.add_argument("--out", default=None)
    _add_llm_flags(p)

    p = sub.add_parser("elicit-model", help="turn a problem description into a model JSON")
    p.add_argument("--description-file", required=True)
    p.add_argument("--out", default=None)
    _add_llm_flags(p)

    p = sub.add_parser("fit", help="run MCMC on a model JSON + dataset CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    _add_sampler_flags(p)

    p = sub.add_parser("summarize", help="summary statistics for a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--stats", default=None)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--hdi", type=float, default=0.94)
    p.add_argument("--out", default=None)

    p = sub.add_parser("plot", help="histograms (CSV + SVG) for a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--compare", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--label", default="trace")
    p.add_argument("--compare-label", default="compare")

    p = sub.add_parser("run", help="full pipeline: elicit, fit, summarize, plot")
    p.add_argument("--description-file", default=None)
    p.add_argument("--beliefs-file", default=None)
    p.add_argument("--formula", default="alpha + beta * X",
                   help="likelihood mean used with --beliefs-file")
    p.add_argument("--noise-param", default="sigma")
    p.add_argument("--compare-model", default=None, help="model JSON to fit alongside for comparison")
    p.add_argument("--data", default=None)
    _add_sim_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--hdi", type=float, default=0.94)
    p.add_argument("--bins", type=int, default=50)
    _add_llm_flags(p)
    _add_sampler_flags(p)

    return parser


def main(argv=None) -> int:
    """Parse ``argv`` (argparse exits on ``--version``, ``--help`` or a bad flag), then
    load ``cli`` and run the command: its exit code, 0 iff no stage failed."""
    args = build_parser().parse_args(argv)
    from . import cli
    return cli.run_command(args)
