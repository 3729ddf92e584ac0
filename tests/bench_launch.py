"""Launch benchmarks: milliseconds for a cold ``python -m plainbayes`` that only parses.

Run them with::

    PYTHONPATH=src python -m pytest tests/bench_launch.py --benchmark-only -s

The file name keeps it out of the tier-1 suite (``test_*.py``).
``test_launch`` times ``--version``, ``--help`` and ``fit --bogus`` (argparse's
exit 2), each from a fresh interpreter, as ``perfbench``'s ``setup_s`` times
``--version``.  ``test_parser_build`` times, inside fresh interpreters, the
import of ``plainbayes.flags`` plus ``build_parser()``: the package's own
share of such a launch.  Each test prints its median and quartiles and
stores them in the benchmark's ``extra_info``.
"""

import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import plainbayes

ROUNDS = 30
ENV = {**os.environ, "PYTHONPATH": str(Path(plainbayes.__file__).parents[1])}
PARSER_BUILD = """
import time
start = time.perf_counter()
from plainbayes.flags import build_parser
build_parser()
print((time.perf_counter() - start) * 1e3)
"""


def _report(benchmark, stage: str, samples_ms: list[float]) -> None:
    q1, median, q3 = statistics.quantiles(samples_ms, n=4)
    benchmark.extra_info.update(median_ms=median, q1_ms=q1, q3_ms=q3)
    print(f"\n{stage}: {median:.1f} ms [{q1:.1f}, {q3:.1f}] over {len(samples_ms)} fresh processes")


@pytest.mark.parametrize("argv, code", [("--version", 0), ("--help", 0), ("fit --bogus", 2)],
                         ids=["version", "help", "bad-flag"])
def test_launch(benchmark, argv, code):
    benchmark.group = "launch"
    command = [sys.executable, "-m", "plainbayes", *argv.split()]
    proc = benchmark.pedantic(subprocess.run, args=(command,), kwargs={"env": ENV, "capture_output": True},
                              rounds=ROUNDS, warmup_rounds=2)
    assert proc.returncode == code
    _report(benchmark, f"python -m plainbayes {argv}", [t * 1e3 for t in benchmark.stats.stats.data])


def test_parser_build(benchmark):
    benchmark.group = "launch"
    inside: list[float] = []

    def launch():
        out = subprocess.run([sys.executable, "-c", PARSER_BUILD], env=ENV, capture_output=True, text=True, check=True)
        inside.append(float(out.stdout))

    benchmark.pedantic(launch, rounds=ROUNDS, warmup_rounds=2)
    _report(benchmark, "import plainbayes.flags + build_parser()", inside[2:])
