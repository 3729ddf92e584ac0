"""Which lines of ``src/plainbayes/*.py`` the test suite never runs, with the standard library alone.

Run it from the repository root with::

    python tests/line_coverage.py [PYTEST ARGS ...]

It writes a ``sitecustomize.py`` into a temporary directory and runs ``python -m pytest -q
[PYTEST ARGS]`` with that directory, then ``src/``, first on ``PYTHONPATH``.  Python imports the
module at startup, so it traces every process of the run: pytest, the CLI subprocesses the tests
start (it puts its directory back on the ``PYTHONPATH`` of each child, whose environment a test may
set), and the chain and fit workers that ``sampler.forked_map`` forks.  A ``sys.settrace`` (and
``threading.settrace``) hook records each line event in a frame whose code comes from a file of the
package; each process writes its lines to the directory at exit, a forked worker before it leaves
through ``os._exit``.

The executable lines of a file are those the code objects of its compiled source map an instruction
to.  It prints, per file, the lines reached of those and the unreached ones as ranges, then the
total, and exits with pytest's status.  No ``coverage`` package is needed.  The file name keeps
pytest from collecting it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "plainbayes"

# The hook each process loads at startup; {package}, {lines} and {here} are filled in.
_SITECUSTOMIZE = '''
import atexit, json, os, subprocess, sys, threading

_PACKAGE, _LINES, _HERE = {package!r}, {lines!r}, {here!r}
_hits = set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PACKAGE):
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
        return _line
    return None


def _dump():  # whole or not at all: a signal may stop a worker mid-write
    sys.settrace(None)
    path = os.path.join(_LINES, f"{{os.getpid()}}-{{os.urandom(6).hex()}}")
    with open(path + ".part", "w") as fh:
        json.dump(sorted(_hits), fh)
    os.replace(path + ".part", path + ".json")


def _exit(code, _real=os._exit):  # a forked worker leaves this way, past atexit
    _dump()
    _real(code)


def _popen(self, *args, env=None, _real=subprocess.Popen.__init__, **kwargs):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_HERE, env.get("PYTHONPATH")]))
    _real(self, *args, env=env, **kwargs)


os._exit = _exit
subprocess.Popen.__init__ = _popen
atexit.register(_dump)
threading.settrace(_call)
sys.settrace(_call)
'''


def executable_lines(path: Path) -> set[int]:
    """The lines an instruction of ``path``'s compiled code maps to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """``1-3, 7`` for the sorted line numbers ``lines``."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(pytest_args: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        here, lines_dir = Path(tmp) / "hook", Path(tmp) / "lines"
        here.mkdir()
        lines_dir.mkdir()
        (here / "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(package=str(PACKAGE) + os.sep, lines=str(lines_dir), here=str(here)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(here), str(SRC), os.environ.get("PYTHONPATH")])))
        status = subprocess.run([sys.executable, "-m", "pytest", "-q", *pytest_args], cwd=ROOT, env=env).returncode
        hits = set()
        for dump in lines_dir.glob("*.json"):
            hits.update((name, line) for name, line in json.loads(dump.read_text()))
    reached_total = executable_total = 0
    print(f"\nline coverage of {PACKAGE.relative_to(ROOT)}:")
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        missed = executable - {line for name, line in hits if name == str(path)}
        reached_total += len(executable) - len(missed)
        executable_total += len(executable)
        print(f"{path.name}: {len(executable) - len(missed)} of {len(executable)}"
              + (f"; unreached: {ranges(missed)}" if missed else ""))
    print(f"total: {reached_total} of {executable_total} executable lines reached "
          f"({100.0 * reached_total / executable_total:.1f} %)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
