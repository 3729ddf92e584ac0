"""Run one command; print its wall time, peak RSS and exit code as JSON.

    python3 -S perfbench/spawn.py OUT ERR ARGV...

The command's standard output and error go to the files OUT and ERR.  On
Linux a process's ``ru_maxrss`` keeps the resident size of the process it
was forked from, so a command forked straight from the benchmark, which
holds traces and quadrature grids, would report the benchmark's memory.
This launcher is a small interpreter without ``site``; it forks the command,
and the command's ``ru_maxrss`` is then its own.
"""

import json
import os
import signal
import sys
import time


def main(out_path: str, err_path: str, argv: list) -> None:
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(
            argv[0],
            argv,
            os.environ,
            file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)],
        )
        # If the benchmark is stopped, stop the command too; wait4 below still reaps it.
        signal.signal(signal.SIGTERM, lambda *_: os.kill(pid, signal.SIGTERM))
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    print(json.dumps({"wall": wall, "maxrss_kb": usage.ru_maxrss, "code": os.waitstatus_to_exitcode(status)}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
