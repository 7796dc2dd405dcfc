"""Run one command; write its exit code, wall time and peak RSS as JSON.

    python3 -S bench/launch.py REPORT.json COMMAND [ARG...]

The benchmark starts every timed command through this small process. A
child's ru_maxrss also counts the memory of the process it was forked from
(up to its exec), so forking the program straight from the benchmark would
report the benchmark's own size whenever that is larger.
"""

import json
import os
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    # the child owns stdin and stdout: drop this process's copies so EOF travels
    null = os.open(os.devnull, os.O_RDWR)
    os.dup2(null, 0)
    os.dup2(null, 1)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - start
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"exit": os.waitstatus_to_exitcode(status), "wall_s": wall_s, "maxrss_kb": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
