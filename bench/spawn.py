"""Run one command and print its own wall time, CPU time and peak RSS.

    python3 -S bench/spawn.py PROGRAM [ARG...]

The command's stdout and stderr both go to this process's stderr; stdout
carries one JSON line: ``{"code", "wall_s", "cpu_s", "rss_kb"}``.

Why a separate process: on Linux an exec'd process starts its peak RSS
from the peak of the address space it replaced, so a child spawned by the
benchmark itself would report at least the benchmark's own peak. This
small interpreter is the one replaced here, so a command's reported peak is
its own whenever it exceeds this launcher's few MB, as every spectrune
command (which imports numpy) does.
"""

import json
import os
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    report = {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "rss_kb": ru.ru_maxrss,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
