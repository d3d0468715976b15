"""Child-process launcher of the benchmark.

Runs one job at a time and reports its wall time from spawn to exit, and its
user+sys CPU time and peak RSS from ``os.wait4``.  It is a small process of
its own because Linux credits a child with the peak RSS of the address space
it replaced at exec, which after ``posix_spawn`` is the spawning process's.

Protocol: one JSON request per stdin line,
``{"argv": [...], "env": {...}, "stdout": path, "stderr": path}``, answered
by one JSON line ``{"wall_s": .., "cpu_s": .., "rss_kb": .., "exit": ..}``.
The launcher exits when stdin closes.
"""
from __future__ import annotations

import json
import os
import sys
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], FLAGS, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], FLAGS, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "exit": os.waitstatus_to_exitcode(status),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
