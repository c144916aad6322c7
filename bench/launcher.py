"""Starts the benchmark's op processes, one at a time, for `run.py`.

Reads one JSON request per line on standard input,
    {"cmd": [...], "stdout": PATH, "stderr": PATH}
runs the command to completion and answers one JSON line,
    {"exit": CODE, "wall_s": SECONDS, "max_rss_kb": KB}.

A forked child inherits its parent's RSS high-water mark, and `run.py`
grows large while it sets up a workload.  Starting every op from this
small process keeps each op's maximum RSS (from wait4) its own.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

# An op that uses this much CPU time is killed, and fails its check.
CPU_LIMIT_S = 150


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["cmd"], stdout=out, stderr=err,
                                    preexec_fn=_limit_cpu)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"exit": proc.returncode, "wall_s": wall,
                          "max_rss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
