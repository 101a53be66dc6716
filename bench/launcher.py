"""Runs the benchmark's child commands one at a time and times them.

The benchmark starts this once, as ``python bench/launcher.py``, and sends
it one JSON request per line: ``{"argv", "cwd", "env", "out", "err",
"timeout"}``. For each it starts the child, reaps it with ``os.wait4`` and
answers ``{"wall", "cpu", "rss_mb", "code"}``; it exits at end of input.

It exists because a child's peak RSS from ``wait4`` also counts the memory
of the process that spawned it (the spawner's address space is the one
``exec`` replaces), so children must come from a process this small:
standard library only, no numpy, no inputs.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], stdout=out, stderr=err, cwd=request["cwd"], env=request["env"]
        )
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
