"""Starts the measured children on behalf of perfbench/run.py.

A child's `ru_maxrss` starts at the high-water RSS of the process that
spawned it (Linux carries it across fork and exec), so a child started by the
driver, which has parsed large outputs for its checks, would report the
driver's peak instead of its own. This launcher stays small (standard library
only, no output parsing) and starts every child itself, so the peak that
`os.wait4` reports is the child's.

Protocol over the standard streams, one JSON line per request and reply:
request `{"run_dir": path, "job": {...} or null, "timeout_s": seconds}`,
reply `{"setup_s", "ready", "exit_status", "peak_rss_kb", "timed_out"}`.
`ready` is the child's first stdout line ("" if it died before it). A null
job starts a set-up-only child. The launcher exits when its stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

CHILD = Path(__file__).resolve().parent / "child.py"


def start_child(run_dir: str, job: dict | None, timeout_s: float) -> dict:
    """Start child.py in run_dir, time its set-up, hand it job, reap it with os.wait4."""
    with open(os.path.join(run_dir, "child.stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD)],
            cwd=run_dir,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=err,
        )
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        try:
            if ready and job is not None:
                proc.stdin.write((json.dumps(job) + "\n").encode())
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the child already died; its exit status says why
        proc.stdout.close()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        timer.join()
    return {
        "setup_s": setup_s,
        "ready": ready.decode(errors="replace"),
        "exit_status": proc.returncode,
        "peak_rss_kb": usage.ru_maxrss,
        "timed_out": killed.is_set(),
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = start_child(request["run_dir"], request["job"], request["timeout_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
