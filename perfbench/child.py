"""One measured repetition of a workload, in a fresh interpreter.

Started by perfbench/run.py with the run's temporary directory as working
directory and the repository's `src` on PYTHONPATH. Protocol over the
standard streams:

1. Import `charscan.cli`, then write one JSON line `{"charscan": <package dir>}`
   to stdout. Set-up time ends when the launcher reads this line.
2. Read one JSON job line from stdin: `{"commands": [argv, ...], "trace": 0|1}`.
   An empty stdin ends the child here (a set-up-only start).
3. Run each argv through `charscan.cli.main`, one after another, with fd 1 and
   fd 2 sent to `cmd<i>.stdout` and `cmd<i>.stderr`. Each command is timed
   from the call until its stdout is flushed.
4. Write `child.result`: per-command exit code and seconds, and, when traced,
   the spans and the seams that could not be found.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def _run_command(cli, index: int, argv: list[str]) -> dict:
    sys.stdout.flush()
    sys.stderr.flush()
    with open(f"cmd{index}.stdout", "wb") as out, open(f"cmd{index}.stderr", "wb") as err:
        os.dup2(out.fileno(), 1)
        os.dup2(err.fileno(), 2)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # an uncaught program error fails this command, not the child
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    seconds = time.perf_counter() - start
    sys.stderr.flush()
    return {"argv": argv, "exit": code, "seconds": seconds}


def main() -> int:
    from charscan import cli

    print(json.dumps({"charscan": os.path.dirname(cli.__file__)}), flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0
    job = json.loads(line)
    tracer = None
    if job["trace"]:
        import tracer as tracing  # perfbench/ is sys.path[0]

        tracer = tracing.Tracer()
        tracer.install()
    commands = []
    for index, argv in enumerate(job["commands"]):
        if tracer is not None:
            tracer.run = index
        commands.append(_run_command(cli, index, argv))
    result = {
        "commands": commands,
        "spans": tracer.spans if tracer else [],
        "absent": tracer.absent if tracer else [],
    }
    with open("child.result", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
