"""charscan benchmark driver.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

The workload's command lines are drawn from --seed (see workloads.py). Each
repetition starts a fresh interpreter (child.py) that imports charscan.cli
from ./src and runs the commands through charscan.cli.main; children run one
at a time, started by a small launcher process (launcher.py) so that their
peak RSS is their own. Repetitions continue while another one fits in
--seconds.

--trace 0 reports the end-to-end metrics, as medians over the repetitions:
  wall_s       seconds to run the workload's commands, set-up excluded
  peak_rss_mb  the child's own high-water resident memory (os.wait4)
  setup_s      seconds from starting the child until charscan.cli is imported;
               median over every child started, plus a few set-up-only starts
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of tracer.py (medians of times, exact counts) and the
tracing overhead, traced wall_s minus untraced wall_s.

Every repetition's outputs are checked outside the timed region (checks.py):
exit codes, an output digest that must repeat across repetitions, and an
independent recomputation of a sample. A failed check, a nonzero exit or a
timeout fails the repetition; fail_ratio is failed / attempted.

Temporary files live under ./.perfbench/tmp and are deleted after each
repetition; the run record (environment, argv, sizes, digests, every
repetition) and, when traced, the spans are written to ./.perfbench/records.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.

--reconcile instead runs the two one-off commands quoted in the roadmap's
baseline (`pv-scan 3 200000`, default `counterexample`) once each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import checks
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# A repetition of any workload takes 4-13 s; a hung child is killed after
# this, well inside the 180 s a run may take.
REP_TIMEOUT_S = 60.0
# Set-up-only children started after the repetitions, for the setup_s median.
SETUP_ONLY_STARTS = 10

COUNT_UNITS = {"count", "B", "ratio"}


@dataclass
class Child:
    """What one child start produced, as seen from the driver."""

    setup_s: float
    result: dict | None
    exit_status: int
    peak_rss_mb: float
    timed_out: bool


@dataclass
class Rep:
    """One repetition: its measurements, the problems found, and its spans if traced."""

    traced: bool
    setup_s: float
    wall_s: float | None
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    spans: list | None = None
    absent: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        return {k: v for k, v in vars(self).items() if k not in ("spans", "absent")}


class Launcher:
    """The small process that starts every child; see launcher.py for why."""

    def __enter__(self) -> "Launcher":
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc_info) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def start(self, run_dir: Path, job: dict | None) -> Child:
        """Start one child in run_dir and wait for it to end."""
        request = {"run_dir": str(run_dir), "job": job, "timeout_s": REP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if reply["ready"] and json.loads(reply["ready"])["charscan"] != str(SRC / "charscan"):
            raise SystemExit(f"perfbench: the child imported charscan from {reply['ready']!r}, not {SRC}")
        result_file = run_dir / "child.result"
        result = json.loads(result_file.read_text()) if result_file.is_file() else None
        return Child(
            reply["setup_s"], result, reply["exit_status"], reply["peak_rss_kb"] / 1024.0, reply["timed_out"]
        )


def _repetition(
    launcher: Launcher, workload: workloads.Workload, traced: bool, checked: dict | None
) -> Rep:
    """One child run of the workload's commands, then its checks (none if checked is None).

    checked maps an output digest to its check result, so identical outputs
    are recomputed once per run.
    """
    run_dir = Path(tempfile.mkdtemp(dir=STATE / "tmp"))
    try:
        child = launcher.start(run_dir, {"commands": workload.commands, "trace": int(traced)})
        commands = child.result["commands"] if child.result else []
        wall = sum(c["seconds"] for c in commands) if commands else None
        rep = Rep(traced, child.setup_s, wall, child.peak_rss_mb)
        if child.timed_out:
            rep.problems.append(f"timed out after {REP_TIMEOUT_S} s")
        if child.exit_status != 0 or child.result is None:
            tail = (run_dir / "child.stderr").read_text(errors="replace")[-2000:]
            rep.problems.append(f"child exited with status {child.exit_status}: {tail}")
        for i, c in enumerate(commands):
            if c["exit"] != 0:
                tail = (run_dir / f"cmd{i}.stderr").read_text(errors="replace")[-2000:]
                rep.problems.append(f"{' '.join(c['argv'])} exited {c['exit']}: {tail}")
        if not rep.problems and checked is not None:
            rep.digest = checks.digest(run_dir)
            if rep.digest not in checked:
                checked[rep.digest] = checks.check(workload, run_dir)
            rep.problems += checked[rep.digest][0]
        if traced and child.result:
            rep.spans, rep.absent = child.result["spans"], child.result["absent"]
        return rep
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _setup_only(launcher: Launcher) -> float:
    run_dir = Path(tempfile.mkdtemp(dir=STATE / "tmp"))
    try:
        child = launcher.start(run_dir, None)
        if child.exit_status != 0:
            tail = (run_dir / "child.stderr").read_text(errors="replace")[-2000:]
            raise SystemExit(f"perfbench: charscan.cli does not import: {tail}")
        return child.setup_s
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _llc_bytes() -> int | None:
    """Size of the highest-level CPU cache, read from sysfs; None if unreadable."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        value = int(size.rstrip("KM")) * scale
        if best is None or level > best[0] or (level == best[0] and value > best[1]):
            best = (level, value)
    return best[1] if best else None


def _git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "llc_bytes": _llc_bytes(),
        "machine": platform.machine(),
    }


def _check_catalog() -> None:
    """BENCHMARK.json's per-layer list must be the one tracer.py reports."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if listed != tracer.catalog():
        raise SystemExit("perfbench: BENCHMARK.json per_layer differs from tracer.catalog()")


def _layer_summary(reps: list[Rep], plain_wall: float) -> tuple[dict[str, float], dict]:
    """Per-layer metrics over the traced repetitions: medians of times, exact counts.

    The counts of every traced repetition must agree; names that do not are
    listed in the returned notes, as are seams that could not be found.
    """
    traced = [r for r in reps if r.traced and r.spans is not None and not r.problems]
    layers = [tracer.layer_metrics(r.spans, r.absent) for r in traced]
    out: dict[str, float] = {}
    unsteady = []
    for metric in tracer.catalog():
        name = metric["name"]
        values = [layer[name] for layer in layers if name in layer]
        if not values:
            continue
        if metric["unit"] in COUNT_UNITS:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
        else:
            out[name] = statistics.median(values)
    if traced:
        out[tracer.OVERHEAD] = statistics.median(r.wall_s for r in traced) - plain_wall
    notes = {"absent_seams": sorted({a for r in traced for a in r.absent}), "unsteady_counts": unsteady}
    return out, notes


def _write_spans(path: Path, reps: list[Rep]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rep_index, rep in enumerate(reps):
            for span in rep.spans or []:
                fields = dict(zip(tracer.SPAN_FIELDS, span))
                fields["seam"] = tracer.SEAMS[fields["seam"]].name
                fh.write(json.dumps({"rep": rep_index, **fields}) + "\n")


def _run_workload(args: argparse.Namespace) -> int:
    _check_catalog()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    reps: list[Rep] = []
    checked: dict = {}
    with Launcher() as launcher:
        _setup_only(launcher)  # warm-up: byte-compiles charscan, proves it imports; not measured
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(_repetition(launcher, workload, traced, checked))
            elapsed = time.perf_counter() - start
            enough = len(reps) >= (2 if args.trace else 1)
            if enough and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
        setup = [r.setup_s for r in reps] + [_setup_only(launcher) for _ in range(SETUP_ONLY_STARTS)]

    first = next((r.digest for r in reps if r.digest), None)
    for r in reps:
        if r.digest and r.digest != first:
            r.problems.append(f"output digest {r.digest} differs from the first repetition's {first}")
    failed = sum(1 for r in reps if r.problems)
    good = [r for r in reps if not r.problems] or reps
    plain = [r for r in good if not r.traced and r.wall_s is not None]
    if not plain:
        print("perfbench: no repetition produced a timing", file=sys.stderr)
        for r in reps:
            print(r.problems, file=sys.stderr)
        return 1
    plain_wall = statistics.median(r.wall_s for r in plain)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": _environment(),
        "argv": workload.commands,
        "sizes": {**workload.sizes, **next(iter(checked.values()), ([], {}))[1]},
        "digest": first,
        "attempted": len(reps),
        "failed": failed,
        "fail_ratio": failed / len(reps),
        "repetitions": [r.summary() for r in reps],
        "setup_samples_s": setup,
    }
    if args.trace:
        metrics, notes = _layer_summary(reps, plain_wall)
        record.update(notes)
        units = {m["name"]: m["unit"] for m in tracer.catalog()}
    else:
        metrics = {
            "wall_s": plain_wall,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
            "setup_s": statistics.median(setup),
        }
        units = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    record["metrics"] = metrics

    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = records / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        _write_spans(stem.with_name(stem.name + "-spans.jsonl"), reps)

    print(f"workload {workload.name} seed {args.seed}: {len(reps)} repetitions, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    print(f"  fail_ratio = {record['fail_ratio']} ratio")
    for r in reps:
        for problem in r.problems:
            print(f"  FAILED: {problem[:500]}")
    print(f"  record: {stem.with_suffix('.json').relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _reconcile() -> int:
    """The roadmap's one-off baseline commands, through the same child harness."""
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    quoted = {"pv-scan": "19.4 s (1 worker)", "counterexample": "7.9 s, 725 MB"}
    rows = []
    with Launcher() as launcher:
        _setup_only(launcher)
        for argv in (["pv-scan", "3", "200000", "--out", "cache.jsonl"], ["counterexample", "--out", "rows.json"]):
            rep = _repetition(launcher, workloads.Workload("reconcile", 0, [argv]), False, None)
            rows.append({"argv": argv, "roadmap": quoted[argv[0]], **rep.summary()})
            print(f"{' '.join(argv)}: wall_s={rep.wall_s:.2f} peak_rss_mb={rep.peak_rss_mb:.1f} "
                  f"(roadmap: {quoted[argv[0]]}) problems={rep.problems}")
    print(json.dumps({"reconcile": rows, "environment": _environment()}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reconcile", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "charscan" / "cli.py").is_file():
        print(f"perfbench: no charscan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.reconcile:
        return _reconcile()
    if args.workload is None:
        parser.error("--workload is required")
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
