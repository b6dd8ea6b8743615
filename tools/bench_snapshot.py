"""Copy the untraced perfbench results into a committed BENCH_<tag>.json.

perfbench/run.py keeps its run records in the gitignored .perfbench/records,
one file per (workload, seed, trace), each overwritten by the next run with
the same settings. This script copies, from every untraced record
(`*-trace0.json`), what describes the tree's performance: the workload and
seed, the metric medians, the output digest, the repetitions attempted and
failed, and the git commit the run was taken on. One such file per change
gives the trajectory across changes. Run from the repository root, after the
perfbench runs:

    python3 tools/bench_snapshot.py TAG

git_commit is the HEAD the run saw, so runs of an uncommitted change name
the commit it is based on. Only records taken at the current HEAD are
copied; each other record is named on stderr and skipped, so runs left from
an earlier commit never reach the snapshot. With no record left, the script
exits 1. Beside the tag, src_sha256 names the source the snapshot was taken
beside: the sha256 over src/charscan/*.py in sorted order, each file fed as
its path, a NUL, its length in decimal, a NUL and its bytes. With no
such file, the script exits 1.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

RECORDS = Path(".perfbench") / "records"
GIT = Path(".git")
SRC = Path("src") / "charscan"


def source_sha256(src: Path) -> str | None:
    """sha256 over the sorted *.py files of src: path, length, bytes; None
    when src holds no such file."""
    paths = sorted(src.glob("*.py"))
    if not paths:
        return None
    digest = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        digest.update(f"{path.as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def head_commit(git: Path) -> str | None:
    """HEAD read as perfbench/run.py records it: HEAD, its ref file, packed-refs."""
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


def snapshot(records: Path, head: str) -> list[dict]:
    """The copied fields of each untraced record taken at head, ordered by
    workload and seed; every other record is named on stderr."""
    rows = []
    for path in sorted(records.glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        commit = record["environment"]["git_commit"]
        if commit != head:
            print(f"bench_snapshot: skipped {path.name}, taken at {commit}", file=sys.stderr)
            continue
        rows.append(
            {
                "workload": record["workload"],
                "seed": record["seed"],
                "metrics": record["metrics"],
                "digest": record["digest"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "git_commit": commit,
            }
        )
    return sorted(rows, key=lambda row: (row["workload"], row["seed"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tag", help="the output file is BENCH_<tag>.json")
    args = parser.parse_args(argv)
    head = head_commit(GIT)
    if head is None:
        print(f"bench_snapshot: cannot read HEAD from {GIT}", file=sys.stderr)
        return 1
    rows = snapshot(RECORDS, head)
    if not rows:
        print(
            f"bench_snapshot: no *-trace0.json records at {head} in {RECORDS}",
            file=sys.stderr,
        )
        return 1
    src_sha256 = source_sha256(SRC)
    if src_sha256 is None:
        print(f"bench_snapshot: no *.py source files in {SRC}", file=sys.stderr)
        return 1
    out = Path(f"BENCH_{args.tag}.json")
    payload = {"tag": args.tag, "src_sha256": src_sha256, "records": rows}
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}: {len(rows)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
