"""Command-line front end: scan drivers, report emission, results cache.

Exit codes: 0 success, 2 malformed arguments, 3 violated precondition or
hypothesis, 4 I/O failure (including a held cache lock or a failed worker
process), 130 interrupted (SIGINT). The conductor scan keeps an append-only
JSON-lines cache, one record per line, guarded by a lock file against
concurrent runs; reruns skip cached conductors unless --force, which
recomputes and rewrites the file atomically. Rows are emitted as JSON or
CSV; a report's row is its dataclass fields in declaration order, and
pv-scan's columns are SCAN_COLUMNS. Summaries go to stderr.

Work that splits into chunks runs on worker processes through _forked_map:
chunk i runs on process i mod workers, this process being process 0, and
the results come back in order through pipes, so the output is that of the
one-process route. pv-scan runs its kernel on chunks of 256 conductors on
--workers processes (default: every CPU the process may use), and appends
each chunk's rows to the cache as they arrive, so an interrupted scan loses
at most one chunk; its rows are rendered and written out 256 at a time too.
Counterexample rows are formatted in chunks of 2^12
rows, small enough that the text in flight stays well below the hits' own
columns, on every CPU the process may use. For pv-scan, --out names the
cache file, so its rows always go to stdout; thm-a instead writes its
report file and prints the chain audit.

Each subcommand accepts only the flags it reads. All take --out and --limit
(the largest modulus or x a run may tabulate; beyond it the run exits 3
before building the table). All but thm-a, which always writes JSON, take
--format; means and lemma-b take --seed; pv-scan alone takes --workers and
--force. Any other flag is a parse error, exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import pickle
import signal
import sys
import time
import traceback
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path
from typing import NoReturn

import numpy as np

from .arith import SearchExhaustedError, sieve_primes
from .experiments import (
    CounterexampleHits,
    burgess_scan,
    counterexample_search,
    estimate_delta,
    least_nonresidue,
    lemma_b_report,
    theorem_a_pipeline,
)
from .sums import (
    CompletelyMultiplicativeFunction,
    SumProfile,
    _legendre_peaks,
    _log_terms,
    _mean_terms,
    _streamed_sums,
    log_mean,
    mean,
    pv_ratios,
)

__all__ = ["entry", "main"]

CACHE_ENV = "CHARSCAN_CACHE"
DEFAULT_CACHE = "charscan-cache.jsonl"
DEFAULT_LIMIT = 10**8

SCAN_COLUMNS = [
    "conductor",
    "family",
    "max_abs",
    "argmax",
    "ratio_log",
    "ratio_loglog",
    "timestamp",
]

# Counterexample rows are formatted and written this many at a time, so the
# whole text is never held in memory. A chunk in flight costs about five
# times its text. At 2^11, 2^12 and 2^13 rows the default run's peak RSS is
# the search's (44.1-44.2 MiB); 2^14 rows added 6.2 MiB, and all four ran
# equally fast. 2^12 keeps a factor of two from that step.
_HIT_CHUNK = 1 << 12
# One row as json.dumps(rows, indent=2) and csv.DictWriter lay it out.
_JSON_HIT = (
    '  {\n    "flipped_primes": %s,\n    "N": %d,\n    "mean_at_N": %r,\n'
    '    "log_mean_at_N": %r,\n    "ratio": %r\n  }'
)
_CSV_HEADER = "flipped_primes,N,mean_at_N,log_mean_at_N,ratio\n"
_CSV_HIT = "%s,%d,%r,%r,%r\n"
# pv-scan runs its kernel, appends its rows and writes them out this many
# conductors at a time, so an interrupt loses at most this many rows.
_SCAN_CHUNK = 256

# A row whose values are all of these types is laid out by the C encoder:
# its items joined as json.dumps(rows, indent=2) joins them.
_SCALARS = frozenset({str, int, float, bool, type(None)})
_FLAT_ROW = json.JSONEncoder(separators=(",\n    ", ": "))

# 1/(4 sqrt e), the classical conditional barrier for least-nonresidue growth.
_NONRESIDUE_BARRIER = 1.0 / (4.0 * math.exp(0.5))


def _cache_path(args: argparse.Namespace) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get(CACHE_ENV, DEFAULT_CACHE))


class _CacheLock:
    """Exclusive lock-file guard; concurrent runs against one cache fail fast."""

    def __init__(self, cache: Path):
        self.lock = cache.with_name(cache.name + ".lock")

    def __enter__(self) -> "_CacheLock":
        try:
            fd = os.open(self.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise OSError(
                f"cache is locked by another run ({self.lock} exists; "
                f"{self._holder()})"
            ) from None
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        return self

    def _holder(self) -> str:
        """Pid recorded in the lock file and the lock's age, as far as readable."""
        try:
            pid = self.lock.read_text(encoding="utf-8").strip() or "unknown"
            age = time.time() - self.lock.stat().st_mtime
        except (OSError, UnicodeDecodeError):
            return "holder unknown"
        return f"holder pid {pid}, age {age:.0f} s"

    def __exit__(self, *exc_info) -> None:
        try:
            os.unlink(self.lock)
        except FileNotFoundError:
            pass


def _is_ratio(value) -> bool:
    """True for a number that is a finite float, as the stderr summary needs.

    json reads NaN, Infinity and 1e400 as non-finite floats, and integers
    of any size as int.
    """
    if type(value) is int:
        return abs(value) <= sys.float_info.max
    return type(value) is float and math.isfinite(value)


def _is_scan_record(record) -> bool:
    """True for a dict holding every field pv-scan reads, with usable values."""
    return (
        isinstance(record, dict)
        and type(record.get("conductor")) is int
        and isinstance(record.get("family"), str)
        and type(record.get("max_abs")) is int
        and type(record.get("argmax")) is int
        and _is_ratio(record.get("ratio_log"))
        and _is_ratio(record.get("ratio_loglog", 0.0))
    )


def _scan_record(raw: bytes):
    """The scan record on one raw cache line, or None if it holds none."""
    try:
        record = json.loads(raw.decode("utf-8").strip())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return record if _is_scan_record(record) else None


def _load_cache(cache: Path) -> list[dict]:
    """Scan records of the cache; other lines, UTF-8 or not, draw a warning."""
    if not cache.exists():
        return []
    records = []
    with cache.open("rb") as fh:
        for raw in fh:
            record = _scan_record(raw)
            if record is not None:
                records.append(record)
            elif raw.decode("utf-8", "replace").strip():  # blank lines pass
                print("warning: skipping malformed cache line", file=sys.stderr)
    return records


def _append_cache(cache: Path, records: Sequence[dict]) -> None:
    """Append one JSON line per record, after mending a torn last line.

    A last line without its newline, left by an interrupted append, is
    terminated and kept when it is a whole scan record and cut off
    otherwise, so no later load warns about it again.
    """
    with cache.open("a+b") as fh:
        if fh.tell():
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                fh.seek(0)
                data = fh.read()
                start = data.rfind(b"\n") + 1
                if _scan_record(data[start:]) is not None:
                    fh.write(b"\n")
                else:
                    fh.truncate(start)
        fh.write("".join(json.dumps(record) + "\n" for record in records).encode())
        fh.flush()


def _rewrite_cache(cache: Path, records: Sequence[dict]) -> None:
    tmp = cache.with_name(cache.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, cache)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return value


def _frame(columns: list[str], fmt: str, empty: bool) -> tuple[str, str, str]:
    """How rows are laid out as fmt: (opening, separator, closing).

    The text of rows is the opening, their row texts joined by the separator,
    then the closing: csv.DictWriter's header and lines, or
    json.dumps(rows, indent=2) and a newline.
    """
    if fmt == "csv":
        return _csv_lines([dict(zip(columns, columns))], columns), "", ""
    return ("[]\n", "", "") if empty else ("[\n", ",\n", "\n]\n")


def _csv_lines(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    for row in rows:
        writer.writerow({k: _csv_cell(row.get(k)) for k in columns})
    return buf.getvalue()


def _render(rows: list[dict], columns: list[str], fmt: str) -> str:
    opening, sep, closing = _frame(columns, fmt, not rows)
    body = _csv_lines(rows, columns) if fmt == "csv" else sep.join(map(_json_row, rows))
    return opening + body + closing


def _json_row(row) -> str:
    """One row as json.dumps(rows, indent=2) lays it out inside the list.

    The pure-Python encoder that indent= selects is slow, so a non-empty row
    of scalars is encoded by the C encoder with the indented separators.
    """
    if type(row) is dict and row and _SCALARS.issuperset(map(type, row.values())):
        return "  {\n    " + _FLAT_ROW.encode(row)[1:-1] + "\n  }"
    return "  " + json.dumps(row, indent=2).replace("\n", "\n  ")


def _render_pieces(rows: list[dict], columns: list[str], fmt: str) -> Iterator[str]:
    """_render(rows, columns, fmt) in pieces of _SCAN_CHUNK rows, lazily.

    Each chunk still goes through _render, the one place rows are rendered;
    the frame _frame gives is taken off it, and the chunks are joined by the
    separator inside one frame. The pieces join to the whole text, which is
    never held at once.
    """
    opening, sep, closing = _frame(columns, fmt, not rows)
    yield opening
    for start in range(0, len(rows), _SCAN_CHUNK):
        text = _render(rows[start : start + _SCAN_CHUNK], columns, fmt)
        body = text.removeprefix(opening).removesuffix(closing)
        yield (sep + body) if start else body
    yield closing


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Write text chunks to the path out, or stdout when it is None."""
    if out is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    with Path(out).open("w", encoding="utf-8") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _emit(rows: list[dict], args: argparse.Namespace) -> None:
    """Write rows as JSON or CSV to --out, or stdout when no path was given.

    The columns are the first row's keys, in order; every caller has a row.
    """
    _write([_render(rows, list(rows[0]), args.format)], args.out)


def _hit_format(
    hits: CounterexampleHits, fmt: str
) -> tuple[str, Callable[[int], str], int, str]:
    """The text _render would give for the hits' rows, in _HIT_CHUNK-row chunks.

    Returns (opening, chunk, count, closing): the text is the opening, then
    chunk(0), ..., chunk(count - 1), then the closing. Each row is one
    %-format of column values: %d for N, and %r for the floats, which prints
    the repr that json.dumps and csv both write. The mean and ratio columns
    are computed per chunk from the stored ones.
    """
    count = -(-len(hits) // _HIT_CHUNK)
    if fmt == "csv":
        heads = [";".join(str(p) for p in subset) for subset in hits.subsets]
        template, sep, opening, closing = _CSV_HIT, "", _CSV_HEADER, ""
    else:
        heads = [
            json.dumps(list(subset), indent=2).replace("\n", "\n    ")
            for subset in hits.subsets
        ]
        template, sep = _JSON_HIT, ",\n"
        opening, closing = ("[\n", "\n]\n") if count else ("[]\n", "")

    def chunk(i: int) -> str:
        start = i * _HIT_CHUNK
        part = hits[start : start + _HIT_CHUNK]
        rows = zip(
            [heads[s] for s in part.subset.tolist()],
            part.N.tolist(),
            part.mean_at_N.tolist(),
            part.log_mean_at_N.tolist(),
            part.ratio.tolist(),
        )
        return (sep if start else "") + sep.join(map(template.__mod__, rows))

    return opening, chunk, count, closing


def _allowed_cpus() -> int:
    """The number of CPUs this process may run on, or 1 where it cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _received(pipe: io.BufferedReader):
    """The next length-prefixed result a forked helper wrote to pipe."""
    head = pipe.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "little")
        data = pipe.read(size)
        if len(data) == size:
            return pickle.loads(data)
    raise OSError("forked helper ended before its last chunk")


def _serve(
    chunk: Callable[[int], object],
    indices: range,
    pipes: list[io.BufferedReader],
    write_fd: int,
) -> NoReturn:
    """A forked helper's life: write chunk(i) for each index to write_fd, exit.

    It closes the read ends it inherited, writes each result pickled and
    length-prefixed, flushing after each, and leaves through os._exit, so
    it never flushes an inherited buffer or runs exit hooks. os._exit skips
    the report of an uncaught exception, so a helper that fails writes its
    traceback to fd 2 itself. It does so while its pipe is still open: the
    command kills every helper once a pipe ends early, and os._exit is what
    closes the pipe.
    """
    status = 1
    try:
        for pipe in pipes:
            pipe.close()
        out = open(write_fd, "wb")
        for i in indices:
            data = pickle.dumps(chunk(i), pickle.HIGHEST_PROTOCOL)
            out.write(len(data).to_bytes(8, "little"))
            out.write(data)
            out.flush()
        status = 0
    except Exception:
        with contextlib.suppress(OSError), open(2, "w", closefd=False) as err:
            traceback.print_exc(file=err)
    finally:
        os._exit(status)


@contextlib.contextmanager
def _forked_map(
    chunk: Callable[[int], object], count: int, workers: int
) -> Iterator[Iterator]:
    """Yield an iterator over chunk(0), ..., chunk(count - 1), in order.

    With workers > 1 (capped at count) and os.fork, chunk i runs on process
    i mod workers: this process is process 0, and each other is a forked
    helper that writes its results, in order, to a pipe of its own that this
    process reads between its own chunks. A helper blocks once its pipe is
    full, so it runs at most a pipe's worth of results ahead. On leaving,
    every helper is reaped, and if the caller failed, killed first; a helper
    that fails ends its pipe early, which fails the read as an OSError.
    """
    workers = min(workers, count) if hasattr(os, "fork") else 1
    if workers < 2:
        yield map(chunk, range(count))
        return
    sys.stdout.flush()
    sys.stderr.flush()
    pids: list[int] = []
    pipes: list[io.BufferedReader] = []
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(chunk, range(k, count, workers), pipes, write_fd)
            finally:
                os.close(write_fd)
            pids.append(pid)
        yield (
            chunk(i) if i % workers == 0 else _received(pipes[i % workers - 1])
            for i in range(count)
        )
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _make_function(
    args: argparse.Namespace, limit: int
) -> tuple[str, CompletelyMultiplicativeFunction]:
    cmf = CompletelyMultiplicativeFunction
    if args.f == "ones":
        label, f = "ones", cmf.ones(limit)
    elif args.f == "liouville":
        label, f = "liouville", cmf.liouville(limit)
    else:
        f = cmf.random(limit, np.random.default_rng(args.seed))
        label = f"random(seed={args.seed})"
    if args.flip:
        f = f.flip(args.flip)
        label += "+flip[" + ",".join(str(p) for p in args.flip) + "]"
    return label, f


def _capacity(needed: int, args: argparse.Namespace) -> None:
    if needed > args.limit:
        raise ValueError(
            f"needed table size {needed} exceeds capacity {args.limit}; raise --limit"
        )


def _scan_records(
    primes: Sequence[int], peaks: Iterable[tuple[int, int]]
) -> list[dict]:
    """pv-scan rows for odd primes, in order, from their (peak, first) pairs."""
    records = []
    for p, (peak, first) in zip(primes, peaks):
        ratios = pv_ratios(SumProfile(modulus=p, max_abs=peak, argmax=first))
        record = {
            "conductor": p,
            "family": "legendre",
            "max_abs": peak,
            "argmax": first,
            "ratio_log": ratios["ratio_log"],
            "timestamp": int(time.time()),
        }
        if "ratio_loglog" in ratios:
            record["ratio_loglog"] = ratios["ratio_loglog"]
        records.append(record)
    return records


def _cmd_pv_scan(args: argparse.Namespace) -> int:
    _capacity(args.pmax, args)
    cache = _cache_path(args)
    with _CacheLock(cache):
        by_key = {(r["conductor"], r["family"]): r for r in _load_cache(cache)}
        targets = [
            int(p)
            for p in sieve_primes(args.pmax)
            if p >= args.pmin and p % 4 == args.residue_class
        ]
        todo = [p for p in targets if args.force or (p, "legendre") not in by_key]
        parts = [todo[i : i + _SCAN_CHUNK] for i in range(0, len(todo), _SCAN_CHUNK)]
        workers = _allowed_cpus() if args.workers is None else args.workers

        def peaks(i: int) -> list[tuple[int, int]]:
            # a list, so the kernel's buffers are freed before the rows are built
            return list(_legendre_peaks(parts[i]))

        with _forked_map(peaks, len(parts), workers) as results:
            for part, part_peaks in zip(parts, results):
                records = _scan_records(part, part_peaks)
                if not args.force:
                    _append_cache(cache, records)
                for record in records:
                    by_key[(record["conductor"], record["family"])] = record
        if args.force and todo:
            _rewrite_cache(cache, [by_key[k] for k in sorted(by_key)])

    in_range = [
        by_key[(p, "legendre")] for p in targets if (p, "legendre") in by_key
    ]
    _write(_render_pieces(in_range, SCAN_COLUMNS, args.format), None)
    skipped = len(targets) - len(todo)
    if in_range:
        max_log = max(r["ratio_log"] for r in in_range)
        loglogs = [r["ratio_loglog"] for r in in_range if "ratio_loglog" in r]
        loglog_text = f"{max(loglogs):.6f}" if loglogs else "n/a"
        print(
            f"pv-scan: {len(todo)} new, {skipped} cached; "
            f"max ratio_log={max_log:.6f}; max ratio_loglog={loglog_text}",
            file=sys.stderr,
        )
    else:
        print(
            f"pv-scan: 0 records in range [{args.pmin}, {args.pmax}]",
            file=sys.stderr,
        )
    return 0


def _cmd_burgess_scan(args: argparse.Namespace) -> int:
    _capacity(args.p, args)
    points = burgess_scan(args.p, args.thetas)
    rows = [dataclasses.asdict(point) for point in points]
    _emit(rows, args)
    print(
        f"burgess-scan: p={args.p}, {len(rows)} points, "
        f"max ratio={max(r['ratio'] for r in rows):.6f}",
        file=sys.stderr,
    )
    return 0


def _cmd_means(args: argparse.Namespace) -> int:
    m = math.floor(args.x)
    _capacity(m, args)
    label, f = _make_function(args, m)
    streamed = _streamed_sums(f, args.x, (_mean_terms, _log_terms))
    rows = [
        {
            "f": label,
            "x": args.x,
            "mean": mean(streamed, args.x),
            "log_mean": log_mean(streamed, args.x),
        }
    ]
    _emit(rows, args)
    return 0


def _cmd_lemma_b(args: argparse.Namespace) -> int:
    m = math.floor(args.x)
    _capacity(m, args)
    if args.trials is not None:
        estimate = estimate_delta(args.c, args.x, args.trials, args.seed)
        _emit([dataclasses.asdict(estimate)], args)
        return 0
    label, f = _make_function(args, m)
    report = lemma_b_report(f, args.x, min_x=args.min_x)
    _emit([{"f": label, **dataclasses.asdict(report)}], args)
    return 0


def _cmd_thm_a(args: argparse.Namespace) -> int:
    report = theorem_a_pipeline(args.p, args.epsilon, args.c, max_modulus=args.limit)
    payload = dataclasses.asdict(report)
    payload["chain_lines"] = [
        {"label": label, "value": value} for label, value in report.chain_lines
    ]
    payload["timestamp"] = int(time.time())
    out = Path(args.out) if args.out is not None else Path(f"thm-a-{args.p}.json")
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    print(f"p={report.p} epsilon={report.epsilon} c={report.c}")
    print(
        f"t_p={report.t_p:.6g} mean={report.mean_xi:.6g} "
        f"log_mean={report.log_mean_xi:.6g}"
    )
    print(f"delta={report.delta:.6g} ell={report.ell} q={report.q}")
    for label, value in report.chain_lines:
        print(f"  {value:+.9f}  {label}")
    print(
        f"bound audit: lhs={report.lemma_bg_lhs:.9f} "
        f"rhs_main={report.lemma_bg_rhs_main:.9f}"
    )
    print(f"final ratio max|S|/(sqrt(q) log q) = {report.final_ratio:.9f}")
    if report.flags:
        print("flags: " + ", ".join(report.flags))
    print(f"report written to {out}")
    return 0


def _cmd_nonresidue(args: argparse.Namespace) -> int:
    _capacity(args.pmax, args)
    rows = []
    for p in sieve_primes(args.pmax):
        p = int(p)
        if p == 2:
            continue
        n = least_nonresidue(p)
        rows.append(
            {"p": p, "least_nonresidue": n, "exponent": math.log(n) / math.log(p)}
        )
    _emit(rows, args)
    worst = max(rows, key=lambda r: r["exponent"])
    print(
        f"nonresidue: {len(rows)} odd primes <= {args.pmax}; "
        f"max exponent={worst['exponent']:.6f} at p={worst['p']} "
        f"(1/(4 sqrt e) = {_NONRESIDUE_BARRIER:.6f})",
        file=sys.stderr,
    )
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    m = math.floor(args.x_max)
    _capacity(m, args)
    hits = counterexample_search(args.x_max, args.flip_budget, args.threshold)
    opening, chunk, count, closing = _hit_format(hits, args.format)
    with _forked_map(chunk, count, _allowed_cpus()) as texts:
        _write(itertools.chain([opening], texts, [closing]), args.out)
    print(f"counterexample: {len(hits)} hits", file=sys.stderr)
    return 0


_FLAGS = {
    "limit": dict(
        type=int,
        default=DEFAULT_LIMIT,
        help="largest modulus or x a run may tabulate",
    ),
    "format": dict(choices=["json", "csv"], default="json", help="output format"),
    "seed": dict(type=int, default=0, help="random seed"),
    "workers": dict(
        type=int,
        default=None,
        help="worker processes (default: every CPU this process may use)",
    ),
    "force": dict(action="store_true", help="recompute cached conductors"),
}


def _add_flags(
    parser: argparse.ArgumentParser,
    *names: str,
    out_help: str = "output path (default stdout)",
) -> None:
    """Add --out, --limit and the named flags; a flag not added is rejected.

    out_help says what --out names: the output by default, the cache file
    for pv-scan and the report file for thm-a.
    """
    parser.add_argument("--out", default=None, help=out_help)
    for name in ("limit", *names):
        parser.add_argument("--" + name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charscan",
        description=(
            "Quadratic character sum scans: partial-sum maxima, short-sum "
            "regimes, mean comparisons, and the conductor-pasting pipeline."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pv-scan", help="scan partial-sum maxima over a prime range")
    p.add_argument("pmin", type=int)
    p.add_argument("pmax", type=int)
    p.add_argument(
        "--residue-class",
        type=int,
        choices=[1, 3],
        default=3,
        help="keep primes in this class mod 4",
    )
    _add_flags(
        p,
        "format",
        "workers",
        "force",
        out_help=f"cache file (default ${CACHE_ENV} or ./{DEFAULT_CACHE}); "
        "rows go to stdout",
    )
    p.set_defaults(handler=_cmd_pv_scan)

    p = sub.add_parser("burgess-scan", help="exact short sums S(p**theta)")
    p.add_argument("p", type=int)
    p.add_argument(
        "--thetas",
        type=float,
        nargs="+",
        default=[0.25, 0.3, 0.4, 0.5, 0.75, 1.0],
    )
    _add_flags(p, "format")
    p.set_defaults(handler=_cmd_burgess_scan)

    p = sub.add_parser("means", help="mean and log-mean of a chosen function")
    p.add_argument("x", type=float)
    p.add_argument("--f", choices=["ones", "liouville", "random"], default="liouville")
    p.add_argument("--flip", type=int, nargs="*", default=[])
    _add_flags(p, "format", "seed")
    p.set_defaults(handler=_cmd_means)

    p = sub.add_parser(
        "lemma-b", help="means report, or a delta estimate with --trials/--c"
    )
    p.add_argument("x", type=float)
    # None marks "not given": these select the reported function, which
    # --trials replaces by its own sample, so _validate rejects them there.
    p.add_argument("--f", choices=["ones", "liouville", "random"], default=None)
    p.add_argument("--flip", type=int, nargs="*", default=None)
    p.add_argument("--min-x", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--c", type=float, default=None)
    _add_flags(p, "format", "seed")
    p.set_defaults(handler=_cmd_lemma_b)

    p = sub.add_parser("thm-a", help="run and audit the conductor-pasting pipeline")
    p.add_argument("p", type=int)
    p.add_argument("epsilon", type=float)
    p.add_argument("c", type=float)
    _add_flags(p, out_help="report file (default thm-a-P.json)")
    p.set_defaults(handler=_cmd_thm_a)

    p = sub.add_parser("nonresidue", help="least nonresidue for odd primes <= pmax")
    p.add_argument("pmax", type=int)
    _add_flags(p, "format")
    p.set_defaults(handler=_cmd_nonresidue)

    p = sub.add_parser(
        "counterexample", help="search flipped Liouville functions for inversions"
    )
    p.add_argument("--x-max", type=float, default=10000.0)
    p.add_argument("--flip-budget", type=int, default=2)
    p.add_argument("--threshold", type=float, default=0.5)
    _add_flags(p, "format")
    p.set_defaults(handler=_cmd_counterexample)

    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Range and combination checks; violations exit 2 before dispatch.

    Also fills in the lemma-b report defaults that the parser leaves unset.
    """
    if args.limit < 2:
        parser.error("--limit must be at least 2")
    cmd = args.command
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            # thm-a's floats and the x of means and lemma-b are positionals
            positional = cmd == "thm-a" or name == "x"
            label = name if positional else "--" + name.replace("_", "-")
            parser.error(f"{label} must be a finite number")
    if cmd == "pv-scan":
        if args.pmin < 2 or args.pmax < args.pmin:
            parser.error("need 2 <= pmin <= pmax")
        if args.workers is not None and args.workers < 1:
            parser.error("--workers must be at least 1")
    elif cmd == "burgess-scan":
        if args.p < 3:
            parser.error("p must be at least 3")
        for theta in args.thetas:
            if not 0 < theta <= 1:
                parser.error("each theta must lie in (0, 1]")
    elif cmd == "means":
        if args.x < 2:
            parser.error("x must be at least 2")
    elif cmd == "lemma-b":
        if args.x < 2:
            parser.error("x must be at least 2")
        if (args.trials is None) != (args.c is None):
            parser.error("--trials and --c must be given together")
        if args.trials is not None and args.trials < 1:
            parser.error("--trials must be positive")
        if args.c is not None and not 0 < args.c <= 1:
            parser.error("--c must lie in (0, 1]")
        chosen = [args.f, args.flip, args.min_x]
        if args.trials is not None and any(v is not None for v in chosen):
            parser.error("--f, --flip and --min-x do not apply with --trials")
        if args.f is None:
            args.f = "liouville"
        if args.flip is None:
            args.flip = []
        if args.min_x is None:
            args.min_x = 100.0
    elif cmd == "thm-a":
        if args.p < 3:
            parser.error("p must be at least 3")
        if not 0 < args.epsilon < 1:
            parser.error("epsilon must lie in (0, 1)")
        if not 0 < args.c <= 1:
            parser.error("c must lie in (0, 1]")
    elif cmd == "nonresidue":
        if args.pmax < 3:
            parser.error("pmax must be at least 3")
    elif cmd == "counterexample":
        if args.x_max < 100:
            parser.error("--x-max must be at least 100")
        if args.flip_budget < 0:
            parser.error("--flip-budget must be nonnegative")
        if args.threshold < 0:
            parser.error("--threshold must be nonnegative")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, SearchExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
