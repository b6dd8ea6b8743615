"""Command-line front end: scan drivers, report emission, results cache.

Exit codes: 0 success, 2 malformed arguments, 3 violated precondition or
hypothesis, 4 I/O failure (including a held cache lock). The conductor scan
keeps an append-only JSON-lines cache, one record per line, guarded by a
lock file against concurrent runs; reruns skip cached conductors unless
--force, which recomputes and rewrites the file atomically. Rows are
emitted as JSON or CSV with fixed column orders; summaries go to stderr.
Counterexample rows are formatted in chunks of 2^12 rows, small enough that
the text in flight stays well below the hits' own columns. Where they span
more than one chunk and a second CPU is available, a forked helper formats
every other chunk into a pipe that this process copies out in order, so the
bytes are those of the one-process route.
For pv-scan, --out names the cache file, so its rows always go to stdout;
thm-a instead writes its report file and prints the chain audit.

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
import io
import itertools
import json
import math
import os
import signal
import sys
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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
    _log_mean_of,
    _mean_of,
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
# times its text. At 2^12 rows the default run's peak RSS is the search's;
# 2^13 and 2^14 rows added 3.5 and 9.6 MB, 2^11 saved nothing, and all four
# ran equally fast.
_HIT_CHUNK = 1 << 12
# One row as json.dumps(rows, indent=2) and csv.DictWriter lay it out.
_JSON_HIT = (
    '  {\n    "flipped_primes": %s,\n    "N": %d,\n    "mean_at_N": %r,\n'
    '    "log_mean_at_N": %r,\n    "ratio": %r\n  }'
)
_CSV_HEADER = "flipped_primes,N,mean_at_N,log_mean_at_N,ratio\n"
_CSV_HIT = "%s,%d,%r,%r,%r\n"

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
        for record in records:
            fh.write((json.dumps(record) + "\n").encode())
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


def _render(rows: list[dict], columns: list[str], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(row.get(k)) for k in columns})
        return buf.getvalue()
    return json.dumps(rows, indent=2) + "\n"


def _write(chunks: Iterable[str], args: argparse.Namespace) -> None:
    """Write text chunks to --out, or stdout when no path was given."""
    if args.out is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    with Path(args.out).open("w", encoding="utf-8") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _emit(rows: list[dict], columns: list[str], args: argparse.Namespace) -> None:
    """Write rows as JSON or CSV to --out, or stdout when no path was given."""
    _write([_render(rows, columns, args.format)], args)


def _hit_format(
    hits: CounterexampleHits, fmt: str
) -> tuple[str, Callable[[int], str], int, str]:
    """The text _render would give for the hits' rows, in _HIT_CHUNK-row chunks.

    Returns (opening, chunk, count, closing): the text is the opening, then
    chunk(0), ..., chunk(count - 1), then the closing. Each row is one
    %-format of column values: %d for N, and %r for the floats, which prints
    the repr that json.dumps and csv both write.
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


def _spare_cpu() -> bool:
    """True where this process may fork and run on more than one CPU."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
    )


def _received(pipe: io.BufferedReader) -> str:
    """The next length-prefixed chunk the formatting helper wrote to pipe."""
    head = pipe.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "little")
        data = pipe.read(size)
        if len(data) == size:
            return data.decode()
    raise OSError("row formatting helper ended before its last chunk")


@contextlib.contextmanager
def _chunk_texts(chunk: Callable[[int], str], count: int) -> Iterator[Iterator[str]]:
    """Yield an iterator over chunk(0), ..., chunk(count - 1), in order.

    With more than one chunk and a spare CPU, a forked helper formats the
    odd-numbered chunks and writes each, length-prefixed, to a pipe; this
    process formats the even ones and reads the helper's between them. The
    helper blocks on the pipe until its chunk is read, so each side holds at
    most a chunk or two. It writes nowhere else and leaves through os._exit,
    so it never flushes an inherited buffer or runs exit hooks. On leaving,
    the helper is reaped, and killed first if the caller failed.
    """
    if count < 2 or not _spare_cpu():
        yield map(chunk, range(count))
        return
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                for i in range(1, count, 2):
                    data = chunk(i).encode()
                    pipe.write(len(data).to_bytes(8, "little"))
                    pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            yield (chunk(i) if i % 2 == 0 else _received(pipe) for i in range(count))
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
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


def _scan_records(primes: list[int]) -> list[dict]:
    """pv-scan rows for odd primes, in order, from one _legendre_peaks call.

    The peaks are collected first, so the kernel's buffers are freed before
    the rows are built: on the scan benchmark that keeps the peak RSS at
    the level of the per-conductor walk it replaced.
    """
    peaks = list(_legendre_peaks(primes))
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
        new_records: list[dict] = []
        if todo:
            if args.workers > 1:
                n = args.workers
                new_records = [{}] * len(todo)
                with ThreadPoolExecutor(max_workers=n) as pool:
                    parts = pool.map(_scan_records, [todo[i::n] for i in range(n)])
                    for i, part in enumerate(parts):
                        new_records[i::n] = part
            else:
                new_records = _scan_records(todo)
            for record in new_records:
                by_key[(record["conductor"], record["family"])] = record
            if args.force:
                _rewrite_cache(cache, [by_key[k] for k in sorted(by_key)])
            else:
                _append_cache(cache, new_records)

    in_range = [
        by_key[(p, "legendre")] for p in targets if (p, "legendre") in by_key
    ]
    sys.stdout.write(_render(in_range, SCAN_COLUMNS, args.format))
    skipped = len(targets) - len(todo)
    if in_range:
        max_log = max(r["ratio_log"] for r in in_range)
        loglogs = [r["ratio_loglog"] for r in in_range if "ratio_loglog" in r]
        loglog_text = f"{max(loglogs):.6f}" if loglogs else "n/a"
        print(
            f"pv-scan: {len(new_records)} new, {skipped} cached; "
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
    rows = [point.to_json() for point in points]
    _emit(rows, ["theta", "t", "s", "ratio"], args)
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
    vals = f.values_upto(args.x)
    rows = [
        {
            "f": label,
            "x": args.x,
            "mean": _mean_of(vals, args.x),
            "log_mean": _log_mean_of(vals, args.x),
        }
    ]
    _emit(rows, ["f", "x", "mean", "log_mean"], args)
    return 0


def _cmd_lemma_b(args: argparse.Namespace) -> int:
    m = math.floor(args.x)
    _capacity(m, args)
    if args.trials is not None:
        estimate = estimate_delta(args.c, args.x, args.trials, args.seed)
        rows = [estimate.to_json()]
        _emit(rows, ["delta_hat", "worst_f", "qualifying", "candidates"], args)
        return 0
    label, f = _make_function(args, m)
    report = lemma_b_report(f, args.x, min_x=args.min_x)
    rows = [{"f": label, **report.to_json()}]
    _emit(
        rows,
        [
            "f",
            "x",
            "mean",
            "log_mean",
            "u",
            "conv_mean",
            "gs_bound",
            "ht_envelope",
            "ht_constant",
            "flags",
        ],
        args,
    )
    return 0


def _cmd_thm_a(args: argparse.Namespace) -> int:
    report = theorem_a_pipeline(args.p, args.epsilon, args.c, max_modulus=args.limit)
    payload = report.to_json()
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
    _emit(rows, ["p", "least_nonresidue", "exponent"], args)
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
    with _chunk_texts(chunk, count) as texts:
        _write(itertools.chain([opening], texts, [closing]), args)
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
    "workers": dict(type=int, default=1, help="worker threads for scans"),
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
        if args.workers < 1:
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
