"""The columnar counterexample search and its streamed rows, against the
per-record reference route.

The reference is the search as one loop that builds a CounterexampleRecord
per hit, sorted by the key (ratio, N, flipped primes), and the rows rendered
by json.dumps(rows, indent=2) and csv.DictWriter. The library route keeps
the hits as numpy columns and formats the rows straight from them.
"""

import csv
import dataclasses
import io
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from charscan import cli
from charscan.arith import liouville
from charscan.cli import main
from charscan.experiments import (
    _FLIP_POOL,
    CounterexampleHits,
    CounterexampleRecord,
    _ratio,
    counterexample_search,
)

COLUMNS = ["flipped_primes", "N", "mean_at_N", "log_mean_at_N", "ratio"]


def ratio_of(rec):
    return abs(rec.log_mean_at_N) / abs(rec.mean_at_N)


def reference_records(x_max, flip_budget, threshold):
    """One record per hit, built in a Python loop, then sorted by the key."""
    m = math.floor(x_max)
    lam = liouville(m)
    ns = np.arange(1, m + 1, dtype=np.float64)
    logs = np.log(ns[1:])
    pool = [p for p in _FLIP_POOL if p <= m]
    records = []
    for k in range(min(flip_budget, len(pool)) + 1):
        for subset in combinations(pool, k):
            v = lam.astype(np.int64)
            for p in subset:
                power = p
                while power <= m:
                    v[power - 1 :: power] *= -1
                    power *= p
            cs = np.cumsum(v)
            running = np.cumsum(v / ns)
            means_at = cs[1:] / ns[1:]
            log_means_at = running[1:] / logs
            hit = (
                (cs[1:] != 0)
                & (np.abs(log_means_at) < threshold * np.abs(means_at))
                & (np.abs(log_means_at) < np.abs(means_at))
            )
            for idx in np.flatnonzero(hit):
                records.append(
                    CounterexampleRecord(
                        flipped_primes=subset,
                        N=int(idx) + 2,
                        mean_at_N=float(means_at[idx]),
                        log_mean_at_N=float(log_means_at[idx]),
                    )
                )
    return sorted(records, key=lambda rec: (ratio_of(rec), rec.N, rec.flipped_primes))


def reference_text(records, fmt):
    """The rows as the CLI rendered them through one dict per hit."""
    rows = []
    for rec in records:
        row = dataclasses.asdict(rec)
        row["ratio"] = ratio_of(rec)
        rows.append(row)
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        row["flipped_primes"] = ";".join(str(p) for p in row["flipped_primes"])
        writer.writerow(row)
    return buf.getvalue()


def assert_same_text(got, expected, context):
    """Byte equality, reporting only a window around the first difference."""
    if got == expected:
        return
    at = len(os.path.commonprefix([got, expected]))
    window = slice(max(at - 120, 0), at + 120)
    pytest.fail(
        f"{context}: texts differ at offset {at} (lengths {len(got)} and "
        f"{len(expected)}):\n got {got[window]!r}\n expected {expected[window]!r}"
    )


def run_cli(argv, tmp_path, capsys, fmt, to_file):
    """The command's output text, from stdout or from --out."""
    argv = ["counterexample", *argv, "--format", fmt]
    out = tmp_path / f"hits.{fmt}"
    if to_file:
        argv += ["--out", str(out)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    text = out.read_text(encoding="utf-8") if to_file else captured.out
    if to_file:
        assert captured.out == ""
    return text, captured.err


def set_cpus(monkeypatch, cpus):
    """Make the CLI see this many CPUs available to the process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def count_forks(monkeypatch):
    """The pids of the helpers forked from now on, as seen by the parent."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_child_left():
    """Every process this one started has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def argv_of(x_max, flip_budget, threshold):
    return [
        "--x-max", str(x_max),
        "--flip-budget", str(flip_budget),
        "--threshold", str(threshold),
    ]


# Budget 9 exceeds the 8-prime pool. It is left out at x_max 1000 and 2003,
# where its 256 subsets give 118k-454k rows a point: the reference renderer
# takes about 30 us a row, so those six points alone would take 100 s. The
# points at x_max 2003 with budget 2 still span 4-5 default-size chunks.
GRID = [
    (x_max, flip_budget, threshold)
    for x_max in (100, 150, 200, 1000, 2003)
    for flip_budget in (0, 1, 2, 9)
    for threshold in (0, 0.5, 0.9, 1.5)
    if not (flip_budget == 9 and x_max >= 1000)
]


class TestGrid:
    @pytest.mark.parametrize("x_max,flip_budget,threshold", GRID)
    def test_rows_and_records_match_reference(
        self, x_max, flip_budget, threshold, tmp_path, capsys
    ):
        expected = reference_records(x_max, flip_budget, threshold)
        hits = counterexample_search(x_max, flip_budget, threshold)
        assert hits == expected
        argv = argv_of(x_max, flip_budget, threshold)
        for fmt in ("json", "csv"):
            text = reference_text(expected, fmt)
            for to_file in (False, True):
                got, err = run_cli(argv, tmp_path, capsys, fmt, to_file)
                assert_same_text(got, text, (fmt, to_file))
                assert err == f"counterexample: {len(expected)} hits\n"


class TestChunks:
    ARGS = (200, 2, 0.9)

    def test_row_count_is_large_enough(self):
        assert len(reference_records(*self.ARGS)) > 100

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_every_chunk_size_gives_the_same_bytes(
        self, fmt, to_file, tmp_path, capsys, monkeypatch
    ):
        # Both routes at every chunk size: one CPU formats every chunk in
        # this process, two fork the helper whenever there are two chunks.
        expected = reference_records(*self.ARGS)
        text = reference_text(expected, fmt)
        n = len(expected)
        divisor = next(d for d in range(2, n) if n % d == 0)
        forks = count_forks(monkeypatch)
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            for chunk in (1, 7, divisor, n // divisor, n, 2 * n, n + 1):
                monkeypatch.setattr(cli, "_HIT_CHUNK", chunk)
                forks.clear()
                got, _ = run_cli(argv_of(*self.ARGS), tmp_path, capsys, fmt, to_file)
                assert_same_text(got, text, (cpus, chunk))
                assert len(forks) == (cpus > 1 and chunk < n)
                assert_no_child_left()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_no_hits(self, fmt, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_HIT_CHUNK", 1)
        got, err = run_cli(argv_of(150, 2, 0), tmp_path, capsys, fmt, True)
        assert got == reference_text([], fmt)
        assert got == ("[]\n" if fmt == "json" else ",".join(COLUMNS) + "\n")
        assert err == "counterexample: 0 hits\n"


# `python -m charscan`, told that two CPUs are available; the parent notes
# each fork on stderr, so the test sees that the helper route ran. A line
# is left in the stdout buffer first: a helper that flushed its copy of the
# buffer would print it twice.
TWO_CPU_MODULE_RUN = """
import os, runpy, sys
sys.stdout.write("buffered before the fork\\n")
os.sched_getaffinity = lambda pid: {0, 1}
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        print("forked", file=sys.stderr)
    return pid
os.fork = fork
runpy.run_module("charscan", run_name="__main__", alter_sys=True)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper needs os.fork")
class TestHelper:
    """The forked formatting helper: real stdout, failures, no process left."""

    ARGV = ["counterexample", "--x-max", "1000"]
    HITS = 32463

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_real_stdout_matches_one_process_route(self, fmt, capsys, monkeypatch):
        assert -(-self.HITS // cli._HIT_CHUNK) >= 2  # so the helper runs
        # capsys replaces sys.stdout, so it cannot see a helper that flushes
        # an inherited stdout buffer; a real pipe as fd 1 can.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered
        argv = [*self.ARGV, "--format", fmt]
        proc = subprocess.run(
            [sys.executable, "-c", TWO_CPU_MODULE_RUN, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"forked\ncounterexample: {self.HITS} hits\n".encode()
        set_cpus(monkeypatch, 1)
        forks = count_forks(monkeypatch)
        assert main(argv) == 0
        assert forks == []
        expected = "buffered before the fork\n" + capsys.readouterr().out
        assert proc.stdout == expected.encode()
        assert_no_child_left()

    def test_helper_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(cli, "_HIT_CHUNK", 7)
        parent = os.getpid()
        real_format = cli._hit_format

        def failing_format(hits, fmt):
            chunk = real_format(hits, fmt)

            def chunk_or_fail(i):
                if i == 5 and os.getpid() != parent:
                    raise RuntimeError("helper fails")
                return chunk(i)

            return chunk_or_fail

        monkeypatch.setattr(cli, "_hit_format", failing_format)
        out = tmp_path / "hits.json"
        argv = ["counterexample", *argv_of(*TestChunks.ARGS), "--out", str(out)]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("io error: ")
        assert "helper" in captured.err
        assert_no_child_left()

    def test_parent_write_failure_kills_and_reaps_helper(self, capsys, monkeypatch):
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        kills = []
        real_kill = os.kill

        def kill(pid, sig):
            kills.append((pid, sig))
            real_kill(pid, sig)

        monkeypatch.setattr(os, "kill", kill)

        def failing_write(texts, columns, fmt, empty, out):
            next(texts)  # chunk 0; the helper is now writing chunk 1
            raise OSError("no space left on device")

        monkeypatch.setattr(cli, "_write", failing_write)
        assert main(self.ARGV) == 4
        assert capsys.readouterr().err == "io error: no space left on device\n"
        assert len(forks) == 1
        assert kills == [(forks[0], signal.SIGKILL)]
        assert_no_child_left()


def traced_peak(call):
    """The tracemalloc peak, in bytes, of allocations made during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def columns_bytes(hits):
    columns = (hits.subset, hits.N, hits.mean_at_N, hits.log_mean_at_N, hits.ratio)
    return sum(column.nbytes for column in columns)


class TestMemory:
    """The search holds its hits about once; the stream adds a few chunks."""

    X_MAX = 3000

    def test_search_peak_is_about_its_hits(self):
        # The peak counts the search and the expansion of its liouville
        # call, factor sieve included.
        found = []
        peak = traced_peak(
            lambda: found.append(counterexample_search(self.X_MAX, 2, 0.5))
        )
        assert peak < 1.75 * columns_bytes(found[0])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_command_peak_adds_a_few_chunks_of_text(self, fmt, tmp_path, monkeypatch):
        # With one CPU this process formats every chunk, one at a time; the
        # text in flight must scale with the chunk, not with the hits.
        set_cpus(monkeypatch, 1)
        hits = counterexample_search(self.X_MAX, 2, 0.5)
        out = tmp_path / f"hits.{fmt}"
        argv = ["counterexample", *argv_of(self.X_MAX, 2, 0.5), "--format", fmt]
        codes = []
        peak = traced_peak(lambda: codes.append(main([*argv, "--out", str(out)])))
        assert codes == [0]
        row_bytes = out.stat().st_size / len(hits)
        assert peak < 1.75 * columns_bytes(hits) + 2 * cli._HIT_CHUNK * row_bytes


def test_default_search_peak_per_hit():
    # The columns take 13 bytes (uint8 rank, uint16 N, int16 S, float64
    # log-mean) per hit, and the peak adds the order and one reordered
    # column, or the ratio key while lexsort runs. Five 8-byte columns and
    # a key built through full-length temporaries took about 49 bytes a hit.
    found = []
    peak = traced_peak(lambda: found.append(counterexample_search(10**4, 2, 0.5)))
    assert peak < 34 * len(found[0])


@pytest.mark.parametrize(
    "x_max, flip_budget, threshold",
    [(10**5, 2, 0.0), (10**5, 2, 0.05), (2 * 10**4, 8, 0.0)],
)
def test_search_peak_grows_with_hits_not_pairs(x_max, flip_budget, threshold):
    # With few or no hits the peak is one subset's length-x_max temporaries
    # (about 75 bytes a value), whatever the number of subsets; columns
    # sized for every (subset, N) pair would add 13 bytes per pair, 37 or
    # 256 pairs per value here.
    found = []
    peak = traced_peak(
        lambda: found.append(counterexample_search(x_max, flip_budget, threshold))
    )
    assert peak < 100 * x_max + 34 * len(found[0])


class TestColumnTypes:
    """Each stored column is the narrowest dtype that holds it, at its edges."""

    @pytest.mark.parametrize("flip_budget", [0, 1])
    def test_n_and_s_past_16_bits(self, flip_budget, tmp_path, capsys):
        # N = 65,536 needs uint32 and S >= -65,536 needs int32; at this
        # threshold both budgets have hits at N = 65,536. Budget 1 gives
        # 285,655 rows, too many to render through the reference, so only
        # budget 0's text is compared.
        args = (65536, flip_budget, 0.1)
        expected = reference_records(*args)
        hits = counterexample_search(*args)
        assert (hits.N.dtype, hits.S.dtype) == (np.uint32, np.int32)
        assert hits.N.max() == 65536
        assert hits == expected
        if flip_budget == 0:
            for fmt in ("json", "csv"):
                got, _ = run_cli(argv_of(*args), tmp_path, capsys, fmt, True)
                assert_same_text(got, reference_text(expected, fmt), fmt)

    def test_every_rank_of_256_subsets_in_uint8(self):
        args = (150, 8, 0.9)
        expected = reference_records(*args)
        hits = counterexample_search(*args)
        assert len(hits.subsets) == 256
        assert (hits.subset.dtype, hits.N.dtype, hits.S.dtype) == (np.uint8, np.uint8, np.int16)
        assert hits.subset.max() == 255
        assert hits == expected


class TestDerivedColumns:
    @pytest.fixture(scope="class")
    def hits(self):
        return counterexample_search(2003, 2, 0.9)

    def test_stored_columns_are_read_only(self, hits):
        for column in (hits.subset, hits.N, hits.S, hits.log_mean_at_N):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_mean_and_ratio_on_every_slice(self, hits):
        n = len(hits)
        for i in (slice(None), slice(5, 9000, 3), slice(n - 7, None), slice(None, None, -11), slice(3, 3)):
            part = hits[i]
            S, N, log_mean = hits.S[i], hits.N[i], hits.log_mean_at_N[i]
            mean = S.astype(np.float64) / N.astype(np.float64)
            assert part.mean_at_N.dtype == part.ratio.dtype == np.float64
            assert part.mean_at_N.tobytes() == mean.tobytes()
            assert part.ratio.tobytes() == _ratio(S, N, log_mean).tobytes()
            assert part.ratio.tobytes() == (np.abs(log_mean) / np.abs(mean)).tobytes()
            for column in (part.mean_at_N, part.ratio):
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[:1] = 0.0


class TestSequence:
    @pytest.fixture(scope="class")
    def pair(self):
        return counterexample_search(1000, 2, 0.9), reference_records(1000, 2, 0.9)

    def test_type_and_length(self, pair):
        hits, expected = pair
        assert isinstance(hits, CounterexampleHits)
        assert len(hits) == len(expected) > 1000

    def test_integer_indexing(self, pair):
        hits, expected = pair
        n = len(expected)
        for i in (0, 1, 7, n // 2, n - 1, -1, -n, np.int64(3)):
            assert hits[i] == expected[i]
            assert isinstance(hits[i].N, int)
            assert type(hits[i].mean_at_N) is float
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                hits[i]
        with pytest.raises(TypeError):
            hits[1.0]

    def test_slices(self, pair):
        hits, expected = pair
        n = len(expected)
        for a, b, step in ((0, 5, None), (3, 40, 3), (n - 10, n + 5, None), (10, 2, None), (None, None, -7)):
            part = hits[a:b:step]
            assert isinstance(part, CounterexampleHits)
            assert part == expected[a:b:step]
            assert list(part) == expected[a:b:step]
            assert len(part) == len(expected[a:b:step])

    def test_iteration_agrees_with_indexing(self, pair):
        hits, expected = pair
        listed = list(hits)
        assert listed == expected
        assert [hits[i] for i in range(len(hits))] == listed

    def test_columns(self, pair):
        hits, expected = pair
        assert hits.N.tolist() == [rec.N for rec in expected]
        assert hits.ratio.tolist() == [ratio_of(rec) for rec in expected]
        assert [hits.subsets[s] for s in hits.subset.tolist()] == [
            rec.flipped_primes for rec in expected
        ]
        with pytest.raises(ValueError):
            hits.ratio[0] = 0.0

    def test_equality(self, pair):
        hits, expected = pair
        assert hits == tuple(expected)
        assert not hits == expected[:-1]
        assert hits != expected[::-1]
        assert counterexample_search(150, 2, 0.0) == []
        assert [] == counterexample_search(150, 2, 0.0)
        assert hits != "not a sequence of records"
