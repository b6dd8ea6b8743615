"""The columnar counterexample search and its streamed rows, against the
per-record reference route.

The reference is the search as one loop that builds a CounterexampleRecord
per hit, sorted by the key (ratio, N, flipped primes), and the rows rendered
by json.dumps(rows, indent=2) and csv.DictWriter. The library route keeps
the hits as numpy columns and formats the rows straight from them.
"""

import csv
import io
import json
import math
import os
from itertools import combinations

import numpy as np
import pytest

from charscan import cli
from charscan.arith import build_spf, liouville
from charscan.cli import main
from charscan.experiments import (
    _FLIP_POOL,
    CounterexampleHits,
    CounterexampleRecord,
    counterexample_search,
)

COLUMNS = ["flipped_primes", "N", "mean_at_N", "log_mean_at_N", "ratio"]


def ratio_of(rec):
    return abs(rec.log_mean_at_N) / abs(rec.mean_at_N)


def reference_records(x_max, flip_budget, threshold):
    """One record per hit, built in a Python loop, then sorted by the key."""
    m = math.floor(x_max)
    lam = liouville(m, build_spf(m))
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
        row = rec.to_json()
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
        expected = reference_records(*self.ARGS)
        text = reference_text(expected, fmt)
        n = len(expected)
        divisor = next(d for d in range(2, n) if n % d == 0)
        for chunk in (1, 7, divisor, n // divisor, n, 2 * n, n + 1):
            monkeypatch.setattr(cli, "_HIT_CHUNK", chunk)
            got, _ = run_cli(argv_of(*self.ARGS), tmp_path, capsys, fmt, to_file)
            assert_same_text(got, text, chunk)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_no_hits(self, fmt, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_HIT_CHUNK", 1)
        got, err = run_cli(argv_of(150, 2, 0), tmp_path, capsys, fmt, True)
        assert got == reference_text([], fmt)
        assert got == ("[]\n" if fmt == "json" else ",".join(COLUMNS) + "\n")
        assert err == "counterexample: 0 hits\n"


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
