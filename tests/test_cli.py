import argparse
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import charscan
from charscan import cli, experiments, sums
from charscan.characters import legendre_character
from charscan.cli import _validate, build_parser, main
from charscan.sums import max_partial_sum, pv_ratios

EXPECTED_CONDUCTORS = [3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83]


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def strip_timestamps(records):
    return [{k: v for k, v in r.items() if k != "timestamp"} for r in records]


class TestPvScan:
    def test_first_run_populates_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        assert main(["pv-scan", "3", "100", "--out", str(cache)]) == 0
        records = read_jsonl(cache)
        assert [r["conductor"] for r in records] == EXPECTED_CONDUCTORS
        assert all(r["family"] == "legendre" for r in records)
        captured = capsys.readouterr()
        assert "pv-scan: 13 new, 0 cached" in captured.err
        assert json.loads(captured.out) == records

    def test_csv_rows_match_json_rows(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        main(["pv-scan", "3", "100", "--out", str(cache)])
        rows = json.loads(capsys.readouterr().out)
        main(["pv-scan", "3", "100", "--out", str(cache), "--format", "csv"])
        text = capsys.readouterr().out
        header = text.splitlines()[0]
        assert header == "conductor,family,max_abs,argmax,ratio_log,ratio_loglog,timestamp"
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(rows)
        for got, want in zip(parsed, rows):
            assert int(got["conductor"]) == want["conductor"]
            assert got["family"] == want["family"]
            assert int(got["max_abs"]) == want["max_abs"]
            assert float(got["ratio_log"]) == pytest.approx(
                want["ratio_log"], rel=1e-15
            )
            if want["conductor"] < 16:
                assert got["ratio_loglog"] == ""
            else:
                assert float(got["ratio_loglog"]) == pytest.approx(
                    want["ratio_loglog"], rel=1e-15
                )

    def test_records_match_library_values(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        main(["pv-scan", "3", "100", "--out", str(cache)])
        for record in read_jsonl(cache):
            chi = legendre_character(record["conductor"])
            profile = max_partial_sum(chi)
            ratios = pv_ratios(profile)
            assert record["max_abs"] == profile.max_abs
            assert record["argmax"] == profile.argmax
            # pv-scan reads _legendre_peaks; max_partial_sum is a _walk.
            walked = sums._walk(chi, (chi.modulus - 1) // 2)[:2]
            assert walked == (profile.max_abs, profile.argmax)
            assert record["ratio_log"] == pytest.approx(
                ratios["ratio_log"], rel=1e-15
            )
            if record["conductor"] >= 16:
                assert record["ratio_loglog"] == pytest.approx(
                    ratios["ratio_loglog"], rel=1e-15
                )
            else:
                assert "ratio_loglog" not in record

    def test_rerun_skips_cached(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        main(["pv-scan", "3", "100", "--out", str(cache)])
        before = cache.read_bytes()
        capsys.readouterr()
        assert main(["pv-scan", "3", "100", "--out", str(cache)]) == 0
        assert "pv-scan: 0 new, 13 cached" in capsys.readouterr().err
        assert cache.read_bytes() == before

    def test_partial_overlap_appends_only_new(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        main(["pv-scan", "3", "30", "--out", str(cache)])
        capsys.readouterr()
        assert main(["pv-scan", "3", "100", "--out", str(cache)]) == 0
        captured = capsys.readouterr()
        assert "8 new, 5 cached" in captured.err
        conductors = [r["conductor"] for r in read_jsonl(cache)]
        assert sorted(conductors) == EXPECTED_CONDUCTORS
        # stdout reports the whole requested range, cached rows included
        assert [r["conductor"] for r in json.loads(captured.out)] == (
            EXPECTED_CONDUCTORS
        )

    def test_force_recomputes_and_rewrites(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        main(["pv-scan", "3", "100", "--out", str(cache)])
        original = read_jsonl(cache)
        capsys.readouterr()
        assert main(["pv-scan", "3", "100", "--out", str(cache), "--force"]) == 0
        assert "13 new, 0 cached" in capsys.readouterr().err
        rewritten = read_jsonl(cache)
        assert [r["conductor"] for r in rewritten] == EXPECTED_CONDUCTORS
        assert strip_timestamps(rewritten) == strip_timestamps(original)

    def test_workers_agree_with_serial(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        threaded = tmp_path / "threaded.jsonl"
        main(["pv-scan", "3", "200", "--out", str(serial)])
        main(["pv-scan", "3", "200", "--out", str(threaded), "--workers", "3"])
        assert strip_timestamps(read_jsonl(serial)) == strip_timestamps(
            read_jsonl(threaded)
        )

    def test_workers_are_capped_at_the_conductors(self, tmp_path, capsys, monkeypatch):
        # [3, 12] holds the conductors 3, 7 and 11: one chunk, so --workers 4
        # forks no helper, which would have no chunk to run.
        calls, forks = [], []
        legendre_peaks = cli._legendre_peaks
        fork = os.fork

        def recording(primes):
            calls.append(list(primes))
            return legendre_peaks(primes)

        def counting_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(cli, "_legendre_peaks", recording)
        monkeypatch.setattr(os, "fork", counting_fork)
        rows = {}
        for workers in ("1", "4"):
            cache = tmp_path / f"cache{workers}.jsonl"
            argv = ["pv-scan", "3", "12", "--out", str(cache), "--workers", workers]
            assert main(argv) == 0
            rows[workers] = strip_timestamps(json.loads(capsys.readouterr().out))
        assert [r["conductor"] for r in rows["1"]] == [3, 7, 11]
        assert rows["4"] == rows["1"]
        assert calls == [[3, 7, 11], [3, 7, 11]]
        assert forks == []

    def test_other_residue_class(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        assert main(
            ["pv-scan", "3", "30", "--out", str(cache), "--residue-class", "1"]
        ) == 0
        assert [r["conductor"] for r in read_jsonl(cache)] == [5, 13, 17, 29]

    def test_empty_range(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        assert main(["pv-scan", "24", "28", "--out", str(cache)]) == 0
        captured = capsys.readouterr()
        assert "0 records in range" in captured.err
        assert json.loads(captured.out) == []

    def test_env_var_sets_cache_path(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "from-env.jsonl"
        monkeypatch.setenv("CHARSCAN_CACHE", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["pv-scan", "3", "30"]) == 0
        assert [r["conductor"] for r in read_jsonl(target)] == [3, 7, 11, 19, 23]

    def test_default_cache_in_cwd(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("CHARSCAN_CACHE", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["pv-scan", "3", "10"]) == 0
        assert (tmp_path / "charscan-cache.jsonl").exists()

    def test_held_lock_fails_with_io_code(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        (tmp_path / "cache.jsonl.lock").write_text("12345\n")
        assert main(["pv-scan", "3", "100", "--out", str(cache)]) == 4
        assert "locked" in capsys.readouterr().err
        assert not cache.exists()

    def test_held_lock_names_holder_and_age(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        lock = tmp_path / "cache.jsonl.lock"
        lock.write_text("12345\n")
        hour_ago = time.time() - 3600
        os.utime(lock, (hour_ago, hour_ago))
        assert main(["pv-scan", "3", "100", "--out", str(cache)]) == 4
        err = capsys.readouterr().err
        assert "holder pid 12345" in err
        age = int(err.split("age ")[1].split(" s")[0])
        assert 3600 <= age < 3700
        assert lock.read_text() == "12345\n"  # a held lock is never broken

    def test_lock_removed_after_run(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        main(["pv-scan", "3", "30", "--out", str(cache)])
        assert not (tmp_path / "cache.jsonl.lock").exists()

    def test_malformed_cache_lines_are_skipped(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        seeded = {
            "conductor": 3, "family": "legendre", "max_abs": 1, "argmax": 1,
            "ratio_log": 0.5255268625199614, "timestamp": 0,
        }
        cache.write_text(json.dumps(seeded) + "\nthis is not json\n")
        assert main(["pv-scan", "3", "10", "--out", str(cache)]) == 0
        captured = capsys.readouterr()
        assert "malformed" in captured.err
        assert "1 new, 1 cached" in captured.err
        kept = []
        for line in cache.read_text().splitlines():
            try:
                kept.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        assert 7 in [r["conductor"] for r in kept]

    def test_non_record_cache_lines_are_skipped(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        seeded = {
            "conductor": 3, "family": "legendre", "max_abs": 1, "argmax": 1,
            "ratio_log": 0.5255268625199614, "timestamp": 0,
        }
        strays = [
            {"conductor": 3},
            [1, 2],
            7,
            "legendre",
            None,
            {"conductor": [7], "family": "legendre"},
            {**seeded, "conductor": 7, "ratio_log": "high"},
        ]
        cache.write_text(
            "\n".join(json.dumps(r) for r in [seeded, *strays]) + "\n"
        )
        assert main(["pv-scan", "3", "10", "--out", str(cache)]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("skipping malformed cache line") == len(strays)
        assert "1 new, 1 cached" in captured.err
        assert [r["conductor"] for r in json.loads(captured.out)] == [3, 7]
        # the --force rewrite keeps only the scan records
        assert main(["pv-scan", "3", "10", "--out", str(cache), "--force"]) == 0
        assert [r["conductor"] for r in read_jsonl(cache)] == [3, 7]
        assert not (tmp_path / "cache.jsonl.tmp").exists()

    def test_non_utf8_cache_line_is_skipped(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        assert main(["pv-scan", "3", "50", "--out", str(cache)]) == 0
        with cache.open("ab") as fh:
            fh.write(b"\xff\xfe garbage\n")
        capsys.readouterr()
        assert main(["pv-scan", "3", "60", "--out", str(cache)]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("skipping malformed cache line") == 1
        assert "1 new, 8 cached" in captured.err
        assert [r["conductor"] for r in json.loads(captured.out)] == [
            3, 7, 11, 19, 23, 31, 43, 47, 59,
        ]

    def test_append_after_torn_last_line_starts_a_new_line(self, tmp_path, capsys):
        # A run cut mid-write leaves a last line without its newline. The
        # next append cuts that fragment off, so no record is glued onto it
        # and lost, the conductor it held is recomputed, and only the run
        # that finds the fragment warns about it.
        cache = tmp_path / "cache.jsonl"
        assert main(["pv-scan", "3", "100", "--out", str(cache)]) == 0
        cache.write_bytes(cache.read_bytes()[:-30])
        capsys.readouterr()
        assert main(["pv-scan", "3", "200", "--out", str(cache)]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("skipping malformed cache line") == 1
        in_range = [r["conductor"] for r in json.loads(captured.out)]
        assert in_range[: len(EXPECTED_CONDUCTORS)] == EXPECTED_CONDUCTORS
        assert main(["pv-scan", "3", "200", "--out", str(cache)]) == 0
        err = capsys.readouterr().err
        assert "skipping malformed cache line" not in err
        assert f"0 new, {len(in_range)} cached" in err
        kept = read_jsonl(cache)  # every line parses: no fragment is left
        assert all(cli._is_scan_record(r) for r in kept)
        assert sorted(r["conductor"] for r in kept) == in_range

    def test_unterminated_whole_record_is_kept(self, tmp_path, capsys):
        # A last line that lost only its newline is still a record: the next
        # append ends the line and keeps it.
        cache = tmp_path / "cache.jsonl"
        assert main(["pv-scan", "3", "100", "--out", str(cache)]) == 0
        cache.write_bytes(cache.read_bytes()[:-1])
        capsys.readouterr()
        assert main(["pv-scan", "3", "200", "--out", str(cache)]) == 0
        captured = capsys.readouterr()
        assert "skipping malformed cache line" not in captured.err
        assert f"new, {len(EXPECTED_CONDUCTORS)} cached" in captured.err
        in_range = [r["conductor"] for r in json.loads(captured.out)]
        assert [r["conductor"] for r in read_jsonl(cache)] == in_range

    @pytest.mark.parametrize("field", ["ratio_log", "ratio_loglog"])
    @pytest.mark.parametrize(
        "value",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "1e400", "int-1e400"],
    )
    def test_non_finite_cached_ratios_are_skipped(self, field, value, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        assert main(["pv-scan", "19", "19", "--out", str(cache)]) == 0
        (record,) = read_jsonl(cache)
        text = json.dumps(record).replace(json.dumps(record[field]), value)
        assert json.loads(text)[field] != record[field]
        cache.write_text(text + "\n")
        capsys.readouterr()
        assert main(["pv-scan", "19", "19", "--out", str(cache)]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("skipping malformed cache line") == 1
        assert "1 new, 0 cached" in captured.err
        assert strip_timestamps(json.loads(captured.out)) == strip_timestamps([record])

    def test_capacity_guard(self, tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        code = main(["pv-scan", "3", "100", "--out", str(cache), "--limit", "50"])
        assert code == 3
        assert "capacity" in capsys.readouterr().err

    def test_bad_range_rejected(self, tmp_path, capsys):
        assert main(["pv-scan", "100", "3"]) == 2
        assert main(["pv-scan", "1", "10"]) == 2
        capsys.readouterr()


FLAT_ROW = {
    "conductor": 7, "family": "legendre", "max_abs": 2, "argmax": 1,
    "ratio_log": 0.5155, "timestamp": 1_700_000_000, "ratio_loglog": 0.9123,
}
RENDER_CASES = {
    "empty-list": [],
    "flat-rows": [FLAT_ROW, dict(FLAT_ROW, conductor=11, max_abs=-3, argmax=10**30)],
    "empty-row": [{}, FLAT_ROW, {}],
    "scalars": [{"none": None, "yes": True, "no": False, "zero": -0.0, "tiny": 5e-324}],
    "non-finite": [{"nan": math.nan, "inf": math.inf, "-inf": -math.inf}],
    "non-ascii": [{"f": "λ(n) · ζ", "g": "é\U0001f600", "ü": "\x00\n\"\\"}],
    "nested": [
        {"f": "liouville", "flags": ["small-x", "gs-bound"], "x": 1e5},
        {"f": "ones", "flags": [], "extra": {"a": [1, [2.5, None]], "b": {}}},
        FLAT_ROW,
    ],
}


class TestRender:
    @pytest.mark.parametrize("rows", RENDER_CASES.values(), ids=RENDER_CASES.keys())
    def test_json_route_equals_the_indent_encoder(self, rows):
        assert cli._render(rows, [], "json") == json.dumps(rows, indent=2) + "\n"

    @pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 600])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_pieces_join_to_the_whole_text(self, fmt, count):
        # pv-scan writes its rows in pieces of _SCAN_CHUNK rows; together
        # they are the text _render gives for all of them.
        rows = [
            {"conductor": 2 * i + 3, "family": "legendre", "max_abs": i,
             "argmax": i // 2 + 1, "ratio_log": i / 7, "timestamp": 1_700_000_000,
             **({"ratio_loglog": i / 3} if i % 3 else {})}
            for i in range(count)
        ]
        pieces = list(cli._render_pieces(rows, cli.SCAN_COLUMNS, fmt))
        assert "".join(pieces) == cli._render(rows, cli.SCAN_COLUMNS, fmt)
        # the opening, one piece per chunk, and the closing
        assert len(pieces) == -(-count // cli._SCAN_CHUNK) + 2


class TestThmA:
    def test_report_file_round_trip(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["thm-a", "3", "0.5", "0.5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["p"] == 3
        assert payload["ell"] == 7
        assert payload["q"] == 21
        assert payload["flags"] == ["ell_bumped_past_p"]
        assert len(payload["chain_lines"]) == 6
        assert isinstance(payload["timestamp"], int)
        stdout = capsys.readouterr().out
        assert "final ratio" in stdout
        assert "ell_bumped_past_p" in stdout

    def test_rerun_is_identical_except_timestamp(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["thm-a", "19", "0.5", "0.1", "--out", str(first)])
        main(["thm-a", "19", "0.5", "0.1", "--out", str(second)])
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b

    def test_default_output_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["thm-a", "3", "0.5", "0.5"]) == 0
        assert (tmp_path / "thm-a-3.json").exists()

    def test_wrong_residue_class_is_hypothesis_violation(self, tmp_path, capsys):
        assert main(["thm-a", "5", "0.5", "0.5", "--out", str(tmp_path / "x")]) == 3
        assert "3 mod 4" in capsys.readouterr().err

    def test_composite_p_rejected(self, tmp_path, capsys):
        assert main(["thm-a", "9", "0.5", "0.5", "--out", str(tmp_path / "x")]) == 3
        capsys.readouterr()

    def test_limit_below_q_stops_before_the_audit(self, tmp_path, monkeypatch, capsys):
        q = experiments.theorem_a_pipeline(19, 0.5, 0.1).q

        def no_audit(xi, psi):
            raise AssertionError("the length-q audit ran past --limit")

        monkeypatch.setattr(experiments, "verify_lemma_bg", no_audit)
        out = tmp_path / "report.json"
        argv = ["thm-a", "19", "0.5", "0.1", "--out", str(out)]
        assert main(argv + ["--limit", str(q - 1)]) == 3
        assert "capacity" in capsys.readouterr().err
        assert not out.exists()

    def test_limit_equal_to_q_runs(self, tmp_path, capsys):
        q = experiments.theorem_a_pipeline(19, 0.5, 0.1).q
        out = tmp_path / "report.json"
        assert main(["thm-a", "19", "0.5", "0.1", "--out", str(out), "--limit", str(q)]) == 0
        assert json.loads(out.read_text())["q"] == q
        capsys.readouterr()

    def test_bad_parameters_rejected_before_dispatch(self, tmp_path, capsys):
        assert main(["thm-a", "3", "1.5", "0.5"]) == 2
        assert main(["thm-a", "3", "0.5", "0.0"]) == 2
        assert main(["thm-a", "2", "0.5", "0.5"]) == 2
        capsys.readouterr()


class TestNonresidue:
    def test_row_count_and_summary(self, capsys):
        assert main(["nonresidue", "1000"]) == 0
        captured = capsys.readouterr()
        rows = json.loads(captured.out)
        assert len(rows) == 167
        assert rows[0] == {
            "p": 3,
            "least_nonresidue": 2,
            "exponent": pytest.approx(math.log(2) / math.log(3), rel=1e-15),
        }
        assert "167 odd primes" in captured.err
        assert "0.151633" in captured.err  # the 1/(4 sqrt e) reference point

    def test_csv_matches_json(self, tmp_path, capsys):
        assert main(["nonresidue", "100"]) == 0
        rows = json.loads(capsys.readouterr().out)
        out = tmp_path / "rows.csv"
        assert main(["nonresidue", "100", "--format", "csv", "--out", str(out)]) == 0
        capsys.readouterr()
        parsed = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(parsed) == len(rows)
        for got, want in zip(parsed, rows):
            assert int(got["p"]) == want["p"]
            assert int(got["least_nonresidue"]) == want["least_nonresidue"]
            assert float(got["exponent"]) == pytest.approx(
                want["exponent"], rel=1e-15
            )

    def test_bad_pmax(self, capsys):
        assert main(["nonresidue", "2"]) == 2
        capsys.readouterr()

    def test_capacity_guard(self, capsys):
        assert main(["nonresidue", "100", "--limit", "50"]) == 3
        captured = capsys.readouterr()
        assert "capacity" in captured.err
        assert captured.out == ""


class TestBurgessScan:
    def test_points_to_stdout(self, capsys):
        assert main(["burgess-scan", "19", "--thetas", "0.5", "1.0"]) == 0
        captured = capsys.readouterr()
        rows = json.loads(captured.out)
        assert [r["theta"] for r in rows] == [0.5, 1.0]
        assert rows[1]["s"] == 0
        assert rows[1]["ratio"] == 0.0
        assert "burgess-scan: p=19" in captured.err

    def test_invalid_inputs(self, capsys):
        assert main(["burgess-scan", "19", "--thetas", "0"]) == 2
        assert main(["burgess-scan", "19", "--thetas", "1.5"]) == 2
        assert main(["burgess-scan", "2"]) == 2
        assert main(["burgess-scan", "5"]) == 3  # wrong class mod 4
        assert main(["burgess-scan", "9"]) == 3  # composite
        capsys.readouterr()


class TestMeansAndLemmaB:
    def test_means_ones(self, capsys):
        assert main(["means", "100", "--f", "ones"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["f"] == "ones"
        assert row["mean"] == 1.0
        harmonic = math.fsum(1.0 / n for n in range(1, 101))
        assert row["log_mean"] == pytest.approx(
            harmonic / math.log(100), rel=1e-14
        )

    def test_means_rejects_x_below_two(self, capsys):
        # The log-mean needs x >= 2, so smaller x is a malformed argument.
        for x in ("1", "1.5", "1.999"):
            assert main(["means", x]) == 2
            assert "x must be at least 2" in capsys.readouterr().err
        assert main(["means", "2"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["x"] == 2.0

    def test_means_flip_label(self, capsys):
        assert main(["means", "100", "--f", "ones", "--flip", "2", "3"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["f"] == "ones+flip[2,3]"

    def test_means_random_is_seeded(self, capsys):
        main(["means", "200", "--f", "random", "--seed", "11"])
        first = capsys.readouterr().out
        main(["means", "200", "--f", "random", "--seed", "11"])
        assert capsys.readouterr().out == first
        main(["means", "200", "--f", "random", "--seed", "12"])
        assert capsys.readouterr().out != first

    def test_lemma_b_report_row(self, capsys):
        assert main(["lemma-b", "500", "--f", "liouville"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["f"] == "liouville"
        assert row["flags"] == []
        assert set(row) > {"mean", "log_mean", "u", "conv_mean", "gs_bound"}

    def test_lemma_b_flags_in_csv(self, capsys):
        assert main(["lemma-b", "50", "--format", "csv"]) == 0
        parsed = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert parsed[0]["flags"] == "below_min_x"

    def test_lemma_b_estimate_mode(self, capsys):
        code = main(["lemma-b", "1000", "--trials", "20", "--c", "0.9", "--seed", "7"])
        assert code == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["delta_hat"] == pytest.approx(1.083632896394867, rel=1e-12)
        assert row["worst_f"] == "ones"

    def test_lemma_b_estimate_rejects_function_options(self, capsys):
        # --trials samples its own functions, so options that choose the
        # reported function would be silently ignored; they are rejected.
        base = ["lemma-b", "1000", "--trials", "20", "--c", "0.9"]
        assert main(base + ["--flip", "4"]) == 2
        assert main(base + ["--f", "ones"]) == 2
        assert main(base + ["--min-x", "10"]) == 2
        assert main(base + ["--flip"]) == 2
        assert "do not apply with --trials" in capsys.readouterr().err
        assert main(["lemma-b", "150", "--min-x", "200", "--flip", "2"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["f"] == "liouville+flip[2]"
        assert row["flags"] == ["below_min_x"]

    def test_lemma_b_estimate_needs_both_flags(self, capsys):
        assert main(["lemma-b", "1000", "--trials", "20"]) == 2
        assert main(["lemma-b", "1000", "--c", "0.5"]) == 2
        assert main(["lemma-b", "1000", "--trials", "20", "--c", "2.0"]) == 2
        capsys.readouterr()


class TestCounterexample:
    def test_finds_hits(self, capsys):
        code = main(
            ["counterexample", "--x-max", "200", "--flip-budget", "1",
             "--threshold", "0.9"]
        )
        assert code == 0
        captured = capsys.readouterr()
        rows = json.loads(captured.out)
        assert rows
        assert "hits" in captured.err
        ratios = [r["ratio"] for r in rows]
        assert ratios == sorted(ratios)

    def test_zero_threshold(self, capsys):
        code = main(["counterexample", "--x-max", "150", "--threshold", "0"])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == []
        assert "0 hits" in captured.err

    def test_csv_flipped_primes_are_joined(self, tmp_path):
        out = tmp_path / "hits.csv"
        main(
            ["counterexample", "--x-max", "200", "--flip-budget", "2",
             "--threshold", "0.9", "--format", "csv", "--out", str(out)]
        )
        parsed = list(csv.DictReader(io.StringIO(out.read_text())))
        assert any(";" in row["flipped_primes"] for row in parsed)

    def test_bad_arguments(self, capsys):
        assert main(["counterexample", "--x-max", "50"]) == 2
        assert main(["counterexample", "--flip-budget", "-1"]) == 2
        assert main(["counterexample", "--threshold", "-0.5"]) == 2
        capsys.readouterr()


class TestParserPlumbing:
    def test_unknown_flag(self, capsys):
        assert main(["pv-scan", "3", "100", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_bad_workers_and_limit(self, capsys):
        assert main(["pv-scan", "3", "10", "--workers", "0"]) == 2
        assert main(["pv-scan", "3", "10", "--limit", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,label",
        [
            (["means", "inf"], "x"),
            (["means", "nan"], "x"),
            (["lemma-b", "inf", "--trials", "3", "--c", "0.1"], "x"),
            (["lemma-b", "nan"], "x"),
            (["lemma-b", "1000", "--min-x", "nan"], "--min-x"),
            (["lemma-b", "1000", "--trials", "3", "--c", "nan"], "--c"),
            (["counterexample", "--x-max", "200", "--threshold", "nan"], "--threshold"),
            (["counterexample", "--x-max", "inf"], "--x-max"),
            (["thm-a", "19", "nan", "0.1"], "epsilon"),
            (["thm-a", "19", "0.5", "inf"], "c"),
        ],
    )
    def test_non_finite_arguments_rejected(self, argv, label, capsys):
        assert main(argv) == 2
        assert f"{label} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("module", ["charscan", "charscan.cli"])
    def test_module_form_runs_main(self, module, capsys):
        # `python -m charscan` stands in for the console script where that
        # cannot be installed.
        src = str(Path(charscan.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["means", "1000", "--f", "random", "--seed", "4"]
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert main(argv) == 0
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == capsys.readouterr().out
        assert proc.stdout
        bad = subprocess.run(
            [sys.executable, "-m", module, "means", "nan"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert bad.returncode == 2
        assert "finite" in bad.stderr

    def test_console_script_is_installed(self):
        exe = shutil.which("charscan")
        assert exe is not None
        proc = subprocess.run(
            [exe, "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "pv-scan" in proc.stdout


# Which optional flags each subcommand reads; every one also takes --out and
# --limit. The command lines are small enough to run in a test.
FLAG_MATRIX = {
    "pv-scan": (["pv-scan", "3", "30"], {"--format", "--workers", "--force"}),
    "burgess-scan": (["burgess-scan", "19"], {"--format"}),
    "means": (["means", "100"], {"--format", "--seed"}),
    "lemma-b": (["lemma-b", "100"], {"--format", "--seed"}),
    "thm-a": (["thm-a", "19", "0.5", "0.1"], set()),
    "nonresidue": (["nonresidue", "30"], {"--format"}),
    "counterexample": (["counterexample", "--x-max", "100"], {"--format"}),
}
FLAG_VALUES = {
    "--out": ["out.txt"],
    "--limit": ["1000"],
    "--format": ["csv"],
    "--seed": ["3"],
    "--workers": ["2"],
    "--force": [],
}
# The benchmark's command lines, one of each shape it runs (perfbench/workloads.py).
BENCHMARK_ARGV = [
    ["pv-scan", "3", "100437", "--out", "cache.jsonl"],
    ["thm-a", "1615843", "0.3", "0.1", "--out", "report0.json"],
    ["lemma-b", "100000", "--trials", "200", "--c", "0.1", "--seed", "7"],
    ["lemma-b", "3000000", "--f", "random", "--seed", "7"],
    ["counterexample", "--out", "rows.json"],
]


class TestFlagMatrix:
    def test_parser_has_the_matrix(self):
        (sub,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        taken = {
            command: {o for a in p._actions for o in a.option_strings} & set(FLAG_VALUES)
            for command, p in sub.choices.items()
        }
        assert taken == {
            command: flags | {"--out", "--limit"}
            for command, (_, flags) in FLAG_MATRIX.items()
        }
        assert sum(map(len, taken.values())) == 24

    @pytest.mark.parametrize("command", sorted(FLAG_MATRIX))
    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    def test_flag_accepted_only_where_read(self, command, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CHARSCAN_CACHE", raising=False)
        base, flags = FLAG_MATRIX[command]
        code = main(base + [flag, *FLAG_VALUES[flag]])
        err = capsys.readouterr().err
        if flag in flags | {"--out", "--limit"}:
            assert code == 0, err
        else:
            assert code == 2
            assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("argv", BENCHMARK_ARGV, ids=lambda argv: argv[0])
    def test_benchmark_command_lines_parse(self, argv):
        parser = build_parser()
        args = parser.parse_args(argv)
        _validate(parser, args)
        assert args.command == argv[0]

    @pytest.mark.parametrize(
        "command, says",
        [
            ("pv-scan", "cache file (default $CHARSCAN_CACHE or ./charscan-cache.jsonl)"),
            ("thm-a", "report file (default thm-a-P.json)"),
            ("burgess-scan", "output path (default stdout)"),
            ("means", "output path (default stdout)"),
            ("lemma-b", "output path (default stdout)"),
            ("nonresidue", "output path (default stdout)"),
            ("counterexample", "output path (default stdout)"),
        ],
    )
    def test_out_help_names_what_out_writes(self, command, says, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")  # argparse wraps at hyphens
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        (line,) = [part for part in text.split(" --") if part.startswith("out OUT")]
        assert line.startswith("out OUT " + says), line
