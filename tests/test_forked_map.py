"""cli._forked_map and the two commands on it: order, placement, failures,
interrupts and reaping.

Chunk i runs on process i mod workers, this process being process 0. The
results must come back in order, a failure on either side must kill and
reap every helper, and pv-scan must have appended the rows of every chunk
before the one that failed, and no more.
"""

import json
import os
import time

import pytest

from charscan import cli
from charscan.arith import sieve_primes
from charscan.cli import main
from test_counterexample_reference import (
    assert_no_child_left,
    count_forks,
    reference_records,
    reference_text,
    set_cpus,
)

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="helpers need os.fork")


def results(chunk, count, workers):
    with cli._forked_map(chunk, count, workers) as got:
        return list(got)


class TestForkedMap:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 7])
    def test_results_in_order_on_process_i_mod_workers(self, count, workers, monkeypatch):
        forks = count_forks(monkeypatch)
        got = results(lambda i: (i, os.getpid(), "x" * i), count, workers)
        assert [(i, text) for i, _, text in got] == [(i, "x" * i) for i in range(count)]
        used = min(workers, count)
        assert len(forks) == max(used - 1, 0)
        pids = [pid for _, pid, _ in got]
        for i, pid in enumerate(pids):
            assert pid == (os.getpid() if i % used == 0 else forks[i % used - 1])
        assert_no_child_left()

    def test_large_results_pass_whole(self):
        # Far more than a pipe holds: the helper blocks until it is read.
        got = results(lambda i: str(i) * 300_000, 4, 2)
        assert got == [str(i) * 300_000 for i in range(4)]
        assert_no_child_left()

    def test_each_result_is_sent_as_soon_as_it_is_made(self, tmp_path):
        # The helper runs chunks 1 and 3, and chunk 3 waits until this
        # process has read chunk 1: a result left in the helper's write
        # buffer would never arrive.
        seen = tmp_path / "seen-1"

        def chunk(i):
            deadline = time.monotonic() + 10
            while i == 3 and not seen.exists():
                if time.monotonic() > deadline:
                    raise TimeoutError("chunk 1 was not read")
                time.sleep(0.01)
            return i

        got = []
        with cli._forked_map(chunk, 4, 2) as results:
            for i in results:
                got.append(i)
                if i == 1:
                    seen.touch()
        assert got == [0, 1, 2, 3]
        assert_no_child_left()

    @pytest.mark.parametrize("failing", [1, 2, 5])
    def test_helper_failure_kills_and_reaps_every_helper(self, failing, monkeypatch):
        parent = os.getpid()
        forks = count_forks(monkeypatch)

        def chunk(i):
            if i == failing and os.getpid() != parent:
                raise RuntimeError("helper fails")
            return i

        with pytest.raises(OSError, match="helper"):
            results(chunk, 9, 3)
        assert len(forks) == 2
        assert_no_child_left()

    def test_parent_failure_kills_and_reaps_every_helper(self, monkeypatch):
        forks = count_forks(monkeypatch)
        kills = []
        real_kill = os.kill

        def kill(pid, sig):
            kills.append(pid)
            real_kill(pid, sig)

        monkeypatch.setattr(os, "kill", kill)
        with pytest.raises(KeyboardInterrupt):
            with cli._forked_map(lambda i: i, 9, 3) as got:
                assert next(got) == 0
                raise KeyboardInterrupt
        assert kills == forks and len(forks) == 2
        assert_no_child_left()


SCAN_CHUNK = 4


def scan_conductors(pmax):
    return [int(p) for p in sieve_primes(pmax) if p >= 3 and p % 4 == 3]


def scan(tmp_path, capsys, name, *flags):
    """pv-scan 3 200 into a fresh cache: exit code, stdout, stderr, cache bytes."""
    cache = tmp_path / f"{name}.jsonl"
    code = main(["pv-scan", "3", "200", "--out", str(cache), *flags])
    captured = capsys.readouterr()
    data = cache.read_bytes() if cache.exists() else b""
    assert not (tmp_path / f"{name}.jsonl.lock").exists()
    return code, captured.out, captured.err, data


@pytest.fixture
def chunked_scan(monkeypatch):
    """pv-scan in chunks of SCAN_CHUNK conductors, at a fixed clock."""
    monkeypatch.setattr(cli, "_SCAN_CHUNK", SCAN_CHUNK)
    monkeypatch.setattr(time, "time", lambda: 1_700_000_000.0)


class TestPvScanWorkers:
    def test_every_worker_count_gives_the_same_bytes(
        self, tmp_path, capsys, monkeypatch, chunked_scan
    ):
        assert len(scan_conductors(200)) > 4 * SCAN_CHUNK
        set_cpus(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        expected = scan(tmp_path, capsys, "one", "--workers", "1")
        assert expected[0] == 0 and forks == []
        for workers in ("2", "3", "4", None):
            flags = ["--workers", workers] if workers else []
            forks.clear()
            got = scan(tmp_path, capsys, f"w{workers}", *flags)
            assert got == expected, workers
            assert len(forks) == (int(workers) if workers else 3) - 1
            assert_no_child_left()

    def test_helper_failure_exits_4_and_reaps(self, tmp_path, capsys, monkeypatch, chunked_scan):
        set_cpus(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        parent = os.getpid()
        legendre_peaks = cli._legendre_peaks

        def failing(primes):
            if os.getpid() != parent:
                raise RuntimeError("helper fails")
            return legendre_peaks(primes)

        monkeypatch.setattr(cli, "_legendre_peaks", failing)
        code, out, err, data = scan(tmp_path, capsys, "cache")
        assert code == 4
        assert out == "" and err.startswith("io error: ") and "helper" in err
        assert len(forks) == 2
        # chunk 0 ran here and was appended before chunk 1 failed
        conductors = [json.loads(line)["conductor"] for line in data.splitlines()]
        assert conductors == scan_conductors(200)[:SCAN_CHUNK]
        assert_no_child_left()

    def test_helper_traceback_reaches_fd_2(self, tmp_path, capfd, monkeypatch, chunked_scan):
        # The helper leaves through os._exit, which prints nothing; its own
        # traceback is what names the failure, ahead of the command's line.
        set_cpus(monkeypatch, 3)
        parent = os.getpid()
        legendre_peaks = cli._legendre_peaks

        def failing(primes):
            if os.getpid() != parent:
                raise RuntimeError("helper fails")
            return legendre_peaks(primes)

        monkeypatch.setattr(cli, "_legendre_peaks", failing)
        code, out, err, _ = scan(tmp_path, capfd, "cache")
        assert code == 4 and out == ""
        assert "Traceback" in err and "RuntimeError: helper fails" in err
        assert err.index("RuntimeError: helper fails") < err.index("io error: ")
        assert_no_child_left()

    @pytest.mark.parametrize(
        "workers, k, code",
        [("1", 0, 130), ("1", 3, 130), ("2", 2, 130), ("2", 3, 4), ("3", 4, 4), ("3", 3, 130)],
    )
    def test_interrupt_keeps_the_chunks_before_it(
        self, workers, k, code, tmp_path, capsys, monkeypatch, chunked_scan
    ):
        # The kernel raises KeyboardInterrupt on chunk k. In this process that
        # is an interrupt, exit 130; in a helper it ends the helper's pipe,
        # an I/O failure, exit 4. Either way the cache holds exactly the
        # rows of chunks 0..k-1, and a rerun adds the rest.
        _, _, _, complete = scan(tmp_path, capsys, "complete", "--workers", "1")
        conductors = scan_conductors(200)
        stop = conductors[k * SCAN_CHUNK]
        legendre_peaks = cli._legendre_peaks

        def interrupted(primes):
            if primes[0] >= stop:
                raise KeyboardInterrupt
            return legendre_peaks(primes)

        monkeypatch.setattr(cli, "_legendre_peaks", interrupted)
        got, out, err, data = scan(tmp_path, capsys, "cache", "--workers", workers)
        assert got == code
        assert out == ""
        if code == 130:
            assert err == "interrupted\n"
        else:
            assert err.startswith("io error: ") and "helper" in err
        kept = k * SCAN_CHUNK
        assert data == b"".join(complete.splitlines(keepends=True)[:kept])
        assert_no_child_left()
        monkeypatch.setattr(cli, "_legendre_peaks", legendre_peaks)
        again, _, err, data = scan(tmp_path, capsys, "cache", "--workers", workers)
        assert again == 0
        assert f"{len(conductors) - kept} new, {kept} cached" in err
        assert data == complete


class TestCounterexampleHelpers:
    ARGS = ["--x-max", "200", "--flip-budget", "2", "--threshold", "0.9"]

    def test_three_cpus_fork_two_helpers_and_keep_the_bytes(
        self, tmp_path, capsys, monkeypatch
    ):
        set_cpus(monkeypatch, 3)
        monkeypatch.setattr(cli, "_HIT_CHUNK", 7)
        forks = count_forks(monkeypatch)
        assert main(["counterexample", *self.ARGS]) == 0
        expected = reference_text(reference_records(200, 2, 0.9), "json")
        assert capsys.readouterr().out == expected
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("failing", [1, 2, 11])
    def test_helper_failure_exits_4_and_reaps(self, failing, capsys, monkeypatch):
        set_cpus(monkeypatch, 3)
        monkeypatch.setattr(cli, "_HIT_CHUNK", 7)
        forks = count_forks(monkeypatch)
        parent = os.getpid()
        real_format = cli._hit_format

        def failing_format(hits, fmt):
            opening, chunk, count, closing = real_format(hits, fmt)

            def chunk_or_fail(i):
                if i == failing and os.getpid() != parent:
                    raise RuntimeError("helper fails")
                return chunk(i)

            return opening, chunk_or_fail, count, closing

        monkeypatch.setattr(cli, "_hit_format", failing_format)
        assert main(["counterexample", *self.ARGS]) == 4
        assert "helper" in capsys.readouterr().err
        assert len(forks) == 2
        assert_no_child_left()
