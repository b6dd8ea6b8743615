"""The function side on every allowed CPU: estimate_delta, the streamed sums
of lemma_b_report and means, and the lemma-b and means commands.

Every number must be bit for bit the one-process route's on 1, 2 and 3
CPUs, every helper must be reaped, a ValueError raised in a helper must exit
3 as on the one-process route, and an interrupt must exit 130.
"""

import contextlib
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from charscan import cli, experiments, sums
from charscan.arith import sieve_primes
from charscan.cli import main
from charscan.experiments import estimate_delta, lemma_b_report
from charscan.sums import CompletelyMultiplicativeFunction as CMF
from charscan.sums import _log_terms, _mean_terms, _streamed_sums
from test_counterexample_reference import assert_no_child_left, count_forks, set_cpus
from test_experiments import STREAMED_LIMIT, STREAMED_XS, reference_estimate

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="helpers need os.fork")

CPUS = (1, 2, 3)


def prime_above_a_third(m):
    """The least prime above m / 3; at most m by Bertrand's postulate."""
    return int(next(p for p in sieve_primes(m) if 3 * p > m))


@pytest.fixture(scope="module")
def functions():
    limit = STREAMED_LIMIT
    random = CMF.random(limit, np.random.default_rng(1))
    return {
        "ones": CMF.ones(limit),
        "liouville": CMF.liouville(limit),
        "random": random,
        "flip_2": random.flip([2]),
        "flip_3": random.flip([3]),
    }


def report_bits(f, x):
    report = lemma_b_report(f, x)
    return [v.hex() for v in (report.mean, report.log_mean, report.conv_mean, report.u)]


@pytest.mark.parametrize("x", STREAMED_XS)
@pytest.mark.parametrize("name", ["ones", "liouville", "random", "flip_2", "flip_3", "flip_above_a_third"])
def test_report_bits_on_every_cpu_count(name, x, functions, monkeypatch):
    # The pieces past the held third and the blocks of w are dealt to the
    # processes; each adds its exact totals, so no bit may move.
    m = math.floor(x)
    if name == "flip_above_a_third":
        f = functions["random"].flip([prime_above_a_third(m)])
    else:
        f = functions[name]
    forks = count_forks(monkeypatch)
    got = {}
    for cpus in CPUS:
        set_cpus(monkeypatch, cpus)
        forks.clear()
        got[cpus] = report_bits(f, x)
        assert len(forks) <= cpus - 1
        assert_no_child_left()
        streamed = _streamed_sums(f, x, (_mean_terms, _log_terms))
        assert sums.mean(streamed, x).hex() == got[cpus][0]
        assert sums.log_mean(streamed, x).hex() == got[cpus][1]
        assert_no_child_left()
    assert got[2] == got[1] and got[3] == got[1]


def test_the_grid_reaches_the_helpers(functions, monkeypatch):
    # At the largest x of the grid there are pieces for three processes.
    set_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    lemma_b_report(functions["random"], STREAMED_LIMIT)
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("seed", [0, 1, 7, 99])
@pytest.mark.parametrize("x", [2, 7.5, 100, 1000, 4097.25, 20000])
@pytest.mark.parametrize("c", [0.01, 0.1, 0.5, 0.9, 1.0])
def test_estimate_delta_on_every_cpu_count(c, x, seed, monkeypatch):
    trials = 30
    want = reference_estimate(c, x, trials, seed)
    forks = count_forks(monkeypatch)
    for cpus in CPUS:
        set_cpus(monkeypatch, cpus)
        forks.clear()
        assert estimate_delta(c, x, trials, seed) == want, cpus
        assert len(forks) == cpus - 1
        assert_no_child_left()


@pytest.mark.parametrize("seed", [0, 5])
def test_an_advanced_generator_draws_the_later_candidates(seed):
    # A range starting at random_k advances default_rng(seed) past k draws
    # of len(primes) doubles; that must be the sequence's own continuation.
    size = len(sieve_primes(1000))
    whole = np.random.default_rng(seed)
    draws = [whole.uniform(-1.0, 1.0, size=size) for _ in range(7)]
    for k in range(7):
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(k * size)
        for want in draws[k:]:
            assert rng.uniform(-1.0, 1.0, size=size).tobytes() == want.tobytes()


def test_a_tie_keeps_the_earliest_label(monkeypatch):
    # Every candidate gets the same log-mean: the first range's first
    # qualifying label must win on any number of processes.
    monkeypatch.setattr(experiments, "log_mean", lambda vals, x: 0.5)
    for cpus in CPUS:
        set_cpus(monkeypatch, cpus)
        est = estimate_delta(0.01, 1000, 12, seed=3)
        assert (est.delta_hat, est.worst_f) == (0.5, "ones"), cpus
        assert_no_child_left()


MEANS_ARGV = {
    "means": ["means", "300000", "--f", "random", "--seed", "4"],
    "lemma-b": ["lemma-b", "300000", "--f", "random", "--seed", "4"],
    "lemma-b-trials": ["lemma-b", "20000", "--trials", "30", "--c", "0.1", "--seed", "4"],
}


@pytest.mark.parametrize("command", sorted(MEANS_ARGV))
def test_command_bytes_on_every_cpu_count(command, capsys, monkeypatch):
    forks = count_forks(monkeypatch)
    outputs = []
    for cpus in CPUS:
        set_cpus(monkeypatch, cpus)
        forks.clear()
        assert main(MEANS_ARGV[command]) == 0
        outputs.append(capsys.readouterr())
        assert len(forks) == cpus - 1
        assert_no_child_left()
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def fail_in(monkeypatch, cpus, command):
    """Make one chunk raise a ValueError: in a helper when there are any,
    else here. The message names the process it was raised in."""
    parent = os.getpid()

    def fail():
        where = "helper" if os.getpid() != parent else "parent"
        raise ValueError(f"chunk fails in the {where}")

    if command == "lemma-b-trials":
        real = experiments._mean_reaches

        def failing(vals, x, c, scratch):
            if cpus == 1 or os.getpid() != parent:
                fail()
            return real(vals, x, c, scratch)

        monkeypatch.setattr(experiments, "_mean_reaches", failing)
    else:
        real = sums._expand_past

        def failing(plan, w, first, out):
            if cpus == 1 or os.getpid() != parent:
                fail()
            return real(plan, w, first, out)

        monkeypatch.setattr(sums, "_expand_past", failing)


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("command", sorted(MEANS_ARGV))
def test_a_chunk_failing_in_a_helper_exits_3(command, cpus, capsys, monkeypatch):
    # A ValueError is the caller's exit 3 on the one-process route; raised in
    # a helper, it is sent back and raised here, not an I/O failure (4).
    set_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    fail_in(monkeypatch, cpus, command)
    assert main(MEANS_ARGV[command]) == 3
    captured = capsys.readouterr()
    where = "parent" if cpus == 1 else "helper"
    assert captured.out == ""
    assert captured.err == f"error: chunk fails in the {where}\n"
    assert len(forks) == cpus - 1
    assert_no_child_left()


@pytest.mark.parametrize("cpus", CPUS)
@pytest.mark.parametrize("command", sorted(MEANS_ARGV))
def test_sigint_mid_run_exits_130(command, cpus, capsys, monkeypatch):
    # SIGINT reaches this process while it works on its own share, after
    # the helpers were forked: they are killed and reaped.
    set_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    parent = os.getpid()
    real = sums._ExactAccumulator.add

    def interrupted(self, block):
        if os.getpid() == parent:
            os.kill(parent, signal.SIGINT)
        return real(self, block)

    monkeypatch.setattr(sums._ExactAccumulator, "add", interrupted)
    if command == "lemma-b-trials":
        monkeypatch.setattr(experiments, "_mean_reaches", lambda *args: True)
    assert main(MEANS_ARGV[command]) == 130
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "interrupted\n")
    assert len(forks) == cpus - 1
    assert_no_child_left()


# `python -m charscan means ...` on three CPUs. Every process sleeps in its
# first piece past the held third, so the run is mid-way when the test
# sends SIGINT to the whole process group, as a terminal's Ctrl-C does. The
# parent also lingers in each fork, so the signal may arrive while it is
# still setting up the last helper.
GROUP_SIGINT_RUN = """
import os, runpy, sys, time
from charscan import sums
os.sched_getaffinity = lambda pid: {0, 1, 2}
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        print("forked", file=sys.stderr, flush=True)
        time.sleep(0.3)
    return pid
os.fork = fork
real = sums._expand_past
def slow(plan, w, first, out):
    time.sleep(60)
    return real(plan, w, first, out)
sums._expand_past = slow
runpy.run_module("charscan", run_name="__main__", alter_sys=True)
"""


def test_group_sigint_exits_130_and_leaves_no_process():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", GROUP_SIGINT_RUN, "means", "1000000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True, env=env,
    )
    try:
        for _ in range(2):
            assert proc.stderr.readline() == b"forked\n"
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        # The helpers ignored SIGINT and slept on; the command killed and
        # reaped them, so nothing of the group is left.
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == 130
    assert (out, err) == (b"", b"interrupted\n")
