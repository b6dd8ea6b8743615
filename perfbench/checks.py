"""Output checks, run by the driver outside the timed region.

`digest` fingerprints a repetition's outputs with `timestamp` fields zeroed;
every repetition of one seed must give the same digest, and a later change
can show bit-identical outputs by comparing digests for the same seed.
`check` recomputes a seeded sample of the outputs by an independent route and
returns (problems, facts): any problem fails the repetition, and facts are
item counts for the record.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path

import numpy as np

from reference import completely_multiplicative, primes_upto, spf_upto
from workloads import INVERSIONS_X_MAX, PASTE_Q_BAND, Workload

_TIMESTAMP = re.compile(rb'"timestamp": \d+')

# Float tolerance for values the program and the reference compute with the
# same operations in the same order; it only absorbs last-bit differences
# between numpy's and libm's log.
REL_TOL = 1e-12


def digest(run_dir: Path) -> str:
    """sha256 over every output file (not the stderr logs or child.*), timestamps zeroed."""
    total = hashlib.sha256()
    for path in sorted(run_dir.iterdir()):
        if path.suffix == ".stderr" or path.name.startswith("child."):
            continue
        total.update(path.name.encode() + b"\0")
        total.update(hashlib.sha256(_TIMESTAMP.sub(b'"timestamp": 0', path.read_bytes())).digest())
    return total.hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _partial_sum_peak(q: int) -> tuple[int, int]:
    """(max |S(t)|, first maximizer) over t = 1..q, by point queries."""
    from charscan.characters import evaluate, legendre_character

    chi = legendre_character(q)
    total = best = 0
    argmax = 1
    for n in range(1, q + 1):
        total += evaluate(chi, n)
        if abs(total) > best:
            best, argmax = abs(total), n
    return best, argmax


def _check_scan(w: Workload, run_dir: Path, rng: random.Random) -> tuple[list[str], dict]:
    problems = []
    cold = json.loads((run_dir / "cmd0.stdout").read_text())
    warm = json.loads((run_dir / "cmd1.stdout").read_text())
    cached = (run_dir / "cache.jsonl").read_text().splitlines()
    if [r["conductor"] for r in cold] != w.params["cold"]:
        problems.append("scan: cold conductors are not the primes 3 mod 4 up to P1")
    if [r["conductor"] for r in warm] != w.params["warm"]:
        problems.append("scan: warm conductors are not the primes 3 mod 4 up to P2")
    if warm[: len(cold)] != cold:
        problems.append("scan: warm rows differ from the cold rows of the same conductors")
    if len(cached) != len(warm):
        problems.append(f"scan: cache holds {len(cached)} rows, expected {len(warm)}")
    sample = rng.sample(cold, 2) + rng.sample(warm[len(cold):], 1)
    for row in sample:
        q = row["conductor"]
        peak, argmax = _partial_sum_peak(q)
        ratio_log = peak / (math.sqrt(q) * math.log(q))
        if (row["max_abs"], row["argmax"]) != (peak, argmax) or row["ratio_log"] != ratio_log:
            problems.append(f"scan: conductor {q} disagrees with the point-query recomputation")
    return problems, {"rows_cold": len(cold), "rows_warm": len(warm), "checked_conductors": [r["conductor"] for r in sample]}


def _check_paste(w: Workload, run_dir: Path, rng: random.Random) -> tuple[list[str], dict]:
    problems = []
    qs = []
    for i, (p, ell) in enumerate(zip(w.params["primes"], w.params["ells"])):
        report = json.loads((run_dir / f"report{i}.json").read_text())
        q = report["q"]
        qs.append(q)
        if (report["p"], report["ell"], q) != (p, ell, p * ell):
            problems.append(f"paste: p={p} reports ell={report['ell']} q={q}, expected ell={ell}")
        if not PASTE_Q_BAND[0] <= q <= PASTE_Q_BAND[1]:
            problems.append(f"paste: q={q} outside the workload band")
        lines = [line["value"] for line in report["chain_lines"]]
        if abs(lines[0] - lines[1]) > 1e-9:
            problems.append(f"paste: p={p} first two chain lines differ by {abs(lines[0] - lines[1])}")
        if report["final_ratio"] != report["lemma_bg_lhs"] / math.log(q):
            problems.append(f"paste: p={p} final_ratio != lemma_bg_lhs / log q")
    return problems, {"q": qs}


def _prime_values(label: str, primes: list[int], seed: int) -> dict[int, float]:
    """Prime values of a candidate that `lemma-b --trials` labelled `label`."""
    if label.startswith("random_"):
        gen = np.random.default_rng(seed)
        for _ in range(int(label.removeprefix("random_")) + 1):
            vals = gen.uniform(-1.0, 1.0, size=len(primes))
        return {p: float(v) for p, v in zip(primes, vals)}
    if label == "all_primes_flipped":
        return dict.fromkeys(primes, -1.0)
    values = dict.fromkeys(primes, 1.0)
    if label.startswith("ones_flipped_at_"):
        values[int(label.removeprefix("ones_flipped_at_"))] = -1.0
    elif label != "ones":
        raise ValueError(f"unknown candidate label {label!r}")
    return values


def _check_means(w: Workload, run_dir: Path, rng: random.Random) -> tuple[list[str], dict]:
    problems = []
    seed = w.params["rng_seed"]
    (trials,) = json.loads((run_dir / "cmd0.stdout").read_text())
    (large,) = json.loads((run_dir / "cmd1.stdout").read_text())
    if trials["candidates"] != w.sizes["candidates"] or trials["qualifying"] < 1:
        problems.append(f"means: {trials['qualifying']} of {trials['candidates']} candidates qualify")
    else:
        x = int(w.commands[0][1])
        try:
            f = completely_multiplicative(_prime_values(trials["worst_f"], primes_upto(x), seed), x)
        except ValueError as exc:
            problems.append(f"means: {exc}")
        else:
            log_mean = math.fsum(f[n] / n for n in range(1, x + 1)) / math.log(x)
            if not _close(trials["delta_hat"], log_mean):
                problems.append(f"means: worst log-mean {trials['delta_hat']} != recomputed {log_mean}")
    x = int(w.commands[1][1])
    primes = primes_upto(x)
    vals = np.random.default_rng(seed).uniform(-1.0, 1.0, size=len(primes))
    u = math.fsum((1.0 - float(v)) / p for p, v in zip(primes, vals))
    if large["f"] != f"random(seed={seed})" or large["u"] != u:
        problems.append(f"means: u={large['u']} at x={x}, recomputed {u}")
    return problems, {"candidates": trials["candidates"], "qualifying": trials["qualifying"]}


def _liouville(n: int) -> list[int]:
    spf = spf_upto(n)
    lam = [0, 1] + [0] * (n - 1)
    for m in range(2, n + 1):
        lam[m] = -lam[m // spf[m]]
    return lam


def _check_inversions(w: Workload, run_dir: Path, rng: random.Random) -> tuple[list[str], dict]:
    problems = []
    rows = json.loads((run_dir / "rows.json").read_text())
    summary = (run_dir / "cmd0.stderr").read_text()
    if f"counterexample: {len(rows)} hits" not in summary:
        problems.append(f"inversions: {len(rows)} rows but stderr says {summary.strip()!r}")
    previous = None
    for row in rows:
        ratio = abs(row["log_mean_at_N"]) / abs(row["mean_at_N"])
        key = (row["ratio"], row["N"], tuple(row["flipped_primes"]))
        if row["ratio"] != ratio or not ratio < 0.5:
            problems.append(f"inversions: row {key} is not a hit at threshold 0.5")
            break
        if previous is not None and key < previous:
            problems.append(f"inversions: rows out of order at {key}")
            break
        previous = key
    lam = _liouville(INVERSIONS_X_MAX)
    for row in rng.sample(rows, min(5, len(rows))):
        big_n = row["N"]
        total, running = 0, 0.0
        for n in range(1, big_n + 1):
            v = lam[n]
            for p in row["flipped_primes"]:
                m = n
                while m % p == 0:
                    v, m = -v, m // p
            total += v
            running += v / n
        mean, log_mean = total / big_n, running / math.log(big_n)
        if row["mean_at_N"] != mean or not _close(row["log_mean_at_N"], log_mean):
            problems.append(f"inversions: row N={big_n} flips={row['flipped_primes']} disagrees with lambda")
    return problems, {"rows": len(rows)}


_CHECKS = {
    "scan": _check_scan,
    "paste": _check_paste,
    "means": _check_means,
    "inversions": _check_inversions,
}


def check(w: Workload, run_dir: Path) -> tuple[list[str], dict]:
    """Independent recomputation of a seeded sample of one repetition's outputs."""
    try:
        return _CHECKS[w.name](w, run_dir, random.Random(w.seed))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{w.name}: outputs unreadable: {exc!r}"], {}
