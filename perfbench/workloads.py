"""The four workloads: charscan command lines drawn from the benchmark seed.

Every command runs with the CLI default `--workers 1`, the single-threaded
baseline; thread scaling on two shared cores would measure the scheduler.
Paths in the command lines are relative to the run's temporary directory, so
the same seed gives byte-identical argv on every run.

- scan: a cold `pv-scan 3 P1` into an empty cache (P1 near 10^5, about 4.8k
  prime conductors), then a warm `pv-scan 3 P1+2*10^4` that reads those rows
  back and appends about 900 new ones. Many small moduli whose arrays fit in
  L2: `characters` and `sums` do nearly all the work, and the `cli` cache is
  read beside written.
- paste: `thm-a P 0.3 0.1` for two primes P = 3 (mod 4) in [3*10^5, 2*10^6]
  whose pasted modulus q = P*ell lies in a narrow band near 3.1*10^7. The same
  kernels on one huge composite modulus, bound by memory; the `arith` spf
  table and the `experiments` bound audit run too. Peak RSS lives here. The
  band [3.0*10^7, 3.15*10^7] keeps every seed's work within a few percent
  (a band as wide as [10^7, 4*10^7] would spread wall time and memory 4x
  across seeds); at q ~ 3*10^7 the memory cost still shows.
- means: `lemma-b 100000 --trials 200 --c 0.1 --seed S`, then
  `lemma-b 3000000 --f random --seed S`. Never touches `characters`: about
  206 small multiplicative functions (Python overhead per function), then one
  large one dominated by the `arith` expansion.
- inversions: the default `counterexample` search (x_max 10^4, flip budget 2,
  threshold 0.5) writing 364,967 rows through `--out`. `cli` rendering and
  the per-hit records of `experiments` dominate. The search is deterministic,
  so the seed is recorded but unused.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from reference import is_prime, legendre, primes_upto

SCAN_P1_CENTER = 100_000
SCAN_P1_JITTER = 1_000
SCAN_WARM_SPAN = 20_000

PASTE_P_RANGE = (300_000, 2_000_000)
PASTE_Q_BAND = (30_000_000, 31_500_000)
PASTE_EPSILON = "0.3"
PASTE_C = "0.1"

MEANS_TRIALS_X = 100_000
MEANS_TRIALS = 200
MEANS_LARGE_X = 3_000_000

INVERSIONS_X_MAX = 10_000
INVERSIONS_SUBSETS = 1 + 8 + 28  # subsets of the 8-prime flip pool with at most 2 members


@dataclass(frozen=True)
class Workload:
    """Command lines for charscan.cli.main plus what the checks need to know.

    params holds the drawn inputs; sizes holds item counts and the largest
    array's bytes, computed from array lengths and dtypes, not measured.
    """

    name: str
    seed: int
    commands: list[list[str]]
    params: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)


def _prime_3_mod_4_above(bound: float) -> int:
    """Least prime > bound that is 3 (mod 4), as the pasting pipeline picks ell."""
    start = max(math.floor(bound) + 1, 2)
    candidate = start + (3 - start) % 4
    while not is_prime(candidate):
        candidate += 4
    return candidate


def pasted_ell(p: int, epsilon: float) -> int:
    """The auxiliary prime ell that `thm-a p epsilon c` pastes onto p."""
    t_p = p**epsilon
    log_sum = math.fsum(legendre(n, p) / n for n in range(1, math.floor(t_p) + 1))
    delta = log_sum / math.log(t_p)
    ell = _prime_3_mod_4_above(2.0 / delta) if delta > 0 else 3
    return _prime_3_mod_4_above(ell) if ell == p else ell


def scan(seed: int) -> Workload:
    rng = random.Random(seed)
    p1 = SCAN_P1_CENTER + rng.randrange(-SCAN_P1_JITTER, SCAN_P1_JITTER + 1)
    p2 = p1 + SCAN_WARM_SPAN
    conductors = [p for p in primes_upto(p2) if p % 4 == 3]
    cold = [p for p in conductors if p <= p1]
    return Workload(
        "scan",
        seed,
        [
            ["pv-scan", "3", str(p1), "--out", "cache.jsonl"],
            ["pv-scan", "3", str(p2), "--out", "cache.jsonl"],
        ],
        params={"cold": cold, "warm": conductors},
        sizes={
            "conductors_cold": len(cold),
            "conductors_warm": len(conductors),
            "conductors_new_in_warm": len(conductors) - len(cold),
            "largest_array": "int64 index array of length q (largest conductor) in bulk_values",
            "largest_array_bytes_computed": 8 * conductors[-1],
        },
    )


def paste(seed: int) -> Workload:
    rng = random.Random(seed)
    epsilon = float(PASTE_EPSILON)
    primes: list[int] = []
    ells: list[int] = []
    while len(primes) < 2:
        p = rng.randrange(*PASTE_P_RANGE)
        p += (3 - p) % 4
        while not is_prime(p):
            p += 4
        if p > PASTE_P_RANGE[1] or p in primes:
            continue
        ell = pasted_ell(p, epsilon)
        if PASTE_Q_BAND[0] <= p * ell <= PASTE_Q_BAND[1]:
            primes.append(p)
            ells.append(ell)
    qs = [p * ell for p, ell in zip(primes, ells)]
    return Workload(
        "paste",
        seed,
        [
            ["thm-a", str(p), PASTE_EPSILON, PASTE_C, "--out", f"report{i}.json"]
            for i, p in enumerate(primes)
        ],
        params={"primes": primes, "ells": ells},
        sizes={
            "p": primes,
            "ell": ells,
            "q": qs,
            "largest_array": "int64/float64 arrays of length q in bulk_values and the bound audit",
            "largest_array_bytes_computed": 8 * max(qs),
        },
    )


def means(seed: int) -> Workload:
    s = str(seed % 2**32)
    return Workload(
        "means",
        seed,
        [
            ["lemma-b", str(MEANS_TRIALS_X), "--trials", str(MEANS_TRIALS), "--c", "0.1", "--seed", s],
            ["lemma-b", str(MEANS_LARGE_X), "--f", "random", "--seed", s],
        ],
        params={"rng_seed": int(s)},
        sizes={
            "candidates": MEANS_TRIALS + 6,
            "x": [MEANS_TRIALS_X, MEANS_LARGE_X],
            "largest_array": "int64 arrays of length x+1 in the multiplicative expansion",
            "largest_array_bytes_computed": 8 * (MEANS_LARGE_X + 1),
        },
    )


def inversions(seed: int) -> Workload:
    return Workload(
        "inversions",
        seed,
        [["counterexample", "--out", "rows.json"]],
        sizes={
            "subsets": INVERSIONS_SUBSETS,
            "scales": INVERSIONS_X_MAX - 1,
            "candidates": INVERSIONS_SUBSETS * (INVERSIONS_X_MAX - 1),
            "largest_array": "int64/float64 arrays of length x_max in the search",
            "largest_array_bytes_computed": 8 * INVERSIONS_X_MAX,
        },
    )


WORKLOADS = {"scan": scan, "paste": paste, "means": means, "inversions": inversions}
