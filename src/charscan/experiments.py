"""Executable experiments built on the sum primitives.

The centerpiece is the conductor-pasting pipeline: starting from an odd
Legendre character whose short partial sum is large, it manufactures an
auxiliary prime ell = 3 mod 4, forms the product character mod p*ell, and
audits the numeric chain that converts mean-value largeness at t_p into a
lower bound for the full partial-sum maximum. The other entry points cover
the supporting studies: mean versus log-mean reports, a perturbation search
for scales where the usual inequality direction fails, least nonresidues,
and short-sum regime scans.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .arith import (
    _apply_plan,
    _expansion_plan,
    is_prime,
    kronecker,
    liouville,
    sieve_primes,
    smallest_prime_above,
)
from .characters import (
    QuadraticCharacter,
    _shared_value_table,
    _value_blocks,
    evaluate,
    legendre_character,
    product_character,
)
from . import sums
from .sums import (
    CONSTANTS,
    CompletelyMultiplicativeFunction,
    MeansReport,
    _UNIT_ROUNDOFF,
    _block_bounds,
    _floor_finite,
    _mean_reaches,
    _streamed_sums,
    _walk,
    character_log_sum,
    conv_mean,
    gs_bound,
    ht_u,
    log_mean,
    max_partial_sum,
    mean,
    partial_sum,
    restricted_log_sum,
)
from .workers import _forked_map, _processes

__all__ = [
    "BurgessPoint",
    "CounterexampleHits",
    "CounterexampleRecord",
    "DeltaEstimate",
    "LemmaBgAudit",
    "WitnessReport",
    "burgess_scan",
    "choose_ell",
    "counterexample_search",
    "estimate_delta",
    "least_nonresidue",
    "lemma_b_report",
    "theorem_a_pipeline",
    "verify_lemma_bg",
]

FLAG_MEAN_HYPOTHESIS = "mean_hypothesis_not_met"
FLAG_LOG_MEAN_NOT_POSITIVE = "log_mean_not_positive"
FLAG_ELL_BUMPED = "ell_bumped_past_p"
FLAG_BELOW_MIN_X = "below_min_x"

# Candidate primes for the sign-flip perturbation search.
_FLIP_POOL = (2, 3, 5, 7, 11, 13, 17, 19)


def choose_ell(delta: float) -> int:
    """Smallest prime exceeding 2/delta in the class 3 mod 4."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    return smallest_prime_above(2.0 / delta, 3, 4)


def _select_ell(delta: float, p: int) -> tuple[int, tuple[str, ...]]:
    """Auxiliary-modulus choice with the two audit fallbacks.

    A nonpositive delta falls back to the smallest admissible prime and is
    flagged; a collision with p is bumped to the next prime in the class so
    the two conductors stay coprime.
    """
    flags: tuple[str, ...] = ()
    if delta > 0:
        ell = choose_ell(delta)
    else:
        ell = 3
        flags += (FLAG_LOG_MEAN_NOT_POSITIVE,)
    if ell == p:
        ell = smallest_prime_above(ell, 3, 4)
        flags += (FLAG_ELL_BUMPED,)
    return ell, flags


@dataclass(frozen=True)
class LemmaBgAudit:
    """Both sides of the product-character lower bound, and their gap."""

    lhs: float
    rhs_main: float
    gap: float


def _log_sum_tail_bound(m_xi: int, n: int, q: int) -> float:
    """Upper bound on |fl R(t) - fl R(n)| for every t with n < t <= q.

    R(t) is the restricted log-sum of verify_lemma_bg and fl R its float64
    value there. The coefficients of R sum to
    A(t) = S_xi(t) - xi(ell) S_xi(floor(t/ell)), so |A| <= 2 m_xi, where m_xi
    is the largest |S_xi(t)|, and Abel summation gives
    |R(t) - R(n)| <= 4 m_xi / (n+1). Every fl R(t) with t <= q lies within
    E = (gamma_{q+1} + 2u)(ln q + 1) of R(t): each term xi(k)/k is one
    rounded division, off by at most u/k, and the sequential cumsum of t
    terms is off by at most gamma_{t-1} times the sum of their magnitudes,
    which is at most (1+u) H_q <= (1+u)(ln q + 1) (Higham, Accuracy and
    Stability of Numerical Algorithms, sections 3.1 and 4.2; u = 2^-53,
    gamma_k = k u / (1 - k u)). The bound returned is 4 m_xi/(n+1) + 2E, with
    ln q bounded above by 0.7 times the bit length of q and the whole scaled
    by 1 + 2^-40, so that the few roundings made here can only enlarge it.
    """
    k = (q + 1) * _UNIT_ROUNDOFF
    drift = (k / (1.0 - k) + 2.0 * _UNIT_ROUNDOFF) * (0.7 * q.bit_length() + 1.0)
    return (4 * m_xi / (n + 1) + 2.0 * drift) * (1.0 + 2.0**-40)


def verify_lemma_bg(xi: QuadraticCharacter, psi: QuadraticCharacter) -> LemmaBgAudit:
    """Compare max|S_chi|/sqrt(q) against the scaled restricted log-sum peak.

    chi is the product of the two odd inputs, q its modulus, and the right
    side is sqrt(ell)/(pi (ell-1)) times the peak of |R(t)| over t <= q, where
    R(t) is the sum of xi(n)/n over n <= t with multiples of ell removed. R
    only jumps at integers, so the peak over real t is a peak over n.

    The walk over n stops early once the rest of it provably cannot reach
    the peak. The largest |S_xi(t)|, m_xi, is read first, as
    max_partial_sum(xi).max_abs: by periodicity and the reflection
    S_xi(m-1-t) = -xi(-1) S_xi(t) for xi mod m, it bounds |S_xi| at every t.
    At the end of each block of n <= N the walk then stops if the peak so
    far exceeds |fl R(N)| plus _log_sum_tail_bound, the certified bound on
    how far any later float value can move: 4 m_xi/(N+1) for R itself plus
    twice its float error. The comparison is padded by 1 + 2^-50 against
    its own rounding. No float value past N can then reach the peak, so
    lhs, rhs_main and gap are bit-identical to a walk over every n <= q.

    The gap omits the bounded correction term, so it may be negative; what
    matters is that it is stable and bounded below.
    """
    if xi.parity != "odd" or psi.parity != "odd":
        raise ValueError("both characters must have odd parity")
    if len(psi.factors) != 1:
        raise ValueError("the restricting character must have a prime modulus")
    chi = product_character(xi, psi)  # also validates coprimality
    q = chi.modulus
    ell = psi.modulus
    # Held until the audit's walk ends, so all three walks read one table
    # per factor of xi.
    held = [_shared_value_table(p) for p in xi.factors]
    lhs = max_partial_sum(chi).max_abs / math.sqrt(q)
    m_xi = max_partial_sum(xi).max_abs
    # The log-sum runs over n = 1..q in the blocks of xi's values, each in
    # slices of at most _SUM_BLOCK terms through one float64 buffer, so no
    # float array as long as a block is held. Each slice gets the running sum
    # so far at position 0 before np.cumsum, so every addition happens in
    # the same order as one cumsum over all q terms.
    buffer = np.empty(min(q, sums._SUM_BLOCK) + 1)
    peak, carry, start = 0.0, 0.0, 1
    for block in _value_blocks(xi, q):
        for lo, hi in _block_bounds(len(block)):
            running = buffer[: hi - lo + 1]
            running[0] = carry
            terms = running[1:]
            terms[:] = block[lo:hi]
            terms /= np.arange(start + lo, start + hi, dtype=float)
            terms[(-(start + lo)) % ell :: ell] = 0.0  # n = 0 mod ell
            np.cumsum(running, out=running)
            carry = float(running[-1])
            peak = max(peak, float(running.max()), -float(running.min()))
        start += len(block)
        if peak > (abs(carry) + _log_sum_tail_bound(m_xi, start - 1, q)) * (
            1.0 + 2.0**-50
        ):
            break
    rhs_main = math.sqrt(ell) / (math.pi * (ell - 1)) * peak
    return LemmaBgAudit(lhs=lhs, rhs_main=rhs_main, gap=lhs - rhs_main)


@dataclass(frozen=True)
class WitnessReport:
    """Per-line numeric audit of the conductor-pasting construction."""

    c: float
    epsilon: float
    p: int
    t_p: float
    delta: float
    ell: int
    q: int
    mean_xi: float
    log_mean_xi: float
    restricted_sum: float
    lemma_bg_lhs: float
    lemma_bg_rhs_main: float
    chain_lines: tuple[tuple[str, float], ...]
    final_ratio: float
    flags: tuple[str, ...] = ()


def theorem_a_pipeline(
    p: int, epsilon: float, c: float, *, max_modulus: int | None = None
) -> WitnessReport:
    """Run the conductor-pasting construction at one (p, epsilon, c).

    Steps: t_p = p**epsilon; the short mean S(t_p)/t_p is checked against c
    (a shortfall flags the report, it never aborts); delta is the observed
    log-mean at t_p; ell is the smallest admissible prime above 2/delta; the
    product character mod q = p*ell is scanned in full. chain_lines records
    the numeric value of each display line with its bounded corrections
    dropped; the first two lines are an exact identity, the rest are
    one-sided bounds and are recorded, not asserted.

    q is known only once ell is chosen. If max_modulus is given and q exceeds
    it, ValueError is raised before any length-q table is built.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0 < c <= 1:
        raise ValueError("c must lie in (0, 1]")
    if isinstance(max_modulus, float) and math.isnan(max_modulus):
        raise ValueError("max_modulus must not be nan")
    xi = legendre_character(p)
    if p % 4 != 3:
        raise ValueError(
            f"p = {p} violates the parity hypothesis p = 3 mod 4; the base "
            "character must be odd"
        )
    t_p = p**epsilon
    mean_xi = partial_sum(xi, t_p) / t_p
    flags: tuple[str, ...] = ()
    if abs(mean_xi) < c:
        flags += (FLAG_MEAN_HYPOTHESIS,)
    full_log_sum = character_log_sum(xi, t_p)
    log_t = math.log(t_p)
    log_mean_xi = full_log_sum / log_t
    delta = log_mean_xi
    ell, ell_flags = _select_ell(delta, p)
    flags += ell_flags
    q = p * ell
    if max_modulus is not None and q > max_modulus:
        raise ValueError(f"modulus q = {p}*{ell} = {q} exceeds capacity {max_modulus}")
    psi = legendre_character(ell)

    gamma = CONSTANTS.euler_gamma
    restricted = restricted_log_sum(xi, t_p, ell)
    split = full_log_sum - evaluate(xi, ell) / ell * character_log_sum(xi, t_p / ell)
    harmonic = log_mean_xi * log_t - (math.log(t_p / ell) + gamma) / ell
    regrouped = (delta - 1.0 / ell) * log_t + (math.log(ell) - gamma) / ell
    in_p = delta * epsilon / 2.0 * math.log(p)
    in_q = delta * epsilon / 2.0 * math.log(q) - delta * epsilon / 2.0 * math.log(ell)
    chain = (
        ("restricted log sum at t_p", restricted),
        ("full log sum minus (xi(ell)/ell) times log sum at t_p/ell", split),
        ("log-mean times log t_p minus harmonic tail (log(t_p/ell)+gamma)/ell", harmonic),
        ("(delta - 1/ell) log t_p + (log ell - gamma)/ell", regrouped),
        ("(delta epsilon / 2) log p", in_p),
        ("(delta epsilon / 2)(log q - log ell)", in_q),
    )

    audit = verify_lemma_bg(xi, psi)
    final_ratio = audit.lhs / math.log(q)
    return WitnessReport(
        c=c,
        epsilon=epsilon,
        p=p,
        t_p=t_p,
        delta=delta,
        ell=ell,
        q=q,
        mean_xi=mean_xi,
        log_mean_xi=log_mean_xi,
        restricted_sum=restricted,
        lemma_bg_lhs=audit.lhs,
        lemma_bg_rhs_main=audit.rhs_main,
        chain_lines=chain,
        final_ratio=final_ratio,
        flags=flags,
    )


def lemma_b_report(
    f: CompletelyMultiplicativeFunction, x: float, *, min_x: float = 100.0
) -> MeansReport:
    """Means report for one (f, x), with the decay-envelope bookkeeping.

    f is expanded once, holding f only at the odd n <= x/3: the other odd n
    are summed block by block, and every block with its doubling chain
    f(2^k o), into the exact sums of all three statistics in one pass
    (sums._streamed_sums), and mean, log_mean and conv_mean read them from
    that pass. The blocks are shared out to every CPU the process may use,
    and the exact totals added, so the report is bit for bit the one-process
    route's. It costs 4/3 bytes per n plus one block per process, where an
    array of f(n) costs 8. ht_envelope = exp(-kappa u) is recorded alongside the
    empirical constant |mean| * exp(kappa u); neither is asserted, since the
    envelope only holds up to an absolute constant. Below min_x the report is
    flagged as outside the regime where a threshold x0 is intended to apply;
    min_x may be infinite, but not nan.
    """
    if isinstance(min_x, float) and math.isnan(min_x):
        raise ValueError("min_x must not be nan")
    if _floor_finite(x) < 2:
        raise ValueError("x must be at least 2")
    streamed = _streamed_sums(f, x)
    m = mean(streamed, x)
    u = ht_u(f, x)
    flags = (FLAG_BELOW_MIN_X,) if x < min_x else ()
    return MeansReport(
        x=float(x),
        mean=m,
        log_mean=log_mean(streamed, x),
        u=u,
        conv_mean=conv_mean(streamed, x),
        gs_bound=gs_bound(u, x),
        ht_envelope=math.exp(-CONSTANTS.kappa * u),
        ht_constant=abs(m) * math.exp(CONSTANTS.kappa * u),
        flags=flags,
    )


@dataclass(frozen=True)
class DeltaEstimate:
    """Smallest observed log-mean among sampled f meeting the mean threshold."""

    delta_hat: float | None
    worst_f: str | None
    qualifying: int
    candidates: int


def estimate_delta(c: float, x: float, trials: int, seed: int) -> DeltaEstimate:
    """Sample completely multiplicative f and track the worst qualifying log-mean.

    Candidates are deterministic extremes, the constant 1, the all-flipped
    function and single flips at the first few primes, then `trials` seeded
    random functions (prime values uniform on [-1, 1], random_i the i-th
    draw of default_rng(seed)). Functions with |mean(f.values_upto(x), x)|
    >= c qualify; the smallest log-mean among them is returned, the first
    such candidate on a tie. Deterministic in seed. If nothing qualifies,
    the estimate fields are None and qualifying is 0.

    Every candidate is scattered onto the primes of one buffer indexed by n
    and expanded there in place by one shared plan of the odd n, the even n
    by doubling. The threshold is decided from the float sum with a rigorous
    error margin; only a mean within the margin of c, and only a qualifying
    candidate's log-mean, is summed exactly.

    The candidates are cut into one contiguous range per process this one
    may use (workers._processes), the others forked helpers sharing the
    plan. A range's random candidates come from default_rng(seed) advanced
    past the draws of the earlier ones: PCG64 takes one 64-bit draw per
    uniform double, so they are the draws the whole sequence gives. Each
    range returns its best (log-mean, label) and its count of qualifying
    candidates, and the ranges are merged in order, a later best replacing
    an earlier one only when strictly smaller, so the result does not depend
    on the number of processes.
    """
    if not 0 < c <= 1:
        raise ValueError("c must lie in (0, 1]")
    m = _floor_finite(x)
    if m < 2:
        raise ValueError("x must be at least 2")
    if trials < 1:
        raise ValueError("trials must be positive")
    # One plan serves every candidate; each candidate is its array of
    # values on primes, aligned with primes.
    primes = sieve_primes(m)
    plan = tuple(_expansion_plan(m))
    size = len(primes)
    # (label, f at the primes, the index of the one prime it is -1 at)
    extremes = [("ones", 1.0, None), ("all_primes_flipped", -1.0, None)]
    extremes += [
        (f"ones_flipped_at_{p}", 1.0, i)
        for i, p in enumerate((2, 3, 5, 7))  # primes[i] == p
        if p <= m
    ]
    count = len(extremes) + trials
    processes = _processes(count)

    # Candidates lo <= i < hi, built one at a time, so only the candidate
    # being evaluated is held.
    def candidates(lo: int, hi: int) -> Iterator[tuple[str, np.ndarray]]:
        for label, value, flipped in extremes[lo:hi]:
            values = np.full(size, value)
            if flipped is not None:
                values[flipped] = -1.0
            yield label, values
        first = max(lo - len(extremes), 0)
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(first * size)
        for i in range(first, hi - len(extremes)):
            yield f"random_{i}", rng.uniform(-1.0, 1.0, size=size)

    def best_of(p: int) -> tuple[tuple[float, str] | None, int]:
        # One buffer and one scratch array serve the range's candidates.
        v = np.empty(m + 1)
        vals = v[1:]
        scratch = np.empty(m)
        best, qualifying = None, 0
        for label, values in candidates(p * count // processes, (p + 1) * count // processes):
            v[primes] = values
            _apply_plan(plan, v)
            if _mean_reaches(vals, x, c, scratch):
                qualifying += 1
                value = log_mean(vals, x)
                if best is None or value < best[0]:
                    best = (value, label)
        return best, qualifying

    best, qualifying = None, 0
    with _forked_map(best_of, processes, processes) as ranges:
        for range_best, range_qualifying in ranges:
            qualifying += range_qualifying
            if range_best is not None and (best is None or range_best[0] < best[0]):
                best = range_best
    delta_hat, worst_f = best if best is not None else (None, None)
    return DeltaEstimate(delta_hat, worst_f, qualifying, count)


@dataclass(frozen=True)
class CounterexampleRecord:
    """A scale N where the log-mean magnitude drops below the mean magnitude."""

    flipped_primes: tuple[int, ...]
    N: int
    mean_at_N: float
    log_mean_at_N: float


class CounterexampleHits(Sequence[CounterexampleRecord]):
    """Read-only sequence of search hits, stored as columns, one row per hit.

    Row i is the hit on subsets[subset[i]] at N[i], where the flipped
    function has the exact partial sum S[i] = sum_{n <= N[i]} f(n) and the
    log-mean log_mean_at_N[i]. These four are the stored columns, each in
    the narrowest dtype that holds it. mean_at_N = S / N and ratio =
    |log_mean_at_N| / |mean_at_N| are float64 arrays computed for the hits
    (or slice of them) they are read from, bit for bit the values the
    search compared. Every array is read-only. Indexing and iteration build
    CounterexampleRecords on demand; a slice is another CounterexampleHits
    over views of the columns. Equality is elementwise against any sequence
    of records, so `hits == []` tests for no hits.
    """

    def __init__(
        self,
        subsets: Sequence[tuple[int, ...]],
        subset: np.ndarray,
        N: np.ndarray,
        S: np.ndarray,
        log_mean_at_N: np.ndarray,
    ):
        self.subsets = tuple(subsets)
        self.subset = subset
        self.N = N
        self.S = S
        self.log_mean_at_N = log_mean_at_N
        for column in (subset, N, S, log_mean_at_N):
            column.setflags(write=False)

    @property
    def mean_at_N(self) -> np.ndarray:
        mean = self.S / self.N
        mean.setflags(write=False)
        return mean

    @property
    def ratio(self) -> np.ndarray:
        ratio = _ratio(self.S, self.N, self.log_mean_at_N)
        ratio.setflags(write=False)
        return ratio

    def __len__(self) -> int:
        return len(self.N)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CounterexampleHits(
                self.subsets, self.subset[i], self.N[i], self.S[i], self.log_mean_at_N[i]
            )
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError("hit index out of range")
        return CounterexampleRecord(
            flipped_primes=self.subsets[self.subset[i]],
            N=int(self.N[i]),
            mean_at_N=float(self.S[i] / self.N[i]),
            log_mean_at_N=float(self.log_mean_at_N[i]),
        )

    def __iter__(self) -> Iterator[CounterexampleRecord]:
        columns = (self.subset, self.N, self.mean_at_N, self.log_mean_at_N)
        for s, n, m, lm in zip(*(c.tolist() for c in columns)):
            yield CounterexampleRecord(self.subsets[s], n, m, lm)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def counterexample_search(
    x_max: float, flip_budget: int, threshold: float
) -> CounterexampleHits:
    """Scan sign-flip perturbations of the Liouville function for inversions.

    Every subset of the small-prime pool with at most flip_budget members is
    applied to lambda (the empty subset included), and every N <= x_max with
    mean nonzero, |log-mean| < threshold * |mean|, and |log-mean| < |mean| is
    recorded. Hits come back ordered by the key (ratio, N, flipped primes),
    where ratio is |log-mean| / |mean| and the flipped primes compare as
    tuples. Each hit is held as its subset rank, N, the partial sum S(N) and
    the float64 log-mean, 13 bytes at the defaults; the mean and the ratio
    are recomputed from S and N when read. The columns grow by each
    subset's hits, so they never hold more rows than there are hits.
    """
    m = _floor_finite(x_max, "x_max")
    if m < 100:
        raise ValueError("x_max must be at least 100")
    if flip_budget < 0:
        raise ValueError("flip_budget must be nonnegative")
    if not threshold >= 0:
        raise ValueError("threshold must be nonnegative")
    lam = liouville(m)
    ns = np.arange(1, m + 1, dtype=np.float64)
    logs = np.log(ns[1:])
    pool = [p for p in _FLIP_POOL if p <= m]
    # In tuple order, so a subset's position is its rank in the sort key.
    subsets = sorted(
        subset
        for k in range(min(flip_budget, len(pool)) + 1)
        for subset in combinations(pool, k)
    )
    # N <= m and -m <= S(N) < m: S(N) = N would need f = 1 on every n <= N,
    # yet f(23) = lambda(23) = -1 and S(N) <= 22 below 23.
    dtypes = [np.min_scalar_type(k) for k in (len(subsets) - 1, m, -m)]
    columns = [np.empty(0, dtype=dtype) for dtype in dtypes + [np.float64]]
    for rank, subset in enumerate(subsets):
        _subset_hits(lam, subset, ns, logs, threshold, columns, rank)
    # The ratio key lives only as long as the lexsort call, and the sort
    # replaces one column at a time, so the reorder holds the four columns,
    # the order and one new column.
    order = np.lexsort(
        (columns[0], columns[1], _ratio(columns[2], columns[1], columns[3]))
    )
    for i in range(len(columns)):
        columns[i] = columns[i][order]
    del order
    return CounterexampleHits(subsets, *columns)


def _subset_hits(
    lam: np.ndarray,
    subset: tuple[int, ...],
    ns: np.ndarray,
    logs: np.ndarray,
    threshold: float,
    columns: list[np.ndarray],
    rank: int,
) -> None:
    """Append rank, N, S(N) and log-mean at each hit of lambda flipped at
    subset's primes to the four columns, each grown in place by the hits.

    Its temporaries are freed on return.
    """
    v = lam.astype(np.int64)
    m = len(v)
    for p in subset:
        power = p
        while power <= m:
            v[power - 1 :: power] *= -1
            power *= p
    cs = np.cumsum(v)
    running = np.cumsum(v / ns)
    means_at = cs[1:] / ns[1:]
    log_means_at = running[1:] / logs
    # |log-mean| < threshold |mean| and < |mean| at once: rounding is
    # monotone, so the factor min(threshold, 1) keeps exactly those hits, and
    # an infinite threshold never multiplies a zero mean.
    hit = (cs[1:] != 0) & (
        np.abs(log_means_at) < min(threshold, 1.0) * np.abs(means_at)
    )
    idx = np.flatnonzero(hit)
    start = len(columns[0])
    # Each column grows in place (a realloc) by exactly the hits. The list
    # and this loop both hold it, so numpy's reference check would refuse;
    # no view of a column is alive here or across calls.
    for column in columns:
        column.resize(start + len(idx), refcheck=False)
    columns[0][start:] = rank
    np.add(idx, 2, out=columns[1][start:], casting="unsafe")
    columns[2][start:] = cs[1:][idx]
    columns[3][start:] = log_means_at[idx]


def _ratio(S: np.ndarray, N: np.ndarray, log_mean: np.ndarray) -> np.ndarray:
    """|log_mean| / |S / N| in one float64 buffer.

    S / N is the mean as the search compares it; |a / b| equals |a| / |b|
    bit for bit, so the signs are dropped after the division.
    """
    ratio = np.divide(S, N, dtype=np.float64)
    np.divide(log_mean, ratio, out=ratio)
    return np.abs(ratio, out=ratio)


def least_nonresidue(p: int) -> int:
    """Smallest n >= 2 with (n/p) = -1; always a prime below p."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    n = 2
    while kronecker(n, p) != -1:
        n += 1
    return n


@dataclass(frozen=True)
class BurgessPoint:
    """One exact short sum S(p**theta) with its trivial-bound ratio."""

    theta: float
    t: float
    s: int
    ratio: float


def burgess_scan(p: int, thetas: Sequence[float]) -> list[BurgessPoint]:
    """Exact partial sums S(p**theta) for each theta, with ratio |S|/t.

    Cancellation beyond the trivial bound shows up as ratio well below 1;
    theta = 1 covers the full period, where the sum vanishes exactly.
    """
    xi = legendre_character(p)
    if p % 4 != 3:
        raise ValueError(f"p = {p} violates the parity hypothesis p = 3 mod 4")
    thetas = list(thetas)
    if not thetas:
        raise ValueError("thetas must be nonempty")
    for theta in thetas:
        if not 0 < theta <= 1:
            raise ValueError("each theta must lie in (0, 1]")
    ts = [p**theta for theta in thetas]
    # S(p) = S(p - 1) = 0, so the walk stops at the largest floor(t) below p.
    ms = [min(math.floor(t), p - 1) for t in ts]
    _, _, found = _walk(xi, max(ms), ms)
    return [
        BurgessPoint(theta=float(theta), t=t, s=s, ratio=abs(s) / t)
        for theta, t, s in zip(thetas, ts, found)
    ]
