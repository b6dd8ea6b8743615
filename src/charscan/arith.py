"""Exact number-theoretic kernels: sieves, factor tables, quadratic symbols.

Everything in this module is integer arithmetic. Bulk evaluation of
completely multiplicative sequences extends values on primes to the odd n
by peeling smallest prime factors, which the expansion plan sieves block by
block, so no whole-range factor table is held, and to the even n by
doubling; build_spf tabulates the same factors for callers that want the
table itself. The reciprocity-based symbol is the point-query primitive
behind every character evaluation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator

import numpy as np

__all__ = [
    "SearchExhaustedError",
    "build_spf",
    "is_prime",
    "kronecker",
    "liouville",
    "sieve_primes",
    "smallest_prime_above",
]

# Deterministic Miller-Rabin witness set; exact for every n below 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# One uint32 entry per integer; larger tables are out of scope.
_MAX_TABLE_LIMIT = 2**32 - 1

# A block of the multiplicative expansion holds at most this many integers,
# so its temporaries stay small whatever the limit.
_PLAN_BLOCK = 1 << 16


class SearchExhaustedError(RuntimeError):
    """A bounded search hit its internal ceiling before finding its target."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_primes(limit: int) -> np.ndarray:
    """All primes up to and including limit, strictly increasing.

    The sieve marks the odd n only, mask[i] standing for n = 2 i + 1, so it
    takes (limit + 1) // 2 bytes; mask[0], which stands for 1, stands for 2
    instead.

    Args:
        limit: Inclusive upper bound; 0 and 1 give an empty array.

    Returns:
        int64 array of primes.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones((limit + 1) // 2, dtype=bool)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if mask[p >> 1]:
            mask[p * p >> 1 :: p] = False  # odd multiples lie 2 p apart
    primes = np.flatnonzero(mask).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def build_spf(limit: int) -> np.ndarray:
    """Sieve the smallest prime factor of every n up to limit.

    The public tabulation API, and the tests' reference for the expansion
    plan, which sieves its own blocks; no library route builds this table.

    Args:
        limit: Table capacity, at least 2. Memory is 4 bytes per integer.

    Returns:
        Read-only uint32 array spf of length limit + 1: spf[n] is the least
        prime dividing n for 2 <= n <= limit, so spf[n] == n exactly when n
        is prime, and otherwise spf[n] <= sqrt(n). spf[0] = 0 and spf[1] = 1
        are fillers.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    if limit > _MAX_TABLE_LIMIT:
        raise ValueError("limit exceeds the 32-bit entry range")
    spf = np.zeros(limit + 1, dtype=np.uint32)
    spf[2::2] = 2
    for p in range(3, math.isqrt(limit) + 1, 2):
        if spf[p] == 0:
            seg = spf[p * p :: 2 * p]  # odd multiples; even ones already marked
            seg[seg == 0] = p
    untouched = np.flatnonzero(spf == 0)  # 0, 1, and every remaining prime
    spf[untouched] = untouched
    spf[1] = 1
    spf.setflags(write=False)
    return spf


def kronecker(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for positive odd n; Legendre symbol at prime n.

    Binary-style reduction: factors of two are peeled with the 2-adic rule
    (sign flips when n = 3, 5 mod 8) and arguments are swapped under the
    reciprocity rule (sign flips when both are 3 mod 4).
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("lower argument must be a positive odd integer")
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


class _ExpansionPlan:
    """Index arithmetic of the smallest-factor expansion over the odd n <= limit.

    An odd n = 2 i + 1 sits at position i, so o = 1 is position 0. Iterating
    yields one (index, cofactor) pair of intp arrays per block of odd o with
    lo <= o < hi, in order from o = 3, where hi <= 3 lo and a block holds at
    most _PLAN_BLOCK odd values; upto(bound) yields those of the odd
    o <= bound alone, the last block cut at bound. index is the position of
    spf(o) and cofactor that of o // spf(o); one pair serves a buffer holding
    only the odd values and the strided view v[1::2] of a buffer indexed by
    n. They are intp because numpy gathers with any other index type several
    times slower. Each block sieves its own spf from the odd primes
    p <= sqrt(hi - 1), which the plan sieves once, so no length-limit table
    is held: every odd multiple of p from max(p*p, lo) on gets p, in
    decreasing p so that the least prime factor is written last. index
    starts as o itself, so the entries the sieve never writes are the primes,
    which are their own spf. The blocks are computed lazily, so one
    expansion never holds them all, and a suspended iteration holds none;
    tuple() keeps a plan's blocks for reuse across functions. Even n are not
    planned: spf(n) = 2, and _apply_plan fills them by doubling.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.primes = sieve_primes(math.isqrt(limit)).tolist()[1:]

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return self.upto(self.limit)

    def upto(self, bound: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        lo = 3
        while lo <= bound:
            hi = min(3 * lo, lo + 2 * _PLAN_BLOCK, bound + 1)
            # yielded straight from the call, so a suspended plan holds no block
            yield _plan_block(lo, hi, self.primes)
            lo += 2 * -(-(hi - lo) // 2)  # the next odd o


def _expansion_plan(limit: int) -> _ExpansionPlan:
    """The expansion plan of the odd n <= limit; see _ExpansionPlan."""
    return _ExpansionPlan(limit)


def _plan_block(lo: int, hi: int, primes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Positions of spf(o) and o // spf(o) for the odd o in [lo, hi), lo odd,
    sieved from the odd primes <= sqrt(hi - 1)."""
    cofactor = np.arange(lo, hi, 2, dtype=np.intp)
    index = cofactor.copy()
    for p in reversed(primes[: bisect_right(primes, math.isqrt(hi - 1))]):
        first = max(p * p, -(-lo // p) * p)
        first += p * (first % 2 == 0)  # the first odd multiple
        index[(first - lo) // 2 :: p] = p  # odd multiples lie 2 p apart
    cofactor //= index
    index >>= 1  # position (o - 1) // 2 of an odd o
    cofactor >>= 1
    return index, cofactor


def _expand(plan: Iterable[tuple[np.ndarray, np.ndarray]], w: np.ndarray) -> None:
    """Expand f over the odd n in place in w, over the blocks of plan.

    w holds f at the odd n by position, w[i] = f(2 i + 1), with f(p) at its
    odd primes on entry; its entries at odd composites are ignored. The
    blocks run from o = 3 on and must fit in w. Sets w[0] = f(1) = 1, then
    applies f(o) = f(spf(o)) * f(o // spf(o)) block by block. In a block
    lo <= o < hi <= 3 lo, an odd composite o has spf(o) <= sqrt(o) < lo and
    cofactor o // spf(o) <= o / 3 < lo, so both factors lie in earlier
    blocks and are already final; a prime o reads its own entry f(p) and
    multiplies it by f(1) = 1, which keeps its bits. Each block is one
    gather and one in-place product, the same two operands as the direct
    recurrence.
    """
    w[0] = 1
    lo = 1
    for index, cofactor in plan:
        hi = lo + len(index)
        _gather(w, index, cofactor, w[lo:hi])
        lo = hi


def _expand_past(plan: _ExpansionPlan, w: np.ndarray, first: int, out: np.ndarray) -> None:
    """f at the odd n from position first on, past the end of w, into out.

    w holds f expanded at every odd o <= plan.limit // 3, and first >= len(w).
    out receives f at the len(out) <= _PLAN_BLOCK odd o from o = 2 first + 1
    on, each at most plan.limit. Both factors of an odd composite o <= limit
    are at most limit // 3, so they are read from w, by the gather and the
    product of _expand, from one block of the plan's index arithmetic. A
    prime has no entry in w: it reads w[-1] instead, and the caller writes
    f(p) into out before reading it. The block's arrays are freed on return.
    """
    lo = 2 * first + 1
    index, cofactor = _plan_block(lo, lo + 2 * len(out) - 1, plan.primes)
    np.minimum(index, len(w) - 1, out=index)  # a prime reads w[-1]
    _gather(w, index, cofactor, out)


def _gather(w: np.ndarray, index: np.ndarray, cofactor: np.ndarray, out: np.ndarray) -> None:
    """out = w[index] * w[cofactor], two gathers and one in-place product.

    Fancy indexing reads a strided w as it stands, where np.take would copy
    all of it first.
    """
    out[...] = w[index]
    out *= w[cofactor]


def _apply_plan(
    plan: Iterable[tuple[np.ndarray, np.ndarray]], v: np.ndarray
) -> np.ndarray:
    """Expand f in place in v indexed by n, len(v) >= 3, over a plan of len(v) - 1.

    v[p] = f(p) at the primes on entry, v[n] = f(n) after, v[0] = 0. The
    odd n are expanded in the strided view v[1::2], which holds every odd n
    the plan covers. An even n has spf(n) = 2, so
    f(n) = f(2) * f(n / 2): the even n in [k, 2 k) are filled in one strided
    pass from the final values in [k / 2, k), for k = 2, 4, 8, ..., about
    log2 len(v) passes, each the product of the direct recurrence.
    """
    _expand(plan, v[1::2])
    v[0] = 0
    two = v[2]
    lo = 1
    while 2 * lo < len(v):
        hi = min(2 * lo, (len(v) + 1) // 2)
        np.multiply(v[lo:hi], two, out=v[2 * lo : 2 * hi : 2])
        lo = hi
    return v


def liouville(limit: int) -> np.ndarray:
    """(-1)**Omega(n) for 1 <= n <= limit, as int8 (index i holds n = i + 1)."""
    if limit < 1:
        raise ValueError("limit must be positive")
    if limit == 1:
        return np.ones(1, dtype=np.int8)
    v = np.full(limit + 1, -1, dtype=np.int8)
    return _apply_plan(_expansion_plan(limit), v)[1:]


def smallest_prime_above(
    bound: float, residue: int, modulus: int, *, search_ceiling: int | None = None
) -> int:
    """Least prime strictly greater than bound in the class residue mod modulus.

    Existence is guaranteed when gcd(residue, modulus) = 1; the ceiling only
    guards against runaway scans and raises SearchExhaustedError when hit.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    residue %= modulus
    if math.gcd(residue, modulus) != 1:
        raise ValueError("residue and modulus must be coprime")
    start = max(math.floor(bound) + 1, 2)
    if search_ceiling is None:
        search_ceiling = max(10_000_000, 64 * modulus, 4 * start)
    candidate = start + (residue - start) % modulus
    while candidate <= search_ceiling:
        if is_prime(candidate):
            return candidate
        candidate += modulus
    raise SearchExhaustedError(
        f"no prime in class {residue} mod {modulus} found in ({bound}, {search_ceiling}]"
    )
