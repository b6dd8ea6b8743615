"""Exact number-theoretic kernels: sieves, factor tables, quadratic symbols.

Everything in this module is integer arithmetic. Bulk evaluation of
completely multiplicative sequences extends values on primes to all n by
peeling smallest prime factors, which the expansion plan sieves block by
block, so no whole-range factor table is held; build_spf tabulates the same
factors for callers that want the table itself. The reciprocity-based
symbol is the point-query primitive behind every character evaluation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SearchExhaustedError",
    "SpfTable",
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

    Args:
        limit: Inclusive upper bound; 0 and 1 give an empty array.

    Returns:
        int64 array of primes.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class SpfTable:
    """Smallest-prime-factor table covering 2 <= n <= limit.

    spf[n] is the least prime dividing n, so spf[n] == n exactly when n is
    prime, and otherwise spf[n] <= sqrt(n). Entries 0 and 1 are fillers.
    The array is marked read-only so a built table can be shared freely
    between threads.
    """

    limit: int
    spf: np.ndarray


def build_spf(limit: int) -> SpfTable:
    """Sieve the smallest prime factor of every n up to limit.

    The public tabulation API, and the tests' reference for the expansion
    plan, which sieves its own blocks; no library route builds this table.

    Args:
        limit: Table capacity, at least 2. Memory is 4 bytes per integer.
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
    return SpfTable(limit=limit, spf=spf)


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


def _expansion_plan(limit: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Index arithmetic of the smallest-factor expansion over 1 <= n <= limit.

    Yields one (index, cofactor) pair of intp arrays per block lo <= n < hi
    of n >= 2, in order, where hi <= 2 lo and hi - lo <= _PLAN_BLOCK. index
    is spf(n) and cofactor is n // spf(n); both locate values in a buffer
    indexed by n. They are intp because numpy gathers with any other index
    type several times slower. Each block sieves its own spf from the primes
    p <= sqrt(hi - 1), so no length-limit table is held: every multiple of
    p from max(p*p, lo) on gets p, in decreasing p so that the least prime
    factor is written last. index starts as n itself, so the entries the
    sieve never writes are the primes, which are their own spf. The blocks
    are computed lazily, so one expansion never holds them all, and a
    suspended plan holds none; tuple() keeps a plan for reuse across
    functions.
    """
    primes = sieve_primes(math.isqrt(limit)).tolist()
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, lo + _PLAN_BLOCK, limit + 1)
        # yielded straight from the call, so a suspended plan holds no block
        yield _plan_block(lo, hi, primes)
        lo = hi


def _plan_block(lo: int, hi: int, primes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(spf(n), n // spf(n)) for lo <= n < hi, sieved from the primes <= sqrt(hi - 1)."""
    cofactor = np.arange(lo, hi, dtype=np.intp)
    index = cofactor.copy()
    for p in reversed(primes[: bisect_right(primes, math.isqrt(hi - 1))]):
        index[max(p * p, -(-lo // p) * p) - lo :: p] = p
    cofactor //= index
    return index, cofactor


def _expand(
    plan: Iterable[tuple[np.ndarray, np.ndarray]], v: np.ndarray, spill: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Expand f in place in v, and past the end of v block by block into spill.

    v is indexed by n, with v[p] = f(p) at its primes on entry; its entries
    at composite n are ignored. Sets v[0] = 0 and v[1] = 1, then applies
    f(n) = f(spf(n)) * f(n // spf(n)) block by block. In a block, a composite
    n has spf(n) <= sqrt(n) < lo and cofactor n // spf(n) <= n / 2 < lo, so
    both factors lie in earlier blocks and are already final; a prime n reads
    its own entry f(p) and multiplies it by f(1) = 1, which keeps its bits.
    Each block is one gather and one in-place product, the same two operands
    as the direct recurrence.

    The n below len(v) land in v. The rest of a block, from n = first on,
    lands in spill, which must be at least as long, and (first, view of
    spill) is yielded; the view is overwritten by the next block. Both
    factors of a composite n <= limit are at most limit // 2, so with
    len(v) > limit // 2 every composite past v reads them from v. A prime n
    past v has no entry there: the gather clips it to v[-1], and the caller
    writes f(n) into the view before reading it.
    """
    v[0] = 0
    v[1] = 1
    lo = 2
    for index, cofactor in plan:
        hi = lo + len(index)
        if hi <= len(v):
            _gather(v, index, cofactor, v[lo:hi])
        else:
            cut = max(len(v) - lo, 0)  # the block's first cut values fit in v
            _gather(v, index[:cut], cofactor[:cut], v[lo : lo + cut])
            _gather(v, index[cut:], cofactor[cut:], spill[: hi - lo - cut])
            del index, cofactor  # not held while the caller reads the block
            yield lo + cut, spill[: hi - lo - cut]
        lo = hi


def _gather(v: np.ndarray, index: np.ndarray, cofactor: np.ndarray, out: np.ndarray) -> None:
    """out = v[index] * v[cofactor], one gather and one in-place product.

    An index past the end of v is clipped to v[-1]; mode="clip" also lets
    np.take write out directly, where the default mode buffers it.
    """
    np.take(v, index, out=out, mode="clip")
    out *= v[cofactor]


def _apply_plan(
    plan: Iterable[tuple[np.ndarray, np.ndarray]], v: np.ndarray
) -> np.ndarray:
    """Expand f in place over the whole plan: v[p] = f(p) at the primes on
    entry, v[n] = f(n) after. v covers the plan's range, so _expand spills
    nothing."""
    for _ in _expand(plan, v, v[:0]):
        pass
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
