"""Partial sums, means, logarithmic means, and the convolution rearrangement.

Character partial sums are exact integers. Only the f(n)/n style sums
introduce floating point, and those are exactly rounded: sums over numpy
arrays go block by block into _ExactAccumulator, whose sum equals
math.fsum, and the short generator sums over character values use
math.fsum itself. Quoted 1e-9 tolerances are therefore dominated by the
mathematics rather than the summation order.

A completely multiplicative function is two read-only arrays: its float64
prime values, aligned with primes = sieve_primes(limit), one sieve shared
while any function on that limit holds it. Each values_upto call sieves
smallest prime factors block by block as it expands, with no whole-range
factor table. The statistics mean, log_mean and conv_mean take that
expanded array, values = f.values_upto(x), so a caller reads several
statistics of one (f, x) from one expansion at 8 bytes per n. They also
take the result of _streamed_sums(f, x), which holds f only at the odd
n <= x/3 and sums the other odd n block by block, each block with its
doubling chain f(2^k n), into the statistics asked for in one pass, at
4/3 bytes per n plus one block, the blocks shared out to every CPU the
process may use; lemma_b_report reads all three so, and the means command
mean and log_mean.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .arith import (
    _PLAN_BLOCK,
    _apply_plan,
    _expand,
    _expand_past,
    _expansion_plan,
    is_prime,
    sieve_primes,
)
from . import characters
from .characters import (
    _U32_ROOT,
    QuadraticCharacter,
    _square_residues,
    _squares,
    _value_blocks,
    evaluate,
    legendre_character,
)
from .workers import _forked_map, _processes

__all__ = [
    "CONSTANTS",
    "CompletelyMultiplicativeFunction",
    "Constants",
    "MeansReport",
    "SumProfile",
    "character_log_sum",
    "conv_mean",
    "gs_bound",
    "ht_u",
    "log_mean",
    "max_partial_sum",
    "mean",
    "partial_sum",
    "pv_ratios",
    "restricted_log_sum",
]

_EULER_GAMMA = 0.57721566490153286
_C_ODD = math.exp(_EULER_GAMMA) / math.pi
_C_EVEN = _C_ODD / math.sqrt(3.0)

# _exact_sum works in blocks of this many elements, so its temporaries stay
# small and a block's per-exponent mantissa sums stay below 2^53.
_SUM_BLOCK = 1 << 16
# frexp exponents of finite nonzero doubles lie in [-1073, 1024]; shifted by
# this offset they index bincount bins from 1, in units of 2^-1127.
_EXP_OFFSET = 1074
_SUM_SCALE = 1 << (_EXP_OFFSET + 53)
# Unit roundoff of float64, for the error bound of _mean_reaches.
_UNIT_ROUNDOFF = 2.0**-53
# _segment_peaks sums chunks of values first, then sums out value by value
# only the chunks that can hold the peak. _walk's chunks hold _CHUNK values.
_CHUNK = 256
# _legendre_peaks packs its primes into batches of this many values, in
# chunks of _BATCH_CHUNK values.
_BATCH = 1 << 20
_BATCH_CHUNK = 64


@dataclass(frozen=True)
class Constants:
    """Named constants shared by the reports.

    kappa is the decay rate in the mean-value envelope exp(-kappa u); c_odd
    and c_even are the conjectured sharp coefficients exp(gamma)/pi and
    exp(gamma)/(pi sqrt 3) for the loglog-normalized maxima of odd and even
    characters.
    """

    kappa: float = 0.32
    euler_gamma: float = _EULER_GAMMA
    c_odd: float = _C_ODD
    c_even: float = _C_EVEN


CONSTANTS = Constants()


# sieve_primes(limit) for each limit some function holds, read-only.
_live_primes: weakref.WeakValueDictionary[int, np.ndarray] = (
    weakref.WeakValueDictionary()
)


def _floor_finite(x: float, name: str = "x") -> int:
    """floor(x), with a ValueError of its own for inf and nan."""
    if not math.isfinite(x):
        raise ValueError(f"{name} must be a finite number")
    return math.floor(x)


def _floor_in_domain(f: CompletelyMultiplicativeFunction, x: float, least: int) -> int:
    """floor(x), checked to be at least least and at most f's limit."""
    m = _floor_finite(x)
    if m < least:
        raise ValueError(f"x must be at least {least}")
    if m > f.limit:
        raise ValueError(f"f is only defined up to {f.limit}, need {m}")
    return m


def _shared_primes(limit: int) -> np.ndarray:
    """sieve_primes(limit), read-only, shared while anyone holds it.

    limit must be an integer >= 1 (not a bool), checked before any sieve.
    Every function on one limit holds the same array, so flip, and a
    classmethod that holds the primes while it sizes its values, sieve
    nothing more: one sieve per function.
    """
    if isinstance(limit, bool) or not isinstance(limit, (int, np.integer)):
        raise TypeError(f"limit must be an integer, not {limit!r}")
    if limit < 1:
        raise ValueError("limit must be positive")
    limit = int(limit)
    primes = _live_primes.get(limit)
    if primes is None:
        primes = sieve_primes(limit)
        primes.setflags(write=False)
        _live_primes[limit] = primes
    return primes


@dataclass(frozen=True, eq=False)
class CompletelyMultiplicativeFunction:
    """f with f(1) = 1 and f(mn) = f(m) f(n), pinned by prime values in [-1, 1].

    values[i] is f at primes[i], the i-th prime up to limit, where primes =
    sieve_primes(limit), so every f(n) with n <= limit is determined. Both
    are stored read-only, and values is a float64 copy of the array given.
    A {p: f(p)} dict is dict(zip(f.primes.tolist(), f.values.tolist())).
    """

    values: np.ndarray
    limit: int
    primes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        primes = _shared_primes(self.limit)
        values = np.array(self.values, dtype=np.float64)
        if values.shape != primes.shape:
            raise ValueError(
                f"values must hold f(p) for the {len(primes)} primes <= "
                f"{self.limit}, not an array of shape {values.shape}"
            )
        outside = np.flatnonzero(~((values >= -1.0) & (values <= 1.0)))
        if len(outside):
            i = outside[0]
            raise ValueError(f"f({primes[i]}) = {values[i]} lies outside [-1, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "limit", int(self.limit))
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "values", values)

    @classmethod
    def ones(cls, limit: int) -> "CompletelyMultiplicativeFunction":
        primes = _shared_primes(limit)
        return cls(np.ones(len(primes)), limit)

    @classmethod
    def liouville(cls, limit: int) -> "CompletelyMultiplicativeFunction":
        primes = _shared_primes(limit)
        return cls(np.full(len(primes), -1.0), limit)

    @classmethod
    def random(
        cls, limit: int, rng: np.random.Generator
    ) -> "CompletelyMultiplicativeFunction":
        primes = _shared_primes(limit)
        return cls(rng.uniform(-1.0, 1.0, size=len(primes)), limit)

    def flip(self, primes_to_flip: Sequence[int]) -> "CompletelyMultiplicativeFunction":
        """Negate f at the given primes (each must be a prime <= limit)."""
        values = self.values.copy()
        for p in primes_to_flip:
            i = int(np.searchsorted(self.primes, p))
            if i == len(self.primes) or self.primes[i] != p:
                raise ValueError(f"{p} is not a prime <= {self.limit}")
            values[i] = -values[i]
        return type(self)(values, self.limit)

    def values_upto(self, x: float) -> np.ndarray:
        """f(1..floor(x)) as float64 (index i holds n = i + 1).

        The result is a view of one length floor(x) + 1 buffer indexed by n,
        expanded in place from f's values scattered onto the primes: the odd
        n by one expansion plan, whose blocks sieve their own smallest prime
        factors, and the even n by doubling, f(2 n) = f(2) * f(n).
        """
        m = _floor_in_domain(self, x, 1)
        if m == 1:
            return np.ones(1)
        k = np.searchsorted(self.primes, m, side="right")
        v = np.empty(m + 1)
        v[self.primes[:k]] = self.values[:k]
        return _apply_plan(_expansion_plan(m), v)[1:]


@dataclass(frozen=True)
class SumProfile:
    """Peak of the character partial sums over one full period.

    argmax is the smallest t attaining the peak; max_abs <= argmax always,
    since a sum of n unit terms cannot exceed n.
    """

    modulus: int
    max_abs: int
    argmax: int


@dataclass(frozen=True)
class MeansReport:
    """Mean, log-mean, and lower-bound ingredients for one (f, x)."""

    x: float
    mean: float
    log_mean: float
    u: float
    conv_mean: float
    gs_bound: float
    ht_envelope: float
    ht_constant: float
    flags: tuple[str, ...] = ()


def partial_sum(chi: QuadraticCharacter, t: float) -> int:
    """Exact sum of chi(n) over 1 <= n <= floor(t), by point queries.

    This is the reference route: one reciprocity-symbol evaluation per n,
    no tables. Whole periods cancel, so t beyond the modulus is reduced.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    m = _floor_finite(t, "t")
    if m >= chi.modulus:
        m %= chi.modulus
    return sum(evaluate(chi, n) for n in range(1, m + 1))


def _chunk_bounds(begins: np.ndarray, ends: np.ndarray, width: int) -> np.ndarray:
    """Upper bound on |S| inside each chunk of width values, from |S| at its edges.

    A chunk from S = b to S = e has every value within j steps of b and
    width - j steps of e, so 2|S| <= |b| + |e| + width.
    """
    return (begins + ends + width) // 2


def _segment_peaks(
    body: np.ndarray, lengths: Sequence[int], carries: Sequence[int], floor: int
) -> tuple[list[int], list[int], list[int]]:
    """Peak of |S|, its first maximizer and S at the end, for each segment of body.

    body is a (chunks, width) int8 array of segments laid back to back, each
    zero-padded to lengths[k] whole chunks; S runs over segment k from
    carries[k]. One sum per chunk and one cumsum give S at every chunk edge.
    Only the chunks whose _chunk_bounds reach the larger of floor and their
    segment's largest |S| at an edge are summed out value by value,
    ascending; no other chunk can hold a |S| above both, so a peak above
    floor is exact. Otherwise it is at most floor, and -1 with maximizer 0
    when no chunk of the segment is summed out. The first maximizer wins, as
    an offset from 1 within the segment; the padding keeps S at its last
    value, so it never holds the first. Edges and running sums are int32
    while twice the largest |S| or floor, plus a width, stays below 2^31,
    since a bound adds two edges; int64 beyond.
    """
    count, width = len(lengths), body.shape[1]
    # |S| <= reach; a bound adds two edges and a width
    reach = max(floor, max(map(abs, carries))) + body.size
    dtype = np.int32 if 2 * reach + width < 2**31 else np.int64
    carries = np.asarray(carries, dtype=dtype)
    lengths = np.asarray(lengths, dtype=np.intp)
    starts = lengths.cumsum() - lengths
    # |sum| <= width < 2^15; numpy reduces int16 about twice as fast as int32
    sums = body.sum(axis=1, dtype=np.int16)
    ends = sums.cumsum(dtype=dtype)  # S at each chunk's last edge
    ends += (carries - ends[starts] + sums[starts]).repeat(lengths)  # restart
    tops = np.abs(ends)
    level = np.maximum(np.maximum.reduceat(tops, starts), floor)
    bounds = _chunk_bounds(np.abs(ends - sums), tops, width)
    chunks = (bounds >= level.repeat(lengths)).nonzero()[0]
    if not len(chunks):  # no chunk can hold a |S| above floor
        return [-1] * count, [0] * count, ends[starts + lengths - 1].tolist()
    rows = body[chunks].cumsum(axis=1, dtype=dtype)
    rows += (ends[chunks] - sums[chunks])[:, None]  # S before each chunk
    np.abs(rows, out=rows)
    cols = rows.argmax(axis=1)  # argmax returns the first maximizer
    row_peaks = rows.max(axis=1)
    segment = starts.searchsorted(chunks, side="right") - 1
    peaks = np.full(count, -1, dtype=dtype)
    np.maximum.at(peaks, segment, row_peaks)
    hits = (row_peaks == peaks[segment]).nonzero()[0]
    found = (peaks >= 0).nonzero()[0]  # the segments with a row summed out
    hits = hits[segment[hits].searchsorted(found)]  # the first of each
    maximizers = np.zeros(count, dtype=np.intp)
    maximizers[found] = (chunks[hits] - starts[found]) * width + cols[hits] + 1
    return peaks.tolist(), maximizers.tolist(), ends[starts + lengths - 1].tolist()


def _walk(
    chi: QuadraticCharacter, limit: int, points: Sequence[int] = ()
) -> tuple[int, int, list[int]]:
    """Stream S(n) = chi(1) + ... + chi(n) over 1 <= n <= limit, block by block.

    Returns the peak of |S(n)|, its first maximizer, and S(m) for each m in
    points (0 <= m <= limit, with S(0) = 0). Each block of _value_blocks is
    one segment of _segment_peaks in chunks of _CHUNK values, carried from
    S so far, with the peak so far as its floor: only the chunks that can
    hold a larger |S| are summed out value by value. The whole chunks are a
    view of the block; a last partial chunk is copied, zero-padded, as a
    segment of its own. Points are read from one cumsum of the block up to
    the furthest point in it, plus the carry. A segment's maximizer
    replaces the current one only when strictly larger, and within a
    segment the first maximizer wins, so ties keep the smallest n.
    """
    width = _CHUNK
    wanted = np.asarray(points, dtype=np.int64)
    found = np.zeros(len(wanted), dtype=np.int64)
    peak, first, carry, start = -1, 0, 0, 1
    for block in _value_blocks(chi, limit):
        end = start + len(block)
        if len(wanted):
            inside = (wanted >= start) & (wanted < end)
            if inside.any():
                offsets = wanted[inside] - start
                running = np.cumsum(block[: offsets.max() + 1], dtype=np.int64)
                found[inside] = running[offsets] + carry
        cut = len(block) - len(block) % width
        segments = [(0, block[:cut].reshape(-1, width))]
        if cut < len(block):
            tail = np.zeros((1, width), dtype=np.int8)
            tail[0, : len(block) - cut] = block[cut:]
            segments.append((cut, tail))
        for offset, body in segments:
            if len(body):
                peaks, firsts, ends = _segment_peaks(body, [len(body)], [carry], peak)
                carry = ends[0]
                if peaks[0] > peak:
                    peak, first = peaks[0], start + offset + firsts[0] - 1
        start = end
    return peak, first, found.tolist()


def _legendre_peaks(primes: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(peak of |S|, first maximizer) over t <= (p-1)/2 for each odd prime p.

    S is the partial sum of the Legendre symbol mod p, and the primes are
    taken in order. A prime with (p-1)/2 > characters._BLOCK goes through
    _walk. The others are packed in order into an int8 buffer of _BATCH
    values (or of one segment, if longer), each zero-padded to whole chunks
    of _BATCH_CHUNK values. The buffer is no longer than those padded
    segments together, so a call that batches no prime holds no batch. A
    full buffer is one _segment_peaks call, one segment per prime, each
    from S = 0 with floor 0, so memory stays O(_BATCH + _BLOCK). Per
    prime, the segment is set to -1 for n <= (p-1)/2, its residues k*k mod
    p (_square_residues) to 1, and then its padding to 0. Residues above
    (p-1)/2 land in that padding or past it, where the next segment's reset
    overwrites them or nothing reads them. The squares (uint32 up to
    k = _U32_ROOT, plus an intp copy past it), the intp index and the
    uint32 quotients are allocated once per call; intp quotients go into
    the index buffer. The result equals _walk's.
    """
    block, width = characters._BLOCK, _BATCH_CHUNK
    halves = [h for h in ((p - 1) // 2 for p in primes) if h <= block]
    top = max(halves, default=0)
    # a batch holds at most _BATCH values or one longer segment, and never
    # more than every batched segment together
    total = sum(-(-h // width) * width for h in halves)
    capacity = min(total, max(_BATCH, -(-top // width) * width))
    values = np.empty(capacity + top + 1, dtype=np.int8)
    index = np.empty(top, dtype=np.intp)
    narrow = _squares(min(top, _U32_ROOT))
    quotient = np.empty(len(narrow), dtype=np.uint32)
    wide = _squares(top) if top > _U32_ROOT else narrow
    lengths: list[int] = []
    fill = 0

    def batch(lengths: list[int], fill: int) -> Iterator[tuple[int, int]]:
        body = values[1 : fill + 1].reshape(-1, width)
        return zip(*_segment_peaks(body, lengths, [0] * len(lengths), 0)[:2])

    for p in primes:
        half = (p - 1) // 2
        length = -(-half // width) * width
        if lengths and (half > block or fill + length > _BATCH):
            yield from batch(lengths, fill)
            lengths, fill = [], 0
        if half > block:
            peak, first, _ = _walk(legendre_character(p), half)
            yield peak, first
            continue
        if half <= _U32_ROOT:
            squares, scratch = narrow[:half], quotient[:half]
        else:
            squares, scratch = wide[:half], index[:half]
        residues = _square_residues(squares, p, scratch, index[:half])
        table = values[fill:]  # table[n] holds chi(n)
        table[1 : half + 1] = -1
        table[residues] = 1
        table[half + 1 : length + 1] = 0
        lengths.append(length // width)
        fill += length
    if lengths:
        yield from batch(lengths, fill)


def max_partial_sum(chi: QuadraticCharacter) -> SumProfile:
    """Peak of |S(t)| over t = 1..modulus, from a scan of t <= (q-1)/2 only.

    For a real nonprincipal chi mod q the sum over a period vanishes and
    chi(q-n) = chi(-1) chi(n), so S(q-1-t) = -chi(-1) S(t): |S| is symmetric
    about (q-1)/2 and the peak and its first maximizer lie in t <= (q-1)/2.
    Ties go to the smallest t. Every modulus, prime or composite, is one
    _walk: exact chunk sums give S at every edge of a chunk of _CHUNK
    values, and only the chunks whose bound (|b| + |e| + _CHUNK) // 2 from
    their edge values b and e reaches the block's best edge value or the
    peak so far are summed out value by value (_segment_peaks). Its memory
    is O(min(q, characters._BLOCK) + largest factor of q).
    """
    q = chi.modulus
    # q = 1 is the trivial character: one value.
    peak, first, _ = _walk(chi, max((q - 1) // 2, 1))
    return SumProfile(modulus=q, max_abs=peak, argmax=first)


class _ExactAccumulator:
    """Running exact sum of float64 blocks; value() is the correctly rounded sum.

    Each block holds at most _SUM_BLOCK float64 values. Each element is split
    by frexp into a 53-bit integer mantissa and an exponent. Per block, the
    mantissas are summed per exponent with bincount in two halves (high 27
    bits, low 26 bits), so every float64 partial sum stays below 2^53 and is
    exact. The per-exponent sums of all blocks accumulate in one Python
    integer in units of 2^-1127, and a single int/int true division, which is
    correctly rounded, gives the value. The sum is exact, so where the
    blocks begin and end, and in which order they come, cannot change a bit.
    """

    def __init__(self) -> None:
        self.total = 0

    def add(self, block: np.ndarray) -> None:
        if not np.isfinite(block).all():
            raise ValueError("cannot sum non-finite values")
        mantissa, exponent = np.frexp(block)
        # intp, which bincount would otherwise copy the exponents to twice
        exponent = np.add(exponent, _EXP_OFFSET, dtype=np.intp)
        mantissa *= 2.0**27
        high = np.floor(mantissa)
        mantissa -= high  # exact: the 26 low bits, as a fraction
        mantissa *= 2.0**26
        high_sums = np.bincount(exponent, weights=high)
        low_sums = np.bincount(exponent, weights=mantissa)
        for e in np.flatnonzero((high_sums != 0) | (low_sums != 0)).tolist():
            self.total += ((int(high_sums[e]) << 26) + int(low_sums[e])) << e

    def value(self) -> float:
        return self.total / _SUM_SCALE


def _exact_total(blocks: Iterable[np.ndarray]) -> float:
    """Correctly rounded sum of every value in blocks; equals math.fsum."""
    acc = _ExactAccumulator()
    for block in blocks:
        acc.add(block)
    return acc.value()


def _block_bounds(length: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) of consecutive slices of at most _SUM_BLOCK covering range(length)."""
    for lo in range(0, length, _SUM_BLOCK):
        yield lo, min(lo + _SUM_BLOCK, length)


def _exact_sum(a: np.ndarray) -> float:
    """Correctly rounded sum of a float64 array; equals math.fsum(a)."""
    return _total(a, _mean_terms)


# The terms each statistic sums, from a block of f(n) for the arithmetic
# progression n = first, first + step, ... and m = floor(x): f(n) for the
# mean, f(n)/n for the log-mean and f(n) floor(m/n) for the convolution mean.
# Each term depends on its own n alone, so any split of n <= m into blocks
# gives the same terms.


def _mean_terms(block: np.ndarray, first: int, step: int, m: int) -> np.ndarray:
    return np.asarray(block, dtype=np.float64)


def _log_terms(block: np.ndarray, first: int, step: int, m: int) -> np.ndarray:
    n = np.arange(first, first + step * len(block), step, dtype=np.float64)
    return np.divide(block, n, out=n)


def _conv_terms(block: np.ndarray, first: int, step: int, m: int) -> np.ndarray:
    # floor(x/d) equals floor(m/d) for integer d, so the counts are exact
    # integers; d is freed on return, before the product is summed
    d = np.arange(first, first + step * len(block), step, dtype=np.int64)
    return block * np.floor_divide(m, d, out=d)


_Terms = Callable[[np.ndarray, int, int, int], np.ndarray]
_TERMS: tuple[_Terms, ...] = (_mean_terms, _log_terms, _conv_terms)


@dataclass(frozen=True, eq=False)
class _StreamedSums:
    """The exact sums of statistics' terms over n <= m, from one pass.

    totals maps each terms function summed (all of _TERMS unless fewer were
    asked for) to its correctly rounded sum. len() is m, so a statistic
    checks it against x as it checks an array of f(n).
    """

    m: int
    totals: dict[_Terms, float]

    def __len__(self) -> int:
        return self.m


def _streamed_sums(
    f: CompletelyMultiplicativeFunction, x: float, terms: tuple[_Terms, ...] = _TERMS
) -> _StreamedSums:
    """The exact sum of each of terms for f at x, holding f only at odd n <= m // 3.

    m = floor(x) >= 2. f at the odd n <= m // 3 is expanded in place in one
    buffer w, w[i] = f(2 i + 1), as values_upto expands the odd n of its
    array, by the one expansion plan of m. The other odd n are cut into
    pieces of at most _PLAN_BLOCK values, each expanded on its own from w
    (arith._expand_past): both factors of an odd composite n <= m are at
    most m // 3, and the primes of the piece take f(p) straight from
    f.values, which equals the f(p) * f(1) of the full expansion. Every even
    n is o 2^k for an odd o, with f(o 2^k) = f(2) * f(o 2^(k-1)), the direct
    recurrence's product. So each piece of odd o, from o = first on, and
    each block of w is summed with its doubling chain: the o with o 2^k <= m
    are a prefix of it, whose n form the progression from first 2^k in
    steps of 2^(k+1), and the prefix is multiplied by f(2) once per level
    in a buffer of one block, so w is only read. A block is summed into
    every total at once and then overwritten.

    After w is expanded, the pieces past w, then the blocks of w, are dealt
    to every process this one may use (workers._processes), each to the
    process with the least estimated work so far; the others are forked
    helpers that read w as this process holds it. Each process sums its own
    in order and returns its exact integer totals, which are added here.
    The sums are exact, so the totals equal those of the full array bit for
    bit, for any number of processes, at 8/6 bytes per n plus one block per
    process.
    """
    m = _floor_in_domain(f, x, 2)
    held = max((m // 3 + 1) // 2, 1)  # the odd n <= m // 3, and n = 1 at m = 2
    k = np.searchsorted(f.primes, 2 * held, side="right")  # 2 and the primes in w
    w = np.empty(held)
    w[f.primes[1:k] >> 1] = f.values[1:k]
    plan = _expansion_plan(m)
    _expand(plan.upto(2 * held - 1), w)
    two = f.values[0]
    odd = (m + 1) // 2
    pieces = [(lo, min(lo + _PLAN_BLOCK, odd)) for lo in range(held, odd, _PLAN_BLOCK)]
    pieces += _block_bounds(held)
    processes = _processes(len(pieces))
    # Each piece goes, in order, to the process with the least work so far:
    # its terms over every level of the doubling chain, plus half its
    # length for a piece expanded past w.
    loads, owners = [0] * processes, []
    for lo, hi in pieces:
        work, bound = (hi - lo) // 2 if lo >= held else 0, m
        while bound > 2 * lo:
            work += min(hi, (bound + 1) // 2) - lo
            bound //= 2
        owners.append(loads.index(min(loads)))
        loads[owners[-1]] += work

    def share(p: int) -> list[int]:
        # the exact totals of the pieces of process p
        mine = [piece for piece, owner in zip(pieces, owners) if owner == p]
        buffer = np.empty(max(hi - lo for lo, hi in mine))
        sums = [_ExactAccumulator() for _ in terms]
        for lo, hi in mine:
            if lo < held:
                block = w[lo:hi]
            else:
                block = buffer[: hi - lo]
                _expand_past(plan, w, lo, block)
                a, b = np.searchsorted(f.primes, (2 * lo, 2 * hi), side="right")
                block[(f.primes[a:b] >> 1) - lo] = f.values[a:b]
            first, scale = 2 * lo + 1, 1  # block holds f(o) for o = first, first + 2, ...
            while len(block):
                for t, acc in zip(terms, sums):
                    acc.add(t(block, first * scale, 2 * scale, m))
                scale *= 2
                block = block[: max((m // scale - first) // 2 + 1, 0)]
                block = np.multiply(block, two, out=buffer[: len(block)])
        return [acc.total for acc in sums]

    with _forked_map(share, processes, processes) as shares:
        totals = [sum(column) for column in zip(*shares)]
    return _StreamedSums(m, {t: total / _SUM_SCALE for t, total in zip(terms, totals)})


def _total(values: np.ndarray | _StreamedSums, terms: _Terms) -> float:
    """Correctly rounded sum of terms over values, read from the streamed
    sums or summed one block of n at a time from the array of f(n)."""
    if isinstance(values, _StreamedSums):
        return values.totals[terms]
    m = len(values)
    return _exact_total(terms(values[lo:hi], lo + 1, 1, m) for lo, hi in _block_bounds(m))


def _length(values: np.ndarray | _StreamedSums, x: float) -> int:
    """floor(x), checked against len(values) for values = f.values_upto(x)."""
    m = _floor_finite(x)
    if m < 1:
        raise ValueError("x must be at least 1")
    if len(values) != m:
        raise ValueError(f"values must hold f(n) for n <= {m}, not {len(values)} values")
    return m


def mean(values: np.ndarray | _StreamedSums, x: float) -> float:
    """(1/x) * sum of f(n) over n <= x, with values = f.values_upto(x); needs x >= 1."""
    _length(values, x)
    return _total(values, _mean_terms) / x


def _mean_reaches(
    vals: np.ndarray, x: float, c: float, scratch: np.ndarray
) -> bool:
    """abs(_exact_sum(vals) / x) >= c, summed exactly only when floats cannot tell.

    For vals = f.values_upto(x) this is abs(mean(vals, x)) >= c, but vals
    may have any length; c > 0 and x >= 1. The float sum s of n terms, in
    any order of its n - 1 additions (so np.sum's pairwise order too), lies
    within gamma_{n-1} sum|a_i| of the exact sum S, where
    gamma_k = k u / (1 - k u) and u = 2^-53 (Higham, Accuracy and Stability
    of Numerical Algorithms, section 4.2). The margin doubles that bound, which covers the rounding
    of the computed sum|a_i|; adds 2^-48 (|s| + c x), which covers the two
    roundings of fl(fl(S)/x) and those of this test; and adds 2^-1000 x for
    underflow. Beyond the margin the sign of |s| - c x is the answer; within
    it, the exact sum is. scratch, a float64 array as long as vals, holds
    |vals| for the bound, so a caller testing many candidates allocates it
    once.
    """
    s = abs(float(np.sum(vals)))
    cx = c * x
    k = max(len(vals) - 1, 0) * _UNIT_ROUNDOFF
    margin = (
        2.0 * k / (1.0 - k) * float(np.sum(np.abs(vals, out=scratch)))
        + 2.0**-48 * (s + cx)
        + 2.0**-1000 * x
    )
    if s - cx > margin:
        return True
    if cx - s > margin:
        return False
    return abs(_exact_sum(vals) / x) >= c


def log_mean(values: np.ndarray | _StreamedSums, x: float) -> float:
    """(1/log x) * sum of f(n)/n over n <= x, with values = f.values_upto(x).

    Needs x >= 2. The terms are divided one block of n at a time.
    """
    _length(values, x)
    if x < 2:
        raise ValueError("x must be at least 2 for the log normalization")
    return _total(values, _log_terms) / math.log(x)


def character_log_sum(chi: QuadraticCharacter, t: float) -> float:
    """Sum of chi(n)/n over n <= floor(t); empty below t = 1."""
    m = 0 if t < 1 else _floor_finite(t, "t")
    return math.fsum(evaluate(chi, n) / n for n in range(1, m + 1))


def restricted_log_sum(xi: QuadraticCharacter, t: float, ell: int) -> float:
    """Sum of xi(n)/n over n <= floor(t) with multiples of ell omitted."""
    if ell % 2 == 0 or not is_prime(ell):
        raise ValueError("ell must be an odd prime")
    if t < 1:
        raise ValueError("t must be at least 1")
    m = _floor_finite(t, "t")
    return math.fsum(evaluate(xi, n) / n for n in range(1, m + 1) if n % ell)


def conv_mean(values: np.ndarray | _StreamedSums, x: float) -> float:
    """(1/x) * sum over n <= x of the divisor convolution (1 * f)(n).

    values = f.values_upto(x). Rearranged exactly as sum_d f(d) floor(x/d);
    floor(x/d) equals floor(floor(x)/d) for integer d, so the counts stay in
    exact integers, one block of d at a time. Needs x >= 1.
    """
    _length(values, x)
    return _total(values, _conv_terms) / x


def ht_u(f: CompletelyMultiplicativeFunction, x: float) -> float:
    """u = sum over primes p <= x of (1 - f(p))/p.

    Zero exactly when f is 1 on every prime up to x; grows as f moves away
    from the constant function.
    """
    m = _floor_in_domain(f, x, 2)
    k = np.searchsorted(f.primes, m, side="right")
    terms = 1.0 - f.values[:k]
    terms /= f.primes[:k]
    return _exact_sum(terms)


def gs_bound(u: float, x: float) -> float:
    """Main term exp(-u * exp(u/2)) * log x of the convolution-mean lower bound."""
    if not u >= 0:
        raise ValueError("u must be nonnegative")
    if not x >= 2:
        raise ValueError("x must be at least 2")
    return math.exp(-u * math.exp(u / 2.0)) * math.log(x)


def pv_ratios(profile: SumProfile) -> dict[str, float]:
    """Peak sum normalized by sqrt(q) log q, and by sqrt(q) loglog q.

    The loglog ratio is only meaningful once log log q >= 1, so it is absent
    for moduli below 16.
    """
    q = profile.modulus
    if q < 3:
        raise ValueError("modulus must be at least 3")
    root = math.sqrt(q)
    out = {"ratio_log": profile.max_abs / (root * math.log(q))}
    if q >= 16:
        out["ratio_loglog"] = profile.max_abs / (root * math.log(math.log(q)))
    return out
