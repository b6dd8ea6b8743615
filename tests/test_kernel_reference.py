"""The streaming character kernel against the whole-period reference route.

max_partial_sum scans only t <= (q-1)/2, and verify_lemma_bg and burgess_scan
walk the values in blocks of characters._BLOCK. sums._walk hands each block
to sums._segment_peaks in chunks of sums._CHUNK values, its last partial
chunk zero-padded, and pv-scan's sums._legendre_peaks hands it batches of
primes in chunks of sums._BATCH_CHUNK values. The kernel sums the chunks
first and sums out value by value only the chunks whose bound can reach the
peak. The references below are the
whole-array routes they replaced: one value table for all n <= q, one
np.cumsum over it. Their values come from kronecker, not from square
marking, so the two routes share no arithmetic. Every comparison is exact,
floats included: the blocked log-sum adds its terms in the same order.

verify_lemma_bg also stops its log-sum early once a certified tail bound
shows the peak is final. At the benchmark's moduli, q near 3*10^7, the
whole-array reference is too large to build, so the reference there is the
blocked walk over every n <= q that the early stop replaced.
"""

import functools
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from charscan import characters, cli, experiments, sums
from charscan.arith import kronecker, sieve_primes
from charscan.characters import bulk_values, legendre_character, product_character
from charscan.experiments import LemmaBgAudit, burgess_scan, verify_lemma_bg
from charscan.sums import SumProfile, max_partial_sum, partial_sum
from test_characters import class_numbers
from test_sums import walk_samples


def reference_values(chi, limit):
    """chi(n) for 1 <= n <= limit: per factor a kronecker table, rolled and tiled."""
    out = np.ones(limit, dtype=np.int8)
    for p in chi.factors:
        table = np.array([kronecker(a, p) for a in range(p)], dtype=np.int8)
        out *= np.resize(np.roll(table, -1), limit)
    return out


def reference_walk(chi, ts):
    """Peak of |S|, its first maximizer and S(t) at each t, t reduced mod q,
    from one cumulative sum over t = 1..q."""
    q = chi.modulus
    cs = np.cumsum(reference_values(chi, q), dtype=np.int64)
    magnitudes = np.abs(cs)
    best = int(np.argmax(magnitudes))
    found = []
    for t in ts:
        m = math.floor(t)
        if m >= q:
            m %= q
        found.append(int(cs[m - 1]) if m >= 1 else 0)
    return int(magnitudes[best]), best + 1, found


def reference_profile(chi):
    """The whole-period max_partial_sum."""
    peak, first, _ = reference_walk(chi, ())
    return SumProfile(modulus=chi.modulus, max_abs=peak, argmax=first)


def reference_audit(xi, psi):
    """The whole-period verify_lemma_bg: length-q arrays and one np.cumsum."""
    chi = product_character(xi, psi)
    q = chi.modulus
    ell = psi.modulus
    lhs = reference_profile(chi).max_abs / math.sqrt(q)
    terms = reference_values(xi, q).astype(np.float64)
    terms /= np.arange(1, q + 1, dtype=np.float64)
    terms[ell - 1 :: ell] = 0.0
    running = np.cumsum(terms)
    rhs_main = math.sqrt(ell) / (math.pi * (ell - 1)) * float(np.max(np.abs(running)))
    return LemmaBgAudit(lhs=lhs, rhs_main=rhs_main, gap=lhs - rhs_main)


def unpruned_audit(xi, psi):
    """verify_lemma_bg without the early stop: the blocked log-sum over all n <= q."""
    chi = product_character(xi, psi)
    q = chi.modulus
    ell = psi.modulus
    lhs = max_partial_sum(chi).max_abs / math.sqrt(q)
    peak, carry, start = 0.0, 0.0, 1
    for block in characters._value_blocks(xi, q):
        running = np.empty(len(block) + 1)
        running[0] = carry
        running[1:] = block
        running[1:] /= np.arange(start, start + len(block), dtype=np.float64)
        running[1 + (-start) % ell :: ell] = 0.0  # n = 0 mod ell
        np.cumsum(running, out=running)
        carry = float(running[-1])
        peak = max(peak, float(running.max()), -float(running.min()))
        start += len(block)
    rhs_main = math.sqrt(ell) / (math.pi * (ell - 1)) * peak
    return LemmaBgAudit(lhs=lhs, rhs_main=rhs_main, gap=lhs - rhs_main)


@pytest.fixture
def xi_blocks(monkeypatch):
    """Counts the blocks of xi values verify_lemma_bg walks; reset by clear()."""
    walked = []
    walk = characters._value_blocks

    def counting(chi, limit):
        for block in walk(chi, limit):
            walked.append(len(block))
            yield block

    monkeypatch.setattr(experiments, "_value_blocks", counting)
    return walked


def character(*factors):
    chi = legendre_character(factors[0])
    for p in factors[1:]:
        chi = product_character(chi, legendre_character(p))
    return chi


def block_sizes(chi):
    """1, 7, p-1, p, p+1 for each factor p, and powers of two.

    Few of them divide q or (q-1)/2, so most walks end on a short block.
    """
    sizes = {1, 7, 16, 1024}
    for p in chi.factors:
        sizes |= {p - 1, p, p + 1}
    return sorted(sizes)


def sample_points(q):
    """Points on both sides of (q-1)/2, at q-1, q, and past the period."""
    h = (q - 1) // 2
    return [
        -1.0, 0.0, 0.5, 1.0, 2.0, h - 1.0, float(h), h + 0.5, h + 1.0, h + 2.0,
        q - 2.0, q - 1.5, q - 1.0, float(q), q + 0.25, q + 1.0, 2.0 * q - 1,
        3.0 * q + h + 1, 10.5 * q,
    ]


# Residue classes 1 and 3 (mod 4), alone and in products: even and odd chi.
CHARACTERS = [
    (3,), (5,), (7,), (13,), (1009,), (1019,),
    (3, 7), (5, 13), (3, 5), (11, 19), (13, 29), (13, 19), (3, 5, 7), (3, 11, 17),
]


@pytest.mark.parametrize("factors", CHARACTERS, ids=str)
def test_max_partial_sum_matches_reference(factors, monkeypatch):
    chi = character(*factors)
    points = sample_points(chi.modulus)
    sampled = reference_walk(chi, points)
    expected = reference_profile(chi)
    assert walk_samples(chi, points) == sampled
    assert max_partial_sum(chi) == expected
    peak = (expected.max_abs, expected.argmax)
    for size in block_sizes(chi):
        monkeypatch.setattr(characters, "_BLOCK", size)
        assert walk_samples(chi, points) == sampled, size
        assert max_partial_sum(chi) == expected, size
        # max_partial_sum walks every modulus; pv-scan's kernel agrees.
        if len(chi.factors) == 1:
            assert list(sums._legendre_peaks(chi.factors)) == [peak], size


def test_parities_are_covered():
    parities = {character(*factors).parity for factors in CHARACTERS}
    assert parities == {"odd", "even"}
    classes = {p % 4 for factors in CHARACTERS for p in factors}
    assert classes == {1, 3}


def test_samples_past_half_period_follow_the_reflection():
    # S(q-1-t) = -chi(-1) S(t) for 0 <= t < q, and S(q-1) = S(q) = 0: the
    # identity behind every scan of t <= (q-1)/2 only. The sign flips for
    # even characters only.
    for factors in ((1019,), (1009,), (3, 7), (3, 5)):
        chi = character(*factors)
        q = chi.modulus
        s = np.zeros(q + 1, dtype=np.int64)  # s[t] = S(t), S(0) = 0
        np.cumsum(bulk_values(chi, q), out=s[1:])
        sign = 1 if chi.parity == "odd" else -1
        assert np.array_equal(s[q - 1 :: -1], sign * s[:q])
        assert s[q - 1] == s[q] == 0


def test_long_composite_walk_matches_reference(monkeypatch):
    # Many blocks of a size that divides neither q nor (q-1)/2.
    chi = character(7, 11, 13, 19)
    q = chi.modulus
    points = sample_points(q)
    expected = reference_walk(chi, points)
    for size in (97, 1 << 9, 4095):
        monkeypatch.setattr(characters, "_BLOCK", size)
        assert walk_samples(chi, points) == expected, size


# (23, 7), (71, 11) and (311, 19) peak past (p-1)/2 and late in the walk;
# (1019, 7) peaks at n = 509 = (p-1)/2. At (3943, 11) with blocks of 7, a
# stop test that took m_xi from the values walked so far, instead of from
# max_partial_sum(xi) before the walk, would end the walk too soon.
PAIRS = [
    (7, 3), (3, 7), (19, 7), (103, 23), (1019, 7), (23, 1019),
    (23, 7), (71, 11), (311, 19), (3943, 11),
]
# The pairs whose walk stops before n = q at some block size of the grid.
STOPS_MID_WALK = {(3, 7), (19, 7), (103, 23), (1019, 7), (23, 1019), (3943, 11)}


def grid_sizes(p, ell):
    """Block sizes for the audit grid; block 1, a Python-level loop per
    value, only for q <= 10^4."""
    sizes = {1, 7, 1 << 6, 1 << 12, p - 1, p, p + 1, ell - 1, ell, ell + 1}
    if p * ell > 10_000:
        sizes.discard(1)
    return sorted(sizes)


@pytest.mark.parametrize("p, ell", PAIRS, ids=str)
def test_lemma_bg_matches_reference_bit_for_bit(p, ell, monkeypatch, xi_blocks):
    xi, psi = legendre_character(p), legendre_character(ell)
    expected = reference_audit(xi, psi)
    assert verify_lemma_bg(xi, psi) == expected
    q = p * ell
    stopped = []
    for size in grid_sizes(p, ell):
        monkeypatch.setattr(characters, "_BLOCK", size)
        xi_blocks.clear()
        assert verify_lemma_bg(xi, psi) == expected, size
        if len(xi_blocks) < math.ceil(q / size):
            stopped.append(size)
    assert bool(stopped) == ((p, ell) in STOPS_MID_WALK), stopped


@pytest.mark.parametrize("factors, ell", [((3, 5), 7), ((7, 13, 17), 11), ((3, 13), 19)], ids=str)
def test_lemma_bg_with_composite_xi_matches_reference(factors, ell, monkeypatch):
    # m_xi comes from n <= (m-1)/2 for xi mod m, m composite here.
    xi, psi = character(*factors), legendre_character(ell)
    expected = reference_audit(xi, psi)
    for size in (7, 1 << 6, xi.modulus, 1 << 20):
        monkeypatch.setattr(characters, "_BLOCK", size)
        assert verify_lemma_bg(xi, psi) == expected, size


def test_lemma_bg_grid_catches_an_unsound_tail_bound(monkeypatch):
    # With no tail bound the walk stops as soon as its current value is
    # below the peak so far, and misses the late peaks.
    expected = {
        (p, ell): reference_audit(legendre_character(p), legendre_character(ell))
        for p, ell in PAIRS
    }
    monkeypatch.setattr(experiments, "_log_sum_tail_bound", lambda m_xi, n, q: 0.0)
    differing = []
    for p, ell in PAIRS:
        for size in grid_sizes(p, ell):
            monkeypatch.setattr(characters, "_BLOCK", size)
            audit = verify_lemma_bg(legendre_character(p), legendre_character(ell))
            if audit.rhs_main != expected[p, ell].rhs_main:
                differing.append((p, ell, size))
    assert differing


@pytest.mark.parametrize("p, ell", [(1019, 7), (23, 7), (71, 11), (311, 19), (3, 7)], ids=str)
def test_log_sum_tail_bound_covers_every_later_float_value(p, ell):
    # max over t > N of |fl R(t) - fl R(N)|, from the whole-array float
    # cumsum, against the bound at every N < q; m_xi from the whole period.
    xi = legendre_character(p)
    q = p * ell
    terms = reference_values(xi, q).astype(np.float64)
    terms /= np.arange(1, q + 1, dtype=np.float64)
    terms[ell - 1 :: ell] = 0.0
    running = np.cumsum(terms)
    above = np.maximum.accumulate(running[::-1])[::-1]
    below = np.minimum.accumulate(running[::-1])[::-1]
    m_xi = int(np.abs(np.cumsum(reference_values(xi, p), dtype=np.int64)).max())
    for n in range(1, q):
        drift = max(above[n] - running[n - 1], running[n - 1] - below[n])
        assert drift <= experiments._log_sum_tail_bound(m_xi, n, q), n


# The benchmark's paste instances, and a pair whose q = 1,100,373 exceeds one
# block of 2^20 (the walk stops after the first) and whose peak comes past
# n = 1.
LARGE_PAIRS = [(1607563, 19), (1361827, 23), (1615843, 19), (1630243, 19), (366791, 3)]


@pytest.mark.parametrize("p, ell", LARGE_PAIRS, ids=str)
def test_lemma_bg_matches_unpruned_walk_at_large_q(p, ell):
    xi, psi = legendre_character(p), legendre_character(ell)
    assert verify_lemma_bg(xi, psi) == unpruned_audit(xi, psi)


def test_lemma_bg_stops_after_one_block_at_a_paste_modulus(xi_blocks):
    q = 1615843 * 19
    assert math.ceil(q / characters._BLOCK) == 30
    verify_lemma_bg(legendre_character(1615843), legendre_character(19))
    assert xi_blocks == [characters._BLOCK]


def test_burgess_scan_matches_reference_route(monkeypatch):
    thetas = [0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 0.99, 1.0]
    for p in (19, 103, 1019):
        cs = np.cumsum(reference_values(legendre_character(p), p), dtype=np.int64)
        expected = [int(cs[math.floor(p**theta) - 1]) for theta in thetas]
        for size in (1, 7, p - 1, p, p + 1, 1 << 10):
            monkeypatch.setattr(characters, "_BLOCK", size)
            assert [pt.s for pt in burgess_scan(p, thetas)] == expected, (p, size)


def _audit_peak(p, ell):
    tracemalloc.start()
    try:
        verify_lemma_bg(legendre_character(p), legendre_character(ell))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_audit_memory_does_not_grow_with_q(monkeypatch):
    # With a fixed block, the audit holds O(block + p + ell) values: a tenfold
    # larger q must not raise its peak allocation. The whole-period route
    # held several length-q arrays, 8 MB each at q = 10^6.
    monkeypatch.setattr(characters, "_BLOCK", 1 << 12)
    small = _audit_peak(331, 311)  # q = 102,941
    large = _audit_peak(1019, 983)  # q = 1,001,677
    assert large < 1.25 * small + 16_384, (small, large)


def test_burgess_walk_stops_below_p(monkeypatch):
    # theta = 1 needs S(p) = 0; the walk reads it at p - 1 and never builds
    # a value past that.
    limits = []
    walk = characters._value_blocks

    def recording(chi, limit):
        limits.append(limit)
        return walk(chi, limit)

    monkeypatch.setattr("charscan.sums._value_blocks", recording)
    (point,) = burgess_scan(103, [1.0])
    assert point.s == 0 == partial_sum(legendre_character(103), 103)
    assert limits == [102]
    limits.clear()
    burgess_scan(1019, [0.25, 0.5])
    assert limits == [math.floor(1019**0.5)]


# Chunk widths for the two-pass walk; each is crossed with two block sizes
# it does not divide (but for 1) and the default 2^20, so most blocks end in
# a partial chunk. The sizes hold at least chunk**2 values, so a block has
# many chunks to choose among, and the characters below are long enough for
# chunks of 64.
CHUNKS = [1, 2, 3, 7, 64]
LONG_CHARACTERS = [(7, 11, 13, 19), (19, 1019)]


def chunk_block_sizes(chunk):
    square = chunk * chunk
    return sorted({square + 1, 3 * square + chunk - 1, 1 << 20})


def edge_points(limit, block, chunk):
    """Each chunk edge of each block of a walk to limit, and one either side."""
    points = set()
    for start in range(1, limit + 1, block):
        for edge in range(start - 1, min(start - 1 + block, limit) + 1, chunk):
            points |= {edge - 1, edge, edge + 1}
    return sorted(t for t in points if 0 <= t <= limit)


@pytest.fixture
def coarse_passes(monkeypatch):
    """The chunk counts of the kernel calls from sums._walk with whole chunks.

    A block's last partial chunk is a call of one chunk, so a call of more
    than one chunk is a block's run of whole chunks, bounded chunk by chunk.
    """
    bounded = []
    segment_peaks = sums._segment_peaks

    def counting(body, lengths, carries, floor):
        if sys._getframe(1).f_code.co_name == "_walk" and len(body) > 1:
            bounded.append(len(body))
        return segment_peaks(body, lengths, carries, floor)

    monkeypatch.setattr(sums, "_segment_peaks", counting)
    return bounded


@pytest.mark.parametrize("chunk", CHUNKS)
def test_chunked_walk_matches_reference(chunk, monkeypatch, coarse_passes):
    monkeypatch.setattr(sums, "_CHUNK", chunk)
    for factors in CHARACTERS + LONG_CHARACTERS:
        chi = character(*factors)
        q = chi.modulus
        for size in chunk_block_sizes(chunk):
            monkeypatch.setattr(characters, "_BLOCK", size)
            points = sample_points(q) + edge_points((q - 1) // 2, size, chunk)
            expected = reference_walk(chi, points)
            assert walk_samples(chi, points) == expected, (factors, size)
    assert coarse_passes


@pytest.mark.parametrize("chunk", CHUNKS)
def test_chunked_burgess_scan_matches_reference(chunk, monkeypatch, coarse_passes):
    # The primes 3 mod 4 of the grid, and 8191 for chunks of 64.
    thetas = [0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 0.99, 1.0]
    monkeypatch.setattr(sums, "_CHUNK", chunk)
    for p in (3, 7, 11, 19, 1019, 8191):
        cs = np.cumsum(reference_values(legendre_character(p), p), dtype=np.int64)
        expected = [int(cs[math.floor(p**theta) - 1]) for theta in thetas]
        for size in chunk_block_sizes(chunk):
            monkeypatch.setattr(characters, "_BLOCK", size)
            assert [pt.s for pt in burgess_scan(p, thetas)] == expected, (p, size)
    assert coarse_passes


@pytest.mark.parametrize("p", [127, 241])
def test_ties_keep_the_first_maximizer(p, monkeypatch, coarse_passes):
    # |S| reaches its peak 5 times for p = 127 and 7 times for p = 241.
    chi = legendre_character(p)
    expected = reference_profile(chi)
    magnitudes = np.abs(np.cumsum(reference_values(chi, (p - 1) // 2)))
    assert np.count_nonzero(magnitudes == expected.max_abs) >= 5
    peak = (expected.max_abs, expected.argmax)
    assert next(sums._legendre_peaks([p])) == peak
    assert list(sums._legendre_peaks([3, p, 5])) == [(1, 1), peak, (1, 1)]
    for chunk in (1, 2):
        monkeypatch.setattr(sums, "_CHUNK", chunk)
        for size in [*range(1, 64), 1 << 20]:
            monkeypatch.setattr(characters, "_BLOCK", size)
            assert max_partial_sum(chi) == expected, (chunk, size)
            assert sums._walk(chi, (p - 1) // 2)[:2] == peak, (chunk, size)
    assert coarse_passes


def test_grid_catches_a_chunk_bound_without_the_chunk_width(monkeypatch):
    # Without + _CHUNK the bound can fall below a peak inside the chunk, and
    # the chunk holding it is never summed out.
    expected = {
        factors: reference_profile(character(*factors))
        for factors in CHARACTERS + LONG_CHARACTERS
    }

    def without_width(begins, ends, width):
        return (begins + ends) // 2

    monkeypatch.setattr(sums, "_chunk_bounds", without_width)
    differing = []
    for chunk in CHUNKS:
        monkeypatch.setattr(sums, "_CHUNK", chunk)
        for factors, profile in expected.items():
            half = (profile.modulus - 1) // 2
            for size in chunk_block_sizes(chunk):
                monkeypatch.setattr(characters, "_BLOCK", size)
                walked = sums._walk(character(*factors), half)[:2]
                if walked != (profile.max_abs, profile.argmax):
                    differing.append((chunk, factors, size))
    assert differing


@pytest.mark.parametrize("width", [3, 7, 256])
def test_last_partial_chunk_matches_reference(width, monkeypatch):
    # q = 19 * 1019 peaks at n = 4840 < (q-1)/2 = 9680. Walks to either end
    # in blocks of 1001 or 4001 values end on a last block that is not a
    # whole number of chunks, and a walk to 4840 peaks at its last value.
    chi = character(19, 1019)
    cs = np.cumsum(reference_values(chi, chi.modulus), dtype=np.int64)
    monkeypatch.setattr(sums, "_CHUNK", width)
    peak_in_tail = False
    for limit in (4840, (chi.modulus - 1) // 2):
        magnitudes = np.abs(cs[:limit])
        best = int(np.argmax(magnitudes))
        for size in (1001, 4001):
            monkeypatch.setattr(characters, "_BLOCK", size)
            points = edge_points(limit, size, width)
            found = [int(cs[t - 1]) if t else 0 for t in points]
            expected = (int(magnitudes[best]), best + 1, found)
            assert sums._walk(chi, limit, points) == expected, (limit, size)
            assert limit % size % width
            peak_in_tail |= best + 1 == limit
    assert peak_in_tail


def test_floor_prunes_a_block_below_the_peak(monkeypatch):
    # p = 99991 peaks at 410 (n = 33330). In blocks of 4096 values some
    # blocks keep every chunk bound below the peak so far, so the kernel
    # sums out none of their chunks and reports a peak of -1 for them.
    monkeypatch.setattr(characters, "_BLOCK", 4096)
    width = sums._CHUNK
    calls = []
    segment_peaks = sums._segment_peaks

    def recording(body, lengths, carries, floor):
        peaks = segment_peaks(body, lengths, carries, floor)
        calls.append((body.copy(), carries[0], floor, peaks[0][0]))
        return peaks

    monkeypatch.setattr(sums, "_segment_peaks", recording)
    assert sums._walk(legendre_character(99991), 49995)[:2] == reference_peak(99991)
    admitted = []
    for body, carry, floor, peak in calls:
        edges = [abs(int(s)) for s in np.cumsum([carry, *body.sum(axis=1).tolist()])]
        level = max(floor, *edges[1:])
        rows = sum((b + e + width) // 2 >= level for b, e in zip(edges, edges[1:]))
        assert (rows == 0) == (peak == -1), (floor, peak)
        admitted.append(rows)
    assert 0 in admitted and max(admitted) > 0, admitted


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("top", [2**30, 2**31], ids=["2^30", "2^31"])
def test_kernel_sums_past_int32_from_a_large_carry(top, sign):
    # Segments from carries within 100 of 2^31 cross it, so the kernel must
    # run its sums in int64. A chunk bound adds two edges, so carries near
    # 2^30 need int64 too. The second segment ends in zero padding. The
    # reference walks each segment in Python integers.
    width, lengths = 7, [3, 2, 4]
    rng = np.random.default_rng(22)
    body = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(9, width))
    body[:3] = sign  # the first segment climbs by 21 from top - 10
    body[4, 5:] = 0  # padding ends the second segment
    carries = [sign * (top - 10), -sign * (top - 99), sign * (top - 1)]
    expected = ([], [], [])
    rows = np.cumsum([0, *lengths])
    for k, carry in enumerate(carries):
        s, peak, first = carry, -1, 0
        for i, v in enumerate(body[rows[k] : rows[k + 1]].ravel().tolist(), 1):
            s += v
            if abs(s) > peak:
                peak, first = abs(s), i
        for column, value in zip(expected, (peak, first, s)):
            column.append(value)
    assert expected[0][0] == top + 11
    assert sums._segment_peaks(body, lengths, carries, 0) == expected


@pytest.mark.parametrize("p, ell", PAIRS, ids=str)
def test_lemma_bg_with_small_chunks_matches_reference(p, ell, monkeypatch):
    # The lhs walk and m_xi both go through the chunked kernel.
    xi, psi = legendre_character(p), legendre_character(ell)
    expected = reference_audit(xi, psi)
    for chunk in CHUNKS:
        monkeypatch.setattr(sums, "_CHUNK", chunk)
        for size in (chunk * chunk + 1, 1 << 20):
            monkeypatch.setattr(characters, "_BLOCK", size)
            assert verify_lemma_bg(xi, psi) == expected, (chunk, size)


def slice_sizes(ell):
    """Slices of the audit's log-sum: 1, 2, 3, 7, ell-1, ell, ell+1 and 64 terms."""
    return sorted({1, 2, 3, 7, ell - 1, ell, ell + 1, 64})


@pytest.mark.parametrize("p, ell", PAIRS, ids=str)
def test_lemma_bg_divides_in_slices_bit_for_bit(p, ell, monkeypatch):
    # Each block's log-sum runs in slices of sums._SUM_BLOCK terms, each from
    # the carry at position 0. The grid puts slice edges on multiples of ell
    # and on the edges of blocks of every grid size.
    xi, psi = legendre_character(p), legendre_character(ell)
    expected = reference_audit(xi, psi)
    for piece in slice_sizes(ell):
        monkeypatch.setattr(sums, "_SUM_BLOCK", piece)
        for size in sorted({*grid_sizes(p, ell), 100, 1 << 20}):
            monkeypatch.setattr(characters, "_BLOCK", size)
            assert verify_lemma_bg(xi, psi) == expected, (piece, size)


def test_audit_memory_is_its_tables_and_a_few_slices():
    # The table mod p (1.6 MB), the tile of the table mod 19 and one block of
    # values (1 MB each), and float64 slices of 2^16 + 1 values. The former
    # layout, a float64 block of 2^20 + 1 values and xi's table tiled to
    # 2^20 + p values, peaked at 13.1 MiB.
    p = 1615843
    assert p > characters._BLOCK
    peak = _audit_peak(p, 19)
    assert peak < p + 5 * 2**20, peak


# Factors at or above the block length are read from their table mod p, and
# a block that crosses a multiple of p joins its tail to its head. (3, 1019),
# (5, 13) and (7, 11, 13) mix such a factor with a tiled one below the block.
WRAP_CHARACTERS = [(11,), (13,), (1019,), (3, 1019), (5, 13), (7, 11, 13)]


def wrap_block_sizes(chi):
    """7, 8, p-1 and p for each factor p of at least 11."""
    return sorted({s for p in chi.factors if p >= 11 for s in (7, 8, p - 1, p)})


@pytest.mark.parametrize("factors", WRAP_CHARACTERS, ids=str)
def test_blocks_across_a_multiple_of_p_match_reference(factors, monkeypatch):
    chi = character(*factors)
    limit = 2 * chi.modulus + 5  # past q, so every factor wraps again
    values = reference_values(chi, limit)
    cs = np.cumsum(values, dtype=np.int64)
    magnitudes = np.abs(cs)
    best = int(np.argmax(magnitudes))
    points = list(range(limit + 1))
    expected = (int(magnitudes[best]), best + 1, [0, *cs.tolist()])
    for size in wrap_block_sizes(chi):
        monkeypatch.setattr(characters, "_BLOCK", size)
        assert max(chi.factors) >= size
        assert bulk_values(chi, limit).tobytes() == values.tobytes(), size
        assert sums._walk(chi, limit, points) == expected, size


@pytest.mark.parametrize("p, ell", LARGE_PAIRS[:4], ids=str)
def test_paste_peaks_match_whole_array_cumsum(p, ell):
    # S over t <= (q-1)/2 in one int32 cumsum, about 75 MB at q = 3.1*10^7.
    chi = product_character(legendre_character(p), legendre_character(ell))
    q = chi.modulus
    magnitudes = np.abs(np.cumsum(bulk_values(chi, (q - 1) // 2), dtype=np.int32))
    first = int(np.argmax(magnitudes))
    expected = SumProfile(modulus=q, max_abs=int(magnitudes[first]), argmax=first + 1)
    assert max_partial_sum(chi) == expected


# The shared-buffer Legendre kernel of pv-scan and of max_partial_sum at a
# prime modulus. One call walks every prime through the same buffers, so a
# value left over from an earlier prime would show as a wrong peak.
ODD_PRIMES = [int(p) for p in sieve_primes(3000)[1:]]
ODD_PRIMES_BELOW_1E5 = [int(p) for p in sieve_primes(10**5)[1:]]
# (p-1)/2 = 65535 is the last half whose squares fit in uint32; 131101 is the
# next prime, so its squares come from the intp copy.
PAST_THE_SWITCH = [131071, 131101]


@pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
def test_legendre_peaks_match_reference(order):
    primes = ODD_PRIMES[::order]
    assert {p % 4 for p in primes} == {1, 3}
    expected = [reference_profile(legendre_character(p)) for p in primes]
    got = [
        SumProfile(modulus=p, max_abs=peak, argmax=first)
        for p, (peak, first) in zip(primes, sums._legendre_peaks(primes))
    ]
    assert got == expected


def test_legendre_peaks_across_the_uint32_switch():
    expected = [reference_profile(legendre_character(p)) for p in PAST_THE_SWITCH]
    # The walk's table reduces its squares in slices, the intp ones in place.
    for p in PAST_THE_SWITCH:
        table = characters._legendre_value_table(p)
        assert table.tolist() == [kronecker(a, p) for a in range(p)]
    for primes in (PAST_THE_SWITCH, PAST_THE_SWITCH[::-1], [3, *PAST_THE_SWITCH]):
        got = dict(zip(primes, sums._legendre_peaks(primes)))
        assert [got[p] for p in PAST_THE_SWITCH] == [
            (e.max_abs, e.argmax) for e in expected
        ]


@pytest.mark.parametrize("half", [characters._U32_ROOT, characters._U32_ROOT + 1])
def test_square_residues_at_the_uint32_switch(half):
    # Any odd modulus m = 2 half + 1 (131073 = 3 * 43691 is composite): the
    # residue routine must be exact for every k <= half on both dtypes.
    squares = characters._squares(half)
    assert squares.dtype == (np.uint32 if half * half < 2**32 else np.intp)
    m = 2 * half + 1
    out = np.empty(half, dtype=np.intp)
    characters._square_residues(squares, m, np.empty_like(squares), out)
    k = np.arange(1, half + 1, dtype=object)
    assert out.tolist() == (k * k % m).tolist()


def whole_squares_table(p):
    """(a/p) for 0 <= a < p by the former route: all (p-1)/2 squares at once,
    reduced by %, scattered in one go."""
    k = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    table = np.full(p, -1, dtype=np.int8)
    table[0] = 0
    table[k * k % p] = 1
    return table


# Either side of 2*10^6, where the table is built in about 61 slices.
NEAR_2E6 = [1999957, 1999969, 1999979, 1999993, 2000003, 2000029, 2000039]


def test_sliced_tables_match_the_whole_squares_route():
    for p in ODD_PRIMES_BELOW_1E5 + NEAR_2E6:
        got = characters._legendre_value_table(p)
        assert got.dtype == np.int8
        assert got.tobytes() == whole_squares_table(p).tobytes(), p


@pytest.mark.parametrize("p", [131071, 131101, 2000003])
def test_table_build_holds_the_table_and_a_few_slices(p):
    # uint32 and intp squares; all (p-1)/2 of them at once would be 2p or
    # 4p bytes more.
    tracemalloc.start()
    try:
        characters._legendre_value_table(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p + 4 * 8 * characters._RESIDUE_SLICE


# The batches of _legendre_peaks: one chunk, two chunks, 1000 values (not a
# whole number of chunks for widths above 1) and the default, crossed with
# chunk widths that divide few halves. At the small sizes nearly every
# segment sits alone in its batch or at a batch's edge.
BATCH_CHUNKS = [1, 2, 3, 7, 64]
DEFAULT_BATCH = sums._BATCH
# Under _BLOCK = 505, 1013 and 1019 are walked between batches.
BATCH_LISTS = {
    "ascending": ODD_PRIMES,
    "descending": ODD_PRIMES[::-1],
    "ties": [3, 127, 5, 241, 7],
    "walked": [3, 1009, 1013, 5, 7, 1019, 11, 1009],
}


def batch_sizes(width):
    return [width, 2 * width, 1000, DEFAULT_BATCH]


@functools.cache
def reference_peak(p):
    profile = reference_profile(legendre_character(p))
    return profile.max_abs, profile.argmax


@pytest.mark.parametrize("width", BATCH_CHUNKS)
def test_batch_grid_matches_reference(width, monkeypatch, walked):
    monkeypatch.setattr(sums, "_BATCH_CHUNK", width)
    for size in batch_sizes(width):
        monkeypatch.setattr(sums, "_BATCH", size)
        for name, primes in BATCH_LISTS.items():
            with monkeypatch.context() as patch:
                if name == "walked":
                    patch.setattr(characters, "_BLOCK", 505)
                got = list(sums._legendre_peaks(primes))
            assert got == [reference_peak(p) for p in primes], (size, name)
    assert walked == [1013, 1019] * len(batch_sizes(width))


@pytest.mark.parametrize(
    "size", [DEFAULT_BATCH, sums._BATCH_CHUNK], ids=["default", "one-chunk"]
)
def test_segment_ends_are_class_number_multiples(size, monkeypatch):
    # Dirichlet: for p = 3 (mod 4), p > 3, S((p-1)/2) = (2 - (2/p)) h(-p).
    # Each segment's sums end there, whatever its padding and its batch.
    primes = [int(p) for p in sieve_primes(100_000) if p > 3 and p % 4 == 3]
    h = class_numbers(100_000)
    ends = []
    segment_peaks = sums._segment_peaks

    def recording(body, lengths, carries, floor):
        peaks = segment_peaks(body, lengths, carries, floor)
        ends.extend(peaks[2])
        return peaks

    monkeypatch.setattr(sums, "_segment_peaks", recording)
    monkeypatch.setattr(sums, "_BATCH", size)
    assert len(list(sums._legendre_peaks(primes))) == len(ends) == 4807
    assert ends == [(2 - kronecker(2, p)) * int(h[p]) for p in primes]


def test_batch_memory_is_flat_in_the_number_of_primes():
    # One call holds the batch, its per-chunk arrays and the buffers sized
    # to the largest half, whatever the number of primes.
    primes = [int(p) for p in sieve_primes(100_000)[-5000:]]
    bound = 4 * (sums._BATCH + (primes[-1] - 1) // 2)
    peaks = {}
    for count in (1000, 5000):
        tracemalloc.start()
        try:
            for _ in sums._legendre_peaks(primes[-count:]):
                pass
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[5000] < bound, peaks
    assert peaks[5000] < 1.25 * peaks[1000], peaks


@pytest.mark.parametrize(
    "primes",
    [[], [1019, 1031, 2003], [3, 5, 1019, 7]],
    ids=["no-primes", "all-walked", "few-batched"],
)
def test_batch_buffer_is_sized_to_its_primes(primes, monkeypatch):
    # With _BLOCK = 100, 1019, 1031 and 2003 go to _walk, which holds a few
    # blocks of 100 values; 3, 5 and 7 batch one chunk of 64 values each. A
    # buffer of _BATCH values would be 2^20 bytes.
    monkeypatch.setattr(characters, "_BLOCK", 100)
    tracemalloc.start()
    try:
        got = list(sums._legendre_peaks(primes))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [reference_peak(p) for p in primes]
    assert peak < 64 * 1024, peak


@pytest.fixture
def walked(monkeypatch):
    """The moduli sums._walk is called with, from sums or from experiments."""
    moduli = []
    walk = sums._walk

    def counting(chi, limit, points=()):
        moduli.append(chi.modulus)
        return walk(chi, limit, points)

    monkeypatch.setattr(sums, "_walk", counting)
    monkeypatch.setattr(experiments, "_walk", counting)
    return moduli


def test_kernel_selection_follows_the_block(monkeypatch, walked):
    # With _BLOCK = 505, pv-scan puts (1009-1)/2 = 504 in its shared buffers
    # and hands (1013-1)/2 = 506 to _walk; max_partial_sum walks every
    # modulus. Both give the reference peak.
    monkeypatch.setattr(characters, "_BLOCK", 505)
    for p in (1009, 1019):
        assert max_partial_sum(legendre_character(p)) == reference_profile(
            legendre_character(p)
        )
    assert walked == [1009, 1019]
    walked.clear()
    primes = [3, 1009, 1013, 1019, 5]
    records = cli._scan_records(primes, sums._legendre_peaks(primes))
    assert walked == [1013, 1019]
    assert [r["conductor"] for r in records] == primes
    for record in records:
        expected = reference_profile(legendre_character(record["conductor"]))
        assert (record["max_abs"], record["argmax"]) == (
            expected.max_abs,
            expected.argmax,
        )
    assert list(sums._legendre_peaks([])) == []


def test_sample_points_and_composites_stay_on_the_walk(walked):
    burgess_scan(1019, [0.5])
    max_partial_sum(character(3, 7))
    max_partial_sum(legendre_character(1019))
    assert walked == [1019, 21, 1019]


def test_max_partial_sum_at_a_small_prime_holds_no_batch():
    # One prime walks its (p-1)/2 values. pv-scan's batch buffer of 2^20
    # values, about 1 MB, serves many primes at once and is not built here.
    chi = legendre_character(1019)
    tracemalloc.start()
    try:
        profile = max_partial_sum(chi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert profile == reference_profile(chi)


def test_pv_scan_workers_agree_with_serial(tmp_path, capsys):
    # The primes 3 (mod 4) in [2000, 6010] are odd in number, so 2 workers
    # get interleaved slices of unequal length.
    rows = {}
    for workers in ("1", "2"):
        cache = tmp_path / f"cache{workers}.jsonl"
        argv = ["pv-scan", "2000", "6010", "--out", str(cache), "--workers", workers]
        assert cli.main(argv) == 0
        rows[workers] = [
            {k: v for k, v in row.items() if k != "timestamp"}
            for row in json.loads(capsys.readouterr().out)
        ]
    conductors = [int(p) for p in sieve_primes(6010) if p >= 2000 and p % 4 == 3]
    assert [row["conductor"] for row in rows["1"]] == conductors
    assert len(conductors) % 2 == 1
    assert rows["2"] == rows["1"]
    for row in rows["1"][::40]:
        expected = reference_profile(legendre_character(row["conductor"]))
        assert (row["max_abs"], row["argmax"]) == (expected.max_abs, expected.argmax)
