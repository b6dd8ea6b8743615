"""The streaming character kernel against the whole-period reference route.

max_partial_sum scans only t <= (q-1)/2, and verify_lemma_bg and burgess_scan
walk the values in blocks of characters._BLOCK. The references below are the
whole-array routes they replaced: one value table for all n <= q, one
np.cumsum over it. Their values come from kronecker, not from square
marking, so the two routes share no arithmetic. Every comparison is exact,
floats included: the blocked log-sum adds its terms in the same order.
"""

import math
import tracemalloc

import numpy as np
import pytest

from charscan import characters
from charscan.arith import kronecker
from charscan.characters import legendre_character, product_character
from charscan.experiments import LemmaBgAudit, burgess_scan, verify_lemma_bg
from charscan.sums import SumProfile, max_partial_sum, partial_sum


def reference_values(chi, limit):
    """chi(n) for 1 <= n <= limit: per factor a kronecker table, rolled and tiled."""
    out = np.ones(limit, dtype=np.int8)
    for p in chi.factors:
        table = np.array([kronecker(a, p) for a in range(p)], dtype=np.int8)
        out *= np.resize(np.roll(table, -1), limit)
    return out


def reference_profile(chi, sample_at=None):
    """The whole-period max_partial_sum: one cumulative sum over t = 1..q."""
    q = chi.modulus
    cs = np.cumsum(reference_values(chi, q), dtype=np.int64)
    magnitudes = np.abs(cs)
    best = int(np.argmax(magnitudes))
    samples = None
    if sample_at is not None:
        collected = []
        for t in sample_at:
            m = math.floor(t)
            if m >= q:
                m %= q
            collected.append((float(t), int(cs[m - 1]) if m >= 1 else 0))
        samples = tuple(collected)
    return SumProfile(
        modulus=q, max_abs=int(magnitudes[best]), argmax=best + 1, samples=samples
    )


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
    expected = reference_profile(chi, sample_at=points)
    assert max_partial_sum(chi, sample_at=points) == expected
    for size in block_sizes(chi):
        monkeypatch.setattr(characters, "_BLOCK", size)
        assert max_partial_sum(chi, sample_at=points) == expected, size
        assert max_partial_sum(chi) == reference_profile(chi), size


def test_parities_are_covered():
    parities = {character(*factors).parity for factors in CHARACTERS}
    assert parities == {"odd", "even"}
    classes = {p % 4 for factors in CHARACTERS for p in factors}
    assert classes == {1, 3}


def test_samples_past_half_period_follow_the_reflection():
    # S(q-1-t) = -chi(-1) S(t): the sign flips for even characters only.
    for factors in ((1019,), (1009,), (3, 7), (3, 5)):
        chi = character(*factors)
        q = chi.modulus
        ts = list(range(q + 1))
        samples = dict(max_partial_sum(chi, sample_at=ts).samples)
        sign = 1 if chi.parity == "odd" else -1
        for t in ts[:q]:
            assert samples[q - 1 - t] == sign * samples[t]
        assert samples[q - 1] == samples[q] == 0


def test_long_composite_walk_matches_reference(monkeypatch):
    # Many blocks of a size that divides neither q nor (q-1)/2.
    chi = character(7, 11, 13, 19)
    q = chi.modulus
    points = sample_points(q)
    expected = reference_profile(chi, sample_at=points)
    for size in (97, 1 << 9, 4095):
        monkeypatch.setattr(characters, "_BLOCK", size)
        assert max_partial_sum(chi, sample_at=points) == expected, size


PAIRS = [(7, 3), (3, 7), (19, 7), (103, 23), (1019, 7), (23, 1019)]


@pytest.mark.parametrize("p, ell", PAIRS, ids=str)
def test_lemma_bg_matches_reference_bit_for_bit(p, ell, monkeypatch):
    xi, psi = legendre_character(p), legendre_character(ell)
    expected = reference_audit(xi, psi)
    assert verify_lemma_bg(xi, psi) == expected
    q = p * ell
    for size in sorted({1, 7, 1 << 6, 1 << 12, p - 1, p, p + 1, ell - 1, ell, ell + 1}):
        if size == 1 and q > 10_000:
            continue  # a Python-level loop per value; block 1 is covered above
        monkeypatch.setattr(characters, "_BLOCK", size)
        assert verify_lemma_bg(xi, psi) == expected, size


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
