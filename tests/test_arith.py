import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charscan import arith
from charscan.arith import (
    SearchExhaustedError,
    _apply_plan,
    _expand,
    _expansion_plan,
    build_spf,
    is_prime,
    kronecker,
    liouville,
    sieve_primes,
    smallest_prime_above,
)


# Oracles: trial division only, no shared code with the library.

def trial_primes(limit):
    return [
        n
        for n in range(2, limit + 1)
        if all(n % d for d in range(2, math.isqrt(n) + 1))
    ]


def trial_spf(n):
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return d
    return n


def trial_omega(n):
    count, d = 0, 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count + (n > 1)


def square_residues(p):
    return {k * k % p for k in range(1, p)}


def rounds_expand(prime_vals, table, limit):
    """Reference expansion: v[n] = f(spf[n]) * v[n // spf[n]] in whole-array
    rounds; round r settles every n with at most r prime factors."""
    spf = table.spf[: limit + 1].astype(np.int64)
    spf[0] = 1
    n = np.arange(limit + 1, dtype=np.int64)
    cof = n // spf
    cof[1] = 1
    base = prime_vals[spf]
    v = np.ones(limit + 1, dtype=prime_vals.dtype)
    for _ in range(max(limit.bit_length() - 1, 1)):
        v = base * v[cof]
    v[0] = 0
    return v


# The former rank route, kept as a reference: values aligned with the primes,
# located through a length limit + 1 rank array, expanded into an output where
# out[i] = f(i + 1).

def rank_plan(table, limit, primes):
    """Blocks of (position of spf(n) among primes, n // spf(n) - 1)."""
    assert table.limit >= limit
    rank = np.empty(limit + 1, dtype=np.uint32)  # read only at primes
    rank[primes] = np.arange(len(primes), dtype=np.uint32)
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, lo + arith._PLAN_BLOCK, limit + 1)
        s = table.spf[lo:hi]
        cofactor = np.arange(lo, hi, dtype=np.uint32)
        np.floor_divide(cofactor, s, out=cofactor)
        cofactor -= 1
        yield rank[s], cofactor
        lo = hi


def rank_apply(plan, short, out):
    """out[i] = f(i + 1) from short, f's values aligned with the primes."""
    out[0] = 1
    lo = 1
    for index, cofactor in plan:
        block = out[lo : lo + len(index)]
        np.take(short, index, out=block)
        block *= out[cofactor]
        lo += len(index)
    return out


def rank_expand(prime_vals, table, limit):
    """f(1..limit) by the rank route, from prime_vals indexed by n."""
    primes = sieve_primes(limit)
    out = np.empty(limit, dtype=prime_vals.dtype)
    return rank_apply(rank_plan(table, limit, primes), prime_vals[primes], out)


class TestSievePrimes:
    def test_examples(self):
        assert list(sieve_primes(10)) == [2, 3, 5, 7]
        assert list(sieve_primes(1)) == []
        assert list(sieve_primes(0)) == []
        assert list(sieve_primes(2)) == [2]
        for limit in (0, 1, 2, 10):
            assert sieve_primes(limit).dtype == np.int64

    def test_against_trial_division(self):
        primes = sieve_primes(10**4)
        assert primes.dtype == np.int64
        assert primes.tolist() == trial_primes(10**4)
        assert len(primes) == 1229

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sieve_primes(-1)


class TestBuildSpf:
    def test_examples(self):
        t = build_spf(100)
        assert t.spf[9] == 3
        assert t.spf[7] == 7
        assert t.spf[91] == 7

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_spf(1)

    def test_matches_trial_division(self):
        t = build_spf(3000)
        for n in range(2, 3001):
            assert t.spf[n] == trial_spf(n)

    def test_prime_fixed_points_match_sieve(self):
        limit = 5000
        t = build_spf(limit)
        n = np.arange(limit + 1)
        fixed = np.flatnonzero(t.spf == n)
        fixed = fixed[fixed >= 2]
        assert list(fixed) == list(sieve_primes(limit))

    def test_small_factor_or_prime(self):
        t = build_spf(2000)
        for n in range(2, 2001):
            s = int(t.spf[n])
            assert n % s == 0
            assert s * s <= n or s == n

    def test_read_only(self):
        t = build_spf(10)
        with pytest.raises(ValueError):
            t.spf[3] = 9


class TestKronecker:
    def test_examples(self):
        assert kronecker(0, 3) == 0
        assert kronecker(4, 7) == 1
        assert kronecker(3, 7) == -1

    def test_unit_lower_argument(self):
        assert kronecker(5, 1) == 1
        assert kronecker(0, 1) == 1

    def test_invalid_lower_argument(self):
        for n in (0, -3, 2, 10):
            with pytest.raises(ValueError):
                kronecker(1, n)

    def test_euler_criterion_small_primes(self):
        for p in trial_primes(300):
            if p == 2:
                continue
            residues = square_residues(p)
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in residues else -1)
                assert kronecker(a, p) == expected

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(0, 10**4))
    def test_multiplicative_in_top(self, a, b, k):
        n = 2 * k + 1
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)

    @given(st.integers(-10**9, 10**9), st.integers(0, 10**4))
    def test_periodic_in_top(self, a, k):
        n = 2 * k + 1
        assert kronecker(a, n) == kronecker(a % n, n)


class TestLiouville:
    def test_examples(self):
        lam = liouville(12)
        assert lam[0] == 1
        assert lam[1] == -1
        assert lam[3] == 1
        assert lam[11] == -1

    def test_limit_one(self):
        assert list(liouville(1)) == [1]

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            liouville(0)

    def test_against_omega_oracle(self):
        lam = liouville(2000)
        for n in range(1, 2001):
            assert lam[n - 1] == (-1) ** trial_omega(n)

    def test_completely_multiplicative(self):
        limit = 400
        lam = liouville(limit)
        for m in range(1, limit + 1):
            for n in range(1, limit // m + 1):
                assert lam[m * n - 1] == lam[m - 1] * lam[n - 1]


EXPANSION_LIMITS = sorted(
    {2, 3, 10**5}
    | {2**k + d for k in (2, 3, 4, 7, 12, 16) for d in (-1, 0, 1)}
)

# The odd blocks of the plan start at o = 3, 9, 27, ..., 3^11 = 177147 and
# then every 2^17 integers (2^16 odd values), so 308219 next; limits at each
# edge, and one odd value either side.
ODD_EDGE_LIMITS = sorted(
    {3**k + d for k in (2, 3, 4, 10, 11) for d in (-2, -1, 0, 1, 2)}
    | {177147 + 2**17 + d for d in (-2, -1, 0, 1, 2)}
)

# p*p - 2, ..., p*p + 2 for odd primes p next to the square roots of the
# block edges 3^10 = 59049 (243), 3^11 = 177147 (420.9) and 308219 (555.2):
# the last block ends just before, at or just after the first odd multiple
# that p marks.
SQUARE_EDGE_LIMITS = [
    p * p + d for p in (241, 251, 419, 421, 547, 557) for d in (-2, -1, 0, 1, 2)
]


def plan_edges(limit):
    """(lo, hi) of the plan's odd blocks: lo = 3 first, hi = min(3 lo,
    lo + 2 _PLAN_BLOCK, limit + 1), and the next lo is the first odd o >= hi."""
    lo = 3
    while lo <= limit:
        hi = min(3 * lo, lo + 2 * arith._PLAN_BLOCK, limit + 1)
        yield lo, hi
        lo = hi + (hi % 2 == 0)


def assert_plan_matches_table(limit):
    """Each plan block holds, at the odd o of [lo, hi), the positions
    (spf[o] - 1) // 2 and (o // spf[o] - 1) // 2 of a build_spf table."""
    spf = build_spf(max(limit, 2)).spf
    blocks = list(_expansion_plan(limit))
    edges = list(plan_edges(limit))
    assert len(blocks) == len(edges), limit
    for (index, cofactor), (lo, hi) in zip(blocks, edges):
        odd = np.arange(lo, hi, 2)
        want = spf[odd].astype(np.intp)
        assert index.dtype == cofactor.dtype == np.intp
        assert len(index) <= arith._PLAN_BLOCK
        assert index.tobytes() == ((want - 1) // 2).tobytes(), (limit, lo)
        assert cofactor.tobytes() == ((odd // want - 1) // 2).tobytes(), (limit, lo)


def prime_values(limit, seed, two=None):
    """Random float64 values at the primes of a buffer indexed by n, with
    f(1) = 1 and noise at the composites; f(2) = two when given."""
    prime_vals = np.random.default_rng(seed).uniform(-1.0, 1.0, size=limit + 1)
    prime_vals[1] = 1.0
    if two is not None and limit >= 2:
        prime_vals[2] = two
    return prime_vals


class TestExpandMultiplicative:
    @pytest.fixture(scope="class")
    def wide_table(self):
        return build_spf(10**5 + 1)

    @pytest.mark.parametrize(
        "limit", EXPANSION_LIMITS + ODD_EDGE_LIMITS + SQUARE_EDGE_LIMITS
    )
    def test_plan_matches_the_spf_table(self, limit):
        assert_plan_matches_table(limit)

    @pytest.mark.parametrize("limit", EXPANSION_LIMITS)
    def test_matches_rounds_reference(self, limit, wide_table):
        # In place, in float64 and int8, against the whole-array rounds and
        # the rank route; entries at composite n hold noise on entry. The
        # even n are reached by doubling, so f(2) = 0 and -1 are tried too.
        rng = np.random.default_rng(limit)
        floats = rng.uniform(-1.0, 1.0, size=limit + 1)
        signs = rng.integers(-1, 2, size=limit + 1).astype(np.int8)
        cases = [floats, signs] + [
            prime_values(limit, limit, two) for two in (0.0, -1.0)
        ]
        for prime_vals in cases:
            prime_vals[1] = 1
            v = prime_vals.copy()
            got = _apply_plan(_expansion_plan(limit), v)
            assert got is v
            for table in (build_spf(limit), wide_table):
                want = rounds_expand(prime_vals, table, limit)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (limit, prime_vals.dtype)
                by_rank = rank_expand(prime_vals, table, limit)
                assert got[1:].tobytes() == by_rank.tobytes(), (limit, prime_vals.dtype)

    @pytest.mark.parametrize("limit", [2, 3, 1000, 4097, 10**5])
    def test_one_plan_refills_one_buffer(self, limit, wide_table):
        # One kept plan expands several functions in turn in one buffer
        # indexed by n; a stale entry from an earlier function would show as
        # a mismatch with the rounds and with the rank route.
        primes = sieve_primes(limit)
        plan = tuple(_expansion_plan(limit))
        by_rank = tuple(rank_plan(wide_table, limit, primes))
        rng = np.random.default_rng(limit)
        v = np.full(limit + 1, np.nan)
        out = np.full(limit, np.nan)
        short_sets = [
            rng.uniform(-1.0, 1.0, len(primes)),
            np.ones(len(primes)),
            np.zeros(len(primes)),
            -rng.uniform(0.0, 1.0, len(primes)),
            rng.uniform(-1.0, 1.0, len(primes)),
        ]
        for short in short_sets:
            prime_vals = np.zeros(limit + 1)
            prime_vals[1] = 1.0
            prime_vals[primes] = short
            want = rounds_expand(prime_vals, wide_table, limit)
            v[primes] = short
            assert _apply_plan(plan, v) is v
            assert v.tobytes() == want.tobytes()
            rank_apply(by_rank, short, out)
            assert out.tobytes() == want[1:].tobytes()

    @pytest.mark.parametrize("limit", EXPANSION_LIMITS + ODD_EDGE_LIMITS)
    def test_spill_past_the_held_odd_third_matches_the_full_expansion(self, limit):
        # w holds f at the odd n <= limit // 3, by position. The rest of the
        # plan lands in spill one block at a time, and with its primes
        # written it is the tail of the odd values of the whole expansion,
        # bit for bit.
        prime_vals = prime_values(limit, limit)
        want = rounds_expand(prime_vals, build_spf(max(limit, 2)), limit)[1::2]
        held = max((limit // 3 + 1) // 2, 1)
        primes = sieve_primes(limit)
        w = prime_vals[1 : 2 * held : 2].copy()
        spill = np.full(min(arith._PLAN_BLOCK, len(want) - held), np.nan)
        tail = []
        for first, block in _expand(_expansion_plan(limit), w, spill):
            assert first == held + sum(map(len, tail))
            assert np.shares_memory(block, spill)
            odd = 2 * np.arange(first, first + len(block)) + 1
            inside = np.intersect1d(primes, odd)
            block[(inside - 1) // 2 - first] = prime_vals[inside]
            tail.append(block.copy())
        assert w.tobytes() == want[:held].tobytes()
        assert np.concatenate([w] + tail).tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64, 1000])
    def test_block_size_does_not_change_bits(self, block, monkeypatch):
        monkeypatch.setattr(arith, "_PLAN_BLOCK", block)
        limit = 5000
        table = build_spf(limit)
        prime_vals = prime_values(limit, block)
        got = _apply_plan(_expansion_plan(limit), prime_vals.copy())
        assert got.tobytes() == rounds_expand(prime_vals, table, limit).tobytes()
        blocks = list(_expansion_plan(limit))
        assert max(len(index) for index, _ in blocks) <= block
        assert sum(len(index) for index, _ in blocks) == (limit - 1) // 2
        for edge in (limit, 48, 49, 50, 120, 121, 122, 242, 243, 244):
            assert_plan_matches_table(edge)

    def test_plan_positions(self):
        # For odd o, index is the position (spf(o) - 1) // 2 and cofactor
        # that of o // spf(o), o = 3, 5, ... in order; the rank route's index
        # locates spf(n) among the primes and its cofactor is n // spf(n) - 1.
        limit = 300
        table = build_spf(limit)
        primes = sieve_primes(limit).tolist()
        index = np.concatenate([i for i, _ in _expansion_plan(limit)])
        cofactor = np.concatenate([c for _, c in _expansion_plan(limit)])
        assert len(index) == len(cofactor) == (limit - 1) // 2
        for o in range(3, limit + 1, 2):
            p = trial_spf(o)
            assert 2 * index[(o - 3) // 2] + 1 == p
            assert 2 * cofactor[(o - 3) // 2] + 1 == o // p
        rank_blocks = list(rank_plan(table, limit, np.array(primes)))
        rank_index = np.concatenate([i for i, _ in rank_blocks])
        rank_cofactor = np.concatenate([c for _, c in rank_blocks])
        for n in range(2, limit + 1):
            p = trial_spf(n)
            assert primes[rank_index[n - 2]] == p
            assert rank_cofactor[n - 2] == n // p - 1


class TestSmallestPrimeAbove:
    def test_examples(self):
        assert smallest_prime_above(2, 3, 4) == 3
        assert smallest_prime_above(20, 3, 4) == 23
        assert smallest_prime_above(3, 3, 4) == 7  # strict bound excludes 3

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            smallest_prime_above(10, 2, 4)

    def test_exhaustion_is_distinct(self):
        with pytest.raises(SearchExhaustedError):
            smallest_prime_above(100, 3, 4, search_ceiling=102)

    def test_against_enumeration(self):
        primes = trial_primes(10**4)
        for bound in (1, 2, 9.5, 50, 977, 1000):
            for residue, modulus in ((1, 4), (3, 4), (1, 2), (2, 3)):
                expected = next(
                    p for p in primes if p > bound and p % modulus == residue
                )
                assert smallest_prime_above(bound, residue, modulus) == expected


class TestIsPrime:
    def test_against_trial_division(self):
        truth = set(trial_primes(5000))
        for n in range(5001):
            assert is_prime(n) == (n in truth)
