import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from charscan import sums
from charscan.arith import kronecker, sieve_primes
from charscan.characters import (
    QuadraticCharacter,
    _live_tables,
    _shared_value_table,
    bulk_values,
    evaluate,
    legendre_character,
    product_character,
)
from charscan.sums import max_partial_sum

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def square_residues(p):
    return {k * k % p for k in range(1, p)}


def legendre_oracle(n, p):
    n %= p
    if n == 0:
        return 0
    return 1 if n in square_residues(p) else -1


def class_number(d):
    """h(d) for a negative discriminant d = 1 (mod 4), by counting reduced forms.

    A form (a, b, c) with b*b - 4ac = d is reduced when |b| <= a <= c, with
    b >= 0 whenever |b| = a or a = c. Since d is odd, so is b. For each odd
    b > 0 the divisors a of (b*b - d)/4 in [b, sqrt] give the forms;
    (a, -b, c) is a second reduced form unless a = b or a = c.
    """
    h = 0
    b = 1
    while 3 * b * b <= -d:
        ac = (b * b - d) // 4
        a = b
        while a * a <= ac:
            if ac % a == 0:
                h += 1 if a == b or a * a == ac else 2
            a += 1
        b += 2
    return h


def class_numbers(bound):
    """h(-d) at index d for all d < bound, d = 3 (mod 4), in one count.

    The same reduced forms as class_number, enumerated as triples: for each
    odd b > 0, every b <= a <= c with d = 4ac - b*b < bound, weighted 1 when
    a = b or a = c and 2 otherwise, then tallied by d.
    """
    h = np.zeros(bound, dtype=np.int64)
    b = 1
    while 3 * b * b < bound:
        top = bound - 1 + b * b  # 4ac <= top
        a = np.arange(b, math.isqrt(top // 4) + 1, dtype=np.int64)
        counts = top // (4 * a) - a + 1  # c = a .. top // (4a)
        a_rep = np.repeat(a, counts)
        c = a_rep + np.arange(len(a_rep)) - np.repeat(np.cumsum(counts) - counts, counts)
        weights = np.where((a_rep == b) | (a_rep == c), 1, 2)
        d = 4 * a_rep * c - b * b  # at most bound - 1
        h += np.bincount(d, weights=weights, minlength=bound).astype(np.int64)
        b += 2
    return h


class TestConstruction:
    def test_legendre_parity(self):
        assert legendre_character(3).parity == "odd"
        assert legendre_character(5).parity == "even"
        assert legendre_character(7).parity == "odd"
        assert legendre_character(13).parity == "even"

    def test_legendre_rejects_bad_input(self):
        for p in (2, 4, 9, 15, 1, -7):
            with pytest.raises(ValueError):
                legendre_character(p)

    def test_product_example(self):
        chi = product_character(legendre_character(3), legendre_character(7))
        assert chi.modulus == 21
        assert chi.factors == (3, 7)
        assert chi.parity == "even"  # odd times odd

    def test_product_parities(self):
        xi5 = legendre_character(5)
        xi7 = legendre_character(7)
        xi13 = legendre_character(13)
        assert product_character(xi5, xi13).parity == "even"
        assert product_character(xi5, xi7).parity == "odd"

    def test_product_requires_coprime(self):
        xi3 = legendre_character(3)
        chi21 = product_character(xi3, legendre_character(7))
        with pytest.raises(ValueError):
            product_character(xi3, xi3)
        with pytest.raises(ValueError):
            product_character(chi21, legendre_character(3))

    def test_equality_and_immutability(self):
        a = legendre_character(11)
        b = legendre_character(11)
        assert a == b
        assert a in {b}
        with pytest.raises(Exception):
            a.modulus = 13

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ValueError):
            QuadraticCharacter(modulus=15, factors=(3, 7), parity="even")
        with pytest.raises(ValueError):
            QuadraticCharacter(modulus=21, factors=(3, 7), parity="odd")
        with pytest.raises(ValueError):
            QuadraticCharacter(modulus=9, factors=(3, 3), parity="even")

    def test_serialized_form(self):
        chi = product_character(legendre_character(7), legendre_character(3))
        assert asdict(chi) == {"modulus": 21, "factors": (3, 7), "parity": "even"}


class TestEvaluate:
    def test_examples(self):
        chi21 = product_character(legendre_character(3), legendre_character(7))
        assert evaluate(chi21, 1) == 1
        assert evaluate(chi21, 22) == 1  # 22 = 1 mod 21
        assert evaluate(chi21, 7) == 0
        assert evaluate(chi21, 2) == -1
        assert evaluate(legendre_character(11), 2) == -1

    def test_against_square_oracle(self):
        for p in ODD_PRIMES:
            chi = legendre_character(p)
            for n in range(2 * p):
                assert evaluate(chi, n) == legendre_oracle(n, p)

    def test_product_is_pointwise_product(self):
        for p1, p2 in ((3, 5), (3, 7), (5, 11), (7, 11)):
            a, b = legendre_character(p1), legendre_character(p2)
            chi = product_character(a, b)
            for n in range(p1 * p2 + 5):
                assert evaluate(chi, n) == evaluate(a, n) * evaluate(b, n)

    @given(st.integers(-500, 500), st.integers(-500, 500),
           st.sampled_from(ODD_PRIMES))
    def test_completely_multiplicative(self, m, n, p):
        chi = legendre_character(p)
        assert evaluate(chi, m * n) == evaluate(chi, m) * evaluate(chi, n)

    @given(st.integers(-10**6, 10**6), st.sampled_from([15, 21, 33, 35]))
    def test_periodic(self, n, q):
        factors = {15: (3, 5), 21: (3, 7), 33: (3, 11), 35: (5, 7)}[q]
        chi = product_character(
            legendre_character(factors[0]), legendre_character(factors[1])
        )
        assert evaluate(chi, n) == evaluate(chi, n + q)

    def test_parity_sign_at_minus_one(self):
        for factors in ((3,), (5,), (3, 7), (3, 5), (5, 13), (3, 5, 7)):
            chi = legendre_character(factors[0])
            for p in factors[1:]:
                chi = product_character(chi, legendre_character(p))
            q = chi.modulus
            expected = -1 if chi.parity == "odd" else 1
            assert evaluate(chi, q - 1) == expected

    def test_orthogonality_over_period(self):
        for factors in ((3,), (11,), (3, 7), (5, 7)):
            chi = legendre_character(factors[0])
            for p in factors[1:]:
                chi = product_character(chi, legendre_character(p))
            assert sum(evaluate(chi, n) for n in range(1, chi.modulus + 1)) == 0


class TestBulkValues:
    def test_examples(self):
        xi3 = legendre_character(3)
        assert list(bulk_values(xi3, 6)) == [1, -1, 0, 1, -1, 0]
        assert list(bulk_values(xi3, 1)) == [1]

    def test_nonzero_count_is_totient(self):
        chi21 = product_character(legendre_character(3), legendre_character(7))
        vals = bulk_values(chi21, 21)
        assert int(np.count_nonzero(vals)) == 12

    def test_long_limit_matches_pointwise(self):
        xi3 = legendre_character(3)
        vals = bulk_values(xi3, 2001)
        assert [int(v) for v in vals] == [evaluate(xi3, n) for n in range(1, 2002)]
        with pytest.raises(ValueError):
            bulk_values(xi3, 0)

    def test_half_period_sum_is_class_number_multiple(self):
        # Dirichlet: for p = 3 (mod 4), p > 3, the sum of (n/p) over
        # n <= (p-1)/2 is (2 - (2/p)) h(-p). The half-period walk of
        # sums._walk ends exactly at (p-1)/2, so its last running sum is
        # read as the point there.
        primes = [int(p) for p in sieve_primes(100_000) if p > 3 and p % 4 == 3]
        assert len(primes) == 4807
        h = class_numbers(100_000)
        for p in primes:
            half = (p - 1) // 2
            expected = (2 - kronecker(2, p)) * int(h[p])
            (last,) = sums._walk(legendre_character(p), half, [half])[2]
            assert last == expected, p
            if p < 20_000:
                assert int(bulk_values(legendre_character(p), half).sum()) == expected

    def test_class_number_counts_agree(self):
        h = class_numbers(3_000)
        for d in range(3, 3_000, 4):
            assert h[d] == class_number(-d), d
        assert [int(h[d]) for d in (3, 7, 11, 23, 47, 71, 199)] == [1, 1, 1, 3, 5, 7, 9]

    def test_matches_pointwise_evaluate(self):
        characters = [legendre_character(p) for p in (3, 5, 13, 31)]
        characters.append(
            product_character(legendre_character(3), legendre_character(11))
        )
        characters.append(
            product_character(
                product_character(legendre_character(3), legendre_character(5)),
                legendre_character(7),
            )
        )
        for chi in characters:
            limit = min(2 * chi.modulus + 3, 2000)
            vals = bulk_values(chi, limit)
            for n in range(1, limit + 1):
                assert vals[n - 1] == evaluate(chi, n)


class TestSharedTables:
    def test_a_held_table_is_shared_and_read_only(self):
        table = _shared_value_table(19)
        assert _shared_value_table(19) is table
        assert not table.flags.writeable
        assert table.tolist() == [kronecker(a, 19) for a in range(19)]

    def test_no_table_outlives_its_walk(self):
        for p in (3, 7, 11, 19, 1019):
            max_partial_sum(legendre_character(p))
            sums._walk(legendre_character(p), (p - 1) // 2)
        assert not _live_tables
