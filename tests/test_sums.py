import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from charscan import sums
from charscan.arith import sieve_primes
from charscan.characters import evaluate, legendre_character, product_character
from charscan.sums import (
    _SUM_BLOCK,
    CONSTANTS,
    CompletelyMultiplicativeFunction,
    SumProfile,
    character_log_sum,
    conv_mean,
    gs_bound,
    ht_u,
    log_mean,
    max_partial_sum,
    mean,
    partial_sum,
    pv_ratios,
    _exact_sum,
    _mean_reaches,
    restricted_log_sum,
)

CMF = CompletelyMultiplicativeFunction

# Finite doubles for the exact-sum property: both signs, exponents from -1000
# to 300, subnormals and signed zeros.
finite_doubles = st.one_of(
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1000, 300)),
    st.floats(-(2.0**-1022), 2.0**-1022),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.0**-53]),
)


def xi(p):
    return legendre_character(p)


def chi21():
    return product_character(xi(3), xi(7))


def walk_samples(chi, ts):
    """Peak, first maximizer and S(t) at each t, from one sums._walk to (q-1)/2.

    t is reduced mod q, and S at a t past (q-1)/2 is read through the
    reflection S(q-1-t) = -chi(-1) S(t), so one half-period walk serves
    every t.
    """
    q = chi.modulus
    half = max((q - 1) // 2, 1)
    reflect = 1 if chi.parity == "odd" else -1
    points, signs = [], []
    for t in ts:
        m = math.floor(t)
        if m >= q:
            m %= q
        sign = 1
        if m > half:
            m, sign = q - 1 - m, reflect
        points.append(max(m, 0))
        signs.append(sign)
    peak, first, found = sums._walk(chi, half, points)
    return peak, first, [sign * s for sign, s in zip(signs, found)]


def brute_conv_mean(f, x):
    m = math.floor(x)
    vals = f.values_upto(m)
    total = 0.0
    for n in range(1, m + 1):
        for d in range(1, n + 1):
            if n % d == 0:
                total += vals[d - 1]
    return total / x


class TestConstants:
    def test_identities(self):
        assert CONSTANTS.kappa == 0.32
        assert CONSTANTS.euler_gamma == 0.57721566490153286
        assert CONSTANTS.euler_gamma == float(np.euler_gamma)
        assert CONSTANTS.c_odd == math.exp(CONSTANTS.euler_gamma) / math.pi
        assert CONSTANTS.c_even == CONSTANTS.c_odd / math.sqrt(3.0)

    def test_magnitudes(self):
        assert CONSTANTS.c_odd == pytest.approx(0.567, abs=1e-3)
        assert 0.3 < CONSTANTS.c_even < CONSTANTS.c_odd


class TestPartialSum:
    def test_examples(self):
        assert partial_sum(xi(3), 2) == 0
        assert partial_sum(chi21(), 0.5) == 0
        assert partial_sum(xi(7), 7) == 0
        assert partial_sum(xi(7), 2) == 2
        assert partial_sum(xi(7), 2.9) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partial_sum(xi(3), -0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            partial_sum(xi(3), -math.inf)

    def test_vanishes_on_full_periods(self):
        for chi in (xi(3), xi(11), chi21()):
            assert partial_sum(chi, chi.modulus) == 0
            assert partial_sum(chi, 3 * chi.modulus) == 0

    @given(st.integers(0, 200), st.integers(1, 3))
    def test_periodic_in_t(self, t, k):
        chi = chi21()
        assert partial_sum(chi, t + k * chi.modulus) == partial_sum(chi, t)

    def test_reflection_symmetry(self):
        # S(q - 1 - t) equals chi(-1) times... concretely: S(t) for odd
        # parity, -S(t) for even, since the summands reverse with sign
        # chi(-1) and the period sums to zero.
        cases = [xi(3), xi(5), xi(13), xi(19), chi21(),
                 product_character(xi(3), xi(5))]
        for chi in cases:
            q = chi.modulus
            sign = 1 if chi.parity == "odd" else -1
            for t in range(q):
                assert partial_sum(chi, q - 1 - t) == sign * partial_sum(chi, t)


class TestMaxPartialSum:
    def test_examples(self):
        prof3 = max_partial_sum(xi(3))
        assert (prof3.modulus, prof3.max_abs, prof3.argmax) == (3, 1, 1)
        prof7 = max_partial_sum(xi(7))
        assert (prof7.max_abs, prof7.argmax) == (2, 2)
        prof21 = max_partial_sum(chi21())
        assert (prof21.max_abs, prof21.argmax) == (2, 5)

    def test_tie_goes_to_smallest_t(self):
        # xi mod 11 reaches |S| = 3 several times; the first is t = 7.
        prof = max_partial_sum(xi(11))
        assert prof.argmax == min(
            t for t in range(1, 12)
            if abs(partial_sum(xi(11), t)) == prof.max_abs
        )

    def test_peak_matches_point_queries(self):
        for chi in (xi(19), xi(43), chi21(), product_character(xi(3), xi(11))):
            prof = max_partial_sum(chi)
            assert abs(partial_sum(chi, prof.argmax)) == prof.max_abs
            for t in range(1, prof.argmax):
                assert abs(partial_sum(chi, t)) < prof.max_abs
            assert prof.max_abs == max(
                abs(partial_sum(chi, t)) for t in range(1, chi.modulus + 1)
            )

    def test_samples(self):
        # xi mod 7 is 1, 1, -1, 1, -1, -1: S(t) = 1, 2, 1, 2, 1, 0.
        assert walk_samples(xi(7), [2.5, 7.0, 0.5, 4.0, 5.5]) == (2, 2, [2, 0, 0, 2, 1])

    def test_streaming_matches_pointwise_at_random_cuts(self):
        rng = np.random.default_rng(42)
        chi = xi(1019)
        cuts = [float(t) for t in rng.uniform(0.0, 1019.0, size=100)]
        _, _, found = walk_samples(chi, cuts)
        for t, s in zip(cuts, found):
            assert s == partial_sum(chi, t)

    def test_large_modulus_matches_point_queries(self):
        chi = xi(2003)
        prof = max_partial_sum(chi)
        running, peak, first = 0, 0, 0
        for n in range(1, chi.modulus + 1):
            running += evaluate(chi, n)
            if abs(running) > peak:
                peak, first = abs(running), n
        assert (prof.max_abs, prof.argmax) == (peak, first)

    def test_serialized_form(self):
        prof = max_partial_sum(xi(3))
        assert asdict(prof) == {"modulus": 3, "max_abs": 1, "argmax": 1}


class TestMultiplicativeFunctions:
    def test_ones_and_liouville(self):
        ones = CMF.ones(20)
        assert ones.values.tolist() == [1.0] * 8
        assert ones.primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19]
        lam = CMF.liouville(20)
        assert list(lam.values_upto(10)) == [1, -1, -1, 1, -1, 1, -1, -1, 1, 1]

    def test_values_are_multiplicative(self):
        rng = np.random.default_rng(5)
        f = CMF.random(400, rng)
        vals = f.values_upto(400)
        for m, n in ((2, 3), (4, 25), (6, 35), (12, 13), (19, 21)):
            assert vals[m * n - 1] == pytest.approx(
                vals[m - 1] * vals[n - 1], rel=1e-12
            )

    def test_random_is_seed_deterministic(self):
        a = CMF.random(100, np.random.default_rng(9))
        b = CMF.random(100, np.random.default_rng(9))
        assert np.array_equal(a.primes, b.primes)
        assert np.array_equal(a.values, b.values)
        assert ((-1.0 <= a.values) & (a.values <= 1.0)).all()

    def test_flip(self):
        f = CMF.ones(30).flip([2, 5])
        at = dict(zip(f.primes.tolist(), f.values.tolist()))
        assert at[2] == -1.0
        assert at[5] == -1.0
        assert at[3] == 1.0
        vals = f.values_upto(10)
        assert vals[9] == 1.0  # 10 = 2 * 5, two flips cancel
        assert vals[3] == 1.0  # 4 = 2 * 2
        assert vals[5] == -1.0  # 6 = 2 * 3

    def test_validation_errors(self, monkeypatch):
        with pytest.raises(ValueError, match="outside"):
            CMF(np.array([1.5, 1.0, 1.0, 1.0]), 7)
        with pytest.raises(ValueError, match="outside"):
            CMF(np.array([1.0, np.nan, 1.0, 1.0]), 7)
        with pytest.raises(ValueError, match="4 primes"):
            CMF(np.array([1.0, 1.0]), 7)  # 5 and 7 missing
        with pytest.raises(ValueError, match="2 primes"):
            CMF(np.array([1.0, 1.0, 1.0]), 3)  # one value too many
        with pytest.raises(ValueError, match="positive"):
            CMF(np.ones(0), 0)
        with pytest.raises(ValueError):
            CMF.ones(30).flip([4])
        with pytest.raises(ValueError):
            CMF.ones(30).flip([31])

        def no_sieve(limit):
            raise AssertionError("sieved before checking limit")

        # A non-integer limit is rejected before any sieve runs.
        monkeypatch.setattr(sums, "sieve_primes", no_sieve)
        for bad in (1.5, 10.0, True, "7", None):
            with pytest.raises(TypeError, match="limit must be an integer"):
                CMF(np.ones(4), bad)
        for bad in (10.5, True):
            with pytest.raises(TypeError, match="limit must be an integer"):
                CMF.ones(bad)
        with pytest.raises(TypeError, match="limit must be an integer"):
            CMF.liouville(7.0)
        with pytest.raises(TypeError, match="limit must be an integer"):
            CMF.random(False, np.random.default_rng(0))

    def test_arrays_are_read_only(self):
        f = CMF.random(50, np.random.default_rng(4))
        with pytest.raises(ValueError):
            f.values[0] = 0.5
        with pytest.raises(ValueError):
            f.primes[0] = 3
        assert f.primes.tolist() == sieve_primes(50).tolist()
        ones = CMF.ones(10)
        assert dict(zip(ones.primes.tolist(), ones.values.tolist())) == {
            2: 1.0, 3: 1.0, 5: 1.0, 7: 1.0,
        }

    def test_values_are_copied_from_the_caller(self):
        given = np.array([1.0, -1.0, 0.5, 0.0])
        f = CMF(given, 7)
        given[:] = -1.0
        assert f.values.tolist() == [1.0, -1.0, 0.5, 0.0]
        assert given.flags.writeable
        assert list(f.values_upto(7)) == [1.0, 1.0, -1.0, 1.0, 0.5, -1.0, 0.0]
        g = CMF([1, -1, 1, 1], np.int64(7))  # any float64-convertible sequence
        assert g.values.dtype == np.float64 and type(g.limit) is int

    def test_limit_shares_one_primes_array(self):
        f = CMF.ones(100)
        assert CMF.liouville(100).primes is f.primes
        assert f.flip([2]).primes is f.primes
        assert CMF(f.values, 100).primes is f.primes

    def test_repr_shows_values_not_an_address(self):
        text = repr(CMF.ones(10))
        assert text == (
            "CompletelyMultiplicativeFunction(values=array([1., 1., 1., 1.]), limit=10)"
        )
        assert "object at 0x" not in text

    def test_random_draws_one_uniform_per_prime(self):
        f = CMF.random(1000, np.random.default_rng(8))
        expected = np.random.default_rng(8).uniform(
            -1, 1, size=len(sieve_primes(1000))
        )
        assert np.array_equal(f.values, expected)
        assert len(f.primes) == 168

    def test_sieves_at_most_once_per_function(self, monkeypatch):
        calls = []

        def counting_sieve(limit):
            calls.append(limit)
            return sieve_primes(limit)

        monkeypatch.setattr(sums, "sieve_primes", counting_sieve)
        f = CMF.ones(1000)
        g = f.flip([2, 3]).flip([997])
        g.values_upto(1000)
        f.values_upto(500)
        assert len(calls) == 1
        CMF(np.array([1.0, -1.0, 0.5, 0.0]), 7).values_upto(7)
        assert len(calls) == 2

    def test_values_upto_bounds(self):
        f = CMF.ones(10)
        assert list(f.values_upto(1)) == [1.0]
        with pytest.raises(ValueError):
            f.values_upto(0.5)
        with pytest.raises(ValueError):
            f.values_upto(11)


class TestMeans:
    def test_ones_mean(self):
        f = CMF.ones(20)
        assert mean(f.values_upto(10), 10) == 1.0
        assert mean(f.values_upto(10.5), 10.5) == pytest.approx(10 / 10.5, rel=1e-15)
        with pytest.raises(ValueError):
            mean(np.ones(0), 0.9)

    def test_ones_log_mean_is_scaled_harmonic(self):
        f = CMF.ones(50)
        for x in (2, 10, 50):
            harmonic = math.fsum(1.0 / n for n in range(1, x + 1))
            assert log_mean(f.values_upto(x), x) == pytest.approx(
                harmonic / math.log(x), rel=1e-14
            )
        with pytest.raises(ValueError):
            log_mean(f.values_upto(1.5), 1.5)

    def test_liouville_means_match_brute_force(self):
        f = CMF.liouville(100)
        vals = f.values_upto(100)
        assert mean(vals, 100) == pytest.approx(math.fsum(vals) / 100, rel=1e-15)
        direct = math.fsum(v / n for n, v in enumerate(vals, start=1))
        assert log_mean(vals, 100) == pytest.approx(direct / math.log(100), rel=1e-14)

    def test_conv_mean_examples(self):
        assert conv_mean(CMF.ones(10).values_upto(10), 10) == pytest.approx(2.7, rel=1e-15)
        # sum over d of mu-free divisor counts, done by brute force
        f = CMF.liouville(50)
        assert conv_mean(f.values_upto(50), 50) == pytest.approx(
            brute_conv_mean(f, 50), rel=1e-12
        )

    @given(st.integers(0, 10**6))
    def test_conv_mean_matches_divisor_oracle(self, seed):
        rng = np.random.default_rng(seed)
        f = CMF.random(60, rng)
        x = float(rng.integers(2, 60))
        assert conv_mean(f.values_upto(x), x) == pytest.approx(
            brute_conv_mean(f, x), abs=1e-10
        )

    @given(st.integers(0, 10**6))
    def test_conv_mean_tracks_log_mean(self, seed):
        # The rearranged divisor mean differs from log_mean * log x by a
        # boundary term of at most one: each divisor contributes a floor
        # error below 1/x and there are at most x of them.
        rng = np.random.default_rng(seed)
        f = CMF.random(500, rng)
        for x in (10.0, 100.0, 500.0):
            vals = f.values_upto(x)
            gap = abs(log_mean(vals, x) * math.log(x) - conv_mean(vals, x))
            assert gap <= 1.0 + 1e-9

    @pytest.mark.parametrize("statistic", [mean, log_mean, conv_mean])
    def test_values_must_have_floor_x_entries(self, statistic):
        vals = CMF.random(100, np.random.default_rng(4)).values_upto(100)
        statistic(vals, 100.999)  # floor(x) = 100 values: accepted
        for values, x in ((vals, 99), (vals, 101), (vals[:-1], 100)):
            with pytest.raises(ValueError, match="values must hold"):
                statistic(values, x)


class TestExactSum:
    @given(st.lists(finite_doubles, max_size=80))
    def test_equals_fsum(self, values):
        assert _exact_sum(np.array(values, dtype=np.float64)) == math.fsum(values)

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [1.0, 2.0**-53, 2.0**-53 * (1 + 2.0**-52)],
            [1.0, 2.0**-53],
            [1e300, 1.0, -1e300],
            [2.0**-1074] * 3,
            [-0.0, -0.0],
            [0.1] * 10,
            [1.0, -(1.0 - 2.0**-53), -(2.0**-53)],
        ],
    )
    def test_cancellation_and_rounding_cases(self, values):
        assert _exact_sum(np.array(values, dtype=np.float64)) == math.fsum(values)

    def test_arrays_longer_than_one_block(self):
        rng = np.random.default_rng(13)
        n = 3 * _SUM_BLOCK + 17
        spread = rng.uniform(-1.0, 1.0, n) * np.exp2(rng.integers(-1000, 300, n))
        assert _exact_sum(spread) == math.fsum(spread)
        f = CMF.random(3 * 10**5, rng)
        vals = f.values_upto(3 * 10**5)
        ns = np.arange(1, len(vals) + 1)
        for terms in (vals, vals / ns, vals * (len(vals) // ns)):
            assert _exact_sum(terms) == math.fsum(terms)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            _exact_sum(np.array([1.0, bad]))
        late = np.zeros(_SUM_BLOCK + 5)
        late[-1] = bad
        with pytest.raises(ValueError):
            _exact_sum(late)


def reference_reaches(a, x, c):
    return abs(_exact_sum(a) / x) >= c


@st.composite
def threshold_cases(draw):
    """(a, x, c), with c often within a few ulps of the exact |mean|."""
    a = np.array(draw(st.lists(finite_doubles, max_size=80)), dtype=np.float64)
    x = draw(st.one_of(st.floats(1.0, 1e9), st.integers(1, 10**6).map(float)))
    exact = abs(_exact_sum(a) / x)
    if exact > 0 and draw(st.booleans()):
        c = exact
        for _ in range(draw(st.integers(0, 3))):
            c = math.nextafter(c, math.inf if draw(st.booleans()) else 0.0)
    else:
        c = draw(st.floats(2.0**-1000, 1e300))
    if c <= 0:
        c = 2.0**-1074
    return a, x, c


class TestMeanReaches:
    @given(threshold_cases())
    def test_equals_exact_decision(self, case):
        a, x, c = case
        assert _mean_reaches(a, x, c, np.empty(len(a))) == reference_reaches(a, x, c)

    @pytest.mark.parametrize(
        "values,x",
        [
            ([1e16, 1.0, -1e16], 1.0),  # the float sum loses the 1 entirely
            ([1.0, 2.0**-53, 2.0**-53], 3.0),
            ([0.1] * 10, 1.0),
            ([1.0, -(1.0 - 2.0**-53), -(2.0**-53)], 7.0),
            ([2.0**-1074] * 3, 2.0),
        ],
    )
    def test_cancellation_at_the_boundary(self, values, x):
        a = np.array(values)
        scratch = np.empty(len(a))
        exact = abs(_exact_sum(a) / x)
        for c in (exact, math.nextafter(exact, 0.0), math.nextafter(exact, 2.0), 0.5, 1.0):
            if c > 0:
                assert _mean_reaches(a, x, c, scratch) == reference_reaches(a, x, c), c

    def test_exact_sum_only_near_the_threshold(self, monkeypatch):
        calls = []

        def counting_sum(a):
            calls.append(len(a))
            return _exact_sum(a)

        monkeypatch.setattr(sums, "_exact_sum", counting_sum)
        x = 10**5
        vals = CMF.random(x, np.random.default_rng(5)).values_upto(x)
        m = abs(mean(vals, x))
        scratch = np.empty(x)
        calls.clear()
        assert _mean_reaches(vals, x, 0.1, scratch) == (m >= 0.1)
        assert _mean_reaches(vals, x, m / 2, scratch) is True
        assert _mean_reaches(vals, x, min(2 * m, 1.0), scratch) is False
        assert calls == []
        for c in (m, math.nextafter(m, 0.0), math.nextafter(m, 1.0)):
            assert _mean_reaches(vals, x, c, scratch) == (m >= c)
        assert calls == [x] * 3


    def test_scratch_holds_the_magnitudes(self):
        # The bound reads |vals| from the caller's scratch, whatever it held.
        vals = CMF.random(1000, np.random.default_rng(8)).values_upto(1000)
        scratch = np.full(1000, np.nan)
        _mean_reaches(vals, 1000, 0.5, scratch)
        assert scratch.tobytes() == np.abs(vals).tobytes()


# The former whole-array routes, kept as references: one length-m divisor
# array and one length-m product before a single exact sum.

def whole_log_sum(vals):
    return _exact_sum(vals / np.arange(1, len(vals) + 1))


def whole_conv_sum(vals):
    m = len(vals)
    return _exact_sum(vals * (m // np.arange(1, m + 1)))


def lengths_around_edges(block):
    """Lengths one either side of the first two block edges, at least 2."""
    return sorted({n for k in (1, 2) for n in (k * block - 1, k * block, k * block + 1) if n >= 2})


class TestBlockedReductions:
    @pytest.fixture(scope="class")
    def f(self):
        return CMF.random(2**17 + 1, np.random.default_rng(21))

    @pytest.mark.parametrize("block", [1, 7, 2**16])
    def test_block_size_does_not_change_bits(self, block, f, monkeypatch):
        cases = [(n, x) for n in lengths_around_edges(block) + [100] for x in (n, n + 0.5)]
        vals_of = {n: f.values_upto(n) for n, _ in cases}
        want = [
            (
                _exact_sum(vals_of[n]),
                whole_log_sum(vals_of[n]) / math.log(x),
                whole_conv_sum(vals_of[n]) / x,
            )
            for n, x in cases
        ]
        monkeypatch.setattr(sums, "_SUM_BLOCK", block)
        for (n, x), (total, log_m, conv_m) in zip(cases, want):
            vals = vals_of[n]
            assert _exact_sum(vals) == total == math.fsum(vals), (n, x)
            assert log_mean(vals, x) == log_m, (n, x)
            assert conv_mean(vals, x) == conv_m, (n, x)

    def test_means_match_the_whole_array_routes(self, f):
        for x in (2, 3, 1000.5, 2**16 + 1, 2**17 + 1):
            vals = f.values_upto(x)
            assert log_mean(vals, x) == whole_log_sum(vals) / math.log(x)
            assert conv_mean(vals, x) == whole_conv_sum(vals) / x


class TestNonFiniteX:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejected_before_any_work(self, bad, monkeypatch):
        def no_sieve(limit):
            raise AssertionError("a sieve ran for a non-finite x")

        f = CMF.random(100, np.random.default_rng(2))
        vals = f.values_upto(100)
        monkeypatch.setattr(sums, "sieve_primes", no_sieve)
        monkeypatch.setattr(sums, "_expansion_plan", no_sieve)
        for call in (f.values_upto, lambda x: mean(vals, x), lambda x: log_mean(vals, x),
                     lambda x: conv_mean(vals, x), lambda x: ht_u(f, x)):
            with pytest.raises(ValueError, match="x must be a finite number"):
                call(bad)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "pointwise",
        [
            lambda t: partial_sum(xi(7), t),
            lambda t: character_log_sum(xi(7), t),
            lambda t: restricted_log_sum(xi(7), t, 3),
        ],
        ids=["partial_sum", "character_log_sum", "restricted_log_sum"],
    )
    def test_pointwise_sums_reject_t(self, pointwise, bad):
        with pytest.raises(ValueError, match="t must be a finite number"):
            pointwise(bad)


class TestLogSums:
    def test_character_log_sum(self):
        assert character_log_sum(xi(3), 0.5) == 0.0
        assert character_log_sum(xi(3), -math.inf) == 0.0
        assert character_log_sum(xi(3), 1) == 1.0
        direct = 1.0 - 1.0 / 2 + 1.0 / 4 - 1.0 / 5 + 1.0 / 7 - 1.0 / 8
        assert character_log_sum(xi(3), 9.7) == pytest.approx(direct, rel=1e-15)

    def test_restricted_log_sum_drops_multiples(self):
        # up to 10 with multiples of 3 removed, xi mod 7 leaves
        # 1, 2, 4, 5, 8, 10
        vals = {1: 1, 2: 1, 4: 1, 5: -1, 8: 1, 10: -1}
        direct = math.fsum(v / n for n, v in vals.items())
        assert restricted_log_sum(xi(7), 10, 3) == pytest.approx(direct, rel=1e-15)

    def test_restricted_equals_full_when_ell_exceeds_t(self):
        assert restricted_log_sum(xi(7), 10, 11) == pytest.approx(
            character_log_sum(xi(7), 10), rel=1e-15
        )

    def test_restricted_rejects_bad_ell(self):
        for ell in (2, 9, 15, 1):
            with pytest.raises(ValueError):
                restricted_log_sum(xi(7), 10, ell)
        with pytest.raises(ValueError):
            restricted_log_sum(xi(7), 0.5, 3)
        with pytest.raises(ValueError, match="at least 1"):
            restricted_log_sum(xi(7), -math.inf, 3)

    @given(
        st.sampled_from([3, 7, 11, 19, 23]),
        st.sampled_from([3, 7, 11]),
        st.floats(1.0, 400.0),
    )
    def test_restriction_identity(self, p, ell, t):
        # Removing multiples of ell is the same as subtracting the
        # ell-dilated copy: sum_{n<=t, ell | n} xi(n)/n
        # = (xi(ell)/ell) sum_{m<=t/ell} xi(m)/m.
        if p == ell:
            return
        xi_p = xi(p)
        full = character_log_sum(xi_p, t)
        dilated = evaluate(xi_p, ell) / ell * character_log_sum(xi_p, t / ell)
        assert restricted_log_sum(xi_p, t, ell) == pytest.approx(
            full - dilated, abs=1e-9
        )


class TestHtIngredients:
    def test_u_examples(self):
        assert ht_u(CMF.ones(100), 100) == 0.0
        expected = math.fsum(2.0 / p for p in (2, 3, 5, 7))
        assert ht_u(CMF.liouville(10), 10) == pytest.approx(expected, rel=1e-15)

    def test_u_monotone_in_x(self):
        f = CMF.liouville(300)
        us = [ht_u(f, x) for x in (10, 50, 150, 300)]
        assert us == sorted(us)

    def test_u_matches_prime_loop(self):
        f = CMF.random(5000, np.random.default_rng(2))
        at = dict(zip(f.primes.tolist(), f.values.tolist()))
        for x in (2, 2.5, 97, 1000.7, 5000):
            expected = math.fsum(
                (1.0 - at[int(p)]) / int(p) for p in sieve_primes(int(x))
            )
            assert ht_u(f, x) == expected

    def test_u_errors(self):
        with pytest.raises(ValueError):
            ht_u(CMF.ones(10), 1.5)
        with pytest.raises(ValueError):
            ht_u(CMF.ones(10), 50)

    def test_gs_bound(self):
        assert gs_bound(0.0, 100.0) == math.log(100.0)
        assert gs_bound(1.0, 100.0) == pytest.approx(
            math.exp(-math.exp(0.5)) * math.log(100.0), rel=1e-15
        )
        us = [gs_bound(u, 1000.0) for u in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert us == sorted(us, reverse=True)
        for u in (-0.1, math.nan):
            with pytest.raises(ValueError, match="u must be nonnegative"):
                gs_bound(u, 100.0)
        for x in (1.0, math.nan):
            with pytest.raises(ValueError, match="x must be at least 2"):
                gs_bound(0.5, x)


class TestPvRatios:
    def test_small_modulus_frozen(self):
        ratios = pv_ratios(max_partial_sum(xi(3)))
        assert ratios["ratio_log"] == pytest.approx(0.5255268625199614, rel=1e-15)
        assert "ratio_loglog" not in ratios

    def test_loglog_present_from_sixteen(self):
        prof = max_partial_sum(xi(19))
        ratios = pv_ratios(prof)
        root = math.sqrt(19)
        assert ratios["ratio_log"] == pytest.approx(
            prof.max_abs / (root * math.log(19)), rel=1e-15
        )
        assert ratios["ratio_loglog"] == pytest.approx(
            prof.max_abs / (root * math.log(math.log(19))), rel=1e-15
        )

    def test_tiny_modulus_rejected(self):
        with pytest.raises(ValueError):
            pv_ratios(SumProfile(modulus=2, max_abs=1, argmax=1))
