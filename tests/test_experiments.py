import math
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from charscan import arith, characters, experiments, sums
from charscan.arith import _expansion_plan, build_spf, is_prime, liouville, sieve_primes
from charscan.characters import evaluate, legendre_character, product_character
from charscan.experiments import (
    DeltaEstimate,
    FLAG_BELOW_MIN_X,
    FLAG_ELL_BUMPED,
    FLAG_LOG_MEAN_NOT_POSITIVE,
    FLAG_MEAN_HYPOTHESIS,
    _select_ell,
    burgess_scan,
    choose_ell,
    counterexample_search,
    estimate_delta,
    least_nonresidue,
    lemma_b_report,
    theorem_a_pipeline,
    verify_lemma_bg,
)
from charscan.sums import (
    CompletelyMultiplicativeFunction,
    _exact_total as sums_exact_total,
    character_log_sum,
    conv_mean,
    gs_bound,
    ht_u,
    log_mean,
    mean,
    partial_sum,
)
from test_arith import rounds_expand

CMF = CompletelyMultiplicativeFunction


def xi(p):
    return legendre_character(p)


class TestChooseEll:
    def test_examples(self):
        assert choose_ell(1.0) == 3
        assert choose_ell(0.5) == 7
        assert choose_ell(0.1) == 23

    def test_rejects_nonpositive(self):
        for delta in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="delta must be positive"):
                choose_ell(delta)

    @given(st.floats(0.01, 10.0))
    def test_matches_enumeration(self, delta):
        bound = 2.0 / delta
        expected = next(
            n for n in range(2, 10**6)
            if n > bound and n % 4 == 3 and is_prime(n)
        )
        assert choose_ell(delta) == expected

    def test_threshold_is_strict(self):
        # 2/delta = 3 exactly: the prime must exceed the bound, so 3 itself
        # is not admissible.
        assert choose_ell(2.0 / 3.0) == 7

    def test_fallback_selection(self):
        assert _select_ell(0.5, 11) == (7, ())
        assert _select_ell(1.8, 3) == (7, (FLAG_ELL_BUMPED,))
        assert _select_ell(-0.5, 11) == (3, (FLAG_LOG_MEAN_NOT_POSITIVE,))
        assert _select_ell(-0.5, 3) == (
            7,
            (FLAG_LOG_MEAN_NOT_POSITIVE, FLAG_ELL_BUMPED),
        )


def rhs_oracle(xi_char, ell, q):
    best = 0.0
    running = 0.0
    for n in range(1, q + 1):
        if n % ell:
            running += evaluate(xi_char, n) / n
        best = max(best, abs(running))
    return math.sqrt(ell) / (math.pi * (ell - 1)) * best


class TestVerifyLemmaBg:
    def test_hand_checked_case(self):
        audit = verify_lemma_bg(xi(3), xi(7))
        # The product character mod 21 peaks at |S| = 2 (first at t = 5).
        assert audit.lhs == pytest.approx(2.0 / math.sqrt(21), rel=1e-15)
        assert audit.lhs == pytest.approx(0.4364357804719848, rel=1e-15)
        assert audit.rhs_main == pytest.approx(0.14036146644926414, rel=1e-12)
        assert audit.rhs_main == pytest.approx(rhs_oracle(xi(3), 7, 21), rel=1e-12)
        assert audit.gap == audit.lhs - audit.rhs_main

    def test_swapping_roles_changes_only_the_bound_side(self):
        ab = verify_lemma_bg(xi(3), xi(7))
        ba = verify_lemma_bg(xi(7), xi(3))
        assert ba.lhs == ab.lhs  # same product character either way
        assert ba.rhs_main == pytest.approx(rhs_oracle(xi(7), 3, 21), rel=1e-12)
        assert abs(ba.rhs_main - ab.rhs_main) > 0.1
        assert ba.gap < 0  # the bound side can exceed the normalized peak

    def test_oracle_agreement_on_more_pairs(self):
        for p, ell in ((7, 3), (11, 3), (19, 7), (23, 11)):
            audit = verify_lemma_bg(xi(p), xi(ell))
            q = p * ell
            chi = product_character(xi(p), xi(ell))
            peak = max(abs(partial_sum(chi, t)) for t in range(1, q + 1))
            assert audit.lhs == pytest.approx(peak / math.sqrt(q), rel=1e-12)
            assert audit.rhs_main == pytest.approx(
                rhs_oracle(xi(p), ell, q), rel=1e-12
            )

    def test_parity_and_shape_errors(self):
        with pytest.raises(ValueError):
            verify_lemma_bg(xi(5), xi(7))  # even first character
        with pytest.raises(ValueError):
            verify_lemma_bg(xi(7), xi(5))  # even second character
        with pytest.raises(ValueError):
            verify_lemma_bg(xi(3), xi(3))  # shared conductor
        chi21 = product_character(xi(3), xi(7))
        with pytest.raises(ValueError):
            verify_lemma_bg(xi(11), chi21)  # composite restrictor

    def test_serialized_form(self):
        audit = verify_lemma_bg(xi(3), xi(7))
        js = asdict(audit)
        assert list(js) == ["lhs", "rhs_main", "gap"]
        assert js["gap"] == audit.gap


class TestTheoremAPipeline:
    def test_smallest_case_frozen(self):
        report = theorem_a_pipeline(3, 0.5, 0.5)
        assert report.t_p == pytest.approx(math.sqrt(3), rel=1e-15)
        assert report.mean_xi == pytest.approx(0.5773502691896258, rel=1e-15)
        assert report.delta == pytest.approx(1.820478453253675, rel=1e-14)
        assert report.ell == 7
        assert report.q == 21
        assert report.flags == (FLAG_ELL_BUMPED,)
        assert report.lemma_bg_lhs == pytest.approx(0.4364357804719848, rel=1e-14)
        assert report.lemma_bg_rhs_main == pytest.approx(
            0.14036146644926414, rel=1e-12
        )
        assert report.final_ratio == pytest.approx(
            report.lemma_bg_lhs / math.log(21), rel=1e-15
        )
        # delta * epsilon/2 * log p collapses to (full log sum)/2 = 1/2 here.
        assert report.chain_lines[4][1] == pytest.approx(0.5, rel=1e-12)

    def test_chain_line_identities(self):
        for p, eps, c in ((3, 0.5, 0.5), (19, 0.5, 0.1), (43, 0.4, 0.1),
                          (163, 0.55, 0.1)):
            report = theorem_a_pipeline(p, eps, c)
            values = [v for _, v in report.chain_lines]
            assert len(values) == 6
            assert values[0] == report.restricted_sum
            # splitting off the dilated sub-sum is an identity
            assert values[0] == pytest.approx(values[1], abs=1e-9)
            # regrouping the harmonic tail is algebra, not an estimate
            assert values[2] == pytest.approx(values[3], rel=1e-9, abs=1e-12)
            # log q - log ell = log p
            assert values[4] == pytest.approx(values[5], rel=1e-9, abs=1e-12)
            labels = [label for label, _ in report.chain_lines]
            assert len(set(labels)) == 6
            assert all(labels)

    def test_report_invariants(self):
        report = theorem_a_pipeline(19, 0.5, 0.1)
        assert report.q == report.p * report.ell
        assert report.ell % 4 == 3 and is_prime(report.ell)
        chi = product_character(xi(report.p), xi(report.ell))
        assert chi.parity == "even"
        assert evaluate(chi, report.q - 1) == 1
        if FLAG_LOG_MEAN_NOT_POSITIVE not in report.flags:
            assert report.ell > 2.0 / report.delta
        assert report.mean_xi == pytest.approx(
            partial_sum(xi(19), report.t_p) / report.t_p, rel=1e-15
        )
        assert report.log_mean_xi == report.delta
        assert report.delta == pytest.approx(
            character_log_sum(xi(19), report.t_p) / math.log(report.t_p),
            rel=1e-14,
        )

    def test_mean_hypothesis_flagging(self):
        flagged = theorem_a_pipeline(3, 0.5, 0.9)
        assert FLAG_MEAN_HYPOTHESIS in flagged.flags
        unflagged = theorem_a_pipeline(3, 0.5, 0.5)
        assert FLAG_MEAN_HYPOTHESIS not in unflagged.flags
        # flagging never suppresses the rest of the report
        assert flagged.final_ratio == unflagged.final_ratio

    def test_input_validation(self):
        with pytest.raises(ValueError, match="3 mod 4"):
            theorem_a_pipeline(5, 0.5, 0.5)
        with pytest.raises(ValueError):
            theorem_a_pipeline(4, 0.5, 0.5)
        for eps in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                theorem_a_pipeline(3, eps, 0.5)
        for c in (0.0, 1.5):
            with pytest.raises(ValueError):
                theorem_a_pipeline(3, 0.5, c)

    def test_max_modulus_bounds_q(self, monkeypatch):
        report = theorem_a_pipeline(19, 0.5, 0.1)
        assert theorem_a_pipeline(19, 0.5, 0.1, max_modulus=report.q) == report

        def no_audit(xi, psi):
            raise AssertionError("the length-q audit ran past the modulus bound")

        monkeypatch.setattr(experiments, "verify_lemma_bg", no_audit)
        bound = report.q - 1
        with pytest.raises(ValueError, match=f"q = 19\\*{report.ell} = {report.q} exceeds capacity {bound}"):
            theorem_a_pipeline(19, 0.5, 0.1, max_modulus=bound)

    def test_nan_max_modulus_rejected_before_any_table(self, monkeypatch):
        def no_table(prime):
            raise AssertionError("a table was built under a nan cap")

        monkeypatch.setattr(characters, "_legendre_value_table", no_table)
        monkeypatch.setattr(experiments, "verify_lemma_bg", no_table)
        with pytest.raises(ValueError, match="max_modulus must not be nan"):
            theorem_a_pipeline(10007, 0.3, 0.1, max_modulus=math.nan)

    @pytest.mark.parametrize("p", [3, 1019, 1615843])
    def test_each_legendre_table_is_built_once(self, p, monkeypatch):
        # The lhs walk mod p*ell and the audit's walk mod p share the table
        # mod p, whether ell is below p or above it (p = 3).
        built = []
        build = characters._legendre_value_table

        def counting(prime):
            built.append(prime)
            return build(prime)

        monkeypatch.setattr(characters, "_legendre_value_table", counting)
        report = theorem_a_pipeline(p, 0.3, 0.1)
        assert sorted(built) == sorted({p, report.ell})
        assert not characters._live_tables

    def test_serialized_form(self):
        report = theorem_a_pipeline(3, 0.5, 0.5)
        js = asdict(report)
        assert js["q"] == 21
        assert js["flags"] == (FLAG_ELL_BUMPED,)
        assert js["chain_lines"] == report.chain_lines
        assert len(js["chain_lines"]) == 6
        assert [len(line) for line in js["chain_lines"]] == [2] * 6


class TestLemmaBReport:
    def test_constant_function(self):
        report = lemma_b_report(CMF.ones(1000), 1000)
        assert report.mean == 1.0
        assert report.u == 0.0
        assert report.gs_bound == math.log(1000)
        assert report.ht_envelope == 1.0
        assert report.ht_constant == 1.0
        assert report.flags == ()
        harmonic = math.fsum(1.0 / n for n in range(1, 1001))
        assert report.log_mean == pytest.approx(
            harmonic / math.log(1000), rel=1e-14
        )

    def test_fields_match_primitives(self):
        f = CMF.liouville(100)
        report = lemma_b_report(f, 100)
        vals = f.values_upto(100)
        assert report.mean == mean(vals, 100)
        assert report.log_mean == log_mean(vals, 100)
        assert report.u == ht_u(f, 100)
        assert report.conv_mean == conv_mean(vals, 100)
        assert report.gs_bound == gs_bound(report.u, 100)
        assert report.ht_envelope == math.exp(-0.32 * report.u)
        assert report.ht_constant == abs(report.mean) * math.exp(0.32 * report.u)

    def test_small_x_flag(self):
        assert lemma_b_report(CMF.ones(60), 60).flags == (FLAG_BELOW_MIN_X,)
        assert lemma_b_report(CMF.ones(150), 150, min_x=200).flags == (
            FLAG_BELOW_MIN_X,
        )
        assert lemma_b_report(CMF.ones(150), 150).flags == ()
        with pytest.raises(ValueError):
            lemma_b_report(CMF.ones(10), 1.5)

    def test_min_x_is_keyword_only(self):
        # A positional third argument cannot bind to min_x by mistake.
        with pytest.raises(TypeError):
            lemma_b_report(CMF.ones(150), 150, 200)

    def test_peak_memory_is_the_values_plus_a_few_blocks(self):
        # Past f's values, the report holds f at the odd n <= x/3 only, 4/3
        # bytes per n, and block-sized temporaries, the factor sieve's and
        # the streamed blocks' included; no other length-x array. A full
        # float64 array of f(n) alone would take 8x bytes, and f(n) for
        # n <= x/2 4x bytes.
        x = 10**6
        f = CMF.random(x, np.random.default_rng(3))
        tracemalloc.start()
        try:
            lemma_b_report(f, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * x // 3 + 3 * 10**6

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_x_rejected(self, bad):
        with pytest.raises(ValueError, match="x must be a finite number"):
            lemma_b_report(CMF.ones(200), bad)

    def test_nan_min_x_rejected(self):
        with pytest.raises(ValueError, match="min_x must not be nan"):
            lemma_b_report(CMF.ones(200), 200, min_x=math.nan)
        # an infinite threshold is well defined: every x lies below +inf
        assert lemma_b_report(CMF.ones(200), 200, min_x=math.inf).flags == (
            FLAG_BELOW_MIN_X,
        )
        assert lemma_b_report(CMF.ones(200), 200, min_x=-math.inf).flags == ()

    def test_serialized_form(self):
        js = asdict(lemma_b_report(CMF.ones(200), 200))
        assert js["x"] == 200.0
        assert js["flags"] == ()
        assert list(js) == [
            "x", "mean", "log_mean", "u", "conv_mean", "gs_bound",
            "ht_envelope", "ht_constant", "flags",
        ]


# x next to 2^16 and 2^17; next to 3^k, where floor(x)/3 and floor(x) fall
# on an edge of the plan's odd blocks (3, 9, 27, ..., 3^11 = 177147, then
# steps of 2^17 odd values, so 308219 next); next to 3 * 2^15, where
# floor(x)/3 crosses an even number; and the smallest x, where the held odd
# values are f(1) alone.
STREAMED_XS = sorted(
    {2, 3, 4, 5, 99.5, 2**16 - 1, 2**16, 2**16 + 1, 2**17, 2**17 + 3, 10**5 + 1}
    | {3**k + d for k in (2, 3, 10, 11) for d in (-1, 0, 1)}
    | {3 * 2**15 + d for d in (-1, 0, 1)}
    | {177147 + 2**17 + d for d in (-1, 0, 1)}
)
STREAMED_LIMIT = max(STREAMED_XS)


@pytest.fixture(scope="module")
def streamed_functions():
    limit = STREAMED_LIMIT
    zero_at_2 = CMF.random(limit, np.random.default_rng(3)).values.copy()
    zero_at_2[0] = 0.0
    minus_at_2 = CMF.random(limit, np.random.default_rng(4)).values.copy()
    minus_at_2[0] = -1.0
    return {
        "ones": CMF.ones(limit),
        "liouville": CMF.liouville(limit),
        "random_1": CMF.random(limit, np.random.default_rng(1)),
        "random_2": CMF.random(limit, np.random.default_rng(2)),
        "flip_2_3": CMF.ones(limit).flip([2, 3]),
        "zero_at_2": CMF(zero_at_2, limit),
        "minus_one_at_2": CMF(minus_at_2, limit),
    }


@pytest.fixture(scope="module")
def streamed_table():
    return build_spf(STREAMED_LIMIT)


@pytest.mark.parametrize("x", STREAMED_XS)
@pytest.mark.parametrize("name", ["ones", "liouville", "random_1", "random_2", "flip_2_3",
                                  "zero_at_2", "minus_one_at_2"])
def test_streamed_report_equals_the_full_array(name, x, streamed_functions,
                                               streamed_table):
    # The report holds f at the odd n <= x/3, streams the other odd n, and
    # reaches every even n by doubling; its three statistics equal math.fsum
    # over the terms of f(1..x) from the whole-array spf recurrence of the
    # tests, bit for bit. f is defined past x, and at the largest x exactly
    # up to x.
    f = streamed_functions[name]
    m = math.floor(x)
    prime_vals = np.zeros(STREAMED_LIMIT + 1)
    prime_vals[1] = 1.0
    prime_vals[f.primes] = f.values
    vals = rounds_expand(prime_vals[: m + 1], streamed_table, m)[1:]
    n = np.arange(1, m + 1)
    report = lemma_b_report(f, x)
    for got, want in (
        (report.mean, math.fsum(vals) / x),
        (report.log_mean, math.fsum(vals / n) / math.log(x)),
        (report.conv_mean, math.fsum(vals * (m // n)) / x),
    ):
        assert got.hex() == want.hex(), (name, x)


def reference_candidates(x, trials, seed):
    """The candidates of estimate_delta, one function object each, in order."""
    m = math.floor(x)
    rng = np.random.default_rng(seed)
    size = len(sieve_primes(m))
    candidates = [("ones", CMF(np.ones(size), m))]
    candidates.append(("all_primes_flipped", CMF(np.full(size, -1.0), m)))
    for p in (2, 3, 5, 7):
        if p <= m:
            candidates.append((f"ones_flipped_at_{p}", CMF(np.ones(size), m).flip([p])))
    for i in range(trials):
        candidates.append((f"random_{i}", CMF(rng.uniform(-1.0, 1.0, size=size), m)))
    return candidates


def reference_estimate(c, x, trials, seed):
    """estimate_delta by the per-candidate route: each candidate expanded by
    values_upto, its mean and log-mean summed exactly."""
    candidates = reference_candidates(x, trials, seed)
    best, qualifying = None, 0
    for label, f in candidates:
        vals = f.values_upto(x)
        if abs(mean(vals, x)) >= c:
            qualifying += 1
            value = log_mean(vals, x)
            if best is None or value < best[0]:
                best = (value, label)
    delta_hat, worst_f = best if best is not None else (None, None)
    return DeltaEstimate(delta_hat, worst_f, qualifying, len(candidates))


class TestEstimateDeltaReference:
    @pytest.mark.parametrize("seed", [0, 1, 7, 99])
    @pytest.mark.parametrize("x", [2, 7.5, 100, 1000, 4097.25, 20000])
    @pytest.mark.parametrize("c", [0.01, 0.1, 0.5, 0.9, 1.0])
    def test_grid_matches_reference(self, c, x, seed):
        trials = 30
        assert estimate_delta(c, x, trials, seed) == reference_estimate(c, x, trials, seed)

    @pytest.mark.parametrize("x,seed", [(100, 3), (1000, 7), (20000, 1), (300.5, 11)])
    def test_thresholds_at_a_candidates_exact_mean(self, x, seed, monkeypatch):
        # c equal to a candidate's exact |mean|, or one ulp either side, lies
        # inside every margin: the exact sum has to decide.
        trials = 12
        means = [abs(mean(f.values_upto(x), x)) for _, f in reference_candidates(x, trials, seed)]
        means = [m for m in means if 0 < m <= 1]
        calls = []

        def counting_total(blocks):
            calls.append(None)
            return sums_exact_total(blocks)

        # Every exact reduction, of a mean or of a log-mean, is one call.
        monkeypatch.setattr(sums, "_exact_total", counting_total)
        for m in sorted(set(means))[:: max(len(means) // 4, 1)]:
            for c in (m, math.nextafter(m, 0.0), math.nextafter(m, 2.0)):
                if not 0 < c <= 1:
                    continue
                calls.clear()
                est = estimate_delta(c, x, trials, seed)
                # One exact sum per qualifying log-mean, and at least one
                # threshold the float sum could not decide.
                assert len(calls) > est.qualifying
                assert est == reference_estimate(c, x, trials, seed)


class TestEstimateDelta:
    def test_frozen_run(self):
        est = estimate_delta(0.9, 1000, 20, seed=7)
        assert est.delta_hat == pytest.approx(1.083632896394867, rel=1e-12)
        assert est.worst_f == "ones"
        assert est.qualifying >= 1
        assert est.candidates == 26  # 2 fixed + 4 single flips + 20 random

    def test_deterministic_in_seed(self):
        a = estimate_delta(0.5, 300, 10, seed=123)
        b = estimate_delta(0.5, 300, 10, seed=123)
        assert a == b
        c = estimate_delta(0.5, 300, 10, seed=124)
        assert (a.delta_hat, a.worst_f) != (c.delta_hat, c.worst_f) or a == c

    def test_nothing_qualifies(self):
        est = estimate_delta(1.0, 10.5, 5, seed=1)
        assert est == type(est)(None, None, 0, 11)
        assert asdict(est) == {
            "delta_hat": None, "worst_f": None, "qualifying": 0, "candidates": 11,
        }

    def test_threshold_one_admits_constant_function(self):
        # at integer x only the constant function reaches |mean| = 1, and its
        # log-mean is the scaled harmonic number
        est = estimate_delta(1.0, 100, 2, seed=0)
        assert est.qualifying == 1
        assert est.worst_f == "ones"
        harmonic = math.fsum(1.0 / n for n in range(1, 101))
        assert est.delta_hat == pytest.approx(
            harmonic / math.log(100), rel=1e-14
        )

    def test_sieves_once_per_call(self, monkeypatch):
        calls = []

        def counting_sieve(limit):
            calls.append(limit)
            return sieve_primes(limit)

        monkeypatch.setattr(sums, "sieve_primes", counting_sieve)
        monkeypatch.setattr(experiments, "sieve_primes", counting_sieve, raising=False)
        estimate_delta(0.1, 1000.5, 20, seed=3)
        assert calls == [1000]

    @pytest.mark.parametrize("c,x,trials,seed", [(0.1, 1000, 20, 3), (0.5, 300.5, 7, 11), (0.9, 6, 4, 0)])
    def test_matches_separately_built_candidates(self, c, x, trials, seed):
        # The candidates as ones/liouville/random build them.
        m = math.floor(x)
        rng = np.random.default_rng(seed)
        candidates = [("ones", CMF.ones(m)), ("all_primes_flipped", CMF.liouville(m))]
        candidates += [(f"ones_flipped_at_{p}", CMF.ones(m).flip([p])) for p in (2, 3, 5, 7) if p <= m]
        candidates += [(f"random_{i}", CMF.random(m, rng)) for i in range(trials)]
        qualifying = []
        for label, f in candidates:
            vals = f.values_upto(x)
            if abs(mean(vals, x)) >= c:
                qualifying.append((log_mean(vals, x), label))
        best = min(qualifying, key=lambda pair: pair[0], default=(None, None))
        est = estimate_delta(c, x, trials, seed)
        assert est == type(est)(best[0], best[1], len(qualifying), len(candidates))

    def test_holds_one_candidate_at_a_time(self):
        # Each candidate holds a float64 value per prime; building every one
        # before evaluating any would add about that much per trial.
        x = 10**5
        per_candidate = 8 * len(sieve_primes(x))
        peaks = []
        for trials in (1, 50):
            tracemalloc.start()
            try:
                estimate_delta(0.1, x, trials, seed=7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 10 * per_candidate

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_x_rejected_before_any_work(self, bad, monkeypatch):
        def no_sieve(limit):
            raise AssertionError("a sieve ran for a non-finite x")

        monkeypatch.setattr(experiments, "sieve_primes", no_sieve)
        monkeypatch.setattr(experiments, "_expansion_plan", no_sieve)
        with pytest.raises(ValueError, match="x must be a finite number"):
            estimate_delta(0.1, bad, 5, seed=0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_delta(0.0, 100, 5, seed=0)
        with pytest.raises(ValueError):
            estimate_delta(1.5, 100, 5, seed=0)
        with pytest.raises(ValueError):
            estimate_delta(0.5, 1.0, 5, seed=0)
        with pytest.raises(ValueError):
            estimate_delta(0.5, 100, 0, seed=0)


class TestCounterexampleSearch:
    def test_zero_threshold_finds_nothing(self):
        assert counterexample_search(150, 2, 0.0) == []

    def test_hits_satisfy_the_definition(self):
        hits = counterexample_search(200, 1, 0.9)
        assert hits, "perturbed Liouville functions do produce inversions"
        ratios = []
        for rec in hits:
            assert 2 <= rec.N <= 200
            assert len(rec.flipped_primes) <= 1
            assert abs(rec.log_mean_at_N) < abs(rec.mean_at_N)
            assert abs(rec.log_mean_at_N) < 0.9 * abs(rec.mean_at_N)
            ratios.append(abs(rec.log_mean_at_N) / abs(rec.mean_at_N))
        assert ratios == sorted(ratios)

    def test_records_match_direct_means(self):
        hits = counterexample_search(200, 1, 0.9)
        for rec in hits[:5]:
            f = CMF.liouville(200).flip(list(rec.flipped_primes))
            vals = f.values_upto(rec.N)
            assert rec.mean_at_N == pytest.approx(mean(vals, rec.N), abs=1e-12)
            assert rec.log_mean_at_N == pytest.approx(log_mean(vals, rec.N), abs=1e-12)

    def test_budget_zero_keeps_only_unperturbed(self):
        hits = counterexample_search(200, 0, 0.9)
        assert all(rec.flipped_primes == () for rec in hits)

    def test_unperturbed_log_sum_keeps_its_sign(self):
        # With no flips, the running sum of lambda(n)/n stays strictly
        # positive at this scale, so the only way the unperturbed function
        # can be recorded is through a small mean, never a sign change.
        f = CMF.liouville(10**4)
        vals = f.values_upto(10**4)
        running = 0.0
        positive = True
        for n, v in enumerate(vals, start=1):
            running += v / n
            if running <= 0:
                positive = False
                break
        assert positive

    def test_input_validation(self):
        with pytest.raises(ValueError):
            counterexample_search(50, 1, 0.5)
        with pytest.raises(ValueError):
            counterexample_search(150, -1, 0.5)
        with pytest.raises(ValueError):
            counterexample_search(150, 1, -0.5)

    @pytest.mark.parametrize(
        "x_max, threshold, message",
        [
            (math.inf, 0.5, "x_max must be a finite number"),
            (-math.inf, 0.5, "x_max must be a finite number"),
            (math.nan, 0.5, "x_max must be a finite number"),
            (200, math.nan, "threshold must be nonnegative"),
        ],
    )
    def test_non_finite_input_rejected(self, x_max, threshold, message):
        with pytest.raises(ValueError, match=message):
            counterexample_search(x_max, 1, threshold)

    def test_infinite_threshold_is_threshold_one(self):
        # |log-mean| < |mean| is the binding condition for any threshold >= 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = counterexample_search(200, 1, math.inf)
        assert len(hits) > 0
        assert list(hits) == list(counterexample_search(200, 1, 1.0))

    def test_serialized_form(self):
        rec = counterexample_search(200, 1, 0.9)[0]
        js = asdict(rec)
        assert js["N"] == rec.N
        assert js["flipped_primes"] == rec.flipped_primes


@pytest.mark.parametrize(
    "call, limit",
    [
        (lambda: CMF.random(5000, np.random.default_rng(1)).values_upto(5000), 5000),
        (lambda: lemma_b_report(CMF.liouville(5000), 5000), 5000),
        (lambda: counterexample_search(500, 1, 0.9), 500),
        (lambda: liouville(5000), 5000),
        (lambda: estimate_delta(0.5, 5000, 3, seed=0), 5000),
    ],
    ids=["values_upto", "lemma_b_report", "counterexample_search", "liouville",
         "estimate_delta"],
)
def test_one_spf_sieve_per_call(call, limit, monkeypatch):
    # Each call runs one expansion plan, which sieves its blocks as it goes;
    # no library route builds a length-limit factor table with build_spf,
    # the tabulation API and the tests' reference.
    plans = []

    def counting(n):
        plans.append(n)
        return _expansion_plan(n)

    def no_table(n):
        raise AssertionError(f"a length-{n} factor table was built")

    for module in (arith, sums, experiments):
        monkeypatch.setattr(module, "_expansion_plan", counting)
        monkeypatch.setattr(module, "build_spf", no_table, raising=False)
    call()
    assert plans == [limit]


class TestLeastNonresidue:
    def test_examples(self):
        assert least_nonresidue(3) == 2
        assert least_nonresidue(7) == 3
        assert least_nonresidue(23) == 5
        assert least_nonresidue(71) == 7

    def test_brute_force_agreement(self):
        for p in sieve_primes(500):
            p = int(p)
            if p == 2:
                continue
            squares = {k * k % p for k in range(1, p)}
            expected = next(n for n in range(2, p) if n % p not in squares)
            n = least_nonresidue(p)
            assert n == expected
            assert is_prime(n)
            assert n < p

    def test_input_validation(self):
        for p in (2, 9, 1, 15):
            with pytest.raises(ValueError):
                least_nonresidue(p)


class TestBurgessScan:
    def test_full_period_vanishes(self):
        (point,) = burgess_scan(19, [1.0])
        assert point.s == 0
        assert point.ratio == 0.0
        assert point.t == 19.0

    def test_matches_point_queries(self):
        thetas = [0.25, 0.5, 0.75, 1.0]
        points = burgess_scan(103, thetas)
        assert [pt.theta for pt in points] == thetas
        for pt in points:
            t = 103**pt.theta
            assert pt.t == t
            assert pt.s == partial_sum(xi(103), t)
            assert pt.ratio == abs(pt.s) / t
            assert pt.ratio <= 1.0
        (point,) = burgess_scan(2003, [0.5])  # p needs no factor table
        assert point.s == partial_sum(xi(2003), 2003**0.5)

    def test_matches_partial_sum_on_theta_grid(self):
        # The walk stops at the largest floor(p**theta), capped at p - 1;
        # theta = 1 reads S(p - 1) = S(p) = 0.
        thetas = [k / 20 for k in range(1, 21)] + [0.999, 1.0]
        for p in (3, 7, 19, 103, 1019, 2003):
            points = burgess_scan(p, thetas)
            for theta, pt in zip(thetas, points):
                assert pt.t == p**theta
                assert pt.s == partial_sum(xi(p), p**theta), (p, theta)
                assert pt.ratio == abs(pt.s) / pt.t
            assert points[-1].s == 0

    def test_serialized_form(self):
        (point,) = burgess_scan(19, [0.5])
        assert list(asdict(point)) == ["theta", "t", "s", "ratio"]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            burgess_scan(5, [0.5])  # wrong residue class
        with pytest.raises(ValueError):
            burgess_scan(9, [0.5])  # composite
        with pytest.raises(ValueError):
            burgess_scan(19, [])
        for theta in (0.0, 1.2, -0.3):
            with pytest.raises(ValueError):
                burgess_scan(19, [theta])
