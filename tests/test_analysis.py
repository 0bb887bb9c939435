"""Rate formulas, capacity optimization, and the exact combinatorial laws."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from grouptest import analysis as an

LN2 = math.log(2)


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert an.binary_entropy(0.5) == 1.0

    def test_endpoints_are_zero(self):
        assert an.binary_entropy(0.0) == 0.0
        assert an.binary_entropy(1.0) == 0.0

    def test_symmetry(self):
        assert abs(an.binary_entropy(0.3) - an.binary_entropy(0.7)) < 1e-15

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            an.binary_entropy(-0.01)
        with pytest.raises(ValueError):
            an.binary_entropy(1.01)


class TestRateOf:
    def test_one_bit_per_test(self):
        assert abs(an.rate_of(2, 1, 1) - 1.0) < 1e-12

    def test_small_arithmetic(self):
        assert abs(an.rate_of(4, 2, 3) - math.log2(6) / 3) < 1e-12

    def test_against_big_integer_binomial(self):
        want = math.log2(math.comb(500, 10)) / 200
        assert abs(an.rate_of(500, 10, 200) - want) < 1e-9

    def test_huge_n_does_not_overflow(self):
        rate = an.rate_of(10**9, 100, 10**4)
        # C(1e9, 100) ~ (1e9)^100 / 100!: about 100*log2(1e9) - log2(100!) bits
        approx = (100 * math.log2(1e9) - math.log2(math.factorial(100))) / 10**4
        assert abs(rate - approx) < 1e-4


class TestCountingBound:
    def test_exact_fit(self):
        assert an.counting_bound(2, 1, 1) == 1.0

    def test_small_case(self):
        assert abs(an.counting_bound(4, 2, 1) - 2 / 6) < 1e-12

    def test_caps_at_one(self):
        assert an.counting_bound(10, 2, 50) == 1.0


class TestBernoulliCapacity:
    @pytest.mark.parametrize("theta", [0.0, 0.1, 0.2, 1 / 3])
    def test_sparse_regime_reaches_one(self, theta):
        assert abs(an.bernoulli_capacity(theta).value - 1.0) < 1e-6

    def test_theta_half_matches_fine_grid_oracle(self):
        """Frozen from a step-1e-6 brute-force grid: C(0.5)=0.530737845 at nu=1."""
        res = an.bernoulli_capacity(0.5)
        assert abs(res.value - 0.530737845) < 1e-6
        assert abs(res.argmax_nu - 1.0) < 1e-3

    def test_theta_0p4_matches_fine_grid_oracle(self):
        """Frozen oracle: C(0.4) = 0.796106768."""
        assert abs(an.bernoulli_capacity(0.4).value - 0.796106768) < 1e-6

    @pytest.mark.parametrize("theta,want", [(0.34, 0.996623), (0.35, 0.978345)])
    def test_crossing_matches_fine_grid_oracle(self, theta, want):
        """Frozen from a step-1e-6 brute-force grid; here the maximum is where
        the two terms cross, strictly between nu = ln 2 and nu = 1."""
        res = an.bernoulli_capacity(theta)
        assert abs(res.value - want) < 1e-6
        assert LN2 < res.argmax_nu < 1.0

    def test_nonincreasing_in_theta(self):
        grid = [0.05 * i for i in range(1, 20)]
        vals = [an.bernoulli_capacity(t).value for t in grid]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_rejects_theta_one(self):
        with pytest.raises(ValueError):
            an.bernoulli_capacity(1.0)


class TestTheoreticalRate:
    def test_ncc_comp_at_zero(self):
        assert abs(an.theoretical_rate("ncc_comp", 0.0) - LN2) < 1e-12

    def test_ncc_dd_flat_region(self):
        assert abs(an.theoretical_rate("ncc_dd", 0.5) - LN2) < 1e-12
        assert abs(an.theoretical_rate("ncc_dd", 0.25) - LN2) < 1e-12

    def test_ncc_dd_dense_region(self):
        assert abs(an.theoretical_rate("ncc_dd", 0.75) - LN2 / 3) < 1e-12

    def test_ncc_converse_sparse_region_is_one(self):
        assert an.theoretical_rate("ncc_converse", 0.3) == 1.0

    def test_ncc_converse_crossover(self):
        theta_star = LN2 / (1 + LN2)
        assert abs(an.theoretical_rate("ncc_converse", theta_star) - 1.0) < 1e-9
        assert an.theoretical_rate("ncc_converse", theta_star + 1e-3) < 1.0

    def test_bern_comp_at_zero(self):
        assert abs(an.theoretical_rate("bern_comp", 0.0) - 0.5307378454) < 1e-6

    def test_bernoulli_30_percent_gap(self):
        """The near-constant design improves COMP/DD rates by e*(ln2)^2 ~ 1.306."""
        for theta in (0.2, 0.5, 0.8):
            ratio = an.theoretical_rate("ncc_comp", theta) / an.theoretical_rate(
                "bern_comp", theta
            )
            assert abs(ratio - math.e * LN2 * LN2) < 1e-9
            assert abs(ratio - 1.306) < 1e-3

    def test_converse_dominates_dd_with_equality_beyond_half(self):
        for theta in [0.05 * i for i in range(1, 20)]:
            conv = an.theoretical_rate("ncc_converse", theta)
            ddr = an.theoretical_rate("ncc_dd", theta)
            assert conv >= ddr - 1e-12
            if theta >= 0.5:
                assert abs(conv - ddr) < 1e-12

    def test_counting_bound_rate_is_flat_one(self):
        assert an.theoretical_rate("counting_bound_rate", 0.7) == 1.0

    def test_theta_zero_rejected_for_dense_curves(self):
        for curve in ("ncc_dd", "ncc_converse", "bern_dd"):
            with pytest.raises(ValueError):
                an.theoretical_rate(curve, 0.0)

    def test_unknown_curve_rejected(self):
        with pytest.raises(ValueError):
            an.theoretical_rate("nope", 0.5)


class TestTThreshold:
    def test_comp_example(self):
        assert abs(an.t_threshold("comp", 500, 10) - 10 * math.log2(500) / LN2) < 1e-9

    def test_dd_example(self):
        want = 100 * math.log2(100) / LN2
        assert abs(an.t_threshold("dd", 2000, 100) - want) < 1e-9

    def test_dd_balanced_at_sqrt_n(self):
        # K = sqrt(N): both max arguments coincide
        assert abs(
            an.t_threshold("dd", 10_000, 100) - 100 * math.log2(100) / LN2
        ) < 1e-9

    def test_rejects_bad_algorithm(self):
        with pytest.raises(ValueError):
            an.t_threshold("sss", 100, 10)


class TestStirling2:
    def test_forced_partitions(self):
        for n in range(1, 30):
            assert an.stirling2(n, n) == 1
            assert an.stirling2(n, 1) == 1

    def test_pairs_formula(self):
        for j in range(1, 25):
            assert an.stirling2(j + 1, j) == j * (j + 1) // 2

    def test_s42_by_exhaustive_partition_enumeration(self):
        """Count 2-block set partitions of {0,1,2,3} directly: 7."""
        blocks = set()
        items = (0, 1, 2, 3)
        for size in (1, 2, 3):
            for left in combinations(items, size):
                right = tuple(i for i in items if i not in left)
                if right:
                    blocks.add(frozenset((frozenset(left), frozenset(right))))
        assert len(blocks) == 7
        assert an.stirling2(4, 2) == 7

    def test_recurrence_matches_alternating_sum(self):
        for n in range(21):
            for k in range(n + 1):
                assert an.stirling2(n, k) == an.stirling2_by_inclusion_exclusion(n, k)

    def test_out_of_range(self):
        assert an.stirling2(3, 5) == 0
        with pytest.raises(ValueError):
            an.stirling2(-1, 0)

    def test_log_concave_in_first_argument(self):
        for j in range(1, 21):
            for u in range(21):
                lhs = an.stirling2(j + u + 1, j) ** 2
                rhs = an.stirling2(j + u, j) * an.stirling2(j + u + 2, j)
                assert lhs >= rhs


class TestPhi:
    def test_j_zero_is_one(self):
        assert an.phi(0, 0.3, 7) == 1.0
        assert an.phi_exact(0, Fraction(1, 3), 7) == 1

    def test_v_zero_is_zero_for_positive_j(self):
        assert an.phi(3, 0.2, 0) == 0.0
        assert an.phi_exact(3, Fraction(1, 5), 0) == 0

    def test_hand_value(self):
        # j=2, s=1/2, V=2: 1 - 2*(1/2)^2 + 0^2 = 1/2
        assert abs(an.phi(2, 0.5, 2) - 0.5) < 1e-15
        assert an.phi_exact(2, Fraction(1, 2), 2) == Fraction(1, 2)

    def test_rejects_js_above_one(self):
        with pytest.raises(ValueError):
            an.phi(3, 0.5, 4)

    def test_float_matches_exact_to_1e9_relative(self):
        worst = 0.0
        for j in range(1, 9):
            for v in range(j, 51, 4):
                for c in range(1, 21):
                    if c > 10 * v:
                        continue
                    s = Fraction(c, 10 * v * j)
                    exact = an.phi_exact(j, s, v)
                    if exact == 0:
                        continue
                    approx = an.phi(j, c / (10 * v * j), v)
                    worst = max(worst, abs(approx - float(exact)) / float(exact))
        assert worst < 1e-9, worst

    def test_direct_regime_matches_exact(self):
        # moderate s where the plain alternating sum is used
        for j, s_num, s_den, v in ((2, 1, 4, 30), (3, 1, 5, 25), (4, 1, 8, 40)):
            exact = float(an.phi_exact(j, Fraction(s_num, s_den), v))
            approx = an.phi(j, s_num / s_den, v)
            assert abs(approx - exact) <= 1e-9 * max(exact, 1e-300)

    def test_monotone_in_s_and_v_antitone_in_j(self):
        s_grid = [Fraction(n, 200) for n in range(1, 40, 3)]
        for j in (1, 2, 3):
            for v in (5, 12, 30):
                vals = [an.phi_exact(j, s, v) for s in s_grid if j * s <= 1]
                assert all(a <= b for a, b in zip(vals, vals[1:]))
        for j in (1, 2, 4):
            s = Fraction(1, 4 * j)
            vals = [an.phi_exact(j, s, v) for v in range(j, 30)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
        s = Fraction(1, 50)
        for v in (10, 30, 50):
            vals = [an.phi_exact(j, s, v) for j in range(0, 12)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_factorial_bound_when_svj_small(self):
        for j in (1, 2, 3, 5):
            for v in (j + 1, j + 10, 40):
                s = Fraction(2, v * j * 2)  # s*V*j = 1 <= 2
                val = an.phi_exact(j, s, v)
                bound = Fraction(an.falling_factorial(v, j)) * s**j
                assert val <= bound
                assert float(bound) <= math.exp(j * math.log(float(v * s))) * (1 + 1e-12)

    def test_polynomial_expansion_identity(self):
        for j in range(0, 7):
            for v in range(j, 51, 7):
                s = Fraction(1, 2 * max(j, 1))
                assert an.phi_exact(j, s, v) == an.phi_poly_expansion(j, s, v)


class TestMiPmf:
    def test_single_draw_reduces_to_bernoulli(self):
        assert abs(an.mi_pmf(1, 4, 1, 10) - 6 / 10) < 1e-15
        assert abs(an.mi_pmf(0, 4, 1, 10) - 4 / 10) < 1e-15

    def test_no_covered_tests_reduces_to_coupon_law(self):
        for j in range(4):
            want = an.distinct_coupon_pmf(3, 9, j)
            assert abs(an.mi_pmf(j, 0, 3, 9) - want) < 1e-15

    @pytest.mark.parametrize("n_tests,w,draws", [(10, 4, 3), (20, 13, 5), (40, 17, 8)])
    def test_sums_to_one(self, n_tests, w, draws):
        total = sum(
            an.mi_pmf(j, w, draws, n_tests)
            for j in range(min(draws, n_tests - w) + 1)
        )
        assert abs(total - 1.0) < 1e-9

    def test_fully_covered_is_point_mass_at_zero(self):
        assert an.mi_pmf(0, 7, 4, 7) == 1.0

    def test_matches_monte_carlo(self):
        """(T=10, w=4, L=3): TV between the pmf and 10^5 coupon draws <= 0.01."""
        rng = np.random.default_rng(2024)
        draws = np.sort(rng.integers(0, 10, size=(100_000, 3)), axis=1)
        fresh = np.ones(draws.shape, dtype=bool)
        fresh[:, 1:] = draws[:, 1:] != draws[:, :-1]
        counts = np.bincount(((draws >= 4) & fresh).sum(axis=1), minlength=4)
        probs = np.array([an.mi_pmf(j, 4, 3, 10) for j in range(4)])
        tv = 0.5 * np.abs(counts / 100_000 - probs).sum()
        assert tv <= 0.01, tv

    def test_rejects_out_of_support(self):
        with pytest.raises(ValueError):
            an.mi_pmf(5, 4, 3, 10)  # j > L
        with pytest.raises(ValueError):
            an.mi_pmf(1, 11, 3, 10)  # w > T


class TestMiPmfBinomialBound:
    """The proof's bound: mi_pmf is at most exp(L^2/4w) Bin(L, 1 - w/T)(j)."""

    @pytest.mark.parametrize("n_tests,w,draws", [(10, 4, 3), (20, 6, 5), (30, 10, 4)])
    def test_dominates_pmf(self, n_tests, w, draws):
        q = w / n_tests
        for j in range(min(draws, n_tests - w) + 1):
            bound = (
                math.exp(draws * draws / (4.0 * w))
                * math.comb(draws, j) * (1.0 - q) ** j * q ** (draws - j)
            )
            assert bound >= an.mi_pmf(j, w, draws, n_tests) - 1e-15


class TestGConditionalPmf:
    def test_full_coverage_is_point_mass_at_top(self):
        assert an.g_conditional_pmf(45, 20, 20, 3, 50, 5) == 1.0
        assert an.g_conditional_pmf(44, 20, 20, 3, 50, 5) == 0.0

    def test_zero_coverage_is_point_mass_at_zero(self):
        assert an.g_conditional_pmf(0, 0, 20, 3, 50, 5) == 1.0
        assert an.g_conditional_pmf(1, 0, 20, 3, 50, 5) == 0.0

    def test_sums_to_one(self):
        total = sum(an.g_conditional_pmf(g, 10, 20, 3, 50, 5) for g in range(46))
        assert abs(total - 1.0) < 1e-9

    def test_matches_monte_carlo(self):
        """(N=50, K=5, T=20, L=3, x=10): TV <= 0.01 against 10^5 trials."""
        rng = np.random.default_rng(7)
        inside = (rng.integers(0, 20, size=(100_000, 45, 3)) < 10).all(axis=2)
        counts = np.bincount(inside.sum(axis=1), minlength=46)
        probs = np.array([an.g_conditional_pmf(g, 10, 20, 3, 50, 5) for g in range(46)])
        tv = 0.5 * np.abs(counts / 100_000 - probs).sum()
        assert tv <= 0.01, tv


class TestLiZeroProb:
    def test_no_solo_tests_means_certain_zero(self):
        assert an.li_zero_prob(5, 3, 0, 4) == 1.0

    def test_no_intruders_cannot_mask(self):
        assert an.li_zero_prob(0, 3, 2, 4) == 0.0

    def test_matches_conditional_monte_carlo(self):
        """(g=2, w=6, j=2, L=3): within 3 sigma of 10^5 conditioned trials."""
        rng = np.random.default_rng(11)
        picks = rng.integers(0, 8, size=(100_000, 6))
        hit = ((picks == 0).any(axis=1)) & ((picks == 1).any(axis=1))
        emp = hit.mean()
        want = an.li_zero_prob(2, 6, 2, 3)
        sigma = math.sqrt(want * (1 - want) / 100_000)
        assert abs(emp - want) <= 3 * sigma

    def test_rejects_empty_conditioning(self):
        with pytest.raises(ValueError):
            an.li_zero_prob(1, 0, 0, 3)


class TestDistinctCoupon:
    def test_single_draw(self):
        assert an.distinct_coupon_pmf(1, 5, 1) == 1.0
        assert an.expected_distinct(1, 5) == pytest.approx(1.0)

    def test_two_draws_two_tests_by_enumeration(self):
        """All 4 sequences over {a,b}: 2 give one distinct, 2 give two."""
        assert abs(an.distinct_coupon_pmf(2, 2, 1) - 0.5) < 1e-15
        assert abs(an.distinct_coupon_pmf(2, 2, 2) - 0.5) < 1e-15
        assert abs(an.expected_distinct(2, 2) - 1.5) < 1e-12

    def test_expectation_value(self):
        assert abs(an.expected_distinct(3, 100) - 2.9701) < 1e-10

    @pytest.mark.parametrize("n_draws,n_tests", [(8, 12), (20, 7), (5, 40), (0, 3)])
    def test_mean_identity(self, n_draws, n_tests):
        top = min(n_draws, n_tests)
        mean = sum(
            w * an.distinct_coupon_pmf(n_draws, n_tests, w) for w in range(top + 1)
        )
        assert abs(mean - an.expected_distinct(n_draws, n_tests)) < 1e-9


class TestCompSuccessExact:
    def test_criterion_9_upper_point(self):
        assert an.comp_success_exact(10_000, 16, 384, 17) == pytest.approx(0.896368, abs=1e-6)

    def test_criterion_9_lower_point(self):
        assert an.comp_success_exact(10_000, 16, 230, 10) == pytest.approx(0.000911, abs=1e-6)

    def test_matches_brute_force_enumeration(self):
        """N=5, K=2, T=3, L=2: all 3^10 draw sequences, items 0 and 1 defective."""
        n_items, k, n_tests, draws = 5, 2, 3, 2
        successes = 0
        masked = 0
        for picks in product(range(n_tests), repeat=n_items * draws):
            cols = [set(picks[i * draws : (i + 1) * draws]) for i in range(n_items)]
            covered = set().union(*cols[:k])
            g = sum(col <= covered for col in cols[k:])
            successes += g == 0
            masked += g
        space = n_tests ** (n_items * draws)
        exact = an.comp_success_exact(n_items, k, n_tests, draws)
        assert exact == pytest.approx(float(Fraction(successes, space)), abs=1e-15)
        mean = an.comp_masked_mean(n_items, k, n_tests, draws)
        assert mean == pytest.approx(float(Fraction(masked, space)), abs=1e-15)

    def test_equals_g_zero_term_of_conditional_law(self):
        n_items, k, n_tests, draws = 10_000, 16, 384, 17
        total = sum(
            an.distinct_coupon_pmf(k * draws, n_tests, x)
            * an.g_conditional_pmf(0, x, n_tests, draws, n_items, k)
            for x in range(k * draws + 1)
        )
        assert an.comp_success_exact(n_items, k, n_tests, draws) == pytest.approx(total, rel=1e-9)

    def test_no_defectives_always_succeeds(self):
        assert an.comp_success_exact(10, 0, 5, 3) == 1.0
        assert an.comp_masked_mean(10, 0, 5, 3) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            an.comp_success_exact(10, 2, 5, 0)
        with pytest.raises(ValueError):
            an.comp_masked_mean(10, 11, 5, 3)


class TestCompMaskingLaw:
    """The float occupancy law behind ``comp_success_exact`` and ``comp_masked_mean``."""

    def test_covered_pmf_matches_the_exact_coupon_law(self):
        for n_draws in (0, 1, 2, 5, 17, 60, 150, 300):
            for n_tests in (1, 2, 7, 40, 150, 300, 400):
                got = an._covered_pmf(n_draws, n_tests)
                assert got.shape == (min(n_draws, n_tests) + 1,)
                for w, p in enumerate(got):
                    assert abs(p - an.distinct_coupon_pmf(n_draws, n_tests, w)) <= 1e-12

    def test_window_matches_the_full_recursion(self):
        """2000 draws from 3000 tests: the window drops counts that the full
        recursion holds below 1e-300 at both ends, and matches it elsewhere."""
        n_draws, n_tests = 2000, 3000
        stay = np.arange(n_draws + 1) / n_tests
        full = np.zeros(n_draws + 1)
        full[0] = 1.0
        for _ in range(n_draws):
            full[1:] = full[1:] * stay[1:] + full[:-1] * (1.0 - stay[:-1])
            full[0] = 0.0
        got = an._covered_pmf(n_draws, n_tests)
        kept = np.flatnonzero(got)
        lo, hi = kept[0], kept[-1]
        assert kept.shape[0] == hi - lo + 1
        for tail in (full[:lo], full[hi + 1 :]):
            assert 0.0 < tail.max() < 1e-300
        np.testing.assert_allclose(got, full, rtol=1e-12, atol=1e-290)

    def test_reads_no_stirling_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the COMP law reads the float recursion only")

        monkeypatch.setattr(an, "distinct_coupon_pmf", refuse)
        monkeypatch.setattr(an, "stirling2", refuse)
        assert an.comp_success_exact(10_000, 16, 384, 17) == pytest.approx(0.896368, abs=1e-6)
        assert an.comp_masked_mean(10_000, 16, 230, 10) == pytest.approx(10.765064, abs=1e-6)

    def test_success_and_mean_share_one_recursion(self):
        """Criterion 9's success-and-E[G] pairs run the recursion once per
        point (a cache miss), with the values the criterion reads."""
        an._covered_pmf.cache_clear()
        for n_tests, draws, success, mean in ((384, 17, 0.896368, 0.1109), (230, 10, 0.000911, 10.7651)):
            assert an.comp_success_exact(10_000, 16, n_tests, draws) == pytest.approx(success, abs=1e-6)
            assert an.comp_masked_mean(10_000, 16, n_tests, draws) == pytest.approx(mean, abs=1e-4)
        info = an._covered_pmf.cache_info()
        assert (info.misses, info.hits) == (2, 2)

    def test_kept_pmf_is_read_only(self):
        pmf = an._covered_pmf(40, 30)
        with pytest.raises(ValueError):
            pmf[0] = 1.0
        assert an._covered_pmf(40, 30) is pmf

    def test_memory_stays_small_at_ten_thousand_items(self):
        """N=10^4, K=100, T=1300, L=9 (900 draws): the big-integer Stirling
        rows up to 900 took a 138 MB traced peak; the recursion holds a few arrays
        of 901 floats."""
        tracemalloc.start()
        try:
            value = an.comp_success_exact(10_000, 100, 1300, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20, peak
        assert 0.0 < value < 1e-6


class TestMcdiarmidTail:
    """The bounded-differences bound on the distinct count of alpha*T coupons:
    P(|distinct - (1 - e^-alpha) T| >= delta) <= 2 exp(-delta^2 / (alpha T))."""

    def test_empirical_tail_never_exceeds_bound(self):
        """10^4 runs of 693 draws from 1000 coupons: tail freq <= the bound."""
        t = 1000
        n_draws = 693
        rng = np.random.default_rng(5)
        runs = 10_000
        distinct = np.empty(runs)
        for lo in range(0, runs, 2000):
            block = np.sort(rng.integers(0, t, size=(2000, n_draws)), axis=1)
            fresh = np.ones(block.shape, dtype=bool)
            fresh[:, 1:] = block[:, 1:] != block[:, :-1]
            distinct[lo : lo + 2000] = fresh.sum(axis=1)
        alpha = n_draws / t
        center = (1 - math.exp(-alpha)) * t
        for delta in (40.0, 60.0, 100.0):
            emp = float((np.abs(distinct - center) >= delta).mean())
            bound = min(1.0, 2.0 * math.exp(-delta * delta / (alpha * t)))
            assert emp <= bound + 1e-12
