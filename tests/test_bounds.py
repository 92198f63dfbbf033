"""Exponent evaluators, kernel constants, analytic brackets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from gafzeros import (ExponentRegime, RadialEnsemble, ginibre_tail_brackets,
                      hyperbolic_one_tail_brackets, kappa, kappa_argmax,
                      poisson_kernel_bounds, poisson_tail_log_upper,
                      predicted_exponent, sum_n_log_n, sum_n_log_n_closed_form,
                      tail_log_brackets)
from gafzeros._num import lchoose


class TestSumNLogN:
    def test_first_values(self):
        assert sum_n_log_n(1).exact == 0.0
        expect = 2 * math.log(2) + 3 * math.log(3)
        assert sum_n_log_n(3).exact == pytest.approx(expect, rel=1e-14)

    def test_displayed_sandwich_at_three(self):
        s = sum_n_log_n(3)
        closed = sum_n_log_n_closed_form(3)
        assert closed == pytest.approx(0.5 * 16 * math.log(4) - 4 + 0.25, rel=1e-14)
        assert s.lower <= closed <= s.upper
        assert s.lower == pytest.approx(4.6821312, abs=1e-6)
        # direct summation: 2 log 2 + 3 log 3 + 4 log 4
        assert s.upper == pytest.approx(10.2273087, abs=1e-6)

    def test_sandwich_holds_up_to_1e4(self):
        for m in (1, 2, 7, 50, 313, 2048, 10**4):
            s = sum_n_log_n(m)
            closed = sum_n_log_n_closed_form(m)
            assert s.lower <= closed <= s.upper

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=40, deadline=None)
    def test_sandwich_property(self, m):
        s = sum_n_log_n(m)
        assert s.lower <= sum_n_log_n_closed_form(m) <= s.upper


class TestPoissonTailUpper:
    def test_value(self):
        assert poisson_tail_log_upper(1.0, 5.0) == pytest.approx(
            -5 * math.log(5) + 4, rel=1e-14)

    def test_dominates_true_tail(self):
        # oracle: direct Poisson summation
        k = np.arange(5, 400)
        true_tail = float(np.sum(np.exp(-1.0 + k * 0.0 - special.gammaln(k + 1))))
        assert true_tail <= math.exp(poisson_tail_log_upper(1.0, 5.0))
        for theta, a in ((0.5, 3.0), (2.0, 7.0), (4.0, 9.0)):
            k = np.arange(int(a), int(a) + 500)
            tail = float(np.sum(np.exp(k * math.log(theta) - theta - special.gammaln(k + 1))))
            assert tail <= math.exp(poisson_tail_log_upper(theta, a))

    def test_limit_at_theta(self):
        assert poisson_tail_log_upper(1.0, 1.0 + 1e-12) == pytest.approx(0.0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            poisson_tail_log_upper(2.0, 1.0)


class TestPredictedExponent:
    def test_examples(self):
        assert predicted_exponent(ExponentRegime.PLANAR_OVERCROWD, m=100) == pytest.approx(
            0.5 * 1e4 * math.log(100), rel=1e-12)
        assert predicted_exponent(ExponentRegime.VERY_LARGE, alpha=3.0, gamma=1.0,
                                  r=10.0) == pytest.approx(0.5e6 * math.log(10), rel=1e-12)
        assert predicted_exponent(ExponentRegime.MODERATE, alpha=1.5, gamma=2.0,
                                  r=100.0) == pytest.approx(8.0e5, rel=1e-12)

    def test_hyperbolic_lower_constructive(self):
        assert predicted_exponent(ExponentRegime.HYPERBOLIC_LOWER_CONSTRUCTIVE,
                                  m=10, r=0.5) == pytest.approx(110 * math.log(2), rel=1e-12)

    def test_hyperbolic_upper_kappa(self):
        for m, r in ((10, 0.5), (3, 0.9)):
            assert predicted_exponent(ExponentRegime.HYPERBOLIC_UPPER_KAPPA, m=m, r=r) == \
                pytest.approx(kappa(r) * m * m * math.log(r) ** 2, rel=1e-12)
        for m, r in ((10, 1.0), (0, 0.5)):
            with pytest.raises(ValueError):
                predicted_exponent(ExponentRegime.HYPERBOLIC_UPPER_KAPPA, m=m, r=r)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            predicted_exponent(ExponentRegime.PLANAR_OVERCROWD, m=100, r=1.0)
        with pytest.raises(ValueError):
            predicted_exponent(ExponentRegime.VERY_LARGE, alpha=3.0, gamma=1.0)
        with pytest.raises(ValueError):
            predicted_exponent(ExponentRegime.VERY_LARGE, alpha=1.5, gamma=1.0, r=3.0)
        with pytest.raises(ValueError):
            predicted_exponent(ExponentRegime.PLANAR_OVERCROWD, m=1)

    def test_monotone_in_m(self):
        vals = [predicted_exponent(ExponentRegime.PLANAR_OVERCROWD, m=m)
                for m in (2, 5, 20, 100)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestKernelConstants:
    def test_product_is_one(self):
        for r in (0.2, 0.5, 0.9):
            for eps in (r / 10, r / 3, 0.9 * r):
                a, b = poisson_kernel_bounds(r, eps)
                assert a * b == pytest.approx(1.0, rel=1e-14)

    def test_inf_tends_to_one(self):
        _, b = poisson_kernel_bounds(0.5, 1e-9)
        assert b == pytest.approx(1.0, abs=1e-8)

    def test_closed_form_matches_kernel_extremization(self):
        # oracle: extremize the actual disk Poisson kernel over the angle
        for r, eps in ((0.5, 0.1), (0.8, 0.3), (0.3, 0.05)):
            theta = np.linspace(0, 2 * math.pi, 2_000_001)
            w = eps  # rotation invariance: fix w on the positive axis
            kern = (r * r - eps * eps) / np.abs(r * np.exp(1j * theta) - w) ** 2
            a, b = poisson_kernel_bounds(r, eps)
            assert a == pytest.approx(float(kern.max()), rel=1e-8)
            assert b == pytest.approx(float(kern.min()), rel=1e-8)

    def test_kappa_matches_grid_search(self):
        for r in (0.3, 0.5, 0.8):
            grid = np.exp(np.linspace(math.log(1e-12), math.log(r) - 1e-9, 10**6))
            vals = (((r - grid) / (r + grid)) ** 2) / (-np.log(grid))
            assert kappa(r) == pytest.approx(float(vals.max()), abs=1e-8)
            assert 0 < kappa_argmax(r) < r

    def test_kappa_below_inverse_log(self):
        for r in (0.2, 0.5, 0.9):
            assert kappa(r) < 1.0 / abs(math.log(r))


class TestGinibreBrackets:
    def test_lower_value_at_unit_radius(self):
        (bk,) = ginibre_tail_brackets(1.0, [5])
        expect = 15 * math.log(0.5) - sum_n_log_n(5).exact
        assert bk.log_lower == pytest.approx(expect, rel=1e-14)

    def test_contains_dp_small_grid(self):
        for r in (0.5, 1.0, 2.0):
            ms = range(max(2, math.ceil(r * r)), 20)
            for bk, dp in zip(ginibre_tail_brackets(r, ms),
                              tail_log_brackets(RadialEnsemble.GINIBRE, r, ms)):
                assert bk.log_lower <= dp.log_lower <= bk.log_upper

    @pytest.mark.parametrize("r", [3.0, 6.0, 10.0])
    def test_contains_dp_from_r_squared(self, r):
        # the Chernoff factor of the upper end bounds P[Pois(r^2) >= n] only
        # for n > r^2, and the first rows from m = r^2 on have n <= r^2 in
        # their product
        ms = range(math.ceil(r * r), 301)
        for m, bk, dp in zip(ms, ginibre_tail_brackets(r, ms),
                             tail_log_brackets(RadialEnsemble.GINIBRE, r, ms)):
            assert bk.log_lower <= bk.log_upper, m
            assert bk.log_lower <= dp.log_lower <= bk.log_upper, m

    def test_lower_decreasing_in_m(self):
        vals = [bk.log_lower for bk in ginibre_tail_brackets(1.0, range(2, 30))]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_leading_term_ratio_tends_to_one(self):
        def ratio(m):
            (bk,) = ginibre_tail_brackets(1.0, [m])
            lo = bk.log_lower
            return -lo / (0.5 * m * m * math.log(m))
        r4, r5 = ratio(10**4), ratio(10**5)
        assert abs(r5 - 1.0) < abs(r4 - 1.0)
        assert abs(r5 - 1.0) < 0.05

    def test_row_range_equals_single_rows(self):
        # one call over a row range reads each m's prefix of the shared terms
        ms = range(3, 120)
        assert ginibre_tail_brackets(1.5, ms) == [ginibre_tail_brackets(1.5, [m])[0] for m in ms]
        assert ginibre_tail_brackets(1.5, []) == []

    def test_precondition(self):
        with pytest.raises(ValueError):
            ginibre_tail_brackets(2.0, [5, 3])

    @pytest.mark.parametrize("r", [1.0, 3.0, 6.0, 10.0])
    def test_matches_per_m_formula_bitwise(self, r):
        # the per-m formula, one m at a time, on the exact-tails rows
        from gafzeros.bounds import _poisson_tail_bound_series
        ms = [m for m in range(1, 301) if m >= max(1.0, r * r)]
        lam = r * r
        want = []
        for m in ms:
            n = np.arange(2, m + 1)
            s = float(math.fsum(n * np.log(n)))
            log_lower = 0.5 * m * (m + 1) * math.log(r * r / 2.0) - s
            n = np.arange(1, m + 1)
            terms = np.where(n > lam, -n * np.log(n / lam) - lam + n, 0.0)
            main = float(lchoose(m * m, m)) + float(np.sum(terms))
            log_upper = float(np.logaddexp(main, _poisson_tail_bound_series(lam, m * m + 1)))
            want.append((log_lower, min(log_upper, 0.0)))
        got = ginibre_tail_brackets(r, ms)
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestHyperbolicOneBrackets:
    def test_contains_dp(self):
        ms = [1, 2, 5, 10, 25, 60]
        for r in (0.5, 0.9):
            dps = tail_log_brackets(RadialEnsemble.HYPERBOLIC_ONE, r, ms)
            for bk, dp in zip(hyperbolic_one_tail_brackets(r, ms), dps):
                assert bk.log_lower <= dp.log_lower <= bk.log_upper

    def test_lower_is_first_m_indices_inside(self):
        (bk,) = hyperbolic_one_tail_brackets(0.5, [3])
        assert bk.log_lower == 12 * math.log(0.5)

    def test_domain(self):
        for r, m in ((1.0, 3), (0.0, 3), (0.5, -1)):
            with pytest.raises(ValueError):
                hyperbolic_one_tail_brackets(r, [m])

    @pytest.mark.parametrize("r", [0.05, 0.3, 0.5, 0.7, 0.9, 0.97, 0.999])
    def test_matches_per_m_formula_bitwise(self, r):
        # the per-m formula, one m at a time
        ms = list(range(0, 401))
        want = []
        for m in ms:
            log_lower = m * (m + 1) * math.log(r)
            log_upper = float(np.logaddexp(
                lchoose(m * m, m) + m * (m + 1) * math.log(r),
                (2 * m * m + 2) * math.log(r) - math.log1p(-r * r)))
            want.append((log_lower, log_upper))
        got = hyperbolic_one_tail_brackets(r, ms)
        assert np.array(got).tobytes() == np.array(want).tobytes()
