"""Model weights, sampling law, truncation tails."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from gafzeros import (GafModel, TruncatedGaf, _num, choose_truncation, coefficient_rows,
                      covariance, expected_count, log_sigma, log_weight, models, radial,
                      sample_coefficients, sample_truncated, stream, weight_ratio_bound)

PLANAR = GafModel.planar()
HYP1 = GafModel.hyperbolic(1.0)


def sigma(model, n):
    # the coefficient standard deviation sigma_n, exp of log_sigma
    return np.exp(log_sigma(model, n))


def tail_sd(model, degree, r):
    # the sd of the series tail past degree at radius r, exp of half its log variance
    return math.exp(0.5 * models.log_tail_variance(model, degree, r))


def naive_covariance(model, r, n_terms=400):
    # independent oracle: direct partial summation of sum sigma_n^2 r^{2n}
    n = np.arange(n_terms)
    return float(np.sum(sigma(model, n) ** 2 * r ** (2 * n)))


class TestSigma:
    def test_planar_examples(self):
        assert sigma(PLANAR, 0) == 1.0
        assert sigma(PLANAR, 4) == pytest.approx(1.0 / math.sqrt(24.0), rel=1e-14)

    def test_hyperbolic_rho_one_is_flat(self):
        for n in (0, 1, 5, 40, 1000):
            assert sigma(HYP1, n) == pytest.approx(1.0, rel=1e-12)

    def test_hyperbolic_rho_two(self):
        # Gamma(5)/(Gamma(4) Gamma(2)) = 4
        assert sigma(GafModel.hyperbolic(2.0), 3) == pytest.approx(2.0, rel=1e-13)

    def test_huge_index_stays_finite_in_log(self):
        v = log_sigma(PLANAR, 10**6)
        assert np.isfinite(v)
        v = log_sigma(GafModel.hyperbolic(0.3), 10**6)
        assert np.isfinite(v)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 2.0, 5.0, 20.0])
    def test_hyperbolic_against_mpmath(self, rho):
        # the direct gammaln(n+rho) - gammaln(n+1) is 4.2e-12 off at rho=5,
        # n=2773: it loses the ulp of two values of size n log n
        mpmath = pytest.importorskip("mpmath")
        ns = [0, 1, 10, 200, 2773, 10**6]
        got = log_sigma(GafModel.hyperbolic(rho), ns)
        with mpmath.workdps(40):
            r_ = mpmath.mpf(rho)
            want = [float((mpmath.loggamma(n + r_) - mpmath.loggamma(n + 1)
                           - mpmath.loggamma(r_)) / 2) for n in ns]
        for n, g, w in zip(ns, got, want):
            assert abs(g - w) <= 2e-15 * max(1.0, abs(w)), (n, g, w)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 2.0, 5.0, 20.0, 100.0, 1000.0])
    def test_hyperbolic_head_against_mpmath(self, rho):
        # below n = 10 the direct gammaln(n+rho) - gammaln(n+1) - gammaln(rho)
        # carries terms of the size of log Gamma(rho+n): 72x over this bound
        # at rho=1000
        mpmath = pytest.importorskip("mpmath")
        ns = list(range(10))
        got = log_sigma(GafModel.hyperbolic(rho), ns)
        with mpmath.workdps(40):
            r_ = mpmath.mpf(rho)
            want = [float((mpmath.loggamma(n + r_) - mpmath.loggamma(n + 1)
                           - mpmath.loggamma(r_)) / 2) for n in ns]
        for n, g, w in zip(ns, got, want):
            assert abs(g - w) <= 2e-15 * max(1.0, abs(w)), (n, g, w)

    @pytest.mark.parametrize("rho", [100.0, 300.0, 1000.0, 1e4, 1e5])
    def test_hyperbolic_large_rho_against_mpmath(self, rho):
        # for 10 <= n < rho, log Gamma(n+rho) - log Gamma(n+1) - log Gamma(rho)
        # cancels two terms of size rho log rho: 971x over this bound at
        # rho=1e5; the Stirling difference based at rho cancels none
        mpmath = pytest.importorskip("mpmath")
        ns = [*range(10, 81), rho / 2, rho, 2 * rho, 1e6]
        got = log_sigma(GafModel.hyperbolic(rho), ns)
        with mpmath.workdps(40):
            r_ = mpmath.mpf(rho)
            want = [float((mpmath.loggamma(n + r_) - mpmath.loggamma(n + 1)
                           - mpmath.loggamma(r_)) / 2) for n in ns]
        for n, g, w in zip(ns, got, want):
            assert abs(g - w) <= 2e-15 * max(1.0, abs(w)), (n, g, w)

    def test_hyperbolic_rho_one_is_exactly_zero(self):
        assert np.all(log_sigma(HYP1, np.arange(0, 3000)) == 0.0)
        assert log_sigma(HYP1, 10**6) == 0.0

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            sigma(PLANAR, -1)


class TestWeightLaw:
    @pytest.mark.parametrize("model", [PLANAR, *(GafModel.hyperbolic(rho)
                                                 for rho in (0.05, 0.3, 1.0, 1.5, 20.0))],
                             ids=lambda m: m.kind.value + str(m.rho or ""))
    def test_ratio_bound_bounds_every_later_ratio(self, model):
        # the 1e-12 covers the rounding of the log-weight differences
        radii = (0.5, 3.0, 20.0) if model.rho is None else (0.3, 0.9, 0.999)
        for r in radii:
            for n in (0, 1, 7, 60, 1000):
                k = np.arange(n, n + 201)
                ratios = np.exp(log_weight(model, k + 1, r) - log_weight(model, k, r))
                assert np.all(weight_ratio_bound(model, n, r) >= ratios * (1.0 - 1e-12))


class TestCovariance:
    def test_planar_at_origin(self):
        assert covariance(PLANAR, 0.0, 0.7 + 0.2j) == 1.0

    def test_hyperbolic_point(self):
        assert covariance(HYP1, 0.5, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_planar_matches_partial_sum_oracle(self):
        for r in (0.3, 1.0, 2.2):
            assert covariance(PLANAR, r, r).real == pytest.approx(
                naive_covariance(PLANAR, r), rel=1e-12)

    def test_hyperbolic_matches_partial_sum_oracle(self):
        model = GafModel.hyperbolic(2.5)
        r = 0.6
        assert covariance(model, r, r).real == pytest.approx(
            naive_covariance(model, r, n_terms=2000), rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            covariance(HYP1, 1.2, 1.0)


class TestSampling:
    def test_mean_square_is_one(self):
        rng = stream(101)
        draw = sample_coefficients(rng, 10**6 - 1)
        mean = float(np.mean(np.abs(draw) ** 2))
        assert abs(mean - 1.0) < 0.004  # 3 sigma at 1e6 draws

    def test_square_modulus_is_unit_exponential(self):
        rng = stream(102)
        draw = sample_coefficients(rng, 10**5 - 1)
        res = stats.kstest(np.abs(draw) ** 2, "expon")
        assert res.pvalue > 0.01

    def test_same_seed_same_vector(self):
        a = sample_coefficients(stream(7, 3), 100)
        b = sample_coefficients(stream(7, 3), 100)
        assert np.array_equal(a, b)

    def test_streams_disjoint(self):
        a = sample_coefficients(stream(9, 0), 50)
        b = sample_coefficients(stream(9, 1), 50)
        assert not np.allclose(a, b)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_reproducible_for_any_seed(self, seed):
        a = sample_coefficients(stream(seed), 20)
        b = sample_coefficients(stream(seed), 20)
        assert np.array_equal(a, b)


class TestTruncatedGaf:
    def test_fields_are_the_draw_at_a_radius(self):
        names = [f.name for f in dataclasses.fields(TruncatedGaf)]
        assert names == ["model", "coeffs", "radius_of_use"]

    def test_tail_variance_only_on_read(self, monkeypatch):
        calls = []
        variance = models.log_tail_variance

        def counting(*args):
            calls.append(args)
            return variance(*args)

        monkeypatch.setattr(models, "log_tail_variance", counting)
        gaf = TruncatedGaf(PLANAR, sample_coefficients(stream(1), 10), 2.0)
        sample_truncated(PLANAR, 2.0, stream(2), degree=10)
        sample_truncated(HYP1, 0.5, stream(3), degree=10)
        assert calls == []
        gaf.log_tail_sd
        assert calls == [(PLANAR, 10, 2.0)]

    @pytest.mark.parametrize("model,r", [(PLANAR, 1.0), (PLANAR, 3.0), (PLANAR, 20.0),
                                         (GafModel.hyperbolic(0.5), 0.7), (HYP1, 0.7),
                                         (GafModel.hyperbolic(2.0), 0.7)])
    def test_log_tail_sd_is_half_the_log_tail_variance(self, model, r):
        gaf = sample_truncated(model, r, stream(7))
        want = 0.5 * models.log_tail_variance(model, gaf.degree, r)
        assert gaf.log_tail_sd.hex() == want.hex()


class TestEvaluate:
    def test_constant_coefficient(self):
        vals = np.zeros(6, dtype=complex)
        vals[0] = 1.0
        gaf = TruncatedGaf(PLANAR, vals, 3.0)
        for z in (0.0, 1.0 + 1j, -2.5):
            assert gaf(z) == pytest.approx(sigma(PLANAR, 0), rel=1e-15)

    def test_linear_planar(self):
        vals = np.zeros(6, dtype=complex)
        vals[1] = 1.0
        gaf = TruncatedGaf(PLANAR, vals, 3.0)
        assert gaf(2.0) == pytest.approx(2.0, rel=1e-15)

    def test_matches_naive_summation_oracle(self):
        rng = stream(55)
        gaf = sample_truncated(PLANAR, 2.0, rng)
        z = 1.3 - 0.7j
        w = gaf.coeffs * sigma(PLANAR, np.arange(len(gaf.coeffs)))
        naive = sum(w[n] * z**n for n in range(len(w)))  # plain term-by-term
        assert abs(gaf(z) - naive) < 1e-12 * abs(naive)

    def test_outside_radius_raises(self):
        gaf = sample_truncated(PLANAR, 1.0, stream(2))
        with pytest.raises(ValueError):
            gaf(2.0)

    def test_matches_polyval_bitwise(self):
        # the in-place Horner kernel repeats polyval's operations exactly, on
        # the row c_k at s = radius_of_use in u = z/s, times e^L
        def same_bits(a, b):
            a, b = np.asarray(a), np.asarray(b)
            return a.shape == b.shape and a.tobytes() == b.tobytes()

        def polyval(z, w):
            u = np.asarray(np.asarray(z, dtype=complex) / 2.0)
            return math.exp(big_l) * np.asarray(np.polynomial.polynomial.polyval(u, w))

        rng = stream(56)
        for degree in (0, 1, 7, 43):
            gaf = sample_truncated(PLANAR, 2.0, rng, degree=degree)
            (w,), (big_l,), _, _ = coefficient_rows([gaf], [2.0])
            for shape in ((1,), (2,), (257,), (3, 5)):
                z = 1.9 * rng.random(shape) * np.exp(2j * math.pi * rng.random(shape))
                z.flat[0] = complex(math.nan, 0.5)
                got = gaf(z)
                assert isinstance(got, np.ndarray)
                assert same_bits(got, polyval(z, w))
            for z in (1.3 - 0.7j, -0.9, np.asarray(0.2 + 1.1j), [0.5j, -1.25]):
                got = gaf(z)
                want = polyval(z, w)
                if np.ndim(z) == 0:
                    assert isinstance(got, complex)
                    want = complex(want)
                assert same_bits(got, want)

    def test_matches_mpmath_at_large_radius(self):
        # at planar r = 18 the weights a_k sigma_k are 0 from k = 314, where
        # the terms a_k sigma_k z^k are still near their largest; on 4096
        # circle nodes the values lie within 1e-9 max |f| of the 60-digit sum
        # of the draw, the DFT of a_k sigma_k r^k taken by a radix-2 FFT
        mpmath = pytest.importorskip("mpmath")
        r, n = 18.0, 4096
        gaf = sample_truncated(PLANAR, r, stream(11, 0))
        got = gaf(r * np.exp(2j * math.pi * np.arange(n) / n))
        with mpmath.workdps(60):
            b = [mpmath.mpc(complex(a)) * mpmath.mpf(r) ** k / mpmath.sqrt(mpmath.factorial(k))
                 for k, a in enumerate(gaf.coeffs)]
            b += [mpmath.mpc(0)] * (n - len(b))
            turn = [mpmath.expjpi(mpmath.mpf(2 * j) / n) for j in range(n // 2)]

            def dft(x):
                # sum_k x_k e^{2 pi i j k/len(x)}, j < len(x)
                m = len(x)
                if m == 1:
                    return x
                even, odd = dft(x[0::2]), dft(x[1::2])
                t = [turn[j * (n // m)] * odd[j] for j in range(m // 2)]
                return [e + u for e, u in zip(even, t)] + [e - u for e, u in zip(even, t)]

            want = np.array([complex(v) for v in dft(b)])
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


class TestTailSd:
    def test_monotone_decreasing_to_zero(self):
        vals = [tail_sd(PLANAR, n, 1.5) for n in range(0, 40, 5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-12

    def test_planar_value(self):
        assert tail_sd(PLANAR, 0, 1.0) == pytest.approx(math.sqrt(math.e - 1.0), rel=1e-12)

    def test_hyperbolic_geometric_tail(self):
        expect = math.sqrt(0.25**10 / 0.75)
        assert tail_sd(HYP1, 9, 0.5) == pytest.approx(expect, rel=1e-12)

    def test_planar_matches_direct_summation_oracle(self):
        r, n0 = 1.7, 12
        n = np.arange(n0 + 1, 200)
        oracle = math.sqrt(float(np.sum(np.exp(2 * n * math.log(r) - special.gammaln(n + 1)))))
        assert tail_sd(PLANAR, n0, r) == pytest.approx(oracle, rel=1e-12)

    def test_hyperbolic_matches_beta_identity_oracle(self):
        # sum_{n>N} C(n+rho-1,n) x^n = (1-x)^{-rho} I_x(N+1, rho)
        for rho, r, n0 in ((2.3, 0.55, 9), (0.3, 0.9999, 10)):
            model = GafModel.hyperbolic(rho)
            x = r * r
            oracle = math.sqrt((1 - x) ** (-model.rho) * special.betainc(n0 + 1, model.rho, x))
            assert tail_sd(model, n0, r) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("rho", [1.5, 2.0, 5.0])
    def test_hyperbolic_ratio_bound_bounds_every_term_ratio(self, rho, monkeypatch):
        # certified_log_series needs ratio_bound(n) >= term(n+1)/term(n) from
        # its start index on
        seen = []
        series = _num.certified_log_series

        def spy(log_term, start, ratio_bound, **kw):
            seen.append((log_term, start, ratio_bound))
            return series(log_term, start, ratio_bound, **kw)

        monkeypatch.setattr(_num, "certified_log_series", spy)
        model = GafModel.hyperbolic(rho)
        for r in (0.5, 0.9, 0.99):
            for degree in (-1, 0, 3, 40):
                tail_sd(model, degree, r)
        assert len(seen) == 12
        for log_term, start, ratio_bound in seen:
            for n in range(start, start + 300):
                true_ratio = math.exp(log_term(n + 1) - log_term(n))
                assert ratio_bound(n) >= true_ratio * (1.0 - 1e-12)


class TestCertifiedLogSeries:
    def test_head_with_ratios_above_one_matches_mpmath(self):
        # planar weights sigma_n r^n at r=5 from n=0: the term ratios
        # 5/sqrt(n+1) exceed 1 up to n=24, inside the first block
        mpmath = pytest.importorskip("mpmath")
        r = 5.0
        got = _num.certified_log_series(
            lambda n: n * math.log(r) - 0.5 * special.gammaln(n + 1), 0,
            lambda n: r / math.sqrt(n + 1.0), rel_tol=1e-18)
        with mpmath.workdps(40):
            oracle = mpmath.log(mpmath.nsum(
                lambda n: mpmath.mpf(5) ** n / mpmath.sqrt(mpmath.factorial(n)),
                [0, mpmath.inf]))
            rel = float(mpmath.expm1(mpmath.mpf(got) - oracle))
        assert abs(rel) <= 1e-13
        assert rel >= -1e-14

    def test_block_walk_near_the_boundary(self, monkeypatch):
        # at rho=0.5, r=0.999 the squared weights fall by about r^2 per index, so a
        # tail sum takes about 2e4 terms; blocks doubling from 64 evaluate
        # log_terms at most log2(10**6 / 64) + 1 = 15 times per series
        calls = []
        series = _num.certified_log_series

        def spy(log_terms, start, ratio_bound, **kw):
            calls.append(0)

            def counted(n):
                calls[-1] += 1
                return log_terms(n)

            return series(counted, start, ratio_bound, **kw)

        monkeypatch.setattr(_num, "certified_log_series", spy)
        assert choose_truncation(GafModel.hyperbolic(0.5), 0.999) == 19505
        assert calls and max(calls) <= 15


def ref_log_poisson_tail(lam, n):
    # log P[Pois(lam) >= n], the per-call form ``_num.log_gamma_lower`` replaced
    if n <= 0:
        return 0.0
    v = special.gammainc(n, lam)
    if v > 1e-280:
        return float(np.log(v))
    s, term = 1.0, 1.0
    for j in range(1, 500):
        term *= lam / (n + j)
        s += term
        if term < 1e-17 * s:
            break
    return n * math.log(lam) - lam - float(special.gammaln(n + 1)) + math.log(s)


def ref_ginibre_log_p(r, n):
    # log p_n of a Ginibre profile, per index where gammainc underflows
    lam = r * r
    out = np.empty(len(n))
    lin = special.gammainc(n, lam)
    ok = lin > 1e-280
    out[ok] = np.log(lin[ok])
    for i in np.nonzero(~ok)[0]:
        out[i] = ref_log_poisson_tail(lam, int(n[i]))
    return out


def mp_log_gamma_lower(a, log_x):
    # log P(a, x) to 60 digits, through the upper function above x = a
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        x = mpmath.exp(mpmath.mpf(log_x))
        if x < a:
            return float(mpmath.log(mpmath.gammainc(a, 0, x, regularized=True)))
        return float(mpmath.log1p(-mpmath.gammainc(a, x, mpmath.inf, regularized=True)))


class TestLogGammaLower:
    @pytest.mark.parametrize("a", [1, 2, 5, 20, 100, 1000, 20000])
    def test_against_mpmath(self, a):
        pytest.importorskip("mpmath")
        log_xs = [-700.0, -50.0, -5.0, -1.0, 0.0, 1.0, 5.0, 10.0, 100.0, 700.0,
                  *(math.log(a) + d for d in (-0.5, -0.01, 0.0, 0.5))]
        branches = set()
        for log_x in log_xs:
            x = math.exp(log_x)
            branches.add(bool(special.gammainc(a, x) > 1e-280))
            got = _num.log_gamma_lower(a, x, log_x)
            want = mp_log_gamma_lower(a, log_x)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (log_x, got, want)
        assert branches == {True, False}

    @pytest.mark.parametrize("a", [1, 5, 100, 20000])
    @pytest.mark.parametrize("log_x", [-800.0, -2000.0])
    def test_underflowed_x_against_mpmath(self, a, log_x):
        # x = e^{log x} is 0 as a double; the series reads log x
        got = _num.log_gamma_lower(a, 0.0, log_x)
        assert got == pytest.approx(mp_log_gamma_lower(a, log_x), rel=1e-15)

    @pytest.mark.parametrize("lam", [1e-6, 0.25, 1.0, 9.0, 36.0, 100.0, 900.0, 2500.0])
    def test_scalar_matches_poisson_tail_reference(self, lam):
        for n in (0, 1, 2, 5, 10, 50, 100, 300, 1000, 3000, 10000):
            got = _num.log_gamma_lower(n, lam, math.log(lam))
            assert got.hex() == ref_log_poisson_tail(lam, n).hex(), (lam, n)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0, 6.0, 10.0, 15.0, 25.0, 30.0])
    def test_ginibre_profile_matches_reference(self, r):
        # the benchmark's Ginibre radii (1, 3, 6, 10) and beyond, 20 indices past
        # the first one priced by the series; the neglected mass is p_{n+1} / (1 - q)
        lam = r * r
        deep = next(n for n in range(1, 10**5) if not special.gammainc(n, lam) > 1e-280)
        prof = radial.bernoulli_probs(radial.RadialEnsemble.GINIBRE, r, min_terms=deep + 20)
        n = np.arange(1, prof.size + 1)
        assert np.array_equal(prof.log_probs, ref_ginibre_log_p(r, n))
        q = (lam / (prof.size + 2)) / (1.0 - lam / (prof.size + 3))
        assert prof.log_neglected == ref_log_poisson_tail(lam, prof.size + 1) - math.log1p(-q)

    def test_array_matches_scalar_calls(self):
        a = np.arange(0, 3000)
        got = _num.log_gamma_lower(a, 100.0, math.log(100.0))
        assert np.array_equal(got, [_num.log_gamma_lower(int(k), 100.0, math.log(100.0))
                                    for k in a])

    def test_negative_a_raises(self):
        with pytest.raises(ValueError):
            _num.log_gamma_lower(-1, 2.0, math.log(2.0))
        with pytest.raises(ValueError):
            _num.log_gamma_lower(np.array([1.0, -0.5]), 2.0, math.log(2.0))

    def test_unsettled_series_raises(self):
        # at a = 1e9, x = a - 40 sqrt(a) gammainc underflows and the term ratios
        # stay near 1 - 1.3e-3, so 10 000 terms leave the series unsettled
        a = 1e9
        x = a - 40.0 * math.sqrt(a)
        with pytest.raises(RuntimeError, match="not settled"):
            _num.log_gamma_lower(a, x, math.log(x))


class TestInverseConditionalGamma:
    @pytest.mark.parametrize("shape,log_s", [(1, 0.5), (5, 2.0), (40, -3.0),
                                             (6349, -1111.4267662665443),
                                             (15925, -2561.4943046304397)])
    def test_solves_the_conditional_cdf(self, shape, log_s):
        # the last two are moderate windows (r = 60 and 100 at alpha 1.8,
        # gamma 2) whose cap s and quantiles lie below the smallest double
        s = math.exp(min(log_s, 700.0))
        for u in np.random.default_rng(3).random(50):
            t = _num.inverse_conditional_gamma(shape, log_s, float(u))
            assert t <= log_s
            target = math.log(u) + _num.log_gamma_lower(shape, s, log_s)
            lf = _num.log_gamma_lower(shape, math.exp(t), t)
            assert abs(lf - target) <= 1e-10 * max(1.0, abs(target))

    def test_unsettled_newton_raises(self, monkeypatch):
        # a log F that never moves toward the target leaves every step at -2
        monkeypatch.setattr(_num, "log_gamma_lower", lambda a, x, log_x: -1.0)
        with pytest.raises(RuntimeError, match="not settled"):
            _num.inverse_conditional_gamma(3, 0.0, 0.5)


class TestExpectedCount:
    def test_planar(self):
        assert expected_count(PLANAR, 2.0) == 4.0
        assert expected_count(PLANAR, 1e-9) == pytest.approx(0.0, abs=1e-17)

    def test_hyperbolic_value_and_series_oracle(self):
        # radial law at index one gives E n(r) = sum_n r^{2n}
        r = 0.5
        oracle = sum(r ** (2 * n) for n in range(1, 200))
        assert expected_count(HYP1, r) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert expected_count(HYP1, r) == pytest.approx(oracle, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            expected_count(HYP1, 1.0)
        with pytest.raises(ValueError):
            expected_count(PLANAR, -1.0)


class TestNormalization:
    def test_partial_sum_plus_tail_matches_covariance(self):
        rng = stream(303)
        for _ in range(50):
            if rng.random() < 0.5:
                model = PLANAR
                r = 0.2 + 2.8 * rng.random()
            else:
                model = GafModel.hyperbolic(0.3 + 3.0 * rng.random())
                r = 0.1 + 0.8 * rng.random()
            n_max = int(rng.integers(0, 30))
            n = np.arange(n_max + 1)
            partial = float(np.sum(sigma(model, n) ** 2 * r ** (2 * n)))
            total = partial + tail_sd(model, n_max, r) ** 2
            cov = covariance(model, r, r).real
            assert abs(total - cov) / cov < 1e-10


class TestTruncation:
    def test_choose_truncation_is_tight(self):
        for model, r in ((PLANAR, 2.0), (HYP1, 0.5), (GafModel.hyperbolic(2.0), 0.7)):
            n = choose_truncation(model, r)
            target = 1e-9 * math.sqrt(covariance(model, r, r).real)
            assert tail_sd(model, n, r) <= target
            assert n == 0 or tail_sd(model, n - 1, r) > target

    def test_target_from_closed_form_log_covariance(self):
        # the target reads log covariance(r, r) in closed form; wherever
        # covariance(r, r) itself is finite the degrees are those of the
        # covariance formula, and planar r >= 26.7, where exp(r^2) overflows,
        # no longer gets degree 0
        log_tol = math.log(1e-9)
        cases = [(PLANAR, 0.05 + 0.35 * i) for i in range(76)]
        cases += [(GafModel.hyperbolic(rho), r) for rho in (0.3, 1.0, 5.0)
                  for r in (0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99)]
        for model, r in cases:
            n = choose_truncation(model, r)
            target = 2.0 * (log_tol + 0.5 * math.log(abs(covariance(model, r, r))))
            assert models.log_tail_variance(model, n, r) <= target
            assert n == 0 or models.log_tail_variance(model, n - 1, r) > target
        degrees = [choose_truncation(PLANAR, r) for r in np.arange(20.0, 40.01, 0.5)]
        assert all(math.isfinite(d) and d > 0 for d in degrees)
        assert all(a <= b for a, b in zip(degrees, degrees[1:]))
        assert choose_truncation(PLANAR, 26.7) > choose_truncation(PLANAR, 26.5) > 0
