"""Winding counts, roots, circle means, certification."""

import math

import numpy as np
import pytest

from gafzeros import (GafModel, InconclusiveCount, RootsDidNotConverge,
                      circle_mean_log_abs, count_in_disk, count_with_retry,
                      count_zeros_winding, experiments, find_roots,
                      jensen_residual, max_modulus, rouche_certify,
                      sample_truncated, stream, zeros)
from gafzeros._num import horner

PLANAR = GafModel.planar()


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def polyval(x, c):
    return np.polynomial.polynomial.polyval(x, c)


class TestHorner:
    def test_matches_polyval_bitwise(self):
        rng = np.random.default_rng(7)
        for degree in (0, 1, 2, 9, 43, 120):
            c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            c *= np.exp(3.0 * rng.standard_normal(degree + 1))
            for n in (1, 2, 3, 64, 513):
                z = 2.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                assert same_bits(horner(c, z), polyval(z, c))
                assert same_bits(horner(np.abs(c), np.abs(z)), polyval(np.abs(z), np.abs(c)))

    def test_scalar_points(self):
        rng = np.random.default_rng(9)
        c = rng.standard_normal(31) + 1j * rng.standard_normal(31)
        for _ in range(50):
            z = np.asarray(complex(*(1.5 * rng.standard_normal(2))))
            got = horner(c, z)
            assert got.ndim == 0
            assert same_bits(got, polyval(z, c))
        assert same_bits(horner(c[:1], np.asarray(0.5j)), polyval(np.asarray(0.5j), c[:1]))

    def test_nonfinite_points(self):
        c = np.array([1.0 + 2.0j, -0.5j, 0.25, 1e-3 - 1j])
        z = np.array([np.inf, -np.inf + 1j, complex(np.nan, 0.0), complex(1.0, np.inf),
                      1e200 + 1e200j, 0.5 + 0.5j])
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = horner(c, z), polyval(z, c)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        fin = np.isfinite(want)
        assert same_bits(got[fin], want[fin])
        assert same_bits(got[np.isinf(want)], want[np.isinf(want)])

    def test_value_and_slope_rows(self):
        # one pass over [z, z] gives polyval(c, z), then polyval(c', z)
        rng = np.random.default_rng(8)
        for degree in (2, 5, 43, 150):
            c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            dc = c[1:] * np.arange(1, degree + 1)
            z = 1.5 * (rng.standard_normal(degree) + 1j * rng.standard_normal(degree))
            pdp = horner(zeros._value_and_slope_rows(c), np.concatenate([z, z]))
            assert same_bits(pdp[:degree], polyval(z, c))
            assert same_bits(pdp[degree:], polyval(z, dc))


class TestWinding:
    def test_pure_power(self):
        res = count_zeros_winding(lambda z: z**3, 1.0, 1e-12)
        assert res.count == 3
        assert res.certified

    def test_roots_outside(self):
        res = count_zeros_winding(lambda z: (z - 2) * (z - 3), 1.0, 1e-9)
        assert res.count == 0

    def test_inconclusive_near_zero_on_circle(self):
        # a root a hair off the circle: the floor test must trip
        with pytest.raises(InconclusiveCount):
            count_zeros_winding(lambda z: z - (1.0 + 1e-14), 1.0, 1e-6)

    def test_matches_root_count_on_random_polynomials(self):
        rng = stream(11)
        for _ in range(200):
            deg = int(rng.integers(5, 51))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            r = 0.5 + 2.5 * rng.random()
            roots = find_roots(c)
            if np.min(np.abs(np.abs(roots) - r)) < 1e-6 * r:
                continue  # zero essentially on the test circle
            f = lambda z: np.polynomial.polynomial.polyval(z, c)
            res, _ = count_with_retry(f, r, 0.0, require_certified=False)
            assert res.count == count_in_disk(roots, r)

    def test_rotation_invariance(self):
        rng = stream(12)
        u = np.exp(1j * 0.7331)
        for _ in range(25):
            gaf = sample_truncated(PLANAR, 2.0, rng)
            g = lambda z: gaf(u * z)
            a, _ = count_with_retry(gaf, 2.0, 0.0, require_certified=False)
            b, _ = count_with_retry(g, 2.0, 0.0, require_certified=False)
            assert a.count == b.count

    def test_count_is_nonnegative_integer(self):
        rng = stream(13)
        for _ in range(50):
            gaf = sample_truncated(PLANAR, 1.5, rng)
            res, _ = count_with_retry(gaf, 1.5, 0.0, require_certified=False)
            assert res.count >= 0


class TestRoots:
    def test_quadratic(self):
        roots = np.sort_complex(find_roots([-1.0, 0.0, 1.0]))
        assert np.allclose(roots, [-1.0, 1.0], atol=1e-12)

    def test_triple_zero(self):
        roots = find_roots([0.0, 0.0, 0.0, 1.0])
        assert len(roots) == 3
        assert np.max(np.abs(roots)) < 1e-8

    def test_residuals_on_random_degree_30(self):
        rng = stream(21)
        for _ in range(20):
            c = rng.standard_normal(31) + 1j * rng.standard_normal(31)
            roots = find_roots(c)
            scale = np.polynomial.polynomial.polyval(np.abs(roots), np.abs(c))
            resid = np.abs(np.polynomial.polynomial.polyval(roots, c))
            assert np.all(resid <= 1e-10 * scale)

    def test_nonconvergence_flags_partial_result(self):
        rng = stream(22)
        c = rng.standard_normal(26) + 1j * rng.standard_normal(26)
        with pytest.raises(RootsDidNotConverge) as err:
            find_roots(c, max_iter=1, residual_tol=1e-14)
        assert err.value.roots is not None

    def test_wide_magnitude_profile(self):
        # weighted planar coefficients at radius 3 span many orders
        gaf = sample_truncated(PLANAR, 3.0, stream(23))
        roots = find_roots(gaf.weighted_coefficients)
        assert len(roots) == gaf.degree

    def test_extreme_scales_never_lie(self):
        # overflow-prone inputs must either agree with the winding oracle or
        # raise; a NaN residual may never slip through as a pass
        rng = np.random.default_rng(4242)
        for _ in range(60):
            deg = int(rng.integers(90, 160))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            c *= np.exp(rng.standard_normal(deg + 1) * 4)
            r = 0.5 + 2.0 * rng.random()
            try:
                roots = find_roots(c)
            except RootsDidNotConverge:
                continue
            f = lambda z: np.polynomial.polynomial.polyval(z, c)
            res, _ = count_with_retry(f, r, 0.0, require_certified=False)
            assert res.count == count_in_disk(roots, r)


class TestCircleMean:
    def test_constant(self):
        assert circle_mean_log_abs(lambda z: 0 * z + 3.7, 1.0, 1e-10) == pytest.approx(
            math.log(3.7), abs=1e-10)

    def test_root_outside_mean_value(self):
        a = 2.5
        got = circle_mean_log_abs(lambda z: z - a, 1.0, 1e-10)
        assert got == pytest.approx(math.log(a), abs=1e-9)

    def test_root_inside_gives_log_radius(self):
        a = 0.3 + 0.1j
        s = 1.7
        got = circle_mean_log_abs(lambda z: z - a, s, 1e-10)
        assert got == pytest.approx(math.log(s), abs=1e-9)

    def test_hard_floor(self):
        with pytest.raises(InconclusiveCount):
            circle_mean_log_abs(lambda z: 0 * z, 1.0, 1e-8)


class TestJensen:
    def test_identity_on_random_draws(self):
        rng = stream(31)
        for _ in range(25):
            gaf = sample_truncated(PLANAR, 2.5, rng, degree=20)
            check = jensen_residual(gaf, 2.0, 2.5)
            assert check.residual < 1e-6

    def test_no_zeros_in_annulus(self):
        # f = (z - 3)(z - 4): integral over [1, 2] counts nothing new
        c = np.array([12.0, -7.0, 1.0], dtype=complex)
        draw_vals = c / np.array([1.0, 1.0, math.sqrt(0.5)])  # undo sigma weights
        from gafzeros import CoefficientDraw, make_truncated
        gaf = make_truncated(PLANAR, CoefficientDraw(values=draw_vals), 2.0)
        check = jensen_residual(gaf, 1.0, 2.0)
        assert check.integral_n_over_u == pytest.approx(0.0, abs=1e-12)

    def test_empty_annulus_with_interior_roots(self):
        # f = (z - 0.5)(z - 3): one root inside r, none in the annulus, so the
        # integral collapses to n(r) log(R/r)
        c = np.array([1.5, -3.5, 1.0], dtype=complex)
        draw_vals = c / np.array([1.0, 1.0, math.sqrt(0.5)])
        from gafzeros import CoefficientDraw, make_truncated
        gaf = make_truncated(PLANAR, CoefficientDraw(values=draw_vals), 2.0)
        check = jensen_residual(gaf, 1.0, 2.0)
        assert check.integral_n_over_u == pytest.approx(math.log(2.0), rel=1e-12)
        assert check.residual < 1e-8

    def test_returns_the_roots_it_used(self):
        gaf = sample_truncated(PLANAR, 2.5, stream(33))
        check = jensen_residual(gaf, 2.0, 2.5)
        assert same_bits(check.roots, find_roots(gaf.weighted_coefficients))
        assert "roots" not in repr(check)

    def test_jensen_chunk_solves_roots_once_per_trial(self, monkeypatch):
        calls = {"find_roots": 0, "jensen_residual": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(zeros, name, counted(name, getattr(zeros, name)))
        trials = 24
        _, rows = experiments._jensen_chunk((0.5, 3.0, 1.25, 1e-8, 100.0, 0, 0, trials))
        assert len(rows) == trials
        assert calls["jensen_residual"] > 0
        assert calls["find_roots"] == calls["jensen_residual"]

    def test_count_inequality(self):
        rng = stream(32)
        for _ in range(25):
            gaf = sample_truncated(PLANAR, 2.5, rng, degree=25)
            res, _ = count_with_retry(gaf, 2.0, 0.0, require_certified=False)
            check = jensen_residual(gaf, 2.0, 2.5)
            assert res.count * math.log(2.5 / 2.0) <= check.integral_n_over_u + 1e-9


class TestRouche:
    def test_zero_tail_bound(self):
        gaf = sample_truncated(PLANAR, 1.0, stream(41))
        assert rouche_certify(gaf, 1.0, 0.0)

    def test_power_analogy(self):
        # min |z^5| on |z|=0.9 is 0.9^5; anything smaller certifies
        from gafzeros import CoefficientDraw, make_truncated, sigma
        vals = np.zeros(6, dtype=complex)
        vals[5] = 1.0 / sigma(PLANAR, 5)
        gaf = make_truncated(PLANAR, CoefficientDraw(values=vals), 0.9)
        assert rouche_certify(gaf, 0.9, 0.5 * 0.9**5)
        assert not rouche_certify(gaf, 0.9, 2.0 * 0.9**5)

    def test_certificates_agree_with_deeper_truncation(self):
        # statistical soundness: passing certificates never disagree with a
        # twice-deeper truncation's count
        rng = stream(42)
        disagreements = 0
        checked = 0
        for _ in range(300):
            gaf = sample_truncated(PLANAR, 1.0, rng)
            deeper = sample_truncated(PLANAR, 1.0, rng, degree=2 * gaf.degree)
            vals = deeper.coeffs.values.copy()
            vals[: gaf.degree + 1] = gaf.coeffs.values
            from gafzeros import CoefficientDraw, make_truncated
            deeper = make_truncated(PLANAR, CoefficientDraw(values=vals), 1.0)
            floor = 100.0 * gaf.tail_sd
            try:
                res, _ = count_with_retry(gaf, 1.0, floor)
            except InconclusiveCount:
                continue
            checked += 1
            res2, _ = count_with_retry(deeper, 1.0, 0.0, require_certified=False)
            disagreements += res.count != res2.count
        assert checked > 250
        assert disagreements == 0


class TestMaxModulus:
    def test_power(self):
        assert max_modulus(lambda z: z**4, 1.3) == pytest.approx(1.3**4, rel=1e-9)

    def test_constant(self):
        assert max_modulus(lambda z: 0 * z + (3 - 4j), 2.0) == pytest.approx(5.0, rel=1e-12)

    def test_fine_grid_oracle(self):
        gaf = sample_truncated(PLANAR, 2.0, stream(51))
        got = max_modulus(gaf, 2.0)
        theta = np.linspace(0, 2 * math.pi, 1 << 18, endpoint=False)
        oracle = float(np.abs(gaf(2.0 * np.exp(1j * theta))).max())
        assert got == pytest.approx(oracle, rel=1e-6)
