"""Winding counts, roots, circle means, certification."""

import csv
import math

import numpy as np
import pytest

from gafzeros import (GafModel, InconclusiveCount, RootsDidNotConverge, TruncatedGaf,
                      choose_truncation, circle_mean_log_abs, count_in_disk, count_replicas,
                      count_with_retry, count_zeros_winding, direct_mc_tail,
                      experiments, find_roots, find_roots_many, jensen_residual,
                      make_truncated, max_modulus, sample_truncated, stream, zeros)
from gafzeros._num import horner
from gafzeros.models import log_sigma

PLANAR = GafModel.planar()
MAX_NODES = zeros.MAX_NODES


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def polyval(x, c):
    return np.polynomial.polynomial.polyval(x, c)


def rouche(gaf, r, tail_bound, **kwargs):
    # the Rouche certificate: the certified flag of a winding count with
    # tail_bound as its floor, False where the count is inconclusive
    try:
        return count_zeros_winding(gaf, r, tail_bound, **kwargs).certified
    except InconclusiveCount:
        return False


def extreme_scale_draws(n):
    # overflow-prone polynomials with coefficient magnitudes spread over
    # e^{+-12}, and a test radius for each
    rng = np.random.default_rng(4242)
    draws = []
    for _ in range(n):
        deg = int(rng.integers(90, 160))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        c *= np.exp(rng.standard_normal(deg + 1) * 4)
        draws.append((c, 0.5 + 2.0 * rng.random()))
    return draws


def solve_outcome(roots):
    # a find_roots_many entry as (message, root bits); message None on success
    if isinstance(roots, RootsDidNotConverge):
        return str(roots), roots.roots.tobytes()
    return None, roots.tobytes()


def solve_with(fn, c, **kwargs):
    # solve_outcome of fn(c), a one-polynomial solver that raises on failure
    try:
        return solve_outcome(fn(c, **kwargs))
    except RootsDidNotConverge as exc:
        return solve_outcome(exc)


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
        # one pass over [z, z] gives polyval(c, z), then polyval(c', z), for
        # one polynomial and, columns padded at the top, for several at once
        rng = np.random.default_rng(8)
        cs, zs = [], []
        for degree in (2, 5, 43, 150):
            c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            dc = c[1:] * np.arange(1, degree + 1)
            z = 1.5 * (rng.standard_normal(degree) + 1j * rng.standard_normal(degree))
            pdp = horner(zeros._value_and_slope_rows([c]), np.concatenate([z, z]))
            assert same_bits(pdp[:degree], polyval(z, c))
            assert same_bits(pdp[degree:], polyval(z, dc))
            cs.append(c)
            zs.append(z)
        z = np.concatenate(zs)
        n = len(z)
        pdp = horner(zeros._value_and_slope_rows(cs), np.concatenate([z, z]))
        lo = 0
        for c, zj in zip(cs, zs):
            d = len(zj)
            assert same_bits(pdp[lo:lo + d], polyval(zj, c))
            assert same_bits(pdp[n + lo:n + lo + d], polyval(zj, c[1:] * np.arange(1, d + 1)))
            lo += d


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
            res = count_zeros_winding(f, r, 0.0)
            assert res.count == count_in_disk(roots, r)

    def test_rotation_invariance(self):
        rng = stream(12)
        u = np.exp(1j * 0.7331)
        for _ in range(25):
            gaf = sample_truncated(PLANAR, 2.0, rng)
            g = lambda z: gaf(u * z)
            a = count_zeros_winding(gaf, 2.0, 0.0)
            b = count_zeros_winding(g, 2.0, 0.0)
            assert a.count == b.count

    def test_count_is_nonnegative_integer(self):
        rng = stream(13)
        for _ in range(50):
            gaf = sample_truncated(PLANAR, 1.5, rng)
            res = count_zeros_winding(gaf, 1.5, 0.0)
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
        draws = extreme_scale_draws(60)
        for (c, r), roots in zip(draws, find_roots_many([c for c, _ in draws])):
            if isinstance(roots, RootsDidNotConverge):
                continue
            f = lambda z: np.polynomial.polynomial.polyval(z, c)
            try:
                res = count_zeros_winding(f, r, 0.0)
            except InconclusiveCount:
                # the oracle cannot resolve a root within about one node
                # spacing of the circle at the node cap
                assert np.min(np.abs(np.abs(roots) - r)) < 2.0 * math.pi * r / MAX_NODES
                continue
            assert res.count == count_in_disk(roots, r)


def ref_initial_root_guesses(coeffs):
    # reference copy of the start points, one hull segment at a time
    mags = np.abs(coeffs)
    with np.errstate(divide="ignore"):
        logm = np.where(mags > 0, np.log(np.maximum(mags, 1e-300)), -np.inf)
    pts = [(i, y) for i, y in enumerate(logm.tolist()) if math.isfinite(y)]
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    guesses = []
    for seg, ((k1, u1), (k2, u2)) in enumerate(zip(hull[:-1], hull[1:])):
        cnt = k2 - k1
        radius = math.exp((u1 - u2) / cnt)
        ang = 2.0 * math.pi * (np.arange(cnt) + 0.375) / cnt + 0.61 * seg
        guesses.append(radius * np.exp(1j * ang))
    return np.concatenate(guesses)


def ref_find_roots(coeffs, *, residual_tol=1e-10, max_iter=200):
    # reference copy of the one-polynomial Aberth loop that find_roots_many
    # batches; it evaluates all deg roots per step and pulls back all of them
    c = np.asarray(coeffs, dtype=complex)
    nz = np.nonzero(np.abs(c))[0]
    c = c[: nz[-1] + 1]
    roots_at_zero = np.zeros(nz[0], dtype=complex)
    c = c[nz[0]:]
    deg = len(c) - 1
    if deg == 0:
        return roots_at_zero
    if deg == 1:
        return np.concatenate([roots_at_zero, [-c[0] / c[1]]])
    dc = c[1:] * np.arange(1, deg + 1)
    cc = np.repeat(np.stack([c, np.append(dc, 0)], axis=1), deg, axis=1)
    z = ref_initial_root_guesses(c)
    done = np.zeros(deg, dtype=bool)

    def values(z):
        pdp = horner(cc, np.concatenate([z, z]))
        return pdp[:deg], pdp[deg:]

    def values_with_pullback(z):
        p, dp = values(z)
        for _ in range(200):
            nonfin = ~(np.isfinite(p) & np.isfinite(dp))
            if not np.any(nonfin):
                break
            z = np.where(nonfin, 0.7 * z, z)
            p_new, dp_new = values(z)
            p = np.where(nonfin, p_new, p)
            dp = np.where(nonfin, dp_new, dp)
        return z, p, dp

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            z, p, dp = values_with_pullback(z)
            dp = np.where(dp == 0, 1e-30, dp)
            w = p / dp
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            s = (1.0 / diff).sum(axis=1)
            denom = 1.0 - w * s
            denom = np.where(denom == 0, 1e-30, denom)
            corr = np.where(done, 0.0, w / denom)
            z = z - corr
            done |= np.abs(corr) <= 1e-14 * (1.0 + np.abs(z))
            if done.all():
                break
        for _ in range(2):
            z, p, dp = values_with_pullback(z)
            dp = np.where(dp == 0, 1e-30, dp)
            step = p / dp
            z = z - np.where(np.isfinite(step), step, 0.0)
        scale = horner(np.abs(c), np.abs(z))
        resid = np.abs(horner(c, z))
    roots = np.concatenate([roots_at_zero, z])
    rel = resid / np.maximum(scale, 1e-300)
    ok = np.isfinite(rel) & (rel <= residual_tol)
    if not np.all(ok):
        worst = float(np.nanmax(np.where(np.isfinite(rel), rel, np.inf)))
        raise RootsDidNotConverge(f"max relative residual {worst:.3e}", roots=roots)
    return roots


class TestFindRootsMany:
    """find_roots_many gives every polynomial the bits of its own find_roots."""

    def test_degrees_and_zero_padding_match_single_solves(self):
        rng = np.random.default_rng(99)
        polys = []
        for degree in range(161):
            c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            polys.append(c * np.exp(2.0 * rng.standard_normal(degree + 1)))
        # leading zeros are roots at 0, trailing zeros lower the degree
        polys += [np.concatenate([np.zeros(lead), polys[deg], np.zeros(trail)])
                  for lead, trail, deg in ((1, 0, 12), (0, 2, 37), (3, 4, 5), (2, 0, 1),
                                           (0, 3, 0), (1, 1, 2))]
        polys.insert(80, polys.pop(3))  # out of degree order
        got = find_roots_many(polys)
        assert sum(len(c) - 1 for c in polys) > 4 * zeros.ROOT_BLOCK
        assert [solve_outcome(x) for x in got] == [solve_with(find_roots, c) for c in polys]
        # and the bits of the one-polynomial reference loop, zero padding included
        some = [*range(0, 161, 5), *range(161, len(polys))]
        assert [solve_outcome(got[i]) for i in some] == \
            [solve_with(ref_find_roots, polys[i]) for i in some]

    def test_extreme_scales_match_single_solves(self, monkeypatch):
        # these iterates overflow, so the active roots are pulled back
        overflowed = []
        values = zeros._values

        def recording(rows, z):
            p, dp = values(rows, z)
            overflowed.append(np.count_nonzero(~(np.isfinite(p) & np.isfinite(dp))))
            return p, dp

        monkeypatch.setattr(zeros, "_values", recording)
        polys = [c for c, _ in extreme_scale_draws(12)]
        got = [solve_outcome(x) for x in find_roots_many(polys)]
        assert sum(overflowed) > 0
        assert got == [solve_with(find_roots, c) for c in polys]
        assert got[:8] == [solve_with(ref_find_roots, c) for c in polys[:8]]
        failed = sum(msg is not None for msg, _ in got[:8])
        assert 0 < failed < 8

    def test_failure_stays_with_its_polynomial(self):
        rng = stream(22)
        c = rng.standard_normal(26) + 1j * rng.standard_normal(26)
        polys = [rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
                 for deg in (30, 1, 25, 40)]
        polys.insert(2, c)
        kwargs = {"max_iter": 1, "residual_tol": 1e-14}
        got = find_roots_many(polys, **kwargs)
        assert isinstance(got[2], RootsDidNotConverge)
        with pytest.raises(RootsDidNotConverge) as err:
            find_roots(c, **kwargs)
        assert same_bits(got[2].roots, err.value.roots)
        got = [solve_outcome(x) for x in got]
        assert got == [solve_with(find_roots, p, **kwargs) for p in polys]
        assert got == [solve_with(ref_find_roots, p, **kwargs) for p in polys]
        # with the default settings every neighbour converges, to the same bits
        assert [solve_outcome(x) for x in find_roots_many(polys[:2] + polys[3:])] == \
            [(None, find_roots(p).tobytes()) for p in polys[:2] + polys[3:]]

    def test_zero_polynomial_raises(self):
        with pytest.raises(ValueError):
            find_roots_many([[1.0, 2.0], [0.0, 0.0]])


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
        from gafzeros import make_truncated
        gaf = make_truncated(PLANAR, draw_vals, 2.0)
        check = jensen_residual(gaf, 1.0, 2.0)
        assert check.integral_n_over_u == pytest.approx(0.0, abs=1e-12)

    def test_empty_annulus_with_interior_roots(self):
        # f = (z - 0.5)(z - 3): one root inside r, none in the annulus, so the
        # integral collapses to n(r) log(R/r)
        c = np.array([1.5, -3.5, 1.0], dtype=complex)
        draw_vals = c / np.array([1.0, 1.0, math.sqrt(0.5)])
        from gafzeros import make_truncated
        gaf = make_truncated(PLANAR, draw_vals, 2.0)
        check = jensen_residual(gaf, 1.0, 2.0)
        assert check.integral_n_over_u == pytest.approx(math.log(2.0), rel=1e-12)
        assert check.residual < 1e-8

    def test_returns_the_roots_it_used(self):
        gaf = sample_truncated(PLANAR, 2.5, stream(33))
        check = jensen_residual(gaf, 2.0, 2.5)
        assert same_bits(check.roots, find_roots(gaf.weighted_coefficients))
        assert "roots" not in repr(check)

    def test_jensen_chunk_solves_roots_once_per_trial(self, monkeypatch):
        # each trial whose count resolved has its polynomial solved exactly
        # once, and no other polynomial is solved
        solved = []
        many = zeros.find_roots_many

        def recording(polys, **kwargs):
            solved.extend(np.array(c) for c in polys)
            return many(polys, **kwargs)

        monkeypatch.setattr(zeros, "find_roots_many", recording)
        trials, guard, seed = 24, 1e7, 0
        rows = experiments._jensen_chunk((0.5, 3.0, 1.25, 1e-8, guard, seed, 0, trials))
        assert len(rows) == trials
        resolved = []
        for j in range(trials):
            rng = stream(seed, j)
            r = 0.5 + 2.5 * rng.random()
            gaf = sample_truncated(PLANAR, 1.25 * r, rng)
            try:
                count_with_retry(gaf, r, guard * gaf.tail_sd)
            except InconclusiveCount:
                continue
            resolved.append(gaf.weighted_coefficients)
        assert 0 < len(resolved) < trials
        assert len(solved) == len(resolved)
        assert all(same_bits(a, b) for a, b in zip(solved, resolved))

    def test_count_inequality(self):
        rng = stream(32)
        for _ in range(25):
            gaf = sample_truncated(PLANAR, 2.5, rng, degree=25)
            res = count_zeros_winding(gaf, 2.0, 0.0)
            check = jensen_residual(gaf, 2.0, 2.5)
            assert res.count * math.log(2.5 / 2.0) <= check.integral_n_over_u + 1e-9


class TestRouche:
    def test_zero_tail_bound(self):
        gaf = sample_truncated(PLANAR, 1.0, stream(41))
        assert rouche(gaf, 1.0, 0.0)

    def test_power_analogy(self):
        # min |z^5| on |z|=0.9 is 0.9^5; anything smaller certifies
        from gafzeros import make_truncated, sigma
        vals = np.zeros(6, dtype=complex)
        vals[5] = 1.0 / sigma(PLANAR, 5)
        gaf = make_truncated(PLANAR, vals, 0.9)
        assert rouche(gaf, 0.9, 0.5 * 0.9**5)
        assert not rouche(gaf, 0.9, 2.0 * 0.9**5)

    def test_certificates_agree_with_deeper_truncation(self):
        # statistical soundness: passing certificates never disagree with a
        # twice-deeper truncation's count
        rng = stream(42)
        disagreements = 0
        checked = 0
        for _ in range(300):
            gaf = sample_truncated(PLANAR, 1.0, rng)
            deeper = sample_truncated(PLANAR, 1.0, rng, degree=2 * gaf.degree)
            vals = deeper.coeffs.copy()
            vals[: gaf.degree + 1] = gaf.coeffs
            from gafzeros import make_truncated
            deeper = make_truncated(PLANAR, vals, 1.0)
            floor = 100.0 * gaf.tail_sd
            try:
                res, _ = count_with_retry(gaf, 1.0, floor)
            except InconclusiveCount:
                continue
            checked += 1
            res2 = count_zeros_winding(deeper, 1.0, 0.0)
            disagreements += res.count != res2.count
        assert checked > 250
        assert disagreements == 0


def planar_gaf_of(c, r):
    # a planar TruncatedGaf on radius r whose weighted coefficients are c,
    # up to the rounding of c / sigma_k * sigma_k
    c = np.asarray(c, dtype=complex)
    return make_truncated(PLANAR, c / np.exp(log_sigma(PLANAR, np.arange(len(c)))), r)


def dense_max(gaf, r):
    # max |gaf| on 2^18 equispaced points of |z| = r, by polyval
    theta = np.arange(1 << 18) * (2.0 * math.pi / (1 << 18))
    return float(np.abs(polyval(r * np.exp(1j * theta), gaf.weighted_coefficients)).max())


class TestMaxModulus:
    """``max_modulus`` is a proved upper bound, within MAX_SLACK of the maximum."""

    def check(self, gaf, r):
        got, dense = max_modulus(gaf, r), dense_max(gaf, r)
        assert dense <= got <= (1.0 + zeros.MAX_SLACK) * (1.0 + 1e-12) * dense
        return got, dense

    def test_power(self):
        got, _ = self.check(planar_gaf_of([0, 0, 0, 0, 1], 1.3), 1.3)
        assert got == pytest.approx(1.3**4, rel=zeros.MAX_SLACK)

    def test_constant(self):
        got, _ = self.check(planar_gaf_of([3 - 4j], 2.0), 2.0)
        assert got == pytest.approx(5.0, rel=1e-12)

    def test_fine_grid_oracle(self):
        gaf = sample_truncated(PLANAR, 2.0, stream(51))
        self.check(gaf, 2.0)

    def test_bound_is_attained(self):
        # at degree d = 32 the grid has N = 4096 nodes; 1 + (z e^{-i pi/N})^d
        # peaks at the midpoints between nodes, where the sampling factor is
        # exact, so the bound exceeds its maximum by the rounding term only
        # (1.4e-12 relative); the rotated all-ones polynomial peaks at one
        # midpoint too
        d, n = 32, 4096
        rot = np.exp(-1j * math.pi / n)
        two = np.zeros(d + 1, dtype=complex)
        two[0], two[d] = 1.0, rot**d
        got, dense = self.check(planar_gaf_of(two, 1.0), 1.0)
        assert got == pytest.approx(dense, rel=1e-11)
        self.check(planar_gaf_of(rot ** np.arange(d + 1), 1.0), 1.0)

    def test_random_polynomials(self):
        rng = np.random.default_rng(52)
        for d in (1, 2, 7, 31, 32, 33, 60):
            c = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
            self.check(planar_gaf_of(c * rng.uniform(0.1, 10.0, d + 1), 1.0), 1.0)

    def test_planar_draws(self):
        for k, r in enumerate((0.5, 1.0, 2.0, 3.5)):
            gaf = sample_truncated(PLANAR, r, stream(53, k))
            self.check(gaf, r)
            self.check(gaf, 0.5 * r)


# Reference copies of the four node-doubling loops that ``_circle_grids``
# replaced, kept to check that every f call and every result is unchanged.


class FftReference:
    """A TruncatedGaf read on a grid by a one-row inverse FFT of its own.

    Reference copy of the coefficient path of the one-function walker: the
    scaled coefficients b_k = w_k r^k, read from the draw as
    a_k exp(log sigma_k + k log r) where w_k is 0 or subnormal, rotated by
    e^{i pi k/n} for the midpoints, folded mod n and transformed alone.  The
    reference loops read an instance through ``grid`` instead of calling it
    on the nodes.
    """

    def __init__(self, gaf):
        self.gaf = gaf

    def grid(self, r, n, shift):
        w = self.gaf.weighted_coefficients
        k = np.arange(len(w))
        b = np.zeros(len(w), dtype=complex)
        tiny = np.abs(w) < np.finfo(float).tiny
        b[~tiny] = np.exp(np.log(w[~tiny]) + k[~tiny] * math.log(r))
        j = k[tiny & (self.gaf.coeffs != 0)]
        b[j] = np.exp(np.log(self.gaf.coeffs[j]) + log_sigma(self.gaf.model, j) + j * math.log(r))
        if shift:
            b = b * np.exp(1j * (2.0 * math.pi * shift / n) * (k % (2 * n)))
        if len(b) > n:
            b = np.concatenate([b, np.zeros(-len(b) % n, dtype=complex)])
            b = b.reshape(-1, n).sum(axis=0)
        return np.fft.ifft(b, n=n, norm="forward")


def ref_circle_values(f, r, n):
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    if isinstance(f, FftReference):
        return theta, f.grid(r, n, 0.0)
    return theta, np.asarray(f(r * np.exp(1j * theta)), dtype=complex)


def ref_interleave(f, r, old_vals):
    n = len(old_vals)
    theta_new = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    if isinstance(f, FftReference):
        new_vals = f.grid(r, n, 0.5)
    else:
        new_vals = np.asarray(f(r * np.exp(1j * theta_new)), dtype=complex)
    out = np.empty(2 * n, dtype=complex)
    out[0::2] = old_vals
    out[1::2] = new_vals
    return out


def ref_count_zeros_winding(f, r, floor, *, start_nodes=256, max_nodes=MAX_NODES):
    _, vals = ref_circle_values(f, r, start_nodes)
    while True:
        mods = np.abs(vals)
        mn = float(mods.min())
        if mn <= max(floor, zeros.HARD_FLOOR):
            raise InconclusiveCount(
                f"min |f| = {mn:.3e} at or below floor {floor:.3e} on |z| = {r}")
        nxt = np.roll(vals, -1)
        diffs = np.angle(nxt / vals)
        jumps = np.abs(nxt - vals)
        arc_floor = float((np.minimum(mods, np.abs(nxt)) - jumps).min())
        phase_ok = float(np.abs(diffs).max()) < zeros.PHASE_LIMIT
        certified = arc_floor > floor
        if phase_ok and (certified or len(vals) >= max_nodes):
            break
        if len(vals) >= max_nodes:
            raise InconclusiveCount(
                f"phase increments unresolved at {len(vals)} nodes on |z| = {r}")
        vals = ref_interleave(f, r, vals)
    winding = float(diffs.sum()) / (2.0 * math.pi)
    count = int(round(winding))
    if abs(winding - count) > 1e-6:
        raise InconclusiveCount(f"winding {winding} is not an integer to 1e-6")
    if count < 0:
        raise InconclusiveCount(f"negative winding {count} for an analytic function")
    return zeros.CountResult(count=count, certified=certified,
                             min_modulus_on_circle=mn, circle_nodes_used=len(vals))


def ref_circle_mean_log_abs(f, s, tol, *, start_nodes=128, max_nodes=MAX_NODES):
    _, vals = ref_circle_values(f, s, start_nodes)
    mods = np.abs(vals)
    if mods.min() <= zeros.HARD_FLOOR:
        raise InconclusiveCount("modulus below 1e-300 on the quadrature circle")
    est = float(np.mean(np.log(mods)))
    while True:
        vals = ref_interleave(f, s, vals)
        mods = np.abs(vals)
        if mods.min() <= zeros.HARD_FLOOR:
            raise InconclusiveCount("modulus below 1e-300 on the quadrature circle")
        new = float(np.mean(np.log(mods)))
        if abs(new - est) < tol:
            return new
        if len(vals) >= max_nodes:
            raise InconclusiveCount(
                f"quadrature unstable at node cap ({len(vals)} nodes)")
        est = new


def ref_rouche_certify(gaf, r, tail_bound, *, start_nodes=256, max_nodes=MAX_NODES):
    _, vals = ref_circle_values(gaf, r, start_nodes)
    while True:
        mods = np.abs(vals)
        mn = float(mods.min())
        nxt = np.roll(vals, -1)
        jumps = np.abs(nxt - vals)
        arc_floor = float((np.minimum(mods, np.abs(nxt)) - jumps).min())
        phase_ok = float(np.abs(np.angle(nxt / vals)).max()) < zeros.PHASE_LIMIT
        if phase_ok and arc_floor > tail_bound:
            return True
        if len(vals) >= max_nodes:
            return False
        if phase_ok and mn <= tail_bound:
            return False
        vals = ref_interleave(gaf, r, vals)


class Recorded:
    """f with a log of every batch of points it was called on."""

    def __init__(self, f):
        self.f, self.calls = f, []

    def __call__(self, z):
        self.calls.append(np.array(z, copy=True))
        return self.f(z)


def outcome(fn, f, *args, **kwargs):
    # (result or exception) of fn on a recorded f, plus the points f saw
    g = Recorded(f)
    try:
        res = ("ok", fn(g, *args, **kwargs))
    except InconclusiveCount as exc:
        res = ("inconclusive", str(exc))
    return res, [z.tobytes() for z in g.calls]


# planar r=2.5 and r=4 and hyperbolic rho=1, r=0.9, three draws each
WALKER_DRAWS = [(r, sample_truncated(model, r, stream(61 + i, k)))
                for k, (model, r) in enumerate([(PLANAR, 2.5), (PLANAR, 4.0),
                                                (GafModel.hyperbolic(1.0), 0.9)])
                for i in range(3)]
WALKER_BOUNDS = [0.0, 0.01, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]


class TestCircleWalker:
    def test_counts_match_reference_loop(self):
        kinds = set()
        for r, gaf in WALKER_DRAWS:
            for bound in WALKER_BOUNDS:
                for max_nodes in (256, 512, MAX_NODES):
                    got = outcome(count_zeros_winding, gaf, r, bound, max_nodes=max_nodes)
                    want = outcome(ref_count_zeros_winding, gaf, r, bound,
                                   max_nodes=max_nodes)
                    assert got == want
                    status, value = got[0]
                    kinds.add(("certified" if value.certified else "uncertified")
                              if status == "ok" else value.split()[0])
        # certified and uncertified counts, floor hits ("min |f| = ...") and
        # node-cap hits ("phase increments unresolved ...") all occur
        assert kinds == {"certified", "uncertified", "min", "phase"}

    def test_rouche_matches_reference_loop(self):
        results = set()
        for r, gaf in WALKER_DRAWS:
            for bound in WALKER_BOUNDS:
                for max_nodes in (256, 512, MAX_NODES):
                    got = rouche(gaf, r, bound, max_nodes=max_nodes)
                    assert got == ref_rouche_certify(gaf, r, bound, max_nodes=max_nodes)
                    results.add(got)
        assert results == {True, False}

    def test_rouche_rejects_negative_bound(self):
        r, gaf = WALKER_DRAWS[0]
        with pytest.raises(ValueError):
            rouche(gaf, r, -1.0)

    def test_circle_means_match_reference_loop(self):
        capped = 0
        for r, gaf in WALKER_DRAWS:
            for s in (0.5 * r, 0.9 * r, r):
                for tol, start, cap in ((1e-8, 128, MAX_NODES), (1e-15, 128, 512),
                                        (1e-15, 128, 64), (1e-15, 256, 384)):
                    got = outcome(circle_mean_log_abs, gaf, s, tol,
                                  start_nodes=start, max_nodes=cap)
                    want = outcome(ref_circle_mean_log_abs, gaf, s, tol,
                                   start_nodes=start, max_nodes=cap)
                    assert got == want
                    capped += got[0][0] == "inconclusive"
        assert capped > 0


def coefficient_outcome(fn, *args, **kwargs):
    # (result, or the first word of the InconclusiveCount message) of fn
    try:
        return "ok", fn(*args, **kwargs)
    except InconclusiveCount as exc:
        return "inconclusive", str(exc).split()[0]


def log_oracle_count(gaf, r):
    # zeros of gaf in |z| < r, summed from phase increments of the polynomial
    # rescaled to u = z/r, a_k exp(log sigma_k + k log r - L) with L the log
    # of its largest term, on unit-circle grids that double from 2^16 nodes
    # until every increment is below pi/2
    k = np.arange(len(gaf.coeffs))
    log_c = np.log(gaf.coeffs) + log_sigma(gaf.model, k) + k * math.log(r)
    c = np.exp(log_c - log_c.real.max())
    n = 2**16
    while True:
        vals = np.fft.ifft(c, n=n, norm="forward")
        diffs = np.angle(np.roll(vals, -1) / vals)
        if np.abs(diffs).max() < math.pi / 2:
            return round(diffs.sum() / (2.0 * math.pi))
        n *= 2


class TestCoefficientPath:
    """A TruncatedGaf passed unwrapped is read from its coefficients by inverse FFT.

    The reference loops call the gaf on the nodes (Horner), so they give the
    values of the callable path; outcomes must agree, values up to rounding.
    """

    def test_counts_match_reference_loop(self):
        kinds = set()
        for r, gaf in WALKER_DRAWS:
            for bound in WALKER_BOUNDS:
                for max_nodes in (256, 512, MAX_NODES):
                    got = coefficient_outcome(count_zeros_winding, gaf, r, bound,
                                              max_nodes=max_nodes)
                    want = coefficient_outcome(ref_count_zeros_winding, gaf, r, bound,
                                               max_nodes=max_nodes)
                    assert got[0] == want[0]
                    if got[0] == "ok":
                        g, w = got[1], want[1]
                        assert (g.count, g.certified, g.circle_nodes_used) == \
                            (w.count, w.certified, w.circle_nodes_used)
                        assert g.min_modulus_on_circle == pytest.approx(
                            w.min_modulus_on_circle, rel=1e-9)
                        kinds.add("certified" if g.certified else "uncertified")
                    else:
                        assert got[1] == want[1]
                        kinds.add(got[1])
        assert kinds == {"certified", "uncertified", "min", "phase"}

    def test_rouche_matches_reference_loop(self):
        results = set()
        for r, gaf in WALKER_DRAWS:
            for bound in WALKER_BOUNDS:
                for max_nodes in (256, 512, MAX_NODES):
                    got = rouche(gaf, r, bound, max_nodes=max_nodes)
                    assert got == ref_rouche_certify(gaf, r, bound, max_nodes=max_nodes)
                    results.add(got)
        assert results == {True, False}

    def test_circle_means_match_reference_loop(self):
        for r, gaf in WALKER_DRAWS:
            for s in (0.5 * r, 0.9 * r, r):
                for tol, start, cap in ((1e-8, 128, MAX_NODES), (1e-15, 128, 512),
                                        (1e-15, 128, 64), (1e-15, 256, 384)):
                    got = coefficient_outcome(circle_mean_log_abs, gaf, s, tol,
                                              start_nodes=start, max_nodes=cap)
                    want = coefficient_outcome(ref_circle_mean_log_abs, gaf, s, tol,
                                               start_nodes=start, max_nodes=cap)
                    assert got[0] == want[0]
                    if got[0] == "ok":
                        assert abs(got[1] - want[1]) <= 1e-12
                    else:
                        assert got[1] == want[1]

    def test_grid_values_match_horner(self):
        # rounding of either path is within (2(N+1) + 8 log2 n) eps sum |b_k|,
        # b_k = w_k r^k; start grids of 8 and 16 nodes fold the coefficients
        eps = np.finfo(float).eps
        folded = 0
        for r, gaf in WALKER_DRAWS:
            w = gaf.weighted_coefficients
            scale = float(np.sum(np.abs(w) * r ** np.arange(len(w))))
            for start in (8, 16, 256):
                # one walk of both paths, every level recorded
                levels = []

                def step(rows, vals):
                    assert rows.tolist() == [0, 1]
                    levels.append(vals.copy())
                    return np.ones(2, dtype=bool)

                zeros._circle_grids([gaf, lambda z: gaf(z)], [r, r], start, 4096, step)
                assert [len(v[0]) for v in levels][-1] == 4096
                for vals, ref in levels:
                    n = len(vals)
                    bound = (2 * (gaf.degree + 1) + 8 * math.log2(n)) * eps * scale
                    assert np.abs(vals - ref).max() <= bound
                    folded += n < gaf.degree + 1 and gaf.degree >= 63
        assert folded > 0

    def test_planar_large_r_counts_match_log_oracle(self):
        # at degrees 408-587 the planar weights a_k sigma_k are subnormal
        # from k = 301 and 0 from k = 314; the walk must read those terms
        # from the draw, as the oracle does, and certify every count
        for r in (16.0, 18.0, 20.0):
            for k in range(5):
                gaf = sample_truncated(PLANAR, r, stream(11, k))
                res, _ = count_with_retry(gaf, r, 4.0 * gaf.tail_sd)
                assert res.count == log_oracle_count(gaf, r)

    def test_domain_guard(self):
        r, gaf = WALKER_DRAWS[0]
        for fn, args in ((count_zeros_winding, (0.0,)), (circle_mean_log_abs, (1e-8,)),
                         (max_modulus, ())):
            for slack in (2e-5, 2e-6):
                with pytest.raises(ValueError, match="outside radius_of_use"):
                    fn(gaf, r * (1.0 + slack), *args)
        # a radius within the guard's DOMAIN_SLACK is counted
        assert count_zeros_winding(gaf, r * (1.0 + 5e-13), 0.0).count >= 0


class TestCountReplicas:
    def test_matches_per_replica_counts(self):
        model, r, guard, seed = GafModel.hyperbolic(1.0), 0.9, 100.0, 5
        degree = choose_truncation(model, r)
        keys = [7, 0, 3, 3, 12]
        counts = count_replicas(model, r, degree, guard, seed, keys)
        want = []
        for k in keys:
            gaf = sample_truncated(model, r, stream(seed, k), degree=degree)
            try:
                res, retries = count_with_retry(gaf, r, guard * gaf.tail_sd)
            except InconclusiveCount:
                want.append(-1)
                continue
            want.append(res.count)
            assert retries == 0
        assert counts.tolist() == want

    def test_unresolved_replica_counts_minus_one(self):
        # a floor above every |f| on the circle leaves each replica unresolved
        counts = count_replicas(PLANAR, 1.0, 8, 1e300, 2, range(3))
        assert counts.tolist() == [-1, -1, -1]

    def test_direct_mc_tail_equals_mc_tail_csv(self, tmp_path):
        est = direct_mc_tail(PLANAR, 2.0, 6, 1500, seed=3)
        cfg = experiments.RunConfig.from_dict(
            {"experiment": "mc-tail", "seed": 3, "target": "planar", "r": 2.0,
             "m": 6, "trials": 1500})
        (path,) = experiments.run(cfg, str(tmp_path))
        with open(path) as fh:
            (row,) = list(csv.DictReader(fh))
        assert int(row["hits"]) == est.hits
        assert int(row["unresolved"]) == est.unresolved
        assert float(row["log_p"]) == est.log_p


class TestNumpyRowwise:
    """The batched walker and Aberth sums assume numpy does each row of an
    axis-1 call bit for bit like the 1-D call on that row; a numpy that
    breaks this would move CSV bytes, so it fails here first."""

    def test_ifft_rows_match_one_dimensional(self):
        rng = np.random.default_rng(5)
        lens = [1, 3, 50, 127, 128, 129, 200, 300]
        m = np.zeros((len(lens), max(lens)), dtype=complex)
        for row, size in zip(m, lens):
            row[:size] = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) \
                * np.exp(4.0 * rng.standard_normal(size))
        for n in (2**j for j in range(7, 15)):
            rows = np.fft.ifft(m, n, axis=1, norm="forward")
            for got, row, size in zip(rows, m, lens):
                assert same_bits(got, np.fft.ifft(row[:size], n, norm="forward"))
            # and a row padded by ifft itself past the matrix width
            assert same_bits(rows[-1], np.fft.ifft(m[-1], n, norm="forward"))

    def test_reductions_match_one_dimensional(self):
        rng = np.random.default_rng(6)
        for width in [*range(1, 40), 127, 128, 129, 256, 1000, 4097]:
            x = rng.standard_normal((5, width)) * np.exp(3.0 * rng.standard_normal((5, width)))
            c = x + 1j * rng.standard_normal((5, width))
            for a in (x, c):
                for got, row in zip(a.sum(axis=1), a):
                    assert same_bits(got, row.sum())
            for name in ("mean", "min", "max"):
                for got, row in zip(getattr(x, name)(axis=1), x):
                    assert same_bits(got, getattr(row, name)())


def ref_certified_count(f, r, floor):
    # the reference loop's count, an uncertified one as an error
    res = ref_count_zeros_winding(f, r, floor)
    if not res.certified:
        raise InconclusiveCount(f"uncertified count on |z| = {r}")
    return res


def batch_outcomes(results):
    # a batch's entries as outcome() gives them, exceptions by message
    return [("inconclusive", str(x)) if isinstance(x, InconclusiveCount) else ("ok", x)
            for x in results]


def ref_outcome(fn, f, *args, **kwargs):
    # outcome() of a reference loop; a TruncatedGaf row is read through an
    # FftReference, not called
    if not isinstance(f, TruncatedGaf):
        return outcome(fn, f, *args, **kwargs)
    try:
        return ("ok", fn(FftReference(f), *args, **kwargs)), []
    except InconclusiveCount as exc:
        return ("inconclusive", str(exc)), []


def mixed_rows():
    # (f, r): coefficient rows of several degrees and models, Horner
    # callables and polyval callables, each at two radii
    rows = []
    for k, (r, gaf) in enumerate(WALKER_DRAWS):
        c = gaf.weighted_coefficients
        f = (lambda z, gaf=gaf: gaf(z), lambda z, c=c: polyval(z, c), gaf)[k % 3]
        rows += [(f, r), (f, 0.9 * r)]
    return rows


def recorded(rows):
    # the functions of rows, every callable wrapped to record its points
    return [f if isinstance(f, TruncatedGaf) else Recorded(f) for f, *_ in rows]


def calls(f):
    return [] if isinstance(f, TruncatedGaf) else [z.tobytes() for z in f.calls]


class TestBatchedWalker:
    """Mixed batches give every row the bits of the one-function reference
    loops, and every callable row the points it was called on there."""

    def check_counts(self, floors, max_nodes):
        rows = mixed_rows()
        fs = recorded(rows)
        got = batch_outcomes(zeros._counts(fs, [r for _, r in rows], floors, 256, max_nodes))
        kinds = set()
        for g, f, (raw, r), floor in zip(got, fs, rows, floors):
            assert (g, calls(f)) == ref_outcome(ref_count_zeros_winding, raw, r, floor,
                                                max_nodes=max_nodes)
            status, value = g
            kinds.add(("certified" if value.certified else "uncertified")
                      if status == "ok" else value.split()[0])
        return kinds

    def check_means(self, rows, tol, start, cap):
        fs = recorded(rows)
        got = batch_outcomes(zeros._means(fs, [s for _, s in rows], tol, start, cap))
        for g, f, (raw, s) in zip(got, fs, rows):
            assert (g, calls(f)) == ref_outcome(ref_circle_mean_log_abs, raw, s, tol,
                                                start_nodes=start, max_nodes=cap)
        return {g[0] if g[0] == "ok" else g[1].split()[0] for g in got}

    def test_grid_rows_match_reference_bitwise(self):
        # rows of different lengths, a sparse one among them and a planar
        # one at r = 18 whose weights are subnormal or 0 from k = 301, on
        # start grids that fold the long rows: every level of every row has
        # the bits of the row's own one-row FFT, signed zeros included
        from gafzeros import make_truncated
        coeffs = np.zeros(6, dtype=complex)
        coeffs[5] = 1.0
        sparse = make_truncated(PLANAR, coeffs, 0.9)
        large = sample_truncated(PLANAR, 18.0, stream(11, 0))
        gafs = [gaf for _, gaf in WALKER_DRAWS] + [sparse, large]
        rs = [r for r, _ in WALKER_DRAWS] + [0.9, 18.0]
        for start in (8, 16, 128):
            levels = []

            def step(rows, vals):
                levels.append(vals.copy())
                return np.ones(len(rows), dtype=bool)

            zeros._circle_grids(gafs, rs, start, 1024, step)
            for j, (gaf, r) in enumerate(zip(gafs, rs)):
                _, want = ref_circle_values(FftReference(gaf), r, start)
                for level in levels:
                    assert same_bits(level[j], want)
                    if len(want) < 1024:
                        want = ref_interleave(FftReference(gaf), r, want)

    def test_counts_match_reference_loop(self):
        kinds = set()
        for i, max_nodes in enumerate((256, 512, MAX_NODES)):
            floors = [WALKER_BOUNDS[(i + j) % len(WALKER_BOUNDS)] for j in range(18)]
            kinds |= self.check_counts(floors, max_nodes)
        # floor hits, node-cap hits, certified and uncertified rows in one batch
        assert kinds == {"certified", "uncertified", "min", "phase"}

    def test_means_match_reference_loop(self):
        rows = mixed_rows() + [(lambda z: 0 * z, 1.0)]
        kinds = set()
        for tol, start, cap in ((1e-8, 128, MAX_NODES), (1e-15, 128, 512), (1e-15, 256, 384)):
            kinds |= self.check_means(rows, tol, start, cap)
        # converged rows, node-cap hits and a row below the hard floor
        assert kinds == {"ok", "quadrature", "modulus"}

    def test_batch_splits_under_value_budget(self, monkeypatch):
        # with room for 1024 values a level, the 18 rows start in groups of 4
        # (counts, 256 nodes) or 8 (means, 128 nodes), double in pairs to 512
        # nodes and walk on from there alone
        monkeypatch.setattr(zeros, "GRID_BUDGET", 1024)
        shapes = []
        walk = zeros._circle_grids

        def recording(fs, rs, start, cap, step):
            def rec(rows, vals):
                shapes.append(vals.shape)
                return step(rows, vals)
            return walk(fs, rs, start, cap, rec)

        monkeypatch.setattr(zeros, "_circle_grids", recording)
        self.check_counts([WALKER_BOUNDS[j % len(WALKER_BOUNDS)] for j in range(18)], MAX_NODES)
        self.check_means(mixed_rows(), 1e-12, 128, MAX_NODES)
        # only a row alone outgrows the budget
        assert max(k * n for k, n in shapes if k > 1) <= 1024
        assert (8, 128) in shapes and (4, 256) in shapes and (2, 512) in shapes

    def test_empty_batches(self):
        # a chunk whose every count stays unresolved solves and walks nothing
        assert zeros.count_with_retry_many([]) == []
        assert zeros.circle_mean_log_abs_many([], 1e-8) == []
        assert zeros.jensen_residuals([]) == []
        rows = experiments._jensen_chunk((0.5, 3.0, 1.25, 1e-8, 1e300, 0, 0, 3))
        assert [(row[3], row[4], row[-1]) for row in rows] == [(-1, -1, False)] * 3

    def test_retries_match_reference_policy(self):
        # every count is one walk at r.  z^2, zeroed on one side of
        # |z| = edge, hits its floor at r = 1 for every edge: the walks at
        # r (1 + 1e-6), r (1 - 1e-6) and r (1 + 2e-6) would clear it for
        # edges 1 + 5e-7, 1 - 5e-7 and 1 + 1.5e-6, but no count walks
        # there.  Next to them, z with a floor 1e-6 below |z| = 1, whose
        # arc margin 1 - 2 pi / n stays below it up to the node cap, planar
        # draws, and the slowest trial of the roots-jensen panel, which
        # hits its floor.
        def zeroed(edge, inside):
            return lambda z: z * z * np.where(np.abs(z) < edge, inside, 1.0 - inside)

        rows = [(zeroed(1 + 5e-7, 0.0), 1.0, 1e-3), (zeroed(1 - 5e-7, 1.0), 1.0, 1e-3),
                (zeroed(1 + 1.5e-6, 0.0), 1.0, 1e-3), (zeroed(5.0, 0.0), 1.0, 1e-3),
                (lambda z: z, 1.0, 1.0 - 1e-6)]
        for k in range(6):
            gaf = sample_truncated(PLANAR, 2.3, stream(71, k))
            rows.append((gaf, 2.3, 100.0 * gaf.tail_sd))
        rng = stream(0, 31)
        r = 3.0 + 3.0 * rng.random()
        gaf = sample_truncated(PLANAR, 1.25 * r, rng)
        rows.append((gaf, r, 100.0 * gaf.tail_sd))
        fs = recorded(rows)
        got = batch_outcomes(zeros.count_with_retry_many(
            [(f, r, floor) for f, (_, r, floor) in zip(fs, rows)]))
        for g, f, (raw, r, floor) in zip(got, fs, rows):
            assert (g, calls(f)) == ref_outcome(ref_certified_count, raw, r, floor)
        for g in got[:4]:
            assert g == ("inconclusive", "min |f| = 0.000e+00 at or below floor 1.000e-03 "
                                         "on |z| = 1.0")
        assert got[4] == ("inconclusive", "uncertified count on |z| = 1.0")
        assert {g[0] for g in got[5:-1]} == {"ok"}
        assert got[-1][1].startswith("min |f| = 2.893e+01")


class TestRetrySkip:
    """A count that fails its one walk is not walked again."""

    def test_panel_trial_walks_once(self, monkeypatch):
        # the roots-jensen panel trial hits its floor at 262144 nodes, and
        # its count makes that one walk
        rng = stream(0, 31)
        r = 3.0 + 3.0 * rng.random()
        gaf = sample_truncated(PLANAR, 1.25 * r, rng)
        walks = []
        walk = zeros._circle_grids

        def counting(fs, *args):
            walks.append(len(fs))
            return walk(fs, *args)

        monkeypatch.setattr(zeros, "_circle_grids", counting)
        (res,) = zeros.count_with_retry_many([(gaf, r, 100.0 * gaf.tail_sd)])
        assert isinstance(res, InconclusiveCount)
        assert str(res).startswith("min |f| = 2.893e+01")
        assert walks == [1]
