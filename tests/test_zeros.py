"""Winding counts, roots, circle means, certification."""

import math

import numpy as np
import pytest

from gafzeros import (GafModel, InconclusiveCount, RootsDidNotConverge, TruncatedGaf,
                      choose_truncation, circle_mean_log_abs_many, coefficient_rows,
                      count_in_disk, count_replicas, count_with_retry, experiments,
                      find_gaf_roots, find_roots_many, jensen_residuals, max_modulus, models,
                      sample_truncated, stream, zeros)
from gafzeros._num import horner
from gafzeros.models import log_sigma

PLANAR = GafModel.planar()
MAX_NODES = zeros.MAX_NODES


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def polyval(x, c):
    return np.polynomial.polynomial.polyval(x, c)


def poly(c, r):
    # a planar TruncatedGaf on radius r whose weighted coefficients are c, up
    # to rounding: the draw c exp(-log sigma_k)
    c = np.asarray(c, dtype=complex)
    return TruncatedGaf(PLANAR, c * np.exp(-log_sigma(PLANAR, np.arange(len(c)))), r)


def row_of(gaf, r):
    # the coefficient row of gaf at r, the polynomial in u = z/r
    return coefficient_rows([gaf], [r])[0][0]


def walk_count(gaf, r, log_floor, max_nodes=MAX_NODES):
    # the one-row count of the walker, its CountResult or InconclusiveCount
    (res,) = zeros.certified_counts([(gaf, r, log_floor)], 256, max_nodes)
    return res


def rouche(gaf, r, log_tail_bound, max_nodes=MAX_NODES):
    # the Rouche certificate: a count certified with the tail bound as its floor
    return not isinstance(walk_count(gaf, r, log_tail_bound, max_nodes), InconclusiveCount)


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
        res, _ = count_with_retry(poly([0, 0, 0, 1], 1.0), 1.0, math.log(1e-12))
        assert res.count == 3

    def test_roots_outside(self):
        res, _ = count_with_retry(poly([6, -5, 1], 1.0), 1.0, math.log(1e-9))  # (z - 2) (z - 3)
        assert res.count == 0

    def test_inconclusive_near_zero_on_circle(self):
        # a root a hair off the circle: the floor test must trip
        with pytest.raises(InconclusiveCount):
            count_with_retry(poly([-(1.0 + 1e-14), 1], 1.0), 1.0, math.log(1e-6))

    def test_matches_root_count_on_random_polynomials(self):
        rng = stream(11)
        for _ in range(200):
            deg = int(rng.integers(5, 51))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            r = 0.5 + 2.5 * rng.random()
            (roots,) = find_roots_many([c])
            if np.min(np.abs(np.abs(roots) - r)) < 1e-6 * r:
                continue  # zero essentially on the test circle
            res, _ = count_with_retry(poly(c, r), r, -math.inf)
            assert res.count == count_in_disk(roots, r)

    def test_rotation_invariance(self):
        # gaf(u z) is the draw a_k u^k
        rng = stream(12)
        u = np.exp(1j * 0.7331)
        for _ in range(25):
            gaf = sample_truncated(PLANAR, 2.0, rng)
            turned = TruncatedGaf(PLANAR, gaf.coeffs * u ** np.arange(gaf.degree + 1), 2.0)
            a, _ = count_with_retry(gaf, 2.0, -math.inf)
            b, _ = count_with_retry(turned, 2.0, -math.inf)
            assert a.count == b.count

    def test_count_is_nonnegative_integer(self):
        rng = stream(13)
        for _ in range(50):
            gaf = sample_truncated(PLANAR, 1.5, rng)
            res, _ = count_with_retry(gaf, 1.5, -math.inf)
            assert res.count >= 0


class TestRoots:
    def test_quadratic(self):
        (roots,) = find_roots_many([[-1.0, 0.0, 1.0]])
        roots = np.sort_complex(roots)
        assert np.allclose(roots, [-1.0, 1.0], atol=1e-12)

    def test_triple_zero(self):
        (roots,) = find_roots_many([[0.0, 0.0, 0.0, 1.0]])
        assert len(roots) == 3
        assert np.max(np.abs(roots)) < 1e-8

    def test_residuals_on_random_degree_30(self):
        rng = stream(21)
        for _ in range(20):
            c = rng.standard_normal(31) + 1j * rng.standard_normal(31)
            (roots,) = find_roots_many([c])
            scale = np.polynomial.polynomial.polyval(np.abs(roots), np.abs(c))
            resid = np.abs(np.polynomial.polynomial.polyval(roots, c))
            assert np.all(resid <= 1e-10 * scale)

    def test_nonconvergence_flags_partial_result(self):
        rng = stream(22)
        c = rng.standard_normal(26) + 1j * rng.standard_normal(26)
        (res,) = find_roots_many([c], max_iter=1, residual_tol=1e-14)
        assert isinstance(res, RootsDidNotConverge)
        assert res.roots is not None

    def test_wide_magnitude_profile(self):
        # the planar row at radius 3 spans many orders
        gaf = sample_truncated(PLANAR, 3.0, stream(23))
        (roots,) = find_roots_many([row_of(gaf, 3.0)])
        assert len(roots) == gaf.degree

    def test_extreme_scales_never_lie(self):
        # overflow-prone inputs must either agree with the winding oracle or
        # raise; a NaN residual may never slip through as a pass
        draws = extreme_scale_draws(60)
        for (c, r), roots in zip(draws, find_roots_many([c for c, _ in draws])):
            if isinstance(roots, RootsDidNotConverge):
                continue
            try:
                res, _ = count_with_retry(poly(c, r), r, -math.inf)
            except InconclusiveCount:
                # the oracle cannot resolve a root within about one node
                # spacing of the circle at the node cap
                assert np.min(np.abs(np.abs(roots) - r)) < 2.0 * math.pi * r / MAX_NODES
                continue
            assert res.count == count_in_disk(roots, r)

    def test_subnormal_terms_take_their_true_logs(self):
        # hull points (0, log 1e-310), (2, 0), (6, log 1e-310): two start
        # points at 1e-155 and four at 1e77.5, the root moduli of the row,
        # where a log clamped at 1e-300 gives 1e-150 and 1e75
        tiny = 1e-310
        c = np.array([tiny, 0.0, 1.0, 0.0, 0.0, 0.0, tiny * 1j])
        want = np.repeat([math.exp(math.log(tiny) / 2), math.exp(-math.log(tiny) / 4)], [2, 4])
        assert np.allclose(np.abs(zeros._initial_root_guesses(c)), want, rtol=1e-12, atol=0.0)
        (roots,) = find_roots_many([c])
        roots = np.sort(np.abs(roots))
        assert np.allclose(roots, want, rtol=1e-6, atol=0.0)
        # a one-step edge past the float range keeps a finite, nonzero radius
        for edge in ([1.0, 5e-324], [5e-324, 1.0]):
            radius = np.abs(zeros._initial_root_guesses(np.array(edge)))
            assert np.all(np.isfinite(radius) & (radius > 0.0))


def ref_initial_root_guesses(coeffs):
    # reference copy of the start points, one hull segment at a time
    with np.errstate(divide="ignore"):
        logm = np.log(np.abs(coeffs))
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
        radius = math.exp(min(max((u1 - u2) / cnt, -708.0), 709.0))
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
    """find_roots_many gives every polynomial the bits of a solve of it alone."""

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
        assert [solve_outcome(x) for x in got] == \
            [solve_outcome(find_roots_many([c])[0]) for c in polys]
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
        assert got == [solve_outcome(find_roots_many([c])[0]) for c in polys]
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
        (alone,) = find_roots_many([c], **kwargs)
        assert isinstance(alone, RootsDidNotConverge)
        assert same_bits(got[2].roots, alone.roots)
        got = [solve_outcome(x) for x in got]
        assert got == [solve_outcome(find_roots_many([p], **kwargs)[0]) for p in polys]
        assert got == [solve_with(ref_find_roots, p, **kwargs) for p in polys]
        # with the default settings every neighbour converges, to the same bits
        assert [solve_outcome(x) for x in find_roots_many(polys[:2] + polys[3:])] == \
            [(None, find_roots_many([p])[0].tobytes()) for p in polys[:2] + polys[3:]]

    def test_zero_polynomial_raises(self):
        with pytest.raises(ValueError):
            find_roots_many([[1.0, 2.0], [0.0, 0.0]])


class TestCircleMean:
    def test_constant(self):
        (got,) = circle_mean_log_abs_many([(poly([3.7], 1.0), 1.0)], 1e-10)
        assert got == pytest.approx(math.log(3.7), abs=1e-10)

    def test_root_outside_mean_value(self):
        a = 2.5
        (got,) = circle_mean_log_abs_many([(poly([-a, 1], 1.0), 1.0)], 1e-10)
        assert got == pytest.approx(math.log(a), abs=1e-9)

    def test_root_inside_gives_log_radius(self):
        a = 0.3 + 0.1j
        s = 1.7
        (got,) = circle_mean_log_abs_many([(poly([-a, 1], s), s)], 1e-10)
        assert got == pytest.approx(math.log(s), abs=1e-9)

    def test_hard_floor(self):
        (got,) = circle_mean_log_abs_many([(poly([0.0], 1.0), 1.0)], 1e-8)
        assert isinstance(got, InconclusiveCount)


class TestJensen:
    def test_identity_on_random_draws(self):
        rng = stream(31)
        checks = jensen_residuals([(sample_truncated(PLANAR, 2.5, rng, degree=20), 2.0, 2.5)
                                   for _ in range(25)])
        assert all(check.residual < 1e-6 for check in checks)

    def test_no_zeros_in_annulus(self):
        # f = (z - 3)(z - 4): integral over [1, 2] counts nothing new
        c = np.array([12.0, -7.0, 1.0], dtype=complex)
        draw_vals = c / np.array([1.0, 1.0, math.sqrt(0.5)])  # undo sigma weights
        gaf = TruncatedGaf(PLANAR, draw_vals, 2.0)
        (check,) = jensen_residuals([(gaf, 1.0, 2.0)])
        assert check.integral_n_over_u == pytest.approx(0.0, abs=1e-12)

    def test_empty_annulus_with_interior_roots(self):
        # f = (z - 0.5)(z - 3): one root inside r, none in the annulus, so the
        # integral collapses to n(r) log(R/r)
        c = np.array([1.5, -3.5, 1.0], dtype=complex)
        draw_vals = c / np.array([1.0, 1.0, math.sqrt(0.5)])
        gaf = TruncatedGaf(PLANAR, draw_vals, 2.0)
        (check,) = jensen_residuals([(gaf, 1.0, 2.0)])
        assert check.integral_n_over_u == pytest.approx(math.log(2.0), rel=1e-12)
        assert check.residual < 1e-8

    def test_returns_the_roots_it_used(self):
        gaf = sample_truncated(PLANAR, 2.5, stream(33))
        (check,) = jensen_residuals([(gaf, 2.0, 2.5)])
        assert same_bits(check.roots, 2.5 * find_roots_many([row_of(gaf, 2.5)])[0])
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
        trials, log_guard, seed = 24, math.log(1e7), 0
        rows = experiments._jensen_chunk(0.5, 3.0, 1.25, 1e-8, log_guard, seed, range(trials))
        assert len(rows) == trials
        resolved = []
        for j in range(trials):
            rng = stream(seed, j)
            r = 0.5 + 2.5 * rng.random()
            gaf = sample_truncated(PLANAR, 1.25 * r, rng)
            try:
                count_with_retry(gaf, r, log_guard + gaf.log_tail_sd)
            except InconclusiveCount:
                continue
            resolved.append(row_of(gaf, 1.25 * r))
        assert 0 < len(resolved) < trials
        assert len(solved) == len(resolved)
        assert all(same_bits(a, b) for a, b in zip(solved, resolved))

    def test_count_inequality(self):
        rng = stream(32)
        for _ in range(25):
            gaf = sample_truncated(PLANAR, 2.5, rng, degree=25)
            res, _ = count_with_retry(gaf, 2.0, -math.inf)
            (check,) = jensen_residuals([(gaf, 2.0, 2.5)])
            assert res.count * math.log(2.5 / 2.0) <= check.integral_n_over_u + 1e-9


class TestRouche:
    def test_zero_tail_bound(self):
        gaf = sample_truncated(PLANAR, 1.0, stream(41))
        assert rouche(gaf, 1.0, -math.inf)

    def test_power_analogy(self):
        # min |z^5| on |z|=0.9 is 0.9^5; anything smaller certifies
        vals = np.zeros(6, dtype=complex)
        vals[5] = math.exp(-log_sigma(PLANAR, 5))
        gaf = TruncatedGaf(PLANAR, vals, 0.9)
        assert rouche(gaf, 0.9, math.log(0.5 * 0.9**5))
        assert not rouche(gaf, 0.9, math.log(2.0 * 0.9**5))

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
            deeper = TruncatedGaf(PLANAR, vals, 1.0)
            log_floor = math.log(100.0) + gaf.log_tail_sd
            try:
                res, _ = count_with_retry(gaf, 1.0, log_floor)
            except InconclusiveCount:
                continue
            checked += 1
            res2, _ = count_with_retry(deeper, 1.0, -math.inf)
            disagreements += res.count != res2.count
        assert checked > 250
        assert disagreements == 0


def dense_max(gaf, r):
    # max |gaf| on 2^18 equispaced points of |z| = r, by polyval of a_k sigma_k
    theta = np.arange(1 << 18) * (2.0 * math.pi / (1 << 18))
    w = gaf.coeffs * np.exp(log_sigma(gaf.model, np.arange(len(gaf.coeffs))))
    return float(np.abs(polyval(r * np.exp(1j * theta), w)).max())


class TestMaxModulus:
    """``max_modulus`` is the log of a proved upper bound, within MAX_SLACK of the maximum."""

    def check(self, gaf, r):
        got, dense = math.exp(max_modulus(gaf, r)), dense_max(gaf, r)
        assert dense <= got <= (1.0 + zeros.MAX_SLACK) * (1.0 + 1e-12) * dense
        return got, dense

    def test_power(self):
        got, _ = self.check(poly([0, 0, 0, 0, 1], 1.3), 1.3)
        assert got == pytest.approx(1.3**4, rel=zeros.MAX_SLACK)

    def test_constant(self):
        got, _ = self.check(poly([3 - 4j], 2.0), 2.0)
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
        got, dense = self.check(poly(two, 1.0), 1.0)
        assert got == pytest.approx(dense, rel=1e-11)
        self.check(poly(rot ** np.arange(d + 1), 1.0), 1.0)

    def test_random_polynomials(self):
        rng = np.random.default_rng(52)
        for d in (1, 2, 7, 31, 32, 33, 60):
            c = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
            self.check(poly(c * rng.uniform(0.1, 10.0, d + 1), 1.0), 1.0)

    def test_planar_draws(self):
        for k, r in enumerate((0.5, 1.0, 2.0, 3.5)):
            gaf = sample_truncated(PLANAR, r, stream(53, k))
            self.check(gaf, r)
            self.check(gaf, 0.5 * r)


# Reference copies of the one-row loops that ``_circle_grids`` batches, kept
# to check that every batched row gets the outcome of its own walk.


class FftReference:
    """A TruncatedGaf read on a grid by a one-row inverse FFT of its own.

    Reference copy of the coefficient path of the one-function walker: the
    row c_k = exp(log a_k + (log sigma_k + k log r - L)) of the draw at r, L
    the largest log |a_k sigma_k r^k|, weighted, rotated by e^{i pi k/n} for
    the midpoints, folded mod n and transformed alone; and the terms of the
    arc margin computed from it, in units of e^L.  The reference loops read
    an instance through ``row``, ``grid``, ``slope`` and ``slack``.
    """

    def __init__(self, gaf):
        self.gaf = gaf

    def logs(self, r):
        # log a_k, log sigma_k, k log r and L
        a = np.asarray(self.gaf.coeffs, dtype=complex)
        k = np.arange(len(a))
        with np.errstate(divide="ignore"):
            log_a = np.log(a)
        log_s, k_log_r = log_sigma(self.gaf.model, k), k * math.log(r)
        top = float((log_a.real + (log_s + k_log_r)).max())
        return log_a, log_s, k_log_r, top if math.isfinite(top) else 0.0

    def row(self, r):
        # the row c_k at r and its log scale L
        log_a, log_s, k_log_r, big_l = self.logs(r)
        return np.exp(log_a + ((log_s + k_log_r) - big_l)), big_l

    def grid(self, r, n, shift, weight=None):
        b, _ = self.row(r)
        k = np.arange(len(b))
        if weight is not None:
            b = b * weight
        if shift:
            b = b * np.exp(1j * (2.0 * math.pi * shift / n) * (k % (2 * n)))
        if len(b) > n:
            b = np.concatenate([b, np.zeros(-len(b) % n, dtype=complex)])
            b = b.reshape(-1, n).sum(axis=0)
        return np.fft.ifft(b, n=n, norm="forward")

    def slope(self, r, n):
        # |f'|/e^L on the n nodes from angle 0
        return np.abs(self.grid(r, n, 0.0, np.arange(self.gaf.degree + 1))) / r

    def rounding(self, r, n, weight):
        # the rounding bound of the grid values of sum weight_k c_k u^k on n nodes
        log_a, log_s, k_log_r, big_l = self.logs(r)
        k = np.flatnonzero(self.gaf.coeffs)
        size = np.exp(log_a.real[k] + ((log_s[k] + k_log_r[k]) - big_l)) * weight[k]
        reach = (np.abs(log_a.real[k]) + np.abs(log_s[k]) + np.abs(k_log_r[k]) + abs(big_l)
                 + math.pi)
        return np.finfo(float).eps * np.sum(
            (8.0 * math.log2(n) * math.sqrt(n) + 32.0 + 4.0 * reach) * size)

    def slack(self, r, n):
        # l^2 M2/8 + E, M2 from the least power of two above 4 (d - 2) nodes
        k = np.arange(self.gaf.degree + 1)
        curve = k * (k - 1.0)
        d = max(self.gaf.degree - 2, 0)
        m = 1
        while m <= 4 * d:
            m *= 2
        top = np.abs(self.grid(r, m, 0.0, curve)).max()
        bend = (top + self.rounding(r, m, curve)) / np.cos(np.pi * d / (2 * m)) / r**2
        arc = 2.0 * math.pi * r / n
        return (arc**2 * bend / 8.0 + self.rounding(r, n, np.ones(len(k)))
                + arc / 2.0 * self.rounding(r, n, k * 1.0) / r)


class HornerReference(FftReference):
    """An FftReference whose f and f' values are Horner sums on the nodes.

    f is the TruncatedGaf's own evaluation over e^L, f' a polyval of the row.
    """

    def grid(self, r, n, shift, weight=None):
        if weight is not None:
            return super().grid(r, n, shift, weight)
        _, big_l = self.row(r)
        return self.gaf(r * np.exp(1j * (np.arange(n) + shift) * (2.0 * math.pi / n))) \
            / math.exp(big_l)

    def slope(self, r, n):
        u = np.exp(1j * np.arange(n) * (2.0 * math.pi / n))
        c, _ = self.row(r)
        return np.abs(polyval(u, c[1:] * np.arange(1, len(c)))) / r


def ref_interleave(f, r, old_vals):
    n = len(old_vals)
    out = np.empty(2 * n, dtype=complex)
    out[0::2] = old_vals
    out[1::2] = f.grid(r, n, 0.5)
    return out


def ref_margin(f, r, mods):
    # the arc margin of a grid: min_j (|f_j| - l |f'_j|/2) - l^2 M2/8 - E
    n = len(mods)
    arc = 2.0 * math.pi * r / n
    return float((mods - arc / 2.0 * f.slope(r, n) - f.slack(r, n)).min())


def ref_count(f, r, log_floor, *, start_nodes=256, max_nodes=MAX_NODES):
    floor = float(np.exp(log_floor - f.row(r)[1]))
    vals = f.grid(r, start_nodes, 0.0)
    while True:
        n = len(vals)
        mods = np.abs(vals)
        mn = float(mods.min())
        if mn <= max(floor, zeros.HARD_FLOOR):
            raise InconclusiveCount(
                f"min |f| = {mn:.3e} at or below floor {floor:.3e} on |z| = {r}")
        if ref_margin(f, r, mods) > floor:
            break
        if n >= max_nodes:
            raise InconclusiveCount(
                f"arc margin not above floor {floor:.3e} at {n} nodes on |z| = {r}")
        vals = ref_interleave(f, r, vals)
    winding = float(np.angle(np.roll(vals, -1) / vals).sum()) / (2.0 * math.pi)
    count = int(round(winding))
    if abs(winding - count) > 1e-6:
        raise InconclusiveCount(f"winding {winding} is not an integer to 1e-6")
    if count < 0:
        raise InconclusiveCount(f"negative winding {count} for an analytic function")
    return zeros.CountResult(count=count, min_modulus_on_circle=mn, circle_nodes_used=n)


def ref_circle_mean_log_abs(f, s, tol, *, start_nodes=128, max_nodes=MAX_NODES):
    big_l = f.row(s)[1]
    vals = f.grid(s, start_nodes, 0.0)
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
            return new + big_l
        if len(vals) >= max_nodes:
            raise InconclusiveCount(
                f"quadrature unstable at node cap ({len(vals)} nodes)")
        est = new


def ref_rouche_certify(f, r, log_tail_bound, *, start_nodes=256, max_nodes=MAX_NODES):
    # the Rouche certificate: the arc margin clears the tail bound before a
    # node's modulus falls to it or the grid reaches the node cap
    tail_bound = float(np.exp(log_tail_bound - f.row(r)[1]))
    vals = f.grid(r, start_nodes, 0.0)
    while True:
        mods = np.abs(vals)
        if mods.min() <= max(tail_bound, zeros.HARD_FLOOR):
            return False
        if ref_margin(f, r, mods) > tail_bound:
            return True
        if len(vals) >= max_nodes:
            return False
        vals = ref_interleave(f, r, vals)


def outcome(fn, *args, **kwargs):
    # ("ok", result) or ("inconclusive", message) of fn, whether it raises
    # or returns its InconclusiveCount
    try:
        res = fn(*args, **kwargs)
    except InconclusiveCount as exc:
        res = exc
    if isinstance(res, InconclusiveCount):
        return "inconclusive", str(res)
    return "ok", res


def kind(out):
    # "ok", or the first word of an InconclusiveCount message
    return out[0] if out[0] == "ok" else out[1].split()[0]


# planar r=2.5 and r=4 and hyperbolic rho=1, r=0.9, three draws each
WALKER_DRAWS = [(r, sample_truncated(model, r, stream(61 + i, k)))
                for k, (model, r) in enumerate([(PLANAR, 2.5), (PLANAR, 4.0),
                                                (GafModel.hyperbolic(1.0), 0.9)])
                for i in range(3)]
WALKER_BOUNDS = [-math.inf, *(math.log(b) for b in (0.01, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0))]


class TestCircleWalker:
    """One-row walks give the bits of the one-row reference loops."""

    def test_counts_match_reference_loop(self):
        kinds = set()
        for r, gaf in WALKER_DRAWS:
            for bound in WALKER_BOUNDS:
                for max_nodes in (256, 512, MAX_NODES):
                    got = outcome(walk_count, gaf, r, bound, max_nodes)
                    assert got == outcome(ref_count, FftReference(gaf), r, bound,
                                          max_nodes=max_nodes)
                    kinds.add(kind(got))
        # counts, floor hits ("min |f| = ...") and node-cap hits ("arc margin
        # not above ...") all occur
        assert kinds == {"ok", "min", "arc"}

    def test_rouche_matches_reference_loop(self):
        results = set()
        for r, gaf in WALKER_DRAWS:
            for bound in WALKER_BOUNDS:
                for max_nodes in (256, 512, MAX_NODES):
                    got = rouche(gaf, r, bound, max_nodes=max_nodes)
                    assert got == ref_rouche_certify(FftReference(gaf), r, bound,
                                                     max_nodes=max_nodes)
                    results.add(got)
        assert results == {True, False}

    def test_rouche_rejects_nan_floor(self):
        r, gaf = WALKER_DRAWS[0]
        with pytest.raises(ValueError):
            rouche(gaf, r, math.nan)

    def test_circle_means_match_reference_loop(self):
        capped = 0
        for r, gaf in WALKER_DRAWS:
            for s in (0.5 * r, 0.9 * r, r):
                for tol, start, cap in ((1e-8, 128, MAX_NODES), (1e-15, 128, 512),
                                        (1e-15, 128, 64), (1e-15, 256, 384)):
                    (got,) = batch_outcomes(circle_mean_log_abs_many([(gaf, s)], tol,
                                                                     start, cap))
                    assert got == outcome(ref_circle_mean_log_abs, FftReference(gaf), s, tol,
                                          start_nodes=start, max_nodes=cap)
                    capped += got[0] == "inconclusive"
        assert capped > 0


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
    """The walker reads a TruncatedGaf from its coefficients by inverse FFT.

    The reference loops read it by Horner sums on the nodes
    (``HornerReference``); outcomes must agree, values up to rounding.
    """

    def test_counts_match_reference_loop(self):
        kinds = set()
        for r, gaf in WALKER_DRAWS:
            for bound in WALKER_BOUNDS:
                for max_nodes in (256, 512, MAX_NODES):
                    got = outcome(walk_count, gaf, r, bound, max_nodes)
                    want = outcome(ref_count, HornerReference(gaf), r, bound,
                                   max_nodes=max_nodes)
                    assert kind(got) == kind(want)
                    if got[0] == "ok":
                        g, w = got[1], want[1]
                        assert (g.count, g.circle_nodes_used) == (w.count, w.circle_nodes_used)
                        assert g.min_modulus_on_circle == pytest.approx(
                            w.min_modulus_on_circle, rel=1e-9)
                    kinds.add(kind(got))
        assert kinds == {"ok", "min", "arc"}

    def test_rouche_matches_reference_loop(self):
        results = set()
        for r, gaf in WALKER_DRAWS:
            for bound in WALKER_BOUNDS:
                for max_nodes in (256, 512, MAX_NODES):
                    got = rouche(gaf, r, bound, max_nodes=max_nodes)
                    assert got == ref_rouche_certify(HornerReference(gaf), r, bound,
                                                     max_nodes=max_nodes)
                    results.add(got)
        assert results == {True, False}

    def test_circle_means_match_reference_loop(self):
        for r, gaf in WALKER_DRAWS:
            for s in (0.5 * r, 0.9 * r, r):
                for tol, start, cap in ((1e-8, 128, MAX_NODES), (1e-15, 128, 512),
                                        (1e-15, 128, 64), (1e-15, 256, 384)):
                    (got,) = batch_outcomes(circle_mean_log_abs_many([(gaf, s)], tol,
                                                                     start, cap))
                    want = outcome(ref_circle_mean_log_abs, HornerReference(gaf), s, tol,
                                   start_nodes=start, max_nodes=cap)
                    assert kind(got) == kind(want)
                    if got[0] == "ok":
                        assert abs(got[1] - want[1]) <= 1e-12

    def test_grid_values_match_horner(self):
        # rounding of either path is within (2(N+1) + 8 log2 n) eps sum |c_k|,
        # for the row c_k of f and k c_k for r f'; start grids of 8 and 16
        # nodes fold the coefficients
        eps = np.finfo(float).eps
        folded = 0
        for r, gaf in WALKER_DRAWS:
            ref = HornerReference(gaf)
            c, _ = ref.row(r)
            k = np.arange(len(c))
            scale = float(np.sum(np.abs(c)))
            on_grid = zeros._coefficient_rows([gaf], [r])[0]
            for start in (8, 16, 256):
                # one walk, every level recorded
                levels = []

                def step(rows, vals):
                    assert rows.tolist() == [0]
                    levels.append(vals[0].copy())
                    return np.ones(1, dtype=bool)

                zeros._circle_grids(on_grid, 1, start, 4096, step)
                assert len(levels[-1]) == 4096
                for vals in levels:
                    n = len(vals)
                    bound = (2 * (gaf.degree + 1) + 8 * math.log2(n)) * eps * scale
                    assert np.abs(vals - ref.grid(r, n, 0.0)).max() <= bound
                    slope = np.abs(on_grid(np.zeros(1, dtype=int), n, 0.0, k)[0]) / r
                    assert np.abs(slope - ref.slope(r, n)).max() <= bound * gaf.degree / r
                    folded += n < gaf.degree + 1 and gaf.degree >= 63
        assert folded > 0

    def test_planar_large_r_counts_match_log_oracle(self):
        # at degrees 408-587 the planar weights a_k sigma_k are subnormal
        # from k = 301 and 0 from k = 314, and past r = 37.6 the largest term
        # e^L overflows a float; the walk reads the row in units of e^L, as
        # the oracle does, and must certify every count
        for r in (16.0, 18.0, 20.0, 30.0, 37.0, 38.0, 40.0):
            for k in range(5):
                gaf = sample_truncated(PLANAR, r, stream(11, k))
                res, _ = count_with_retry(gaf, r, math.log(4.0) + gaf.log_tail_sd)
                assert res.count == log_oracle_count(gaf, r)

    def test_domain_guard(self):
        r, gaf = WALKER_DRAWS[0]
        for slack in (2e-5, 2e-6):
            s = r * (1.0 + slack)
            with pytest.raises(ValueError, match="outside radius_of_use"):
                count_with_retry(gaf, s, -math.inf)
            with pytest.raises(ValueError, match="outside radius_of_use"):
                circle_mean_log_abs_many([(gaf, s)], 1e-8)
            with pytest.raises(ValueError, match="outside radius_of_use"):
                max_modulus(gaf, s)
        # a radius within the guard's DOMAIN_SLACK is counted
        assert count_with_retry(gaf, r * (1.0 + 5e-13), -math.inf)[0].count >= 0

    @pytest.mark.parametrize("entry", [
        lambda gaf, s: coefficient_rows([gaf], [s]),
        lambda gaf, s: find_gaf_roots([gaf], [s]),
        lambda gaf, s: zeros.certified_counts([(gaf, s, -math.inf)]),
        lambda gaf, s: circle_mean_log_abs_many([(gaf, s)], 1e-8),
        lambda gaf, s: max_modulus(gaf, s),
    ], ids=["rows", "roots", "counts", "means", "max"])
    def test_every_row_reader_checks_its_radius(self, entry):
        # one guard in models.coefficient_rows: a planar draw fit for r = 2
        # has no row at 3 (its tail bound holds only up to 2), nor at 0 or -1
        gaf = sample_truncated(PLANAR, 2.0, stream(7, 0))
        with pytest.raises(ValueError, match="outside radius_of_use"):
            entry(gaf, 3.0)
        for s in (0.0, -1.0):
            with pytest.raises(ValueError, match="radius must be positive"):
                entry(gaf, s)


def arc_bounds(gaf, r, n):
    # the walker's lower bound on |f| over the half arcs next to each node
    # of the n-node grid, from units of e^L back to |f|
    rows = zeros._coefficient_rows([gaf], [r])
    _, bounds, _ = zeros._arc_terms([gaf], [r], rows)
    row = np.zeros(1, dtype=int)
    return bounds(row, np.abs(rows[0](row, n, 0.0)))[0] * math.exp(rows[1][0])


def dense_minima(gaf, r, n, nodes, points=17):
    # min |f| over the two half arcs next to each of ``nodes`` of the n-node
    # grid, on ``points`` equispaced points, in 30-digit mpmath, of
    # f = sum_k a_k sigma_k z^k with the planar sigma_k = 1/sqrt(k!)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        c = [mpmath.mpc(complex(a)) / mpmath.sqrt(mpmath.factorial(k))
             for k, a in enumerate(gaf.coeffs)][::-1]
        t = [mpmath.mpf(i) / (points - 1) - mpmath.mpf(1) / 2 for i in range(points)]
        return [float(min(abs(mpmath.polyval(c, r * mpmath.expjpi(2 * (j + s) / n)))
                          for s in t)) for j in nodes]


class TestArcMargin:
    """The arc margin is at most a dense 30-digit minimum of |f| on every arc."""

    def test_ceiling_bounds_every_node_margin(self):
        # the ceiling at node j is at least the margin read there with f',
        # on planted near-circle zeros and planar draws, at every node
        rng = np.random.default_rng(82)
        gafs = [sample_truncated(PLANAR, 2.5, stream(72, k)) for k in range(3)]
        angle = np.exp(2j * math.pi * rng.random(4))
        c = np.polynomial.polynomial.polyfromroots([*(1.0 + 1e-3) * angle, 0.4, 2.0j])
        cases = [(gaf, 2.0) for gaf in gafs] + [(poly(c, 1.0), 1.0)]
        for gaf, r in cases:
            rows = zeros._coefficient_rows([gaf], [r])
            on_grid = rows[0]
            _, bounds, ceiling = zeros._arc_terms([gaf], [r], rows)
            for n in (64, 256, 1024):
                row = np.zeros(1, dtype=int)
                vals = on_grid(row, n, 0.0)
                margin = bounds(row, np.abs(vals))[0]
                every = np.zeros(n, dtype=int)
                top = ceiling(every, np.broadcast_to(vals, (n, n)), np.arange(n))
                assert np.all(top >= margin)

    def check(self, gaf, r, n):
        # every positive node bound against its half arcs; the others hold
        # as |f| >= 0.  Returns the number of positive bounds.
        bound = arc_bounds(gaf, r, n)
        live = np.flatnonzero(bound > 0)
        for b, dense in zip(bound[live], dense_minima(gaf, r, n, live)):
            assert dense >= b
        return len(live)

    def test_planted_zeros_near_circle(self):
        # five zeros planted within 1e-3 of |z| = r, inside and outside,
        # next to one inside and one outside the disk
        rng = np.random.default_rng(81)
        checked = 0
        for r in (0.8, 2.0):
            angle = np.exp(2j * math.pi * rng.random(5))
            planted = r * (1.0 + rng.uniform(-1e-3, 1e-3, 5)) * angle
            c = np.polynomial.polynomial.polyfromroots([*planted, 0.3 * r, 3.0 * r * 1j])
            for n in (128, 512):
                checked += self.check(poly(c, r), r, n)
        assert checked > 1000

    def test_bump_between_nodes(self):
        # f = 1 - B ((z - z0) (z - z1))^2 with z0, z1 adjacent nodes of the
        # 64-node grid: f = 1 and f' = 0 at both, and B takes |f| to 1e-4 at
        # the arc's midpoint.  The first-order terms see no dip; only
        # l^2 M2/8 keeps that arc's margin below its minimum.
        r, n = 1.0, 64
        z0, z1, mid = 1.0, np.exp(2j * math.pi / n), np.exp(1j * math.pi / n)
        big = (1.0 - 1e-4) / ((mid - z0) * (mid - z1)) ** 2
        c = -big * np.polynomial.polynomial.polyfromroots([z0, z0, z1, z1])
        c[0] += 1.0
        gaf = poly(c, r)
        assert np.min(np.abs(np.abs(find_gaf_roots([gaf], [r])[0]) - r)) < 1e-3
        assert max(dense_minima(gaf, r, n, [0, 1])) < 2e-4
        for m in (n, 4 * n):
            self.check(gaf, r, m)


class TestCountReplicas:
    def test_matches_per_replica_counts(self):
        model, r, guard, seed = GafModel.hyperbolic(1.0), 0.9, 100.0, 5
        degree = choose_truncation(model, r)
        keys = [7, 0, 3, 3, 12]
        counts = count_replicas(model, r, degree, math.log(guard), seed, keys)
        want = []
        for k in keys:
            gaf = sample_truncated(model, r, stream(seed, k), degree=degree)
            try:
                res, retries = count_with_retry(gaf, r, math.log(guard) + gaf.log_tail_sd)
            except InconclusiveCount:
                want.append(-1)
                continue
            want.append(res.count)
            assert retries == 0
        assert counts.tolist() == want

    @pytest.mark.parametrize("replicas,reads", [(5, 1), (zeros.REPLICA_BLOCK + 1, 2)])
    def test_one_tail_variance_per_block(self, monkeypatch, replicas, reads):
        # the replicas of a block share (model, degree, r), so the block
        # reads its floor once
        calls = []
        variance = models.log_tail_variance

        def counting(*args):
            calls.append(args)
            return variance(*args)

        monkeypatch.setattr(models, "log_tail_variance", counting)
        counts = count_replicas(PLANAR, 1.0, 8, math.log(100.0), 2, range(replicas))
        assert len(counts) == replicas
        assert calls == [(PLANAR, 8, 1.0)] * reads

    def test_unresolved_replica_counts_minus_one(self):
        # a floor above every |f| on the circle leaves each replica unresolved
        counts = count_replicas(PLANAR, 1.0, 8, math.log(1e300), 2, range(3))
        assert counts.tolist() == [-1, -1, -1]


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


def batch_outcomes(results):
    # a batch's entries as outcome() gives them
    return [outcome(lambda x: x, x) for x in results]


def mixed_rows():
    # (gaf, r): coefficient rows of several degrees and models, each at two radii
    return [(gaf, s) for r, gaf in WALKER_DRAWS for s in (r, 0.9 * r)]


# the floor hit of the roots-jensen panel trial (stream (0, 31)), min |f| =
# 28.93 on its circle, in units of its largest term e^L = e^12.33
PANEL_FLOOR_HIT = "min |f| = 1.281e-04 at or below floor 4.208e-04"


class TestBatchedWalker:
    """Batches give every row the outcome of the one-row reference loops."""

    def check_counts(self, floors, max_nodes):
        rows = mixed_rows()
        got = batch_outcomes(zeros.certified_counts(
            [(gaf, r, floor) for (gaf, r), floor in zip(rows, floors)], 256, max_nodes))
        for g, (gaf, r), floor in zip(got, rows, floors):
            assert g == outcome(ref_count, FftReference(gaf), r, floor, max_nodes=max_nodes)
        return {kind(g) for g in got}

    def check_means(self, rows, tol, start, cap):
        got = batch_outcomes(zeros.circle_mean_log_abs_many(rows, tol, start, cap))
        for g, (gaf, s) in zip(got, rows):
            assert g == outcome(ref_circle_mean_log_abs, FftReference(gaf), s, tol,
                                start_nodes=start, max_nodes=cap)
        return {kind(g) for g in got}

    def test_grid_rows_match_reference_bitwise(self):
        # rows of different lengths, a sparse one among them and a planar
        # one at r = 18 whose weights are subnormal or 0 from k = 301, on
        # start grids that fold the long rows: every level of every row,
        # and the rows weighted by k and k (k - 1) on its nodes, have the
        # bits of the row's own one-row FFT, signed zeros included
        coeffs = np.zeros(6, dtype=complex)
        coeffs[5] = 1.0
        sparse = TruncatedGaf(PLANAR, coeffs, 0.9)
        large = sample_truncated(PLANAR, 18.0, stream(11, 0))
        gafs = [gaf for _, gaf in WALKER_DRAWS] + [sparse, large]
        rs = [r for r, _ in WALKER_DRAWS] + [0.9, 18.0]
        on_grid = zeros._coefficient_rows(gafs, rs)[0]
        k = np.arange(len(large.coeffs))
        for start in (8, 16, 128):
            levels = []

            def step(rows, vals):
                levels.append(vals.copy())
                return np.ones(len(rows), dtype=bool)

            zeros._circle_grids(on_grid, len(gafs), start, 1024, step)
            for j, (gaf, r) in enumerate(zip(gafs, rs)):
                ref = FftReference(gaf)
                want = ref.grid(r, start, 0.0)
                for level in levels:
                    assert same_bits(level[j], want)
                    if len(want) < 1024:
                        want = ref_interleave(ref, r, want)
            n = len(levels[-1][0])
            for weight in (k * 1.0, k * (k - 1.0)):
                rows = on_grid(np.arange(len(gafs)), n, 0.0, weight)
                for got, gaf, r in zip(rows, gafs, rs):
                    assert same_bits(got, FftReference(gaf).grid(r, n, 0.0,
                                                                  weight[:gaf.degree + 1]))

    def test_counts_match_reference_loop(self):
        kinds = set()
        for i, max_nodes in enumerate((256, 512, MAX_NODES)):
            floors = [WALKER_BOUNDS[(i + j) % len(WALKER_BOUNDS)] for j in range(18)]
            kinds |= self.check_counts(floors, max_nodes)
        # floor hits, node-cap hits and counts in one batch
        assert kinds == {"ok", "min", "arc"}

    def test_means_match_reference_loop(self):
        rows = mixed_rows() + [(poly([0.0], 1.0), 1.0)]
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

        def recording(on_grid, size, start, cap, step):
            def rec(rows, vals):
                shapes.append(vals.shape)
                return step(rows, vals)
            return walk(on_grid, size, start, cap, rec)

        monkeypatch.setattr(zeros, "_circle_grids", recording)
        self.check_counts([WALKER_BOUNDS[j % len(WALKER_BOUNDS)] for j in range(18)], MAX_NODES)
        self.check_means(mixed_rows(), 1e-12, 128, MAX_NODES)
        # only a row alone outgrows the budget
        assert max(k * n for k, n in shapes if k > 1) <= 1024
        assert (8, 128) in shapes and (4, 256) in shapes and (2, 512) in shapes

    def test_empty_batches(self):
        # a chunk whose every count stays unresolved solves and walks nothing
        assert zeros.certified_counts([]) == []
        assert zeros.circle_mean_log_abs_many([], 1e-8) == []
        assert zeros.jensen_residuals([]) == []
        rows = experiments._jensen_chunk(0.5, 3.0, 1.25, 1e-8, math.log(1e300), 0, range(3))
        assert [(row[3], row[4], row[-1]) for row in rows] == [(-1, -1, False)] * 3

    def test_one_walk_per_count(self, monkeypatch):
        # a batch of counts is one walk, each row with the outcome of its
        # one-row reference loop: polynomials with a zero on the circle, at
        # the nodes +-1 or between nodes, hit their floor; z with a floor
        # 1e-6 below |z| = 1 keeps its arc margin 1 - pi/n - E below the
        # floor up to the node cap; planar draws count; and the slowest
        # trial of the roots-jensen panel hits its floor
        walks = []
        walk = zeros._circle_grids

        def counting(on_grid, size, *args):
            walks.append(size)
            return walk(on_grid, size, *args)

        monkeypatch.setattr(zeros, "_circle_grids", counting)
        between = np.polynomial.polynomial.polyfromroots([np.exp(1j), -0.3])
        rows = [(poly([-1, 0, 1], 1.0), 1.0, math.log(1e-3)),
                (poly(between, 1.0), 1.0, math.log(1e-3)),
                (poly([0, 1], 1.0), 1.0, math.log(1.0 - 1e-6))]
        for k in range(6):
            gaf = sample_truncated(PLANAR, 2.3, stream(71, k))
            rows.append((gaf, 2.3, math.log(100.0) + gaf.log_tail_sd))
        rng = stream(0, 31)
        r = 3.0 + 3.0 * rng.random()
        gaf = sample_truncated(PLANAR, 1.25 * r, rng)
        rows.append((gaf, r, math.log(100.0) + gaf.log_tail_sd))
        got = batch_outcomes(zeros.certified_counts(rows))
        assert walks == [len(rows)]
        for g, (gaf, r, floor) in zip(got, rows):
            assert g == outcome(ref_count, FftReference(gaf), r, floor)
        for g in got[:2]:
            assert g[0] == "inconclusive" and g[1].startswith("min |f| = ")
            assert g[1].endswith(" at or below floor 1.000e-03 on |z| = 1.0")
        assert got[2] == ("inconclusive", "arc margin not above floor 1.000e+00 "
                                          f"at {MAX_NODES} nodes on |z| = 1.0")
        assert {g[0] for g in got[3:-1]} == {"ok"}
        assert got[-1][1].startswith(PANEL_FLOOR_HIT)


class TestOneWalk:
    """A count is one walk at r; a count that hits its floor is unresolved."""

    def test_floor_hit_is_unresolved(self, monkeypatch):
        # the roots-jensen panel trial hits its floor at 262144 nodes, in
        # the one walk of its count
        rng = stream(0, 31)
        r = 3.0 + 3.0 * rng.random()
        gaf = sample_truncated(PLANAR, 1.25 * r, rng)
        walks, widths = [], []
        walk = zeros._circle_grids

        def counting(on_grid, size, start, cap, step):
            walks.append(size)

            def rec(rows, vals):
                widths.append(vals.shape[1])
                return step(rows, vals)
            return walk(on_grid, size, start, cap, rec)

        monkeypatch.setattr(zeros, "_circle_grids", counting)
        (res,) = zeros.certified_counts([(gaf, r, math.log(100.0) + gaf.log_tail_sd)])
        assert isinstance(res, InconclusiveCount)
        assert str(res).startswith(PANEL_FLOOR_HIT)
        assert walks == [1]
        assert widths[-1] == 262144

    def test_no_derivative_read_below_the_ceiling(self, monkeypatch):
        # the panel trial's margin stays below its floor at the eight levels
        # 1024-131072 where min |f| less the slack is above it; the ceiling
        # rules the margin out at all eight, so f' is never read, and the
        # outcome is the floor hit at 262144 nodes
        rng = stream(0, 31)
        r = 3.0 + 3.0 * rng.random()
        gaf = sample_truncated(PLANAR, 1.25 * r, rng)
        reads = []
        terms = zeros._arc_terms

        def recording(gafs, rs, rows):
            slack, bounds, ceiling = terms(gafs, rs, rows)

            def read(rows, mods):
                reads.append(mods.shape[1])
                return bounds(rows, mods)
            return slack, read, ceiling

        monkeypatch.setattr(zeros, "_arc_terms", recording)
        log_floor = math.log(100.0) + gaf.log_tail_sd
        (res,) = zeros.certified_counts([(gaf, r, log_floor)])
        assert outcome(ref_count, FftReference(gaf), r, log_floor) == \
            ("inconclusive", str(res))
        assert str(res).startswith(PANEL_FLOOR_HIT)
        assert reads == []
