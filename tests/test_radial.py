"""Radial laws and the exact Poisson-binomial tail machinery."""

import math

import numpy as np
import pytest
from scipy import special

from gafzeros import (BernoulliProfile, RadialEnsemble, TailBracket, _num,
                      bernoulli_probs, radial, sample_radii, stream, tail_log_brackets)

GIN = RadialEnsemble.GINIBRE
HYP = RadialEnsemble.HYPERBOLIC_ONE


def brute_poisson_tail(lam, n, terms=800):
    # independent oracle: direct summation of the Poisson mass
    k = np.arange(n, n + terms)
    return float(np.sum(np.exp(k * math.log(lam) - lam - special.gammaln(k + 1))))


def enumerate_tail_log(log_p, log_q, m):
    # exhaustive 2^N enumeration oracle (vectorized over bit masks)
    n = len(log_p)
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    counts = bits.sum(axis=1)
    logw = np.where(bits, log_p, log_q).sum(axis=1)
    keep = logw[counts >= m]
    return float(special.logsumexp(keep))


def reference_dp(profile, m):
    # the per-level absorbing DP, restarted at index 1 for every m
    state = np.full(m + 1, -np.inf)
    state[0] = 0.0
    for lp, lq in zip(profile.log_probs, profile.log_one_minus):
        up = state[m - 1] + lp
        shifted = np.concatenate(([-np.inf], state[:m-1] + lp))
        state[:m] = np.logaddexp(state[:m] + lq, shifted)
        state[m] = np.logaddexp(state[m], up)
    return state


def dp_bracket(profile, m):
    # one level of one profile through the DP primitives of tail_log_brackets
    if m == 0:
        return TailBracket(0.0, 0.0)
    states = radial._states([m], [profile.size], profile.log_probs, profile.log_one_minus)
    lower, upper, _ = radial._brackets(states, [profile.log_neglected])
    return TailBracket(float(lower[0]), float(upper[0]))


def reference_tail(profile, m):
    # bracket from the per-level DP: clamped survival plus the neglected-mass term
    state = reference_dp(profile, m)
    survival = np.logaddexp.accumulate(state[::-1])[::-1]
    j = np.arange(0, m + 1)
    with np.errstate(invalid="ignore"):
        corr = j * profile.log_neglected - special.gammaln(j + 1) + survival[::-1]
    if not np.isfinite(profile.log_neglected):
        corr = np.where(j == 0, survival[m], -np.inf)
    return (min(float(state[m]), 0.0), min(float(special.logsumexp(corr)), 0.0)), survival


def reference_bracket(ens, r, m):
    # per-level refinement: deepen the profile until the bracket meets the target
    if m == 0:
        return (0.0, 0.0)
    target_width = radial.BRACKET_WIDTH
    profile = bernoulli_probs(ens, r, min_terms=m + 8)
    br, survival = reference_tail(profile, m)
    for _ in range(4):
        if br[1] - br[0] <= target_width:
            return br
        needed = math.log(target_width / 2.0) + survival[m] - survival[m - 1]
        n = profile.size
        if ens is HYP:
            n = max(n + 8, math.ceil((needed + math.log1p(-r * r)) / (2.0 * math.log(r)) - 1.0))
        else:
            while ens.law(r).neglected(n) >= needed:
                n = int(n * 1.4) + 4
        profile = bernoulli_probs(ens, r, min_terms=n)
        br, survival = reference_tail(profile, m)
    return br


class TestProfiles:
    def test_ginibre_first_probability(self):
        prof = bernoulli_probs(GIN, 1.0)
        assert prof.probs[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_ginibre_matches_poisson_summation_oracle(self):
        prof = bernoulli_probs(GIN, 1.0, min_terms=50)
        for n in range(1, 51):
            assert prof.probs[n - 1] == pytest.approx(brute_poisson_tail(1.0, n), rel=1e-12)

    def test_ginibre_log_one_minus_where_q_underflows(self):
        # Q(n, r^2) < 1e-280 for the first 6 indices at r = 26, 74 at r = 30
        # and 404 at r = 40; log Q stays finite there (-r^2 at n = 1)
        mpmath = pytest.importorskip("mpmath")
        for r in (26.0, 30.0, 40.0):
            prof = bernoulli_probs(GIN, r, min_terms=50)
            assert prof.log_one_minus[0] == -r * r
            for n in (1, 5, 50):
                got = prof.log_one_minus[n - 1]
                with mpmath.workdps(40):
                    want = float(mpmath.log(mpmath.gammainc(n, r * r, mpmath.inf,
                                                            regularized=True)))
                assert math.isfinite(got)
                assert got == pytest.approx(want, rel=1e-13)

    def test_hyperbolic_probabilities(self):
        prof = bernoulli_probs(HYP, 0.5)
        assert prof.probs[1] == pytest.approx(0.0625, rel=1e-14)
        assert np.all(np.diff(prof.log_probs) < 0)  # strictly decreasing

    def test_hyperbolic_log_one_minus_near_one(self):
        # p_k = r^{2k} near 1: log(1 - p_k) to 1e-14 relative against 50 digits
        mpmath = pytest.importorskip("mpmath")
        for r in (0.999, 0.99999):
            prof = bernoulli_probs(HYP, r, min_terms=50)
            for n in range(1, 51):
                with mpmath.workdps(50):
                    want = float(mpmath.log(1 - mpmath.mpf(r) ** (2 * n)))
                assert prof.log_one_minus[n - 1] == pytest.approx(want, rel=1e-14, abs=0)

    def test_ginibre_monotone_past_r_squared(self):
        prof = bernoulli_probs(GIN, 2.0, min_terms=30)
        start = int(math.ceil(4.0))
        assert np.all(np.diff(prof.log_probs[start:]) < 0)

    def test_neglected_mass_below_eps(self, monkeypatch):
        monkeypatch.setattr(radial, "PROFILE_EPS", 1e-6)
        for ens, r in ((GIN, 1.5), (HYP, 0.7)):
            prof = bernoulli_probs(ens, r)
            assert prof.neglected_mass < 1e-6
            assert np.all((prof.probs > 0) & (prof.probs < 1))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            bernoulli_probs(HYP, 1.1)


class TestSampleRadii:
    @pytest.mark.parametrize("ens", [GIN, HYP])
    def test_batch_rows_are_successive_draws(self, ens):
        batch = sample_radii(ens, stream(70), 5, 9)
        rng = stream(70)
        rows = np.vstack([sample_radii(ens, rng, 1, 9) for _ in range(5)])
        assert batch.shape == (5, 9)
        assert batch.tobytes() == rows.tobytes()

    def test_ginibre_squared_means(self):
        trials, depth = 4000, 12
        mean = (sample_radii(GIN, stream(71), trials, depth) ** 2).sum(axis=0) / trials
        n = np.arange(1, depth + 1)
        # 4 sigma: twelve simultaneous comparisons
        assert np.all(np.abs(mean - n) < 4.0 * np.sqrt(n / trials))

    def test_hyperbolic_cdf_matches_power_law(self):
        trials, r = 20000, 0.6
        hits = (sample_radii(HYP, stream(72), trials, 4) < r).sum(axis=0)
        for n in range(1, 5):
            p = r ** (2 * n)
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(hits[n - 1] / trials - p) < 4.0 * se

    def test_count_matches_profile_expectation(self):
        trials, r = 20000, 1.0
        prof = bernoulli_probs(GIN, r, min_terms=20)
        expect = float(prof.probs.sum())
        total = int((sample_radii(GIN, stream(73), trials, prof.size) < r).sum())
        sd = math.sqrt(float(np.sum(prof.probs * (1 - prof.probs))) / trials)
        assert abs(total / trials - expect) < 4.0 * sd


class TestTailDP:
    def test_half_half(self):
        prof = BernoulliProfile(GIN, 1.0, np.log([0.5, 0.5]),
                                np.log([0.5, 0.5]), -np.inf)
        br = dp_bracket(prof, 1)
        assert br.log_lower == pytest.approx(math.log(0.75), abs=1e-12)
        assert br.log_upper == pytest.approx(math.log(0.75), abs=1e-12)

    def test_m_zero(self):
        prof = bernoulli_probs(GIN, 1.0)
        assert dp_bracket(prof, 0) == (0.0, 0.0)

    def test_matches_exhaustive_enumeration(self):
        rng = stream(81)
        for n, m in ((12, 3), (16, 1), (18, 9), (20, 5)):
            p = rng.random(n) * 0.9 + 0.05
            prof = BernoulliProfile(GIN, 1.0, np.log(p), np.log1p(-p), -np.inf)
            got = dp_bracket(prof, m).log_lower
            want = enumerate_tail_log(np.log(p), np.log1p(-p), m)
            assert got == pytest.approx(want, abs=1e-12)

    def test_hyperbolic_product_lower_bound(self):
        (br,) = tail_log_brackets(HYP, 0.5, [3])
        assert br.log_lower >= 12 * math.log(0.5)

    def test_bracket_width(self):
        for ens, r, m in ((GIN, 1.0, 5), (GIN, 2.0, 25), (HYP, 0.7, 12)):
            (br,) = tail_log_brackets(ens, r, [m])
            assert br.log_upper - br.log_lower <= 1e-6

    def test_monotone_in_m_and_r(self):
        vals = [br.log_lower for br in tail_log_brackets(GIN, 1.0, range(1, 12))]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        vals = [tail_log_brackets(GIN, r, [6])[0].log_lower for r in (0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        vals = [tail_log_brackets(HYP, r, [6])[0].log_lower for r in (0.3, 0.5, 0.7)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_matches_monte_carlo(self):
        # MC oracle at modest size; the acceptance suite runs the 1e6 version
        ens, r, m, trials = GIN, 1.0, 3, 200000
        rng = stream(82)
        depth = bernoulli_probs(ens, r, min_terms=m + 8).size
        shapes = np.broadcast_to(np.arange(1.0, depth + 1.0), (trials, depth))
        radii2 = rng.standard_gamma(shapes)
        counts = (radii2 < r * r).sum(axis=1)
        hits = int((counts >= m).sum())
        p_hat = hits / trials
        exact = math.exp(tail_log_brackets(ens, r, [m])[0].log_lower)
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(p_hat - exact) < 4.0 * se

    def test_deep_tail_stays_finite(self):
        (br,) = tail_log_brackets(GIN, 1.0, [120])
        assert np.isfinite(br.log_lower)
        assert br.log_lower < -1e4
        assert br.log_upper - br.log_lower <= 1e-6


class TestSweep:
    @pytest.mark.parametrize("ens, r, ms, refines", [
        (GIN, 1.0, [0, 1, 2, 5, 17, 40, 5, 0, 120], False),
        (GIN, 6.0, [0, 3, 36, 71, 90, 120, 36, 150], True),
        (GIN, 10.0, [0, 1, 100, 180, 200, 250, 200], True),
        (HYP, 0.5, [0, 1, 3, 6, 10, 25, 3], True),
        (HYP, 0.9, [0, 1, 20, 34, 60, 120, 20], True),
        # several chunks and two rounds, with duplicate levels
        (GIN, 10.0, [*range(0, 301), 0, 7, 150, 180, 300], True),
        # the exponent-fit grid: few levels over a deep sweep
        (GIN, 1.0, list(range(100, 801, 100)), False),
    ])
    def test_batch_equals_per_level(self, ens, r, ms, refines):
        ms = [int(m) for m in stream(83).permutation(ms)]
        batch = tail_log_brackets(ens, r, ms)
        single = [tail_log_brackets(ens, r, [m])[0] for m in ms]
        assert [tuple(b) for b in batch] == [tuple(b) for b in single]
        assert [tuple(b) for b in batch] == [reference_bracket(ens, r, m) for m in ms]
        # refines: some level's first-depth bracket misses the target width
        first = [reference_tail(bernoulli_probs(ens, r, min_terms=m + 8), m)[0]
                 for m in ms if m > 0]
        assert any(hi - lo > 1e-6 for lo, hi in first) == refines

    def test_rounds_and_chunks(self, monkeypatch):
        # Ginibre r = 10 over m = 1..300 reads every level once, then the
        # 121 levels that miss the width once more at depths 289..435; the
        # second round resumes from the state the first saved at depth 256,
        # so the radius sweeps 308 + 179 steps, not 308 + 435.  Each round
        # prices its states, shallowest first, in chunks of at most
        # BRACKET_CELLS cells
        rounds, depths, starts = [], [], []
        sweep, brackets, rows = radial._states, radial._brackets, _num.logsumexp_rows

        def reading(levels, reads, log_p, log_q, saved):
            depths.append(list(reads))
            starts.append(max((d for d in saved if d <= min(reads)), default=0))
            return sweep(levels, reads, log_p, log_q, saved)

        def recording(states, log_neglected):
            rounds.append([])
            return brackets(states, log_neglected)

        def chunk(a, sizes):
            rounds[-1].append(a.shape)
            return rows(a, sizes)

        monkeypatch.setattr(radial, "_states", reading)
        monkeypatch.setattr(radial, "_brackets", recording)
        monkeypatch.setattr(_num, "logsumexp_rows", chunk)
        tail_log_brackets(GIN, 10.0, range(1, 301))
        assert [sum(k for k, _ in shapes) for shapes in rounds] == [300, 121]
        assert (len(depths[1]), min(depths[1]), max(depths[1])) == (121, 289, 435)
        assert [len(shapes) for shapes in rounds] == [7, 4]
        assert max(k * width for shapes in rounds for k, width in shapes) <= radial.BRACKET_CELLS
        assert starts[0] == 0 and starts[1] >= 256
        assert sum(max(d) - s for d, s in zip(depths, starts)) == 308 + 179

    def test_resumed_sweep_keeps_the_bits_of_a_full_sweep(self):
        # a second sweep over some of the first sweep's levels, resumed from
        # its saved states, reads what one sweep from index 1 reads
        prof = bernoulli_probs(GIN, 6.0, min_terms=300)
        saved = {}
        first = dict(radial._states([3, 40, 90, 150], [60, 100, 130, 170],
                                    prof.log_probs, prof.log_one_minus, saved))
        # from the last power of two at or below the shallowest read, 60
        assert sorted(saved) == [32, 64, 128]
        assert all(len(pmf) == 150 and len(absorbed) == 4 for _, pmf, absorbed in saved.values())
        levels, reads = [40, 150], [270, 140]
        resumed = dict(radial._states(levels, reads, prof.log_probs, prof.log_one_minus, saved))
        fresh = dict(radial._states(levels, reads, prof.log_probs, prof.log_one_minus))
        assert 256 in saved and len(first) == 4
        assert all(resumed[i].tobytes() == fresh[i].tobytes() for i in range(2))

    def test_other_eps_and_width(self, monkeypatch):
        for ens, r, eps, width in ((GIN, 2.0, 1e-6, 1e-3), (HYP, 0.8, 1e-4, 1e-10),
                                   (GIN, 6.0, 1e-9, 1e-12)):
            monkeypatch.setattr(radial, "PROFILE_EPS", eps)
            monkeypatch.setattr(radial, "BRACKET_WIDTH", width)
            ms = [9, 1, 30, 4, 0, 17]
            batch = tail_log_brackets(ens, r, ms)
            assert [tuple(b) for b in batch] == [reference_bracket(ens, r, m) for m in ms]

    def test_refinement_stops_after_four_rounds(self, monkeypatch):
        # with every depth left where it starts, no round can narrow a
        # bracket: each level is refined four times, then returned as it is
        monkeypatch.setattr(GIN.law, "depth", lambda law, log_mass, n, growth: n)
        rounds = []
        brackets = radial._brackets

        def counting(states, log_neglected):
            rounds.append(len(log_neglected))
            return brackets(states, log_neglected)

        monkeypatch.setattr(radial, "_brackets", counting)
        got = tail_log_brackets(GIN, 3.0, [10, 15, 20])
        assert rounds == [3] * 5
        for br in got:
            assert math.isfinite(br.log_lower) and math.isfinite(br.log_upper)
            assert br.log_lower <= br.log_upper <= 0.0
            assert br.log_upper - br.log_lower > radial.BRACKET_WIDTH

    def test_dp_matches_reference_bitwise(self):
        rng = stream(84)
        p = rng.random(40) * 0.9 + 0.05
        p[3] = 1.0
        with np.errstate(divide="ignore"):
            manual = BernoulliProfile(GIN, 1.0, np.log(p), np.log1p(-p), -np.inf)
        profiles = [manual, bernoulli_probs(GIN, 10.0, min_terms=130),
                    bernoulli_probs(GIN, 1.0, min_terms=60), bernoulli_probs(HYP, 0.9)]
        for prof in profiles:
            for m in (1, 2, 7, 33, 60):
                got = dp_bracket(prof, m)
                assert tuple(got) == reference_tail(prof, m)[0]

    def test_empty_and_negative_levels(self):
        assert tail_log_brackets(GIN, 1.0, []) == []
        assert tail_log_brackets(HYP, 1.5, [0, 0]) == [(0.0, 0.0), (0.0, 0.0)]
        with pytest.raises(ValueError):
            tail_log_brackets(GIN, 1.0, [3, -1, 5])
        with pytest.raises(ValueError):
            tail_log_brackets(HYP, 0.5, [-2])
        with pytest.raises(ValueError):
            tail_log_brackets(HYP, 1.5, [0, 2])


class TestSandwiches:
    def test_ginibre_sandwich_small_grid(self):
        from gafzeros import ginibre_tail_brackets
        for r in (0.5, 1.0, 2.0):
            ms = range(max(2, math.ceil(r * r)), 16)
            for bk, dp in zip(ginibre_tail_brackets(r, ms), tail_log_brackets(GIN, r, ms)):
                assert bk.log_lower <= dp.log_lower <= bk.log_upper

    def test_hyperbolic_sandwich_small_grid(self):
        from gafzeros import _num  # noqa: F401  (lchoose lives in bounds path)
        from gafzeros._num import lchoose
        for r in (0.3, 0.5, 0.7):
            for m, br in zip(range(1, 16), tail_log_brackets(HYP, r, range(1, 16))):
                dp = br.log_lower
                lo = m * (m + 1) * math.log(r)
                hi = float(np.logaddexp(lchoose(m * m, m) + m * (m + 1) * math.log(r),
                                        (2 * m * m + 2) * math.log(r) - math.log1p(-r * r)))
                assert lo <= dp <= hi


class TestLogSumExp:
    def test_matches_scipy_bitwise(self):
        # random lengths and spreads, with -inf entries and ties at the max
        rng = np.random.default_rng(17)
        cases = [np.array([]), np.array([2.5]), np.array([-np.inf]),
                 np.array([-np.inf, -np.inf]), np.array([np.inf, 1.0]),
                 np.array([3.0, 3.0, 3.0]), np.array([0.0, -800.0, 0.0])]
        for _ in range(3000):
            n = int(rng.integers(1, 60))
            a = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-1e3, 1e3)
            a[rng.random(n) < 0.2] = -np.inf
            if rng.random() < 0.3:
                a[rng.integers(0, n, size=int(rng.integers(1, n + 1)))] = np.max(a)
            cases.append(a)
        for a in cases:
            want = np.float64(special.logsumexp(a))
            got = np.float64(_num.logsumexp(a))
            assert got.tobytes() == want.tobytes(), a

    def test_rows_match_scipy_bitwise(self):
        # rows of every length to 300, padded with junk past their sizes,
        # with -inf entries, ties at the max, all -inf and NaN rows
        rng = np.random.default_rng(18)
        sizes = rng.integers(1, 301, size=400)
        a = rng.standard_normal((400, 300)) * 10.0 ** rng.uniform(-3, 3, (400, 1))
        a += rng.uniform(-1e3, 1e3, (400, 1))
        a[rng.random(a.shape) < 0.1] = -np.inf
        for i in range(0, 400, 7):
            a[i, rng.integers(0, sizes[i], size=3)] = np.max(a[i, :sizes[i]])
        a[5, :sizes[5]] = -np.inf
        a[6, 0] = np.nan
        a[7, :sizes[7]] = 3.0
        got = _num.logsumexp_rows(a, sizes)
        want = np.array([special.logsumexp(row[:k]) for row, k in zip(a, sizes)])
        assert got.tobytes() == want.tobytes()
