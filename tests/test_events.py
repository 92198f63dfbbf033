"""Constructive events: building, pricing, sampling, verification, fitting."""

import csv
import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from scipy import special

from gafzeros import (EventConstructionError, EventKind, EventSpec, GafModel,
                      IndexBlock, RadialEnsemble, TailEstimate, build_event,
                      certified_event_count, conditioned_sample, direct_mc_tail,
                      domination_constant, event_log_prob_detail, event_tail_sup_bound,
                      exponent_fit, mc_tail_estimate, sample_satisfies, stream,
                      tail_log_brackets, verify_domination)
from gafzeros import _num, events, experiments, models, zeros
from gafzeros.experiments import RunConfig
from gafzeros.models import Kind, choose_truncation, log_tail_variance

PLANAR = GafModel.planar()


def single_index_event(mode, log_c):
    blk = IndexBlock("only", 0, 0, mode, lambda n: np.full(len(n), log_c), "test")
    return EventSpec(EventKind.PLANAR_DOMINATION, PLANAR, 1.0, 0, [blk], None, {})


class TestDominationConstant:
    def test_direct_summation_oracle_planar(self):
        r, m = 1.0, 10
        n = np.arange(m + 1, 160)
        tail = float(np.sum(n * np.exp(-0.5 * special.gammaln(n + 1)) * r**n))
        scale = m * math.exp(-0.5 * special.gammaln(m + 1)) * r**m
        assert domination_constant(PLANAR, r, m) == pytest.approx(tail / scale, rel=1e-10)

    def test_direct_summation_oracle_hyperbolic(self):
        model, r, m = GafModel.hyperbolic(1.5), 0.5, 8
        n = np.arange(m + 1, 400)
        w = np.exp(0.5 * (special.gammaln(n + 1.5) - special.gammaln(n + 1)
                          - special.gammaln(1.5)))
        tail = float(np.sum(np.sqrt(n) * w * r**n))
        wm = math.exp(0.5 * (special.gammaln(m + 1.5) - special.gammaln(m + 1)
                             - special.gammaln(1.5)))
        scale = math.sqrt(m) * wm * r**m
        assert domination_constant(model, r, m) == pytest.approx(tail / scale, rel=1e-9)

    @pytest.mark.parametrize("rho,r,m", [(20.0, 0.99, 30), (1.0, 0.99, 1), (5.0, 0.95, 200)])
    def test_hyperbolic_two_sided_against_mpmath(self, rho, r, m):
        # a certified upper bound that loses no small term on the way: the
        # terms sqrt(n) w_n come from w_{n+1}^2 = w_n^2 r^2 (n+rho)/(n+1) in
        # 40 digits, summed until below 1e-30 of the sum past the peak,
        # where the ratio r sqrt((n+rho)/n) bounds every later one
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            rho_, r_ = mpmath.mpf(rho), mpmath.mpf(r)
            w2, tail, n = mpmath.mpf(1), mpmath.mpf(0), 0
            while True:
                w2 *= r_ * r_ * (n + rho_) / (n + 1)
                n += 1
                t = mpmath.sqrt(n * w2)
                if n == m:
                    scale = t
                elif n > m:
                    tail += t
                    q = r_ * mpmath.sqrt((n + rho_) / n)
                    if q < 1 and t < tail * mpmath.mpf(10) ** -30:
                        oracle = (tail + t * q / (1 - q)) / scale
                        break
        got = domination_constant(GafModel.hyperbolic(rho), r, m)
        assert got <= float(oracle * (1 + 1e-12))
        assert got >= float(oracle * (1 - 1e-14))

    def test_figure_scale_parameters_are_finite(self):
        c = domination_constant(PLANAR, 2.0, 16)
        assert 0 < c < 10

    def test_nonincreasing_in_m_past_r_squared(self):
        for r in (1.0, 2.0):
            ms = range(max(2, int(r * r) + 1), 30)
            vals = [domination_constant(PLANAR, r, m) for m in ms]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


@functools.lru_cache(maxsize=None)
def sqrt_n_weight_sums(rho, r):
    """30-digit sqrt(n) w_n for n = 1..10 and their full sum over n >= 1.

    Hyperbolic weights w_n = sigma_n r^n come from the recurrence
    w_{n+1} = w_n r sqrt((n+rho)/(n+1)), without log-gamma.  Once a term is
    below 1e-20 of the sum, the rest is bounded by the geometric series of
    the term ratio r sqrt((n+rho)/n), which decreases in n.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        rho_, r_ = mpmath.mpf(rho), mpmath.mpf(r)
        w2, total, head, n = mpmath.mpf(1), mpmath.mpf(0), [], 0
        while True:
            w2 *= r_ * r_ * (n + rho_) / (n + 1)
            n += 1
            t = mpmath.sqrt(n * w2)
            total += t
            if n <= 10:
                head.append(t)
            elif t < total * mpmath.mpf(10) ** -20:
                q = r_ * mpmath.sqrt((n + rho_) / n)
                return head, total + t * q / (1 - q)


@functools.lru_cache(maxsize=None)
def rho_below_one_values(rho, r, m):
    """(got, oracle) for domination_constant and the sup bound past depth 10."""
    head, total = sqrt_n_weight_sums(rho, r)
    ev = build_event(EventKind.HYPERBOLIC_DOMINATION, GafModel.hyperbolic(rho), r=r, m=m)
    return [(ev.params["domination_constant"], (total - sum(head[:m])) / head[m - 1]),
            (math.exp(event_tail_sup_bound(ev, 10)), total - sum(head))]


RHO_BELOW_ONE = [(rho, r, m) for rho in (0.3, 0.5) for r in (0.9, 0.999) for m in (1, 2)]


class TestRhoBelowOne:
    # hyperbolic weight ratios r sqrt((n+rho)/(n+1)) rise toward r when rho < 1

    @pytest.mark.parametrize("rho,r,m", RHO_BELOW_ONE)
    def test_at_most_1e12_above_mpmath(self, rho, r, m):
        for got, oracle in rho_below_one_values(rho, r, m):
            assert got <= float(oracle * (1 + 1e-12))

    @pytest.mark.parametrize("rho,r,m", RHO_BELOW_ONE)
    def test_not_below_mpmath(self, rho, r, m):
        for got, oracle in rho_below_one_values(rho, r, m):
            assert got >= float(oracle * (1 - 1e-14))


class TestBuildEvent:
    def test_planar_below_anchor_thresholds(self):
        r, m = 1.3, 12
        ev = build_event(EventKind.PLANAR_DOMINATION, r=r, m=m)
        below = next(b for b in ev.blocks if b.label == "below-anchor")
        n = np.arange(0, m)
        got = np.exp(below.log_threshold(n))
        want = r ** (m - n) * np.exp(0.5 * (special.gammaln(n + 1) - special.gammaln(m + 1)))
        assert np.allclose(got, want, rtol=1e-12)

    def test_degenerate_m_one(self):
        ev = build_event(EventKind.PLANAR_DOMINATION, r=1.0, m=1)
        draw = conditioned_sample(ev, stream(5, 0))
        assert sample_satisfies(ev, draw)
        (res,) = certified_event_count(ev, [draw])
        assert res.count == 1

    def test_blocks_partition_indices(self):
        for ev in (build_event(EventKind.PLANAR_DOMINATION, r=2.0, m=16),
                   build_event(EventKind.MODERATE_GROUPED, r=20.0, alpha=1.5, gamma=1.0)):
            covered = np.zeros(ev.structural_max_index + 50, dtype=int)
            for b in ev.blocks:
                hi = b.hi if b.hi is not None else len(covered) - 1
                covered[b.lo: hi + 1] += 1
            if ev.aggregate is not None:
                covered[ev.aggregate.lo: ev.aggregate.hi + 1] += 1
            assert np.all(covered == 1)

    def test_moderate_group_geometry(self):
        r, alpha, gamma = 20.0, 1.5, 1.0
        ev = build_event(EventKind.MODERATE_GROUPED, r=r, alpha=alpha, gamma=gamma)
        m, big_m = ev.m, ev.params["window_lo"]
        assert m == math.ceil(r * r + gamma * r**alpha)
        assert big_m == math.floor(r * r - gamma * r**alpha)
        assert ev.aggregate.lo == big_m + 1 and ev.aggregate.hi == m - 1
        far = next(b for b in ev.blocks if b.label == "far-tail")
        assert far.lo == math.floor(2 * r * r) + 1
        assert math.exp(far.log_threshold(np.array([far.lo]))[0]) > 0

    def test_moderate_band_decay_bounds(self):
        # (r^{2n}/n!)/(r^{2m}/m!) <= 4^{-k} on the k-th band each side
        r, alpha, gamma = 20.0, 1.5, 1.0
        ev = build_event(EventKind.MODERATE_GROUPED, r=r, alpha=alpha, gamma=gamma)
        m, p = ev.m, ev.params["band_width"]
        big_m = ev.params["window_lo"]

        def log_ratio(n):
            return (2 * n * math.log(r) - special.gammaln(n + 1)
                    - (2 * m * math.log(r) - special.gammaln(m + 1)))

        for k in range(1, math.ceil(big_m / p) + 1):
            n_lo = big_m - k * p
            if n_lo >= 0:
                assert log_ratio(n_lo) <= -k * math.log(4.0) + 1e-9
            n_hi = m + k * p
            assert log_ratio(n_hi) <= -k * math.log(4.0) + 1e-9

    @pytest.mark.parametrize("r, gamma", [(20.0, 1.0), (30.0, 1.0), (40.0, 1.0), (6.0, 0.4)])
    def test_moderate_band_scale_is_price_optimal(self, r, gamma):
        # the anchor clears the certified sup budget, and moving log beta
        # either way, with the anchor recomputed from the budget, costs price
        ev = build_event(EventKind.MODERATE_GROUPED, r=r, alpha=1.5, gamma=gamma)
        budget, anchor = ev.params["sup_budget"], ev.params["anchor"]
        assert budget < anchor
        m, big_m = ev.m, ev.params["window_lo"]
        bands = {b.label: b for b in ev.blocks if b.label.startswith("decay-")}
        first = bands["decay-below-1"]
        assert math.exp(first.log_threshold(np.array([first.lo]))[0]) == pytest.approx(
            ev.params["band_scale"] * 2.0 / big_m, rel=1e-12)

        def log_w(n):
            return n * math.log(r) - 0.5 * special.gammaln(n + 1)

        band_units = 0.0
        for b in bands.values():
            n = np.arange(b.lo, b.hi + 1)
            band_units += float(np.exp(b.log_threshold(n) + log_w(n) - log_w(m)).sum())
        best = event_log_prob_detail(ev).total
        for dt in (-1e-3, 1e-3):
            moved_anchor = (budget + math.expm1(dt) * band_units) * anchor / budget
            blocks = []
            for b in ev.blocks:
                if b.label in bands:
                    b = dataclasses.replace(
                        b, log_threshold=lambda n, f=b.log_threshold: f(n) + dt)
                elif b.label == "anchor":
                    b = dataclasses.replace(
                        b, log_threshold=lambda n, a=moved_anchor: np.full(len(n), math.log(a)))
                blocks.append(b)
            moved = EventSpec(ev.kind, ev.model, r, m, blocks, ev.aggregate, {})
            assert event_log_prob_detail(moved).total <= best

    def test_moderate_rejects_tiny_radius(self):
        with pytest.raises(EventConstructionError):
            build_event(EventKind.MODERATE_GROUPED, r=1.5, alpha=1.5, gamma=1.0)

    @pytest.mark.parametrize("r, alpha", [(150.0, 1.5), (100.0, 1.9)])
    def test_moderate_builds_at_large_radius(self, r, alpha):
        # band caps 2^k/M with k up to about 600: the sum of their squares
        # overflows, so the bracket of beta is formed in log space
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ev = build_event(EventKind.MODERATE_GROUPED, r=r, alpha=alpha, gamma=1.0)
            price = event_log_prob_detail(ev).total
        assert math.isfinite(price) and price <= 0.0
        assert ev.params["sup_budget"] < ev.params["anchor"]

    def test_very_large_anchor_covers_budget(self):
        for r in (3.0, 4.0, 5.0):
            ev = build_event(EventKind.VERY_LARGE_DOMINATION, r=r, alpha=3.0, gamma=1.0)
            assert ev.params["anchor"] >= ev.params["bulge"] + ev.params["tail_budget"]

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            build_event(EventKind.VERY_LARGE_DOMINATION, r=3.0, alpha=1.5, gamma=1.0)
        with pytest.raises(ValueError):
            build_event(EventKind.MODERATE_GROUPED, r=20.0, alpha=2.5, gamma=1.0)
        with pytest.raises(ValueError):
            build_event(EventKind.HYPERBOLIC_DOMINATION,
                        GafModel.hyperbolic(1.0), r=1.2, m=5)

    @pytest.mark.parametrize("kind,model,kw", [
        (EventKind.VERY_LARGE_DOMINATION, GafModel.hyperbolic(2.0), {"r": 2.0}),
        (EventKind.MODERATE_GROUPED, GafModel.hyperbolic(1.0), {"r": 20.0}),
    ])
    def test_deviation_kinds_reject_non_planar_model_up_front(self, monkeypatch, kind,
                                                              model, kw):
        # both regimes are planar; the hyperbolic weights at r > 1 would send
        # the certified series to its 10^6-term guard
        def summed(*args, **kwargs):
            raise AssertionError("a series was summed before the model was checked")

        monkeypatch.setattr(_num, "certified_log_series", summed)
        alpha = 3.0 if kind is EventKind.VERY_LARGE_DOMINATION else 1.5
        with pytest.raises(ValueError, match="planar model"):
            build_event(kind, model, alpha=alpha, gamma=1.0, **kw)

    def test_moderate_sup_budget_is_the_single_block_sum(self):
        # the budget check reuses the builder's far-tail units and must keep
        # the bits of one sum over every 'le' block in block order; at the
        # first two configs (4 + bands) + far tail rounds differently
        for alpha, gamma, r in ((1.2, 1.0, 10.0), (1.5, 0.4, 8.0), (1.5, 1.0, 40.0)):
            ev = build_event(EventKind.MODERATE_GROUPED, r=r, alpha=alpha, gamma=gamma)
            lw_m = float(models.log_weight(ev.model, ev.m, ev.r))
            want = 4.0 + sum(math.exp(events._log_sup([b], ev.model, ev.r, lw_m)[0])
                             for b in ev.blocks if b.mode == "le")
            assert ev.params["sup_budget"] == want


class TestEventLogProb:
    def test_single_floor(self):
        assert event_log_prob_detail(single_index_event("ge", 0.0)).total == \
            pytest.approx(-1.0, rel=1e-14)

    def test_single_cap(self):
        v = event_log_prob_detail(single_index_event("le", 0.0)).total
        assert v == pytest.approx(math.log(1.0 - math.exp(-1.0)), rel=1e-13)

    @pytest.mark.parametrize("cut,decays", [(10**6, True), (10**6 + 1, False)])
    def test_unbounded_cap_must_pass_the_cut_within_a_million_indices(self, cut, decays):
        # log caps 0 up to the cut, then 2 log c = 6 > 4.06: pricing reads
        # at most 10**6 + 1 indices of an unbounded block for its cut
        blk = IndexBlock("only", 0, None, "le", lambda n: np.where(n < cut, 0.0, 3.0), "test")
        ev = EventSpec(EventKind.PLANAR_DOMINATION, PLANAR, 1.0, 0, [blk], None, {})
        if decays:
            d = event_log_prob_detail(ev)
            assert d.total == pytest.approx(cut * math.log1p(-math.exp(-1.0)), rel=1e-9)
        else:
            with pytest.raises(RuntimeError, match="does not decay"):
                event_log_prob_detail(ev)

    def test_exact_at_least_bound_form(self):
        cases = [build_event(EventKind.PLANAR_DOMINATION, r=1.0, m=8),
                 build_event(EventKind.PLANAR_DOMINATION, r=2.0, m=16),
                 build_event(EventKind.HYPERBOLIC_DOMINATION,
                             GafModel.hyperbolic(1.0), r=0.5, m=6),
                 build_event(EventKind.VERY_LARGE_DOMINATION, r=3.0, alpha=3.0, gamma=1.0),
                 build_event(EventKind.MODERATE_GROUPED, r=20.0, alpha=1.5, gamma=1.0)]
        for ev in cases:
            d = event_log_prob_detail(ev)
            assert d.total >= d.bound_form

    def test_planar_dominant_block_tracks_half_m2_logm(self):
        # the below-anchor product carries the m^2 log m scale; the anchor
        # cost adds an O(m^2) drag that keeps the full total strictly below
        ratios = []
        for m in (50, 100, 150, 200):
            ev = build_event(EventKind.PLANAR_DOMINATION, r=1.0, m=m)
            d = event_log_prob_detail(ev)
            scale = m * m * math.log(m)
            ratios.append(d.by_block["below-anchor"] / scale)
            assert d.total < d.by_block["below-anchor"]
        for a, b in zip(ratios, ratios[1:]):
            assert abs(b + 0.5) < abs(a + 0.5)
        assert -0.5 < ratios[-1] < -0.43

    def test_tail_estimate_invariant(self):
        with pytest.raises(ValueError):
            TailEstimate(log_p=-1.0, log_lo=-0.5, log_hi=0.0)


class TestConditionedSampling:
    def test_all_constraints_satisfied(self):
        ev = build_event(EventKind.PLANAR_DOMINATION, r=2.0, m=16)
        for k in range(300):
            draw = conditioned_sample(ev, stream(1000, k))
            assert sample_satisfies(ev, draw)

    def test_capped_square_modulus_mean(self):
        # closed-form conditional mean of Exp(1) given <= c^2
        c2 = 0.8
        ev = single_index_event("le", 0.5 * math.log(c2))
        vals = np.array([abs(conditioned_sample(ev, stream(2000, k), 4)[0]) ** 2
                         for k in range(4000)])
        expect = (1.0 - (1.0 + c2) * math.exp(-c2)) / (1.0 - math.exp(-c2))
        assert vals.mean() == pytest.approx(expect, abs=4.0 * vals.std() / math.sqrt(len(vals)))
        assert vals.max() <= c2

    def test_floored_square_modulus_mean(self):
        c2 = 2.0
        ev = single_index_event("ge", 0.5 * math.log(c2))
        vals = np.array([abs(conditioned_sample(ev, stream(2001, k), 4)[0]) ** 2
                         for k in range(4000)])
        assert vals.min() >= c2
        assert vals.mean() == pytest.approx(c2 + 1.0, abs=4.0 / math.sqrt(len(vals)))

    def test_aggregate_block_law(self):
        # conditional Gamma total at a tiny cap: density ~ y^{k-1}, mean k s/(k+1)
        ev = build_event(EventKind.MODERATE_GROUPED, r=20.0, alpha=1.5, gamma=1.0)
        agg = ev.aggregate
        s = math.exp(agg.log_bound)
        totals = []
        for k in range(500):
            draw = conditioned_sample(ev, stream(3000, k))
            block = draw[agg.lo: agg.hi + 1]
            totals.append(float(np.sum(np.abs(block) ** 2)))
        totals = np.array(totals)
        assert totals.max() <= s
        expect = agg.size / (agg.size + 1.0) * s
        se = totals.std() / math.sqrt(len(totals))
        assert totals.mean() == pytest.approx(expect, abs=4.0 * se)

    def test_hyperbolic_sampling_and_exact_count(self):
        ev = build_event(EventKind.HYPERBOLIC_DOMINATION,
                         GafModel.hyperbolic(1.0), r=0.5, m=6)
        draws = [conditioned_sample(ev, stream(3900, k)) for k in range(10)]
        assert all(sample_satisfies(ev, draw) for draw in draws)
        assert [res.count for res in certified_event_count(ev, draws)] == [6] * 10

    def test_very_large_sampling_and_count(self):
        ev = build_event(EventKind.VERY_LARGE_DOMINATION, r=3.0, alpha=3.0, gamma=1.0)
        draws = [conditioned_sample(ev, stream(4000, k)) for k in range(5)]
        assert all(sample_satisfies(ev, draw) for draw in draws)
        assert [res.count for res in certified_event_count(ev, draws)] == [ev.m] * 5

    def test_moderate_sampling_and_count(self):
        ev = build_event(EventKind.MODERATE_GROUPED, r=6.0, alpha=1.5, gamma=0.4)
        draws = [conditioned_sample(ev, stream(4100, k)) for k in range(5)]
        assert all(sample_satisfies(ev, draw) for draw in draws)
        assert all(res.count >= ev.m for res in certified_event_count(ev, draws))


class TestVerifyDomination:
    def test_tiny_coefficients_dominate(self):
        ev = build_event(EventKind.PLANAR_DOMINATION, r=1.0, m=3)
        vals = np.full(20, 1e-12, dtype=complex)
        vals[3] = ev.params["anchor"] * 2.0
        assert verify_domination(ev, vals)

    def test_conditioned_samples_verify(self):
        ev = build_event(EventKind.PLANAR_DOMINATION, r=2.0, m=16)
        for k in range(50):
            draw = conditioned_sample(ev, stream(5000, k))
            assert verify_domination(ev, draw)

    def test_weak_anchor_may_fail(self):
        # an admissible sample of the weakened event sitting at the boundary
        ev = build_event(EventKind.PLANAR_DOMINATION, r=2.0, m=16, anchor_alpha=0.0)
        n_max = ev.structural_max_index + 20
        n = np.arange(n_max + 1)
        vals = np.zeros(n_max + 1, dtype=complex)
        below = next(b for b in ev.blocks if b.label == "below-anchor")
        idx = below.indices_upto(n_max)
        vals[idx] = np.exp(below.log_threshold(idx)) * 0.999
        tail = next(b for b in ev.blocks if b.label == "upper-tail")
        idx = tail.indices_upto(n_max)
        vals[idx] = np.exp(tail.log_threshold(idx)) * 0.999
        vals[16] = 16.0  # meets the weak anchor, far below the computed one
        assert sample_satisfies(ev, vals)
        assert not verify_domination(ev, vals)

    @pytest.mark.parametrize("r,m", [(2.0, 1100), (3.0, 700), (20.0, 400)])
    def test_anchor_past_float_range(self, r, m):
        # m log r > 709: r^m overflows, and at r = 2 and 3 the anchor term
        # |a_m| sigma_m r^m itself underflows; read in units of the row's
        # largest term, the anchor |c_m| = 1 dominates the rest, so each
        # verdict is a proof
        ev = build_event(EventKind.PLANAR_DOMINATION, r=r, m=m)
        assert verify_domination(ev, conditioned_sample(ev, stream(1, 0))) is True

    def test_no_tail_variance_read(self, monkeypatch):
        # the event's own tail bound is the floor of both, never the truncation tail sd
        ev = build_event(EventKind.PLANAR_DOMINATION, r=2.0, m=16)
        draw = conditioned_sample(ev, stream(5000, 0))
        calls = []
        variance = models.log_tail_variance

        def counting(*args):
            calls.append(args)
            return variance(*args)

        monkeypatch.setattr(models, "log_tail_variance", counting)
        assert verify_domination(ev, draw)
        (res,) = certified_event_count(ev, [draw])
        assert res.count == 16
        assert calls == []

    def test_violating_sample_rejected(self):
        ev = build_event(EventKind.PLANAR_DOMINATION, r=1.0, m=3)
        vals = np.full(20, 100.0, dtype=complex)
        with pytest.raises(ValueError):
            verify_domination(ev, vals)

    def test_tail_bound_decreases_with_depth(self):
        ev = build_event(EventKind.PLANAR_DOMINATION, r=2.0, m=16)
        assert event_tail_sup_bound(ev, 40) < event_tail_sup_bound(ev, 25)

    @pytest.mark.parametrize("gamma", [0.4, 1.0])
    def test_tail_bound_past_float_range(self, gamma):
        # the moderate event at r = 40: the weights reach e^800, and the log
        # of the sup bound stays finite and nonincreasing from depth m - 1
        # to m + 60
        ev = build_event(EventKind.MODERATE_GROUPED, r=40.0, alpha=1.5, gamma=gamma)
        logs = [event_tail_sup_bound(ev, n) for n in range(ev.m - 1, ev.m + 61)]
        assert all(math.isfinite(v) for v in logs)
        assert all(b <= a for a, b in zip(logs, logs[1:]))


class TestClopperPearson:
    @pytest.mark.parametrize("trials", [1, 2, 10, 128, 10**4, 10**6])
    def test_ends_equal_scipy_stats_beta_ppf(self, trials):
        # scipy.stats stays the reference here; the package prices the ends
        # through special.betaincinv so that it never imports scipy.stats
        from scipy import stats
        hit_grid = sorted({h for h in (0, 1, 2, trials // 2, trials - 1, trials)
                           if 0 <= h <= trials})
        for hits in hit_grid:
            for level in (0.9, 0.95, 0.99, 0.999):
                a = 1.0 - level
                est = mc_tail_estimate(hits, trials, level)
                if hits == 0:
                    assert est.log_lo == -math.inf
                else:
                    lo = stats.beta.ppf(a / 2.0, hits, trials - hits + 1)
                    assert est.log_lo == float(np.log(lo))
                if hits == trials:
                    assert est.log_hi == 0.0
                else:
                    hi = stats.beta.ppf(1.0 - a / 2.0, hits + 1, trials - hits)
                    assert est.log_hi == float(np.log(hi))


class TestDirectMc:
    def test_m_zero_certain(self):
        est = direct_mc_tail(RadialEnsemble.GINIBRE, 1.0, 0, 500, seed=1)
        assert est.log_p == 0.0

    def test_ginibre_bracket_contains_dp(self):
        est = direct_mc_tail(RadialEnsemble.GINIBRE, 1.0, 3, 200000, seed=2)
        dp = tail_log_brackets(RadialEnsemble.GINIBRE, 1.0, [3])[0].log_lower
        assert est.log_lo <= dp <= est.log_hi

    def test_planar_counts_monotone_in_m(self):
        # P[n(2) >= 6] sits near the Ginibre analog 0.07, so 1500 replicas
        # give a solidly finite estimate
        counts = zeros.count_replicas(PLANAR, 2.0, choose_truncation(PLANAR, 2.0),
                                      math.log(experiments.MC_TAIL_GUARD), 3, range(1500))
        e6, e5 = (mc_tail_estimate(int((counts >= m).sum()), 1500, 0.99,
                                   unresolved=int((counts < 0).sum())) for m in (6, 5))
        assert np.isfinite(e6.log_p)
        assert e6.hits <= e5.hits

    def test_gaf_target_is_a_type_error(self):
        # GAF tails come from certified replica counts, never from this path
        with pytest.raises(TypeError):
            direct_mc_tail(PLANAR, 1.0, 2, 10, seed=1)

    def test_bracket_is_ordered(self):
        est = direct_mc_tail(RadialEnsemble.HYPERBOLIC_ONE, 0.5, 2, 50000, seed=4)
        assert est.log_lo <= est.log_p <= est.log_hi

    @pytest.mark.parametrize("target,extra", [
        ("ginibre", {"r": 1.0, "m": 3, "trials": 70000}),
        ("hyperbolic", {"rho": 2.0, "r": 0.6, "m": 3, "trials": 400}),
        # 37 trials drawn from the second radial stream
        ("ginibre", {"r": 1.0, "m": 3, "trials": 65536 + 37}),
    ])
    def test_mc_tail_row_is_the_direct_estimate(self, tmp_path, target, extra):
        cfg = RunConfig.from_dict({"experiment": "mc-tail", "seed": 5,
                                   "target": target, **extra})
        (path,) = experiments.run(cfg, str(tmp_path))
        with open(path) as fh:
            (row,) = list(csv.DictReader(fh))
        r, m, trials = extra["r"], extra["m"], extra["trials"]
        if target == "ginibre":
            est = direct_mc_tail(RadialEnsemble.GINIBRE, r, m, trials, seed=5)
        else:
            # a GAF row is the estimate of its certified replica counts
            model = GafModel.hyperbolic(extra["rho"])
            counts = zeros.count_replicas(model, r, choose_truncation(model, r),
                                          math.log(experiments.MC_TAIL_GUARD), 5, range(trials))
            est = mc_tail_estimate(int((counts >= m).sum()), trials, 0.99,
                                   unresolved=int((counts < 0).sum()))
        assert [float(row[k]) for k in ("log_p", "log_lo", "log_hi")] == \
            [est.log_p, est.log_lo, est.log_hi]
        assert [int(row[k]) for k in ("hits", "unresolved")] == [est.hits, est.unresolved]


class TestExponentFit:
    def test_recovers_synthetic_coefficients(self):
        m = np.array([50.0, 100.0, 150.0, 200.0, 300.0])
        y = 0.5 * m * m * np.log(m) - 0.75 * m * m
        fit = exponent_fit(list(zip(m, y)), "m2logm+m2")
        assert fit.coefficients[0] == pytest.approx(0.5, abs=1e-10)
        assert fit.coefficients[1] == pytest.approx(-0.75, abs=1e-10)
        assert fit.max_rel_residual < 1e-10

    def test_wrong_single_basis_flags_residual(self):
        m = np.array([50.0, 100.0, 150.0, 200.0])
        y = m * m  # pure quadratic data
        fit = exponent_fit(list(zip(m, y)), "m2logm")
        assert fit.max_rel_residual > 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            exponent_fit([(1.0, 1.0), (2.0, 2.0)], "m2logm+m2")
        with pytest.raises(ValueError):
            exponent_fit([(1.0, 1.0), (1.0, 2.0), (3.0, 2.0)], "m2logm+m2")


class TestLowerBoundConsistency:
    def test_event_price_below_mc_upper(self):
        # the event is a subset of the tail event, so its exact price must sit
        # below any Monte Carlo upper confidence bound for the tail
        ev = build_event(EventKind.PLANAR_DOMINATION, r=1.0, m=2)
        lp = event_log_prob_detail(ev).total
        counts = zeros.count_replicas(PLANAR, 1.0, choose_truncation(PLANAR, 1.0),
                                      math.log(experiments.MC_TAIL_GUARD), 11, range(2000))
        est = mc_tail_estimate(int((counts >= 2).sum()), 2000, 0.99,
                               unresolved=int((counts < 0).sum()))
        assert lp <= est.log_hi


# Reference copies of the three head walks and the three single-anchor
# builders that the head phase of ``_num.certified_log_series`` and
# ``events._single_anchor_event`` replaced, with the single-accumulator series
# they called, kept to check that every sum, threshold, param and price is
# unchanged: non-float fields exactly, floats within the last-bit moves of
# summing each term once instead of into a running log-space sum.


def ref_certified_log_series(log_term, start, ratio_bound, *, rel_tol=1e-18,
                             max_terms=100000):
    acc = -math.inf
    n = start
    for _ in range(max_terms):
        t = log_term(n)
        acc = np.logaddexp(acc, t)
        q = ratio_bound(n)
        if q < 1.0:
            rem = t + math.log(q) - math.log1p(-q)
            if rem < acc + math.log(rel_tol):
                return float(np.logaddexp(acc, rem))
        n += 1
    raise RuntimeError("series did not certify convergence")


def ref_log_tail_variance(model, degree, r):
    if model.kind is Kind.PLANAR:
        lam = r * r
        return lam + _num.log_poisson_tail(lam, degree + 1)
    rho, x = model.rho, r * r

    def log_term(n):
        return float(special.gammaln(n + rho) - special.gammaln(n + 1)
                     - special.gammaln(rho)) + n * math.log(x)

    def ratio_bound(n):
        if rho <= 1.0:
            return x
        return x * (n + rho) / (n + 1)

    head = -math.inf
    n0 = degree + 1
    while rho > 1.0 and x * (n0 + rho) / (n0 + 1) >= 0.999999:
        head = np.logaddexp(head, log_term(n0))
        n0 += 1
    tail = ref_certified_log_series(log_term, n0, ratio_bound, rel_tol=1e-17)
    return float(np.logaddexp(head, tail))


def ref_domination_constant(model, r, m):
    growth_power = 0.5 if model.kind is Kind.HYPERBOLIC else 1.0

    def log_term(n):
        return growth_power * math.log(n) + float(models.log_weight(model, n, r))

    def ratio_bound(n):
        g = ((n + 1.0) / n) ** growth_power
        if model.kind is Kind.PLANAR:
            return g * r / math.sqrt(n + 1.0)
        if model.rho <= 1.0:
            return g * r
        return g * r * math.sqrt((n + model.rho) / (n + 1.0))

    n0 = m + 1
    head = -math.inf
    while ratio_bound(n0) >= 0.999999:
        head = np.logaddexp(head, log_term(n0))
        n0 += 1
        if n0 > m + 10**6:
            raise RuntimeError("domination tail does not contract")
    log_tail = ref_certified_log_series(log_term, n0, ratio_bound, rel_tol=1e-16)
    log_tail = float(np.logaddexp(head, log_tail))
    log_scale = growth_power * math.log(m) + float(models.log_weight(model, m, r))
    return math.exp(log_tail - log_scale)


def ref_sup_units(b, model, r, lw_ref, lo=None):
    start = b.lo if lo is None else max(b.lo, lo)
    if b.hi is not None:
        if b.hi < start:
            return 0.0
        n = np.arange(start, b.hi + 1)
        return float(np.exp(b.log_threshold(n) + models.log_weight(model, n, r)
                            - lw_ref).sum())

    def log_term(n):
        return float(b.log_threshold(np.array([n]))[0]
                     + models.log_weight(model, n, r) - lw_ref)

    def ratio(n):
        th0 = float(b.log_threshold(np.array([n]))[0])
        th1 = float(b.log_threshold(np.array([n + 1]))[0])
        if model.kind is Kind.PLANAR:
            wr = r / math.sqrt(n + 1.0)
        elif model.rho <= 1.0:
            wr = r
        else:
            wr = r * math.sqrt((n + model.rho) / (n + 1.0))
        return math.exp(th1 - th0) * wr

    n0 = start
    head = -math.inf
    while ratio(n0) >= 0.999999:
        head = np.logaddexp(head, log_term(n0))
        n0 += 1
        if n0 > start + 10**6:
            raise RuntimeError("tail bound does not contract")
    tail = ref_certified_log_series(log_term, n0, ratio, rel_tol=1e-14)
    return math.exp(float(np.logaddexp(head, tail)))


def ref_below_anchor_rule(model, r, m, log_budget):
    lw_m = float(models.log_weight(model, m, r))

    def log_c(n):
        return log_budget + lw_m - models.log_weight(model, n, r)

    return log_c


def ref_log_identity(n):
    return np.log(np.asarray(n, dtype=float))


def ref_log_sqrt(n):
    return 0.5 * np.log(np.asarray(n, dtype=float))


def ref_build_event(kind, model=None, *, r, m=None, alpha=None, gamma=None,
                    anchor_alpha=None):
    const_log, shifted_log = events._const_log, events._shifted_log
    if kind is EventKind.PLANAR_DOMINATION:
        model = model or GafModel.planar()
        c = ref_domination_constant(model, r, m)
        a = c if anchor_alpha is None else anchor_alpha
        anchor = (a + 1.0) * m
        blocks = [
            IndexBlock("below-anchor", 0, m - 1, "le",
                       ref_below_anchor_rule(model, r, m, 0.0),
                       "per-index cap keeping each lower term under the anchor weight"),
            IndexBlock("anchor", m, m, "ge", const_log(math.log(anchor)),
                       f"|a_{m}| >= {anchor:.6g}"),
            IndexBlock("upper-tail", m + 1, None, "le", ref_log_identity,
                       "|a_n| <= n for n > m"),
        ]
        return EventSpec(kind, model, r, m, blocks, None,
                         {"domination_constant": c, "anchor": anchor,
                          "anchor_alpha": a})
    if kind is EventKind.HYPERBOLIC_DOMINATION:
        c = ref_domination_constant(model, r, m)
        a = c if anchor_alpha is None else anchor_alpha
        anchor = (a + 1.0) * math.sqrt(m)
        blocks = [
            IndexBlock("below-anchor", 0, m - 1, "le",
                       ref_below_anchor_rule(model, r, m, -0.5 * math.log(m)),
                       "per-index cap at 1/sqrt(m) of the anchor weight"),
            IndexBlock("anchor", m, m, "ge", const_log(math.log(anchor)),
                       f"|a_{m}| >= {anchor:.6g}"),
            IndexBlock("upper-tail", m + 1, None, "le", ref_log_sqrt,
                       "|a_n| <= sqrt(n) for n > m"),
        ]
        return EventSpec(kind, model, r, m, blocks, None,
                         {"domination_constant": c, "anchor": anchor,
                          "anchor_alpha": a})
    assert kind is EventKind.VERY_LARGE_DOMINATION
    model = model or GafModel.planar()
    mm = math.ceil(r * r + gamma * r ** alpha)
    bulge = gamma * r ** alpha
    lw_m = float(models.log_weight(model, mm, r))

    def tail_term(n):
        return math.log(n - mm) + float(models.log_weight(model, n, r)) - lw_m

    def tail_ratio(n):
        k = n - mm
        return (k + 1.0) / k * r / math.sqrt(n + 1.0)

    budget = math.exp(ref_certified_log_series(tail_term, mm + 1, tail_ratio,
                                               rel_tol=1e-14))
    anchor = float(mm)
    if bulge + budget >= anchor:
        anchor = (bulge + budget) * (1.0 + 1e-9)
    blocks = [
        IndexBlock("below-anchor", 0, mm - 1, "le",
                   ref_below_anchor_rule(model, r, mm, math.log(bulge / mm)),
                   "per-index cap at (gamma r^alpha / m) of the anchor weight"),
        IndexBlock("anchor", mm, mm, "ge", const_log(math.log(anchor)),
                   f"|a_{mm}| >= {anchor:.6g}"),
        IndexBlock("upper-tail", mm + 1, None, "le",
                   shifted_log(mm), "|a_n| <= n - m for n > m"),
    ]
    return EventSpec(kind, model, r, mm, blocks, None,
                     {"alpha": alpha, "gamma": gamma, "anchor": anchor,
                      "tail_budget": budget, "bulge": bulge})


def lib_tail_bound(ev, depth):
    # the event's tail sup bound past depth, from its log
    return math.exp(event_tail_sup_bound(ev, depth))


def ref_tail_bound(ev, depth):
    # the reference sum of the 'le' blocks' sup units past depth
    return sum(ref_sup_units(b, ev.model, ev.r, 0.0, lo=depth + 1)
               for b in ev.blocks if b.mode == "le")


def event_values(ev, tail_bound):
    """Every field, threshold, price and tail sup bound of an event, flattened."""
    out = [ev.kind, ev.model, ev.r, ev.m, ev.aggregate, *ev.params.items()]
    for b in ev.blocks:
        out += [b.label, b.lo, b.hi, b.mode, b.rule,
                *np.asarray(b.log_threshold(b.indices_upto(ev.m + 20)), dtype=float)]
    detail = event_log_prob_detail(ev)
    out += [detail.total, detail.bound_form, *detail.by_block.items()]
    for depth in (ev.m, ev.m + 5, ev.m + 20, ev.m + 60, 2 * ev.m + 100):
        out.append(tail_bound(ev, depth))
    return out


def flat_floats(values):
    out = []
    for v in values:
        if isinstance(v, tuple):
            out += flat_floats(v)
        else:
            out.append(v)
    return out


def assert_same(got, want, rel=2e-13):
    got, want = flat_floats(got), flat_floats(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, float):
            assert g == w or abs(g - w) <= rel * abs(w), (g, w)
        else:
            assert g == w


HEAD_MODELS = [GafModel.planar(), *(GafModel.hyperbolic(rho)
                                    for rho in (0.3, 0.5, 1.0, 1.5, 2.0, 5.0, 20.0, 100.0))]


class TestSingleAnchorAssembler:
    def test_log_tail_variance_matches_head_walk(self, monkeypatch):
        for model in HEAD_MODELS:
            radii = ((0.3, 3.0, 8.0, 20.0) if model.kind is Kind.PLANAR
                     else (0.05, 0.3, 0.9, 0.99))
            for r in radii:
                for degree in (-1, 0, 3, 40, 300):
                    assert_same([log_tail_variance(model, degree, r)],
                                [ref_log_tail_variance(model, degree, r)])
        truncations = [choose_truncation(model, r) for model in HEAD_MODELS
                       for r in ((1.0, 8.0) if model.kind is Kind.PLANAR else (0.3, 0.97))]
        monkeypatch.setattr("gafzeros.models.log_tail_variance", ref_log_tail_variance)
        assert truncations == [choose_truncation(model, r) for model in HEAD_MODELS
                               for r in ((1.0, 8.0) if model.kind is Kind.PLANAR
                                         else (0.3, 0.97))]

    def test_domination_constant_matches_head_walk(self):
        # planar r=5 and hyperbolic rho=5, r=0.95 start with term ratios above 1
        for model in HEAD_MODELS[:1] + [GafModel.hyperbolic(rho) for rho in (0.5, 2.0, 5.0)]:
            radii = (0.5, 2.0, 5.0) if model.kind is Kind.PLANAR else (0.3, 0.9, 0.95)
            for r in radii:
                for m in (1, 2, 10, 30, 200):
                    assert_same([domination_constant(model, r, m)],
                                [ref_domination_constant(model, r, m)])

    def test_planar_and_hyperbolic_events_match_reference(self):
        for r in (0.5, 2.0, 5.0):
            for m in (1, 5, 30, 200):
                for a in (None, 0.5):
                    kw = {"r": r, "m": m, "anchor_alpha": a}
                    assert_same(
                        event_values(build_event(EventKind.PLANAR_DOMINATION, **kw),
                                     lib_tail_bound),
                        event_values(ref_build_event(EventKind.PLANAR_DOMINATION, **kw),
                                     ref_tail_bound))
        for rho in (0.5, 2.0, 5.0):
            model = GafModel.hyperbolic(rho)
            for r in (0.3, 0.9):
                for m in (1, 20, 50):
                    kind = EventKind.HYPERBOLIC_DOMINATION
                    assert_same(
                        event_values(build_event(kind, model, r=r, m=m), lib_tail_bound),
                        event_values(ref_build_event(kind, model, r=r, m=m), ref_tail_bound))

    def test_very_large_events_match_reference(self):
        for alpha in (2.2, 3.0, 4.0):
            for gamma in (0.05, 0.4, 1.0, 2.0):
                for r in (1.2, 2.0, 3.0, 5.0):
                    kw = {"r": r, "alpha": alpha, "gamma": gamma}
                    assert_same(
                        event_values(build_event(EventKind.VERY_LARGE_DOMINATION, **kw),
                                     lib_tail_bound),
                        event_values(ref_build_event(EventKind.VERY_LARGE_DOMINATION, **kw),
                                     ref_tail_bound))

    def test_moderate_sup_units_match_head_walk(self):
        # every 'le' block in one batched call.  From lo = m every band below
        # the anchor is empty; from lo = window_lo (the top index of the
        # first band below) the farther bands below are empty and sit
        # between non-empty ones.  np.logaddexp.reduceat would give an empty
        # slice the term at its start, not -inf.
        for alpha, gamma, r in ((1.5, 1.0, 10.0), (1.2, 0.4, 20.0), (1.8, 1.0, 5.0)):
            ev = build_event(EventKind.MODERATE_GROUPED, r=r, alpha=alpha, gamma=gamma)
            lw_m = float(models.log_weight(ev.model, ev.m, ev.r))
            le = [b for b in ev.blocks if b.mode == "le"]
            big_m = ev.params["window_lo"]
            for lo in (None, ev.m, ev.m + 1, 2 * ev.m, big_m):
                got = events._log_sup(le, ev.model, ev.r, lw_m, lo=lo)
                assert len(got) == len(le)
                for b, g in zip(le, got):
                    assert_same([math.exp(g)], [ref_sup_units(b, ev.model, ev.r, lw_m, lo=lo)])
                    if b.hi is not None:
                        n = np.arange(b.lo if lo is None else max(b.lo, lo), b.hi + 1)
                        alone = np.logaddexp.reduce(
                            (b.log_threshold(n) + models.log_weight(ev.model, n, ev.r)) - lw_m)
                        assert g == float(alone)
                empty = [g == -math.inf for g in got]
                if lo == ev.m:
                    assert empty == [b.hi is not None and b.hi < ev.m for b in le]
                if lo == big_m:
                    assert (empty[0], empty[1], empty[-2]) == (False, True, False)


# Reference copies of the per-block pricing that one array pass per event
# replaced: each bounded 'le' block priced and summed alone, the moderate
# price over every band index, and the budget as one sum per band.  Every
# value must keep its bits.


def ref_le_block_log_prob(block):
    if block.hi is not None:
        n = np.arange(block.lo, block.hi + 1)
        if len(n) == 0:
            return 0.0, 0.0
        t2 = 2.0 * np.asarray(block.log_threshold(n), dtype=float)
        vals = _num.log_bernoulli_le(t2)
        bound = np.where(t2 < 0.0, t2 - math.log(2.0), vals)
        return float(np.sum(vals)), float(np.sum(bound))
    total, lik, n = 0.0, 0.0, block.lo
    while True:
        t2 = 2.0 * float(block.log_threshold(np.array([n]))[0])
        if t2 > 4.06:
            break
        total += float(_num.log_bernoulli_le(t2))
        lik += math.exp(-math.exp(t2))
        n += 1
    return total, (math.log1p(-lik) if lik < 1.0 else total)


def ref_event_log_prob_detail(ev):
    by_block, total, bound_total = {}, 0.0, 0.0
    for b in ev.blocks:
        if b.mode == "ge":
            exact = bound = -math.exp(2.0 * float(b.log_threshold(np.array([b.lo]))[0]))
        else:
            exact, bound = ref_le_block_log_prob(b)
        by_block[b.label] = exact
        total += exact
        bound_total += bound
    if ev.aggregate is not None:
        k, log_s = ev.aggregate.size, ev.aggregate.log_bound
        exact = _num.log_lower_gamma_cdf(k, log_s)
        s = math.exp(min(log_s, 700.0))
        bound = (k * (log_s - math.log(2.0)) - float(special.gammaln(k)) - s / 2.0
                 if s <= k else exact)
        by_block[ev.aggregate.label] = exact
        total += exact
        bound_total += bound
    return total, bound_total, by_block


def ref_moderate_scale(ev):
    # the golden search over log beta with the price summed over every band index
    r, mm, big_m = ev.r, ev.m, ev.params["window_lo"]
    bands = [b for b in ev.blocks if b.label.startswith("decay-")]
    log_q = np.concatenate([np.full(b.hi - b.lo + 1, int(b.label.rsplit("-", 1)[1]) * _num.LOG2
                                    - math.log(big_m)) for b in bands])
    n_band = np.concatenate([np.arange(b.lo, b.hi + 1) for b in bands])
    lw_m = float(models.log_weight(ev.model, mm, r))
    band_units = float(np.exp(log_q + models.log_weight(ev.model, n_band, r) - lw_m).sum())
    far = next(b for b in ev.blocks if b.label == "far-tail")
    far_units = math.exp(events._log_sup([far], ev.model, r, lw_m)[0])
    fixed_units, margin = 4.0 + far_units, 1.0 + events._ANCHOR_MARGIN

    def anchor_at(log_beta):
        return (fixed_units + math.exp(log_beta) * band_units) * margin

    def price(log_beta):
        return (float(np.sum(_num.log_bernoulli_le(2.0 * (log_beta + log_q))))
                - anchor_at(log_beta) ** 2)

    n_idx = len(log_q)
    log_quad = np.logaddexp(math.log(2.0 * margin ** 2) + 2.0 * math.log(band_units),
                            _num.logsumexp(2.0 * log_q))
    log_lin = math.log(2.0 * margin ** 2 * fixed_units * band_units)
    log_beta_lo = math.log(4.0 * n_idx) - float(np.logaddexp(log_lin, 0.5 * np.logaddexp(
        2.0 * log_lin, math.log(8.0 * n_idx) + log_quad)))
    log_beta, _ = _num.golden_max(price, log_beta_lo, math.log(n_idx / (4.0 * band_units)), 1e-9)
    budget = 4.0 + (sum(math.exp(events._log_sup([b], ev.model, r, lw_m)[0]) for b in bands)
                    + far_units)
    return math.exp(log_beta), anchor_at(log_beta), budget


class TestOnePassPricing:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize("r", [10.0, 40.0, 150.0])
    def test_moderate_matches_per_block_reference(self, alpha, r):
        ev = build_event(EventKind.MODERATE_GROUPED, r=r, alpha=alpha, gamma=1.0)
        beta, anchor, budget = ref_moderate_scale(ev)
        assert (ev.params["band_scale"], ev.params["anchor"], ev.params["sup_budget"]) == \
            (beta, anchor, budget)
        d = event_log_prob_detail(ev)
        assert (d.total, d.bound_form, d.by_block) == ref_event_log_prob_detail(ev)

    def test_single_anchor_kinds_match_per_block_reference(self):
        cases = [build_event(EventKind.PLANAR_DOMINATION, r=1.0, m=m) for m in (1, 8, 200)]
        cases += [build_event(EventKind.PLANAR_DOMINATION, r=3.0, m=50),
                  build_event(EventKind.HYPERBOLIC_DOMINATION, GafModel.hyperbolic(1.0),
                              r=0.5, m=6),
                  build_event(EventKind.HYPERBOLIC_DOMINATION, GafModel.hyperbolic(0.5),
                              r=0.9, m=30),
                  *(build_event(EventKind.VERY_LARGE_DOMINATION, r=r, alpha=3.0, gamma=1.0)
                    for r in (3.0, 6.0)),
                  single_index_event("le", 0.0), single_index_event("ge", 0.0)]
        for ev in cases:
            d = event_log_prob_detail(ev)
            assert (d.total, d.bound_form, d.by_block) == ref_event_log_prob_detail(ev)
