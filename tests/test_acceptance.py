"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Criteria 5-7 compare the exact full-event price against windows that the
dominant constraint block meets on its own; each report line prints both
numbers so the gap is visible at a glance.
"""

import math
import time

import numpy as np
import pytest
from scipy import special

import gafzeros as gz
from gafzeros import EventKind, GafModel, RadialEnsemble

SEED = 20260809


def _report(k, ok, detail):
    line = f"ACCEPTANCE {k:>2} {'PASS' if ok else 'FAIL'}: {detail}"
    print("\n" + line)
    assert ok, line


def test_criterion_01_ginibre_exponent_fit():
    t0 = time.time()
    pts = []
    ms = range(50, 401, 50)
    for m, br in zip(ms, gz.tail_log_brackets(RadialEnsemble.GINIBRE, 1.0, ms)):
        assert br.log_upper - br.log_lower <= 1e-6
        pts.append((m, -br.log_lower))
    fit = gz.exponent_fit(pts, "m2logm+m2")
    elapsed = time.time() - t0
    c1 = fit.coefficients[0]
    ok = 0.45 <= c1 <= 0.55 and elapsed < 120.0
    _report(1, ok, f"-log P = c1 m^2 log m + c2 m^2 fit over m=50..400: "
                   f"c1={c1:.4f} (target [0.45, 0.55]), c2={fit.coefficients[1]:.4f}, "
                   f"time={elapsed:.1f}s (< 120s)")


def test_criterion_02_ginibre_bracket_containment():
    violations = []
    checked = 0
    for r in (0.5, 1.0, 2.0):
        ms = range(max(2, math.ceil(r * r)), 41)
        for m, bk, dp in zip(ms, gz.ginibre_tail_brackets(r, ms),
                             gz.tail_log_brackets(RadialEnsemble.GINIBRE, r, ms)):
            checked += 1
            if not bk.log_lower <= dp.log_lower <= bk.log_upper:
                violations.append((r, m))
    _report(2, not violations,
            f"Ginibre DP within analytic brackets on {checked} (r, m) pairs; "
            f"violations: {violations or 'none'}")


def test_criterion_03_hyperbolic_sandwich():
    violations = []
    checked = 0
    for r in (0.3, 0.5, 0.7):
        ms = range(1, 31)
        for m, br in zip(ms, gz.tail_log_brackets(RadialEnsemble.HYPERBOLIC_ONE, r, ms)):
            dp = br.log_lower
            lo = m * (m + 1) * math.log(r)
            hi = float(np.logaddexp(
                float(special.gammaln(m * m + 1) - special.gammaln(m + 1)
                      - special.gammaln(m * m - m + 1)) + m * (m + 1) * math.log(r),
                (2 * m * m + 2) * math.log(r) - math.log1p(-r * r)))
            checked += 1
            if not lo <= dp <= hi:
                violations.append((r, m))
    _report(3, not violations,
            f"index-one radial DP inside the product/binomial sandwich on "
            f"{checked} (r, m) pairs; violations: {violations or 'none'}")


def test_criterion_04_constructive_event_soundness():
    t0 = time.time()
    ev = gz.build_event(EventKind.PLANAR_DOMINATION, r=2.0, m=16)
    draws = [gz.conditioned_sample(ev, gz.stream(SEED, k)) for k in range(1000)]
    failures = sum(not (isinstance(res, gz.CountResult) and res.count == 16)
                   for res in gz.certified_event_count(ev, draws))
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 300.0
    _report(4, ok, f"1000 conditioned samples at r=2, m=16 "
                   f"(domination constant C={ev.params['domination_constant']:.4f}): "
                   f"{failures} failures, time={elapsed:.1f}s (< 300s)")


def test_criterion_05_planar_lower_bound_scale():
    ratios = {}
    blocks = {}
    for m in (50, 100, 150, 200):
        ev = gz.build_event(EventKind.PLANAR_DOMINATION, r=1.0, m=m)
        d = gz.event_log_prob_detail(ev)
        ratios[m] = d.total / (m * m * math.log(m))
        blocks[m] = d.by_block["below-anchor"] / (m * m * math.log(m))
    window_ok = -0.60 <= ratios[200] <= -0.40
    dists = [abs(ratios[m] + 0.5) for m in (50, 100, 150, 200)]
    monotone_ok = all(a > b for a, b in zip(dists, dists[1:]))
    seq = ", ".join(f"m={m}: {v:.4f}" for m, v in ratios.items())
    _report(5, window_ok and monotone_ok,
            f"event log-prob / (m^2 log m): {seq}; window at m=200 "
            f"[-0.60, -0.40] {'ok' if window_ok else 'violated'}, approach to "
            f"-0.5 {'monotone' if monotone_ok else 'not monotone'} "
            f"[below-anchor block alone at m=200: {blocks[200]:.4f}; the anchor "
            f"floor adds a further (1+C)^2 m^2 to the exact price]")


def test_criterion_06_very_large_deviation_scale():
    alpha, gamma = 3.0, 1.0
    ratios = {}
    blocks = {}
    for r in (3.0, 4.0, 5.0):
        ev = gz.build_event(EventKind.VERY_LARGE_DOMINATION, r=r,
                            alpha=alpha, gamma=gamma)
        scale = gamma * gamma * r ** (2 * alpha) * math.log(r)
        d = gz.event_log_prob_detail(ev)
        ratios[r] = d.total / scale
        blocks[r] = d.by_block["below-anchor"] / scale
    window_ok = all(-0.80 <= v <= -0.30 for v in ratios.values())
    vals = [ratios[r] for r in (3.0, 4.0, 5.0)]
    trend_ok = all(abs(a + 0.5) > abs(b + 0.5) for a, b in zip(vals, vals[1:]))
    seq = ", ".join(f"r={r:.0f}: {v:.4f}" for r, v in ratios.items())
    blk = ", ".join(f"{v:.4f}" for v in blocks.values())
    _report(6, window_ok and trend_ok,
            f"event log-prob / (gamma^2 r^(2a) log r): {seq}; window "
            f"[-0.80, -0.30] {'ok' if window_ok else 'violated'}, trend to -0.5 "
            f"{'ok' if trend_ok else 'violated'} [below-anchor block alone: "
            f"{blk}; the anchor floor |a_m| >= m adds m^2 = (r^2+g r^a)^2]")


def test_criterion_07_moderate_deviation_scale():
    alpha, gamma = 1.5, 1.0
    ratios = {}
    blocks = {}
    for r in (20.0, 30.0, 40.0):
        ev = gz.build_event(EventKind.MODERATE_GROUPED, r=r, alpha=alpha, gamma=gamma)
        d = gz.event_log_prob_detail(ev)
        ratios[r] = d.total / (r ** (3 * alpha - 2))
        blocks[r] = d.by_block["window"] / (r ** (3 * alpha - 2))
    window_ok = all(-1.8 <= v <= -0.5 for v in ratios.values())
    vals = [ratios[r] for r in (20.0, 30.0, 40.0)]
    trend_ok = all(abs(a + 1.0) > abs(b + 1.0) for a, b in zip(vals, vals[1:]))
    seq = ", ".join(f"r={r:.0f}: {v:.4f}" for r, v in ratios.items())
    blk = ", ".join(f"{v:.4f}" for v in blocks.values())
    _report(7, window_ok and trend_ok,
            f"event log-prob / r^(3a-2): {seq}; window [-1.8, -0.5] "
            f"{'ok' if window_ok else 'violated'}, move toward -1 "
            f"{'ok' if trend_ok else 'violated'} [window block alone: {blk}; "
            f"the decay bands add O(r^(2-a) log^2 r) on top]")


def test_criterion_08_mc_vs_exact():
    est_g = gz.direct_mc_tail(RadialEnsemble.GINIBRE, 1.0, 5, 10**6, seed=SEED)
    dp_g = gz.tail_log_brackets(RadialEnsemble.GINIBRE, 1.0, [5])[0].log_lower
    ok_g = est_g.log_lo <= dp_g <= est_g.log_hi
    est_h = gz.direct_mc_tail(RadialEnsemble.HYPERBOLIC_ONE, 0.5, 3, 10**6, seed=SEED)
    dp_h = gz.tail_log_brackets(RadialEnsemble.HYPERBOLIC_ONE, 0.5, [3])[0].log_lower
    ok_h = est_h.log_lo <= dp_h <= est_h.log_hi
    _report(8, ok_g and ok_h,
            f"1e6-trial 99% brackets contain the exact DP values: "
            f"ginibre m=5 hits={est_g.hits} "
            f"[{est_g.log_lo:.2f}, {est_g.log_hi:.2f}] ni {dp_g:.3f} "
            f"({'ok' if ok_g else 'miss'}); index-one m=3 "
            f"hits={est_h.hits} [{est_h.log_lo:.3f}, {est_h.log_hi:.3f}] "
            f"ni {dp_h:.3f} ({'ok' if ok_h else 'miss'})")


def test_criterion_09_counting_identities():
    model = GafModel.planar()
    agree = jensen_ok = ineq_ok = done = 0
    attempts = 0
    k = 0
    while done < 1000 and attempts < 1100:
        attempts += 1
        rng = gz.stream(SEED + 1, k)
        k += 1
        r = 0.5 + 2.5 * rng.random()
        big_r = 1.2 * r
        gaf = gz.sample_truncated(model, big_r, rng)
        assert gaf.degree <= 200
        try:
            res, _ = gz.count_with_retry(gaf, r, math.log(100.0) + gaf.log_tail_sd)
        except gz.InconclusiveCount:
            continue
        (check,) = gz.jensen_residuals([(gaf, r, big_r)])
        if not isinstance(check, gz.JensenCheck):
            continue
        done += 1
        agree += res.count == gz.count_in_disk(check.roots, r)
        jensen_ok += check.residual < 1e-6
        ineq_ok += res.count * math.log(big_r / r) <= check.integral_n_over_u + 1e-9
    ok = done == 1000 and agree == 1000 and jensen_ok == 1000 and ineq_ok == 1000
    _report(9, ok, f"{done} certified planar samples: winding=roots {agree}/1000, "
                   f"Jensen residual<1e-6 {jensen_ok}/1000, count inequality "
                   f"{ineq_ok}/1000 (attempts={attempts})")


def _certified_counts(model, r, n_samples, seed_key):
    # replicas left uncertified (a zero near the circle) are replaced by
    # fresh draws: the counts of the first n_samples resolved keys among
    # n_samples + 101, and the number of keys up to the last of them
    deg = gz.choose_truncation(model, r)
    counts = gz.count_replicas(model, r, deg, seed_key, range(n_samples + 101))
    resolved = np.flatnonzero(counts >= 0)[:n_samples]
    if len(resolved) < n_samples:
        raise RuntimeError("too many unresolved replicas")
    return counts[resolved].astype(float), int(resolved[-1]) + 1


def test_criterion_10_intensity():
    counts, att_p = _certified_counts(GafModel.planar(), 3.0, 10**4, SEED + 2)
    mean_p = float(counts.mean())
    ok_p = 8.91 <= mean_p <= 9.09

    counts, att_h = _certified_counts(GafModel.hyperbolic(1.0), 0.5, 10**4, SEED + 3)
    mean_h = float(counts.mean())
    se = float(counts.std(ddof=1)) / math.sqrt(len(counts))
    ok_h = abs(mean_h - 1.0 / 3.0) <= 3.0 * se
    _report(10, ok_p and ok_h,
            f"mean certified count: planar r=3 {mean_p:.4f} in [8.91, 9.09] "
            f"({'ok' if ok_p else 'out'}, attempts={att_p}); index-one r=0.5 "
            f"{mean_h:.4f} vs 1/3, |diff|={abs(mean_h - 1/3):.5f} <= "
            f"3 SE={3 * se:.5f} ({'ok' if ok_h else 'out'}, attempts={att_h})")


def test_criterion_11_kernel_constants_and_kappa():
    worst_kernel = 0.0
    for r in (0.2, 0.35, 0.5, 0.7, 0.9):
        for frac in (0.05, 0.2, 0.5, 0.8):
            eps = frac * r
            theta = np.linspace(0.0, 2.0 * math.pi, 2_000_001)
            kern = (r * r - eps * eps) / np.abs(r * np.exp(1j * theta) - eps) ** 2
            a, b = gz.poisson_kernel_bounds(r, eps)
            worst_kernel = max(worst_kernel,
                               abs(a - float(kern.max())), abs(b - float(kern.min())))
    ok_kernel = worst_kernel < 1e-8

    worst_kappa = 0.0
    for r in (0.3, 0.5, 0.7, 0.9):
        grid = np.exp(np.linspace(math.log(1e-12), math.log(r) - 1e-9, 10**6))
        vals = (((r - grid) / (r + grid)) ** 2) / (-np.log(grid))
        worst_kappa = max(worst_kappa, abs(gz.kappa(r) - float(vals.max())))
    ok_kappa = worst_kappa < 1e-8
    _report(11, ok_kernel and ok_kappa,
            f"closed-form kernel extrema vs numeric extremization: worst "
            f"|diff|={worst_kernel:.2e} (<1e-8 {'ok' if ok_kernel else 'out'}); "
            f"kappa vs 1e6-point grid: worst |diff|={worst_kappa:.2e} "
            f"(<1e-8 {'ok' if ok_kappa else 'out'})")
