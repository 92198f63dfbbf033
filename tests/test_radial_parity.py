"""Bitwise parity of the per-law radial entries with a branch-per-site reference.

The reference functions below keep every law's rules in ``if ensemble is``
branches, one function per rule; the law entries behind ``bernoulli_probs``,
``tail_log_brackets`` and ``sample_radii`` must give the same bits.  The
reference sweep ``ref_states`` steps the absorbing state of every level to
the sweep's end and saves all of them; the DP sweep behind
``tail_log_brackets`` must read the same state bits.
"""

import functools
import math

import numpy as np
import pytest
from scipy import special

from gafzeros import RadialEnsemble, _num, bernoulli_probs, radial, sample_radii, stream

GIN = RadialEnsemble.GINIBRE
HYP = RadialEnsemble.HYPERBOLIC_ONE
# hyperbolic r = 1e-100 reaches the least depth, 1
GRID = [(GIN, r) for r in (0.3, 1.0, 3.0, 10.0, 26.0, 40.0)] + \
       [(HYP, r) for r in (1e-100, 0.3, 0.5, 0.9, 0.99)]


def ref_check_domain(ensemble, r):
    _num.check_radius(r)
    if ensemble is RadialEnsemble.HYPERBOLIC_ONE and not r < 1:
        raise ValueError("hyperbolic radial law needs r < 1")


def ref_log_neglected(ensemble, r, n):
    if ensemble is RadialEnsemble.HYPERBOLIC_ONE:
        return float((n + 1) * (2.0 * math.log(r)) - math.log1p(-r * r))
    lam = r * r
    q = (lam / (n + 2)) / (1.0 - lam / (n + 3))
    if not q < 1.0:
        raise ValueError("profile depth too small for a certified remainder bound")
    return float(_num.log_gamma_lower(n + 1, lam, math.log(lam)) - math.log1p(-q))


def ref_depth_for_mass(ensemble, r, log_mass, n, growth, neglected=None):
    if ensemble is RadialEnsemble.HYPERBOLIC_ONE:
        return max(n, math.ceil((log_mass + math.log1p(-r * r)) / (2.0 * math.log(r)) - 1.0))
    neglected = neglected or functools.partial(ref_log_neglected, ensemble, r)
    while neglected(n) >= log_mass:
        n = int(n * growth) + 4
    return n


def ref_profile_depth(ensemble, r, min_terms, neglected=None):
    ref_check_domain(ensemble, r)
    least = 1 if ensemble is RadialEnsemble.HYPERBOLIC_ONE else max(math.ceil(2 * r * r) + 4, 8)
    return ref_depth_for_mass(ensemble, r, math.log(radial.PROFILE_EPS),
                              max(least, min_terms or 0), 1.5, neglected)


def ref_bernoulli_probs(ensemble, r, min_terms=None):
    """(log p, log(1 - p), log neglected mass) of the profile."""
    n = ref_profile_depth(ensemble, r, min_terms)
    idx = np.arange(1, n + 1)
    if ensemble is RadialEnsemble.HYPERBOLIC_ONE:
        log_p = idx * (2.0 * math.log(r))
        with np.errstate(divide="ignore"):
            log_q = np.log1p(-np.exp(log_p))
    else:
        lam = r * r
        log_p = _num.log_gamma_lower(idx, lam, math.log(lam))
        lin_q = special.gammaincc(idx.astype(float), lam)
        log_q = np.log(np.maximum(lin_q, 1e-300))
        under = np.flatnonzero(~(lin_q > 1e-280))
        k = np.arange(under.max(initial=-1) + 1)
        log_q[under] = np.logaddexp.accumulate(k * math.log(lam) - lam
                                               - special.gammaln(k + 1))[under]
    return log_p, log_q, ref_log_neglected(ensemble, r, n)


def ref_sample_radii(ensemble, rng, trials, depth):
    k = np.arange(1, depth + 1)
    if ensemble is RadialEnsemble.GINIBRE:
        return np.sqrt(rng.standard_gamma(np.broadcast_to(k.astype(float), (trials, depth))))
    return rng.random((trials, depth)) ** (1.0 / (2.0 * k))


def ref_states(levels, depths, log_p, log_q, saved=None):
    """(i, state) of every read, shallowest first, with the state
    [log P[S = 0..m-1], log P[S >= m]] in index order.  Every step updates
    the absorbing state of every level, and a saved state holds the pmf and
    the absorbing states of all the levels of the sweep that saved it."""
    levels = np.asarray(levels)
    below = levels - 1
    order = np.argsort(depths, kind="stable").tolist()
    first = depths[order[0]]
    done = max((d for d in saved or () if d <= first), default=0)
    if done:
        had, pmf, absorbed = saved[done]
        pmf, absorbed = pmf[:levels.max()], absorbed[np.searchsorted(had, levels)]
    else:
        pmf = np.full(int(levels.max()), -np.inf)
        pmf[0] = 0.0
        absorbed = np.full(len(levels), -np.inf)
    for i in order:
        for d, lp, lq in zip(range(done, depths[i]), log_p[done:depths[i]],
                             log_q[done:depths[i]]):
            absorbed = np.logaddexp(absorbed, pmf[below] + lp)
            pmf = np.logaddexp(pmf + lq, np.concatenate(([-np.inf], pmf[:-1] + lp)))
            if saved is not None and (d & (d + 1)) == 0 and 2 * (d + 1) > first:
                saved[d + 1] = levels, pmf, absorbed
        done = depths[i]
        yield i, np.concatenate((pmf[:levels[i]], absorbed[i:i + 1]))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("ens, r", GRID)
@pytest.mark.parametrize("min_terms", [None, 50, 400])
def test_profile_bits(ens, r, min_terms):
    prof = bernoulli_probs(ens, r, min_terms=min_terms)
    log_p, log_q, log_neglected = ref_bernoulli_probs(ens, r, min_terms)
    assert prof.size == ens.law(r).profile_depth(min_terms) == \
        ref_profile_depth(ens, r, min_terms)
    assert same_bits(prof.log_probs, log_p)
    assert same_bits(prof.log_neglected, log_neglected)
    # a hyperbolic log(1 - p_k) keeps the reference's bits where p_k < 1/2;
    # nearer 1 it is the more accurate log1mexp, checked against mpmath
    keep = slice(None) if ens is GIN else log_p < -math.log(2.0)
    assert same_bits(prof.log_one_minus[keep], log_q[keep])


@pytest.mark.parametrize("ens, r", GRID)
@pytest.mark.parametrize("growth", [1.4, 1.5])
def test_depth_rule_and_bound_bits(ens, r, growth):
    law = ens.law(r)
    for min_terms in (None, 50, 400):
        start = ref_profile_depth(ens, r, min_terms)
        for n in (start, start + 8, 2 * start + 1):
            assert same_bits(law.neglected(n), ref_log_neglected(ens, r, n))
            for log_mass in (math.log(1e-9), math.log(1e-14), -300.0):
                assert law.depth(log_mass, n, growth) == \
                    ref_depth_for_mass(ens, r, log_mass, n, growth)


@pytest.mark.parametrize("ens", [GIN, HYP])
@pytest.mark.parametrize("trials, depth", [(1, 1), (3, 7), (64, 40)])
def test_sampler_bits(ens, trials, depth):
    for seed in (90, 91):
        got = sample_radii(ens, stream(seed), trials, depth)
        assert same_bits(got, ref_sample_radii(ens, stream(seed), trials, depth))


def test_domain_checks_match():
    for ens, r in [(HYP, 1.0), (HYP, 1.5), (GIN, 0.0), (HYP, -1.0), (GIN, 1e-200)]:
        with pytest.raises(ValueError) as want:
            ref_check_domain(ens, r)
        with pytest.raises(ValueError) as got:
            ens.law(r)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("ens, r, ms, starts, ref_starts", [
    (GIN, 1.0, range(1, 301), [0], [0]),
    (GIN, 6.0, range(1, 301), [0, 64], [0, 64]),
    # one level of the second round was read at 204, before the saved 256
    (GIN, 10.0, range(1, 301), [0, 128], [0, 256]),
    (GIN, 15.0, range(1, 901), [0, 256], [0, 512]),
    (GIN, 1.0, range(100, 801, 100), [0], [0]),
    # one level of the second round was read at 15, before the saved 16
    (HYP, 0.5, range(1, 121), [0, 8], [0, 16]),
    (HYP, 0.9, range(1, 121), [0, 64], [0, 64]),
    (HYP, 0.97, range(1, 301), [0, 256], [0, 256]),
])
def test_sweep_bits_and_saved_states(monkeypatch, ens, r, ms, starts, ref_starts):
    # every round's sweep reads the reference's state bits, each state it
    # saves holds the pmf and the levels read at that depth or deeper with
    # the reference's bits, and it resumes where its levels were all unread
    sweep, ref_saved, got_starts, want_starts = radial._states, {}, [], []

    class Sliced:
        # the first index span a sweep steps over starts where it resumes
        def __init__(self, a):
            self.a = a

        def __getitem__(self, key):
            if len(got_starts) < len(want_starts):
                got_starts.append(key.start)
            return self.a[key]

    def both(levels, depths, log_p, log_q, saved):
        before = dict(saved)
        want_starts.append(max((d for d in ref_saved if d <= min(depths)), default=0))
        got = list(sweep(levels, depths, Sliced(log_p), log_q, saved))
        want = list(ref_states(levels, depths, log_p, log_q, ref_saved))
        assert [i for i, _ in got] == [i for i, _ in want]
        assert all(same_bits(g, w[::-1]) for (_, g), (_, w) in zip(got, want))
        fresh = [d for d in saved if saved[d] is not before.get(d)]
        assert fresh
        for d in fresh:
            had, pmf, absorbed = saved[d]
            assert had.tolist() == sorted(m for m, depth in zip(levels, depths) if depth >= d)
            ref_had, ref_pmf, ref_absorbed = ref_saved[d]
            assert same_bits(pmf, ref_pmf[:len(pmf)]) and len(pmf) == max(levels)
            assert same_bits(absorbed, ref_absorbed[np.searchsorted(ref_had, had)])
        return iter(got)

    monkeypatch.setattr(radial, "_states", both)
    radial.tail_log_brackets(ens, r, ms)
    assert (got_starts, want_starts) == (starts, ref_starts)
