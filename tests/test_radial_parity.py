"""Bitwise parity of the per-law radial entries with a branch-per-site reference.

The reference functions below keep every law's rules in ``if ensemble is``
branches, one function per rule; the law entries behind ``bernoulli_probs``,
``tail_log_brackets`` and ``sample_radii`` must give the same bits.
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
