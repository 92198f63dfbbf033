"""Exact radial laws for the two determinantal ensembles.

For the Ginibre ensemble the squared point moduli are independent Gamma(n,1)
variables (Kostlan), so the count in a disk of radius r is a sum of
independent Bernoullis with p_n = P[Gamma(n,1) < r^2].  For the hyperbolic
model at index one the zero moduli are {U_n^{1/(2n)}} with independent
uniforms, so p_n = r^{2n}.  Both tails reduce to a Poisson-binomial tail,
computed here by an exact dynamic program run entirely in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy import special

from . import _num


class RadialEnsemble(Enum):
    GINIBRE = "ginibre"
    HYPERBOLIC_ONE = "hyperbolic-one"


class TailBracket(NamedTuple):
    log_lower: float
    log_upper: float


@dataclass(frozen=True)
class BernoulliProfile:
    """Success probabilities p_1..p_N for the radial count at radius r.

    Probabilities and the neglected-index mass bound are stored in log scale;
    deep-tail entries would underflow linearly long before they stop
    mattering to the dynamic program.
    """

    ensemble: RadialEnsemble
    r: float
    log_probs: np.ndarray          # log p_n for n = 1..N
    log_one_minus: np.ndarray      # log(1 - p_n)
    log_neglected: float           # log upper bound on sum_{n>N} p_n

    @property
    def size(self) -> int:
        return len(self.log_probs)

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    @property
    def neglected_mass(self) -> float:
        return math.exp(self.log_neglected) if np.isfinite(self.log_neglected) else 0.0


def _check_domain(ensemble: RadialEnsemble, r: float):
    if not r > 0:
        raise ValueError("radius must be positive")
    if ensemble is RadialEnsemble.HYPERBOLIC_ONE and not r < 1:
        raise ValueError("hyperbolic radial law needs r < 1")


def _ginibre_log_p(r: float, n: np.ndarray) -> np.ndarray:
    lam = r * r
    out = np.empty(len(n))
    lin = special.gammainc(n, lam)
    ok = lin > 1e-280
    out[ok] = np.log(lin[ok])
    for i in np.nonzero(~ok)[0]:
        out[i] = _num.log_poisson_tail(lam, int(n[i]))
    return out


def bernoulli_probs(ensemble: RadialEnsemble, r: float, eps: float = 1e-9,
                    *, min_terms: int | None = None) -> BernoulliProfile:
    """Success probabilities with the neglected-index mass bounded below eps.

    ``min_terms`` forces a deeper profile than eps alone would pick; tail
    evaluations at level m need indices well past m regardless of how small
    their individual probabilities are.
    """
    _check_domain(ensemble, r)
    if not 0 < eps <= 1e-3:
        raise ValueError("eps must lie in (0, 1e-3]")
    log_eps = math.log(eps)

    if ensemble is RadialEnsemble.HYPERBOLIC_ONE:
        log_r2 = 2.0 * math.log(r)
        # remainder sum_{n>N} r^{2n} = r^{2(N+1)}/(1-r^2)
        n_eps = math.ceil((log_eps + math.log1p(-r * r)) / log_r2 - 1.0)
        n = max(1, n_eps, min_terms or 0)
        idx = np.arange(1, n + 1)
        log_p = idx * log_r2
        with np.errstate(divide="ignore"):
            log_q = np.log1p(-np.exp(log_p))
        log_neg = (n + 1) * log_r2 - math.log1p(-r * r)
    else:
        lam = r * r
        n = max(int(math.ceil(2 * lam)) + 4, 8, min_terms or 0)
        while _num.log_poisson_tail_remainder(lam, n + 1) >= log_eps:
            n = int(n * 1.5) + 4
        idx = np.arange(1, n + 1)
        log_p = _ginibre_log_p(r, idx)
        # 1 - p_n = Q(n, lam): the complementary gamma keeps log(1-p) accurate
        # when p is within rounding of 1
        lin_q = special.gammaincc(idx.astype(float), lam)
        with np.errstate(divide="ignore"):
            log_q = np.where(lin_q > 1e-280, np.log(np.maximum(lin_q, 1e-300)),
                             np.log1p(-np.exp(log_p)))
        log_neg = _num.log_poisson_tail_remainder(lam, n + 1)

    return BernoulliProfile(ensemble=ensemble, r=r, log_probs=log_p,
                            log_one_minus=log_q, log_neglected=float(log_neg))


def sample_radii(ensemble: RadialEnsemble, rng: np.random.Generator, n: int) -> np.ndarray:
    """The first n point radii, in index order (not sorted by size).

    Ginibre: the k-th squared radius is a sum of k fresh unit exponentials,
    one independent Gamma(k,1) draw per index.  Independence across indices
    is what makes the count a Poisson-binomial sum.  Hyperbolic index one:
    U_k^{1/(2k)} with independent uniforms.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if ensemble is RadialEnsemble.GINIBRE:
        return np.sqrt(rng.standard_gamma(np.arange(1.0, n + 1.0)))
    k = np.arange(1, n + 1)
    return rng.random(n) ** (1.0 / (2.0 * k))


def _dp_log_pmf(profile: BernoulliProfile, m: int) -> np.ndarray:
    """Log-space DP over states 0..m, the last state absorbing (count >= m).

    Returns the vector [log P[S = 0], ..., log P[S = m-1], log P[S >= m]]
    for the truncated sum over indices 1..N.
    """
    state = np.full(m + 1, -np.inf)
    state[0] = 0.0
    for lp, lq in zip(profile.log_probs, profile.log_one_minus):
        up = state[m - 1] + lp
        shifted = np.concatenate(([-np.inf], state[:m-1] + lp))
        state[:m] = np.logaddexp(state[:m] + lq, shifted)
        state[m] = np.logaddexp(state[m], up)
    return state


def poisson_binomial_tail_log(profile: BernoulliProfile, m: int) -> TailBracket:
    """Bracket on log P[sum of Bernoullis >= m] for the full (infinite) profile.

    The DP value over the stored indices is an exact lower bound (dropping
    indices can only shrink the count).  The upper bound adds the neglected
    indices through P[T = j] <= mu^j / j! with mu the neglected mass, paired
    with the DP survival at m - j; everything stays in log scale so the
    correction is meaningful even when mu is far below the linear floor.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return TailBracket(0.0, 0.0)
    state = _dp_log_pmf(profile, m)
    # where P is within rounding of 1 the log-space sums can land a few ulps
    # above 0; both ends are clamped so the bracket stays <= 0 and ordered
    log_lower = min(float(state[m]), 0.0)
    # survival[k] = log P[S >= k]
    survival = np.logaddexp.accumulate(state[::-1])[::-1]
    j = np.arange(0, m + 1)
    with np.errstate(invalid="ignore"):
        corr = j * profile.log_neglected - special.gammaln(j + 1) + survival[::-1]
    if not np.isfinite(profile.log_neglected):
        corr = np.where(j == 0, survival[m], -np.inf)
    log_upper = float(_num.logsumexp(corr))
    log_upper = min(log_upper, 0.0)
    return TailBracket(log_lower, log_upper)


def tail_log_bracket(ensemble: RadialEnsemble, r: float, m: int,
                     eps: float = 1e-9, *, target_width=1e-6) -> TailBracket:
    """Tail bracket with the profile depth chosen to hit the target width.

    A first pass with a shallow profile measures the survival step at m; the
    required neglected mass follows, and a second pass certifies it.
    """
    if m == 0:
        return TailBracket(0.0, 0.0)
    profile = bernoulli_probs(ensemble, r, eps, min_terms=m + 8)
    br = poisson_binomial_tail_log(profile, m)
    for _ in range(4):
        if br.log_upper - br.log_lower <= target_width:
            return br
        state = _dp_log_pmf(profile, m)
        survival = np.logaddexp.accumulate(state[::-1])[::-1]
        needed = math.log(target_width / 2.0) + survival[m] - survival[m - 1]
        n = profile.size
        if ensemble is RadialEnsemble.HYPERBOLIC_ONE:
            n_needed = math.ceil((needed + math.log1p(-r * r)) / (2.0 * math.log(r)) - 1.0)
            n = max(n + 8, n_needed)
        else:
            while _num.log_poisson_tail_remainder(r * r, n + 1) >= needed:
                n = int(n * 1.4) + 4
        profile = bernoulli_probs(ensemble, r, eps, min_terms=n)
        br = poisson_binomial_tail_log(profile, m)
    return br
