"""Exact radial laws for the two determinantal ensembles.

For the Ginibre ensemble the squared point moduli are independent Gamma(n,1)
variables (Kostlan), so the count in a disk of radius r is a sum of
independent Bernoullis with p_n = P[Gamma(n,1) < r^2].  For the hyperbolic
model at index one the zero moduli are {U_n^{1/(2n)}} with independent
uniforms, so p_n = r^{2n}.  Both tails reduce to a Poisson-binomial tail,
computed here by an exact dynamic program run entirely in log space.  One
forward sweep of that program per radius prices every level m at once
(``tail_log_brackets``): the first m states of the absorbing program at level
m are the plain pmf, which no level changes.
"""

from __future__ import annotations

import heapq
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


def _log_neglected(ensemble: RadialEnsemble, r: float, n: int) -> float:
    """log of an upper bound on sum_{k>n} p_k, the mass a depth-n profile drops."""
    if ensemble is RadialEnsemble.HYPERBOLIC_ONE:
        # remainder sum_{k>n} r^{2k} = r^{2(n+1)}/(1-r^2)
        return float((n + 1) * (2.0 * math.log(r)) - math.log1p(-r * r))
    return float(_num.log_poisson_tail_remainder(r * r, n + 1))


def _depth_for_mass(ensemble: RadialEnsemble, r: float, log_mass: float, n: int,
                    growth: float) -> int:
    """A depth >= n whose neglected mass lies below exp(log_mass).

    Hyperbolic: the least such depth, inverted in closed form.  Ginibre: n
    grown by n -> int(n * growth) + 4 until the remainder bound is small enough.
    """
    if ensemble is RadialEnsemble.HYPERBOLIC_ONE:
        return max(n, math.ceil((log_mass + math.log1p(-r * r)) / (2.0 * math.log(r)) - 1.0))
    while _log_neglected(ensemble, r, n) >= log_mass:
        n = int(n * growth) + 4
    return n


def _profile_depth(ensemble: RadialEnsemble, r: float, eps: float,
                   min_terms: int | None) -> int:
    """Depth of ``bernoulli_probs(ensemble, r, eps, min_terms=min_terms)``."""
    _check_domain(ensemble, r)
    if not 0 < eps <= 1e-3:
        raise ValueError("eps must lie in (0, 1e-3]")
    if ensemble is RadialEnsemble.HYPERBOLIC_ONE:
        n = max(1, min_terms or 0)
    else:
        n = max(int(math.ceil(2 * r * r)) + 4, 8, min_terms or 0)
    return _depth_for_mass(ensemble, r, math.log(eps), n, 1.5)


def bernoulli_probs(ensemble: RadialEnsemble, r: float, eps: float = 1e-9,
                    *, min_terms: int | None = None) -> BernoulliProfile:
    """Success probabilities with the neglected-index mass bounded below eps.

    ``min_terms`` forces a deeper profile than eps alone would pick; tail
    evaluations at level m need indices well past m regardless of how small
    their individual probabilities are.  Every entry depends on its index
    alone, so a deeper profile extends a shallower one bit for bit.
    """
    n = _profile_depth(ensemble, r, eps, min_terms)
    idx = np.arange(1, n + 1)
    if ensemble is RadialEnsemble.HYPERBOLIC_ONE:
        log_p = idx * (2.0 * math.log(r))
        with np.errstate(divide="ignore"):
            log_q = np.log1p(-np.exp(log_p))
    else:
        lam = r * r
        log_p = _ginibre_log_p(r, idx)
        # 1 - p_n = Q(n, lam): the complementary gamma keeps log(1-p) accurate
        # when p is within rounding of 1
        lin_q = special.gammaincc(idx.astype(float), lam)
        with np.errstate(divide="ignore"):
            log_q = np.where(lin_q > 1e-280, np.log(np.maximum(lin_q, 1e-300)),
                             np.log1p(-np.exp(log_p)))
    return BernoulliProfile(ensemble=ensemble, r=r, log_probs=log_p, log_one_minus=log_q,
                            log_neglected=_log_neglected(ensemble, r, n))


def sample_radii(ensemble: RadialEnsemble, rng: np.random.Generator, trials: int,
                 depth: int) -> np.ndarray:
    """The first ``depth`` point radii of ``trials`` independent draws, a (trials, depth) array.

    Row t holds the radii of draw t in index order (not sorted by size), and
    the rows come off ``rng`` one after another, so one call draws what
    ``trials`` calls of one row each would.  Ginibre: the k-th squared radius
    is a Gamma(k,1) draw, independent across indices, which is what makes the
    count a Poisson-binomial sum.  Hyperbolic index one: U_k^{1/(2k)} with
    independent uniforms.
    """
    if trials < 1 or depth < 1:
        raise ValueError("trials and depth must be >= 1")
    k = np.arange(1, depth + 1)
    if ensemble is RadialEnsemble.GINIBRE:
        return np.sqrt(rng.standard_gamma(np.broadcast_to(k.astype(float), (trials, depth))))
    return rng.random((trials, depth)) ** (1.0 / (2.0 * k))


def _sweep(pmf: np.ndarray, absorbed: np.ndarray, below: np.ndarray,
           log_p: np.ndarray, log_q: np.ndarray):
    """Advance the log-space DP by one step per index of (log_p, log_q).

    ``pmf`` holds log P[S = k] for k = 0..len(pmf)-1 and ``absorbed[j]`` holds
    log P[S >= below[j] + 1], the absorbing state of the DP at that level.
    The first m states of the absorbing DP at level m are the plain pmf, so
    one sweep serves every level.  Returns the advanced (pmf, absorbed).
    """
    for lp, lq in zip(log_p, log_q):
        absorbed = np.logaddexp(absorbed, pmf[below] + lp)
        pmf = np.logaddexp(pmf + lq, np.concatenate(([-np.inf], pmf[:-1] + lp)))
    return pmf, absorbed


def _bracket(state: np.ndarray, log_neglected: float):
    """Bracket from the DP state [log P[S = 0..m-1], log P[S >= m]].

    Returns the bracket and the survival vector log P[S >= k], k = 0..m.
    """
    m = len(state) - 1
    # where P is within rounding of 1 the log-space sums can land a few ulps
    # above 0; both ends are clamped so the bracket stays <= 0 and ordered
    log_lower = min(float(state[m]), 0.0)
    survival = np.logaddexp.accumulate(state[::-1])[::-1]
    j = np.arange(0, m + 1)
    with np.errstate(invalid="ignore"):
        corr = j * log_neglected - special.gammaln(j + 1) + survival[::-1]
    if not np.isfinite(log_neglected):
        corr = np.where(j == 0, survival[m], -np.inf)
    log_upper = min(_num.logsumexp(corr), 0.0)
    return TailBracket(log_lower, log_upper), survival


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
    pmf = np.full(m, -np.inf)
    pmf[0] = 0.0
    pmf, absorbed = _sweep(pmf, np.full(1, -np.inf), np.array([m - 1]),
                           profile.log_probs, profile.log_one_minus)
    return _bracket(np.concatenate((pmf, absorbed)), profile.log_neglected)[0]


def tail_log_brackets(ensemble: RadialEnsemble, r: float, ms, eps: float = 1e-9, *,
                      target_width=1e-6) -> list[TailBracket]:
    """Tail brackets for every level in ``ms``, priced by one forward DP sweep.

    Level m is read first at the depth of ``bernoulli_probs(min_terms=m + 8)``.
    When its bracket is wider than ``target_width``, the survival step at m
    gives the neglected mass that would meet the target, and m is read again
    at that deeper depth, at most four times.  Pending reads wait in a heap
    ordered by depth; a deeper read never precedes a shallower one, so the
    sweep only moves forward and keeps no per-step history.  Each bracket is
    the one a DP restarted at index 1 with that depth's profile would give.
    """
    ms = list(ms)
    if any(m < 0 for m in ms):
        raise ValueError("m must be >= 0")
    done = {0: TailBracket(0.0, 0.0)}
    levels = np.array(sorted({m for m in ms if m > 0}), dtype=int)
    if len(levels):
        pending = [(_profile_depth(ensemble, r, eps, int(m) + 8), j, 0)
                   for j, m in enumerate(levels)]
        heapq.heapify(pending)
        profile = bernoulli_probs(ensemble, r, eps, min_terms=max(pending)[0])
        pmf = np.full(levels[-1], -np.inf)
        pmf[0] = 0.0
        absorbed = np.full(len(levels), -np.inf)
        below = levels - 1
        depth = 0
        while pending:
            read_depth, j, refinements = heapq.heappop(pending)
            if read_depth > profile.size:
                # grow once to the deepest pending read; none is shallower than this one
                deepest = max(pending, default=(read_depth,))[0]
                profile = bernoulli_probs(ensemble, r, eps, min_terms=deepest)
            pmf, absorbed = _sweep(pmf, absorbed, below,
                                   profile.log_probs[depth:read_depth],
                                   profile.log_one_minus[depth:read_depth])
            depth = read_depth
            m = int(levels[j])
            br, survival = _bracket(np.concatenate((pmf[:m], absorbed[j:j + 1])),
                                    _log_neglected(ensemble, r, depth))
            if br.log_upper - br.log_lower <= target_width or refinements == 4:
                done[m] = br
                continue
            needed = math.log(target_width / 2.0) + survival[m] - survival[m - 1]
            start = depth + 8 if ensemble is RadialEnsemble.HYPERBOLIC_ONE else depth
            wanted = _depth_for_mass(ensemble, r, needed, start, 1.4)
            heapq.heappush(pending, (_profile_depth(ensemble, r, eps, wanted), j,
                                     refinements + 1))
    return [done[m] for m in ms]
