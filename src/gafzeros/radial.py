"""Exact radial laws for the two determinantal ensembles.

For the Ginibre ensemble the squared point moduli are independent Gamma(n,1)
variables (Kostlan), so the count in a disk of radius r is a sum of
independent Bernoullis with p_n = P[Gamma(n,1) < r^2].  For the hyperbolic
model at index one the zero moduli are {U_n^{1/(2n)}} with independent
uniforms, so p_n = r^{2n}.  Both tails reduce to a Poisson-binomial tail,
computed here by an exact dynamic program run entirely in log space.
``tail_log_brackets`` is the one entry into that program: it prices every
level m at one radius (a single level is the list ``[m]``) in rounds.  A
round is one forward sweep of that program, which reads the state of every
pending level at that level's depth (the first m states of the absorbing
program at level m are the plain pmf, which no level changes), and batched
brackets of those states, priced as the sweep goes in chunks of at most
``BRACKET_CELLS`` cells.  Levels whose brackets are still too wide go to the
next round, deeper, which resumes from a state the earlier sweeps saved at
a power-of-two depth instead of from index 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy import special

from . import _num


# Most DP-state cells ``_brackets`` prices in one chunk.  Pricing each round
# of three in-process exact-tails passes in one matrix raised their peak RSS
# to 62.6 MB; chunks of 8192 cells keep it at 58.5 MB.
BRACKET_CELLS = 8192


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
                    growth: float, neglected=None) -> int:
    """A depth >= n whose neglected mass lies below exp(log_mass).

    Hyperbolic: the least such depth, inverted in closed form.  Ginibre: n
    grown by n -> int(n * growth) + 4 until the remainder bound is small
    enough.  ``neglected(n)``, when given, is ``_log_neglected(ensemble, r, n)``
    as the caller memoises it.
    """
    if ensemble is RadialEnsemble.HYPERBOLIC_ONE:
        return max(n, math.ceil((log_mass + math.log1p(-r * r)) / (2.0 * math.log(r)) - 1.0))
    neglected = neglected or functools.partial(_log_neglected, ensemble, r)
    while neglected(n) >= log_mass:
        n = int(n * growth) + 4
    return n


def _profile_depth(ensemble: RadialEnsemble, r: float, eps: float,
                   min_terms: int | None, neglected=None) -> int:
    """Depth of ``bernoulli_probs(ensemble, r, eps, min_terms=min_terms)``."""
    _check_domain(ensemble, r)
    if not 0 < eps <= 1e-3:
        raise ValueError("eps must lie in (0, 1e-3]")
    if ensemble is RadialEnsemble.HYPERBOLIC_ONE:
        n = max(1, min_terms or 0)
    else:
        n = max(int(math.ceil(2 * r * r)) + 4, 8, min_terms or 0)
    return _depth_for_mass(ensemble, r, math.log(eps), n, 1.5, neglected)


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


def _states(levels, depths, log_p, log_q, saved=None):
    """(i, state) of every read i, shallowest first: the DP state
    [log P[S = 0..m-1], log P[S >= m]] at level m = levels[i] >= 1 after the
    first depths[i] indices.

    One forward sweep over the indices of (log_p, log_q) serves every read:
    the first m states of the absorbing DP at level m are the plain pmf, and
    each level keeps its absorbing state log P[S >= m] beside it.

    ``saved``, when given, maps a depth to the sweep state (levels, pmf,
    absorbed) there, and is shared by the rounds of one radius.  The sweep
    starts from the deepest saved depth at or below its shallowest read, with
    the pmf up to its own top level and the absorbing states of its own
    levels (ascending, and among the levels of the sweep that saved the
    state).  It saves its state at every power-of-two depth it passes from
    the last one at or below its shallowest read on: a later round reads no
    shallower, so no earlier state would serve it.  A step acts on each cell
    alone, so a resumed read has the bits of a sweep from index 1.
    """
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


def _chunks(states):
    """The (i, state) pairs of ``states`` in lists of at most ``BRACKET_CELLS`` cells,
    with every state padded to the longest of its list (one state at the least)."""
    chunk, width = [], 0
    for i, state in states:
        if chunk and (len(chunk) + 1) * max(width, len(state)) > BRACKET_CELLS:
            yield chunk
            chunk, width = [], 0
        chunk.append((i, state))
        width = max(width, len(state))
    if chunk:
        yield chunk


def _brackets(states, log_neglected):
    """Brackets from the DP states [log P[S = 0..m-1], log P[S >= m]], m >= 1.

    The DP value over a profile's indices is an exact lower bound.  The upper
    end adds the neglected indices through P[T = j] <= mu^j / j!, with mu the
    neglected mass, paired with the DP survival at m - j, all in log scale.
    ``states`` yields (i, state) pairs, and ``log_neglected[i]`` is the log
    neglected mass of the profile behind state i.  Returns the arrays of
    lower and upper ends and the (len(log_neglected), 2) array of
    log P[S >= m] and log P[S >= m - 1], by i.  The states are priced in
    their order in chunks of at most ``BRACKET_CELLS`` cells, and every
    value has the bits of a chunk of one state: survivals accumulate along
    rows, and the upper end is ``_num.logsumexp_rows``.
    """
    log_neglected = np.asarray(log_neglected, dtype=float)
    lower, upper = np.empty(len(log_neglected)), np.empty(len(log_neglected))
    head = np.empty((len(log_neglected), 2))
    for chunk in _chunks(states):
        rows = [i for i, _ in chunk]
        sizes = np.array([len(state) for _, state in chunk])
        # row k holds state k reversed, so acc[k, j] = log P[S >= m - j]
        rev = np.full((len(chunk), sizes.max()), -np.inf)
        for k, (_, state) in enumerate(chunk):
            rev[k, :len(state)] = state[::-1]
        acc = np.logaddexp.accumulate(rev, axis=1)
        j = np.arange(rev.shape[1])
        ln = log_neglected[rows, None]
        with np.errstate(invalid="ignore"):
            corr = j * ln - special.gammaln(j + 1) + acc
        # no neglected mass: only P[S >= m] itself is left
        corr = np.where(np.isfinite(ln), corr, np.where(j == 0, acc, -np.inf))
        lower[rows] = rev[:, 0]
        upper[rows] = _num.logsumexp_rows(corr, sizes)
        head[rows] = acc[:, :2]
    # where P is within rounding of 1 the log-space sums can land a few ulps
    # above 0; both ends are clamped so the bracket stays <= 0 and ordered
    return np.where(lower > 0.0, 0.0, lower), np.where(upper > 0.0, 0.0, upper), head


def tail_log_brackets(ensemble: RadialEnsemble, r: float, ms, eps: float = 1e-9, *,
                      target_width=1e-6) -> list[TailBracket]:
    """Tail brackets for every level in ``ms``, priced in rounds of one DP sweep each.

    Level m is read first at the depth of ``bernoulli_probs(min_terms=m + 8)``.
    A round sweeps the DP to its deepest read, from index 1 or from the
    deepest state an earlier round saved at or below its shallowest read
    (``_states``), takes each read's state [pmf[:m], absorbed] at that
    read's depth, and prices the states in batched brackets (``_brackets``,
    in chunks of ``BRACKET_CELLS`` cells).
    A read still wider than ``target_width`` moves to the next round at the
    depth whose neglected mass its survival step says would meet the target,
    at most four times per level.  Each bracket is the one a DP restarted at
    index 1 with that depth's profile would give.
    """
    ms = list(ms)
    if any(m < 0 for m in ms):
        raise ValueError("m must be >= 0")
    done = {0: TailBracket(0.0, 0.0)}
    levels = sorted({int(m) for m in ms if m > 0})
    if levels:
        neglected = functools.cache(functools.partial(_log_neglected, ensemble, r))
        reads = {m: _profile_depth(ensemble, r, eps, m + 8, neglected) for m in levels}
        profile, refinements, saved = None, 0, {}
        while reads:
            deepest = max(reads.values())
            if profile is None or deepest > profile.size:
                profile = bernoulli_probs(ensemble, r, eps, min_terms=deepest)
            states = _states(list(reads), list(reads.values()),
                             profile.log_probs, profile.log_one_minus, saved)
            lower, upper, head = _brackets(states, [neglected(d) for d in reads.values()])
            met = upper - lower <= target_width
            wide = {}
            for i, (m, depth) in enumerate(reads.items()):
                if met[i] or refinements == 4:
                    done[m] = TailBracket(float(lower[i]), float(upper[i]))
                    continue
                # the survival step at m gives the neglected mass that would meet the target
                needed = math.log(target_width / 2.0) + head[i, 0] - head[i, 1]
                start = depth + 8 if ensemble is RadialEnsemble.HYPERBOLIC_ONE else depth
                # past a first-read depth that met eps, so eps needs nothing more
                wide[m] = _depth_for_mass(ensemble, r, needed, start, 1.4, neglected)
            reads, refinements = wide, refinements + 1
    return [done[m] for m in ms]
