"""Exact radial laws for the two determinantal ensembles, and their tails.

Under either law the moduli are independent across indices, so the count in
D(0, r) is a sum of independent Bernoullis.  ``RadialEnsemble.law`` is a
law's one entry: built at r, which checks r's domain, it gives log p_k and
log(1 - p_k), a memoised certified bound on the mass past depth n, the depth
rule that meets a bound from the law's least depth on, and the refinement
pad; its class samples the moduli.  ``tail_log_brackets`` prices the count's
tail by an exact dynamic program in log space.
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
PROFILE_EPS = 1e-9  # the neglected-index mass of a profile is below it
BRACKET_WIDTH = 1e-6  # ``tail_log_brackets`` deepens a read until it is this wide


class RadialEnsemble(Enum):
    GINIBRE = "ginibre"
    HYPERBOLIC_ONE = "hyperbolic-one"

    @property
    def law(self) -> type[_Law]:
        """This law's entry: ``law(r)`` holds its rules at r, ``law.sample`` its sampler."""
        return {"ginibre": _Ginibre, "hyperbolic-one": _HyperbolicOne}[self.value]


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


class _Law:
    """A radial law's rules at radius r, one subclass per law (see the module docstring)."""

    def __init__(self, r: float):
        _num.check_radius(r)
        self.r = r
        self.neglected = functools.cache(self.neglected)

    def profile_depth(self, min_terms: int | None) -> int:
        """Depth of ``bernoulli_probs(ensemble, r, min_terms=min_terms)``."""
        return self.depth(math.log(PROFILE_EPS), min_terms or 0, 1.5)


class _Ginibre(_Law):
    """p_k = P[Gamma(k,1) < r^2] = P[Pois(r^2) >= k]: squared moduli are Gamma(k,1) (Kostlan)."""

    pad = 0  # the growth loop moves past a read whose bound is not yet small enough

    def logs(self, idx):
        lam = self.r * self.r
        log_p = _num.log_gamma_lower(idx, lam, math.log(lam))
        # 1 - p_n = Q(n, lam) = P[Pois(lam) < n], accurate where p is within rounding
        # of 1; where Q underflows, its log is the running log-sum of the terms k < n
        lin_q = special.gammaincc(idx.astype(float), lam)
        log_q = np.log(np.maximum(lin_q, 1e-300))
        under = np.flatnonzero(~(lin_q > 1e-280))
        k = np.arange(under.max(initial=-1) + 1)
        log_q[under] = np.logaddexp.accumulate(k * math.log(lam) - lam
                                               - special.gammaln(k + 1))[under]
        return log_p, log_q

    def neglected(self, n: int) -> float:
        """Past k = n+1 each p_k is at most q = (r^2/(n+2)) / (1 - r^2/(n+3)) times
        the one before, so the sum is at most p_{n+1}/(1-q) where q < 1."""
        lam = self.r * self.r
        q = (lam / (n + 2)) / (1.0 - lam / (n + 3))
        if not q < 1.0:
            raise ValueError("profile depth too small for a certified remainder bound")
        return float(_num.log_gamma_lower(n + 1, lam, math.log(lam)) - math.log1p(-q))

    def depth(self, log_mass: float, n: int, growth: float) -> int:
        """n, grown by n -> int(n * growth) + 4 until its bound is below log_mass."""
        n = max(n, math.ceil(2 * self.r * self.r) + 4, 8)  # where ``neglected`` holds
        while self.neglected(n) >= log_mass:
            n = int(n * growth) + 4
        return n

    @staticmethod
    def sample(rng, k):
        return np.sqrt(rng.standard_gamma(k))


class _HyperbolicOne(_Law):
    """p_k = r^{2k}: the moduli are U_k^{1/(2k)} with independent uniforms."""

    pad = 8  # the closed form can return the read's own depth

    def __init__(self, r: float):
        super().__init__(r)
        if not r < 1:
            raise ValueError("hyperbolic radial law needs r < 1")

    def logs(self, idx):
        log_p = idx * (2.0 * math.log(self.r))
        return log_p, _num.log1mexp(-log_p)

    def neglected(self, n: int) -> float:  # sum_{k>n} r^{2k} = r^{2(n+1)}/(1-r^2)
        return float((n + 1) * (2.0 * math.log(self.r)) - math.log1p(-self.r * self.r))

    def depth(self, log_mass: float, n: int, growth: float) -> int:
        r = self.r  # the least depth >= n whose bound is below log_mass, in closed form
        return max(n, 1, math.ceil((log_mass + math.log1p(-r * r)) / (2.0 * math.log(r)) - 1.0))

    @staticmethod
    def sample(rng, k):
        return rng.random(k.shape) ** (1.0 / (2.0 * k))


def bernoulli_probs(ensemble: RadialEnsemble, r: float, *,
                    min_terms: int | None = None) -> BernoulliProfile:
    """Success probabilities with the neglected-index mass bounded below PROFILE_EPS.

    ``min_terms`` forces a deeper profile than PROFILE_EPS alone would pick; tail
    evaluations at level m need indices well past m regardless of how small
    their individual probabilities are.  Every entry depends on its index
    alone, so a deeper profile extends a shallower one bit for bit.
    """
    law = ensemble.law(r)
    n = law.profile_depth(min_terms)
    return BernoulliProfile(ensemble, r, *law.logs(np.arange(1, n + 1)), law.neglected(n))


def sample_radii(ensemble: RadialEnsemble, rng: np.random.Generator, trials: int,
                 depth: int) -> np.ndarray:
    """The first ``depth`` point radii of ``trials`` independent draws, a (trials, depth) array.

    Row t holds the radii of draw t in index order (not sorted by size), and
    the rows come off ``rng`` one after another, so one call draws what
    ``trials`` calls of one row each would.
    """
    if trials < 1 or depth < 1:
        raise ValueError("trials and depth must be >= 1")
    return ensemble.law.sample(rng, np.broadcast_to(np.arange(1.0, depth + 1), (trials, depth)))


def _states(levels, depths, log_p, log_q, saved=None):
    """(i, state) of every read i, shallowest first: the DP state at level
    m = levels[i] >= 1 after the first depths[i] indices, reversed, as
    [log P[S >= m], log P[S = m-1], ..., log P[S = 0]].

    One forward sweep over the indices of (log_p, log_q) serves every read:
    the first m states of the absorbing DP at level m are the plain pmf, and
    each level keeps its absorbing state log P[S >= m] beside it until its
    read.  The levels are kept in read order, so the unread ones are a
    suffix, and a step updates the absorbing states of that suffix alone;
    every level still gets each step up to its depth.  The pmf steps in
    place in one buffer behind a leading -inf cell.

    ``saved``, when given, maps a depth to the sweep state (levels, pmf,
    absorbed) there, and is shared by the rounds of one radius: the pmf up to
    the top level of the sweep that saved it, and the levels still unread
    there (read at that depth or deeper), ascending, with their absorbing
    states.  The sweep starts from the deepest saved depth at or below its
    shallowest read that holds all of its levels, with the pmf up to its own
    top level.  It saves its state at every power-of-two depth it passes from
    the last one at or below its shallowest read on: that one holds every
    level of the sweep, and a later round reads no shallower and only levels
    of this one, so no earlier state would serve it.  A step acts on each
    cell alone, so a resumed read has the bits of a sweep from index 1.
    """
    order = np.argsort(depths, kind="stable")
    levels, depths = np.asarray(levels)[order], np.asarray(depths)[order].tolist()
    first, top = depths[0], int(levels.max())
    done = max((d for d, (had, _, _) in (saved or {}).items()
                if d <= first and np.isin(levels, had).all()), default=0)
    buf = np.full(top + 1, -np.inf)
    pmf = buf[1:]  # buf[:-1] is the pmf shifted up by one, from -inf
    if done:
        had, kept, absorbed = saved[done]
        pmf[:] = kept[:top]
        absorbed = absorbed[np.searchsorted(had, levels)]
    else:
        pmf[0] = 0.0
        absorbed = np.full(len(levels), -np.inf)
    below = levels - 1
    stay, shift = np.empty(top), np.empty(top)
    for k, (i, depth) in enumerate(zip(order.tolist(), depths)):
        at, acc = below[k:], absorbed[k:]
        for d, lp, lq in zip(range(done, depth), log_p[done:depth].tolist(),
                             log_q[done:depth].tolist()):
            lifted = pmf[at]
            lifted += lp
            np.logaddexp(acc, lifted, out=acc)
            np.add(pmf, lq, out=stay)
            np.add(buf[:-1], lp, out=shift)
            np.logaddexp(stay, shift, out=pmf)
            if saved is not None and (d & (d + 1)) == 0 and 2 * (d + 1) > first:
                rank = np.argsort(levels[k:])
                saved[d + 1] = levels[k:][rank], pmf.copy(), acc[rank]
        done = depth
        m = int(levels[k])
        state = np.empty(m + 1)
        state[0] = absorbed[k]
        state[1:] = buf[m:0:-1]
        yield i, state


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
    """Brackets from the reversed DP states [log P[S >= m], log P[S = m-1..0]], m >= 1.

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
        # row k holds state k, so acc[k, j] = log P[S >= m - j]
        rev = np.full((len(chunk), sizes.max()), -np.inf)
        for k, (_, state) in enumerate(chunk):
            rev[k, :len(state)] = state
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


def tail_log_brackets(ensemble: RadialEnsemble, r: float, ms) -> list[TailBracket]:
    """Tail brackets for every level in ``ms``, priced in rounds of one DP sweep each.

    Level m is read first at the depth of ``bernoulli_probs(min_terms=m + 8)``.
    A round is one DP sweep to its deepest read, which may resume from a state
    an earlier round saved (``_states``), and prices the state of each read at
    its depth in batched brackets (``_brackets``).
    A read still wider than BRACKET_WIDTH moves to the next round at the
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
        law = ensemble.law(r)
        reads = {m: law.profile_depth(m + 8) for m in levels}
        profile, refinements, saved = None, 0, {}
        while reads:
            deepest = max(reads.values())
            if profile is None or deepest > profile.size:
                profile = bernoulli_probs(ensemble, r, min_terms=deepest)
            states = _states(list(reads), list(reads.values()),
                             profile.log_probs, profile.log_one_minus, saved)
            lower, upper, head = _brackets(states, [law.neglected(d) for d in reads.values()])
            met = upper - lower <= BRACKET_WIDTH
            wide = {}
            for i, (m, depth) in enumerate(reads.items()):
                if met[i] or refinements == 4:
                    done[m] = TailBracket(float(lower[i]), float(upper[i]))
                    continue
                # the survival step at m gives the neglected mass that would meet the target
                needed = math.log(BRACKET_WIDTH / 2.0) + head[i, 0] - head[i, 1]
                wide[m] = law.depth(needed, depth + law.pad, 1.4)
            reads, refinements = wide, refinements + 1
    return [done[m] for m in ms]
