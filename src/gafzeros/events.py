"""Constructive coefficient events, their exact prices, and Monte Carlo.

An event is a product of constraints on disjoint coefficient sets: per-index
magnitude caps or floors plus at most one aggregate quadratic cap.  Each kind
is built so that occurrence forces the anchored term to dominate the rest of
the series on the circle, which pins the zero count in the disk.  Prices are
exact exponential/Gamma probabilities computed in log space, every cap of an
event in one ``_num.log_bernoulli_le`` call; the looser closed-form bounds used
in asymptotic work are reported alongside.  ``_log_sup`` is the one sum of caps
times weights, behind every sup budget and the domination constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy import special

from . import _num
from .models import (GafModel, Kind, TruncatedGaf, choose_truncation, log_weight, stream,
                     weight_ratio_bound)
from .radial import RadialEnsemble, _profile_depth, sample_radii
from .zeros import certified_counts, max_modulus
from .zeros import count_with_retry  # noqa: F401  (perfbench's Tracer.install checks this binding)


class EventKind(Enum):
    PLANAR_DOMINATION = "planar-domination"
    HYPERBOLIC_DOMINATION = "hyperbolic-domination"
    VERY_LARGE_DOMINATION = "very-large-domination"
    MODERATE_GROUPED = "moderate-grouped"


class EventConstructionError(ValueError):
    """The requested parameters cannot yield a valid domination event."""


@dataclass
class IndexBlock:
    """Per-index constraint |a_n| <= c_n (mode 'le') or |a_n| >= c_n ('ge').

    ``hi`` is inclusive; None marks an unbounded block whose thresholds must
    be nondecreasing past the point where e^{-c_n^2} is negligible: pricing
    cuts it at its first index with 2 log c_n > 4.06, where e^{-c_n^2} < 1e-25.
    """

    label: str
    lo: int
    hi: int | None
    mode: str
    log_threshold: Callable[[np.ndarray], np.ndarray]
    rule: str

    def indices_upto(self, n_max: int) -> np.ndarray:
        hi = n_max if self.hi is None else min(self.hi, n_max)
        return np.arange(self.lo, hi + 1)


@dataclass
class AggregateBlock:
    """Quadratic cap sum_{lo..hi} |a_n|^2 <= exp(log_bound)."""

    label: str
    lo: int
    hi: int
    log_bound: float
    rule: str

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


@dataclass
class EventSpec:
    kind: EventKind
    model: GafModel
    r: float
    m: int
    blocks: list[IndexBlock]
    aggregate: AggregateBlock | None
    params: dict

    @property
    def structural_max_index(self) -> int:
        out = self.m
        for b in self.blocks:
            if b.hi is not None:
                out = max(out, b.hi)
            else:
                out = max(out, b.lo)
        if self.aggregate is not None:
            out = max(out, self.aggregate.hi)
        return out


@dataclass(frozen=True)
class EventLogProb:
    total: float
    bound_form: float
    by_block: dict


@dataclass(frozen=True)
class TailEstimate:
    """A Monte Carlo tail estimate: the point value and Clopper-Pearson ends, in log.

    ``hits`` counts the trials at or above the level; a GAF estimate also
    records how many replicas stayed unresolved (each counted as a miss).
    """

    log_p: float
    log_lo: float
    log_hi: float
    hits: int = 0
    unresolved: int = 0

    def __post_init__(self):
        if not (self.log_lo <= self.log_p <= self.log_hi or math.isnan(self.log_p)):
            raise ValueError("bracket must contain the point value")


def domination_constant(model: GafModel, r: float, m: int) -> float:
    """Smallest C with sum_{n>m} g(n) sigma_n r^n <= C g(m) m-th weight.

    The growth factor g is n for the planar scaling and sqrt(n) for the
    hyperbolic one, matching the tail caps of the corresponding events: the
    sum is ``_log_sup`` of the event's own upper-tail block.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    g = 0.5 if model.kind is Kind.HYPERBOLIC else 1.0
    log_tail = _log_sup([_growth_tail(m, g)], model, r, 0.0)[0]
    log_scale = g * math.log(m) + float(log_weight(model, m, r))
    try:
        return math.exp(log_tail - log_scale)
    except OverflowError:
        raise EventConstructionError(f"domination constant exp({log_tail - log_scale:.6g}) "
                                     "overflows a float") from None


def _growth_tail(m: int, g: float) -> IndexBlock:
    """The upper-tail caps |a_n| <= n^g for n > m of the fixed-disk kinds (g = 1 or 1/2)."""
    return IndexBlock("upper-tail", m + 1, None, "le", _power_log(g),
                      f"|a_n| <= {'n' if g == 1.0 else 'sqrt(n)'} for n > m")


def check_event_domain(kind: EventKind, model: GafModel | None, *, r: float,
                       m: int | None = None, alpha: float | None = None,
                       gamma: float | None = None) -> None:
    """Raise ValueError where the parameters lie outside the domain of ``kind``.

    The one statement of each kind's domain: ``build_event`` checks it first
    (``model`` is its default planar model for every kind but the
    hyperbolic one), and the ``event-bound`` experiment reports a breach as
    a config error.
    """
    if kind is EventKind.PLANAR_DOMINATION:
        if model.kind is not Kind.PLANAR or m is None or m < 1:
            raise ValueError("planar domination needs a planar model and m >= 1")
    elif kind is EventKind.HYPERBOLIC_DOMINATION:
        if model is None or model.kind is not Kind.HYPERBOLIC:
            raise ValueError("hyperbolic domination needs a hyperbolic model")
        if not 0 < r < 1 or m is None or m < 1:
            raise ValueError("need 0 < r < 1 and m >= 1")
    elif kind is EventKind.VERY_LARGE_DOMINATION:
        if model.kind is not Kind.PLANAR:
            raise ValueError("very-large regime needs a planar model")
        if alpha is None or gamma is None or not (alpha > 2 and gamma > 0 and r > 1):
            raise ValueError("very-large regime needs alpha > 2, gamma > 0, r > 1")
    elif kind is EventKind.MODERATE_GROUPED:
        if model.kind is not Kind.PLANAR:
            raise ValueError("moderate regime needs a planar model")
        if alpha is None or gamma is None or not (1 < alpha < 2 and gamma > 0 and r > 0):
            raise ValueError("moderate regime needs 1 < alpha < 2, gamma > 0, r > 0")


def build_event(kind: EventKind, model: GafModel | None = None, *, r: float,
                m: int | None = None, alpha: float | None = None,
                gamma: float | None = None, anchor_alpha: float | None = None) -> EventSpec:
    """Assemble a fully concrete event of the requested kind.

    Thresholds round conservatively (toward a smaller event) and each builder
    verifies the domination budget it needs, so occurrence of the returned
    event forces at least m zeros in the disk of radius r.  ``anchor_alpha``
    overrides the computed domination constant in the anchor threshold of the
    two fixed-disk kinds; validity is then up to ``verify_domination``.

    The moderate kind keeps the paper's geometry (window, width-p bands, far
    tail) and multiplies every band cap 2^k/M by one scale beta.  Its anchor
    floor is the certified sup budget, 4 window units + far tail + beta times
    the band units, times (1 + 2e-9); beta maximises the exact price, which is
    concave in log beta.  Both are recorded as ``params["band_scale"]`` and
    ``params["anchor"]``.
    """
    if model is None and kind is not EventKind.HYPERBOLIC_DOMINATION:
        model = GafModel.planar()
    check_event_domain(kind, model, r=r, m=m, alpha=alpha, gamma=gamma)
    if kind in (EventKind.PLANAR_DOMINATION, EventKind.HYPERBOLIC_DOMINATION):
        planar = kind is EventKind.PLANAR_DOMINATION
        # growth g of the tail caps |a_n| <= n^g, as in domination_constant;
        # the caps below the anchor sit at m^(g-1) of the anchor weight
        g = 1.0 if planar else 0.5
        c = domination_constant(model, r, m)
        a = c if anchor_alpha is None else anchor_alpha
        anchor = (a + 1.0) * (m if planar else math.sqrt(m))
        return _single_anchor_event(
            kind, model, r, m, (g - 1.0) * math.log(m),
            "keeping each lower term under the anchor weight" if planar
            else "at 1/sqrt(m) of the anchor weight", _growth_tail(m, g),
            {"domination_constant": c, "anchor": anchor, "anchor_alpha": a})

    if kind is EventKind.VERY_LARGE_DOMINATION:
        mm = math.ceil(r * r + gamma * r ** alpha)
        bulge = gamma * r ** alpha
        # upper-tail caps |a_{m+k}| <= k: nearly free in probability and the
        # weighted tail budget sum_k k w_{m+k}/w_m stays O(r/sqrt(m))
        upper = IndexBlock("upper-tail", mm + 1, None, "le", _shifted_log(mm),
                           "|a_n| <= n - m for n > m")
        budget = math.exp(_log_sup([upper], model, r, float(log_weight(model, mm, r)))[0])
        anchor = float(mm)
        if bulge + budget >= anchor:
            anchor = (bulge + budget) * (1.0 + 1e-9)
        return _single_anchor_event(
            kind, model, r, mm, math.log(bulge / mm),
            "at (gamma r^alpha / m) of the anchor weight", upper,
            {"alpha": alpha, "gamma": gamma, "anchor": anchor,
             "tail_budget": budget, "bulge": bulge})

    if kind is EventKind.MODERATE_GROUPED:
        mm = math.ceil(r * r + gamma * r ** alpha)
        big_m = math.floor(r * r - gamma * r ** alpha)
        if big_m < 1 or big_m + 2 > mm:
            raise EventConstructionError("r too small: grouped construction needs "
                                         "a nonempty window on each side of r^2")
        c_const = math.log(4.0) / gamma          # smallest C with e^{-gamma C} <= 1/4
        p = math.ceil(2.0 * c_const * r ** (2.0 - alpha))
        far_start = math.floor(2.0 * r * r) + 1
        # bands (lo, hi, k): the k-th width-p band on either side of the
        # window, capped at beta 2^k/M, the paper's cap times one scale beta
        below = [(max(0, big_m - k * p + 1), big_m - (k - 1) * p, k)
                 for k in range(1, math.ceil(big_m / p) + 1)]
        above = []
        k = 1
        while mm + max(1, (k - 1) * p) < far_start:
            lo, hi = mm + max(1, (k - 1) * p), min(mm + k * p - 1, far_start - 1)
            if lo <= hi:
                above.append((lo, hi, k))
            k += 1
        far = IndexBlock("far-tail", far_start, None, "le",
                         _shifted_log(2.0 * r * r),
                         "|a_n| <= n - 2 r^2 far beyond the anchor")
        # The sup budget in anchor-weight units is 4 (window) + far tail
        # + beta * (band caps at beta = 1); the anchor floor is that budget
        # times a margin above the budget check's slack.
        # every band's log cap at beta = 1, once per band and once per index
        widths = np.array([hi - lo + 1 for lo, hi, _ in below + above])
        log_q_band = np.array([k * _num.LOG2 - math.log(big_m) for _, _, k in below + above])
        log_q = np.repeat(log_q_band, widths)
        n_band = np.concatenate([np.arange(lo, hi + 1) for lo, hi, _ in below + above])
        lw_m = float(log_weight(model, mm, r))
        band_units = float(np.exp(log_q + log_weight(model, n_band, r) - lw_m).sum())
        far_units = math.exp(_log_sup([far], model, r, lw_m)[0])
        fixed_units = 4.0 + far_units
        margin = 1.0 + _ANCHOR_MARGIN

        def anchor_at(log_beta):
            return (fixed_units + math.exp(log_beta) * band_units) * margin

        def price(log_beta):
            # the beta-dependent part of the exact price: bands, anchor; each
            # band's cap is priced once and counted once per index
            caps_lp = _num.log_bernoulli_le(2.0 * (log_beta + log_q_band))
            bands_lp = float(np.sum(np.repeat(caps_lp, widths)))
            return bands_lp - anchor_at(log_beta) ** 2

        # beta is the unique maximiser of the exact price, which is concave in
        # log beta.  With N band indices and g(x) = 2x/(e^x - 1) in [2 - x, 2],
        # the derivative sum_n g(beta^2 q_n^2) - 2 s^2 (fixed + beta band)
        # beta band (s the margin) is positive below the root of
        # (2 s^2 band^2 + sum q_n^2) beta^2 + 2 s^2 fixed band beta = 2N
        # and negative above N / (4 band), which brackets the maximiser.
        # The root is taken in log space: sum q_n^2 overflows from r = 150.
        n_idx = len(log_q)
        log_quad = np.logaddexp(math.log(2.0 * margin ** 2) + 2.0 * math.log(band_units),
                                _num.logsumexp(2.0 * log_q))
        log_lin = math.log(2.0 * margin ** 2 * fixed_units * band_units)
        log_beta_lo = math.log(4.0 * n_idx) - float(np.logaddexp(log_lin, 0.5 * np.logaddexp(
            2.0 * log_lin, math.log(8.0 * n_idx) + log_quad)))
        log_beta_hi = math.log(n_idx / (4.0 * band_units))
        log_beta, _ = _num.golden_max(price, log_beta_lo, log_beta_hi, 1e-9)
        beta = math.exp(log_beta)
        anchor = anchor_at(log_beta)

        def band_blocks(bands, side, where):
            return [IndexBlock(f"decay-{side}-{k}", lo, hi, "le",
                               _const_log(log_beta + k * _num.LOG2 - math.log(big_m)),
                               f"|a_n| <= beta 2^{k}/{big_m} on the {k}-th width-{p} "
                               f"band {where}, beta = {beta:.6g}")
                    for lo, hi, k in bands]

        blocks = [*band_blocks(below, "below", "below the window"),
                  IndexBlock("anchor", mm, mm, "ge", _const_log(math.log(anchor)),
                             f"|a_{mm}| >= {anchor:.6g}, the certified sup budget"
                             f" {anchor / margin:.6g} times (1 + {_ANCHOR_MARGIN:g})"),
                  *band_blocks(above, "above", "above the anchor"),
                  far]
        aggregate = AggregateBlock(
            "window", big_m + 1, mm - 1,
            math.log(16.0) + 2 * mm * math.log(r) - r * r - float(special.gammaln(mm + 1)),
            "sum of |a_n|^2 over the window capped so the windowed series stays"
            " under 4x the anchor weight")
        ev = EventSpec(kind, model, r, mm, blocks, aggregate,
                       {"alpha": alpha, "gamma": gamma, "window_lo": big_m,
                        "band_width": p, "decay_constant": c_const,
                        "far_start": far_start, "band_scale": beta,
                        "anchor": anchor})
        _check_moderate_budget(ev, far_units)
        return ev

    raise ValueError(f"unknown event kind {kind}")


def _single_anchor_event(kind: EventKind, model: GafModel, r: float, m: int,
                         log_cap: float, cap_rule: str, upper: IndexBlock,
                         params: dict) -> EventSpec:
    """Caps below the anchor index m, the floor |a_m| >= params["anchor"], and ``upper``.

    The cap on a_n, n < m, is exp(log_cap) times the m-th weight over the
    n-th weight, so each lower term stays under exp(log_cap) anchor weights.
    """
    lw_m = float(log_weight(model, m, r))

    def log_cap_at(n):
        return log_cap + lw_m - log_weight(model, n, r)

    anchor = params["anchor"]
    blocks = [IndexBlock("below-anchor", 0, m - 1, "le", log_cap_at, f"per-index cap {cap_rule}"),
              IndexBlock("anchor", m, m, "ge", _const_log(math.log(anchor)),
                         f"|a_{m}| >= {anchor:.6g}"),
              upper]
    return EventSpec(kind, model, r, m, blocks, None, params)


def _const_log(v: float):
    def log_c(n):
        return np.full(np.shape(n), v, dtype=float)
    return log_c


def _power_log(g: float):
    def log_c(n):
        return g * np.log(np.asarray(n, dtype=float))
    return log_c


def _shifted_log(shift: float):
    def log_c(n):
        return np.log(np.asarray(n, dtype=float) - shift)
    return log_c


# Relative margin of the moderate anchor floor over its certified sup budget;
# it must exceed the 1e-9 slack of ``_check_moderate_budget``.
_ANCHOR_MARGIN = 2e-9


def _log_sup(blocks: list[IndexBlock], model: GafModel, r: float, lw_ref: float,
             lo: int | None = None) -> list[float]:
    """log sum_n c_n w_n / w_ref over each 'le' block's indices from ``lo`` on.

    One ``np.logaddexp.reduceat`` reduces every bounded block in index order,
    keeping the bits of reducing it alone; a block with no index left gives
    -inf (reduceat would give its start term).  An unbounded one is a certified series.
    """
    out = [-math.inf] * len(blocks)
    starts = [b.lo if lo is None else max(b.lo, lo) for b in blocks]
    bounded = [i for i, b in enumerate(blocks) if b.hi is not None and starts[i] <= b.hi]
    if bounded:
        n = [np.arange(starts[i], blocks[i].hi + 1) for i in bounded]
        caps = np.concatenate([blocks[i].log_threshold(k) for i, k in zip(bounded, n)])
        sums = np.logaddexp.reduceat((caps + log_weight(model, np.concatenate(n), r)) - lw_ref,
                                     np.cumsum([0] + [len(k) for k in n[:-1]]))
        for i, v in zip(bounded, sums.tolist()):
            out[i] = v
    for i, b in enumerate(blocks):
        if b.hi is None:
            th = b.log_threshold
            out[i] = _num.certified_log_series(
                lambda n: th(n) + log_weight(model, n, r) - lw_ref, starts[i],
                lambda n: math.exp(float(th(np.array([n + 1]))[0] - th(np.array([n]))[0]))
                * weight_ratio_bound(model, n, r), rel_tol=1e-14)
    return out


def _check_moderate_budget(ev: EventSpec, far_units: float):
    """Exact sup-side budget for the grouped event, in anchor-weight units.

    The band caps (``_log_sup`` of the bounded 'le' blocks), the windowed
    aggregate (4 units by construction) and the far tail, ``far_units`` as
    the builder summed it, must sum below the anchor floor
    ``params["anchor"]``; the sum is stored as ``params["sup_budget"]``.
    """
    bands = [b for b in ev.blocks if b.mode == "le" and b.hi is not None]
    log_units = _log_sup(bands, ev.model, ev.r, float(log_weight(ev.model, ev.m, ev.r)))
    total = 4.0 + (sum(math.exp(u) for u in log_units) + far_units)
    anchor = ev.params["anchor"]
    if not total < anchor * (1.0 - 1e-9):
        raise EventConstructionError(
            f"grouped budget {total:.6g} does not clear the anchor floor {anchor:.6g}")
    ev.params["sup_budget"] = total


def event_tail_sup_bound(ev: EventSpec, n_max: int) -> float:
    """The log of a deterministic bound on the discarded weighted tail past n_max.

    Under the event, sum_{n > n_max} |a_n| sigma_n r^n is at most the sum of
    the caps times the weights, summed in log units so that it stays finite
    at every radius; this is the log floor that certifies counts of truncated
    conditioned samples.
    """
    return float(np.logaddexp.reduce(_log_sup([b for b in ev.blocks if b.mode == "le"],
                                              ev.model, ev.r, 0.0, lo=n_max + 1)))


def _le_log_probs(blocks: list[IndexBlock]):
    """Exact and closed-form-bound log probabilities of 'le' blocks, in order.

    One ``log_bernoulli_le`` prices the thresholds of every block, an
    unbounded one's up to its cut (``IndexBlock``), read in index blocks of
    64, 128, ... within 10**6 + 1 indices.  Each block sums its own slice,
    keeping the bits of being priced alone: a bounded one by ``np.sum``, an
    unbounded one in index order with the bound log(1 - sum e^{-c^2}).
    """
    t2 = []
    for b in blocks:
        if b.hi is not None:
            t2.append(2.0 * np.asarray(b.log_threshold(np.arange(b.lo, b.hi + 1)), dtype=float))
            continue
        t, n, size = np.empty(0), b.lo, 64
        while not (t > 4.06).any():
            if n > b.lo + 10**6:
                raise RuntimeError("unbounded block does not decay")
            k = np.arange(n, min(n + size, b.lo + 10**6 + 1))
            t = np.concatenate((t, 2.0 * np.asarray(b.log_threshold(k), dtype=float)))
            n, size = n + size, 2 * size
        t2.append(t[:np.argmax(t > 4.06)])
    ends = np.cumsum([0] + [len(t) for t in t2]).tolist()
    t2 = np.concatenate([np.empty(0), *t2])
    vals = _num.log_bernoulli_le(t2)
    bound = np.where(t2 < 0.0, t2 - math.log(2.0), vals)
    out = []
    for b, a, z in zip(blocks, ends[:-1], ends[1:]):
        if b.hi is not None:
            out.append((float(np.sum(vals[a:z])), float(np.sum(bound[a:z]))))
            continue
        total = lik = 0.0
        for v, x in zip(vals[a:z].tolist(), t2[a:z].tolist()):
            total += v
            lik += math.exp(-math.exp(x))
        out.append((total, math.log1p(-lik) if lik < 1.0 else total))
    return out


def event_log_prob_detail(ev: EventSpec) -> EventLogProb:
    """Exact log probability of the event, with the closed-form comparison.

    Per-index caps price as products of exponential CDFs, floors as
    exponential tails, and the aggregate as the Gamma CDF evaluated by the
    small-argument log series.  The bound form swaps in the halved-argument
    bounds used in asymptotic work wherever those are valid.
    """
    by_block = {}
    total = 0.0
    bound_total = 0.0
    le_probs = iter(_le_log_probs([b for b in ev.blocks if b.mode == "le"]))
    for b in ev.blocks:
        if b.mode == "ge":
            c2 = math.exp(2.0 * float(b.log_threshold(np.array([b.lo]))[0]))
            exact = bound = -c2
        else:
            exact, bound = next(le_probs)
        by_block[b.label] = exact
        total += exact
        bound_total += bound
    if ev.aggregate is not None:
        k = ev.aggregate.size
        log_s = ev.aggregate.log_bound
        exact = _num.log_lower_gamma_cdf(k, log_s)
        s = math.exp(min(log_s, 700.0))
        if s <= k:
            bound = k * (log_s - math.log(2.0)) - float(special.gammaln(k)) - s / 2.0
        else:
            bound = exact
        by_block[ev.aggregate.label] = exact
        total += exact
        bound_total += bound
    return EventLogProb(total=total, bound_form=bound_total, by_block=by_block)


def conditioned_sample(ev: EventSpec, rng: np.random.Generator,
                       n_max: int | None = None) -> np.ndarray:
    """Draw a_0..a_{n_max} from the exact conditional law given the event.

    Magnitudes invert the constrained exponential (or Gamma-total) CDFs,
    phases stay uniform; unconstrained indices are plain complex normals.
    """
    structural = ev.structural_max_index
    if n_max is None:
        n_max = max(structural + 8, choose_truncation(ev.model, ev.r))
    if n_max < structural:
        raise ValueError(f"n_max must cover the structural indices (>= {structural})")

    sq = np.empty(n_max + 1)
    sq[:] = np.nan
    for b in ev.blocks:
        n = b.indices_upto(n_max)
        if len(n) == 0:
            continue
        u = rng.random(len(n))
        t2 = 2.0 * np.asarray(b.log_threshold(n), dtype=float)
        if b.mode == "le":
            with np.errstate(over="ignore", under="ignore"):
                c2 = np.exp(t2)
            tiny = t2 < -35.0
            w = np.where(tiny, np.exp(np.minimum(t2, 0.0)), -np.expm1(-np.minimum(c2, 700.0)))
            vals = np.where(tiny, u * w, -np.log1p(-u * w))
        else:
            vals = np.exp(t2) + rng.standard_exponential(len(n))
        sq[n] = vals
    if ev.aggregate is not None:
        agg = ev.aggregate
        total = _num.inverse_conditional_gamma(agg.size, agg.log_bound, float(rng.random()))
        if agg.size == 1:
            parts = np.array([total])
        else:
            cuts = np.sort(rng.random(agg.size - 1))
            parts = np.diff(np.concatenate(([0.0], cuts, [1.0]))) * total
        sq[agg.lo: agg.hi + 1] = parts

    free = np.isnan(sq)
    values = np.empty(n_max + 1, dtype=complex)
    k = int(free.sum())
    values[free] = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * math.sqrt(0.5)
    constrained = ~free
    phases = rng.random(int(constrained.sum())) * 2.0 * math.pi
    values[constrained] = np.sqrt(sq[constrained]) * np.exp(1j * phases)
    return values


def sample_satisfies(ev: EventSpec, coeffs: np.ndarray) -> bool:
    """Check every constraint of the event against a coefficient vector, to 1e-9 relative."""
    slack = 1e-9
    v = np.abs(coeffs)
    n_max = len(coeffs) - 1
    for b in ev.blocks:
        n = b.indices_upto(n_max)
        if len(n) == 0:
            continue
        with np.errstate(over="ignore"):
            c = np.exp(np.asarray(b.log_threshold(n), dtype=float))
        if b.mode == "le":
            if np.any(v[n] > c * (1.0 + slack)):
                return False
        else:
            if np.any(v[n] < c * (1.0 - slack)):
                return False
    if ev.aggregate is not None:
        agg = ev.aggregate
        if agg.hi > n_max:
            return False
        tot = float(np.sum(v[agg.lo: agg.hi + 1] ** 2))
        if tot > math.exp(agg.log_bound) * (1.0 + slack):
            return False
    return True


def verify_domination(ev: EventSpec, coeffs: np.ndarray) -> bool:
    """Whether the anchor term provably dominates the rest of the series on |z| = r.

    The sample must satisfy the event (checked).  True is a proof for the
    truncated polynomial plus the event's tail bound: in log form, the anchor
    term log |a_m| + log w_m at r, less 1e-9 of itself, exceeds
    ``max_modulus`` of the other terms plus ``event_tail_sup_bound``.  False
    means no proof, not a refutation.
    """
    if not sample_satisfies(ev, coeffs):
        raise ValueError("sample does not satisfy the event")
    gaf = TruncatedGaf(ev.model, coeffs, ev.r)
    if ev.m > gaf.degree or coeffs[ev.m] == 0:
        return False
    log_anchor = math.log(abs(coeffs[ev.m]) * (1.0 - 1e-9)) + float(
        log_weight(ev.model, ev.m, ev.r))
    others = np.arange(gaf.degree + 1) != ev.m  # the weight that drops the anchor term
    rest = np.logaddexp(max_modulus(gaf, ev.r, others), event_tail_sup_bound(ev, gaf.degree))
    return bool(log_anchor > rest)


def certified_event_count(ev: EventSpec, draws) -> list:
    """Certified zero counts in |z| < r of conditioned samples, floored by the event tail.

    Each draw's log floor is ``event_tail_sup_bound`` past its degree, read
    once per degree, and all draws are counted by one ``certified_counts``
    call.  Returns its list: a CountResult or an InconclusiveCount per draw.
    """
    gafs = [TruncatedGaf(ev.model, coeffs, ev.r) for coeffs in draws]
    floors = {d: event_tail_sup_bound(ev, d) for d in {gaf.degree for gaf in gafs}}
    return certified_counts([(gaf, ev.r, floors[gaf.degree]) for gaf in gafs])


# Radial trials per RNG stream of ``direct_mc_tail``.
_MC_CHUNK = 65536


def mc_tail_estimate(hits: int, trials: int, level: float, *,
                     unresolved: int = 0) -> TailEstimate:
    """Monte Carlo tail estimate from ``hits`` of ``trials``, with the exact CP bracket."""
    a = 1.0 - level
    # the Beta quantiles of the Clopper-Pearson ends, as scipy.stats.beta.ppf
    # computes them
    lo = special.betaincinv(hits, trials - hits + 1, a / 2.0) if hits > 0 else 0.0
    hi = special.betaincinv(hits + 1, trials - hits, 1.0 - a / 2.0) if hits < trials else 1.0
    with np.errstate(divide="ignore"):
        log_lo, log_hi = float(np.log(lo)), float(np.log(hi))
        log_p = float(np.log(hits / trials))
    return TailEstimate(log_p=log_p, log_lo=log_lo, log_hi=log_hi, hits=hits,
                        unresolved=unresolved)


def direct_mc_tail(target, r: float, m: int, trials: int, seed: int, *,
                   level: float = 0.99) -> TailEstimate:
    """Monte Carlo estimate of P[count in D(0,r) >= m] for a radial ensemble, with CP bracket.

    Counts come from the exact radial laws of the RadialEnsemble ``target``:
    the first ``bernoulli_probs(target, r, min_terms=m + 8).size`` radii of
    each trial, drawn ``_MC_CHUNK`` trials per stream.  A GAF tail is
    ``mc_tail_estimate`` of certified ``zeros.count_replicas`` counts, as the
    mc-tail experiment takes it.
    """
    if not isinstance(target, RadialEnsemble):
        raise TypeError("target must be a RadialEnsemble")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    depth = _profile_depth(target, r, 1e-9, m + 8)
    hits = 0
    for block in range((trials + _MC_CHUNK - 1) // _MC_CHUNK):
        take = min(_MC_CHUNK, trials - block * _MC_CHUNK)
        counts = (sample_radii(target, stream(seed, block), take, depth) < r).sum(axis=1)
        hits += int((counts >= m).sum())
    return mc_tail_estimate(hits, trials, level)


@dataclass(frozen=True)
class FitResult:
    coefficients: tuple
    max_rel_residual: float
    basis: str


# The m-bases of ``exponent_fit``: -log P as c1 m^2 log m + c2 m^2, or c1 m^2 log m.
FIT_BASES = {
    "m2logm+m2": lambda x: np.column_stack([x * x * np.log(x), x * x]),
    "m2logm": lambda x: (x * x * np.log(x))[:, None],
}


def exponent_fit(points, basis: str) -> FitResult:
    """Least squares fit of (m, neg_log_p) pairs on one of the ``FIT_BASES``."""
    if basis not in FIT_BASES:
        raise ValueError(f"unknown basis {basis!r}; choose from {sorted(FIT_BASES)}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise ValueError("need at least 3 (x, value) points")
    x, y = pts[:, 0], pts[:, 1]
    if len(np.unique(x)) != len(x):
        raise ValueError("abscissae must be distinct")
    design = FIT_BASES[basis](x)
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise ValueError("rank-deficient design")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = design @ coef - y
    rel = float(np.max(np.abs(resid) / np.maximum(np.abs(y), 1e-300)))
    return FitResult(coefficients=tuple(float(c) for c in coef),
                     max_rel_residual=rel, basis=basis)
