"""Closed-form evaluators for the overcrowding and deviation exponents.

Each regime tag names one displayed rate; ``predicted_exponent`` returns the
negated log-probability scale for that regime at the supplied parameters.
The Ginibre bracket pair and the disk Poisson-kernel constants live here too.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from . import _num
from .radial import TailBracket


class ExponentRegime(Enum):
    """The displayed rates that ``predicted_exponent`` evaluates.

    Every regime but one is the scale of one event kind in the
    ``event-bound`` experiment.  HYPERBOLIC_UPPER_KAPPA has no reader yet: it
    is the kappa-scale surrogate that a certified hyperbolic upper bound is
    to be compared with.
    """

    # overcrowding a fixed disk, planar model: (1/2) m^2 log m
    PLANAR_OVERCROWD = "planar-overcrowd"
    # hyperbolic lower bound realized by the constructive event: m(m+1) |log r|
    HYPERBOLIC_LOWER_CONSTRUCTIVE = "hyperbolic-lower-constructive"
    # hyperbolic upper bound surrogate: kappa(r) m^2 log^2 r
    HYPERBOLIC_UPPER_KAPPA = "hyperbolic-upper-kappa"
    # count exceeding r^2 + gamma r^alpha, alpha > 2: (alpha/2 - 1) gamma^2 r^{2 alpha} log r
    VERY_LARGE = "very-large"
    # same with 1 < alpha < 2: gamma^3 r^{3 alpha - 2}
    MODERATE = "moderate"


def poisson_tail_log_upper(theta: float, a: float) -> float:
    """log of the Chernoff-style Poisson tail bound e^{-a log(a/theta) + a - theta}.

    Bounds log P[Poisson(theta) >= a]; requires a > theta.
    """
    if not (theta > 0 and a > theta):
        raise ValueError("need a > theta > 0")
    return -a * math.log(a / theta) + a - theta


def _poisson_tail_bound_series(lam: float, n_start: int) -> float:
    """log of a certified upper bound on sum_{n >= n_start} e^{-n log(n/lam) + n - lam}.

    Term ratio is at most lam * e / (n + 1); the geometric remainder is folded
    into the first term.
    """
    q = lam * math.e / (n_start + 1)
    if not q < 1.0:
        raise ValueError("n_start too small for a certified bound")
    first = poisson_tail_log_upper(lam, float(n_start))
    return first - math.log1p(-q)


_REGIME_PARAMS = {
    ExponentRegime.PLANAR_OVERCROWD: {"m"},
    ExponentRegime.HYPERBOLIC_LOWER_CONSTRUCTIVE: {"m", "r"},
    ExponentRegime.HYPERBOLIC_UPPER_KAPPA: {"m", "r"},
    ExponentRegime.VERY_LARGE: {"alpha", "gamma", "r"},
    ExponentRegime.MODERATE: {"alpha", "gamma", "r"},
}


def predicted_exponent(regime: ExponentRegime, **params) -> float:
    """Negated log-probability scale for a regime at the given parameters.

    Rejects missing and extraneous parameters; domain checks follow the
    regime (m >= 2 wherever log m appears, r in (0,1) for hyperbolic rates,
    r > 1 where log r multiplies a positive power).
    """
    want = _REGIME_PARAMS[regime]
    got = set(params)
    if got != want:
        raise ValueError(f"{regime.value} needs parameters {sorted(want)}, got {sorted(got)}")

    def need(cond, msg):
        if not cond:
            raise ValueError(f"{regime.value}: {msg}")

    if regime is ExponentRegime.PLANAR_OVERCROWD:
        m = params["m"]
        need(m >= 2, "m must be >= 2")
        return 0.5 * m * m * math.log(m)
    if regime is ExponentRegime.HYPERBOLIC_LOWER_CONSTRUCTIVE:
        m, r = params["m"], params["r"]
        need(m >= 1 and 0 < r < 1, "m >= 1 and 0 < r < 1")
        return m * (m + 1.0) * abs(math.log(r))
    if regime is ExponentRegime.HYPERBOLIC_UPPER_KAPPA:
        m, r = params["m"], params["r"]
        need(m >= 1 and 0 < r < 1, "m >= 1 and 0 < r < 1")
        return kappa(r) * m * m * math.log(r) ** 2
    if regime is ExponentRegime.VERY_LARGE:
        a, g, r = params["alpha"], params["gamma"], params["r"]
        need(a > 2 and g > 0 and r > 1, "alpha > 2, gamma > 0, r > 1")
        return (a / 2.0 - 1.0) * g * g * r ** (2 * a) * math.log(r)
    if regime is ExponentRegime.MODERATE:
        a, g, r = params["alpha"], params["gamma"], params["r"]
        need(1 < a < 2 and g > 0 and r > 0, "1 < alpha < 2, gamma > 0, r > 0")
        return g ** 3 * r ** (3 * a - 2)
    raise AssertionError("unreachable")


def poisson_kernel_bounds(r: float, eps: float) -> tuple[float, float]:
    """(sup, inf) of the disk Poisson kernel P(re^{i theta}, w) over |w| = eps.

    Closed forms for the disk of radius r: sup = (r+eps)/(r-eps) and
    inf = (r-eps)/(r+eps); their product is 1.
    """
    if not 0 < eps < r:
        raise ValueError("need 0 < eps < r")
    return (r + eps) / (r - eps), (r - eps) / (r + eps)


def _kappa_search(r: float):
    """(maximizer, golden value, grid maximum) of B_eps^2 / |log eps| over (0, r).

    Coarse log-spaced grid to bracket the maximizer, then golden-section
    refinement of the bracketing interval to 1e-12 of the grid point.
    """
    if not 0 < r < 1:
        raise ValueError("need 0 < r < 1")

    def g(e):
        b = (r - e) / (r + e)
        return (b * b) / (-math.log(e))

    grid = np.exp(np.linspace(math.log(1e-12), math.log(r) - 1e-9, 4096))
    vals = (((r - grid) / (r + grid)) ** 2) / (-np.log(grid))
    i = int(np.clip(np.argmax(vals), 1, len(grid) - 2))
    x, best = _num.golden_max(g, grid[i - 1], grid[i + 1], 1e-12 * grid[i])
    return x, best, vals.max()


def kappa(r: float) -> float:
    """sup over eps in (0, r) of B_eps^2 / |log eps| with B_eps = (r-eps)/(r+eps)."""
    _, best, grid_best = _kappa_search(r)
    return float(max(best, grid_best))


def kappa_argmax(r: float) -> float:
    """The maximizing eps for kappa(r); exposed for diagnostics."""
    return float(_kappa_search(r)[0])


def ginibre_tail_brackets(r: float, ms) -> list[TailBracket]:
    """Analytic brackets on log P[Ginibre count in D(0,r) >= m], one per m in ``ms``.

    Lower: the product bound (r^2/2)^{m(m+1)/2} e^{-sum n log n}, valid for
    m >= r^2.  Upper: the stochastic-ordering chain, a binomial factor times
    the product over n = 1..m of bounds on P[Poisson(r^2) >= n], plus the
    certified remainder of the indices past m^2.  The bound at n is the
    Chernoff factor e^{-n log(n/r^2) - r^2 + n} for n > r^2, where it holds,
    and the trivial 1 for n <= r^2.  The n log n and Poisson-product terms
    are formed once up to max(ms); each m sums its own prefix, as a sum and
    a product over n = 1..m alone would, and the
    binomial factors, the sums with the remainders and the clamp are taken
    for every m at once.
    """
    ms = list(ms)
    if any(m < max(1.0, r * r) for m in ms):
        raise ValueError("bracket needs m >= max(1, r^2)")
    m_top = max(ms, default=1)
    lam = r * r
    n = np.arange(2, m_top + 1)
    n_log_n = (n * np.log(n)).tolist()  # fsum reads a list of floats faster
    n = np.arange(1, m_top + 1)
    product_terms = np.where(n > lam, -n * np.log(n / lam) - lam + n, 0.0)
    m = np.array(ms, dtype=int)
    main = _num.lchoose(m * m, m) + np.array([product_terms[:k].sum() for k in ms])
    log_upper = np.logaddexp(main, [_poisson_tail_bound_series(lam, k * k + 1) for k in ms])
    log_upper = np.where(log_upper > 0.0, 0.0, log_upper)
    return [TailBracket(0.5 * k * (k + 1) * math.log(r * r / 2.0)
                        - math.fsum(n_log_n[:k - 1]), hi)
            for k, hi in zip(ms, log_upper.tolist())]


def hyperbolic_one_tail_brackets(r: float, ms) -> list[TailBracket]:
    """Analytic brackets on log P[hyperbolic index-one count in D(0,r) >= m], one per m in ``ms``.

    With p_n = r^{2n}, lower: the first m indices all inside, r^{m(m+1)}.
    Upper: some m of the first m^2 indices inside, each such set costing at
    most r^{m(m+1)}, plus any index past m^2 inside, r^{2(m^2+1)}/(1-r^2).
    The upper end is not clamped at 0.  Every m is priced at once, with the
    bits of the same formula at one m.
    """
    ms = list(ms)
    if not 0 < r < 1 or any(m < 0 for m in ms):
        raise ValueError("bracket needs 0 < r < 1 and m >= 0")
    m = np.array(ms, dtype=int)
    log_r = math.log(r)
    log_lower = m * (m + 1) * log_r
    log_upper = np.logaddexp(_num.lchoose(m * m, m) + log_lower,
                             (2 * m * m + 2) * log_r - math.log1p(-r * r))
    return [TailBracket(lo, hi) for lo, hi in zip(log_lower.tolist(), log_upper.tolist())]
