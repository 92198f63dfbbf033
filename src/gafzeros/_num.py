"""Log-space numeric kernels shared across the package.

Everything here works on log-scale quantities so that probabilities down to
e^{-1e6} and beyond stay representable.  No routine in this module ever
materializes such a probability linearly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

LOG2 = math.log(2.0)
# The least radius r whose r*r is a normal float (2^-511, about 1.49e-154).
# Below it r*r loses bits or underflows to 0, and a log of r^2 or a division
# by it fails.
MIN_RADIUS = 2.0 ** -511


def check_radius(r):
    """ValueError unless r >= MIN_RADIUS, the domain check every model and ensemble shares."""
    if not r > 0:
        raise ValueError("radius must be positive")
    if r < MIN_RADIUS:
        raise ValueError(f"radius must be >= {MIN_RADIUS:.6g} = 2^-511, "
                         f"where r*r is a normal float")


def log1mexp(x):
    """log(1 - exp(-x)) for x > 0, stable near both ends.

    Uses log(-expm1(-x)) for x <= log 2 and log1p(-exp(-x)) above, the
    standard split point.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.log(-np.expm1(-x))
        large = np.log1p(-np.exp(-x))
    out = np.where(x <= LOG2, small, large)
    return float(out) if out.ndim == 0 else out


def log_bernoulli_le(log_c_squared):
    """log P[Exp(1) <= c^2] given log(c^2), exact across the full range.

    For log(c^2) below -40 the linear value 1 - e^{-c^2} equals c^2 to
    machine precision, so the log is taken directly.
    """
    t = np.asarray(log_c_squared, dtype=float)
    with np.errstate(over="ignore"):
        x = np.exp(t)
    out = np.where(t < -40.0, t, log1mexp(np.maximum(x, 1e-300)))
    return float(out) if out.ndim == 0 else out


def logsumexp(a):
    """log(sum(exp(a))) of a real 1-D array, bit-for-bit equal to scipy's logsumexp.

    scipy 1.17's steps without its array-API dispatch: the m entries tied at
    the maximum are taken out of the shifted sum s, the result is
    log1p(s/m) + log m + max, and a non-finite result falls back to the
    direct log(sum(exp(a))).  An empty array gives -inf; any other is one
    row of ``logsumexp_rows``, which takes these steps.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -math.inf
    return float(logsumexp_rows(a.reshape(1, -1), [a.size])[0])


def logsumexp_rows(a, sizes):
    """``logsumexp(a[i, :sizes[i]])`` for every row i of a 2-D array, sizes >= 1.

    Entries past a row's size are ignored.  The steps of ``logsumexp`` run
    over all rows at once, but for the shifted sum, which is taken of each
    row's own slice: numpy's pairwise summation rounds by length, so a sum
    over the padded row would move the last bits.
    """
    a = np.asarray(a, dtype=float)
    sizes = np.asarray(sizes)
    valid = np.arange(a.shape[1]) < sizes[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = np.where(valid, a, -np.inf)
        a_max = a.max(axis=1)
        ties = (a == a_max[:, None]) & valid
        m = np.count_nonzero(ties, axis=1).astype(float)
        shifted = np.exp(np.where(ties, -np.inf, a) - a_max[:, None])
        s = np.array([row[:k].sum() for row, k in zip(shifted, sizes.tolist())])
        s = np.where(s != 0, s / m, s)
        out = np.log1p(s) + np.log(m) + a_max
        for i in np.flatnonzero(~np.isfinite(out)):
            out[i] = np.log(np.exp(a[i, :sizes[i]]).sum())
    return out


def horner(rows, x):
    """sum_k rows[k] x^k by Horner's rule, bit-for-bit equal to numpy's polyval.

    ``rows`` is a coefficient vector, or a (degree+1, n) matrix whose columns
    are evaluated at the matching entries of a length-n ``x``.  Each step is
    polyval's ``acc * x + rows[k]`` in the same order, written into two
    preallocated buffers instead of two fresh arrays.  The product never
    writes onto one of its own inputs: for one-element and 0-d arrays, numpy
    on AVX-512 then takes a non-SIMD complex-multiply loop, which rounds
    differently from polyval's fresh-output product.
    """
    acc = np.asarray(rows[-1] + x * 0)
    prod = np.empty_like(acc)
    for k in range(len(rows) - 2, -1, -1):
        np.multiply(acc, x, out=prod)
        np.add(prod, rows[k], out=acc)
    return acc


def lchoose(n, k):
    """log of the binomial coefficient, via log-gamma."""
    return special.gammaln(n + 1) - special.gammaln(k + 1) - special.gammaln(n - k + 1)


def log_gamma_lower(a, x, log_x):
    """log P(a, x) = log P[Gamma(a, 1) <= x], the regularized lower incomplete gamma.

    Vectorised in ``a`` >= 0 (a scalar ``a`` gives a float); for integer a it
    is also log P[Poisson(x) >= a].  Both x and its log are taken, so neither
    is rounded through the other: x may underflow to 0 while log x stays
    exact.  Where scipy's ``gammainc`` is above 1e-280 this is its log; below,
    the deep tail is the series a log x - x - log Gamma(a + 1) + log sum_j t_j
    with t_0 = 1 and t_j = t_{j-1} x/(a + j), summed until a term falls below
    1e-17 of the sum.  A series not settled within 10 000 terms raises.
    """
    lin = special.gammainc(a, x)
    if lin.ndim == 0:
        # not the array path below: 2 us a scalar call against 14 us there
        # (2-vCPU Xeon), and an exact-tails pass makes about 1030 of them
        if not a >= 0:
            raise ValueError("a must be >= 0")
        return float(np.log(lin)) if lin > 1e-280 else _log_gamma_lower_series(a, x, log_x)
    a = np.asarray(a)
    if not (a >= 0).all():
        raise ValueError("a must be >= 0")
    deep = ~(lin > 1e-280)
    out = np.log(np.where(deep, 1.0, lin))
    for i in np.flatnonzero(deep).tolist():
        out[i] = _log_gamma_lower_series(float(a[i]), x, log_x)
    return out


def _log_gamma_lower_series(a, x, log_x):
    """The deep-tail series of ``log_gamma_lower`` at one scalar a."""
    s, term = 1.0, 1.0
    for j in range(1, 10_000):
        term *= x / (a + j)
        s += term
        if term < 1e-17 * s:
            return a * log_x - x - float(special.gammaln(a + 1)) + math.log(s)
    raise RuntimeError("incomplete-gamma series not settled within 10 000 terms")


def inverse_conditional_gamma(shape, log_s, u):
    """log y of the quantile y of Gamma(shape, 1) conditioned on being <= s, at probability u.

    Solves log F(y) = log u + log F(s) by Newton iteration in t = log y, given
    log s, so s and y may lie below the smallest double.  The iteration stops
    once a step is below 1e-13 of max(1, |t|), within 100 steps or it raises
    RuntimeError.  Exact conditional law; used by the conditioned coefficient
    sampler.
    """
    if not 0.0 < u < 1.0:
        raise ValueError("u must be in (0,1)")
    log_norm = float(special.gammaln(shape))
    target = math.log(u) + log_gamma_lower(shape, math.exp(min(log_s, 700.0)), log_s)
    # F(y) ~ y^shape / Gamma(shape+1) for small y gives the starting point
    t = (target + float(special.gammaln(shape + 1))) / shape
    t = min(t, log_s)
    for _ in range(100):
        y = math.exp(t)
        lf = log_gamma_lower(shape, y, t)
        # d log F / dt = y f(y) / F(y), with log(y f(y)) = shape t - y - log Gamma(shape)
        dlf = math.exp(shape * t - y - log_norm - lf)
        step = (lf - target) / max(dlf, 1e-300)
        step = max(min(step, 2.0), -2.0)
        t -= step
        if abs(step) < 1e-13 * max(1.0, abs(t)):
            return t
    raise RuntimeError("conditional Gamma quantile not settled within 100 steps")


def golden_max(f, lo, hi, tol):
    """(x, f(x)) at the maximiser x of a unimodal f on [lo, hi], by golden section to tol."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def certified_log_series(log_terms, start, ratio_bound, *, rel_tol):
    """log of sum_{n >= start} exp(log_terms(n)) with a certified remainder.

    ``log_terms`` maps an index array to its log terms, and ``ratio_bound(n)``
    must upper-bound the term ratio exp(log_terms(k+1) - log_terms(k)) for
    every k >= n.  The terms are taken in index blocks of 64, 128, 256, ...
    from ``start``, and ``ratio_bound`` is called at each block's last index.
    Where that bound q is below 1, the rest of the series is at most
    t q/(1-q) past the block's last term t; once that is below rel_tol of the
    logsumexp of every term so far, it is folded in.  Each term is summed
    once relative to the largest, so no small term is lost to a running sum,
    and the return value is an upper bound on the true log-sum within rel_tol
    of it.  Past 10**6 terms the series is taken not to contract.
    """
    terms = np.empty(0)
    n, size = start, 64
    while n - start < 10**6:
        terms = np.concatenate((terms, log_terms(np.arange(n, n + size))))
        n, size = n + size, 2 * size
        q = ratio_bound(n - 1)
        if q < 1.0:
            total = logsumexp(terms)
            rem = terms[-1] + math.log(q) - math.log1p(-q)
            if rem < total + math.log(rel_tol):
                return float(np.logaddexp(total, rem))
    raise RuntimeError("series does not contract")
