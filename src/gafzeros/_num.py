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


def log_poisson_tail(lam, n):
    """log P[Poisson(lam) >= n].

    The bulk is the regularized lower incomplete gamma identity
    P[Pois(lam) >= n] = P(n, lam); the deep tail (where that underflows)
    is summed as a log-scale series with geometrically decaying terms.
    """
    if n <= 0:
        return 0.0
    v = special.gammainc(n, lam)
    if v > 1e-280:
        return float(np.log(v))
    # deep tail: n >> lam, terms ratio lam/(n+j) < 1
    s, term = 1.0, 1.0
    for j in range(1, 500):
        term *= lam / (n + j)
        s += term
        if term < 1e-17 * s:
            break
    return n * math.log(lam) - lam - float(special.gammaln(n + 1)) + math.log(s)


def log_poisson_tail_remainder(lam, n_start):
    """log upper bound on sum_{n >= n_start} P[Poisson(lam) >= n].

    Valid whenever n_start >= 2*lam + 4 (the ratio bound below is then < 1).
    """
    q = (lam / (n_start + 1)) / (1.0 - lam / (n_start + 2))
    if not q < 1.0:
        raise ValueError("n_start too small for a certified remainder bound")
    return log_poisson_tail(lam, n_start) - math.log1p(-q)


def log_lower_gamma_cdf(shape, log_x):
    """log P[Gamma(shape, 1) <= x] given log x, accurate for tiny x.

    Series form shape*log(x) - lgamma(shape+1) - x + log sum_j x^j / prod(shape+i),
    truncated at relative 1e-14; falls back to the scipy regularized gamma when
    the probability is comfortably representable.
    """
    if shape <= 0:
        raise ValueError("shape must be positive")
    with np.errstate(over="ignore"):
        x = math.exp(min(log_x, 700.0))
    v = special.gammainc(shape, x) if log_x > -700 else 0.0
    if v > 1e-280:
        return float(np.log(v))
    # x << shape here, the series converges geometrically
    s, term = 1.0, 1.0
    for j in range(1, 10000):
        term *= x / (shape + j)
        s += term
        if term < 1e-14 * s:
            break
    return shape * log_x - float(special.gammaln(shape + 1)) - x + math.log(s)


def log_gamma_pdf(shape, y):
    """log density of Gamma(shape, 1) at y > 0."""
    return (shape - 1.0) * math.log(y) - y - float(special.gammaln(shape))


def inverse_conditional_gamma(shape, log_s, u):
    """Quantile of Gamma(shape,1) conditioned on being <= s, at probability u.

    Solves log F(y) = log u + log F(s) by Newton iteration in t = log y.
    Exact conditional law; used by the conditioned coefficient sampler.
    """
    if not 0.0 < u < 1.0:
        raise ValueError("u must be in (0,1)")
    target = math.log(u) + log_lower_gamma_cdf(shape, log_s)
    # F(y) ~ y^shape / Gamma(shape+1) for small y gives the starting point
    t = (target + float(special.gammaln(shape + 1))) / shape
    t = min(t, log_s)
    for _ in range(100):
        lf = log_lower_gamma_cdf(shape, t)
        y = math.exp(t)
        # d log F / dt = y f(y) / F(y)
        dlf = math.exp(t + log_gamma_pdf(shape, y) - lf)
        step = (lf - target) / max(dlf, 1e-300)
        step = max(min(step, 2.0), -2.0)
        t -= step
        if abs(step) < 1e-13:
            break
    return math.exp(t)


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
