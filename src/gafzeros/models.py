"""Gaussian analytic function models over the plane and the unit disk.

A model fixes the coefficient weights of the random series
sum_n a_n * sigma_n * z^n with a_n i.i.d. standard complex normal
(convention E|a_n|^2 = 1, so |a_n|^2 is a mean-1 exponential).  The planar
family has sigma_n^2 = 1/n! and covariance e^{z conj(w)}; the hyperbolic
family with positive index rho has sigma_n^2 = Gamma(n+rho)/(n! Gamma(rho))
and covariance (1 - z conj(w))^{-rho} inside the unit disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special

from . import _num


class Kind(Enum):
    PLANAR = "planar"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class GafModel:
    kind: Kind
    rho: float | None = None

    def __post_init__(self):
        if self.kind is Kind.HYPERBOLIC:
            if self.rho is None or not self.rho > 0:
                raise ValueError("hyperbolic model requires rho > 0")
        elif self.rho is not None:
            raise ValueError("planar model takes no rho")

    @classmethod
    def planar(cls) -> "GafModel":
        return cls(Kind.PLANAR)

    @classmethod
    def hyperbolic(cls, rho: float) -> "GafModel":
        return cls(Kind.HYPERBOLIC, float(rho))


def log_sigma(model: GafModel, n):
    """log of the coefficient standard deviation sigma_n.

    Safe for n up to 1e6 and beyond: no factorial is ever formed.  The
    hyperbolic sigma_n^2 = Gamma(n+rho)/(n! Gamma(rho)) is the product of
    (rho+k)/(k+1) over k < n; below ``_STIRLING_FROM`` its log is summed
    term by term as log1p((rho-1)/(k+1)), which no large log-gamma cancels.
    From there on, the larger of n+1 and rho is the base of a Stirling
    difference (``_log_gamma_ratio``) and the log-gamma of the smaller one is
    subtracted: log Gamma(rho+n) - log Gamma(rho) - log n! where n < rho,
    else log Gamma(n+rho) - log Gamma(n+1) - log Gamma(rho).  At rho = 1
    every form is exactly 0.
    """
    n = np.asarray(n, dtype=float)
    if np.any(n < 0):
        raise ValueError("n must be >= 0")
    if model.kind is Kind.PLANAR:
        out = -0.5 * special.gammaln(n + 1)
    else:
        rho = model.rho
        head = np.concatenate(([0.0], np.cumsum(
            np.log1p((rho - 1.0) / np.arange(1.0, _STIRLING_FROM)))))
        m = np.maximum(n, _STIRLING_FROM)
        tail = np.where(m < rho, _log_gamma_ratio(rho, m) - special.gammaln(m + 1),
                        _log_gamma_ratio(m + 1.0, rho - 1.0) - special.gammaln(rho))
        out = 0.5 * np.where(n < _STIRLING_FROM,
                             head[np.minimum(n, _STIRLING_FROM - 1).astype(int)], tail)
    return float(out) if out.ndim == 0 else out


# From n = 10 on, log sigma_n^2 is a difference of log-gammas at arguments
# of at least 10, taken from their Stirling series; the coefficients
# B_2k / (2k (2k-1)), k = 1..7, leave a remainder below 3e-17 there.
_STIRLING_FROM = 10
_STIRLING_COEFFS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _log_gamma_ratio(x, d):
    """log Gamma(x+d) - log Gamma(x) for x and x+d at least ``_STIRLING_FROM``.

    A direct gammaln difference would lose the ulp of log Gamma(x), about
    x log x.  The ratio is (x - 1/2) log1p(d/x) - d + d log(x+d) plus the
    difference of the two Stirling corrections, no piece of it larger than
    the result.
    """

    def correction(y):
        inv2 = 1.0 / (y * y)
        acc = _STIRLING_COEFFS[-1]
        for c in _STIRLING_COEFFS[-2::-1]:
            acc = acc * inv2 + c
        return acc / y

    return ((x - 0.5) * np.log1p(d / x) - d + d * np.log(x + d)
            + (correction(x + d) - correction(x)))


def log_weight(model: GafModel, n, r: float):
    """log of the n-th term's weight w_n = sigma_n r^n at radius r."""
    n = np.asarray(n, dtype=float)
    return log_sigma(model, n) + n * math.log(r)


def weight_ratio_bound(model: GafModel, n, r: float) -> float:
    """Upper bound on the weight ratio w_{k+1}/w_k for every k >= n.

    The ratio is r/sqrt(k+1) for the planar family and r sqrt((k+rho)/(k+1))
    for the hyperbolic one.  It decreases in k, so its value at n bounds it,
    except the hyperbolic ratio for rho <= 1, which rises to its limit r.
    """
    if model.kind is Kind.PLANAR:
        return r / math.sqrt(n + 1.0)
    if model.rho <= 1.0:
        return r
    return r * math.sqrt((n + model.rho) / (n + 1.0))


def covariance(model: GafModel, z: complex, w: complex) -> complex:
    """Closed-form covariance E[f(z) conj(f(w))] = sum sigma_n^2 z^n conj(w)^n."""
    t = complex(z) * complex(w).conjugate()
    if model.kind is Kind.PLANAR:
        return complex(np.exp(t))
    if abs(t) >= 1.0:
        raise ValueError("hyperbolic covariance needs |z conj(w)| < 1")
    return complex((1.0 - t) ** (-model.rho))


def sample_coefficients(rng: np.random.Generator, n_max: int) -> np.ndarray:
    """Draw a_0..a_{n_max} i.i.d. standard complex normal (E|a|^2 = 1)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    re = rng.standard_normal(n_max + 1)
    im = rng.standard_normal(n_max + 1)
    return (re + 1j * im) * math.sqrt(0.5)


def stream(seed: int, key: int = 0) -> np.random.Generator:
    """Single reproducible stream for (seed, key)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(key,))))


def _check_radius(model: GafModel, r: float):
    _num.check_radius(r)
    if model.kind is Kind.HYPERBOLIC and not r < 1:
        raise ValueError("hyperbolic model lives in the open unit disk")


def log_tail_variance(model: GafModel, degree: int, r: float) -> float:
    """log of sum_{n > degree} sigma_n^2 r^{2n}.

    Planar case via the regularized incomplete gamma identity
    sum_{n>N} r^{2n}/n! = e^{r^2} P[Pois(r^2) >= N+1]; hyperbolic case by
    direct summation of the squared weights with a certified remainder (for
    rho > 1 the first term ratios can sit at or above 1).
    """
    _check_radius(model, r)
    if degree < -1:
        raise ValueError("degree must be >= -1")
    if model.kind is Kind.PLANAR:
        lam = r * r
        return lam + _num.log_gamma_lower(degree + 1, lam, math.log(lam))

    log_x = math.log(r * r)

    def log_terms(n):
        return 2.0 * log_sigma(model, n) + n * log_x

    def ratio_bound(n):
        return weight_ratio_bound(model, n, r) ** 2

    return _num.certified_log_series(log_terms, degree + 1, ratio_bound, rel_tol=1e-17)


def expected_count(model: GafModel, r: float) -> float:
    """Mean number of zeros in the disk of radius r.

    Planar intensity is 1/pi per unit area, giving r^2; the hyperbolic family
    has constant intensity rho/pi in the hyperbolic metric, giving
    rho r^2/(1-r^2).
    """
    _check_radius(model, r)
    if model.kind is Kind.PLANAR:
        return r * r
    return model.rho * r * r / (1.0 - r * r)


# Truncation target: the discarded tail's sd relative to the function's sd.
TRUNCATION_REL_TOL = 1e-9


def choose_truncation(model: GafModel, r: float) -> int:
    """Smallest degree whose tail sd is <= TRUNCATION_REL_TOL * sqrt(covariance(r, r)).

    The statistical guard; per-sample correctness is certified separately by
    the circle tests in ``zeros``.
    """
    _check_radius(model, r)
    # log covariance(r, r) in closed form: exp(r^2) overflows from planar r = 26.7
    log_cov = r * r if model.kind is Kind.PLANAR else -model.rho * math.log1p(-r * r)
    log_target = 2.0 * (math.log(TRUNCATION_REL_TOL) + 0.5 * log_cov)
    lo, hi = 0, max(8, int(math.ceil(r * r)) + 8)
    while log_tail_variance(model, hi, r) > log_target:
        lo, hi = hi, hi * 2
        if hi > 10**7:
            raise RuntimeError("truncation search exploded")
    while lo < hi:
        mid = (lo + hi) // 2
        if log_tail_variance(model, mid, r) <= log_target:
            hi = mid
        else:
            lo = mid + 1
    return hi


# Relative slack of every radius_of_use guard: the rounding of |r e^{i theta}| on
# the circle r = radius_of_use, for the tail bound holds at radius_of_use only.
DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class TruncatedGaf:
    """A sampled partial sum sum_{n<=N} a_n sigma_n z^n fit for use on |z| <= radius_of_use.

    ``coeffs`` is the draw a_0..a_N, read by every evaluation, circle grid and
    root solve through ``coefficient_rows``.  The tail bound ``log_tail_sd``
    is derived from (model, N, radius_of_use) when read, never stored.
    """

    model: GafModel
    coeffs: np.ndarray
    radius_of_use: float

    def __post_init__(self):
        _check_radius(self.model, self.radius_of_use)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def log_tail_sd(self) -> float:
        """log of the sd of the discarded tail sum_{n>N} a_n sigma_n z^n at radius_of_use."""
        return 0.5 * log_tail_variance(self.model, self.degree, self.radius_of_use)

    def __call__(self, z):
        """Evaluate the partial sum at z, |z| <= radius_of_use (1 + DOMAIN_SLACK).

        Horner's rule on the row at s = radius_of_use in u = z/s, times e^L;
        OverflowError where e^L is past the float range.
        """
        z = np.asarray(z, dtype=complex)
        s = self.radius_of_use
        if np.any(np.abs(z) > s * (1.0 + DOMAIN_SLACK)):
            raise ValueError("evaluation point outside radius_of_use")
        c, log_scale, _, _ = coefficient_rows([self], [s])
        out = math.exp(log_scale[0]) * _num.horner(c[0], np.asarray(z / s))
        return complex(out) if out.ndim == 0 else out


def coefficient_rows(gafs, radii):
    """``(c, log_scale, size, reach)``: the coefficient row of every gafs[i] at radii[i].

    Row i is c_k = exp(log a_k + (log sigma_k + k log s - L)), log a_k the complex
    log of the draw, s = radii[i] and L = log_scale[i] = max_k log |a_k sigma_k s^k|:
    f(s u) = e^L sum_k c_k u^k, every |c_k| <= 1, and no weight underflows or power
    of s overflows.  size_k = |c_k| from the real exponent; reach_k = |log |a_k||
    + |log sigma_k| + k |log s| + |L| + pi bounds the logs summed into it.  Rows
    are zero-padded to one matrix, 0 where a_k = 0; a zero draw has L = 0.  Each
    radius must lie in (0, radius_of_use (1 + DOMAIN_SLACK)] of its draw (ValueError).
    """
    for gaf, s in zip(gafs, radii):
        if not s > 0:
            raise ValueError("radius must be positive")
        if s > gaf.radius_of_use * (1.0 + DOMAIN_SLACK):
            raise ValueError("evaluation point outside radius_of_use")
    width = max((len(gaf.coeffs) for gaf in gafs), default=0)
    k = np.arange(width)
    log_a = np.full((len(gafs), width), -np.inf, dtype=complex)
    log_s = np.zeros((len(gafs), width))
    with np.errstate(divide="ignore"):
        for row, gaf in zip(log_a, gafs):
            row[: len(gaf.coeffs)] = np.log(np.asarray(gaf.coeffs, dtype=complex))
    for model in {gaf.model for gaf in gafs}:
        log_s[[gaf.model == model for gaf in gafs]] = log_sigma(model, k)
    k_log_s = k * np.array([math.log(s) for s in radii])[:, None]
    log_w = log_s + k_log_s
    log_scale = (log_a.real + log_w).max(axis=1, initial=-np.inf)
    log_scale[~np.isfinite(log_scale)] = 0.0
    x = log_a + (log_w - log_scale[:, None])
    reach = np.where(np.isfinite(log_a.real), np.abs(log_a.real) + np.abs(log_s) + np.abs(k_log_s)
                     + np.abs(log_scale)[:, None] + math.pi, 0.0)
    return np.exp(x), log_scale, np.exp(x.real), reach


def sample_truncated(model: GafModel, r: float, rng: np.random.Generator,
                     degree: int | None = None) -> TruncatedGaf:
    """Sample a truncated model function fit for use on the disk of radius r.

    The degree is ``choose_truncation(model, r)`` unless given; the tail sd is
    not computed here, only where ``log_tail_sd`` is read.
    """
    n = choose_truncation(model, r) if degree is None else degree
    return TruncatedGaf(model, sample_coefficients(rng, n), r)
