"""Certified zero counting on disks, polynomial roots, and circle functionals.

The counter walks the image of a circle and accumulates phase increments; a
count is only reported once every adjacent increment is below pi/2 (a 2x
safety factor against aliasing a full loop).  Certification compares the
smallest sampled modulus, minus a continuity margin, against a caller-supplied
floor (typically a truncation tail bound), which is what makes the truncated
count transferable to the full series.

Every circle functional reads the circle through ``_circle_grids``.  A
``TruncatedGaf`` is read from its coefficients, one inverse FFT per grid;
any other callable is called on the grid nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _num
from .models import GafModel, TruncatedGaf, sample_truncated, stream

_TWO_PI = 2.0 * math.pi
PHASE_LIMIT = math.pi / 2.0
MAX_NODES = 2**20
HARD_FLOOR = 1e-300  # moduli below this are treated as a hard failure, never clamped
# Roots per block of ``find_roots_many``.  An Aberth iteration pays a fixed
# numpy call cost per Horner step and per group of equal degree, whatever
# the block's width, and larger blocks spread it over more roots until their
# arrays fall out of cache: over the root solves of roots-jensen passes,
# 1024 ran fastest among 256, 512, 1024, 4096 and unbounded (2.5x slower).
ROOT_BLOCK = 1024


class InconclusiveCount(RuntimeError):
    """The circle test could not certify a count (possible zero near the circle)."""


class RootsDidNotConverge(RuntimeError):
    """Simultaneous iteration failed the residual test; partial roots attached."""

    def __init__(self, message, roots=None):
        super().__init__(message)
        self.roots = roots


@dataclass(frozen=True)
class CountResult:
    count: int
    certified: bool
    min_modulus_on_circle: float
    circle_nodes_used: int


@dataclass(frozen=True)
class JensenCheck:
    r: float
    R: float
    mean_log_R: float
    mean_log_r: float
    integral_n_over_u: float
    residual: float
    roots: np.ndarray = field(repr=False, compare=False)


def _fold(c, n):
    """c summed in blocks of n: entry j is the sum of c[k] over k = j mod n."""
    if len(c) <= n:
        return c
    return np.concatenate([c, np.zeros(-len(c) % n, dtype=c.dtype)]).reshape(-1, n).sum(axis=0)


def _coefficient_grid(gaf: TruncatedGaf, r):
    """``on_grid(n, shift)``: gaf at r e^{2 pi i (j + shift)/n}, j < n, by one inverse FFT.

    On n equispaced nodes sum_k b_k e^{2 pi i jk/n} is the inverse DFT of the
    scaled coefficients b_k = w_k r^k folded mod n; the midpoint shift 1/2
    first rotates b_k by e^{i pi k/n} (shift is 0 or 1/2).  b_k is formed as
    exp(log w_k + k log r) with the complex log, so a subnormal w_k keeps its
    digits; zero weights stay 0.
    """
    if r > gaf.radius_of_use * (1.0 + 1e-5):
        raise ValueError("evaluation point outside radius_of_use")
    w = gaf.weighted_coefficients
    k = np.arange(len(w))
    b = np.zeros(len(w), dtype=complex)
    nz = w != 0
    b[nz] = np.exp(np.log(w[nz]) + k[nz] * math.log(r))

    def on_grid(n, shift):
        c = b if shift == 0 else b * np.exp(1j * (_TWO_PI * shift / n) * (k % (2 * n)))
        return np.fft.ifft(_fold(c, n), n=n, norm="forward")

    return on_grid


def _circle_grids(f, r, start_nodes, max_nodes):
    """Values of f on |z| = r over uniform grids that double up to max_nodes.

    The first grid has start_nodes nodes from angle 0; each later grid adds
    the midpoints of the one before, so each grid costs one evaluation on
    the new nodes only.  A ``TruncatedGaf`` is evaluated from its
    coefficients, one inverse FFT per grid (``_coefficient_grid``); any other
    callable is called on the nodes.  A consumer ends the walk by leaving its
    loop.
    """
    if isinstance(f, TruncatedGaf):
        on_grid = _coefficient_grid(f, r)
    else:
        def on_grid(n, shift):
            theta = (np.arange(n) + shift) * (_TWO_PI / n)
            return np.asarray(f(r * np.exp(1j * theta)), dtype=complex)
    vals = on_grid(start_nodes, 0.0)
    yield vals
    while len(vals) < max_nodes:
        n = len(vals)
        new_vals = on_grid(n, 0.5)
        doubled = np.empty(2 * n, dtype=complex)
        doubled[0::2] = vals
        doubled[1::2] = new_vals
        vals = doubled
        # while suspended, hold no array but the grid it yields
        del new_vals, doubled
        yield vals


def count_zeros_winding(f, r, floor, *, start_nodes=256, max_nodes=MAX_NODES) -> CountResult:
    """Count zeros of analytic f in |z| < r by the argument principle.

    ``floor`` is the certification threshold: an Inconclusive error is raised
    if any sampled modulus falls at or below it, and the certified flag is set
    only when min |f| minus the continuity margin clears it.

    The grid doubles until all phase increments resolve; it keeps doubling (up
    to the node cap) while certification is the only thing missing.
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    if not floor >= 0:
        raise ValueError("floor must be nonnegative")
    for vals in _circle_grids(f, r, start_nodes, max_nodes):
        mods = np.abs(vals)
        mn = float(mods.min())
        if mn <= max(floor, HARD_FLOOR):
            raise InconclusiveCount(
                f"min |f| = {mn:.3e} at or below floor {floor:.3e} on |z| = {r}")
        nxt = np.roll(vals, -1)
        diffs = np.angle(nxt / vals)
        # per-arc continuity margin: |f| between two nodes cannot drop below
        # the smaller endpoint by more than about the endpoint jump once the
        # grid resolves f
        jumps = np.abs(nxt - vals)
        arc_floor = float((np.minimum(mods, np.abs(nxt)) - jumps).min())
        phase_ok = float(np.abs(diffs).max()) < PHASE_LIMIT
        certified = arc_floor > floor
        if phase_ok and (certified or len(vals) >= max_nodes):
            break
    else:
        raise InconclusiveCount(
            f"phase increments unresolved at {len(vals)} nodes on |z| = {r}")
    total = float(diffs.sum())
    winding = total / _TWO_PI
    count = int(round(winding))
    if abs(winding - count) > 1e-6:
        raise InconclusiveCount(f"winding {winding} is not an integer to 1e-6")
    if count < 0:
        raise InconclusiveCount(f"negative winding {count} for an analytic function")
    return CountResult(count=count, certified=certified,
                       min_modulus_on_circle=mn, circle_nodes_used=len(vals))


def count_with_retry(f, r, floor, *, require_certified=True):
    """Winding count with the radius-perturbation retry policy.

    An inconclusive (or uncertified, when required) result retries at radii
    perturbed by multiples of 1e-6 * r, at most 3 times, then the last error
    is raised.  Returns (CountResult, retries_used).
    """
    last_exc = None
    for attempt, d in enumerate((0.0, 1e-6, -1e-6, 2e-6)):
        try:
            res = count_zeros_winding(f, r * (1.0 + d), floor)
            if res.certified or not require_certified:
                return res, attempt
            last_exc = InconclusiveCount(
                f"uncertified count at radius perturbation {d:+.1e}")
        except InconclusiveCount as exc:
            last_exc = exc
    raise last_exc


def count_replicas(model: GafModel, r, degree, guard, seed, keys):
    """Certified zero counts in |z| < r of independent truncated draws.

    Replica k samples ``model`` at ``degree`` from ``stream(seed, k)`` and is
    counted by ``count_with_retry`` with floor ``guard * tail_sd``.  Returns
    (counts, retries): one count per key, -1 where the replica stayed
    unresolved, and the retries used by the resolved replicas.
    """
    counts = np.empty(len(keys), dtype=int)
    retries = 0
    for i, k in enumerate(keys):
        gaf = sample_truncated(model, r, stream(seed, k), degree=degree)
        try:
            res, used = count_with_retry(gaf, r, guard * gaf.tail_sd)
        except InconclusiveCount:
            counts[i] = -1
            continue
        counts[i] = res.count
        retries += used
    return counts, retries


def _initial_root_guesses(coeffs):
    """Starting points on circles read off the coefficient magnitude profile.

    Upper convex hull of (n, log |c_n|); each hull edge contributes points on
    the circle whose radius matches the two dominant terms trading places.
    """
    mags = np.abs(coeffs)
    with np.errstate(divide="ignore"):
        logm = np.where(mags > 0, np.log(np.maximum(mags, 1e-300)), -np.inf)
    pts = [(i, y) for i, y in enumerate(logm.tolist()) if math.isfinite(y)]
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) <= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    guesses = []
    for seg, ((k1, u1), (k2, u2)) in enumerate(zip(hull[:-1], hull[1:])):
        cnt = k2 - k1
        radius = math.exp((u1 - u2) / cnt)
        ang = _TWO_PI * (np.arange(cnt) + 0.375) / cnt + 0.61 * seg
        guesses.append(radius * np.exp(1j * ang))
    return np.concatenate(guesses)


def _value_and_slope_rows(cs):
    """Horner rows whose one pass over [z, z] gives p(z), then p'(z), per root column.

    ``cs`` lists coefficient vectors; polynomial j of degree d_j owns d_j
    root columns.  The first half of the columns hold each polynomial's
    coefficients, the second half its derivative coefficients, polynomial
    after polynomial; every column is padded at the top with zeros to the
    largest degree, which leaves the Horner value of a finite point unchanged.
    """
    degs = [len(c) - 1 for c in cs]
    n = sum(degs)
    rows = np.zeros((max(degs) + 1, 2 * n), dtype=complex)
    s = 0
    for c, d in zip(cs, degs):
        rows[: d + 1, s: s + d] = c[:, None]
        rows[:d, n + s: n + s + d] = (c[1:] * np.arange(1, d + 1))[:, None]
        s += d
    return rows


def _values(rows, z):
    """p(z) and p'(z) over the root columns of ``rows``, z one point per column."""
    pdp = _num.horner(rows, np.concatenate([z, z]))
    return pdp[: len(z)], pdp[len(z):]


def _values_with_pullback(rows, z):
    """z, p(z) and p'(z), overflowing iterates first pulled toward the origin.

    Giant initial radii at high degree overflow.  Such an entry of z
    (modified in place) is scaled by 0.7 until its values are finite, at most
    200 times; each round evaluates the next 8 scalings of every such entry
    in one Horner pass and keeps the first finite one.
    """
    n = len(z)
    p, dp = _values(rows, z)
    bad = np.flatnonzero(~(np.isfinite(p) & np.isfinite(dp)))
    pulls = 0
    while len(bad) and pulls < 200:
        k = min(8, 200 - pulls)
        levels = np.empty((k, len(bad)), dtype=complex)
        zb = z[bad]
        for j in range(k):
            zb = 0.7 * zb
            levels[j] = zb
        cols = np.tile(bad, k)
        lp, ldp = _values(rows[:, np.concatenate([cols, n + cols])], levels.ravel())
        lp, ldp = lp.reshape(k, -1), ldp.reshape(k, -1)
        fin = np.isfinite(lp) & np.isfinite(ldp)
        found = fin.any(axis=0)
        at = (np.where(found, fin.argmax(axis=0), k - 1), np.arange(len(bad)))
        z[bad], p[bad], dp[bad] = levels[at], lp[at], ldp[at]
        bad = bad[~found]
        pulls += k
    return z, p, dp


def _aberth_block(cs, at_zero, residual_tol, max_iter):
    """``find_roots`` of the polynomials cs (degree >= 2, ascending), in one loop.

    ``at_zero[j]`` holds the roots at 0 that polynomial j had stripped.  The
    roots of all polynomials sit in one vector, polynomial after polynomial.
    Each iteration evaluates the live polynomials (those with a root not yet
    frozen) in one Horner pass, and forms their Aberth sums per group of
    equal degree as a (b, d, d) tensor, so every root takes the
    floating-point steps of a solve of its polynomial alone.
    """
    degs = np.array([len(c) - 1 for c in cs])
    ends = np.cumsum(degs)
    starts = ends - degs
    rows = _value_and_slope_rows(cs)
    n = int(ends[-1])
    z = np.concatenate([_initial_root_guesses(c) for c in cs])
    done = np.zeros(n, dtype=bool)
    live = np.ones(len(cs), dtype=bool)
    changed = True
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if changed:
                # the roots, Horner columns and equal-degree groups of the live polynomials
                idx = np.concatenate([np.arange(a, b) for a, b in zip(starts[live], ends[live])])
                live_rows = rows[:, np.concatenate([idx, n + idx])]
                zl, done_l = z[idx], done[idx]
                d_live = degs[live]
                first = np.cumsum(d_live) - d_live
                ds, at, counts = np.unique(d_live, return_index=True, return_counts=True)
                groups = list(zip(first[at], ds, counts))
            zl, p, dp = _values_with_pullback(live_rows, zl)
            dp = np.where(dp == 0, 1e-30, dp)
            w = p / dp
            s = np.empty_like(zl)
            for lo, d, count in groups:
                zg = zl[lo: lo + count * d].reshape(count, d)
                diff = zg[:, :, None] - zg[:, None, :]
                diff.reshape(count, d * d)[:, :: d + 1] = np.inf  # the diagonals
                s[lo: lo + count * d] = (1.0 / diff).sum(axis=2).ravel()
            denom = 1.0 - w * s
            denom = np.where(denom == 0, 1e-30, denom)
            corr = np.where(done_l, 0.0, w / denom)
            zl = zl - corr
            done_l |= np.abs(corr) <= 1e-14 * (1.0 + np.abs(zl))
            z[idx], done[idx] = zl, done_l
            finished = np.logical_and.reduceat(done_l, first)
            live[np.flatnonzero(live)[finished]] = False
            if not live.any():
                break
            changed = finished.any()
        for _ in range(2):  # Newton polish
            z, p, dp = _values_with_pullback(rows, z)
            dp = np.where(dp == 0, 1e-30, dp)
            step = p / dp
            z = z - np.where(np.isfinite(step), step, 0.0)
        c = rows[:, :n]
        scale = _num.horner(np.abs(c), np.abs(z))
        resid = np.abs(_num.horner(c, z))
    rel = resid / np.maximum(scale, 1e-300)
    # NaN must count as failure, never as a pass
    ok = np.isfinite(rel) & (rel <= residual_tol)
    out = []
    for a, b, zeros_j in zip(starts, ends, at_zero):
        roots = np.concatenate([zeros_j, z[a:b]])
        if ok[a:b].all():
            out.append(roots)
        else:
            worst = float(np.nanmax(np.where(np.isfinite(rel[a:b]), rel[a:b], np.inf)))
            out.append(RootsDidNotConverge(f"max relative residual {worst:.3e}", roots=roots))
    return out


def find_roots_many(polys, *, residual_tol=1e-10, max_iter=200) -> list:
    """``find_roots`` of every polynomial in ``polys``, solved together.

    Returns one entry per polynomial: its roots, or the RootsDidNotConverge
    (partial roots attached) that ``find_roots`` raises for it, so a failure
    stays with its own polynomial.  The polynomials of degree 2 and up are
    sorted by degree and cut into blocks of at most ROOT_BLOCK roots (a
    larger one is a block of its own); one Aberth loop runs per block, and
    every root comes out bit for bit as from a solve of its polynomial
    alone.  A zero polynomial raises ValueError.
    """
    out = [None] * len(polys)
    todo = []
    for i, coeffs in enumerate(polys):
        c = np.asarray(coeffs, dtype=complex)
        nz = np.nonzero(np.abs(c))[0]
        if len(nz) == 0:
            raise ValueError("zero polynomial has no well-defined roots")
        # strip the high-order zeros; the low-order ones are roots at 0
        at_zero = np.zeros(nz[0], dtype=complex)
        c = c[nz[0]: nz[-1] + 1]
        if len(c) == 1:
            out[i] = at_zero
        elif len(c) == 2:
            out[i] = np.concatenate([at_zero, [-c[0] / c[1]]])
        else:
            todo.append((len(c) - 1, i, c, at_zero))
    blocks = []
    for t in sorted(todo, key=lambda t: t[0]):
        if not blocks or size + t[0] > ROOT_BLOCK:
            blocks.append([])
            size = 0
        blocks[-1].append(t)
        size += t[0]
    for block in blocks:
        _, index, cs, at_zero = zip(*block)
        for i, res in zip(index, _aberth_block(cs, at_zero, residual_tol, max_iter)):
            out[i] = res
    return out


def find_roots(coeffs, *, residual_tol=1e-10, max_iter=200) -> np.ndarray:
    """All roots of sum c_n z^n by Aberth-Ehrlich iteration with Newton polish.

    Residuals are checked against the backward-error scale sum |c_n| |z|^n; a
    failure raises RootsDidNotConverge carrying the partial result.  This is
    the one-polynomial case of ``find_roots_many``.
    """
    (roots,) = find_roots_many([coeffs], residual_tol=residual_tol, max_iter=max_iter)
    if isinstance(roots, RootsDidNotConverge):
        raise roots
    return roots


def count_in_disk(roots, r) -> int:
    return int(np.count_nonzero(np.abs(roots) < r))


def circle_mean_log_abs(f, s, tol, *, start_nodes=128, max_nodes=MAX_NODES) -> float:
    """(1/2pi) integral of log |f(s e^{i theta})| d theta by node-doubling trapezoid.

    On a periodic uniform grid the trapezoid rule is the plain node mean and
    converges spectrally for analytic nonvanishing f.  Moduli below 1e-300
    are a hard failure: clamping would silently corrupt downstream bounds.
    """
    if not s > 0:
        raise ValueError("radius must be positive")
    est = None
    # at least two grids, so that every mean is checked against a refinement
    for vals in _circle_grids(f, s, start_nodes, max(max_nodes, 2 * start_nodes)):
        mods = np.abs(vals)
        if mods.min() <= HARD_FLOOR:
            raise InconclusiveCount("modulus below 1e-300 on the quadrature circle")
        new = float(np.mean(np.log(mods)))
        if est is not None and abs(new - est) < tol:
            return new
        est = new
    raise InconclusiveCount(f"quadrature unstable at node cap ({len(vals)} nodes)")


def jensen_residuals(cases, *, quad_tol=1e-8) -> list:
    """``jensen_residual`` of every (gaf, r, R) in ``cases``, from one root solve.

    The radii and constant terms of all cases are checked first (ValueError);
    then ``find_roots_many`` solves every weighted coefficient vector at once,
    and the circle means are taken case by case.  Returns one entry per case:
    its JensenCheck, or the RootsDidNotConverge or InconclusiveCount that
    ``jensen_residual`` raises for it.
    """
    for gaf, r, R in cases:
        if not (0 < r < R <= gaf.radius_of_use * (1 + 1e-12)):
            raise ValueError("need 0 < r < R <= radius_of_use")
        if abs(gaf.weighted_coefficients[0]) == 0:
            raise ValueError("f(0) = 0: the identity needs a nonzero constant term")
    solved = find_roots_many([gaf.weighted_coefficients for gaf, _, _ in cases])
    out = []
    for (gaf, r, R), roots in zip(cases, solved):
        if isinstance(roots, RootsDidNotConverge):
            out.append(roots)
            continue
        mods = np.abs(roots)
        inside = mods < R
        integral = float(np.sum(np.log(R / np.maximum(mods[inside], r))))
        try:
            mean_R = circle_mean_log_abs(gaf, R, quad_tol)
            mean_r = circle_mean_log_abs(gaf, r, quad_tol)
        except InconclusiveCount as exc:
            out.append(exc)
            continue
        out.append(JensenCheck(r=r, R=R, mean_log_R=mean_R, mean_log_r=mean_r,
                               integral_n_over_u=integral,
                               residual=abs(mean_R - mean_r - integral), roots=roots))
    return out


def jensen_residual(gaf: TruncatedGaf, r: float, R: float, *, quad_tol=1e-8) -> JensenCheck:
    """Residual of the circular-mean identity for log |f| between radii r < R.

    The radial zero-count integral is assembled exactly from the polynomial
    roots: a root of modulus u < R contributes log(R / max(u, r)).  The roots
    (``find_roots`` of the weighted coefficients) are returned with the check,
    so a caller that also counts them needs no second root solve.  This is
    the one-case form of ``jensen_residuals``.
    """
    (check,) = jensen_residuals([(gaf, r, R)], quad_tol=quad_tol)
    if isinstance(check, Exception):
        raise check
    return check


def _polished_circle_max(f, r, vals):
    """Grid max improved by parabolic refinement at every local maximum.

    Keeps narrow peaks that sit between nodes from being under-read, which a
    plain doubling-change test can miss when two peaks run nearly equal.
    """
    n = len(vals)
    y = np.abs(vals)
    left, right = np.roll(y, 1), np.roll(y, -1)
    peaks = np.nonzero((y >= left) & (y >= right))[0]
    if len(peaks) == 0:
        return float(y.max())
    h = _TWO_PI / n
    denom = left[peaks] - 2.0 * y[peaks] + right[peaks]
    safe = np.where(denom == 0.0, 1.0, denom)
    delta = np.clip(np.where(denom == 0.0, 0.0, 0.5 * (left[peaks] - right[peaks]) / safe),
                    -1.0, 1.0)
    theta = (peaks + delta) * h
    cand = np.abs(np.asarray(f(r * np.exp(1j * theta)), dtype=complex))
    return float(max(y.max(), cand.max()))


def max_modulus(f, r, *, rel_tol=1e-9, start_nodes=128, max_nodes=MAX_NODES) -> float:
    """max |f| over |z| = r (equals the disk max, by the maximum principle)."""
    best = None
    for vals in _circle_grids(f, r, start_nodes, max_nodes):
        new = _polished_circle_max(f, r, vals)
        if best is not None and abs(new - best) <= rel_tol * max(new, best, 1e-300):
            return max(new, best)
        best = new
    return best
