"""Certified zero counting on disks, polynomial roots, and circle functionals.

A count walks |z| = r on node-doubling grids until a proved arc margin is
above a caller-supplied floor (typically a truncation tail bound, which is
what makes the truncated count transferable to the full series).  A point of
an arc of length l = 2 pi r/n lies within l/2 of a node, so by Taylor's
theorem |f| >= min_j (|f_j| - l |f'_j|/2) - l^2 M2/8 - E on the arc, with
M2 >= max |f''| and E the rounding bound (``_arc_terms``).  A positive margin
turns the phase by less than pi/2 on each half arc, so the principal phase
increments of the grid sum to the winding number.  The circle maximum is a
bound proved from one FFT grid (``max_modulus``).

Every grid, bound and root solve reads the row f(r u) = e^L sum_k c_k u^k,
|c_k| <= 1, of ``models.coefficient_rows`` with L in log form: count moduli
(``CountResult``, ``InconclusiveCount`` messages, ``HARD_FLOOR``) are |f|/e^L,
floors come in as logs of |f|, and circle means and maxima go out as logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _num
from .models import (DOMAIN_SLACK, GafModel, TruncatedGaf, coefficient_rows, sample_truncated,
                     stream)

_TWO_PI = 2.0 * math.pi
MAX_NODES = 2**20
HARD_FLOOR = 1e-300  # row moduli |f|/e^L at or below this are a hard failure, never clamped
# Roots per block of ``find_roots_many``.  An Aberth iteration pays a fixed
# numpy call cost per Horner step and per group of equal degree with an
# active root, whatever the block's width, and larger blocks spread it over
# more roots until their arrays fall out of cache.  Over the root solves of
# a roots-jensen pass, iterating only the active roots, 512 and 1024 took
# the same CPU time (0.26-0.27 s), 2048 and 4096 more (0.28 and 0.30-0.33 s).
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
    """A certified count; ``min_modulus_on_circle`` is min |f|/e^L on its last grid."""

    count: int
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


def _coefficient_rows(gafs, rs):
    """``models.coefficient_rows`` of gafs[i] at rs[i], the c_k read by ``on_grid``.

    ``on_grid(sel, n, shift, weight)`` gives rows sel of sum_k weight_k c_k u^k
    on the n nodes u = e^{2 pi i (j + shift)/n}: the inverse DFT of the c_k
    folded mod n, rotated by e^{i pi k/n} for shift 1/2.  The zero-padded rows
    take one inverse FFT along axis 1; a row is folded over its own blocks of
    n only and keeps +0 past its own length, so each row gets the bits of a
    transform of its coefficients alone.
    """
    b, log_scale, size, reach = coefficient_rows(gafs, rs)
    lens = np.array([len(gaf.coeffs) for gaf in gafs], dtype=int)
    k = np.arange(b.shape[1])

    def on_grid(sel, n, shift, weight=None):
        size = lens[sel]
        width = size.max()
        c = b[sel, :width]
        if weight is not None:
            c = c * weight[:width]
        if shift:
            rot = np.exp(1j * (_TWO_PI * shift / n) * (k[:width] % (2 * n)))
            if size.min() == width:
                c = c * rot
            else:
                c = np.multiply(c, rot, out=np.zeros_like(c), where=k[:width] < size[:, None])
        if width > n:
            # c summed over its blocks of n, each row over its own blocks only
            blocks = np.concatenate([c, np.zeros((len(c), -width % n), dtype=complex)],
                                    axis=1).reshape(len(c), -1, n)
            c = blocks[:, 0].copy()
            for j in range(1, blocks.shape[1]):
                more = size > j * n
                c[more] += blocks[more, j]
        return np.fft.ifft(c, n=n, axis=1, norm="forward")

    return on_grid, log_scale, size, reach


def _rounding(size, reach, n):
    """A first-order bound on the rounding of n-node grid values of rows |c_k| = ``size``.

    8 log2(n) sqrt(n) eps sum |c_k| for the FFT (Higham, Accuracy and Stability
    of Numerical Algorithms, Thm 24.2), 4 eps (s_k + 2) |c_k| for c_k = exp(x_k)
    (s_k = ``reach``), and 24 eps sum |c_k| for the weight, midpoint rotation,
    modulus, sums and factors.
    """
    return np.finfo(float).eps * np.sum(
        (8.0 * math.log2(n) * math.sqrt(n) + 32.0 + 4.0 * reach) * size, axis=-1)


def _circle_max(on_grid, sel, n, degree, weight, size, reach):
    """Proved upper bounds on max |sum_k weight_k c_k u^k| over |u| = 1, rows ``sel``.

    Each row is u^j times a polynomial p of degree d = ``degree`` < n, and the
    bound is sec(pi d/(2n)) (max over the n nodes + ``_rounding``).  Proof: let
    M = max |p| be attained at t0, and T(t) = Re(e^{-i phi} e^{-i d t/2} p(e^{it}))
    with T(t0) = M.  In t = 2s, T is a real trigonometric polynomial of degree
    d, so Szego's inequality T'^2 + (d/2)^2 T^2 <= (d/2)^2 M^2 gives T(t0 + u)
    >= M cos(d u/2), and a node lies within pi/n of t0.  1 + (z e^{-i pi/n})^d
    attains the factor where d divides n (see Frappier, Rahman & Ruscheweyh,
    Trans. AMS 288 (1985)).
    """
    top = np.abs(on_grid(sel, n, 0.0, weight)).max(axis=1)
    return (top + _rounding(size, reach, n)) / np.cos(np.pi * degree / (2 * n))


# Grid values one level of the circle walk may hold; rows that outgrow it
# walk on in groups (one row at the least), so that 1024 replicas at 65536
# nodes take 16 MB per array instead of 1 GB.
GRID_BUDGET = 2**20


def _circle_grids(on_grid, count, start_nodes, max_nodes, step):
    """Walk ``count`` rows of a ``_coefficient_rows`` reader on grids doubling to max_nodes.

    The first grid has start_nodes nodes from angle 0; each later one adds the
    midpoints, one inverse FFT of the new nodes.  ``step(rows, vals)`` gets the
    rows still walking and their values, and returns the mask of those that
    walk on, up to the first level of max_nodes or more.  Every row's values
    are the bits of a walk of its function alone.
    """
    def doubled(rows, vals):
        out = np.empty((len(rows), 2 * vals.shape[1]), dtype=complex)
        out[:, 0::2] = vals
        out[:, 1::2] = on_grid(rows, vals.shape[1], 0.5)
        return out

    # each walk is (rows, their values on a grid already stepped, or None
    # before the start grid)
    first = max(1, GRID_BUDGET // start_nodes)
    walks = [(np.arange(g, min(g + first, count)), None)
             for g in range(0, count, first)][::-1]
    while walks:
        rows, vals = walks.pop()
        vals = on_grid(rows, start_nodes, 0.0) if vals is None else doubled(rows, vals)
        while True:
            keep = step(rows, vals)
            n = vals.shape[1]
            if n >= max_nodes or not keep.any():
                break
            if not keep.all():
                rows, vals = rows[keep], vals[keep]
            group = max(1, GRID_BUDGET // (2 * n))
            if len(rows) > group:
                walks.extend((rows[g: g + group], vals[g: g + group])
                             for g in range(0, len(rows), group)[::-1])
                break
            vals = doubled(rows, vals)


def _arc_terms(gafs, rs, rows):
    """``(slack, bounds, ceiling)``: the arc margin of gafs[i] on |z| = rs[i].

    ``rows`` is ``_coefficient_rows(gafs, rs)``; its ``on_grid`` reads them, and
    every term is in their units of e^L.  With l = 2 pi r/n, ``slack(rows, n)``
    is l^2 M2/8 + E, and ``bounds(rows, mods)`` maps the
    |f_j| of an n-node grid to |f_j| - l |f'_j|/2 - slack, a lower bound on
    |f| over the half arcs next to node j.  |f'| = |sum k c_k u^k|/r, one more
    inverse FFT.  ``ceiling(rows, vals, j)`` bounds the margin at node
    j[i] of row i from above without reading f'.  M2 is ``_circle_max`` of
    r^2 z^2 f'' = sum k (k-1) c_k u^k (degree d - 2 up to u^2) on the least
    power of two above 4 (d - 2) nodes, over r^2.  E is the ``_rounding`` of
    the f grid plus l/2 that of f'.
    """
    on_grid, _, size, reach = rows
    k = np.arange(size.shape[1])
    curve = k * (k - 1.0)
    radius = np.array(rs, dtype=float)
    low = np.array([max(len(gaf.coeffs) - 3, 0) for gaf in gafs])
    nodes = np.array([1 << (4 * int(d)).bit_length() for d in low])
    bend = np.empty(len(gafs))  # M2
    for n in np.unique(nodes):
        sel = np.flatnonzero(nodes == n)
        bend[sel] = _circle_max(on_grid, sel, int(n), low[sel], curve, size[sel] * curve,
                                reach[sel]) / radius[sel] ** 2

    def slack(rows, n):
        arc = _TWO_PI * radius[rows] / n
        return (arc**2 * bend[rows] / 8.0 + _rounding(size[rows], reach[rows], n)
                + arc / 2.0 * _rounding(size[rows] * k, reach[rows], n) / radius[rows])

    def bounds(rows, mods):
        n = mods.shape[1]
        arc = _TWO_PI * radius[rows] / n
        slope = np.abs(on_grid(rows, n, 0.0, k)) / radius[rows, None]
        return mods - arc[:, None] / 2.0 * slope - slack(rows, n)[:, None]

    def ceiling(rows, vals, j):
        # at node j and h = f_{j+-1} - f_j, |f'_j| >= |h|/l - l M2/2 by Taylor.
        # The rounding of |h|/2 and of l |f'_j|/2 is at most E, which the
        # slack takes off, so the margin at j is at most |f_j| - |h|/2 + l^2 M2/8
        n = vals.shape[1]
        at = np.arange(len(rows))
        f = vals[at, j]
        h = np.maximum(np.abs(vals[at, (j + 1) % n] - f), np.abs(vals[at, j - 1] - f))
        arc = _TWO_PI * radius[rows] / n
        return np.abs(f) - h / 2.0 + arc**2 * bend[rows] / 8.0

    return slack, bounds, ceiling


def certified_counts(cases, start_nodes=256, max_nodes=MAX_NODES) -> list:
    """The certified winding count in |z| < r of every (gaf, r, log floor) case, on one walk.

    A case's floor is e^{log floor - L} in units of e^L (0 for a log floor of
    -inf).  A case stops at the first level where its arc margin is above its
    floor, and sums the phase increments there; f' is read only where min |f|
    less the slack and the ceiling of the margin are both above the floor, as
    the margin needs.  Returns one entry per case: its CountResult, or an
    InconclusiveCount where a node is at or below the floor, the margin
    stays at or below it at the node cap, or the phase total is no count.
    A radius at or below 0 or past radius_of_use raises ValueError in
    ``models.coefficient_rows``.
    """
    if any(math.isnan(log_floor) for _, _, log_floor in cases):
        raise ValueError("log floor must be a number or -inf")
    gafs, rs = [f for f, _, _ in cases], [r for _, r, _ in cases]
    out = [None] * len(gafs)
    rows = _coefficient_rows(gafs, rs)
    slack, bounds, ceiling = _arc_terms(gafs, rs, rows)
    with np.errstate(over="ignore"):  # a floor past the float range leaves its row unresolved
        floor_of = np.exp(np.array([c[2] for c in cases], dtype=float) - rows[1])
    limit = np.maximum(floor_of, HARD_FLOOR)

    def step(rows, vals):
        n = vals.shape[1]
        mods = np.abs(vals)
        low = mods.argmin(axis=1)
        mn = mods[np.arange(len(rows)), low]
        keep = ~(mn <= limit[rows])
        for j, i in zip(np.flatnonzero(~keep), rows[~keep]):
            out[i] = InconclusiveCount(f"min |f| = {mn[j]:.3e} at or below floor "
                                       f"{floor_of[i]:.3e} on |z| = {rs[i]}")
        near = np.flatnonzero(keep & (mn - slack(rows, n) > floor_of[rows])
                              & (ceiling(rows, vals, low) > floor_of[rows]))
        if len(near):
            margin = bounds(rows[near], mods[near]).min(axis=1)
            stop = near[margin > floor_of[rows[near]]]
            vals = vals[stop]
            nxt = np.concatenate((vals[:, 1:], vals[:, :1]), axis=1)  # np.roll(vals, -1, axis=1)
            for j, total in zip(stop, np.angle(nxt / vals).sum(axis=1)):
                out[rows[j]] = _winding_result(float(total), float(mn[j]), n)
            keep[stop] = False
        for i in rows[keep] if n >= max_nodes else ():
            out[i] = InconclusiveCount(f"arc margin not above floor {floor_of[i]:.3e} "
                                       f"at {n} nodes on |z| = {rs[i]}")
        return keep

    _circle_grids(rows[0], len(gafs), start_nodes, max_nodes, step)
    return out


def _winding_result(total, mn, n):
    """The count of a certified walk's phase total, or why the total is no count."""
    winding = total / _TWO_PI
    count = int(round(winding))
    if abs(winding - count) > 1e-6:
        return InconclusiveCount(f"winding {winding} is not an integer to 1e-6")
    if count < 0:
        return InconclusiveCount(f"negative winding {count} for an analytic function")
    return CountResult(count=count, min_modulus_on_circle=mn, circle_nodes_used=n)


def count_with_retry(f, r, log_floor):
    """Certified winding count of the TruncatedGaf f in |z| < r, as (CountResult, 0).

    The one-case form of ``certified_counts``; an unresolved count raises.
    No code in the package calls it, and no count is retried: the function,
    its name and the 0 stay only because ``perfbench/tracer.py`` wraps it and
    reads that entry.
    """
    (res,) = certified_counts([(f, r, log_floor)])
    if isinstance(res, InconclusiveCount):
        raise res
    return res, 0


# Replicas drawn and counted together by ``count_replicas``, and replicas per
# worker task of the ``experiments`` runners: their draws and their start
# grids (1024 x 256 values) stay small whatever the number of keys.
REPLICA_BLOCK = 1024


def count_replicas(model: GafModel, r, degree, log_guard, seed, keys):
    """Certified zero counts in |z| < r of independent truncated draws.

    Replica k samples ``model`` at ``degree`` from ``stream(seed, k)``; blocks of
    ``REPLICA_BLOCK`` replicas are counted together by one ``certified_counts`` call.
    Every replica shares (model, degree, r), so a block reads the log floor
    ``log_guard + log_tail_sd`` once, from its first draw.  Returns one count
    per key, -1 where the replica's count is not certified.
    """
    keys = list(keys)
    counts = np.empty(len(keys), dtype=int)
    for lo in range(0, len(keys), REPLICA_BLOCK):
        gafs = [sample_truncated(model, r, stream(seed, k), degree=degree)
                for k in keys[lo: lo + REPLICA_BLOCK]]
        log_floor = log_guard + gafs[0].log_tail_sd
        results = certified_counts([(gaf, r, log_floor) for gaf in gafs])
        counts[lo: lo + len(results)] = [-1 if isinstance(res, InconclusiveCount) else res.count
                                         for res in results]
    return counts


def _initial_root_guesses(coeffs):
    """Starting points on circles read off the coefficient magnitude profile.

    Upper convex hull of (n, log |c_n|) over the nonzero terms, subnormal ones
    at their true logs; each hull edge contributes points on the circle whose
    radius matches the two dominant terms trading places (its log is kept
    within the float range).
    """
    with np.errstate(divide="ignore"):
        logm = np.log(np.abs(coeffs))
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
    edges = list(zip(hull[:-1], hull[1:]))
    cnt = np.array([k2 - k1 for (k1, _), (k2, _) in edges])
    radius = [math.exp(min(max((u1 - u2) / (k2 - k1), -708.0), 709.0))
              for (k1, u1), (k2, u2) in edges]
    seg = np.repeat(np.arange(len(cnt)), cnt)
    each = np.repeat(cnt, cnt)
    j = np.arange(len(seg)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    ang = _TWO_PI * (j + 0.375) / each + 0.61 * seg
    return np.repeat(radius, cnt) * np.exp(1j * ang)


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
    """``find_roots_many`` of the polynomials cs (degree >= 2, ascending), in one loop.

    ``at_zero[j]`` holds the roots at 0 that polynomial j had stripped.  The
    roots of all polynomials sit in one vector, polynomial after polynomial.
    A root is active until its correction falls below 1e-14 (1 + |z|), then
    frozen.  Each iteration evaluates the active roots in one Horner pass,
    and forms their Aberth sums per group of equal degree d: an active
    root's sum is one row of length d over all roots of its polynomial,
    frozen ones included, so every root takes the floating-point steps of a
    solve of its polynomial alone.  A frozen root is not evaluated again: a
    solve that evaluates it only takes a correction of 0, and could pull it
    back only if the step below 1e-14 (1 + |z|) that froze it had carried its
    values from finite to overflow.
    """
    degs = np.array([len(c) - 1 for c in cs])
    ends = np.cumsum(degs)
    starts = ends - degs
    rows = _value_and_slope_rows(cs)
    n = int(ends[-1])
    z = np.concatenate([_initial_root_guesses(c) for c in cs])
    ds, at, counts = np.unique(degs, return_index=True, return_counts=True)
    # each equal-degree group: its first root, degree and end
    groups = [(int(lo), int(d), int(lo + c * d)) for lo, d, c in zip(starts[at], ds, counts)]
    active = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            za, p, dp = _values_with_pullback(rows[:, np.concatenate([active, n + active])],
                                              z[active])
            z[active] = za
            dp = np.where(dp == 0, 1e-30, dp)
            w = p / dp
            s = np.empty_like(za)
            bounds = np.searchsorted(active, [hi for _, _, hi in groups])
            for (lo, d, hi), a, b in zip(groups, np.concatenate([[0], bounds[:-1]]), bounds):
                if a == b:
                    continue
                k = active[a:b] - lo
                diff = z[lo:hi].reshape(-1, d)[k // d]
                np.subtract(za[a:b, None], diff, out=diff)
                diff[np.arange(b - a), k % d] = np.inf  # the root itself
                s[a:b] = np.divide(1.0, diff, out=diff).sum(axis=1)
            denom = 1.0 - w * s
            denom = np.where(denom == 0, 1e-30, denom)
            corr = w / denom
            za = za - corr
            z[active] = za
            # a NaN correction keeps its root active
            active = active[~(np.abs(corr) <= 1e-14 * (1.0 + np.abs(za)))]
            if not len(active):
                break
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
    """All roots of every polynomial sum c_n z^n in ``polys``, solved together.

    Roots come from Aberth-Ehrlich iteration with two Newton polish steps,
    and pass when every residual |p(z)| is within ``residual_tol`` of the
    backward-error scale sum |c_n| |z|^n.  Returns one entry per polynomial:
    its roots, or a RootsDidNotConverge carrying the partial roots, so a
    failure stays with its own polynomial.  The polynomials of degree 2 and
    up are sorted by degree and cut into blocks of at most ROOT_BLOCK roots
    (a larger one is a block of its own); one Aberth loop runs per block,
    and every root comes out bit for bit as from a block of its polynomial
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


def find_gaf_roots(gafs, rs) -> list:
    """``find_roots_many`` of the row of every gafs[i] at rs[i], roots scaled from u to z.

    The polynomial in u = z/rs[i] (``models.coefficient_rows``) has no term
    that underflows or overflows; its roots, and the partial roots of a
    RootsDidNotConverge, come back as z = rs[i] u.
    """
    rows = coefficient_rows(gafs, rs)[0]
    solved = find_roots_many([row[: len(gaf.coeffs)] for gaf, row in zip(gafs, rows)])
    return [RootsDidNotConverge(str(x), roots=r * x.roots) if isinstance(x, RootsDidNotConverge)
            else r * x for x, r in zip(solved, rs)]


def count_in_disk(roots, r) -> int:
    return int(np.count_nonzero(np.abs(roots) < r))


def circle_mean_log_abs_many(cases, tol, start_nodes=128, max_nodes=MAX_NODES) -> list:
    """(1/2pi) integral of log |f(s e^{i theta})| d theta of every (f, s) in ``cases``.

    Node-doubling trapezoid rule on one circle walk: on a periodic uniform
    grid the rule is the plain node mean, which converges spectrally for
    analytic nonvanishing f, and a case stops when two levels agree within
    ``tol``.  The walk reads the rows in units of e^L and adds L to each
    mean.  Moduli |f|/e^L at or below HARD_FLOOR are a hard failure, since
    clamping would silently corrupt downstream bounds.  Returns one entry
    per case: its mean, or an InconclusiveCount for a modulus at the floor
    or a case unsettled at the node cap.
    """
    fs, ss = [f for f, _ in cases], [s for _, s in cases]
    out = [None] * len(fs)
    on_grid, log_scale, _, _ = _coefficient_rows(fs, ss)
    est = np.full(len(fs), np.nan)  # NaN, like no estimate, passes no test
    cap = max(max_nodes, 2 * start_nodes)

    def step(rows, vals):
        mods = np.abs(vals)
        low = mods.min(axis=1) <= HARD_FLOOR
        if low.any():
            mods[low] = 1.0  # no log of 0; these rows' means are not read
        new = np.log(mods).mean(axis=1)
        stop = low | (np.abs(new - est[rows]) < tol)
        est[rows] = new
        n = vals.shape[1]
        if n >= cap:
            for j in np.flatnonzero(~stop):
                out[rows[j]] = InconclusiveCount(
                    f"quadrature unstable at node cap ({n} nodes)")
        for j in np.flatnonzero(stop):
            out[rows[j]] = (InconclusiveCount("modulus below 1e-300 on the quadrature circle")
                            if low[j] else float(new[j] + log_scale[rows[j]]))
        return ~stop

    # at least two grids, so that every mean is checked against a refinement
    _circle_grids(on_grid, len(fs), start_nodes, cap, step)
    return out


def jensen_residuals(cases, *, quad_tol=1e-8) -> list:
    """Residual of the circular-mean identity for log |f| between radii r < R, per case.

    Jensen's formula equates mean log |f| at R less that at r with the
    integral of n(u)/u over [r, R], which is assembled exactly from the
    roots: a root of modulus u < R contributes log(R / max(u, r)).  The
    radii and constant terms of all (gaf, r, R) cases are checked first
    (ValueError); then ``find_gaf_roots`` solves every row at R at once, and
    ``circle_mean_log_abs_many`` takes the means at R and r of every case whose
    roots converged.  Returns one entry per case: its JensenCheck, which
    carries the roots so a caller that also counts them needs no second
    solve, or the RootsDidNotConverge or InconclusiveCount of the case.
    """
    for gaf, r, R in cases:
        if not (0 < r < R <= gaf.radius_of_use * (1.0 + DOMAIN_SLACK)):
            raise ValueError("need 0 < r < R <= radius_of_use")
        if gaf.coeffs[0] == 0:
            raise ValueError("f(0) = 0: the identity needs a nonzero constant term")
    solved = find_gaf_roots([gaf for gaf, _, _ in cases], [R for _, _, R in cases])
    means = iter(circle_mean_log_abs_many(
        [(gaf, s) for (gaf, r, R), roots in zip(cases, solved)
         if not isinstance(roots, RootsDidNotConverge) for s in (R, r)], quad_tol))
    out = []
    for (gaf, r, R), roots in zip(cases, solved):
        if isinstance(roots, RootsDidNotConverge):
            out.append(roots)
            continue
        mods = np.abs(roots)
        integral = float(np.sum(np.log(R / np.maximum(mods[mods < R], r))))
        mean_R, mean_r = next(means), next(means)
        failed = [m for m in (mean_R, mean_r) if isinstance(m, InconclusiveCount)]
        if failed:
            out.append(failed[0])
            continue
        out.append(JensenCheck(r=r, R=R, mean_log_R=mean_R, mean_log_r=mean_r,
                               integral_n_over_u=integral,
                               residual=abs(mean_R - mean_r - integral), roots=roots))
    return out


# Relative slack of the circle-maximum certificate: ``max_modulus`` reads the
# least grid whose sampling factor sec(pi d/(2N)) is within it.
MAX_SLACK = 1e-4


def max_modulus(gaf: TruncatedGaf, r, weight=None) -> float:
    """The log of a proved upper bound on max |sum_k weight_k a_k sigma_k z^k| over |z| = r.

    The bound is ``_circle_max`` of the row c_k of gaf at r on N nodes,
    sec(pi d/(2N)) (max over the nodes + E) with d = gaf.degree, N the least
    power of two with N > d and sec(pi d/(2N)) <= 1 + MAX_SLACK (4096 at
    d = 32), plus L.  ``weight`` (all ones by default) has one entry per
    coefficient.
    """
    d = gaf.degree
    n = 1
    while n <= d or math.cos(math.pi * d / (2 * n)) * (1.0 + MAX_SLACK) < 1.0:
        n *= 2
    on_grid, log_scale, size, reach = _coefficient_rows([gaf], [r])
    bound = _circle_max(on_grid, np.zeros(1, dtype=int), n, d, weight,
                        size if weight is None else size * weight, reach)
    with np.errstate(divide="ignore"):
        return float(np.log(bound[0]) + log_scale[0])
