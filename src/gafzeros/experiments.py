"""Reproducible experiment drivers behind the command-line interface.

A run is (experiment name, JSON config, output directory).  Every output row
carries the config hash and master seed; identical configs give byte-identical
artifacts regardless of worker count, because replicas are chunked on a fixed
grid and each chunk owns a spawn-keyed RNG stream.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bounds, events, models, radial, zeros
from .models import GafModel
from .radial import RadialEnsemble

EXPERIMENTS = ("scatter", "mc-tail", "exact-tail", "event-bound",
               "exponent-fit", "jensen-check", "intensity-check", "kappa")

CHUNK = 1024  # replicas per worker task; fixed so results ignore thread count


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


class NumericFailure(RuntimeError):
    """An experiment failed numerically (propagated module error)."""


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def emit_csv(path, header, rows):
    """Write rows as CSV: fixed column order, 17 significant digits, LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if len(row) != len(header):
                raise ValueError("row width does not match header")
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class RunConfig:
    experiment: str
    seed: int
    params: dict
    threads: int = 1
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict, *, experiment: str | None = None,
                  seed_override: int | None = None, threads: int | None = None):
        if not isinstance(data, dict):
            raise ConfigError("config: top level must be a JSON object")
        name = data.get("experiment", experiment)
        if name is None:
            raise ConfigError("config.experiment: missing")
        if experiment is not None and name != experiment:
            raise ConfigError(f"config.experiment: {name!r} does not match "
                              f"the invoked subcommand {experiment!r}")
        if name not in EXPERIMENTS:
            raise ConfigError(f"config.experiment: unknown experiment {name!r}")
        seed = seed_override if seed_override is not None else data.get("seed")
        if seed is None:
            raise ConfigError("config.seed: missing (seeds are mandatory, "
                              "there is no entropy default)")
        if not isinstance(seed, int) or seed < 0:
            raise ConfigError("config.seed: must be a nonnegative integer")
        t = threads if threads is not None else data.get("threads", 1)
        if not isinstance(t, int) or t < 1:
            raise ConfigError("config.threads: must be a positive integer")
        params = {k: v for k, v in data.items()
                  if k not in ("experiment", "seed", "threads")}
        cfg = cls(experiment=name, seed=seed, params=params, threads=t)
        # threads is an execution knob, not part of the scientific identity
        cfg.raw = {"experiment": name, "seed": seed, **params}
        return cfg

    def require(self, key, typ, *, cond=None, msg=""):
        if key not in self.params:
            raise ConfigError(f"config.{key}: missing")
        v = self.params[key]
        if typ is float and isinstance(v, int):
            v = float(v)
        if not isinstance(v, typ):
            raise ConfigError(f"config.{key}: expected {getattr(typ, '__name__', typ)}")
        if cond is not None and not cond(v):
            raise ConfigError(f"config.{key}: {msg}")
        return v

    def optional(self, key, default):
        return self.params.get(key, default)


def _model_from(cfg: RunConfig, key="model") -> GafModel:
    name = cfg.require(key, str)
    if name == "planar":
        return GafModel.planar()
    if name == "hyperbolic":
        rho = cfg.require("rho", float, cond=lambda v: v > 0, msg="rho must be > 0")
        return GafModel.hyperbolic(rho)
    raise ConfigError(f"config.{key}: must be 'planar' or 'hyperbolic'")


def _ensemble_from(cfg: RunConfig, key="ensemble") -> RadialEnsemble:
    name = cfg.require(key, str)
    try:
        return {"ginibre": RadialEnsemble.GINIBRE,
                "hyperbolic-one": RadialEnsemble.HYPERBOLIC_ONE}[name]
    except KeyError:
        raise ConfigError(f"config.{key}: must be 'ginibre' or 'hyperbolic-one'") from None


def _radius_list(cfg: RunConfig, key="r"):
    v = cfg.params.get(key)
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return [float(v)]
    if isinstance(v, list) and v and all(isinstance(x, (int, float)) for x in v):
        return [float(x) for x in v]
    raise ConfigError(f"config.{key}: must be a number or a nonempty list of numbers")


# ----------------------------------------------------------------------------
# experiments


def _run_scatter(cfg: RunConfig, out_dir, tag):
    r = cfg.require("r", float, cond=lambda v: v > 0, msg="must be > 0")
    m = cfg.require("m", int, cond=lambda v: v >= 1, msg="must be >= 1")
    n_samples = cfg.optional("samples", 1)
    clip = float(cfg.optional("clip_radius", 3.0 * r))
    anchor_alpha = cfg.optional("anchor_alpha", None)
    ev = events.build_event(events.EventKind.PLANAR_DOMINATION, r=r, m=m,
                            anchor_alpha=anchor_alpha)
    rows = []
    for i in range(n_samples):
        draw = events.conditioned_sample(ev, models.stream(cfg.seed, 2 * i))
        valid = events.verify_domination(ev, draw)
        roots = zeros.find_roots(models.make_truncated(ev.model, draw, r).weighted_coefficients)
        for z in roots[np.abs(roots) <= clip]:
            rows.append(["conditioned", i, z.real, z.imag, valid, tag, cfg.seed])
        free = models.sample_coefficients(models.stream(cfg.seed, 2 * i + 1), draw.degree)
        roots = zeros.find_roots(models.make_truncated(ev.model, free, r).weighted_coefficients)
        for z in roots[np.abs(roots) <= clip]:
            rows.append(["unconditioned", i, z.real, z.imag, False, tag, cfg.seed])
    path = os.path.join(out_dir, "scatter.csv")
    emit_csv(path, ["point_set", "sample", "re", "im", "domination_verified",
                    "config_hash", "seed"], rows)
    return [path]


def _count_chunk(args):
    (model, r, degree, guard, seed, block, count) = args
    start = block * CHUNK
    counts, retries = zeros.count_replicas(model, r, degree, guard, seed,
                                           range(start, start + count))
    return block, counts, retries


def _replica_counts(cfg: RunConfig, model: GafModel, r: float, replicas: int):
    """Certified counts of replicas 0..replicas-1 (-1 if unresolved) and their retries."""
    degree = models.choose_truncation(model, r)
    guard = float(cfg.optional("tail_guard", 100.0))
    results = _map_blocks(_count_chunk, (model, r, degree, guard, cfg.seed), replicas,
                          cfg.threads)
    return (np.concatenate([c for _, c, _ in results]),
            sum(x for _, _, x in results))


def _run_mc_tail(cfg: RunConfig, out_dir, tag):
    target_name = cfg.require("target", str)
    r = cfg.require("r", float, cond=lambda v: v > 0, msg="must be > 0")
    m = cfg.require("m", int, cond=lambda v: v >= 0, msg="must be >= 0")
    trials = cfg.require("trials", int, cond=lambda v: v >= 1, msg="must be >= 1")
    level = float(cfg.optional("level", 0.99))
    if target_name in ("ginibre", "hyperbolic-one"):
        ens = {"ginibre": RadialEnsemble.GINIBRE,
               "hyperbolic-one": RadialEnsemble.HYPERBOLIC_ONE}[target_name]
        est = events.direct_mc_tail(ens, r, m, trials, cfg.seed, level=level)
    else:
        if target_name not in ("planar", "hyperbolic"):
            raise ConfigError("config.target: must be one of planar, hyperbolic, "
                              "ginibre, hyperbolic-one")
        counts, retries = _replica_counts(cfg, _model_from(cfg, "target"), r, trials)
        est = events.mc_tail_estimate(int((counts >= m).sum()), trials, level, cfg.seed,
                                      retries=retries,
                                      unresolved_as_failure=int((counts < 0).sum()))
    extras = est.extras
    path = os.path.join(out_dir, "mc_tail.csv")
    emit_csv(path, ["target", "r", "m", "trials", "hits", "log_p", "log_lo",
                    "log_hi", "retries", "unresolved", "config_hash", "seed"],
             [[target_name, r, m, trials, extras["hits"], est.log_p, est.log_lo, est.log_hi,
               extras.get("retries", 0), extras.get("unresolved_as_failure", 0), tag,
               cfg.seed]])
    return [path]


def _run_exact_tail(cfg: RunConfig, out_dir, tag):
    ens = _ensemble_from(cfg)
    radii = _radius_list(cfg)
    m_min = cfg.require("m_min", int, cond=lambda v: v >= 0, msg="must be >= 0")
    m_max = cfg.require("m_max", int, cond=lambda v: v >= m_min,
                        msg="must be >= m_min")
    ms = range(m_min, m_max + 1)
    rows = []
    for r in radii:
        for m, br in zip(ms, radial.tail_log_brackets(ens, r, ms)):
            if ens is RadialEnsemble.GINIBRE and m >= max(1.0, r * r):
                blo, bhi = bounds.ginibre_tail_brackets(r, m)
                contained = blo <= br.log_lower <= bhi
            elif ens is RadialEnsemble.HYPERBOLIC_ONE:
                blo, bhi = bounds.hyperbolic_one_tail_brackets(r, m)
                contained = blo <= br.log_lower <= bhi
            else:
                blo = bhi = float("nan")
                contained = True
            rows.append([ens.value, r, m, br.log_lower, br.log_upper,
                         blo, bhi, contained, tag, cfg.seed])
    path = os.path.join(out_dir, "exact_tail.csv")
    emit_csv(path, ["ensemble", "r", "m", "log_p_lower", "log_p_upper",
                    "bound_lower", "bound_upper", "contained", "config_hash",
                    "seed"], rows)
    return [path]


def _run_event_bound(cfg: RunConfig, out_dir, tag):
    kind_name = cfg.require("kind", str)
    kinds = {k.value: k for k in events.EventKind}
    if kind_name not in kinds:
        raise ConfigError(f"config.kind: must be one of {sorted(kinds)}")
    kind = kinds[kind_name]
    radii = _radius_list(cfg)
    rows = []
    for r in radii:
        if kind in (events.EventKind.VERY_LARGE_DOMINATION,
                    events.EventKind.MODERATE_GROUPED):
            alpha = cfg.require("alpha", float)
            gamma = cfg.require("gamma", float)
            ev = events.build_event(kind, r=r, alpha=alpha, gamma=gamma)
            regime = (bounds.ExponentRegime.VERY_LARGE
                      if kind is events.EventKind.VERY_LARGE_DOMINATION
                      else bounds.ExponentRegime.MODERATE)
            scale = bounds.predicted_exponent(regime, alpha=alpha, gamma=gamma, r=r)
        else:
            m = cfg.require("m", int, cond=lambda v: v >= 1, msg="must be >= 1")
            if kind is events.EventKind.HYPERBOLIC_DOMINATION:
                rho = cfg.require("rho", float, cond=lambda v: v > 0,
                                  msg="rho must be > 0")
                ev = events.build_event(kind, GafModel.hyperbolic(rho), r=r, m=m)
                scale = bounds.predicted_exponent(
                    bounds.ExponentRegime.HYPERBOLIC_LOWER_CONSTRUCTIVE, m=m, r=r)
            else:
                ev = events.build_event(kind, r=r, m=m)
                scale = bounds.predicted_exponent(
                    bounds.ExponentRegime.PLANAR_OVERCROWD, m=max(m, 2))
        detail = events.event_log_prob_detail(ev)
        dominant = min(detail.by_block.values())
        rows.append([kind.value, r, ev.m, detail.total, detail.bound_form,
                     dominant, scale, detail.total / scale, tag, cfg.seed])
    path = os.path.join(out_dir, "event_bound.csv")
    emit_csv(path, ["kind", "r", "m", "log_prob", "log_prob_bound_form",
                    "dominant_block_log_prob", "predicted_scale",
                    "ratio_to_scale", "config_hash", "seed"], rows)
    return [path]


def _run_exponent_fit(cfg: RunConfig, out_dir, tag):
    ens = _ensemble_from(cfg)
    r = cfg.require("r", float, cond=lambda v: v > 0, msg="must be > 0")
    m_grid = cfg.require("m_grid", list)
    if not all(isinstance(m, int) and m >= 1 for m in m_grid) or len(m_grid) < 3:
        raise ConfigError("config.m_grid: need >= 3 positive integers")
    basis = cfg.optional("basis", "m2logm+m2")
    pts = []
    point_rows = []
    for m, br in zip(m_grid, radial.tail_log_brackets(ens, r, m_grid)):
        pts.append((m, -br.log_lower))
        point_rows.append([ens.value, r, m, br.log_lower, br.log_upper, tag, cfg.seed])
    fit = events.exponent_fit(pts, basis)
    p1 = emit_csv(os.path.join(out_dir, "exponent_points.csv"),
                  ["ensemble", "r", "m", "log_p_lower", "log_p_upper",
                   "config_hash", "seed"], point_rows)
    fit_rows = [[ens.value, r, basis, i, c, fit.max_rel_residual, tag, cfg.seed]
                for i, c in enumerate(fit.coefficients)]
    p2 = emit_csv(os.path.join(out_dir, "exponent_fit.csv"),
                  ["ensemble", "r", "basis", "coefficient_index", "coefficient",
                   "max_rel_residual", "config_hash", "seed"], fit_rows)
    return [p1, p2]


def _jensen_chunk(args):
    (r_lo, r_hi, ratio, quad_tol, guard, seed, block, count) = args
    model = GafModel.planar()
    out = []
    for j in range(count):
        rng = models.stream(seed, block * CHUNK + j)
        r = r_lo + (r_hi - r_lo) * rng.random()
        big_r = ratio * r
        gaf = models.sample_truncated(model, big_r, rng)
        floor = guard * gaf.tail_sd
        try:
            res, _ = zeros.count_with_retry(gaf, r, floor)
            check = zeros.jensen_residual(gaf, r, big_r, quad_tol=quad_tol)
            root_count = zeros.count_in_disk(check.roots, r)
            ineq = res.count * math.log(big_r / r) <= check.integral_n_over_u + 1e-9
            out.append((block * CHUNK + j, r, big_r, res.count, root_count,
                        check.residual, ineq, True))
        except (zeros.InconclusiveCount, zeros.RootsDidNotConverge):
            out.append((block * CHUNK + j, r, big_r, -1, -1, float("nan"),
                        False, False))
    return block, out


def _run_jensen_check(cfg: RunConfig, out_dir, tag):
    trials = cfg.require("trials", int, cond=lambda v: v >= 1, msg="must be >= 1")
    r_lo = float(cfg.optional("r_min", 0.5))
    r_hi = float(cfg.optional("r_max", 3.0))
    if not 0 < r_lo < r_hi:
        raise ConfigError("config.r_min/r_max: need 0 < r_min < r_max")
    ratio = float(cfg.optional("radius_ratio", 1.25))
    quad_tol = float(cfg.optional("quad_tol", 1e-8))
    guard = float(cfg.optional("tail_guard", 100.0))
    results = _map_blocks(_jensen_chunk, (r_lo, r_hi, ratio, quad_tol, guard, cfg.seed),
                          trials, cfg.threads)
    rows = []
    for _, chunk_rows in results:
        for (idx, r, big_r, count, root_count, resid, ineq, ok) in chunk_rows:
            rows.append([idx, r, big_r, count, root_count, resid, ineq, ok,
                         tag, cfg.seed])
    path = os.path.join(out_dir, "jensen_check.csv")
    emit_csv(path, ["trial", "r", "R", "winding_count", "root_count",
                    "jensen_residual", "count_inequality_ok", "certified",
                    "config_hash", "seed"], rows)
    return [path]


def _run_intensity_check(cfg: RunConfig, out_dir, tag):
    model = _model_from(cfg)
    r = cfg.require("r", float, cond=lambda v: v > 0, msg="must be > 0")
    samples = cfg.require("samples", int, cond=lambda v: v >= 1, msg="must be >= 1")
    counts, _ = _replica_counts(cfg, model, r, samples)
    ok = counts[counts >= 0]
    n_ok = len(ok)
    mean = int(ok.sum()) / n_ok
    var = int((ok * ok).sum()) / n_ok - mean * mean
    stderr = math.sqrt(max(var, 0.0) / n_ok)
    expected = models.expected_count(model, r)
    path = os.path.join(out_dir, "intensity_check.csv")
    emit_csv(path, ["model", "r", "samples", "resolved", "mean_count",
                    "expected", "stderr", "config_hash", "seed"],
             [[model.kind.value, r, samples, n_ok, mean, expected, stderr, tag, cfg.seed]])
    return [path]


def _run_kappa(cfg: RunConfig, out_dir, tag):
    radii = _radius_list(cfg)
    grid_points = cfg.optional("grid_points", 10**6)
    rows = []
    for r in radii:
        if not 0 < r < 1:
            raise ConfigError("config.r: kappa needs 0 < r < 1")
        k = bounds.kappa(r)
        eps = bounds.kappa_argmax(r)
        grid = np.exp(np.linspace(math.log(1e-12), math.log(r) - 1e-9, int(grid_points)))
        vals = (((r - grid) / (r + grid)) ** 2) / (-np.log(grid))
        gv = float(vals.max())
        rows.append([r, k, eps, gv, abs(k - gv), tag, cfg.seed])
    path = os.path.join(out_dir, "kappa.csv")
    emit_csv(path, ["r", "kappa", "eps_argmax", "grid_value", "abs_diff",
                    "config_hash", "seed"], rows)
    return [path]


_RUNNERS = {
    "scatter": _run_scatter,
    "mc-tail": _run_mc_tail,
    "exact-tail": _run_exact_tail,
    "event-bound": _run_event_bound,
    "exponent-fit": _run_exponent_fit,
    "jensen-check": _run_jensen_check,
    "intensity-check": _run_intensity_check,
    "kappa": _run_kappa,
}


def _map_blocks(fn, head, total, threads):
    """Run ``fn(head + (block, count))`` over the CHUNK grid of replicas 0..total-1.

    Returns the results sorted by block index.
    """
    blocks = [(*head, b, min(CHUNK, total - b * CHUNK))
              for b in range((total + CHUNK - 1) // CHUNK)]
    if threads <= 1 or len(blocks) <= 1:
        results = [fn(b) for b in blocks]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(fn, blocks))
    return sorted(results, key=lambda t: t[0])


def run(cfg: RunConfig, out_dir: str) -> list[str]:
    """Execute one experiment; returns the artifact paths."""
    os.makedirs(out_dir, exist_ok=True)
    tag = config_hash(cfg.raw)
    try:
        return _RUNNERS[cfg.experiment](cfg, out_dir, tag)
    except ConfigError:
        raise
    except (zeros.InconclusiveCount, zeros.RootsDidNotConverge,
            events.EventConstructionError, ValueError, RuntimeError) as exc:
        raise NumericFailure(f"{cfg.experiment}: {exc}") from exc
