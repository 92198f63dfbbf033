"""Reproducible experiment drivers behind the command-line interface.

A run is (experiment name, JSON config, output directory).  Each runner reads
its fields through ``RunConfig.read`` and returns its tables; ``run`` alone
writes them, and adds the config hash and master seed to every row.
Identical configs give byte-identical artifacts regardless of worker count,
because replica k always draws from its own spawn-keyed RNG stream
``stream(seed, k)`` and the worker results are joined in replica order.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bounds, events, models, radial, zeros
from .events import EventKind
from .models import GafModel
from .radial import RadialEnsemble

_REQUIRED = object()
_MODELS = ("planar", "hyperbolic")
_ENSEMBLES = tuple(e.value for e in RadialEnsemble)
_FIT_BASES = tuple(events.FIT_BASES)


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


class NumericFailure(RuntimeError):
    """An experiment failed numerically (propagated module error)."""


def _fmt_bool(v) -> str:
    return "true" if v else "false"


def _fmt_float(v) -> str:
    return format(float(v), ".17g")


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return _fmt_bool(v)
    if isinstance(v, (float, np.floating)):
        return _fmt_float(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


# ``_fmt`` of the common cell types, looked up by exact type
_CELL_FORMATS = {bool: _fmt_bool, np.bool_: _fmt_bool, float: _fmt_float,
                 np.float64: _fmt_float, int: str, str: str}


def emit_csv(path, header, rows):
    """Write rows as CSV: fixed column order, 17 significant digits, LF endings."""
    fmt = _CELL_FORMATS.get
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if len(row) != len(header):
                raise ValueError("row width does not match header")
            fh.write(",".join([fmt(type(v), _fmt)(v) for v in row]) + "\n")
    return path


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _typed(v, typ):
    """``v`` as a ``typ``, or None if it is not one; JSON booleans are never numbers."""
    if isinstance(typ, list):
        if not isinstance(v, list):
            return None
        items = [_typed(x, typ[0]) for x in v]
        return None if any(x is None for x in items) else items
    if isinstance(v, bool):
        return None
    if typ is float and isinstance(v, int):
        return float(v)
    return v if isinstance(v, typ) else None


def _type_name(typ) -> str:
    if isinstance(typ, list):
        return f"a list of {_type_name(typ[0])} items"
    return {int: "an integer", float: "a number", str: "a string"}[typ]


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
        if _typed(seed, int) is None or seed < 0:
            raise ConfigError("config.seed: must be a nonnegative integer")
        t = threads if threads is not None else data.get("threads", 1)
        if _typed(t, int) is None or t < 1:
            raise ConfigError("config.threads: must be a positive integer")
        params = {k: v for k, v in data.items()
                  if k not in ("experiment", "seed", "threads")}
        cfg = cls(experiment=name, seed=seed, params=params, threads=t)
        # threads is an execution knob, not part of the scientific identity
        cfg.raw = {"experiment": name, "seed": seed, **params}
        return cfg

    def read(self, key, typ, *, default=_REQUIRED, cond=None, msg=""):
        """The value of field ``key``, checked; passing ``default`` makes the field optional.

        ``typ`` is int, float (integers widen to float), str, or ``[t]`` for a
        list of ``t``.  A value of the wrong type, or one failing ``cond``,
        raises ``ConfigError`` naming ``config.<key>``.  An absent optional
        field takes ``default``, which ``cond`` checks too unless it is None:
        a default that hangs on another field (``r_max`` above ``r_min``)
        can fail.
        """
        if key in self.params:
            v = _typed(self.params[key], typ)
            if v is None:
                raise ConfigError(f"config.{key}: expected {_type_name(typ)}")
        elif default is _REQUIRED:
            raise ConfigError(f"config.{key}: missing")
        else:
            v = default
        if v is not None and cond is not None and not cond(v):
            raise ConfigError(f"config.{key}: {msg}")
        return v


def _above(lo, name=None) -> dict:
    """The ``cond`` and ``msg`` of ``RunConfig.read`` for a value above ``lo``."""
    return {"cond": lambda v: v > lo, "msg": f"must be > {name or lo}"}


def _at_least(lo, name=None) -> dict:
    """The ``cond`` and ``msg`` of ``RunConfig.read`` for a value of at least ``lo``."""
    return {"cond": lambda v: v >= lo, "msg": f"must be >= {name or lo}"}


def _one_of(names: tuple) -> dict:
    """The ``cond`` and ``msg`` of ``RunConfig.read`` for one of ``names``."""
    return {"cond": names.__contains__, "msg": f"must be one of {', '.join(names)}"}


def _model_from(cfg: RunConfig, key="model") -> GafModel:
    if cfg.read(key, str, **_one_of(_MODELS)) == "planar":
        return GafModel.planar()
    return GafModel.hyperbolic(cfg.read("rho", float, **_above(0)))


def _ensemble_from(cfg: RunConfig, key="ensemble") -> RadialEnsemble:
    return RadialEnsemble(cfg.read(key, str, **_one_of(_ENSEMBLES)))


def _radius_list(cfg: RunConfig, key="r"):
    """Field ``key``, a positive radius or a nonempty list of them, as a list."""
    if not isinstance(cfg.params.get(key), list):
        return [cfg.read(key, float, **_above(0))]
    return cfg.read(key, [float], cond=lambda v: v and min(v) > 0,
                    msg="must be a nonempty list of positive numbers")


def _check_radii(law, radii):
    """ConfigError unless the library's domain check of ``law``, a radial
    ensemble or a model, accepts every radius of ``radii``."""
    check = radial._check_domain if isinstance(law, RadialEnsemble) else models._check_radius
    for r in radii:
        try:
            check(law, r)
        except ValueError as exc:
            raise ConfigError(f"config.r: {exc}") from exc


# The tail floor of a GAF count in units of the truncation's tail sd, the
# default ``tail_guard`` of every config.
MC_TAIL_GUARD = 100.0


def _log_tail_guard(cfg: RunConfig) -> float:
    """log of the ``tail_guard`` field, the count floor in truncation tail sds (log 0 = -inf)."""
    guard = cfg.read("tail_guard", float, default=MC_TAIL_GUARD,
                     cond=lambda v: 0 <= v < math.inf, msg="must be >= 0 and finite")
    return math.log(guard) if guard > 0 else -math.inf


# ----------------------------------------------------------------------------
# experiments: each returns its tables as (file name, header, rows)


def _run_scatter(cfg: RunConfig):
    r = cfg.read("r", float, **_above(0))
    m = cfg.read("m", int, **_at_least(1))
    n_samples = cfg.read("samples", int, default=1, **_at_least(1))
    clip = cfg.read("clip_radius", float, default=3.0 * r, **_above(0))
    anchor_alpha = cfg.read("anchor_alpha", float, default=None, **_above(-1))
    ev = events.build_event(EventKind.PLANAR_DOMINATION, r=r, m=m,
                            anchor_alpha=anchor_alpha)
    samples = []
    for i in range(n_samples):
        draw = events.conditioned_sample(ev, models.stream(cfg.seed, 2 * i))
        free = models.sample_coefficients(models.stream(cfg.seed, 2 * i + 1), len(draw) - 1)
        samples.append((draw, events.verify_domination(ev, draw), free))
    # the conditioned and the free polynomial of every sample, in one solve
    gafs = [models.TruncatedGaf(ev.model, a, r)
            for draw, _, free in samples for a in (draw, free)]
    solved = zeros.find_gaf_roots(gafs, [r] * len(gafs))
    rows = []
    for i, (_, valid, _) in enumerate(samples):
        for point_set, roots, flag in (("conditioned", solved[2 * i], valid),
                                       ("unconditioned", solved[2 * i + 1], False)):
            if isinstance(roots, zeros.RootsDidNotConverge):
                raise roots
            for z in roots[np.abs(roots) <= clip]:
                rows.append([point_set, i, z.real, z.imag, flag])
    return [("scatter.csv", ["point_set", "sample", "re", "im", "domination_verified"],
             rows)]


def _replica_counts(cfg: RunConfig, model: GafModel, r: float, replicas: int):
    """Certified counts of replicas 0..replicas-1, -1 where unresolved."""
    count = functools.partial(zeros.count_replicas, model, r, models.choose_truncation(model, r),
                              _log_tail_guard(cfg), cfg.seed)
    return np.concatenate(_map_blocks(count, replicas, cfg.threads))


def _run_mc_tail(cfg: RunConfig):
    target = cfg.read("target", str, **_one_of(_MODELS + _ENSEMBLES))
    r = cfg.read("r", float, **_above(0))
    m = cfg.read("m", int, **_at_least(0))
    trials = cfg.read("trials", int, **_at_least(1))
    level = cfg.read("level", float, default=0.99, cond=lambda v: 0 < v < 1,
                     msg="must be in (0, 1)")
    law = _ensemble_from(cfg, "target") if target in _ENSEMBLES else _model_from(cfg, "target")
    _check_radii(law, [r])
    if target in _ENSEMBLES:
        est = events.direct_mc_tail(law, r, m, trials, cfg.seed, level=level)
    else:
        counts = _replica_counts(cfg, law, r, trials)
        est = events.mc_tail_estimate(int((counts >= m).sum()), trials, level,
                                      unresolved=int((counts < 0).sum()))
    return [("mc_tail.csv",
             ["target", "r", "m", "trials", "hits", "log_p", "log_lo", "log_hi", "unresolved"],
             [[target, r, m, trials, est.hits, est.log_p, est.log_lo, est.log_hi,
               est.unresolved]])]


def _run_exact_tail(cfg: RunConfig):
    ens = _ensemble_from(cfg)
    radii = _radius_list(cfg)
    m_min = cfg.read("m_min", int, **_at_least(0))
    m_max = cfg.read("m_max", int, **_at_least(m_min, "m_min"))
    ms = range(m_min, m_max + 1)
    _check_radii(ens, radii)
    rows = []
    for r in radii:
        if ens is RadialEnsemble.GINIBRE:
            valid = [m for m in ms if m >= max(1.0, r * r)]
            analytic = dict(zip(valid, bounds.ginibre_tail_brackets(r, valid)))
        else:
            analytic = dict(zip(ms, bounds.hyperbolic_one_tail_brackets(r, ms)))
        for m, br in zip(ms, radial.tail_log_brackets(ens, r, ms)):
            if m in analytic:
                blo, bhi = analytic[m]
                contained = blo <= br.log_lower <= bhi
            else:
                blo = bhi = float("nan")
                contained = True
            rows.append([ens.value, r, m, br.log_lower, br.log_upper, blo, bhi, contained])
    return [("exact_tail.csv", ["ensemble", "r", "m", "log_p_lower", "log_p_upper",
                                "bound_lower", "bound_upper", "contained"], rows)]


def _run_event_bound(cfg: RunConfig):
    kind = EventKind(cfg.read("kind", str, **_one_of(tuple(k.value for k in EventKind))))
    radii = _radius_list(cfg)
    model = GafModel.planar()
    if kind in (EventKind.VERY_LARGE_DOMINATION, EventKind.MODERATE_GROUPED):
        params = {"alpha": cfg.read("alpha", float), "gamma": cfg.read("gamma", float)}
    else:
        params = {"m": cfg.read("m", int, **_at_least(1))}
        if kind is EventKind.HYPERBOLIC_DOMINATION:
            model = GafModel.hyperbolic(cfg.read("rho", float, **_above(0)))
    regime = {EventKind.PLANAR_DOMINATION: bounds.ExponentRegime.PLANAR_OVERCROWD,
              EventKind.HYPERBOLIC_DOMINATION:
                  bounds.ExponentRegime.HYPERBOLIC_LOWER_CONSTRUCTIVE,
              EventKind.VERY_LARGE_DOMINATION: bounds.ExponentRegime.VERY_LARGE,
              EventKind.MODERATE_GROUPED: bounds.ExponentRegime.MODERATE}[kind]
    rows = []
    for r in radii:
        try:
            events.check_event_domain(kind, model, r=r, **params)
        except ValueError as exc:
            raise ConfigError(f"config: {kind.value}: {exc}") from exc
        ev = events.build_event(kind, model, r=r, **params)
        if regime is bounds.ExponentRegime.PLANAR_OVERCROWD:
            scale = bounds.predicted_exponent(regime, m=max(params["m"], 2))
        else:
            scale = bounds.predicted_exponent(regime, r=r, **params)
        detail = events.event_log_prob_detail(ev)
        dominant = min(detail.by_block.values())
        rows.append([kind.value, r, ev.m, detail.total, detail.bound_form,
                     dominant, scale, detail.total / scale])
    return [("event_bound.csv", ["kind", "r", "m", "log_prob", "log_prob_bound_form",
                                 "dominant_block_log_prob", "predicted_scale",
                                 "ratio_to_scale"], rows)]


def _run_exponent_fit(cfg: RunConfig):
    ens = _ensemble_from(cfg)
    r = cfg.read("r", float, **_above(0))
    m_grid = cfg.read("m_grid", [int],
                      cond=lambda v: len(v) >= 3 and min(v) >= 1 and len(set(v)) == len(v),
                      msg="need >= 3 distinct positive integers")
    basis = cfg.read("basis", str, default="m2logm+m2", **_one_of(_FIT_BASES))
    _check_radii(ens, [r])
    pts = []
    point_rows = []
    for m, br in zip(m_grid, radial.tail_log_brackets(ens, r, m_grid)):
        pts.append((m, -br.log_lower))
        point_rows.append([ens.value, r, m, br.log_lower, br.log_upper])
    fit = events.exponent_fit(pts, basis)
    fit_rows = [[ens.value, r, basis, i, c, fit.max_rel_residual]
                for i, c in enumerate(fit.coefficients)]
    return [("exponent_points.csv", ["ensemble", "r", "m", "log_p_lower", "log_p_upper"],
             point_rows),
            ("exponent_fit.csv", ["ensemble", "r", "basis", "coefficient_index",
                                  "coefficient", "max_rel_residual"], fit_rows)]


def _jensen_chunk(r_lo, r_hi, ratio, quad_tol, log_guard, seed, keys):
    """Jensen-check rows of trials ``keys``: each drawn, all counted together, one root solve."""
    model = GafModel.planar()
    trials = []
    for trial in keys:
        rng = models.stream(seed, trial)
        r = r_lo + (r_hi - r_lo) * rng.random()
        big_r = ratio * r
        trials.append((trial, r, big_r, models.sample_truncated(model, big_r, rng)))
    counted = zeros.certified_counts([(gaf, r, log_guard + gaf.log_tail_sd)
                                      for _, r, _, gaf in trials])
    resolved = [not isinstance(c, zeros.InconclusiveCount) for c in counted]
    checks = iter(zeros.jensen_residuals([(gaf, r, big_r) for (_, r, big_r, gaf), ok
                                          in zip(trials, resolved) if ok], quad_tol=quad_tol))
    out = []
    for (trial, r, big_r, _), res, ok in zip(trials, counted, resolved):
        check = next(checks) if ok else None
        if isinstance(check, zeros.JensenCheck):
            count = res.count
            root_count = zeros.count_in_disk(check.roots, r)
            ineq = count * math.log(big_r / r) <= check.integral_n_over_u + 1e-9
            out.append((trial, r, big_r, count, root_count, check.residual, ineq, True))
        else:
            out.append((trial, r, big_r, -1, -1, float("nan"), False, False))
    return out


def _run_jensen_check(cfg: RunConfig):
    trials = cfg.read("trials", int, **_at_least(1))
    r_lo = cfg.read("r_min", float, default=0.5, **_above(0))
    r_hi = cfg.read("r_max", float, default=3.0, **_above(r_lo, "r_min"))
    ratio = cfg.read("radius_ratio", float, default=1.25, **_above(1))
    quad_tol = cfg.read("quad_tol", float, default=1e-8, **_above(0))
    chunk = functools.partial(_jensen_chunk, r_lo, r_hi, ratio, quad_tol, _log_tail_guard(cfg),
                              cfg.seed)
    chunks = _map_blocks(chunk, trials, cfg.threads)
    return [("jensen_check.csv", ["trial", "r", "R", "winding_count", "root_count",
                                  "jensen_residual", "count_inequality_ok", "certified"],
             [row for chunk in chunks for row in chunk])]


def _run_intensity_check(cfg: RunConfig):
    model = _model_from(cfg)
    r = cfg.read("r", float, **_above(0))
    samples = cfg.read("samples", int, **_at_least(1))
    _check_radii(model, [r])
    counts = _replica_counts(cfg, model, r, samples)
    ok = counts[counts >= 0]
    n_ok = len(ok)
    if n_ok == 0:
        raise NumericFailure(f"{samples} of {samples} replicas unresolved, no mean count")
    mean = int(ok.sum()) / n_ok
    var = int((ok * ok).sum()) / n_ok - mean * mean
    stderr = math.sqrt(max(var, 0.0) / n_ok)
    expected = models.expected_count(model, r)
    return [("intensity_check.csv", ["model", "r", "samples", "resolved", "mean_count",
                                     "expected", "stderr"],
             [[model.kind.value, r, samples, n_ok, mean, expected, stderr]])]


def _run_kappa(cfg: RunConfig):
    radii = _radius_list(cfg)
    grid_points = cfg.read("grid_points", int, default=10**6, **_at_least(1))
    rows = []
    for r in radii:
        if not 0 < r < 1:
            raise ConfigError("config.r: kappa needs 0 < r < 1")
        k = bounds.kappa(r)
        eps = bounds.kappa_argmax(r)
        grid = np.exp(np.linspace(math.log(1e-12), math.log(r) - 1e-9, grid_points))
        vals = (((r - grid) / (r + grid)) ** 2) / (-np.log(grid))
        gv = float(vals.max())
        rows.append([r, k, eps, gv, abs(k - gv)])
    return [("kappa.csv", ["r", "kappa", "eps_argmax", "grid_value", "abs_diff"], rows)]


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

EXPERIMENTS = tuple(_RUNNERS)


def _map_blocks(fn, total, threads):
    """``fn(keys)`` over the REPLICA_BLOCK-sized ranges of 0..total-1, in order."""
    size = zeros.REPLICA_BLOCK
    blocks = [range(lo, min(lo + size, total)) for lo in range(0, total, size)]
    if threads <= 1 or len(blocks) <= 1:
        return [fn(b) for b in blocks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, blocks))


def run(cfg: RunConfig, out_dir: str) -> list[str]:
    """Execute one experiment and write its tables; returns the artifact paths.

    Each table goes to ``out_dir`` under its file name, with the columns
    ``config_hash`` and ``seed`` added to its header and to every row.
    """
    os.makedirs(out_dir, exist_ok=True)
    try:
        tables = _RUNNERS[cfg.experiment](cfg)
    except ConfigError:
        raise
    except (zeros.InconclusiveCount, zeros.RootsDidNotConverge,
            events.EventConstructionError, ValueError, RuntimeError, ArithmeticError) as exc:
        raise NumericFailure(f"{cfg.experiment}: {exc}") from exc
    stamp = [config_hash(cfg.raw), cfg.seed]
    return [emit_csv(os.path.join(out_dir, name), [*header, "config_hash", "seed"],
                     ([*row, *stamp] for row in rows))
            for name, header, rows in tables]
