"""Span tracer that wraps the public functions of the gafzeros modules.

Spans are recorded from the benchmark's side: every public function of
``models``, ``zeros``, ``radial``, ``bounds``, ``events`` and ``experiments``
(plus ``TruncatedGaf.__call__``, the per-point evaluation) is replaced by a
wrapper at every name that binds it in a loaded ``gafzeros`` module, so that
``from .zeros import count_with_retry`` in ``events`` is traced as well.
``_num`` is private and is timed inside its callers.

A span is (name, start, end, parent index); spans stay in memory and are
written out when the run ends.  Self time is a span's duration minus the
durations of its direct children (calls nest strictly in one thread).
Counters that need a call's arguments or result are kept per span name.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict

MODULES = ("models", "zeros", "radial", "bounds", "events", "experiments")

EVAL = "models.eval"  # span name of TruncatedGaf.__call__


def _percentile(values, q):
    """Nearest-rank percentile; 0 when nothing was recorded."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return float(ordered[k])


class Tracer:
    """Install with ``install()``, run traced work, ``uninstall()``, then ``layer_metrics()``."""

    def __init__(self):
        self.spans: list[list] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, probe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe(self.counts[name], args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every public function at each of its binding sites."""
        import gafzeros
        from gafzeros import models

        loaded = [m for k, m in sys.modules.items()
                  if k == "gafzeros" or k.startswith("gafzeros.")]
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"gafzeros.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj, _PROBES.get(name))
        for mod in loaded:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        call = models.TruncatedGaf.__call__
        self._patch(models.TruncatedGaf, "__call__", self._wrap(EVAL, call, _probe_eval))
        if gafzeros.events.count_with_retry is not gafzeros.zeros.count_with_retry:
            raise RuntimeError("a binding site of zeros.count_with_retry was missed")

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.errors.clear()
        self.counts.clear()

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per span name, and the summed top-level span time."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        own: dict[str, float] = defaultdict(float)
        top = 0.0
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            calls[name] += 1
            own[name] += (t1 - t0) - child[i]
            if parent < 0:
                top += t1 - t0
        return calls, own, top

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """The per-layer metrics of the spans recorded since the last reset."""
        calls, own, top = self.self_times()
        c = self.counts
        out: dict[str, float] = {}

        def timed(name):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = own.get(name, 0.0)

        timed(EVAL)
        out[f"{EVAL}.points"] = sum(p for p, _ in c[EVAL])
        out[f"{EVAL}.gflop_computed"] = sum(8.0 * p * (d + 1) for p, d in c[EVAL]) / 1e9
        timed("models.sample_truncated")
        timed("models.choose_truncation")

        timed("zeros.count_with_retry")
        out["zeros.count_with_retry.retries"] = sum(c["zeros.count_with_retry"])
        out["zeros.count_with_retry.inconclusive"] = self.errors.get("zeros.count_with_retry", 0)
        nodes = [n for n, _ in c["zeros.count_zeros_winding"]]
        margins = [m for _, m in c["zeros.count_zeros_winding"] if m is not None]
        out["zeros.count.nodes_p50"] = _percentile(nodes, 50)
        out["zeros.count.nodes_p99"] = _percentile(nodes, 99)
        out["zeros.count.nodes_max"] = float(max(nodes, default=0))
        out["zeros.count.margin_log_p01"] = _percentile(margins, 1)

        timed("zeros.find_roots")
        out["zeros.find_roots.failures"] = self.errors.get("zeros.find_roots", 0)
        degrees = c["zeros.find_roots"]
        out["zeros.find_roots.degree_mean"] = sum(degrees) / len(degrees) if degrees else 0.0
        timed("zeros.jensen_residual")
        out["zeros.jensen_residual.residual_max"] = max(c["zeros.jensen_residual"], default=0.0)
        timed("zeros.circle_mean_log_abs")
        timed("zeros.max_modulus")

        timed("radial.bernoulli_probs")
        out["radial.bernoulli_probs.depth_max"] = max(c["radial.bernoulli_probs"], default=0)
        timed("radial.poisson_binomial_tail_log")
        out["radial.poisson_binomial_tail_log.dp_cells_computed"] = \
            sum(c["radial.poisson_binomial_tail_log"])
        timed("radial.tail_log_bracket")
        out["radial.tail_log_bracket.width_max"] = max(c["radial.tail_log_bracket"], default=0.0)

        timed("bounds.ginibre_tail_brackets")
        timed("events.build_event")
        timed("events.event_log_prob_detail")
        out["events.exponent_fit.self_s"] = own.get("events.exponent_fit", 0.0)
        timed("events.conditioned_sample")
        timed("events.verify_domination")
        verdicts = c["events.verify_domination"]
        out["events.verify_domination.false_share"] = \
            verdicts.count(False) / len(verdicts) if verdicts else 0.0

        out["experiments.run.self_s"] = own.get("experiments.run", 0.0)
        timed("experiments.emit_csv")
        out["experiments.emit_csv.bytes"] = sum(c["experiments.emit_csv"])
        out["trace.top_level_share"] = top / wall_s if wall_s > 0 else 0.0
        return out

    def write_spans(self, path: str):
        """Write the recorded spans as tab-separated lines: name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


# -- counters read from a call's arguments or result ---------------------------

def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _probe_eval(acc, args, kwargs, out):
    gaf, z = args[0], _arg(args, kwargs, 1, "z")
    acc.append((int(getattr(z, "size", 1)), gaf.degree))


def _probe_winding(acc, args, kwargs, out):
    floor = _arg(args, kwargs, 2, "floor")
    margin = math.log(out.min_modulus_on_circle / floor) if floor > 0 else None
    acc.append((out.circle_nodes_used, margin))


def _probe_retry(acc, args, kwargs, out):
    acc.append(out[1])


def _probe_roots(acc, args, kwargs, out):
    acc.append(len(args[0]) - 1)


def _probe_jensen(acc, args, kwargs, out):
    acc.append(out.residual)


def _probe_profile(acc, args, kwargs, out):
    acc.append(out.size)


def _probe_dp(acc, args, kwargs, out):
    profile, m = args[0], _arg(args, kwargs, 1, "m")
    acc.append(profile.size * (m + 1))


def _probe_bracket(acc, args, kwargs, out):
    acc.append(out.log_upper - out.log_lower)


def _probe_domination(acc, args, kwargs, out):
    acc.append(bool(out))


def _probe_csv(acc, args, kwargs, out):
    acc.append(os.path.getsize(out))


_PROBES = {
    "zeros.count_zeros_winding": _probe_winding,
    "zeros.count_with_retry": _probe_retry,
    "zeros.find_roots": _probe_roots,
    "zeros.jensen_residual": _probe_jensen,
    "radial.bernoulli_probs": _probe_profile,
    "radial.poisson_binomial_tail_log": _probe_dp,
    "radial.tail_log_bracket": _probe_bracket,
    "events.verify_domination": _probe_domination,
    "experiments.emit_csv": _probe_csv,
}
