"""Measuring process of the benchmark; ``run.py`` starts it, one per sample.

It imports ``gafzeros`` from the checkout (``run.py`` puts ``src`` on
``PYTHONPATH``), validates the workload's configs, runs passes of the
workload until ``--seconds`` have passed, checks every pass's CSVs, and
prints one JSON line with its raw measurements.  With ``--probe`` it stops
after config validation and serves as a set-up time sample.

Reference timing.  On a shared host the speed of one vCPU swings by 20-50%
within seconds and drifts over minutes, with no steal time to show for it,
so a raw time reads the neighbours as much as the program.  Before each
config and after the last one the process times ``reference()``, a fixed
kernel of small numpy calls written here, never changed and independent of
``gafzeros`` (configs shorter than ``MIN_SEGMENT_S`` are grouped with the
next ones).  Each config's time is divided by the mean of the two reference
times around it; summed over a pass, this gives the pass time in reference
units, which a program change moves and the host's speed mostly does not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import workloads
from tracer import Tracer

OUT_DIR = ".perfbench_out"
MIN_SEGMENT_S = 0.5  # configs run back to back until this much time has passed


def _versions():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def reference() -> tuple[float, float]:
    """Time the fixed reference kernel; returns (wall seconds, CPU seconds).

    Small complex numpy calls from a Python loop, the mix the workloads run;
    about 0.1 s on an idle 2-core Xeon.  numpy is imported here, not at the
    top, so that the set-up samples time its import as part of gafzeros'.
    """
    import numpy as np
    rng = np.random.default_rng(12345)
    z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    coef = rng.standard_normal(41)
    c0 = time.process_time()
    t0 = time.perf_counter()
    for _ in range(1000):
        v = np.polyval(coef, z)
        np.log(np.abs(v)).max()
    return time.perf_counter() - t0, time.process_time() - c0


class Pass:
    """One run through every config of the workload, timed, then checked.

    ``wall_s``/``cpu_s`` are raw seconds summed over the configs;
    ``wall_ref``/``cpu_ref`` are the same in reference units (see the module
    docstring); the reference runs themselves are in neither.
    """

    def __init__(self, ex, cfgs, runs, out_dir):
        self.problems: list[str] = []
        self.failed = 0
        self.items = sum(workloads.items(c) for c in cfgs)
        digest = hashlib.sha256()
        self.wall_s = self.cpu_s = 0.0
        self.wall_ref = self.cpu_ref = 0.0
        self.ref_wall_s: list[float] = []
        artifacts = []
        ref = reference()
        seg_wall = seg_cpu = 0.0
        for i, run_cfg in enumerate(runs):
            target = os.path.join(out_dir, str(i))
            shutil.rmtree(target, ignore_errors=True)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                artifacts.append(ex.run(run_cfg, target))
            except ex.NumericFailure as exc:
                artifacts.append(None)
                self.problems.append(f"config {i}: numeric failure: {exc}")
            seg_wall += time.perf_counter() - t0
            seg_cpu += time.process_time() - cpu0
            if seg_wall < MIN_SEGMENT_S and i + 1 < len(runs):
                continue  # short configs share the reference timings around them
            after = reference()
            self.wall_s += seg_wall
            self.cpu_s += seg_cpu
            self.wall_ref += seg_wall / (0.5 * (ref[0] + after[0]))
            self.cpu_ref += seg_cpu / (0.5 * (ref[1] + after[1]))
            self.ref_wall_s.append(ref[0])
            ref = after
            seg_wall = seg_cpu = 0.0
        self.ref_wall_s.append(ref[0])
        for cfg, paths in zip(cfgs, artifacts):
            if paths is None:
                self.failed += workloads.items(cfg)
                continue
            texts = {}
            for p in paths:
                with open(p, "rb") as fh:
                    blob = fh.read()
                digest.update(os.path.basename(p).encode() + b"\0" + blob)
                texts[os.path.basename(p)] = blob.decode()
            failed, problems = workloads.check(cfg, texts)
            self.failed += failed
            self.problems += problems
        self.digest = digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    cfgs = workloads.configs(args.workload, args.seed, tiny=args.tiny)
    t0 = time.perf_counter()
    from gafzeros import experiments as ex
    t1 = time.perf_counter()
    runs = [ex.RunConfig.from_dict(c) for c in cfgs]
    t2 = time.perf_counter()
    result = {"ready_monotonic": time.monotonic(), "import_s": t1 - t0, "config_s": t2 - t1}
    if args.probe:
        print(json.dumps(result))
        return 0
    if not os.path.realpath(ex.__file__).startswith(os.path.realpath("src") + os.sep):
        raise SystemExit(f"gafzeros was imported from {ex.__file__}, not from ./src")

    out_dir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    passes, traced, layers = [], [], []
    reference()  # warm-up
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            began = time.perf_counter()
            if tracer is None:
                passes.append(Pass(ex, cfgs, runs, out_dir))
            else:
                # untraced and traced passes alternate
                passes.append(Pass(ex, cfgs, runs, out_dir))
                tracer.reset()
                tracer.install()
                try:
                    p = Pass(ex, cfgs, runs, out_dir)
                finally:
                    tracer.uninstall()
                traced.append(p)
                layers.append(tracer.layer_metrics(p.wall_s))
            # stop when another round would end further past the deadline than
            # stopping now falls short of it
            now = time.perf_counter()
            if now + 0.5 * (now - began) >= deadline:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    every = passes + traced
    problems = sorted({q for p in every for q in p.problems})
    digests = sorted({p.digest for p in every})
    if len(digests) > 1:
        problems.append(f"passes of one run gave {len(digests)} different CSV digests")
    result.update({
        "versions": _versions(),
        "wall_s": [p.wall_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "wall_ref": [p.wall_ref for p in passes],
        "cpu_ref": [p.cpu_ref for p in passes],
        "reference_s": [t for p in passes for t in p.ref_wall_s],
        "items": passes[0].items,
        "attempted": sum(p.items for p in every),
        "failed": sum(p.failed for p in every),
        "problems": problems,
        "csv_sha256": digests[0],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write_spans(spans_file)
        layer = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        # traced minus untraced pass time, taken in reference units (raw seconds
        # of neighbouring passes differ by more than the overhead) and turned
        # back into seconds at the run's median reference time
        layer["trace.overhead_s"] = (
            (statistics.median(p.wall_ref for p in traced)
             - statistics.median(p.wall_ref for p in passes))
            * statistics.median(t for p in passes for t in p.ref_wall_s))
        result.update({"layers": layer, "traced_wall_s": [p.wall_s for p in traced],
                       "spans_file": spans_file, "spans": len(tracer.spans)})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
