"""Print the sha256 of every CSV a fixed set of experiment configs writes.

Usage, from anywhere:  python3 tools/csv_digests.py

The configs are every config of ``perfbench/workloads.py`` (both workloads,
full size) at seeds 1, 2 and 3, and a fixed extra list that reaches every
experiment: all four event kinds, Ginibre exact tails and exponent fits out
to r = 30, hyperbolic-one exact tails out to r = 0.999, where p_k is near 1,
scatter root solves of degree 69, 159 and 259, a jensen-check whose circle
means walk to the node cap in groups split under ``zeros.GRID_BUDGET``, the
replica and radial-sampler experiments at threads 1 and 2, two exact tails
whose refinement rounds resume a saved sweep (Ginibre r = 15 over m = 1..900,
hyperbolic-one r = 0.97 over m = 1..300), and a planar intensity-check at
threads 1 and 2 whose last replica task is short (1500 samples: one full
``experiments.REPLICA_BLOCK`` task and 476 more).  Each line is
``<sha256>  <label>/<file name>``, in a fixed order.  The code run is that of
the checkout holding this script, so to compare two commits, run it in each
checkout (copy it into one that lacks it) and diff the two outputs.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from gafzeros.experiments import RunConfig, run  # noqa: E402

EXTRA = [
    *({"experiment": "exact-tail", "seed": 1, "ensemble": "ginibre", "r": [r],
       "m_min": 1, "m_max": 60} for r in (0.5, 2.0, 15.0, 25.0, 30.0)),
    *({"experiment": "exponent-fit", "seed": 1, "ensemble": "ginibre", "r": r,
       "m_grid": [m, m + 20, m + 40]} for r, m in ((2.0, 20), (15.0, 300), (30.0, 950))),
    {"experiment": "exponent-fit", "seed": 1, "ensemble": "hyperbolic-one", "r": 0.7,
     "m_grid": [10, 20, 30, 40]},
    {"experiment": "event-bound", "seed": 1, "kind": "planar-domination", "r": [1.0, 3.0],
     "m": 50},
    {"experiment": "event-bound", "seed": 1, "kind": "hyperbolic-domination", "rho": 0.5,
     "r": [0.5, 0.9], "m": 30},
    {"experiment": "event-bound", "seed": 1, "kind": "very-large-domination",
     "r": [3.0, 6.0], "alpha": 2.5, "gamma": 0.5},
    {"experiment": "event-bound", "seed": 1, "kind": "moderate-grouped",
     "r": [10.0, 30.0, 60.0, 100.0], "alpha": 1.5, "gamma": 0.4},
    {"experiment": "event-bound", "seed": 1, "kind": "moderate-grouped",
     "r": [10.0, 40.0, 150.0], "alpha": 1.2, "gamma": 1.0},
    {"experiment": "event-bound", "seed": 1, "kind": "moderate-grouped",
     "r": [60.0, 100.0], "alpha": 1.8, "gamma": 2.0},
    {"experiment": "scatter", "seed": 1, "r": 2.0, "m": 16, "samples": 16},
    {"experiment": "kappa", "seed": 1, "r": [0.3, 0.9], "grid_points": 10000},
    *({**cfg, "threads": threads} for threads in (1, 2) for cfg in (
        {"experiment": "jensen-check", "seed": 1, "trials": 300},
        {"experiment": "intensity-check", "seed": 1, "model": "planar", "r": 3.0,
         "samples": 2048},
        {"experiment": "intensity-check", "seed": 1, "model": "hyperbolic", "rho": 1.0,
         "r": 0.7, "samples": 512},
        {"experiment": "mc-tail", "seed": 1, "target": "planar", "r": 1.5, "m": 5,
         "trials": 2048},
        {"experiment": "mc-tail", "seed": 1, "target": "ginibre", "r": 2.0, "m": 8,
         "trials": 4096},
    )),
    *({"experiment": "mc-tail", "seed": 1, "target": "hyperbolic-one", "r": 0.9, "m": 8,
       "trials": 4096, "threads": threads} for threads in (1, 2)),
    {"experiment": "exact-tail", "seed": 1, "ensemble": "hyperbolic-one",
     "r": [0.3, 0.99, 0.999], "m_min": 1, "m_max": 60},
    *({"experiment": "scatter", "seed": 1, "r": r, "m": m, "samples": 4}
      for r, m in ((4.0, 60), (6.0, 150), (8.0, 250))),
    {"experiment": "jensen-check", "seed": 1, "trials": 1024, "r_min": 3.0, "r_max": 6.0},
    {"experiment": "exact-tail", "seed": 1, "ensemble": "ginibre", "r": [15.0], "m_min": 1,
     "m_max": 900},
    {"experiment": "exact-tail", "seed": 1, "ensemble": "hyperbolic-one", "r": [0.97],
     "m_min": 1, "m_max": 300},
    *({"experiment": "intensity-check", "seed": 1, "model": "planar", "r": 3.0,
       "samples": 1500, "threads": threads} for threads in (1, 2)),
]


def labelled_configs():
    """(label, config) of every config, in print order."""
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for i, cfg in enumerate(workloads.configs(workload, seed)):
                yield f"{workload}/seed{seed}/{i:02d}-{cfg['experiment']}", cfg
    for i, cfg in enumerate(EXTRA):
        yield f"extra/{i:02d}-{cfg['experiment']}-threads{cfg.get('threads', 1)}", cfg


def main():
    for label, cfg in labelled_configs():
        with tempfile.TemporaryDirectory() as out:
            for path in run(RunConfig.from_dict(cfg), out):
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                print(f"{digest}  {label}/{os.path.basename(path)}", flush=True)


if __name__ == "__main__":
    main()
