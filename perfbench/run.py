"""Benchmark of the gafzeros experiments, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload roots-jensen --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): roots-jensen and exact-tails.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give a record of the run
(machine, versions, seed, why the workload exists, scope, CSV digest) and
every metric by name and unit.  The exit code is 1 when an output check
fails and 2 when the checkout has no ``src/gafzeros``.

Each sample runs in a fresh interpreter (``measure.py``), so set-up time is
measured from process start to the first ``experiments.run`` call: several
set-up-only processes are started and the median is reported.

Times of the passes are reported in reference units: ``wall_ref`` and
``cpu_ref`` are a pass's wall and CPU time, config by config, divided by the
time of a fixed reference kernel run around each config (``measure.py`` says
why), and ``items_per_ref`` is items over ``wall_ref``.  The raw seconds
(``wall_s``, ``cpu_s``, ``items_per_s``) and the reference kernel's own time
(``reference_s``) are printed too, and are per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 4  # set-up-only processes; the measuring process is one more sample
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "items_per_ref": "1/ref",
                    "cpu_ref": "ref", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name == "items_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("share"):
        return "ratio"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("margin_log_p01", "width_max", "residual_max")):
        return "ln"
    return "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spawn(args: list[str], env: dict, timeout: float) -> tuple[float, dict]:
    """Run ``measure.py`` in a fresh interpreter; returns its start time and its JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), *args]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"measuring process exceeded {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"measuring process failed with exit code {proc.returncode}")
    return start, json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for a smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join("src", "gafzeros", "__init__.py")):
        print("error: run from the root of a gafzeros checkout (no src/gafzeros here)",
              file=sys.stderr)
        return 2

    began = time.monotonic()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.size == "tiny":
        common.append("--tiny")

    setup = []
    for _ in range(SETUP_PROBES if args.size == "full" else 1):
        start, probe = spawn(common + ["--probe"], env, 60.0)
        setup.append((probe["ready_monotonic"] - start, probe))
    remaining = TIME_LIMIT_S - (time.monotonic() - began)
    start, res = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                       env, remaining)
    setup.append((res["ready_monotonic"] - start, res))

    setup_s = statistics.median(s for s, _ in setup)
    walls = res["wall_s"]
    correct = not res["problems"]
    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "panel_seed": workloads.PANEL_SEED, "size": args.size,
        "threads": 1, "load": "closed loop, one client, passes back to back",
        "scope": workloads.SCOPE,
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(), **res["versions"]},
        "passes": len(walls), "pass_wall_s": [round(w, 4) for w in walls],
        "pass_wall_ref": [round(w, 3) for w in res["wall_ref"]],
        "setup_samples": len(setup),
        "items_per_pass": res["items"], "csv_sha256": res["csv_sha256"],
        "computed_labels": "gflop_computed = 8*points*(degree+1); "
                           "dp_cells_computed = depth*(m+1); both counted, not measured",
    }
    print("record " + json.dumps(record))
    for problem in res["problems"]:
        print("check failed: " + problem)

    raw = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(res["items"] / w for w in walls),
        "cpu_s": statistics.median(res["cpu_s"]),
        "reference_s": statistics.median(res["reference_s"]),
    }
    if args.trace:
        metrics = {**res["layers"], **raw}
        metrics["setup.import_s"] = statistics.median(p["import_s"] for _, p in setup)
        metrics["setup.config_s"] = statistics.median(p["config_s"] for _, p in setup)
        units = {k: layer_unit(k) for k in metrics}
        print(f"traced passes {len(res['traced_wall_s'])}; "
              f"{res['spans']} spans of the last one written to {res['spans_file']}")
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_ref": statistics.median(res["wall_ref"]),
            "items_per_ref": statistics.median(res["items"] / w for w in res["wall_ref"]),
            "cpu_ref": statistics.median(res["cpu_ref"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        # the guide's high percentile needs ten samples beyond it; a run has fewer passes
        print(f"wall_ref is the median of {len(walls)} passes; no higher percentile "
              f"has ten passes beyond it")
        for name, value in raw.items():
            print(f"raw {name} = {value:.6g} {layer_unit(name)} (median; not a bounded metric)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    share = res["failed"] / res["attempted"]
    print(f"fail_share = {share:.6g} ({res['failed']} of {res['attempted']} items failed)")
    print(f"outputs_ok = {int(correct)}")
    print(f"csv_sha256 = {res['csv_sha256']}")
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
