"""Smoke test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at tiny size in both modes and checks that each metric
named in BENCHMARK.json is printed by name with its unit, both on its own
line and in the final JSON line; that two runs with one seed give the same
CSV digest; and that the benchmark refuses to run where there is no
``src/gafzeros``.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def bench(*args, cwd="."):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def run_tiny(workload, trace, seed=1):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    if proc.returncode != 0:
        sys.exit(f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        sys.exit(f"BENCHMARK.json workloads {names} != {list(workloads.WORKLOADS)}")
    for workload in names:
        digests = set()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run_tiny(workload, trace)
            if not (result["correct"] and result["attempted"] >= 1):
                sys.exit(f"{workload} --trace {trace}: {result}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                sys.exit(f"{workload} --trace {trace}: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(wanted) - set(got))}, "
                         f"extra {sorted(set(got) - set(wanted))}, "
                         f"units {[(k, got[k], u) for k, u in wanted.items() if got.get(k, u) != u]}")
            for name, unit in wanted.items():
                if not any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines):
                    sys.exit(f"{workload} --trace {trace}: no line prints {name} in {unit}")
            digests |= {ln.split(" = ")[1] for ln in lines if ln.startswith("csv_sha256 = ")}
        if len(digests) != 1:
            sys.exit(f"{workload}: two runs with one seed gave CSV digests {sorted(digests)}")
        print(f"ok {workload}")

    bare = os.path.join(".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = bench("--workload", names[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("the benchmark ran in a directory without src/gafzeros")
    print("ok bare directory refused")


if __name__ == "__main__":
    main()
