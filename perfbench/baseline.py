"""Measure the benchmark's spread and record a baseline.

    python3 perfbench/baseline.py

Runs ``run.py`` once per seed 1..RUNS on every workload of BENCHMARK.json, untraced, then once
traced, and writes ``perfbench/baseline.json``: for every end-to-end metric
its median, quartiles and spread (quartile distance over median), each
command's median wall time, and the traced per-layer metrics.  It prints
each spread beside a third of the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, run detail) of one run.py invocation."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{out.stdout}")
    with open(BENCH_DIR / "out" / f"{workload}.run.json") as fh:
        return result, json.load(fh)


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    baseline: dict = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        command_walls: dict[str, list[float]] = {}
        for seed in range(1, RUNS + 1):
            result, detail = bench(workload, seed, seconds, 0)
            baseline["record"] = {k: v for k, v in detail["record"].items() if not k.startswith(("load", "busy"))}
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            for p in detail["passes"]:
                for c in p:
                    command_walls.setdefault(c["command"], []).append(c["wall_s"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()), flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            v = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            summary[metric["name"]] = {"median": statistics.median(v), "q1": q1, "q3": q3, "spread": spread, "values": v}
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
            print(f"{workload} {metric['name']}: median {statistics.median(v):.4f} spread {spread:.4f} "
                  f"(bound/3 {metric['bound'] / 3:.4f}) {flag}", flush=True)
        traced, _ = bench(workload, 1, seconds, 1)
        baseline["workloads"][workload] = {
            "end_to_end": summary,
            "command_wall_s": {k: statistics.median(v) for k, v in command_walls.items()},
            "per_layer_seed_1": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    with open(BENCH_DIR / "baseline.json", "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
