"""quadorbit benchmark: run one workload end to end and print its metrics.

    python3 perfbench/run.py --workload scan|certify|session|all [--seed N] [--seconds S] [--trace 0|1]

Load is a closed loop with a single client: each command runs as a fresh
``python -m quadorbit.cli`` child against the checkout's ``src/``, one at a
time, and its report is checked.  Passes over the workload's command list
repeat until ``--seconds`` have passed (at least ``MIN_PASSES``), with
interpreter-plus-import starts interleaved to measure set-up time.

The shared host's speed swings by up to half within seconds, in CPU time as
well as wall time, so the raw medians of whole runs spread by 15-30 % between runs.  A
calibration child (``CALIBRATION``: a fresh interpreter doing a fixed mix of
big-integer, dict and loop work, nothing from ``src/``) therefore runs at the
start of each pass, after every command and after every set-up start.
``wall_s`` is the median over passes of the pass wall time divided by the
median calibration time of that pass, and ``setup_s`` the median of each start
divided by the calibration run just after it; both are then multiplied by
``REFERENCE_CAL_S``.  They read as seconds on a host where the calibration
takes 0.1 s, about what a 2-vCPU Xeon VM gives when its host is quiet.  The raw
medians are printed beside them and kept in the run detail.  The
``simulate`` and ``sample`` commands take ``--seed`` reduced modulo the
number of seeds in ``reference.json``, so their reports are always checked
against a recorded digest.  With
``--trace 1`` one more pass, calibrated the same way, runs each command under
``tracer.py`` and the per-layer metrics are printed instead of the end-to-end
ones.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is the failed fraction.
Details go to ``perfbench/out/<workload>.run.json`` and, when traced,
``perfbench/out/<workload>.trace.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import OutputChecker, load_reference
from workloads import WORKLOADS, workload_commands

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

MIN_PASSES = 4  # medians need several passes; a scan pass takes about 8 s
SETUP_SAMPLES = 24  # interpreter-plus-import starts per run, spread over the run
COMMAND_TIMEOUT_S = 60.0
LAST_PASS_START_S = 100.0  # start no pass after this, so a run ends well within 180 s
IMPORT_ARGV = ("-c", "import quadorbit.cli")
# Fixed work in a fresh interpreter, like a short quadorbit command; the median
# of its wall time gauges the host's speed at the moment.
CALIBRATION = """
import fractions, json
x, y = 3 ** 20000, 7 ** 19000
for _ in range(8):
    x * y
d = {}
for i in range(40000):
    d[i % 1000] = d.get(i % 1000, 0) + i * i % 97
a = 0
for i in range(1, 60000):
    a = (a * 31 + i) % 1000003
"""
REFERENCE_CAL_S = 0.1  # wall_s and setup_s read as seconds on a host where CALIBRATION takes this
CAL_ARGV = ("-c", CALIBRATION)


@dataclass
class Child:
    exit: int | None  # None: killed at the timeout
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    max_rss_kb: int


def run_child(args) -> Child:
    """Run ``python <args>`` against src/; time it and read its rusage from wait4."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + COMMAND_TIMEOUT_S - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        exit=None if timed_out else proc.returncode,
        stdout=b"".join(chunks[proc.stdout]).decode(errors="replace"),
        stderr=b"".join(chunks[proc.stderr]).decode(errors="replace"),
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_rss_kb=usage.ru_maxrss,
    )


# ---------------------------------------------------------------------------
# Run record.

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def load_average() -> float | None:
    text = _read("/proc/loadavg")
    return float(text.split()[0]) if text else None


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")), None)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# One workload.

@dataclass
class WorkloadRun:
    name: str
    seed: int
    passes: list[list[dict]] = field(default_factory=list)  # per pass, per command
    pass_cal_s: list[list[float]] = field(default_factory=list)  # per pass, calibration wall times
    setup_s: list[float] = field(default_factory=list)
    setup_cal_s: list[float] = field(default_factory=list)  # calibration run just after each start
    failures: list[dict] = field(default_factory=list)
    attempted: int = 0
    traced: list[dict] = field(default_factory=list)
    traced_cal_s: list[float] = field(default_factory=list)  # calibration wall times around the traced pass
    load_before: float | None = None
    load_after: float | None = None

    def pass_sum(self, key: str) -> list[float]:
        return [sum(c[key] for c in p) for p in self.passes]


def _check_pass(run: WorkloadRun, checker: OutputChecker, cmds, results, label: str) -> None:
    """Check every report of one pass; each failed command counts once."""
    failed: dict[str, str] = {}
    for cmd, child in zip(cmds, results):
        reason = checker.check(cmd, child.exit, child.stdout)
        if reason:
            failed.setdefault(cmd.key, reason)
    for key, reason in checker.cross_check(run.name, {cmd.key: child.stdout for cmd, child in zip(cmds, results)}):
        failed.setdefault(key, reason)
    run.attempted += len(cmds)
    argv_of = {cmd.key: cmd.argv for cmd in cmds}
    for key, reason in failed.items():
        run.failures.append({"pass": label, "command": key, "reason": reason})
        print(f"FAIL {run.name} {label} {key}: {reason} :: quadorbit {' '.join(map(repr, argv_of[key]))}")


def measure(name: str, seed: int, seconds: int, trace: bool, reference: dict) -> WorkloadRun:
    cmds = workload_commands(name, seed)
    checker = OutputChecker(reference, seed)
    run = WorkloadRun(name=name, seed=seed, load_before=load_average())
    run_child(IMPORT_ARGV)  # compiles the bytecode once; not measured
    run_child(CAL_ARGV)
    t0 = time.perf_counter()
    while len(run.passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        if run.passes and time.perf_counter() - t0 > LAST_PASS_START_S:
            break
        results = []
        cal_s = [run_child(CAL_ARGV).wall_s]
        for cmd in cmds:
            results.append(run_child(("-m", "quadorbit.cli", *cmd.argv)))
            cal_s.append(run_child(CAL_ARGV).wall_s)
            due = math.ceil(SETUP_SAMPLES * min(1.0, (time.perf_counter() - t0) / seconds))
            while len(run.setup_s) < due:
                run.setup_s.append(run_child(IMPORT_ARGV).wall_s)
                run.setup_cal_s.append(run_child(CAL_ARGV).wall_s)
        _check_pass(run, checker, cmds, results, f"pass {len(run.passes) + 1}")
        run.pass_cal_s.append(cal_s)
        run.passes.append(
            [
                {"command": cmd.key, "wall_s": c.wall_s, "cpu_s": c.cpu_s, "max_rss_kb": c.max_rss_kb, "exit": c.exit}
                for cmd, c in zip(cmds, results)
            ]
        )
    if trace:
        results = []
        run.traced_cal_s.append(run_child(CAL_ARGV).wall_s)
        for i, cmd in enumerate(cmds):
            child = run_child((str(BENCH_DIR / "tracer.py"), "--id", str(i), "--", *cmd.argv))
            try:
                out = json.loads(child.stdout)
            except ValueError:
                out = {"exit": None, "report": "", "error": child.stderr[-2000:]}
            out.update(command=cmd.key, argv=cmd.argv, wall_s=child.wall_s)
            run.traced.append(out)
            results.append(Child(out["exit"], out["report"], child.stderr, child.wall_s, child.cpu_s, child.max_rss_kb))
            run.traced_cal_s.append(run_child(CAL_ARGV).wall_s)
        _check_pass(run, checker, cmds, results, "traced pass")
    run.load_after = load_average()
    return run


# ---------------------------------------------------------------------------
# Metrics.

def end_to_end(run: WorkloadRun) -> dict[str, float]:
    walls = run.pass_sum("wall_s")
    return {
        "wall_s": REFERENCE_CAL_S * statistics.median(w / statistics.median(c) for w, c in zip(walls, run.pass_cal_s)),
        "setup_s": REFERENCE_CAL_S * statistics.median(s / c for s, c in zip(run.setup_s, run.setup_cal_s)),
        "peak_rss_mb": statistics.median(max(c["max_rss_kb"] for c in p) / 1024 for p in run.passes),
    }


def per_layer(run: WorkloadRun, e2e: dict[str, float]) -> dict[str, float]:
    values: dict[str, float] = {}
    for out in run.traced:
        for key, value in out.get("metrics", {}).items():
            values[key] = values.get(key, 0) + value
    yielded = values.get("primescan.sieve.yielded", 0)
    values["primescan.sieve.useful_ratio"] = values.get("primescan.primes_decided", 0) / yielded if yielded else 0.0
    values["cli.cpu_s"] = statistics.median(run.pass_sum("cpu_s"))
    values["cli.startup_share"] = e2e["setup_s"] * len(run.passes[0]) / e2e["wall_s"]
    traced_s = REFERENCE_CAL_S * sum(out["wall_s"] for out in run.traced) / statistics.median(run.traced_cal_s)
    values["trace.overhead_ratio"] = traced_s / e2e["wall_s"]
    return values


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def report(run: WorkloadRun, trace: bool, declared: dict, record: dict) -> dict:
    e2e = end_to_end(run)
    values = per_layer(run, e2e) if trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared["per_layer" if trace else "end_to_end"]}
    walls = run.pass_sum("wall_s")
    cal_s = [c for p in run.pass_cal_s for c in p] + run.setup_cal_s
    failed = len(run.failures)
    busy = any(load is not None and load > record["nproc"] for load in (run.load_before, run.load_after))
    print(
        f"{run.name}: wall_s median {e2e['wall_s']:.4f} s calibrated (raw median {statistics.median(walls):.4f} s, "
        f"max {max(walls):.4f} s) over n={len(walls)} passes; setup_s {e2e['setup_s']:.4f} s calibrated "
        f"(raw median {statistics.median(run.setup_s):.4f} s of n={len(run.setup_s)}); "
        f"calibration median {statistics.median(cal_s):.4f} s of n={len(cal_s)}; peak_rss_mb {e2e['peak_rss_mb']:.2f} MB; "
        f"failed_frac {failed}/{run.attempted} = {failed / run.attempted:.4f}; "
        f"load {run.load_before} -> {run.load_after}{' BUSY HOST' if busy else ''}"
    )
    detail = {
        "workload": run.name,
        "seed": run.seed,
        "record": {**record, "load_before": run.load_before, "load_after": run.load_after, "busy_host": busy},
        "metrics": values,
        "failed_frac": failed / run.attempted,
        "failures": run.failures,
        "passes": run.passes,
        "pass_cal_s": run.pass_cal_s,
        "setup_s": run.setup_s,
        "setup_cal_s": run.setup_cal_s,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{run.name}.run.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if trace:
        absent = sorted({name for out in run.traced for name in out.get("absent", [])})
        if absent:
            print(f"{run.name}: absent from the traced program: {', '.join(absent)}")
        with open(OUT_DIR / f"{run.name}.trace.json", "w") as fh:
            json.dump([{k: v for k, v in out.items() if k != "report"} for out in run.traced], fh)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="quadorbit end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "quadorbit" / "cli.py").is_file():
        print(f"error: no quadorbit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = load_reference()
    # The reference table holds digests for workload seeds range(seeds) only.
    seed = args.seed % reference["seeds"]
    declared = declared_metrics()
    record = run_record()
    print("run record: " + json.dumps(record, sort_keys=True))
    print(f"--seed {args.seed}: workload seed {seed}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    attempted = failed = 0
    for name in names:
        run = measure(name, seed, args.seconds, bool(args.trace), reference["commands"])
        for key, value in report(run, bool(args.trace), declared, record).items():
            metrics[key if len(names) == 1 else f"{name}.{key}"] = value
        attempted += run.attempted
        failed += len(run.failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
