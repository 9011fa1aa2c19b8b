"""Each subcommand loads only the quadorbit modules it runs.

Every command runs in a fresh interpreter, which compiles and executes each
module it imports, so a module that a command never calls still costs it
start-up time.  These tests count modules instead of timing them: each
command runs in a subprocess, and the set of ``quadorbit.*`` modules in
``sys.modules`` afterwards must equal the expected set exactly.  Neither
``dataclasses`` nor ``inspect`` may be loaded: importing ``dataclasses``
costs about 10 ms, most of it in ``inspect`` and the modules it pulls in.
Nor may ``concurrent.futures`` or ``multiprocessing``, which took about
19 ms to import: a pooled scan forks its workers without them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Standard modules no command may load.
SLOW_STDLIB = ("dataclasses", "inspect", "concurrent.futures", "multiprocessing")

# Runs one command with its report captured, then prints the loaded package
# modules and any of SLOW_STDLIB.
RUNNER = f"SLOW_STDLIB = {SLOW_STDLIB!r}\n" + """
import contextlib, io, json, sys
from quadorbit import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
    if code != 0:
        sys.exit(f"exit code {code}")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "quadorbit" or m in SLOW_STDLIB)))
"""


def modules(*names):
    return {"quadorbit", "quadorbit.cli", "quadorbit.reporting"} | {f"quadorbit.{n}" for n in names}


ORBITS = ("dynamics", "algebra", "algebra.intpoly", "algebra.parse")
CERTIFICATES = (*ORBITS, "certify", "algebra.factorint", "algebra.ratpoly", "algebra.integers")
PROCESS = ("process",)
SCAN = (*ORBITS, "primescan", "pool", "algebra.integers")

CASES = {
    "import": ([], modules()),
    # The README's example commands, as the benchmark's session workload runs them.
    "classify": (["classify", "--c", "-2; -6"], modules(*ORBITS)),
    "orbit_critical": (["orbit", "--c", "-2", "--coding", "|1", "--depth", "3"], modules(*ORBITS)),
    "orbit_point": (["orbit", "--set", "x^2+x; x^2-6x", "--point", "2"], modules(*ORBITS)),
    "certify_qt_t": (
        ["certify", "--ring", "qt", "--c", "t", "--coding", "|1", "--depth", "6"],
        modules(*CERTIFICATES),
    ),
    "certify_qt_t4": (
        ["certify", "--ring", "qt", "--c", "t^4+5t; -(7t^4+3)", "--coding", "1|2", "--depth", "6"],
        modules(*CERTIFICATES),
    ),
    "certify_q_1": (["certify", "--c", "1", "--coding", "|1", "--depth", "6"], modules(*CERTIFICATES)),
    "census": (
        ["census", "--d", "2", "--s", "2", "--b-list", "1,2,4,8,16", "--variant", "even", "--format", "csv"],
        modules("census"),
    ),
    "fpp": (["fpp", "--depth", "16"], modules(*PROCESS)),
    "simulate": (["simulate", "--depth", "12", "--trials", "100000", "--seed", "0"], modules(*PROCESS)),
    "sample": (
        ["sample", "--weights", "1/4,3/4", "--length", "64", "--samples", "10000", "--seed", "0"],
        modules(*PROCESS),
    ),
    "primes": (
        ["primes", "--c", "1", "--coding", "|1", "--a0", "0", "--cutoffs", "1000,10000", "--format", "csv"],
        modules(*SCAN),
    ),
    # Above POOL_MIN_CUTOFF: with two usable CPUs the scan forks a worker.
    "primes_pooled": (["primes", "--c", "1", "--coding", "|1", "--cutoffs", "30000"], modules(*SCAN)),
    "primes_fpp_depth": (
        ["primes", "--c", "1", "--coding", "|1", "--cutoffs", "1000", "--fpp-depth", "20"],
        modules(*SCAN, "process"),
    ),
    "sample_certify": (
        ["sample", "--weights", "1/4,3/4", "--length", "6", "--samples", "20", "--c", "-2; -6", "--certify", "1"],
        modules(*PROCESS, *CERTIFICATES),
    ),
}


@pytest.mark.parametrize("argv,expected", list(CASES.values()), ids=list(CASES))
def test_command_loads_only_what_it_runs(argv, expected):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", RUNNER, *argv], capture_output=True, text=True, env=env, check=True, timeout=60
    )
    slow = set(json.loads(out.stdout)) & set(SLOW_STDLIB)
    assert not slow, f"{sorted(slow)} loaded"
    assert set(json.loads(out.stdout)) == expected
