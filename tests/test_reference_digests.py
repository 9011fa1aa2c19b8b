"""The benchmark's commands keep their recorded exit codes and bytes.

``perfbench/reference.json`` holds the exit code and report digest of every
benchmark command, and a benchmark run counts a command whose output differs
as a failed operation.  This runs the unseeded commands the same way, a fresh
``python -m quadorbit.cli`` against ``src/``, so a byte change shows up here
first.  The seeded ``sample`` and ``simulate`` commands run in-process
through ``cli.main`` at every 16th recorded seed.  It only reads
``perfbench/``.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quadorbit import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    # Registered under a name of its own, as dataclasses look their module up.
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
COMMANDS = [
    cmd for name in workloads.WORKLOADS for cmd in workloads.workload_commands(name, 0) if not cmd.seeded
]


@pytest.fixture(scope="module")
def checks():
    # checks.py imports its sibling as ``workloads`` and lifts the limit on
    # integer digits, which its digest of a JSON report needs; the limit is
    # restored when this module's tests are done.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "workloads", workloads)
        yield _load("checks")
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def test_every_unseeded_command_is_covered():
    assert len(COMMANDS) == 17


@pytest.mark.parametrize("cmd", COMMANDS, ids=[cmd.key for cmd in COMMANDS])
def test_command_matches_reference(cmd, checks):
    entry = checks.load_reference()["commands"][cmd.key]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "quadorbit.cli", *cmd.argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )
    assert out.returncode == entry["exit"], out.stderr
    assert checks.report_digest(out.stdout) == entry["sha256"]


SEEDS = range(0, 512, 16)


def test_sample_seeds_are_recorded(checks):
    assert SEEDS == range(0, checks.load_reference()["seeds"], 16)


def run_seeded(key, seed, checks, capsys):
    (cmd,) = [cmd for cmd in workloads.workload_commands("session", seed) if cmd.key == key]
    entry = checks.load_reference()["commands"][cmd.key]
    assert cli.main(list(cmd.argv)) == entry["exit"]
    assert checks.report_digest(capsys.readouterr().out) == entry["sha256_by_seed"][str(seed)]


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_sample_matches_reference(seed, checks, capsys):
    run_seeded("session.sample", seed, checks, capsys)


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_simulate_matches_reference(seed, checks, capsys):
    run_seeded("session.simulate", seed, checks, capsys)
