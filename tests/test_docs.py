"""The README's CLI examples, environment variables and ``primes`` CSV
columns match the CLI, its recipe for reading big integers back reads a
report that Python's default limit refuses, the package's exports and the
benchmark tracer's targets resolve, and the command has one entry point."""

import importlib
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import quadorbit
import quadorbit.algebra as algebra
import quadorbit.cli as cli
from quadorbit.primescan import PrimeScanReport

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TRACER = ROOT / "perfbench" / "tracer.py"


def _cli_block() -> str:
    text = README.read_text()
    section = text[text.index("## CLI") :]
    return section[section.index("```sh") : section.index("```", section.index("```sh") + 5)]


def test_readme_cli_examples_parse():
    lines = [line for line in _cli_block().splitlines() if line.startswith("quadorbit ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_readme_env_vars_match_cli():
    documented = set(re.findall(r"QUADORBIT_[A-Z_]+", README.read_text()))
    read = set(re.findall(r"QUADORBIT_[A-Z_]+", Path(cli.__file__).read_text()))
    assert documented == read


def test_readme_primes_csv_columns():
    # An empty report still writes the full header.
    columns = re.search(r"CSV columns: ([^)]*)\)", README.read_text()).group(1).split(", ")
    assert columns == PrimeScanReport(generators=[], coding="", a0="0").csv_rows()[0]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no limit on integer strings")
def test_readme_big_integer_recipe_reads_fpp_depth_20():
    text = README.read_text()
    start = text.index("```python\n", text.index("A Python reader raises the limit")) + len("```python\n")
    recipe = text[start : text.index("```", start)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    report = subprocess.run(
        [sys.executable, "-m", "quadorbit.cli", "fpp", "--depth", "20"],
        capture_output=True, check=True, env=dict(env, PYTHONPATH=str(ROOT / "src")), timeout=60,
    ).stdout
    plain = subprocess.run(
        [sys.executable, "-c", "import json, sys; json.load(sys.stdin)"], input=report, capture_output=True, env=env
    )
    assert plain.returncode == 1
    assert b"Exceeds the limit (4300 digits)" in plain.stderr
    widest = "rows = report['result']['levels']; print(len(rows), max(len(str(v)) for row in rows for v in row.values()))"
    read = subprocess.run(
        [sys.executable, "-c", recipe + widest], input=report, capture_output=True, check=True, env=env
    )
    assert read.stdout == b"20 78913\n"


def test_algebra_exports_resolve():
    missing = [name for name in algebra.__all__ if not hasattr(algebra, name)]
    assert missing == []


def test_package_imports_exist():
    # Every name in a package's export table loads the object its submodule defines.
    for package in (quadorbit, algebra):
        assert package._EXPORTS
        for name, module in package._EXPORTS.items():
            submodule = importlib.import_module(f"{package.__name__}.{module}")
            assert getattr(package, name) is vars(submodule)[name], name
            assert getattr(package, name).__module__ == submodule.__name__, name


def test_tracer_targets_resolve(monkeypatch):
    # The tracer reports a target it cannot resolve as absent, and every
    # per-layer metric built on it then reads 0.  gcd_qt was deleted from
    # algebra.ratpoly while the tracer still names it.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    absent = [t.span for t in tracer.TARGETS if tracer._resolve(t) is None]
    assert absent == ["algebra.ratpoly.gcd_qt"]


def test_command_starts_through_run():
    # The installed script and ``python -m quadorbit.cli`` share one entry
    # point.  A string check: tomllib is missing on Python 3.10.
    assert 'quadorbit = "quadorbit.cli:run"' in (ROOT / "pyproject.toml").read_text().splitlines()
    assert Path(cli.__file__).read_text().endswith('\nif __name__ == "__main__":\n    run()\n')
