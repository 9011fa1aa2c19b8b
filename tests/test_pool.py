"""The process pool: task order, in-process fallbacks, the size clamp, and
what importing the CLI leaves out."""

import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from quadorbit import pool
from quadorbit.pool import parallel_map, pool_size, usable_cpus

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def no_process_pool(monkeypatch):
    """Make constructing a ProcessPoolExecutor fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a ProcessPoolExecutor was constructed")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


@pytest.fixture
def two_cpus(monkeypatch):
    """Let the pool start two workers on any host, a one-CPU one included."""
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)


def test_results_in_task_order(two_cpus):
    tasks = list(range(-20, 20))
    assert parallel_map(abs, tasks, 2) == [abs(t) for t in tasks]


def test_spawns_workers_while_another_thread_runs(two_cpus, monkeypatch):
    # Forking a process that runs threads is unsafe, so the pool spawns.
    contexts = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: contexts.append(method) or get_context(method))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        assert parallel_map(abs, [-3, -2, -1], 2) == [3, 2, 1]
    finally:
        stop.set()
        thread.join(60)
    assert not thread.is_alive()
    assert contexts == ["spawn"]
    if "fork" in multiprocessing.get_all_start_methods():
        assert parallel_map(abs, [-3, -2, -1], 2) == [3, 2, 1]
        assert contexts == ["spawn", "fork"]


@pytest.mark.parametrize("workers, tasks", [(1, 10), (0, 10), (-3, 10), (4, 1), (4, 0)])
def test_runs_in_process(no_process_pool, workers, tasks):
    assert parallel_map(str, range(tasks), workers) == [str(t) for t in range(tasks)]


def test_runs_in_process_on_one_cpu(no_process_pool, monkeypatch):
    monkeypatch.setattr(pool, "usable_cpus", lambda: 1)
    assert parallel_map(abs, [-1, -2, -3], 8) == [1, 2, 3]


def test_pool_size_clamp():
    # Pure sizing logic: no process is started for these sizes.
    assert pool_size(10**9, 10**9) == usable_cpus()
    assert pool_size(10**9, 1) == 1
    assert pool_size(1, 10**9) == 1


def test_pool_size_clamp_to_cpus_and_tasks(monkeypatch):
    monkeypatch.setattr(pool, "usable_cpus", lambda: 64)
    assert pool_size(10**9, 10**9) == 64
    assert pool_size(10**9, 5) == 5
    assert pool_size(3, 5) == 3


def test_usable_cpus_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


def test_cli_import_leaves_out_unused_modules():
    code = (
        "import sys, quadorbit.cli; "
        "print(sorted(m for m in ('hashlib', 'concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
