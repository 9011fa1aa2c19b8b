"""The worker processes: task order, errors, reaping, in-process fallbacks,
the size clamp, and what importing the CLI leaves out."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from quadorbit import pool
from quadorbit.pool import parallel_map, pool_size, usable_cpus

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def no_process_pool(monkeypatch):
    """Make starting a worker process fail the test."""

    def refuse():
        raise AssertionError("a worker process was forked")

    monkeypatch.setattr(pool.os, "fork", refuse)


@pytest.fixture
def forks(monkeypatch):
    """A list that gains one entry for each worker process started."""
    started = []
    fork = os.fork

    def counted():
        started.append(os.getpid())
        return fork()

    monkeypatch.setattr(pool.os, "fork", counted)
    return started


@pytest.fixture
def two_cpus(monkeypatch):
    """Let the pool start two workers on any host, a one-CPU one included."""
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_in_task_order(two_cpus):
    tasks = list(range(-20, 20))
    assert parallel_map(abs, tasks, 2) == [abs(t) for t in tasks]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("tasks", [1, 2, 3, 5, 7, 40])
def test_results_in_task_order_for_each_worker_count(monkeypatch, forks, cpus, tasks):
    # Worker k computes tasks k, k + n, ...; shares of unequal length merge in order.
    monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
    results = parallel_map(lambda t: (t, os.getpid()), range(tasks), 3)
    assert [t for t, _ in results] == list(range(tasks))
    assert len(forks) == min(cpus, tasks) - 1
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == min(cpus, tasks)
    assert_no_child_left()


def fail_on_three(t):
    if t == 3:
        raise ValueError(f"task {t} failed")
    return t


def test_worker_error_is_raised_and_every_worker_reaped(two_cpus, forks):
    # Task 3 falls to the worker, not to this process (tasks 0, 2, 4).
    with pytest.raises(ValueError, match="task 3 failed"):
        parallel_map(fail_on_three, range(5), 2)
    assert forks
    assert_no_child_left()
    assert parallel_map(fail_on_three, [0, 1, 2], 2) == [0, 1, 2]
    assert_no_child_left()


def test_own_error_is_raised_and_every_worker_killed(monkeypatch, forks):
    # With three processes, task 3 falls to this one (tasks 0, 3), while a
    # worker sleeps on task 1 until it is killed.
    monkeypatch.setattr(pool, "usable_cpus", lambda: 3)
    with pytest.raises(ValueError, match="task 3 failed"):
        parallel_map(lambda t: time.sleep(60) if t == 1 else fail_on_three(t), range(5), 3)
    assert len(forks) == 2
    assert_no_child_left()


def test_failed_fork_kills_the_workers_already_started(monkeypatch):
    # The second fork fails: the first worker is killed and reaped, and no
    # pipe stays open.
    monkeypatch.setattr(pool, "usable_cpus", lambda: 3)
    fork = os.fork
    calls = []

    def fork_once():
        calls.append(1)
        if len(calls) > 1:
            raise BlockingIOError("fork refused")
        return fork()

    monkeypatch.setattr(pool.os, "fork", fork_once)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    with pytest.raises(BlockingIOError, match="fork refused"):
        parallel_map(lambda t: time.sleep(60), range(3), 3)
    assert len(calls) == 2
    assert_no_child_left()
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == len(fds)


def test_worker_that_dies_is_an_error(two_cpus, forks):
    def die(t):
        if t == 1:
            os._exit(7)
        return t

    with pytest.raises(RuntimeError, match="status 7 and no result"):
        parallel_map(die, range(4), 2)
    assert_no_child_left()


def test_result_that_marshal_refuses_is_an_error(two_cpus):
    with pytest.raises(ValueError, match="unmarshallable"):
        parallel_map(lambda t: object() if t else t, range(4), 2)
    assert_no_child_left()


def test_forks_only_while_one_thread_runs(two_cpus, forks):
    # Forking a process that runs threads can deadlock the child, so with
    # another thread running the tasks run in this process.
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        assert parallel_map(abs, [-3, -2, -1], 2) == [3, 2, 1]
    finally:
        stop.set()
        thread.join(60)
    assert not thread.is_alive()
    assert forks == []
    assert parallel_map(abs, [-3, -2, -1], 2) == [3, 2, 1]
    assert len(forks) == 1
    assert_no_child_left()


def test_runs_in_process_without_fork(two_cpus, monkeypatch):
    monkeypatch.delattr(pool.os, "fork")
    assert parallel_map(abs, [-3, -2, -1], 2) == [3, 2, 1]


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

