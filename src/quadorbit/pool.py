"""One way to run independent tasks in parallel: forked worker processes.

Callers split their work into fixed tasks and merge the results in task
order, so a report never depends on the worker count.  With n processes,
worker k computes tasks k, k + n, k + 2n, ... and this process computes its
own share, tasks 0, n, 2n, ...  A worker is a plain ``os.fork`` of this
process, so it inherits ``fn`` and the tasks instead of receiving them, and
it sends its results back over a pipe with ``marshal``.  Nothing beyond
``os`` and ``marshal`` is loaded to start one.  Where ``os.fork`` is missing,
or another thread runs (a forked child could deadlock on a lock that thread
held), the tasks run in this process instead.
"""

from __future__ import annotations

import marshal
import os
import threading


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_size(workers: int, tasks: int) -> int:
    """Worker processes for ``tasks`` tasks; 1 or less means run in-process."""
    return min(workers, tasks, usable_cpus())


def _work(fn, tasks: list, r: int, w: int):
    """Run in a forked worker: compute ``tasks``, send the results, exit."""
    status = 1
    try:
        os.close(r)
        try:
            data = b"R" + marshal.dumps([fn(t) for t in tasks])
        except BaseException as exc:
            import pickle

            data = b"E" + pickle.dumps(exc)
        with open(w, "wb") as out:
            out.write(data)
        status = 0
    finally:
        # Never return into the caller's frames, and never flush the stdio
        # buffers inherited from the parent.
        os._exit(status)


def _result(pid: int, data: bytes, status: int) -> list:
    """The results that worker ``pid`` sent, or its exception raised here."""
    if data[:1] == b"R" and status == 0:
        return marshal.loads(data[1:])
    if data[:1] == b"E":
        import pickle

        raise pickle.loads(data[1:])
    raise RuntimeError(f"worker process {pid} ended with status {os.waitstatus_to_exitcode(status)} and no result")


def parallel_map(fn, tasks, workers: int) -> list:
    """``[fn(t) for t in tasks]``, computed by up to ``workers`` processes.

    Results come back in task order.  Forked workers return theirs with
    ``marshal``, so each result must be built from ints, floats, strings,
    bytes, lists, tuples, dicts and sets.  An exception in a worker is raised
    here; every worker has ended by the time this returns or raises.
    """
    tasks = list(tasks)
    size = pool_size(workers, len(tasks))
    if size <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(t) for t in tasks]
    running = {}  # pid -> the read end of its pipe, until the worker is reaped
    try:
        for k in range(1, size):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if not pid:
                _work(fn, tasks[k::size], r, w)
            os.close(w)  # only the worker holds the write end now, so the pipe ends when it does
            running[pid] = open(r, "rb")
        shares = [[fn(t) for t in tasks[0::size]]]
        for pid, reader in list(running.items()):
            with reader:
                data = reader.read()
            _, status = os.waitpid(pid, 0)
            del running[pid]
            shares.append(_result(pid, data, status))
    except BaseException:
        for pid, reader in running.items():
            reader.close()
            try:
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)
            except OSError:  # reaped already
                pass
        raise
    results = [None] * len(tasks)
    for k, share in enumerate(shares):
        results[k::size] = share
    return results
