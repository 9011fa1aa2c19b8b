"""One way to run independent tasks in parallel: a pool of worker processes.

Callers split their work into fixed tasks and merge the results in task
order, so a report never depends on the worker count.  ``concurrent.futures``
is imported only when a pool actually starts, which keeps it (and
``multiprocessing``) out of every serial command.
"""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_size(workers: int, tasks: int) -> int:
    """Worker processes for ``tasks`` tasks; 1 or less means run in-process."""
    return min(workers, tasks, usable_cpus())


def parallel_map(fn, tasks, workers: int) -> list:
    """``[fn(t) for t in tasks]``, computed by up to ``workers`` processes.

    ``fn`` and the tasks must pickle (a module-level function, or a
    ``functools.partial`` of one).  Results come back in task order.
    """
    tasks = list(tasks)
    size = pool_size(workers, len(tasks))
    if size <= 1:
        return [fn(t) for t in tasks]
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor

    # A forked worker skips the interpreter start and package import that a
    # spawned one pays, but forking is only safe while this process runs a
    # single thread.
    forkable = threading.active_count() == 1 and "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if forkable else "spawn")
    with ProcessPoolExecutor(max_workers=size, mp_context=context) as pool:
        return list(pool.map(fn, tasks))
