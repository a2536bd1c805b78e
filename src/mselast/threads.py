"""The level-1 threads, the package's one way to run work in parallel:
independent items run in contiguous groups on every core the process may
run on.

``_in_groups`` splits n items into min(``_n_workers()``, n) contiguous
groups of sizes at most one apart, since the items (the subdomains and
neighborhoods of one structured coarse grid, the rows of its coarse
operator) are nearly all the same size; the calling thread runs the first
group and a persistent thread pool the others.  Threads pay off where the
work releases the GIL for long stretches: LAPACK called through ``ctypes``
(``banded``), scipy's sparse products and numpy's operations on large
arrays.  Many small numpy operations gain nothing: the threads would hand
the GIL back and forth at each of them.  A caller that keeps the groups'
results in group order gets, item for item, the results of one loop over
the items, for any number of groups, as ``schwarz`` and ``coarse`` do.  On
one core no thread is started.  The pool is kept for the life of the
process and guarded by process id: a forked child makes its own rather than
wait on threads that stayed in its parent.  A group must not call
``_in_groups`` itself: it would wait on the threads it runs on.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_threads = None  # (pid, size, thread pool) of the level-1 groups, made on first use


def _n_workers():
    """The cores this process may run on: its CPU affinity, or every core
    where the platform has no affinity call (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _level1_threads(n):
    """A pool of at least ``n`` threads, kept for the life of the process.
    A forked child makes its own: the threads of a pool made before the fork
    stayed in the parent.  A pool too small for ``n`` is replaced, not shut
    down, so a thread still submitting to it is not refused; its idle
    threads end once it is collected."""
    global _threads
    if _threads is None or _threads[0] != os.getpid() or _threads[1] < n:
        _threads = (os.getpid(), n, ThreadPoolExecutor(n, thread_name_prefix="mselast-level1"))
    return _threads[2]


def _in_groups(run, n):
    """``[run(lo, hi) for each group]``: group i of k = min(``_n_workers()``, n)
    has the items n i // k to n (i + 1) // k - 1, so none is empty (no item,
    no group).  The calling thread runs the first group and the level-1
    threads the others.  Once every group has ended, the exception of the
    first group in order that raised is raised: that of the first failing
    item, for a ``run`` that stops at its first failure.  With one group no
    thread is used.  Raises ``RuntimeError`` when called from a level-1
    thread, where waiting on the pool could deadlock."""
    if threading.current_thread().name.startswith("mselast-level1"):
        raise RuntimeError("threads._in_groups called from a level-1 thread; a group must not start groups")
    k = min(_n_workers(), n)
    groups = [(n * i // k, n * (i + 1) // k) for i in range(k)]
    if k <= 1:
        return [run(lo, hi) for lo, hi in groups]
    pool = _level1_threads(k - 1)
    futures = [pool.submit(run, lo, hi) for lo, hi in groups[1:]]
    try:
        head = run(*groups[0])
    finally:
        wait(futures)
    return [head] + [future.result() for future in futures]
