"""The level-1 threads, the package's one way to run work in parallel:
independent items run on every core the process may run on.

``_each(fn, n)`` runs ``fn(0)`` to ``fn(n - 1)`` on the calling thread and
min(``_n_workers()``, n) - 1 threads of a persistent pool.  The calling
thread takes item 0 and every thread then pulls the next item from one
shared counter (self-scheduling, Polychronopoulos & Kuck, IEEE Trans.
Comput. 1987), so no item list is cut into fixed parts and no cost is
guessed: a thread that finishes early takes the rest.  The results come back
in item order, so a caller gets, item for item, the results of one loop over
the items, for any number of threads, as ``schwarz`` and ``coarse`` do.
Threads pay off where the work releases the GIL for long stretches: LAPACK
called through ``ctypes`` (``banded``), scipy's sparse products and numpy's
operations on large arrays.  Many small numpy operations gain nothing: the
threads would hand the GIL back and forth at each of them.  On one core no
thread is started.  The pool is kept for the life of the process and guarded
by process id: a forked child makes its own rather than wait on threads that
stayed in its parent.  An item must not call ``_each`` itself from a
level-1 thread: it would wait on the threads it runs on.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_threads = None  # (pid, size, thread pool) of the level-1 threads, made on first use


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


def _each(fn, n):
    """``[fn(i) for i in range(n)]``, on k = min(``_n_workers()``, n) threads:
    the calling thread runs item 0 and then, like the k - 1 level-1 threads,
    the next item not yet taken, until none is left.  Once an item has
    raised, no thread takes a new one; once every thread has stopped, the
    exception of the first failing item in order is raised, as the plain loop
    would raise it (every earlier item was taken before it, so has ended).
    With k <= 1 no thread is used.  Raises ``RuntimeError`` when called from
    a level-1 thread, where waiting on the pool could deadlock."""
    if threading.current_thread().name.startswith("mselast-level1"):
        raise RuntimeError("threads._each called from a level-1 thread; an item must not start items")
    k = min(_n_workers(), n)
    if k <= 1:
        return [fn(i) for i in range(n)]
    results, errors = [None] * n, {}
    items, lock = iter(range(n)), threading.Lock()

    def take():
        """The next item, or None once every item is taken or one has failed."""
        with lock:
            return None if errors else next(items, None)

    def run(i):
        while i is not None:
            try:
                results[i] = fn(i)
            except BaseException as exc:
                with lock:
                    errors[i] = exc
                return
            i = take()

    first = take()  # item 0, taken before any level-1 thread starts
    futures = [_level1_threads(k - 1).submit(lambda: run(take())) for _ in range(k - 1)]
    try:
        run(first)
    finally:
        wait(futures)
    if errors:
        raise errors[min(errors)]
    return results
