"""The package's one worker pool.

`ordered_map` decides how jobs run: how many worker threads, whether
OpenBLAS is pinned to one thread meanwhile, and how far ahead of its
consumer jobs are drawn. Callers only hand it a function and an iterable
of jobs, and read the results back in job order.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor

# Activation cells per window (window x hidden) below which a forward is
# bound by Python overhead under the interpreter lock, so a pool scores
# slower than one thread. On 2 CPUs at window 64 with 8-window jobs, a pool
# took 1.40x the one-thread time at hidden 16, 1.21x at 32 and 0.96x at 64.
MIN_POOLED_WINDOW_CELLS = 64 * 64


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS this process has
    loaded, or None where none is found. NumPy wheels bundle it under a
    prefixed name, e.g. ``scipy_openblas_set_num_threads64_``."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[-1].strip() for line in fh
                            if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


def _workers(window_cells: int) -> int:
    """One per usable CPU, or 1 where windows are too small to gain from threads."""
    if window_cells < MIN_POOLED_WINDOW_CELLS or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def ordered_map(window_cells: int):
    """Yields ``run(fn, jobs)``, which returns ``fn(job)`` for each job in
    job order.

    Jobs of windows of ``window_cells`` activation cells run on one thread
    per usable CPU, with OpenBLAS pinned to one thread until the block
    exits, and are drawn at most two per worker ahead of the consumer.
    For small windows, one CPU or no loaded OpenBLAS, ``run`` is the
    builtin ``map`` on the calling thread. The BLAS thread count is
    process-global, so it is restored only after every worker stopped,
    also when the consumer stops early or a job raises."""
    workers = _workers(window_cells)
    blas = _openblas() if workers > 1 else None
    if blas is None:
        yield map
        return
    get_threads, set_threads = blas
    previous = get_threads()
    set_threads(1)
    pool = ThreadPoolExecutor(workers, thread_name_prefix="dctm-pool")

    def run(fn, jobs):
        pending = collections.deque()
        for job in jobs:
            pending.append(pool.submit(fn, job))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    try:
        yield run
    finally:
        pool.shutdown(cancel_futures=True)
        set_threads(previous)
