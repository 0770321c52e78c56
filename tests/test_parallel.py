"""The worker pool's contract, and the boundary that keeps it in one module."""

import ast
import contextlib
import threading
import time
from pathlib import Path

import pytest

import dctm.parallel
from dctm.parallel import ordered_map


class Drawn:
    """Jobs 0..n-1, drawn lazily; records how far the draws run ahead of
    the results the consumer has taken."""

    def __init__(self, n):
        self.n, self.drawn, self.taken, self.most_ahead = n, 0, 0, 0

    def __iter__(self):
        for job in range(self.n):
            self.drawn += 1
            self.most_ahead = max(self.most_ahead, self.drawn - self.taken)
            yield job


def _job(job):
    # every fourth job sleeps, so the jobs after it finish first
    time.sleep(0.002 * (job % 4 == 0))
    return job, threading.current_thread()


def _drain(run, jobs):
    """(job, thread that ran it) for each result, counting each as taken."""
    results = []
    for result in run(_job, jobs):
        jobs.taken += 1
        results.append(result)
    return results


@pytest.fixture
def pooled(monkeypatch, blas):
    monkeypatch.setattr(dctm.parallel, "_workers", lambda cells: 2)


def test_pooled_results_in_job_order_and_draws_bounded(pooled):
    jobs = Drawn(23)
    with ordered_map(0) as run:
        results = _drain(run, jobs)
    assert [job for job, _ in results] == list(range(23))
    assert threading.main_thread() not in {thread for _, thread in results}
    # two jobs per worker in flight, plus the one whose result is handed over
    assert jobs.most_ahead == 2 * 2 + 1


@pytest.mark.parametrize("workers, blas_found", [(1, True), (4, False)])
def test_calling_thread_draws_one_job_at_a_time(monkeypatch, workers, blas_found):
    monkeypatch.setattr(dctm.parallel, "_workers", lambda cells: workers)
    if not blas_found:
        monkeypatch.setattr(dctm.parallel, "_openblas", lambda: None)
    jobs = Drawn(11)
    with ordered_map(64 * 64) as run:
        results = _drain(run, jobs)
    assert [job for job, _ in results] == list(range(11))
    assert {thread for _, thread in results} == {threading.current_thread()}
    assert jobs.most_ahead == 1


class Stop(Exception):
    pass


@pytest.mark.parametrize("how", ["break", "raise"])
def test_early_stop_restores_blas_and_stops_every_worker(pooled, blas, how):
    get_threads, set_threads = blas
    set_threads(2)
    threads = set()

    def job(i):
        threads.add(threading.current_thread())
        time.sleep(0.001)
        return i

    with pytest.raises(Stop) if how == "raise" else contextlib.nullcontext():
        with ordered_map(0) as run:
            assert get_threads() == 1
            for i in run(job, range(100)):
                if i == 3:
                    if how == "raise":
                        raise Stop
                    break
    assert get_threads() == 2
    assert threads and threading.main_thread() not in threads
    assert not any(t.is_alive() for t in threads)


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_the_pool_module_imports_ctypes_or_futures():
    package = Path(dctm.parallel.__file__).parent
    offenders = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "parallel.py":
            continue
        names = set(_imports(ast.parse(path.read_text(), str(path))))
        bad = sorted(n for n in names
                     if n.split(".")[0] == "ctypes" or n.startswith("concurrent.futures"))
        if bad:
            offenders[path.name] = bad
    assert offenders == {}
