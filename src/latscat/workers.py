"""A run's missing spectra, solved in spawned single-BLAS-thread worker processes.

The dense solves of a run are independent, and SciPy's LAPACK wrapper holds
the GIL, so threads cannot overlap them.  Each one goes instead to a worker
process, started with the spawn method (a fork would copy OpenBLAS's live
thread pool) and with OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1 in its
own environment only.  On two cores, two such workers take about half the
time of one solve after another with two BLAS threads, and a single BLAS
thread gives the same bits whatever the core count: a spectrum's digits
depend only on its lattice.  A worker calls exact.diagonalize and hands back
the eigenvalues and the density table, never the eigenvectors.

Before any worker starts, every lattice passes diagonalize's two refusals
here (BASIS_CAP and the memory gate), so a refusal comes before any solve.
The worker count is min(usable CPUs, lattices), lowered until the dense
sets of that many of the largest solves fit in the available memory
together.  multiprocessing is imported only when there is something to solve.
"""
from __future__ import annotations

import os
from contextlib import contextmanager

from . import exact
from .errors import CapacityError

# The environment a worker starts with, on top of the parent's.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(dims) -> int:
    """How many solves of these dimensions may run at once.

    k solves run at once only while the k largest dense sets
    (exact.dense_bytes each) fit in the available memory together.
    """
    dense = sorted((exact.dense_bytes(dim) for dim in dims), reverse=True)
    k = min(usable_cpus(), len(dense))
    available = exact._available_bytes()
    while k > 1 and available is not None and sum(dense[:k]) > available:
        k -= 1
    return k


@contextmanager
def _named(where):
    """Prefix a capacity refusal with the cell it names."""
    try:
        yield
    except CapacityError as exc:
        raise CapacityError(f"{where}{exc}") from exc


@contextmanager
def _environment(values):
    """os.environ with values set, restored on exit; children started inside inherit it."""
    saved = {key: os.environ.get(key) for key in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value


def _solve(lattice):
    """Worker side: the spectrum of one lattice, without its eigenvectors."""
    result = exact.diagonalize(lattice)
    result.eigenvectors = None
    return result


def solve_spectra(lattices, where, done) -> int:
    """Solve every lattice in worker processes, largest basis first.

    ``where[i]`` prefixes a capacity refusal of lattice i.  ``done(i, result)``
    runs in this process as each spectrum arrives.  A worker's error re-raises
    here with its class and message, and a worker that dies (say, killed for
    want of memory) is a CapacityError; on any error the workers are stopped
    before it propagates.  Returns the worker count.
    """
    dims = []
    for lattice, name in zip(lattices, where):
        with _named(name):
            dims.append(exact.require_capacity(lattice.N, lattice.L))
    count = worker_count(dims)

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(count, mp_context=multiprocessing.get_context("spawn"))
    try:
        # a spawning executor starts its workers inside submit
        with _environment(WORKER_ENV):
            order = sorted(range(len(lattices)), key=lambda i: -dims[i])
            futures = {pool.submit(_solve, lattices[i]): i for i in order}
        for future in as_completed(futures):
            i = futures[future]
            with _named(where[i]):
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    raise CapacityError(
                        f"a worker process stopped before it solved N={lattices[i].N}, "
                        f"L={lattices[i].L} ({exc}); the machine may be out of memory"
                    ) from exc
            done(i, result)
    except BaseException:
        # the executor has no public way to stop a running call; shutdown
        # below then reaps the stopped workers
        for process in list(pool._processes.values()):
            process.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
    return count
