"""Tests of the worker processes that solve a run's missing spectra.

A run loads its cached spectra and solves every miss in spawned worker
processes with one BLAS thread each.  These tests pin what that must keep:
a cell's bytes do not depend on the worker count, a worker's spectrum is the
in-process one to rounding, errors cross the process boundary with their
class, no worker outlives a failing run, the memory gate lowers the worker
count before it refuses, and a fully cached run starts no worker at all.
"""
import json
import multiprocessing
import pickle
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from latscat import errors, exact, workers
from latscat.errors import CapacityError, DegenerateGroundStateError, LatscatError
from latscat.model import LatticeSpec, ProbeSpec
from latscat.scans import ScanConfig, cache_spectrum, execute, run


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


@pytest.mark.parametrize("cls", [LatscatError, *all_subclasses(LatscatError)])
def test_every_library_error_survives_a_pickle_round_trip(cls):
    assert cls.__module__ == errors.__name__
    back = pickle.loads(pickle.dumps(cls("cell n=1.0: the message")))
    assert type(back) is cls
    assert str(back) == "cell n=1.0: the message"


def test_worker_count_fits_the_largest_dense_sets(monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
    one = exact.dense_bytes(10)  # 2400 bytes
    for available, expected in [(None, 3), (3 * one, 3), (3 * one - 1, 2), (2 * one - 1, 1), (1, 1)]:
        monkeypatch.setattr(exact, "_available_bytes", lambda: available)
        assert workers.worker_count([10, 10, 10]) == expected
    # the largest sets count: 2 * dense(20) does not fit, dense(20) + dense(10) would
    monkeypatch.setattr(exact, "_available_bytes", lambda: exact.dense_bytes(20) + one)
    assert workers.worker_count([10, 20, 20]) == 1
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    monkeypatch.setattr(exact, "_available_bytes", lambda: None)
    assert workers.worker_count([10, 10]) == 1


def test_memory_for_one_solve_but_not_two_runs_one_worker(monkeypatch):
    # two lattices of dimension C(5,3) = 10, 2400 bytes of dense set each
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    monkeypatch.setattr(exact, "_available_bytes", lambda: 4000)
    config = ScanConfig(command="u-scan", L_values=(3,), N=3, n=1.0, u_grid=(0.5, 2.0))
    table, manifest = run(config)
    assert manifest.spectra["workers"] == 1
    assert manifest.spectra["solved"] == 2
    assert (manifest.cache_misses, manifest.cache_hits) == (2, 0)
    assert all(v > 0 for v in table.column("inelastic"))


def test_run_that_raises_leaves_no_child_process():
    # at U/J = 1e12 the incommensurate cells look degenerate (gap/range ~ 1e-13);
    # on two cores the commensurate N = 10 cell (dimension 1001) is still
    # solving when the N = 9 cell fails, so its worker is stopped mid-solve
    config = ScanConfig(
        command="deviation-map", L_values=(5,), n=2.0, u_grid=(1e12,), theta_points=3
    )
    with pytest.raises(DegenerateGroundStateError, match="ground-state gap"):
        run(config)
    assert multiprocessing.active_children() == []


def _run_in(directory, monkeypatch, cpus, command, **fields):
    """Execute one command inside its own directory with the given CPU count."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    _, manifest = execute(
        ScanConfig(command=command, L_values=(5,), n=2.0, cache_dir="cache", out="run.csv", **fields)
    )
    files = {
        p.relative_to(directory): p.read_bytes()
        for p in directory.rglob("*.*")
        if p.name != "run.manifest.json"  # carries wall times
    }
    return files, manifest


@pytest.mark.parametrize(
    "command, fields",
    [
        # cells N = 1..10 on L = 5: dimensions 5 up to 1001
        ("deviation-map", {"u_grid": (1.0,), "theta_points": 5}),
        ("u-scan", {"u_grid": (0.5, 5.0)}),
    ],
)
def test_one_worker_and_two_write_the_same_bytes(tmp_path, monkeypatch, command, fields):
    one, first = _run_in(tmp_path / "one", monkeypatch, 1, command, **fields)
    two, second = _run_in(tmp_path / "two", monkeypatch, 2, command, **fields)
    assert (first.spectra["workers"], second.spectra["workers"]) == (1, 2)
    assert first.spectra["solved"] == second.spectra["solved"] == first.cache_misses
    assert sum(name.suffix == ".lspec" for name in one) == first.cache_misses
    assert one.keys() == two.keys()
    for name in one:
        assert one[name] == two[name], name


def test_a_worker_spectrum_is_the_in_process_one():
    # degenerate excited states (momenta +k and -k) make the density table
    # basis-dependent, so compare what does not depend on it: the
    # eigenvalues, the ground row and the cross sections they give
    lattice = LatticeSpec(L=5, n=2.0, U=1.3, J=1.0)  # dimension 1001
    remote = cache_spectrum(lattice, None)
    local = exact.diagonalize(lattice)
    assert remote.eigenvectors is None

    def close(got, want):
        got, want = np.asarray(got), np.asarray(want)
        return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    assert close(remote.eigenvalues, local.eigenvalues)
    assert close(remote.density_elements[0], local.density_elements[0])
    probes = [ProbeSpec(E0=e0, theta=t) for e0 in (0.5, 2.0) for t in (0.2, 0.7, 1.3)]
    for side in ("elastic", "inelastic"):
        assert close(
            [getattr(cs, side) for cs in exact.exact_cross_sections(remote, lattice, probes)],
            [getattr(cs, side) for cs in exact.exact_cross_sections(local, lattice, probes)],
        )
    assert remote.residual <= exact.RESIDUAL_TOL
    assert remote.ground_gap == pytest.approx(local.ground_gap, rel=1e-12)


def test_a_fully_cached_run_starts_no_worker(tmp_path):
    cache = tmp_path / "cache"
    args = ["u-scan", "--L", "3", "--N", "3", "--u-grid", "0.5,2", "--cache-dir", str(cache)]
    cold = subprocess.run(
        [sys.executable, "-m", "latscat.cli", *args, "--out", str(tmp_path / "cold.csv")],
        capture_output=True, text=True,
    )
    assert cold.returncode == 0, cold.stderr
    code = (
        "import sys\n"
        "from latscat.cli import main\n"
        f"assert main({[*args, '--out', str(tmp_path / 'warm.csv')]!r}) == 0\n"
        "print('multiprocessing' in sys.modules)"
    )
    warm = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout.splitlines()[-1] == "False"
    cold_manifest = json.loads((tmp_path / "cold.manifest.json").read_text())
    warm_manifest = json.loads((tmp_path / "warm.manifest.json").read_text())
    assert cold_manifest["spectra"]["solved"] == 2
    assert warm_manifest["cache"] == {"hits": 2, "misses": 0}
    assert warm_manifest["spectra"] == {
        "solved": 0, "workers": 0, "solve_s": 0.0,
        "worst_residual": None, "min_ground_gap": None,
    }
    assert (tmp_path / "cold.csv").read_bytes().split(b"\n", 1)[1] == (
        tmp_path / "warm.csv"
    ).read_bytes().split(b"\n", 1)[1]


def test_a_worker_that_dies_is_a_capacity_refusal(monkeypatch):
    # a worker killed from outside (as for want of memory) breaks the pool;
    # the run refuses with exit code 3's error instead of a traceback
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    config = ScanConfig(command="u-scan", L_values=(5,), n=2.0, u_grid=(0.5, 5.0))
    outcome = {}

    def target():
        try:
            run(config)
        except Exception as exc:  # handed to the test thread below
            outcome["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    # both workers are started (and both solves submitted) before either can
    # finish: a worker takes longer than this to import its modules
    deadline = time.monotonic() + 60
    while len(multiprocessing.active_children()) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.1)
    for child in multiprocessing.active_children():
        child.kill()
    thread.join(60)
    assert not thread.is_alive()
    assert isinstance(outcome.get("error"), CapacityError), outcome
    assert "worker process stopped" in str(outcome["error"])
    assert multiprocessing.active_children() == []
