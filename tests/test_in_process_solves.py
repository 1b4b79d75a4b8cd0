"""In-process solves and pickle round trips.

No worker processes remain: a run loads its
cached spectra and solves every miss in momentum sectors, one after
another, in the process that asked.  These tests pin what that must keep:
a failing solve leaves no child process behind, a fully cached run imports
neither SciPy nor multiprocessing, and every library error still survives
a pickle round trip, for callers that run scans in their own pools.
"""
import json
import multiprocessing
import pickle
import subprocess
import sys

import pytest

from latscat import errors
from latscat.errors import DegenerateGroundStateError, LatscatError
from latscat.scans import ScanConfig, run


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


def test_run_that_raises_leaves_no_child_process():
    # at U/J = 1e12 the incommensurate cells look degenerate (gap/range ~ 1e-13)
    config = ScanConfig(
        command="deviation-map", L_values=(5,), n=2.0, u_grid=(1e12,), theta_grid=3
    )
    with pytest.raises(DegenerateGroundStateError, match="ground-state gap"):
        run(config)
    assert multiprocessing.active_children() == []


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
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'multiprocessing', 'scipy'}))"
    )
    warm = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout.splitlines()[-1] == "[]"
    cold_manifest = json.loads((tmp_path / "cold.manifest.json").read_text())
    warm_manifest = json.loads((tmp_path / "warm.manifest.json").read_text())
    assert cold_manifest["spectra"]["solved"] == 2
    assert cold_manifest["spectra"]["worst_fsum_residual"] <= 1e-12
    assert cold_manifest["spectra"]["worst_s0_residual"] <= 1e-14
    assert warm_manifest["cache"] == {"hits": 2, "misses": 0}
    assert warm_manifest["spectra"] == {
        "solved": 0, "solve_s": 0.0, "worst_residual": None, "min_ground_gap": None,
        "worst_fsum_residual": None, "worst_s0_residual": None,
    }
    assert (tmp_path / "cold.csv").read_bytes().split(b"\n", 1)[1] == (
        tmp_path / "warm.csv"
    ).read_bytes().split(b"\n", 1)[1]
