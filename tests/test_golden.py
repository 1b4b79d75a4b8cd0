"""Byte-exact regression of every command's CSV against frozen goldens.

Each case is a small CLI run; its CSV must match tests/golden/<name>.csv on
every line after the `# manifest:` pointer (whose path depends on where the
run writes).  Together the cases cover all seven commands, all six
provenances, a spectrum-cache miss followed by a hit, counted and explicit
angle grids, and a slope run over two lattice sizes.

The goldens were frozen once and are not regenerated to follow the code:
a mismatch means the numbers changed.
"""
import json
from pathlib import Path

import pytest

from latscat.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (name, argv without --out); "CACHE" is replaced by a shared cache dir.
# Order matters: theta_all_provenances misses the cache, compare_cached hits.
CASES = [
    (
        "theta_all_provenances",
        ["theta-scan", "--L", "4", "--n", "1", "--U-over-J", "1",
         "--theta-grid", "5", "--cache-dir", "CACHE",
         "--provenance", "exact,bogoliubov,sf-limit,mi-limit,largeL,linear"],
    ),
    (
        "compare_cached",
        ["compare", "--L", "4", "--N", "4", "--U-over-J", "1",
         "--theta-grid", "7", "--cache-dir", "CACHE"],
    ),
    (
        "u_scan_explicit_angles",
        ["u-scan", "--L", "4", "--n", "1", "--u-grid", "0.5,2",
         "--theta-grid=-0.5,0.3,0.7"],
    ),
    (
        "heatmap",
        ["heatmap", "--L", "10", "--n", "1", "--U-over-J", "0.02",
         "--E0", "2", "--theta-grid", "3"],
    ),
    (
        "deviation_map",
        ["deviation-map", "--L", "4", "--n", "0.5", "--u-grid", "1,5",
         "--theta-grid", "7"],
    ),
    ("slope_two_L", ["slope", "--L", "5,9", "--E0", "2", "--theta-grid", "7"]),
    ("depletion", ["depletion", "--L", "5", "--n", "2", "--u-grid", "0:20:5"]),
]

# (misses, hits) expected in each case's manifest
CACHE_COUNTS = {"theta_all_provenances": (1, 0), "compare_cached": (0, 1)}


def run_case(argv, out, cache_dir):
    argv = [str(cache_dir) if a == "CACHE" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 0


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Run every case once, in order, sharing one cache directory."""
    root = tmp_path_factory.mktemp("golden")
    for name, argv in CASES:
        run_case(argv, root / f"{name}.csv", root / "cache")
    return root


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_csv_matches_golden(runs, name):
    pointer, body = (runs / f"{name}.csv").read_bytes().split(b"\n", 1)
    assert pointer.startswith(b"# manifest: ")
    assert body == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(CACHE_COUNTS))
def test_cache_miss_then_hit(runs, name):
    cache = json.loads((runs / f"{name}.manifest.json").read_text())["cache"]
    assert (cache["misses"], cache["hits"]) == CACHE_COUNTS[name]
