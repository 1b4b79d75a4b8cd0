"""Tests for the sweep runners, artifact writers, and the spectrum cache."""
import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from latscat import LatticeSpec, ProbeSpec
from latscat.bogoliubov import bog_inelastic_cs, solve_depletion
from latscat.errors import BadParameterError, CacheError, CapacityError
from latscat import exact, scans
from latscat.exact import diagonalize, sector_spectrum
from latscat.limits import slope_lambda
from latscat.scans import (
    COMMANDS,
    RunManifest,
    ScanConfig,
    ScanTable,
    cache_path,
    cache_spectra,
    execute,
    format_cell,
    load_spectrum,
    output_paths,
    run,
    save_spectrum,
    write_csv,
)


# ---------------------------------------------------------------- table/cells


def test_table_rejects_ragged_rows():
    with pytest.raises(BadParameterError):
        ScanTable(columns=["x", "provenance"], rows=[[1.0, "exact", 3.0]])


def test_table_rejects_unknown_provenance():
    with pytest.raises(BadParameterError):
        ScanTable(columns=["x", "provenance"], rows=[[1.0, "guesswork"]])


def test_table_requires_provenance_column():
    with pytest.raises(BadParameterError):
        ScanTable(columns=["x", "y"], rows=[[1.0, 2.0]])


def test_format_cell_round_trips_doubles():
    rng = np.random.default_rng(31)
    for x in rng.uniform(-1e6, 1e6, size=50):
        assert float(format_cell(float(x))) == float(x)
    assert float(format_cell(math.pi)) == math.pi


def test_format_cell_ints_and_bools():
    assert format_cell(7) == "7"
    assert format_cell(True) == "1"
    assert format_cell(False) == "0"
    assert format_cell("exact") == "exact"


def test_csv_first_line_points_at_manifest(tmp_path):
    table = ScanTable(columns=["x", "provenance"], rows=[[0.5, "exact"]])
    out = tmp_path / "t.csv"
    write_csv(out, table, tmp_path / "t.manifest.json")
    lines = out.read_text().splitlines()
    assert lines[0] == f"# manifest: {tmp_path / 't.manifest.json'}"
    assert lines[1] == "x,provenance"
    assert lines[2] == "0.5,exact"


def test_output_paths_derive_manifest_name():
    cfg = ScanConfig(command="theta-scan", out="results/run.csv")
    csv_path, manifest_path = output_paths(cfg)
    assert str(csv_path) == "results/run.csv"
    assert str(manifest_path) == "results/run.manifest.json"


# ------------------------------------------------------------------- cache


def _small_lattice():
    return LatticeSpec(L=4, n=1.0, U=0.0065, J=0.0065)


def test_cache_round_trip_is_bit_identical(tmp_path):
    lattice = _small_lattice()
    result = sector_spectrum(lattice)
    path = cache_path(tmp_path, lattice)
    save_spectrum(path, result, lattice)
    loaded = load_spectrum(path, lattice)
    for name in ("eigenvalues", "momenta", "weights"):
        assert np.array_equal(getattr(loaded, name), getattr(result, name)), name
    assert loaded.ground_energy == result.ground_energy
    assert loaded.eigenvectors is None and loaded.density_elements is None
    # three doubles per state behind the header
    assert len(path.read_bytes().split(b"\n", 1)[1]) == 3 * 8 * result.eigenvalues.size
    # a second save of the same content produces the same bytes
    first = path.read_bytes()
    save_spectrum(path, result, lattice)
    assert path.read_bytes() == first


def test_cache_header_is_human_readable(tmp_path):
    lattice = _small_lattice()
    save_spectrum(cache_path(tmp_path, lattice), sector_spectrum(lattice), lattice)
    head = cache_path(tmp_path, lattice).read_bytes().split(b"\n", 1)[0]
    expected = f"LSCAT-SPEC v2 N=4 L=4 U_over_J=1 J={0.0065:.17g}"
    assert head.decode("ascii") == expected


def test_cache_refuses_a_spectrum_without_channels(tmp_path):
    lattice = _small_lattice()
    with pytest.raises(BadParameterError, match="without channels"):
        save_spectrum(cache_path(tmp_path, lattice), diagonalize(lattice), lattice)


def test_cache_rejects_truncated_payload(tmp_path):
    lattice = _small_lattice()
    path = cache_path(tmp_path, lattice)
    save_spectrum(path, sector_spectrum(lattice), lattice)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CacheError):
        load_spectrum(path, lattice)


def test_cache_rejects_bad_magic(tmp_path):
    lattice = _small_lattice()
    path = cache_path(tmp_path, lattice)
    save_spectrum(path, sector_spectrum(lattice), lattice)
    blob = path.read_bytes()
    path.write_bytes(b"XSCAT-SPEC" + blob[10:])
    with pytest.raises(CacheError):
        load_spectrum(path, lattice)


def test_cache_rejects_mismatched_key(tmp_path):
    lattice = _small_lattice()
    path = cache_path(tmp_path, lattice)
    save_spectrum(path, sector_spectrum(lattice), lattice)
    other = LatticeSpec(L=4, n=1.0, U=0.0065, J=0.0070)
    with pytest.raises(CacheError):
        load_spectrum(path, other)


def test_a_v1_cache_file_is_recomputed_with_a_warning(tmp_path):
    # the v1 layout: eigenvalues, then the dim x L table of <e|n_j|g>
    lattice = _small_lattice()
    dense = diagonalize(lattice)
    path = cache_path(tmp_path, lattice)
    header = f"LSCAT-SPEC v1 N=4 L=4 U_over_J=1 J={0.0065:.17g}\n".encode("ascii")
    path.write_bytes(
        header + dense.eigenvalues.astype("<f8").tobytes()
        + dense.density_elements.astype("<f8").tobytes()
    )
    manifest = RunManifest(command="test", parameters={})
    result = cache_spectra([lattice], tmp_path, manifest)[0]
    assert len(manifest.warnings) == 1
    assert "recomputing spectrum" in manifest.warnings[0] and "format v1" in manifest.warnings[0]
    assert (manifest.cache["hits"], manifest.cache["misses"]) == (0, 1)
    assert np.array_equal(result.weights, sector_spectrum(lattice).weights)
    assert path.read_bytes().startswith(b"LSCAT-SPEC v2 ")


def test_cache_keys_distinguish_couplings(tmp_path):
    a = LatticeSpec(L=4, n=1.0, U=0.0065, J=0.0065)
    b = LatticeSpec(L=4, n=1.0, U=0.0065, J=0.0066)
    assert cache_path(tmp_path, a) != cache_path(tmp_path, b)


def test_cache_spectrum_recovers_from_corruption(tmp_path):
    lattice = _small_lattice()
    manifest = RunManifest(command="test", parameters={})
    cache_spectra([lattice], tmp_path, manifest)[0]
    assert manifest.cache["misses"] == 1
    path = cache_path(tmp_path, lattice)
    path.write_bytes(b"garbage\n")
    result = cache_spectra([lattice], tmp_path, manifest)[0]
    assert manifest.warnings and "recomputing" in manifest.warnings[0]
    assert result.eigenvalues.size == 35
    # the corrupted entry was rewritten and is loadable again
    reloaded = load_spectrum(path, lattice)
    assert np.array_equal(reloaded.eigenvalues, result.eigenvalues)


# Each corruption gets the columns (energy, K, weight) of a v2 file to edit.
def _nan_eigenvalue(w, K, weight):
    w[3] = np.nan


def _ground_above_excited(w, K, weight):
    w[0] = w[1] + 1.0


def _infinite_density(w, K, weight):
    weight[5] = np.inf  # the weight |<e|n_0|g>|^2 of a density matrix element


def _ground_row_off_N(w, K, weight):
    weight[0] += 0.5  # the ground weight is (N/L)^2


def _ground_row_not_uniform(w, K, weight):
    K[0] = np.pi / 2  # a ground state that breaks translation symmetry


def _negative_weight(w, K, weight):
    weight[7] = -1e-3


def _momentum_off_the_grid(w, K, weight):
    K[9] += 0.1


def test_a_wrong_ground_weight_warns_with_the_plain_number(tmp_path):
    lattice = _small_lattice()  # N = L = 4: the ground weight (N/L)^2 is 1
    path = cache_path(tmp_path, lattice)
    save_spectrum(path, sector_spectrum(lattice), lattice)
    head, body = path.read_bytes().split(b"\n", 1)
    channels = np.frombuffer(body, dtype="<f8").reshape(-1, 3).copy()
    channels[0, 2] = 0.9
    path.write_bytes(head + b"\n" + channels.tobytes())
    manifest = RunManifest(command="test", parameters={})
    cache_spectra([lattice], tmp_path, manifest)
    (warning,) = manifest.warnings
    assert warning.endswith("ground-state weight is 0.9, expected (N/L)^2 = 1.0"), warning
    fault = exact.ground_channel_fault(np.float64(np.pi), np.float64(1.0), 4, 4)
    assert fault == f"ground state has momentum {np.pi!r}, expected 0"


@pytest.mark.parametrize(
    "corrupt",
    [
        _nan_eigenvalue,
        _ground_above_excited,
        _infinite_density,
        _ground_row_off_N,
        _ground_row_not_uniform,
        _negative_weight,
        _momentum_off_the_grid,
    ],
)
def test_cache_spectrum_recomputes_corrupt_content(tmp_path, corrupt):
    lattice = _small_lattice()
    fresh = sector_spectrum(lattice)  # the solver a run uses
    path = cache_path(tmp_path, lattice)
    save_spectrum(path, fresh, lattice)
    head, body = path.read_bytes().split(b"\n", 1)
    channels = np.frombuffer(body, dtype="<f8").reshape(-1, 3).copy()
    corrupt(channels[:, 0], channels[:, 1], channels[:, 2])
    path.write_bytes(head + b"\n" + channels.tobytes())

    manifest = RunManifest(command="test", parameters={})
    result = cache_spectra([lattice], tmp_path, manifest)[0]
    assert len(manifest.warnings) == 1 and "recomputing spectrum" in manifest.warnings[0]
    assert (manifest.cache["hits"], manifest.cache["misses"]) == (0, 1)
    for name in ("eigenvalues", "momenta", "weights"):
        assert np.array_equal(getattr(result, name), getattr(fresh, name)), name
    reloaded = load_spectrum(path, lattice)
    assert np.array_equal(reloaded.eigenvalues, fresh.eigenvalues)
    assert np.array_equal(reloaded.weights, fresh.weights)


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache-dir", "cache-dir"])
def test_a_lattice_repeated_in_one_call_is_solved_once_and_counted_once(
    tmp_path, monkeypatch, cached
):
    solved, solve = [], scans.sector_spectrum
    monkeypatch.setattr(scans, "sector_spectrum", lambda lat: solved.append(lat) or solve(lat))
    lattice = _small_lattice()
    manifest = RunManifest(command="test", parameters={})
    first, again = cache_spectra([lattice, lattice], tmp_path if cached else None, manifest)
    assert first is again and solved == [lattice]
    assert (manifest.cache["hits"], manifest.cache["misses"]) == (0, 1)
    assert manifest.spectra["solved"] == 1


def test_cache_spectrum_counts_hits(tmp_path):
    lattice = _small_lattice()
    manifest = RunManifest(command="test", parameters={})
    first = cache_spectra([lattice], tmp_path, manifest)[0]
    second = cache_spectra([lattice], tmp_path, manifest)[0]
    assert (manifest.cache["misses"], manifest.cache["hits"]) == (1, 1)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.weights, second.weights)


# ------------------------------------------------------------------ runners


def test_theta_scan_covers_full_quadrant():
    cfg = ScanConfig(command="theta-scan", L_values=(5,), n=1.0, theta_grid=9)
    table, _ = run(cfg)
    thetas = sorted(set(table.column("theta")))
    assert thetas[0] == 0.0
    assert thetas[-1] == pytest.approx(np.pi / 2, abs=0)
    assert len(table.rows) == 9


def test_theta_scan_sf_and_mi_share_elastic_column():
    # density-independent interference: the elastic curve is common to every
    # provenance at equal filling, the exact one included, whose ground state
    # has <g|n_j|g> = N/L; compare's two rows carry the same column
    common = dict(L_values=(4,), n=1.0, U_over_J=20.0, theta_grid=21)
    table, _ = run(ScanConfig(command="theta-scan", provenance=scans.PROVENANCES, **common))
    columns = {p: [r[2] for r in table.rows if r[1] == p] for p in scans.PROVENANCES}
    assert len(columns) == 6 and all(len(c) == 21 for c in columns.values())
    elastic = columns["sf-limit"]
    for column in columns.values():
        assert column == elastic  # identical, not merely close
    compared, _ = run(ScanConfig(command="compare", **common))
    for provenance in ("exact", "bogoliubov"):
        cells = [format_cell(r[2]) for r in compared.rows if r[1] == provenance]
        assert cells == [format_cell(x) for x in elastic]


def test_theta_scan_forward_inelastic_vanishes_for_all_provenances():
    cfg = ScanConfig(
        command="theta-scan",
        L_values=(5,),
        n=1.0,
        U_over_J=1.0,
        theta_grid=3,
        provenance=("exact", "bogoliubov", "sf-limit", "mi-limit", "largeL", "linear"),
    )
    table, _ = run(cfg)
    for row in table.rows:
        if row[0] == 0.0:
            assert row[3] == 0.0


def test_theta_scan_bog_rows_match_direct_evaluation():
    cfg = ScanConfig(
        command="theta-scan", L_values=(5,), n=2.0, U_over_J=3.0,
        theta_grid=7, provenance=("bogoliubov",),
    )
    table, manifest = run(cfg)
    state = solve_depletion(cfg.lattice())
    for row in table.rows:
        probe = ProbeSpec(E0=cfg.E0, theta=row[0])
        assert row[3] == bog_inelastic_cs(state, probe, cfg.V0)
    assert manifest.metadata["depletion_fraction"] == state.depletion_fraction


def test_u_scan_interaction_free_rows_agree():
    cfg = ScanConfig(
        command="u-scan", L_values=(5,), n=1.0,
        u_grid=(0.0, 1.0), theta_grid=(np.pi / 4,),
    )
    table, _ = run(cfg)
    at_zero = {r[2]: r[3] for r in table.rows if r[0] == 0.0}
    assert_allclose(at_zero["exact"], at_zero["bogoliubov"], rtol=1e-12)
    assert_allclose(at_zero["linear"], at_zero["bogoliubov"], rtol=1e-12)
    assert {r[4] for r in table.rows if r[0] == 0.0} == {0.0}


def test_u_scan_linear_rows_follow_the_line():
    theta = 0.6
    cfg = ScanConfig(
        command="u-scan", L_values=(5,), n=2.0,
        u_grid=(0.5, 2.0), theta_grid=(theta,), provenance=("linear",),
    )
    table, _ = run(cfg)
    sl = slope_lambda(5, cfg.E0, theta, cfg.V0, cfg.mass_ratio, cfg.J)
    for row in table.rows:
        assert row[3] == pytest.approx(sl.gamma_sf - sl.lambda_ * row[0], rel=1e-12)


def test_u_scan_depletion_column_tracks_solver():
    cfg = ScanConfig(
        command="u-scan", L_values=(4,), n=1.0,
        u_grid=(2.0,), theta_grid=(0.7,), provenance=("bogoliubov",),
    )
    table, _ = run(cfg)
    state = solve_depletion(LatticeSpec(L=4, n=1.0, U=2.0 * cfg.J, J=cfg.J))
    assert table.rows[0][4] == state.depletion_fraction


def test_heatmap_caps_probe_energy_grid():
    cfg = ScanConfig(command="heatmap", L_values=(10,), n=1.0, E0=9.0, theta_grid=3)
    table, manifest = run(cfg)
    assert any("capped" in w for w in manifest.warnings)
    assert max(table.column("E0")) < 6.0


def test_heatmap_quiet_within_band():
    cfg = ScanConfig(command="heatmap", L_values=(10,), n=1.0, E0=2.0, theta_grid=3)
    _, manifest = run(cfg)
    assert manifest.warnings == []


def test_heatmap_forward_column_is_zero():
    cfg = ScanConfig(command="heatmap", L_values=(10,), n=1.0, theta_grid=3)
    table, _ = run(cfg)
    for row in table.rows:
        if row[1] == 0.0:
            assert row[3] == 0.0


def test_heatmap_reference_depletion_metadata():
    # weakly interacting benchmark: one percent depleted
    cfg = ScanConfig(
        command="heatmap", L_values=(100,), n=1.0, U_over_J=0.02, theta_grid=3
    )
    _, manifest = run(cfg)
    assert manifest.metadata["depletion_fraction"] == pytest.approx(0.012, abs=1.5e-3)


def test_heatmap_rejects_exact_provenance():
    cfg = ScanConfig(command="heatmap", L_values=(5,), provenance=("exact",))
    with pytest.raises(BadParameterError):
        run(cfg)


def test_deviation_map_improves_with_filling():
    cfg = ScanConfig(
        command="deviation-map", L_values=(4,), n=1.0,
        u_grid=(1.0, 5.0), theta_grid=31,
    )
    table, _ = run(cfg)
    at_u1 = {r[0]: r[3] for r in table.rows if r[1] == 1.0}
    assert at_u1[1.0] < at_u1[0.25]
    # inset behavior: depletion grows with interaction at fixed filling
    dep = {r[1]: r[4] for r in table.rows if r[0] == 1.0}
    assert dep[5.0] > dep[1.0]


def test_deviation_map_cells_sit_at_their_realized_filling():
    # on L = 4 the steps 0.2 .. 1.0 realize N = 1, 2, 2, 3, 4: each N is
    # one cell, and its quasiparticle side reads the same N / 4
    cfg = ScanConfig(
        command="deviation-map", L_values=(4,), n=1.0, u_grid=(1.0,), theta_grid=3
    )
    table, manifest = run(cfg)
    assert manifest.parameters["n_grid"] == [0.25, 0.5, 0.75, 1.0]
    assert table.column("n") == [0.25, 0.5, 0.75, 1.0]
    for N, depletion in zip(range(1, 5), table.column("depletion")):
        lattice = LatticeSpec(L=4, n=N / 4, U=1.0 * cfg.J, J=cfg.J, V0=cfg.V0)
        assert depletion == solve_depletion(lattice).depletion_fraction


def test_deviation_map_names_failing_cell(monkeypatch):
    # the first cell, n = 0.2, holds N = 6 on L = 30: about 140 GB in sectors
    monkeypatch.setattr("latscat.exact._available_bytes", lambda: 8 * 2**30)
    cfg = ScanConfig(command="deviation-map", L_values=(30,), n=1.0, u_grid=(1.0,))
    with pytest.raises(CapacityError, match="N=6, L=30: "):
        run(cfg)


def test_deviation_map_names_the_cell_its_memory_refuses(monkeypatch):
    # on L = 4 only the n = 1.0 cell (N = 4, dimension 35 in 10 orbits) needs
    # 6 * 8 * 10^2 + 5 * 8 * 35 * 4 = 10400 bytes for its sector solve; the
    # step's charge, 4 cells at one angle, 4 * exact.POINT_BYTES, fits
    assert 4 * exact.POINT_BYTES < 10399
    monkeypatch.setattr("latscat.exact._available_bytes", lambda: 10399)
    cfg = ScanConfig(
        command="deviation-map", L_values=(4,), n=1.0, u_grid=(1.0,), theta_grid=(0.5,)
    )
    with pytest.raises(CapacityError, match=r"N=4, L=4: .* 10400 bytes.* 10399 bytes"):
        run(cfg)


def test_deviation_map_charges_each_step_before_laying_it_out(monkeypatch):
    # L = 3 realizes N = 1, 2, 3 at 2 U/J and 3 angles: 6, 12 and 18 points
    # before each step; the third step's 18 do not fit, and its cells,
    # each of whose sector solves would, are never built
    available = 12 * exact.POINT_BYTES
    monkeypatch.setattr("latscat.exact._available_bytes", lambda: available)
    built, site = [], scans.Site
    monkeypatch.setattr(
        scans, "Site", lambda kinds, lattice, *args: built.append(lattice.N) or site(kinds, lattice, *args)
    )
    cfg = ScanConfig(command="deviation-map", L_values=(3,), n=1.0, u_grid=(1.0, 2.0), theta_grid=3)
    with pytest.raises(
        CapacityError,
        match=rf"^a deviation-map grid of 18 points needs about {18 * exact.POINT_BYTES} bytes, "
        rf"but only {available}",
    ):
        run(cfg)
    assert built == [1, 1, 2, 2]


@pytest.mark.parametrize(
    "command, options, pairs",
    [
        # 41 probe energies at each of 30 angles
        ("heatmap", dict(L_values=(5,), theta_grid=30), 41 * 30),
        # 7 u at 10 angles, refused before any spectrum is solved
        ("u-scan", dict(L_values=(5,), n=2.0, u_grid=tuple(range(7)), theta_grid=10), 7 * 10),
        # 3 fillings of L = 3 (N = 1, 2, 3) at 8 U/J and 3 angles, refused
        # at the third filling's step; every cell's sector solve, at most
        # 1968 bytes, fits
        ("deviation-map", dict(L_values=(3,), u_grid=tuple(range(1, 9)), theta_grid=3), 72),
    ],
)
def test_a_grid_is_charged_by_its_site_probe_pairs(monkeypatch, command, options, pairs):
    # a point per provenance of each pair; the angles alone fit, 30 of them
    # at exact.POINT_BYTES a point
    available = 50 * exact.POINT_BYTES
    monkeypatch.setattr("latscat.exact._available_bytes", lambda: available)
    points = pairs * len(COMMANDS[command].allowed)
    needed = points * exact.POINT_BYTES
    with pytest.raises(
        CapacityError,
        match=rf"^a {command} grid of {points} points needs about {needed} bytes, but only {available}",
    ):
        run(ScanConfig(command=command, **options))


# small runs of every command that lays out probes, and their points: each
# cell's sector solve (at most 1968 bytes on L = 3) and condensate fit at
# the charge of its grid
SMALL_RUNS = {
    "theta-scan": (6 * 10, dict(L_values=(3,), n=1.0, U_over_J=1.0, provenance=scans.PROVENANCES)),
    "compare": (2 * 10, dict(L_values=(3,), n=1.0, U_over_J=1.0)),
    # 2 u at 10 angles, with exact, bogoliubov and linear
    "u-scan": (2 * 10 * 3, dict(L_values=(3,), n=1.0, u_grid=(1.0, 5.0))),
    # 41 probe energies at each of 10 angles
    "heatmap": (41 * 10, dict(L_values=(3,), n=1.0, U_over_J=1.0)),
    # N = 1, 2 and 3 at one U/J
    "deviation-map": (3 * 10, dict(L_values=(3,), n=1.0, u_grid=(1.0,))),
    # L = 3 with linear, L = 5 with linear and largeL
    "slope": (10 + 2 * 10, dict(L_values=(3, 5))),
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_a_grid_that_fits_the_least_charge_but_not_its_commands_is_refused(monkeypatch, command):
    # the least charge is the counted angle grid's, a point an angle; the
    # command is refused one byte short of its own points and runs at them
    points, options = SMALL_RUNS[command]
    config = ScanConfig(command=command, theta_grid=10, **options)
    needed = points * exact.POINT_BYTES
    assert 10 * exact.POINT_BYTES < needed - 1
    monkeypatch.setattr("latscat.exact._available_bytes", lambda: needed - 1)
    with pytest.raises(
        CapacityError,
        match=rf"^a {command} grid of {points} points needs about {needed} bytes, but only {needed - 1}",
    ):
        run(config)
    monkeypatch.setattr("latscat.exact._available_bytes", lambda: needed)
    table, _ = run(config)
    assert table.rows


# larger runs, past the growth of the exact curve's blocks of probes
SLOPE_RUNS = {
    "theta-scan": ((1000, 2000), dict(L_values=(5,), n=1.0, U_over_J=1.0)),
    "compare": ((1000, 2000), dict(L_values=(5,), n=1.0, U_over_J=1.0)),
    "u-scan": ((250, 500), dict(L_values=(5,), n=1.0, u_grid=(0.1, 1.0, 10.0))),
    "heatmap": ((50, 100), dict(L_values=(5,), n=1.0, U_over_J=1.0)),
    "deviation-map": ((1000, 2000), dict(L_values=(3,), n=1.0, u_grid=(1.0, 2.0))),
    "slope": ((1000, 2000), dict(L_values=(5,))),
}


def test_every_command_that_lays_out_probes_has_its_charge_measured():
    assert set(SLOPE_RUNS) == set(SMALL_RUNS) == set(COMMANDS) - {"depletion"}
    config = ScanConfig(command="depletion", u_grid=(1.0, 2.0))
    sites = COMMANDS["depletion"].layout(config, ("bogoliubov",), RunManifest("depletion", {}))
    assert len(sites) == 2 and not any(s.probes for s in sites)


@pytest.mark.parametrize("command", sorted(SLOPE_RUNS))
def test_a_command_is_charged_at_least_what_each_pair_holds(monkeypatch, tmp_path, command):
    # what a run holds grows by at most exact.POINT_BYTES a point, with the
    # command's default provenances and with every one it allows; the gate
    # reads a fixed memory, so the run is the same on every machine
    monkeypatch.setattr("latscat.exact._available_bytes", lambda: 2**33)
    sizes, options = SLOPE_RUNS[command]
    spec = COMMANDS[command]
    for kinds in dict.fromkeys((spec.default or spec.allowed, spec.allowed)):
        peaks, points = [], []
        for angles in sizes:
            config = ScanConfig(
                command=command, theta_grid=angles, provenance=kinds,
                out=str(tmp_path / "run.csv"), **options,
            )
            sites = spec.layout(config, kinds, RunManifest(command, {}))
            points.append(sum(len(s.probes) * len(s.kinds) for s in sites))
            tracemalloc.start()
            try:
                execute(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        slope = (peaks[1] - peaks[0]) / (points[1] - points[0])
        assert 0 < slope <= exact.POINT_BYTES, (kinds, slope, exact.POINT_BYTES)


def test_memory_for_the_sectors_but_not_the_dense_matrix_is_enough(monkeypatch, tmp_path):
    # dimension 1001 in 201 orbits: about 4.1 MB in sectors, 20 MB dense
    available = 10 * 2**20
    assert exact.sector_bytes(10, 5) < available < exact.dense_bytes(1001)
    monkeypatch.setattr("latscat.exact._available_bytes", lambda: available)
    cfg = ScanConfig(command="u-scan", L_values=(5,), n=2.0, u_grid=(2.0,), cache_dir=str(tmp_path))
    table, manifest = run(cfg)
    assert manifest.spectra["solved"] == 1
    assert all(v > 0 for v in table.column("inelastic"))
    with pytest.raises(CapacityError, match=f"{exact.dense_bytes(1001)} bytes"):
        diagonalize(LatticeSpec(L=5, n=2.0, U=0.0065, J=0.0065))


def test_slope_emits_reference_rows_and_markers():
    cfg = ScanConfig(
        command="slope", L_values=(5, 9), E0=2.0, theta_grid=(0.01, 0.7)
    )
    table, manifest = run(cfg)
    assert len(table.rows) == 2 * 3  # two angles x (two L + one reference)
    reference = [r for r in table.rows if r[2] == "largeL"]
    assert all(r[1] == 0 for r in reference)
    finite = [r for r in table.rows if r[2] == "linear"]
    assert {r[1] for r in finite} == {5, 9}
    # near-forward angles are flagged as close to a Bragg divergence
    flags = {r[0]: r[5] for r in table.rows}
    assert flags[0.01] is True
    assert flags[0.7] is False
    markers = manifest.metadata["marker_angles"]
    assert "0" in markers and len(markers["0"]) > 0
    assert all(0 <= a <= np.pi / 2 for a in markers["0"])


def test_slope_reference_diverges_at_forward_angle():
    cfg = ScanConfig(command="slope", L_values=(5,), theta_grid=(0.0,))
    table, _ = run(cfg)
    ref = [r for r in table.rows if r[2] == "largeL"][0]
    assert math.isinf(ref[3])
    assert ref[5] is True


def test_compare_reports_per_angle_deviation():
    cfg = ScanConfig(
        command="compare", L_values=(5,), U_over_J=1.0, theta_grid=9
    )
    table, manifest = run(cfg)
    assert len(table.rows) == 18
    for i in range(0, 18, 2):
        assert table.rows[i][1] == "exact"
        assert table.rows[i + 1][1] == "bogoliubov"
        assert table.rows[i][2] == table.rows[i + 1][2]  # shared elastic column
    forward_bog = table.rows[1]
    assert math.isnan(forward_bog[4])
    interior = table.rows[3]
    expected = abs(interior[3] - table.rows[2][3]) / table.rows[2][3]
    assert interior[4] == pytest.approx(expected, rel=1e-12)
    assert 0 < manifest.metadata["delta_cs"] < 1


def test_depletion_runner_columns():
    cfg = ScanConfig(
        command="depletion", L_values=(5,), n=2.0, u_grid=(0.1, 1.0, 60.0)
    )
    table, manifest = run(cfg)
    alpha = (5**4 + 10 * 5**2 - 11) / (2880.0 * 10)
    assert manifest.metadata["alpha_quadratic"] == pytest.approx(alpha, rel=1e-12)
    for row in table.rows:
        assert row[3] == pytest.approx(alpha * row[0] ** 2, rel=1e-12)
    ok = {row[0]: row[4] for row in table.rows}
    assert ok[1.0] is True
    # the healing window is judged on the depleted condensate U n0 / J,
    # which stays inside the window until well past u = 40
    assert ok[60.0] is False


# ---------------------------------------------------------------- execute()


def test_execute_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "run.csv"
    cfg = ScanConfig(
        command="theta-scan", L_values=(4,), n=1.0, theta_grid=5, out=str(out)
    )
    csv_path, manifest = execute(cfg)
    assert csv_path == out
    assert out.exists()
    manifest_path = tmp_path / "run.manifest.json"
    blob = json.loads(manifest_path.read_text())
    assert blob["command"] == "theta-scan"
    assert blob["version"]
    assert blob["wall_time_s"] > 0
    # completeness both ways: listed outputs exist, the CSV points back
    for listed in blob["outputs"]:
        assert listed == str(out)
    first = out.read_text().splitlines()[0]
    assert first == f"# manifest: {manifest_path}"


def test_execute_is_byte_deterministic(tmp_path):
    out = tmp_path / "det.csv"
    cfg = ScanConfig(
        command="u-scan", L_values=(4,), n=1.0, u_grid=(0.5, 1.5),
        theta_grid=(0.7,), out=str(out),
    )
    execute(cfg)
    first = out.read_bytes()
    execute(cfg)
    assert out.read_bytes() == first


def test_execute_rejects_multi_L_outside_slope(tmp_path):
    cfg = ScanConfig(
        command="theta-scan", L_values=(4, 5), out=str(tmp_path / "x.csv")
    )
    with pytest.raises(BadParameterError):
        execute(cfg)


def test_execute_unknown_command(tmp_path):
    cfg = ScanConfig(command="mystery", out=str(tmp_path / "x.csv"))
    with pytest.raises(BadParameterError):
        execute(cfg)


def test_artifacts_honour_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        out = tmp_path / "run.csv"
        cfg = ScanConfig(
            command="u-scan", L_values=(4,), n=1.0, u_grid=(0.5,),
            theta_grid=(0.7,), cache_dir=str(tmp_path / "cache"), out=str(out),
        )
        execute(cfg)
    finally:
        os.umask(old)
    written = [out, tmp_path / "run.manifest.json", *(tmp_path / "cache").iterdir()]
    assert len(written) == 3
    for path in written:
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path


def test_rows_follow_the_requested_provenances():
    cfg = ScanConfig(
        command="compare", L_values=(4,), U_over_J=1.0, theta_grid=3,
        provenance=("bogoliubov",),
    )
    table, manifest = run(cfg)
    assert set(table.column("provenance")) == {"bogoliubov"}
    assert manifest.parameters["provenance"] == ["bogoliubov"]
    cfg = ScanConfig(command="slope", L_values=(5, 9), theta_grid=3, provenance=("linear",))
    table, _ = run(cfg)
    assert set(table.column("provenance")) == {"linear"}
    assert len(table.rows) == 3 * 2


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_manifest_records_only_the_grids_its_command_reads(command):
    # depletion reads no angle; only u-scan, depletion and deviation-map sweep u
    cfg = ScanConfig(command=command, L_values=(3,), n=1.0, theta_grid=3, u_grid=(0.5, 2.0))
    table, manifest = run(cfg)
    params = manifest.parameters
    assert ("theta_grid" in params) == (command != "depletion")
    assert ("u_grid" in params) == (command in ("u-scan", "depletion", "deviation-map"))
    if "theta" in table.columns:
        assert sorted(set(table.column("theta"))) == params["theta_grid"]
    if "u_grid" in params:
        assert params["u_grid"] == [0.5, 2.0]


@pytest.mark.parametrize(
    "command, options, calls",
    [
        ("deviation-map", dict(u_grid=(1.0, 5.0)), 0),
        ("u-scan", dict(u_grid=(0.5, 2.0), provenance=("exact",)), 0),
        ("theta-scan", dict(provenance=("exact", "bogoliubov")), 1),
        ("compare", {}, 1),
    ],
)
def test_a_run_evaluates_only_the_elastic_terms_it_writes(monkeypatch, command, options, calls):
    # only theta-scan and compare write an elastic column, one closed form a
    # site; a site that reads a spectrum sums its inelastic curve alone
    counted = []
    real = scans.elastic_curve

    def counting(*args):
        counted.append(args)
        return real(*args)

    monkeypatch.setattr("latscat.scans.elastic_curve", counting)
    monkeypatch.setattr("latscat.exact.elastic_curve", counting)
    table, _ = run(ScanConfig(command=command, L_values=(4,), n=1.0, theta_grid=5, **options))
    assert table.rows
    assert len(counted) == calls
