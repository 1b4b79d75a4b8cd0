"""End-to-end tests of the command-line interface and config resolution."""
import csv
import errno
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from latscat.cli import build_parser, main, read_config_file, resolve_config
from latscat.errors import BadParameterError
from latscat import exact
from latscat.scans import ScanConfig


def run_cli(tmp_path, *args):
    """Invoke main() in process; returns (exit_code, csv_path, manifest)."""
    out = tmp_path / "run.csv"
    code = main([*args, "--out", str(out)])
    manifest = None
    manifest_path = tmp_path / "run.manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
    return code, out, manifest


def read_rows(path):
    with open(path) as fh:
        fh.readline()  # manifest pointer
        return list(csv.DictReader(fh))


# ------------------------------------------------------------------- happy


def test_theta_scan_round_trip(tmp_path):
    code, out, manifest = run_cli(
        tmp_path, "theta-scan", "--L", "4", "--n", "1", "--theta-grid", "5"
    )
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 5
    assert {r["provenance"] for r in rows} == {"bogoliubov"}
    assert manifest["command"] == "theta-scan"
    assert manifest["parameters"]["provenance"] == ["bogoliubov"]


def test_condensate_and_insulator_share_elastic(tmp_path):
    code, out, _ = run_cli(
        tmp_path,
        "theta-scan",
        "--L", "9", "--N", "9", "--U-over-J", "30",
        "--theta-grid", "11",
        "--provenance", "sf-limit,mi-limit",
    )
    assert code == 0
    rows = read_rows(out)
    sf = {r["theta"]: r["elastic"] for r in rows if r["provenance"] == "sf-limit"}
    mi = {r["theta"]: r["elastic"] for r in rows if r["provenance"] == "mi-limit"}
    assert sf == mi  # byte-for-byte identical elastic columns


def test_u_scan_grid_expansion(tmp_path):
    code, out, manifest = run_cli(
        tmp_path,
        "u-scan",
        "--L", "4", "--n", "1",
        "--u-grid", "0:2:5",
        "--theta-grid", "0.7",
        "--provenance", "linear",
    )
    assert code == 0
    assert manifest["parameters"]["u_grid"] == [0.0, 0.5, 1.0, 1.5, 2.0]
    rows = read_rows(out)
    assert [float(r["u"]) for r in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert {float(r["theta"]) for r in rows} == {0.7}


def test_u_scan_honours_a_counted_theta_grid(tmp_path):
    # pi/4 alone is u-scan's own grid; a count asks for a uniform one
    args = ("u-scan", "--L", "3", "--n", "1", "--u-grid", "0.5", "--provenance", "linear")
    code, out, manifest = run_cli(tmp_path, *args)
    assert code == 0 and manifest["parameters"]["theta_grid"] == [np.pi / 4]
    assert [float(r["theta"]) for r in read_rows(out)] == [np.pi / 4]
    code, out, manifest = run_cli(tmp_path, *args, "--theta-grid", "5")
    assert code == 0
    assert manifest["parameters"]["theta_grid"] == list(np.linspace(0.0, np.pi / 2, 5))
    assert [float(r["theta"]) for r in read_rows(out)] == list(np.linspace(0.0, np.pi / 2, 5))


def test_explicit_angle_list(tmp_path):
    code, _, manifest = run_cli(
        tmp_path, "theta-scan", "--L", "4", "--theta-grid", "0.2,0.4"
    )
    assert code == 0
    assert manifest["parameters"]["theta_grid"] == [0.2, 0.4]


def test_cache_statistics_surface_in_manifest(tmp_path):
    cache = tmp_path / "cache"
    args = (
        "u-scan", "--L", "4", "--n", "1", "--u-grid", "1,2",
        "--theta-grid", "0.7", "--cache-dir", str(cache),
    )
    code, _, manifest = run_cli(tmp_path, *args)
    assert code == 0
    assert manifest["cache"] == {"hits": 0, "misses": 2}
    code, _, manifest = run_cli(tmp_path, *args)
    assert code == 0
    assert manifest["cache"] == {"hits": 2, "misses": 0}


def test_corrupt_cache_warns_and_recomputes(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = (
        "u-scan", "--L", "4", "--n", "1", "--u-grid", "1",
        "--theta-grid", "0.7", "--cache-dir", str(cache),
    )
    code, out, _ = run_cli(tmp_path, *args)
    assert code == 0
    good = out.read_bytes()
    for entry in cache.iterdir():
        entry.write_bytes(b"not a spectrum\n")
    code, out, manifest = run_cli(tmp_path, *args)
    assert code == 0
    assert out.read_bytes() == good
    assert any("recomputing" in w for w in manifest["warnings"])
    assert "recomputing" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "latscat.cli",
            "depletion", "--L", "4", "--n", "1", "--u-grid", "1",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == str(out)
    assert out.exists()


def test_cli_import_leaves_scipy_optimize_out():
    # both self-consistent solves bisect in model.py; SciPy serves only eigh
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, latscat.cli; print('scipy.optimize' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def scipy_loaded_after(code):
    """Run code in a fresh interpreter; True when it left any SciPy module loaded."""
    probe = "\nimport sys\nprint(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code + probe], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def test_cli_import_loads_no_scipy():
    # only the dense eigensolver needs SciPy, and it imports it itself
    assert not scipy_loaded_after("import latscat.cli")


def test_quasiparticle_run_loads_no_scipy(tmp_path):
    out = tmp_path / "bog.csv"
    code = (
        "from latscat.cli import main\n"
        "assert main(['theta-scan', '--provenance', 'bogoliubov', '--L', '5',"
        f" '--theta-grid', '5', '--out', {str(out)!r}]) == 0"
    )
    assert not scipy_loaded_after(code)
    assert out.exists()


def test_diagonalizing_run_loads_no_scipy(tmp_path):
    # a run solves its spectra in sectors with numpy; only the dense oracle needs SciPy
    out = tmp_path / "exact.csv"
    code = (
        "from latscat.cli import main\n"
        "assert main(['theta-scan', '--provenance', 'exact', '--L', '3', '--N', '3',"
        f" '--theta-grid', '5', '--out', {str(out)!r}]) == 0"
    )
    assert not scipy_loaded_after(code)
    rows = read_rows(out)
    assert [r["provenance"] for r in rows] == ["exact"] * 5
    # theta = 0 sits on a reciprocal lattice vector, where the inelastic part vanishes
    assert [float(r["inelastic"]) > 0 for r in rows] == [False, True, True, True, True]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ------------------------------------------------------------------ config


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(
        "# run defaults\n"
        "L = 4\n"
        "E0 = 3.0\n"
        "theta-grid = 5  # count\n"
    )
    code, _, manifest = run_cli(
        tmp_path, "theta-scan", "--config", str(cfg)
    )
    assert code == 0
    assert manifest["parameters"]["L"] == [4]
    assert manifest["parameters"]["E0"] == 3.0
    assert len(manifest["parameters"]["theta_grid"]) == 5


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("L = 4\nE0 = 3.0\n")
    code, _, manifest = run_cli(
        tmp_path, "theta-scan", "--config", str(cfg), "--E0", "2.5",
        "--theta-grid", "3",
    )
    assert code == 0
    assert manifest["parameters"]["E0"] == 2.5
    assert manifest["parameters"]["L"] == [4]


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("coupling = 12\n")
    with pytest.raises(BadParameterError, match="unknown key"):
        read_config_file(cfg)


def test_config_file_rejects_bare_token(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("verbose\n")
    with pytest.raises(BadParameterError, match="key=value"):
        read_config_file(cfg)


def test_resolve_rejects_inconsistent_N_and_n():
    parser = build_parser()
    args = parser.parse_args(
        ["theta-scan", "--L", "5", "--N", "7", "--n", "1.0"]
    )
    with pytest.raises(BadParameterError, match="disagree"):
        resolve_config(args)


def test_resolve_accepts_consistent_N_and_n():
    parser = build_parser()
    args = parser.parse_args(
        ["theta-scan", "--L", "5", "--N", "10", "--n", "2.0"]
    )
    config = resolve_config(args)
    assert config.lattice().N == 10


def test_N_alone_resolves_to_its_filling(tmp_path):
    args = build_parser().parse_args(["theta-scan", "--L", "5", "--N", "3"])
    config = resolve_config(args)
    assert "N" not in ScanConfig.__dataclass_fields__  # n is the only filling field
    assert config.n == 0.6 and config.lattice().N == 3
    code, _, manifest = run_cli(tmp_path, "theta-scan", "--L", "5", "--N", "3", "--theta-grid", "3")
    assert code == 0
    assert (manifest["parameters"]["N"], manifest["parameters"]["n"]) == (3, 0.6)
    assert manifest["parameters"]["realized_n"] == 0.6


# -------------------------------------------------------------- exit codes


def test_exit_2_bad_provenance(tmp_path, capsys):
    code, _, _ = run_cli(
        tmp_path, "heatmap", "--L", "4", "--provenance", "exact"
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_exit_2_unknown_provenance_token(tmp_path):
    code, _, _ = run_cli(
        tmp_path, "theta-scan", "--L", "4", "--provenance", "magic"
    )
    assert code == 2


def test_exit_2_malformed_number(tmp_path):
    code, _, _ = run_cli(tmp_path, "theta-scan", "--L", "four")
    assert code == 2


def test_exit_2_negative_interaction(tmp_path):
    code, _, _ = run_cli(tmp_path, "theta-scan", "--L", "4", "--U-over-J", "-1")
    assert code == 2


@pytest.mark.parametrize(
    "command, flag, value",
    [
        pytest.param("theta-scan", flag, value, id=f"{flag}-{value}")
        for flag, value in [
            ("--E0", "nan"),
            ("--J", "nan"),
            ("--V0", "inf"),
            ("--mass-ratio", "nan"),
            ("--n", "inf"),
            ("--n", "1e308"),
            ("--mass-ratio", "1e308"),
        ]
    ] + [
        # slope lays out its marker angles before any probe is built
        pytest.param("slope", "--E0", "0", id="slope---E0-0"),
        pytest.param("slope", "--mass-ratio", "0", id="slope---mass-ratio-0"),
    ],
)
def test_exit_2_non_finite_parameter(tmp_path, capsys, command, flag, value):
    code, out, _ = run_cli(
        tmp_path, command, "--L", "4", "--n", "1", "--theta-grid", "3", flag, value
    )
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("filling", [("--N", "3"), ("--n", "1")])
def test_exit_2_lattice_too_long_for_a_float(tmp_path, capsys, filling):
    # a 401-digit L: n * L cannot be formed in floating point
    code, out, _ = run_cli(
        tmp_path, "theta-scan", "--provenance", "exact", "--theta-grid", "3",
        "--L", "1" + "0" * 400, *filling,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("latscat: error:") and "L below" in err and len(err) < 200
    assert not out.exists()


@pytest.mark.parametrize("flag, path", [("--cache-dir", "afile"), ("--out", "afile/x.csv")])
def test_exit_2_directory_that_is_a_file(tmp_path, capsys, flag, path):
    afile = tmp_path / "afile"
    afile.write_text("")
    code = main([
        "theta-scan", "--L", "3", "--n", "1", "--theta-grid", "3", "--provenance", "exact",
        "--out", str(tmp_path / "run.csv"), flag, str(tmp_path / path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("latscat: error:") and str(afile) in err
    assert afile.read_text() == ""
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("call", ["mkstemp", "replace"])
@pytest.mark.parametrize("target", ["spec_", "run.csv", "run.manifest.json"])
def test_exit_2_file_that_cannot_be_written(tmp_path, capsys, monkeypatch, target, call):
    # the cache, CSV or manifest write fails as on a full disk, when its
    # temporary file is made or when it is moved into place
    mkstemp, replace = tempfile.mkstemp, os.replace

    def refuse(name):
        if name.startswith(target):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def failing_mkstemp(*args, prefix, **kwargs):
        if call == "mkstemp":
            refuse(prefix)
        return mkstemp(*args, prefix=prefix, **kwargs)

    def failing_replace(src, dst):
        if call == "replace":
            refuse(os.path.basename(dst))
        return replace(src, dst)

    monkeypatch.setattr(tempfile, "mkstemp", failing_mkstemp)
    monkeypatch.setattr(os, "replace", failing_replace)
    code = main([
        "theta-scan", "--L", "3", "--n", "1", "--theta-grid", "3", "--provenance", "exact",
        "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "run.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"latscat: error: cannot write {tmp_path}") and target in err
    assert err.rstrip().endswith(os.strerror(errno.ENOSPC))
    # only finished files are left, none of the temporary ones
    left = {p.name for p in tmp_path.rglob("*") if p.is_file()}
    assert all(name in ("run.csv", "run.manifest.json") or name.endswith(".lspec") for name in left)
    assert not any(name.startswith(target) for name in left)


def test_exit_3_capacity(tmp_path, capsys, monkeypatch):
    # 135751 states in 27152 orbits: about 35 GB in sectors
    monkeypatch.setattr("latscat.exact._available_bytes", lambda: 8 * 2**30)
    code, _, _ = run_cli(
        tmp_path, "compare", "--L", "5", "--N", "40", "--theta-grid", "3"
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "capacity" in err and "N=40, L=5" in err


def test_exit_3_before_laying_out_every_filling(tmp_path):
    # 5e300 fillings of one particle more each: the first that does not fit
    # in this machine's memory is refused before the next is laid out
    proc = subprocess.run(
        [
            sys.executable, "-m", "latscat.cli", "deviation-map", "--L", "5", "--n", "1e300",
            "--theta-grid", "3", "--out", str(tmp_path / "map.csv"),
        ],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 3, proc.stderr
    assert "latscat: capacity: N=" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [["theta-scan", "--theta-grid", "1000000000000"], ["u-scan", "--u-grid", "0:1:1000000000000"]],
    ids=["theta-grid", "u-grid"],
)
def test_exit_3_for_a_counted_grid_past_memory(tmp_path, args):
    # 10^12 points at exact.POINT_BYTES each fit nowhere; they are refused
    # before the grid is laid out
    proc = subprocess.run(
        [sys.executable, "-m", "latscat.cli", *args, "--out", str(tmp_path / "run.csv")],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 3, proc.stderr
    assert "latscat: capacity: a " in proc.stderr and "1000000000000 points" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["theta-scan", "--n", "1", "--theta-grid", "3"],
        ["heatmap", "--n", "1", "--theta-grid", "3"],
        ["slope", "--theta-grid", "3"],
        ["depletion", "--n", "1", "--u-grid", "1"],
        ["u-scan", "--provenance", "bogoliubov", "--n", "1", "--u-grid", "1"],
    ],
    ids=lambda args: args[0],
)
def test_exit_3_for_a_chain_whose_modes_fit_nowhere(tmp_path, args):
    # 10^12 sites: the condensate, or slope's marker angles, are refused
    # before any array of L - 1 entries is allocated
    proc = subprocess.run(
        [
            sys.executable, "-m", "latscat.cli", *args, "--L", "1000000000000",
            "--out", str(tmp_path / "run.csv"),
        ],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 3, proc.stderr
    assert "latscat: capacity: L=1000000000000: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_the_mott_limit_of_a_chain_of_any_length_allocates_no_modes(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "latscat.cli", "theta-scan", "--provenance", "mi-limit",
            "--L", "1000000000000", "--n", "1", "--theta-grid", "3",
            "--out", str(tmp_path / "run.csv"),
        ],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(read_rows(tmp_path / "run.csv")) == 3


def test_exit_3_when_the_dense_solve_would_not_fit(tmp_path, capsys, monkeypatch):
    # dimension C(9,5) = 126 in 26 orbits: the sector solve needs about
    # 6 * 8 * 26^2 + 5 * 8 * 126 * 5 = 57648 bytes, one byte more than there
    # is; the 3 angles of the one provenance, at exact.POINT_BYTES a point, fit
    monkeypatch.setattr("latscat.exact._available_bytes", lambda: 57647)
    assert 3 * exact.POINT_BYTES < 57647
    code, out, _ = run_cli(
        tmp_path,
        "theta-scan",
        "--L", "5", "--N", "5", "--provenance", "exact", "--theta-grid", "3",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "capacity" in err and "57648 bytes" in err and "57647 bytes" in err
    assert not out.exists()


def test_exit_4_numerical(tmp_path, capsys):
    # a probe below every excitation gap leaves no reference curve, so the
    # deviation is undefined on the whole grid
    code, _, _ = run_cli(
        tmp_path,
        "compare",
        "--L", "4", "--N", "4", "--E0", "1e-9", "--theta-grid", "3",
    )
    assert code == 4
    assert "numerical" in capsys.readouterr().err


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# --------------------------------------------------------------- behaviors


def test_heatmap_warning_reaches_stderr(tmp_path, capsys):
    code, _, _ = run_cli(
        tmp_path,
        "heatmap",
        "--L", "5", "--n", "1", "--E0", "7", "--theta-grid", "3",
    )
    assert code == 0
    assert "capped" in capsys.readouterr().err


def test_slope_accepts_multiple_lattice_sizes(tmp_path):
    code, out, manifest = run_cli(
        tmp_path, "slope", "--L", "5,9", "--theta-grid", "0.3,0.7"
    )
    assert code == 0
    rows = read_rows(out)
    assert {r["L"] for r in rows} == {"5", "9", "0"}
    assert "marker_angles" in manifest["metadata"]


def test_multi_L_rejected_elsewhere(tmp_path):
    code, _, _ = run_cli(tmp_path, "theta-scan", "--L", "5,9")
    assert code == 2


def test_deviation_map_depletion_column_is_monotone_in_U(tmp_path):
    code, out, _ = run_cli(
        tmp_path,
        "deviation-map",
        "--L", "4", "--n", "0.4",
        "--u-grid", "1,3,6", "--theta-grid", "11",
    )
    assert code == 0
    rows = [r for r in read_rows(out) if float(r["n"]) == 0.4]
    depletions = [float(r["depletion"]) for r in rows]
    assert depletions == sorted(depletions)


@pytest.mark.parametrize("E0", ["0.1", "0.2"])
def test_exit_2_heatmap_E0_at_or_below_grid_floor(tmp_path, capsys, E0):
    code, out, _ = run_cli(tmp_path, "heatmap", "--L", "10", "--n", "1", "--E0", E0)
    assert code == 2
    assert "0.2" in capsys.readouterr().err
    assert not out.exists()


def test_deviation_map_skips_the_steps_that_realize_no_particle(tmp_path):
    # on L = 2 the first step, n = 0.2, realizes N = 0; n = 0.5 and 1 remain
    code, out, manifest = run_cli(
        tmp_path, "deviation-map", "--L", "2", "--n", "1", "--u-grid", "1", "--theta-grid", "3"
    )
    assert code == 0
    assert [(row["n"], row["U_over_J"]) for row in read_rows(out)] == [("0.5", "1"), ("1", "1")]
    assert manifest["parameters"]["n_grid"] == [0.5, 1.0]


def test_exit_2_deviation_map_filling_below_first_step(tmp_path, capsys):
    code, out, _ = run_cli(
        tmp_path, "deviation-map", "--L", "4", "--n", "0.1", "--u-grid", "1"
    )
    assert code == 2
    assert "0.2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, L, n",
    [("u-scan", "2", "0.2"), ("u-scan", "4", "0.125"), ("depletion", "2", "0.2"),
     ("theta-scan", "2", "0.2"), ("deviation-map", "2", "0.2"), ("deviation-map", "2", "0.3")],
)
def test_exit_2_filling_that_realizes_no_particle(tmp_path, capsys, command, L, n):
    # round(n*L) = 0 particles, or no deviation-map step of 0.2 that realizes
    # one: refused by name, not a ZeroDivisionError
    code, out, _ = run_cli(tmp_path, command, "--L", L, "--n", n, "--u-grid", "1")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("latscat: error:") and f"n={n}" in err and f"L={L}" in err
    assert not out.exists()


def test_negative_explicit_angles_need_the_equals_form(tmp_path):
    code, out, manifest = run_cli(
        tmp_path, "theta-scan", "--L", "4", "--n", "1", "--theta-grid=-0.5,0.5"
    )
    assert code == 0
    assert manifest["parameters"]["theta_grid"] == [-0.5, 0.5]
    inelastic = [float(r["inelastic"]) for r in read_rows(out)]
    assert inelastic[0] == pytest.approx(inelastic[1], rel=1e-12)
