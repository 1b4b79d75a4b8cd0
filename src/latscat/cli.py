"""Command-line front end for lattice scattering scans.

Every subcommand shares one flag set; values are resolved with the
precedence flags > config file > built-in defaults and handed to the
runner as a frozen ScanConfig.  Exit codes: 0 success, 2 bad parameters,
3 an exact solve that would not fit in memory, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    BadParameterError,
    CacheError,
    CapacityError,
    NumericalError,
)
from .exact import require_grid_capacity
from .model import LatticeSpec
from .scans import COMMANDS, PROVENANCES, ScanConfig, execute


def _parse_int(name, text) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise BadParameterError(f"--{name} must be an integer, got {text!r}") from exc


def _parse_float(name, text) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise BadParameterError(f"--{name} must be a number, got {text!r}") from exc


def _parse_L(text) -> dict:
    values = tuple(_parse_int("L", piece) for piece in text.split(","))
    for L in values:
        if L < 2:
            raise BadParameterError(f"--L must be at least 2, got {L}")
    return {"L_values": values}


def _number(key, cast=_parse_float, valid=lambda value: True, rule=""):
    """Parser of one numeric flag that refuses values outside its domain."""
    flag = key.replace("_", "-")

    def parse(text) -> dict:
        value = cast(flag, text)
        if not valid(value):
            raise BadParameterError(f"--{flag} must be {rule}, got {value}")
        return {key: value}

    return parse


def _parse_theta_grid(text) -> dict:
    """Integer -> uniform point count; comma floats -> explicit angles."""
    try:
        count = int(text)
    except ValueError:
        angles = tuple(_parse_float("theta-grid", piece) for piece in text.split(","))
        return {"theta_grid": angles}
    if count < 2:
        raise BadParameterError(f"--theta-grid needs at least 2 points, got {count}")
    return {"theta_grid": count}


def _parse_u_grid(text) -> dict:
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise BadParameterError(f"--u-grid range must be lo:hi:count, got {text!r}")
        lo = _parse_float("u-grid", pieces[0])
        hi = _parse_float("u-grid", pieces[1])
        count = _parse_int("u-grid", pieces[2])
        if count < 1:
            raise BadParameterError(f"--u-grid count must be positive, got {count}")
        count = require_grid_capacity(count, "u grid")
        return {"u_grid": tuple(float(v) for v in np.linspace(lo, hi, count))}
    values = tuple(_parse_float("u-grid", piece) for piece in text.split(","))
    if not values:
        raise BadParameterError("--u-grid is empty")
    return {"u_grid": values}


def _parse_provenance(text) -> dict:
    values = tuple(piece.strip() for piece in text.split(","))
    for p in values:
        if p not in PROVENANCES:
            raise BadParameterError(
                f"unknown provenance {p!r}; choose from {', '.join(PROVENANCES)}"
            )
    return {"provenance": values}


# Every flag of every subcommand: config key -> (help, parser into ScanConfig
# fields).  The flag is --key with '_' -> '-'; a --config file takes the keys.
_FLAGS = {
    "L": ("lattice sites (slope accepts a comma list)", _parse_L),
    "N": (
        "particle number (overrides --n)",
        _number("N", _parse_int, lambda N: N >= 1, "positive"),
    ),
    "n": ("filling; N = round(n*L)", _number("n", valid=lambda n: n > 0, rule="positive")),
    "U_over_J": (
        "on-site repulsion over hopping",
        _number("U_over_J", valid=lambda u: u >= 0, rule="nonnegative"),
    ),
    "J": ("hopping in recoil units", _number("J")),
    "V0": ("lattice depth in recoil units", _number("V0")),
    "E0": ("probe kinetic energy in recoil units", _number("E0")),
    "mass_ratio": ("probe/boson mass ratio", _number("mass_ratio")),
    "theta_grid": (
        "angle count on [0, pi/2], or comma-separated angles in radians",
        _parse_theta_grid,
    ),
    "u_grid": ("interaction grid: lo:hi:count or comma-separated values", _parse_u_grid),
    "provenance": (f"comma list from {{{', '.join(PROVENANCES)}}}", _parse_provenance),
    "cache_dir": ("spectrum cache directory", lambda text: {"cache_dir": text}),
    "out": ("output CSV path (manifest goes next to it)", lambda text: {"out": text}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latscat",
        description="Matter-wave scattering cross sections off lattice bosons.",
    )
    parser.add_argument("--version", action="version", version=f"latscat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key, (text, _) in _FLAGS.items():
            p.add_argument("--" + key.replace("_", "-"), help=text)
        p.add_argument("--config", help="key=value defaults file")
    return parser


def read_config_file(path) -> dict:
    """Parse a key=value file; '#' starts a comment, blank lines are skipped."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise BadParameterError(f"cannot read config file {path}: {exc}") from exc
    table = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadParameterError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _FLAGS:
            raise BadParameterError(f"{path}:{lineno}: unknown key {key!r}")
        table[key] = value.strip()
    return table


def resolve_config(args) -> ScanConfig:
    """Merge flags over config-file values and build the run configuration."""
    raw = read_config_file(args.config) if args.config else {}
    for key in _FLAGS:
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)

    fields = {"command": args.command}
    for key, (_, parse) in _FLAGS.items():
        if key in raw:
            fields.update(parse(raw[key]))
    if "N" in fields:  # ScanConfig takes the filling n alone
        N = fields.pop("N")
        L = fields.get("L_values", ScanConfig.L_values)[0]
        n = fields.setdefault("n", N / L)
        realized = LatticeSpec(L=L, n=n).N
        if realized != N:
            raise BadParameterError(
                f"--N {N} and --n {n} disagree on L={L} (round(n*L) = {realized})"
            )
    return ScanConfig(**fields)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        csv_path, manifest = execute(config)
    except BadParameterError as exc:
        print(f"latscat: error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"latscat: capacity: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, CacheError) as exc:
        print(f"latscat: numerical failure: {exc}", file=sys.stderr)
        return 4
    for warning in manifest.warnings:
        print(f"latscat: warning: {warning}", file=sys.stderr)
    print(csv_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
