"""The ``datasets`` workload: the seven ``demos/make_datasets.sh`` commands.

Each command runs as its own ``latscat`` process (``python -m latscat.cli``)
in a fresh directory: each command runs once cold, filling the spectrum
cache, and then once warm over that cache.  The default seed reproduces
the script exactly; other seeds redraw its interaction and angle grids in
the same ranges and sizes.  This module does not import latscat: layer
numbers come from the run manifests and from each child's resource usage.
"""
from __future__ import annotations

import csv
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from spans import Tracer
from verify import DEFAULT_SEED, PassResult, check, compare_reference

OUT = "datasets"
CACHE = f"{OUT}/cache"
HALF_PI = math.pi / 2
COMMAND_TIMEOUT_S = 170

# (output stem, arguments after ``latscat``), as in demos/make_datasets.sh.
DEFAULT_COMMANDS = (
    ("limits_theta", ["theta-scan", "--L", "9", "--N", "9", "--U-over-J", "30",
                      "--provenance", "sf-limit,mi-limit"]),
    ("quasiparticle_theta", ["theta-scan", "--L", "100", "--n", "1", "--U-over-J", "0.02"]),
    ("interaction_decay", ["u-scan", "--L", "5", "--n", "2", "--u-grid", "0.1,0.5,1,2,5,10,20",
                           "--cache-dir", CACHE]),
    ("energy_angle_map", ["heatmap", "--L", "100", "--n", "1", "--U-over-J", "0.02",
                          "--E0", "5.9"]),
    ("validity_map", ["deviation-map", "--L", "5", "--n", "2",
                      "--u-grid", "0.25,0.5,1,2,3,5,8,10", "--theta-grid", "91",
                      "--cache-dir", CACHE]),
    ("decay_slope", ["slope", "--L", "5,9", "--E0", "2"]),
    ("depletion", ["depletion", "--L", "5", "--n", "2", "--u-grid", "0:20:41"]),
)

# Sizes of the script's grids.  A redrawn u-scan grid keeps the script's
# sharing with deviation-map: 5 of its 7 points (u = 2 U/J at n = 2) sit on
# deviation-map's N = 10 cells, at the same positions of its sorted U/J
# grid as in the script.  So the cold runs diagonalize the same matrices
# on every seed, and deviation-map's two workers overlap the same cells.
THETA_POINTS = 181
DEVIATION_THETA_POINTS = 91
DEVIATION_U_OVER_J = (0.25, 10.0, 8)
U_SCAN_U = (0.1, 20.0, 7)
U_SCAN_SHARED_AT = (0, 1, 2, 5, 7)
DEPLETION_U = (0.0, 20.0, 41)


def _grid(values) -> str:
    return ",".join(repr(v) for v in values)


def _distinct(rng: random.Random, lo: float, hi: float, count: int, taken=()) -> list:
    picked = set()
    while len(picked) < count:
        value = round(rng.uniform(lo, hi), 4)
        if value not in taken:
            picked.add(value)
    return sorted(picked)


def _angles(rng: random.Random, count: int) -> str:
    return _grid(sorted(round(rng.uniform(0.0, HALF_PI), 6) for _ in range(count)))


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    if tiny:
        return _tiny_inputs(seed)
    if seed == DEFAULT_SEED:
        return {"commands": [[stem, *args] for stem, args in DEFAULT_COMMANDS]}
    rng = random.Random(f"{workload}:{seed}")
    dev_grid = _distinct(rng, *DEVIATION_U_OVER_J)
    lo, hi, count = U_SCAN_U
    u_grid = sorted(
        [2.0 * dev_grid[i] for i in U_SCAN_SHARED_AT]
        + _distinct(rng, lo, hi, count - len(U_SCAN_SHARED_AT), taken={2.0 * x for x in dev_grid})
    )
    grids = {
        "limits_theta": ["--theta-grid", _angles(rng, THETA_POINTS)],
        "quasiparticle_theta": ["--theta-grid", _angles(rng, THETA_POINTS)],
        "interaction_decay": ["--u-grid", _grid(u_grid)],
        "energy_angle_map": ["--theta-grid", _angles(rng, THETA_POINTS)],
        "validity_map": ["--u-grid", _grid(dev_grid),
                         "--theta-grid", _angles(rng, DEVIATION_THETA_POINTS)],
        "decay_slope": ["--theta-grid", _angles(rng, THETA_POINTS)],
        "depletion": ["--u-grid", _grid(_distinct(rng, *DEPLETION_U))],
    }
    return {"commands": [[stem, *_override(args, grids[stem])] for stem, args in DEFAULT_COMMANDS]}


def _override(args: list, flags: list) -> list:
    """Replace (or append) each ``--flag value`` pair of ``flags`` in ``args``."""
    args = list(args)
    for flag, value in zip(flags[::2], flags[1::2]):
        if flag in args:
            args[args.index(flag) + 1] = value
        else:
            args += [flag, value]
    return args


def _tiny_inputs(seed: int) -> dict:
    rng = random.Random(f"datasets-tiny:{seed}")
    u = _distinct(rng, 0.1, 5.0, 2)
    return {"commands": [
        ["limits_theta", "theta-scan", "--L", "9", "--N", "9", "--U-over-J", "30",
         "--provenance", "sf-limit,mi-limit", "--theta-grid", _angles(rng, 5)],
        ["interaction_decay", "u-scan", "--L", "3", "--n", "1", "--u-grid", _grid(u),
         "--cache-dir", CACHE],
        ["depletion", "depletion", "--L", "5", "--n", "2", "--u-grid", _grid(u)],
    ]}


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def setup(workload: str, inputs: dict, root: Path):
    """A scratch directory inside the checkout and the children's environment."""
    work_root = root / ".bench_work"
    work_root.mkdir(parents=True, exist_ok=True)
    return {"work_root": work_root, "env": child_env(root / "src")}


def _cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _run_command(stem: str, args: list, cwd: Path, env: dict, tracer: Tracer) -> dict:
    """One ``latscat`` process; returns its timings, cache counts and outputs."""
    argv = [sys.executable, "-m", "latscat.cli", *args, "--out", f"{OUT}/{stem}.csv"]
    cpu_before = _cpu_children()
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S
    )
    end = time.perf_counter()
    record = {"process_s": end - start, "cpu_s": _cpu_children() - cpu_before}
    if proc.returncode != 0:
        record["error"] = f"{stem}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return record
    manifest = json.loads((cwd / OUT / f"{stem}.manifest.json").read_text())
    record["execute_s"] = float(manifest["wall_time_s"])
    record["hits"] = int(manifest["cache"]["hits"])
    record["misses"] = int(manifest["cache"]["misses"])
    record["csv"] = (cwd / OUT / f"{stem}.csv").read_bytes()
    parent = tracer.add_span("cli.process", start, end, tracer.current())
    tracer.add_span("scans.execute", end - record["execute_s"], end, parent)
    return record


def run_pass(workload: str, inputs: dict, state, tracer: Tracer) -> PassResult:
    """Each command cold and then at once warm, in one fresh directory.

    A warm run follows its own command's cold run rather than a whole cold
    pass, so the warm time spreads over the pass and a slow spell of the
    machine does not fall on it alone.  The cache sees the same hits and
    misses as a cold pass followed by a warm pass: a warm run reads only
    cells that its own cold run, or an earlier command, wrote.
    """
    pass_dir = Path(tempfile.mkdtemp(prefix="datasets-", dir=state["work_root"]))
    records = {"cold": {}, "warm": {}}
    phase_s = {"cold": 0.0, "warm": 0.0}
    errors = []
    operations = 0
    try:
        with tracer.span("bench.pass"):
            for stem, *args in inputs["commands"]:
                for phase in ("cold", "warm"):
                    operations += 1
                    start = time.perf_counter()
                    rec = _run_command(stem, args, pass_dir, state["env"], tracer)
                    phase_s[phase] += time.perf_counter() - start
                    records[phase][stem] = rec
                    if "error" in rec:
                        errors.append(f"{phase} {rec['error']}")
        cache_dir = pass_dir / CACHE
        cache_bytes = sum(p.stat().st_size for p in cache_dir.iterdir()) if cache_dir.is_dir() else 0
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)

    values = {"scans.cache_bytes": cache_bytes}
    totals = Counter()
    per_stem = {}
    for phase, recs in records.items():
        hits = sum(r.get("hits", 0) for r in recs.values())
        misses = sum(r.get("misses", 0) for r in recs.values())
        values[f"scans.cache_hits.{phase}"] = hits
        values[f"scans.cache_misses.{phase}"] = misses
        values[f"scans.cache_hit_ratio.{phase}"] = hits / (hits + misses) if hits + misses else 0.0
        for stem, r in recs.items():
            stem_totals = per_stem.setdefault(stem, Counter())
            for key in ("process_s", "execute_s", "cpu_s", "hits", "misses"):
                stem_totals[key] += r.get(key, 0)
                totals[key] += r.get(key, 0)
    values["scans.cache_hits"] = totals["hits"]
    values["scans.cache_misses"] = totals["misses"]
    values["scans.execute_s"] = totals["execute_s"]
    values["cli.process_s"] = totals["process_s"]
    values["cli.overhead_s"] = totals["process_s"] - totals["execute_s"]
    values["scans.cpu_per_wall"] = totals["cpu_s"] / totals["process_s"]
    values["scans.csv_bytes"] = sum(len(r.get("csv", b"")) for r in records["cold"].values())
    for stem, t in per_stem.items():
        values[f"scans.execute_s.{stem}"] = t["execute_s"]
        values[f"scans.cpu_per_wall.{stem}"] = t["cpu_s"] / t["process_s"]

    return PassResult(
        wall_s=phase_s["cold"] + phase_s["warm"],
        warm_s=[phase_s["warm"]],
        outputs=_csv_outputs(records["cold"]),
        operations=operations,
        errors=errors,
        spans=tracer.spans,
        layer_values=values,
        csv_bytes={phase: {s: r.get("csv") for s, r in recs.items()} for phase, recs in records.items()},
    )


def _csv_outputs(records: dict) -> dict:
    """Numeric CSV columns as float lists, text columns as one string."""
    outputs = {}
    for stem, rec in records.items():
        if "csv" not in rec:
            continue
        lines = rec["csv"].decode("ascii").splitlines()
        rows = list(csv.reader(lines[1:]))
        header, body = rows[0], rows[1:]
        for j, column in enumerate(header):
            cells = [row[j] for row in body]
            try:
                outputs[f"{stem}:{column}"] = [float(c) for c in cells]
            except ValueError:
                outputs[f"{stem}:{column}"] = "\n".join(cells)
        outputs[f"{stem}:manifest_line"] = lines[0]
    return outputs


def checks(workload: str, inputs: dict, result: PassResult, reference: dict | None) -> list:
    found = []
    cold, warm = result.csv_bytes.get("cold", {}), result.csv_bytes.get("warm", {})
    for stem, *_ in inputs["commands"]:
        a, b = cold.get(stem), warm.get(stem)
        ok = a is not None and a == b and a.count(b"\n") >= 3
        found.append(check(f"cold == warm CSV bytes ({stem})", ok, "missing, short or different"))
    if reference is not None:
        found += compare_reference(result.outputs, reference)
    return found
