"""Self-tests of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

They show that each workload runs and checks clean, that a corrupted
output is counted as a failure, and that the seed changes the inputs but
not their sizes.  They are not part of the library's test suite.
"""
from __future__ import annotations

import json
import re
import shlex
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import cli_workload
import run
import spans
import verify

sys.path.insert(0, str(run.SRC))
import api_workloads  # noqa: E402  (imports latscat from src)
import latscat  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_each_workload_runs_and_checks_clean(workload):
    result = run.run_workload(workload, seed=1, seconds=0, trace=False, tiny=True)
    assert result["errors"] == []
    assert [c for c in result["checks"] if not c[1]] == []
    assert result["failed"] == 0
    assert result["attempted"] > len(result["checks"]) > 0
    assert len(result["untraced"]) == 1 and result["traced"] == []
    _, metrics = run.summarize(result, SPEC, trace=False)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_reports_every_layer_metric():
    result = run.run_workload("ed-sweep", seed=1, seconds=0, trace=True, tiny=True)
    assert len(result["untraced"]) == 1 and len(result["traced"]) == 1
    samples, metrics = run.summarize(result, SPEC, trace=True)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["exact.spectrum_s"]["value"] > 0
    assert metrics["exact.eigh_ref_s"]["value"] > 0
    # each warm sweep calls exact_cross_section twice per angle (curve and
    # deviation) on 2 lattices with 5 angles
    assert metrics["exact.xs_calls"]["value"] == api_workloads.WARM_REPEATS * 2 * 2 * 5
    assert metrics["exact.basis_states"]["value"] == 10 + 10  # C(5,3) + C(5,2)
    assert "trace.overhead_s" in samples


def test_self_time_subtracts_children():
    tree = [["a.outer", 0.0, 10.0, None], ["b.inner", 1.0, 4.0, 0], ["b.inner", 5.0, 6.0, 0]]
    assert spans.self_times(tree) == [6.0, 3.0, 1.0]
    metrics = spans.span_metrics(tree)
    assert metrics["b.inner_s"] == 4.0 and metrics["b.inner_calls"] == 2
    assert metrics["a.self_s"] == 6.0


def test_blocks_average_consecutive_samples_and_keep_every_one():
    assert run.blocks([3.0, 1.0, 2.0, 2.0, 5.0], block_s=4.0) == [2.0, 2.0, 5.0]
    # a short last block joins the one before it
    assert run.blocks([3.0, 1.0, 1.0, 2.0], block_s=4.0) == [7.0 / 4]
    assert run.blocks([1.0, 2.0], block_s=4.0) == [1.5]
    assert run.blocks([20.0, 30.0], block_s=4.0) == [20.0, 30.0]


def _skewed(fn, field):
    def wrapped(*args):
        cs = fn(*args)
        return type(cs)(cs.theta, *(
            getattr(cs, f) * (1 + 1e-6) if f == field else getattr(cs, f)
            for f in ("elastic", "inelastic", "contributing_states")
        ))
    return wrapped


@pytest.mark.parametrize("workload,field,check_name", [
    ("ed-sweep", "elastic", "exact elastic == elastic_cs"),
    ("xs-angles", "inelastic", "U=0 exact/N == sf_inelastic (N=1)"),
])
def test_corrupted_exact_output_is_a_failure(monkeypatch, workload, field, check_name):
    monkeypatch.setattr(latscat, "exact_cross_section", _skewed(latscat.exact_cross_section, field))
    result = run.run_workload(workload, seed=1, seconds=0, trace=False, tiny=True)
    failed = {name for name, ok, _ in result["checks"] if not ok}
    assert check_name in failed
    assert result["failed"] >= 1


def test_corrupted_bogoliubov_output_is_a_failure(monkeypatch):
    real = latscat.bog_inelastic_cs
    monkeypatch.setattr(latscat, "bog_inelastic_cs", lambda *a: real(*a) + 1e-300)
    result = run.run_workload("xs-angles", seed=1, seconds=0, trace=False, tiny=True)
    failed = {name for name, ok, _ in result["checks"] if not ok}
    assert "U=0 bog_inelastic_cs bit-equal sf_inelastic (L=10)" in failed
    assert "theta = 0 inelastic is exactly 0.0" in failed


def test_warm_csv_that_differs_is_a_failure():
    inputs = cli_workload.make_inputs("datasets", 1, tiny=True)
    stems = [stem for stem, *_ in inputs["commands"]]
    body = b"# manifest: m\nu,v\n1,2\n3,4\n"
    cold = {stem: body for stem in stems}
    ok = verify.PassResult(1.0, [1.0], {}, 1, csv_bytes={"cold": cold, "warm": dict(cold)})
    assert all(c[1] for c in cli_workload.checks("datasets", inputs, ok, None))
    warm = dict(cold, **{stems[0]: body.replace(b"3,4", b"3,5")})
    bad = verify.PassResult(1.0, [1.0], {}, 1, csv_bytes={"cold": cold, "warm": warm})
    failed = [c[0] for c in cli_workload.checks("datasets", inputs, bad, None) if not c[1]]
    assert failed == [f"cold == warm CSV bytes ({stems[0]})"]


def test_reference_comparison_catches_a_relative_change_above_1e_9():
    outputs = {"curve": [0.0, 1.0, 2.5, 1e-3], "labels": "a\nb"}
    reference = {name: verify.summarize(v) for name, v in outputs.items()}
    assert all(c[1] for c in verify.compare_reference(outputs, reference))
    nudged = dict(outputs, curve=[0.0, 1.0, 2.5 * (1 + 1e-8), 1e-3])
    assert [c[0] for c in verify.compare_reference(nudged, reference) if not c[1]] == [
        "reference:curve"
    ]
    assert not verify.compare_reference(outputs, {})[0][1]


def _shape(value):
    """Sizes of an input structure: list lengths and comma-list counts, not values."""
    if isinstance(value, dict):
        return {k: _shape(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_shape(v) for v in value]
    if isinstance(value, str) and re.fullmatch(r"[-+.\deE,:]+", value):
        return ("grid", len(value.split(",")))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return type(value).__name__
    return value


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_seed_changes_inputs_but_not_sizes(workload):
    mod = __import__(run.WORKLOADS[workload])
    a, b = mod.make_inputs(workload, 1), mod.make_inputs(workload, 2)
    assert a != b
    assert _shape(a) == _shape(b)
    assert mod.make_inputs(workload, 1) == a


def test_default_seed_reproduces_make_datasets_script():
    script = (run.ROOT / "demos" / "make_datasets.sh").read_text().replace("\\\n", " ")
    commands = [
        shlex.split(line.replace("$OUT", "datasets").replace("$CACHE", "datasets/cache"))[1:]
        for line in script.splitlines()
        if line.startswith("latscat ")
    ]
    inputs = cli_workload.make_inputs("datasets", verify.DEFAULT_SEED)
    assert commands == [
        args + ["--out", f"datasets/{stem}.csv"] for stem, *args in inputs["commands"]
    ]


def test_redrawn_grids_keep_the_script_sizes_and_cache_sharing():
    default = {stem: args for stem, *args in cli_workload.make_inputs("datasets", 0)["commands"]}
    drawn = {stem: args for stem, *args in cli_workload.make_inputs("datasets", 7)["commands"]}

    def grid(args, flag):
        return args[args.index(flag) + 1].split(",")

    assert len(grid(drawn["interaction_decay"], "--u-grid")) == 7
    assert len(grid(drawn["validity_map"], "--u-grid")) == 8
    assert len(grid(drawn["validity_map"], "--theta-grid")) == 91
    assert len(grid(drawn["depletion"], "--u-grid")) == 41
    assert len(grid(drawn["energy_angle_map"], "--theta-grid")) == 181

    def shared_at(args):
        u_scan = {float(u) / 2 for u in grid(args["interaction_decay"], "--u-grid")}
        dev = sorted(float(u) for u in grid(args["validity_map"], "--u-grid"))
        return [i for i, u in enumerate(dev) if u in u_scan]

    assert shared_at(default) == shared_at(drawn) == [0, 1, 2, 5, 7]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ed-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_counts_are_exact_between_passes():
    result = run.run_workload("xs-angles", seed=2, seconds=0, trace=True, tiny=True)
    untraced, traced = result["untraced"][0], result["traced"][0]
    assert untraced.counts == traced.counts and isinstance(untraced.counts, Counter)
    assert untraced.operations == traced.operations
