#!/usr/bin/env python3
"""latscat benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 bench/run.py --workload ed-sweep --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each run sets up ``SETUP_REPEATS`` times, then repeats the workload's timed
pass until ``--seconds`` have passed (at least once, and for ``ed-sweep``
at least twice), checks every pass's outputs, and prints each metric with
its median and sample count.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
``metrics`` holds the end-to-end metrics of BENCHMARK.json for
``--trace 0`` and its per-layer metrics for ``--trace 1``.  A traced run
alternates untraced and traced passes; end-to-end numbers always come from
untraced runs.
bench/README.md describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from cli_workload import child_env
from verify import DEFAULT_SEED, load_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = {"ed-sweep": "api_workloads", "xs-angles": "api_workloads", "datasets": "cli_workload"}
SETUP_REPEATS = 3
# Timed passes a full-size run makes at least.  An ed-sweep pass takes about
# as long as a run's --seconds, and on a shared VM (the reference machine of
# bench/README.md) speed drifts by a fifth over spells of some ten seconds,
# so a single pass would leave its medians to whichever spell it met.
MIN_PASSES = {"ed-sweep": 2}
# A timing sample is the mean of consecutive passes (or sweeps) that last
# together at least this long.  On a shared VM a short pass is fast or
# slow by a fifth, in spells of a few seconds, so the median of short
# passes jumps between the two speeds; the mean over ten seconds moves far
# less.
BLOCK_S = 10.0
CHILD_TIMEOUT_S = 170

# A fresh interpreter importing the CLI: the start-up every latscat command pays.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import latscat.cli; "
    "print(time.perf_counter() - t); print(latscat.cli.__file__)"
)


def import_probe(env: dict) -> float:
    """Start a fresh interpreter that imports latscat.cli; returns its import time."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    seconds, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"latscat was imported from {path}, not from {SRC}")
    return float(seconds)


def machine_record() -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "machine.py")],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout)


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def blocks(times: list, block_s: float = BLOCK_S) -> list:
    """Mean time per item of consecutive runs of ``times`` lasting ``block_s`` or more.

    A short last block is merged into the one before it, so every timed
    item counts.
    """
    out, block = [], []
    for t in times:
        block.append(t)
        if sum(block) >= block_s:
            out.append(block)
            block = []
    if block:
        if out:
            out[-1] += block
        else:
            out.append(block)
    return [sum(b) / len(b) for b in out]


def layer_metrics(result) -> dict:
    """Per-layer numbers of one traced pass: span self times, counts, manifest values."""
    values = spans.span_metrics(result.spans)
    values["limits.calls"] = values.get("limits.closed_form_calls", 0) + values.get(
        "limits.deviation_calls", 0
    )
    values["trace.spans"] = len(result.spans)
    values.update(result.counts)
    values.update(result.layer_values)
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, run timed passes, check them; returns samples, checks and spans."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mod = importlib.import_module(WORKLOADS[workload])
    env = child_env(SRC)
    setup_s, import_s, state = [], [], None
    for _ in range(SETUP_REPEATS):
        state = None
        start = time.perf_counter()
        import_s.append(import_probe(env))
        inputs = mod.make_inputs(workload, seed, tiny)
        state = mod.setup(workload, inputs, ROOT)
        setup_s.append(time.perf_counter() - start)

    untraced, traced = [], []
    min_passes = 1 if tiny else MIN_PASSES.get(workload, 1)
    start = time.perf_counter()
    while True:
        tracer = spans.Tracer(enabled=trace and len(untraced) > len(traced))
        result = mod.run_pass(workload, inputs, state, tracer)
        (traced if tracer.enabled else untraced).append(result)
        if (time.perf_counter() - start >= seconds and (traced or not trace)
                and len(untraced) + len(traced) >= min_passes):
            break

    reference = None
    if seed == DEFAULT_SEED and not tiny:
        reference = load_reference(workload) or {}
    checks = [c for r in untraced + traced for c in mod.checks(workload, inputs, r, reference)]
    attempted = sum(r.operations for r in untraced + traced) + len(checks)
    errors = [e for r in untraced + traced for e in r.errors]
    failed = len(errors) + sum(1 for _, ok, _ in checks if not ok)
    return {
        "inputs": inputs,
        "setup_s": setup_s,
        "import_s": import_s,
        "untraced": untraced,
        "traced": traced,
        "checks": checks,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "layers": [layer_metrics(r) for r in traced],
    }


def summarize(run: dict, spec: dict, trace: bool) -> tuple:
    """(metric samples by name, JSON metrics) for the BENCHMARK.json metric list."""
    samples = {}
    if not trace:
        samples["wall_s"] = blocks([r.wall_s for r in run["untraced"]])
        samples["warm_s"] = blocks([w for r in run["untraced"] for w in r.warm_s])
        samples["setup_s"] = run["setup_s"]
        samples["peak_rss_mb"] = [peak_rss_mb()]
        metrics = spec["end_to_end"]
    else:
        names = {name for layer in run["layers"] for name in layer}
        for name in names | {m["name"] for m in spec["per_layer"]}:
            samples[name] = [layer.get(name, 0) for layer in run["layers"]]
        samples["cli.import_s"] = run["import_s"]
        samples["trace.overhead_s"] = [
            statistics.median(r.wall_s for r in run["traced"])
            - statistics.median(r.wall_s for r in run["untraced"])
        ]
        metrics = spec["per_layer"]
    values = {
        m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
        for m in metrics
    }
    return samples, values


def print_report(workload: str, args, run: dict, samples: dict, units: dict, machine: dict) -> None:
    print(f"latscat benchmark: workload={workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name in sorted(samples):
        vals = samples[name]
        q1, q3 = quartiles(vals)
        print(f"  {name:<36} median {statistics.median(vals):<14.6g} {units.get(name, ''):<6} "
              f"n={len(vals):<3} q1={q1:.6g} q3={q3:.6g}")
    frac = run["failed"] / run["attempted"]
    print(f"  {'failed_frac':<36} {frac:.6g} ({run['failed']} of {run['attempted']} "
          f"operations and checks failed)")
    for error in run["errors"]:
        print(f"  FAILED operation: {error}")
    for name, ok, detail in run["checks"]:
        if not ok:
            print(f"  FAILED check {name}: {detail}")


def write_artifacts(workload: str, args, run: dict, samples: dict, machine: dict) -> None:
    """Results and spans, written once at the end of the run."""
    WORK.mkdir(exist_ok=True)
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"result-{tag}.json").write_text(json.dumps({
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "inputs": run["inputs"], "samples": samples,
        "attempted": run["attempted"], "failed": run["failed"],
        "errors": run["errors"],
        "failed_checks": [c for c in run["checks"] if not c[1]],
    }, indent=1, default=float))
    if run["traced"]:
        (WORK / f"trace-{tag}.json").write_text(json.dumps([
            [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in r.spans]
            for r in run["traced"]
        ]))


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    rows, correct, attempted, failed, metrics = [], True, 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 2,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        rows.append((workload, result))
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    names = sorted({k for _, r in rows for k in r["metrics"]})
    print("workload    " + " ".join(f"{n:>14}" for n in names + ["failed_frac"]))
    for workload, r in rows:
        cells = [f"{r['metrics'][n]['value']:>14.6g}" for n in names]
        print(f"{workload:<11} " + " ".join(cells) + f" {r['failed'] / r['attempted']:>14.6g}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latscat" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"bench: needs {SPEC.name} and the latscat sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads(SPEC.read_text())
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        machine = machine_record()
    except (MemoryError, RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {args.workload} could not run: {exc}", file=sys.stderr)
        return 3
    samples, metrics = summarize(run, spec, bool(args.trace))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print_report(args.workload, args, run, samples, units, machine)
    write_artifacts(args.workload, args, run, samples, machine)
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
