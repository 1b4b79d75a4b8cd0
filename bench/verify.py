"""What one timed pass returns, and the checks run on it.

A check is (name, ok, detail).  Every check here refuses to pass on empty
input, so a workload that silently produced nothing is reported as failed.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# The seed whose datasets inputs are exactly demos/make_datasets.sh, and whose
# outputs are compared with the stored reference.
DEFAULT_SEED = 0

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_seed0.json"

# Outputs of the default seed must match the reference to this relative
# tolerance.  Values below REFERENCE_FLOOR of their output's largest
# magnitude are compared against that floor instead of their own size.
REFERENCE_RTOL = 1e-9
REFERENCE_FLOOR = 1e-6
REFERENCE_SAMPLES = 16


@dataclass
class PassResult:
    """One timed pass: its times, outputs, work counts and failed operations.

    ``warm_s`` holds the pass's samples of warm work (one or more);
    ``layer_values`` holds per-layer numbers measured without spans (from
    run manifests and child resource usage); ``csv_bytes`` holds each CLI
    output per phase for the cold/warm comparison.
    """

    wall_s: float
    warm_s: list
    outputs: dict
    operations: int
    counts: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    layer_values: dict = field(default_factory=dict)
    csv_bytes: dict = field(default_factory=dict)


def check(name: str, ok: bool, detail: str = "") -> tuple:
    return (name, bool(ok), detail)


def close(a: float, b: float, rtol: float, scale: float = 0.0) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale)


def summarize(values) -> dict:
    """Reference entry for one output: a list of floats or a string.

    Lists keep their length, exact sum, largest magnitude and an evenly
    strided sample; strings keep a digest.
    """
    if isinstance(values, str):
        return {"sha256": hashlib.sha256(values.encode()).hexdigest()}
    values = [float(v) for v in values]
    finite = [v for v in values if math.isfinite(v)]
    stride = max(1, math.ceil(len(values) / REFERENCE_SAMPLES))
    return {
        "n": len(values),
        "fsum": math.fsum(finite),
        "absmax": max((abs(v) for v in finite), default=0.0),
        "stride": stride,
        "samples": values[::stride],
    }


def compare_reference(outputs: dict, reference: dict | None) -> list:
    """One check per output name against the stored default-seed summaries."""
    if not reference:
        return [check("reference", False, "no reference stored for this workload")]
    checks = []
    for name in sorted(set(outputs) | set(reference)):
        if name not in outputs or name not in reference:
            checks.append(check(f"reference:{name}", False, "output missing on one side"))
            continue
        got, want = summarize(outputs[name]), reference[name]
        if "sha256" in want or "sha256" in got:
            checks.append(check(f"reference:{name}", got == want, "digest differs"))
            continue
        scale = REFERENCE_FLOOR * want["absmax"]
        bad = [
            f"n {got['n']} != {want['n']}" if got["n"] != want["n"] else "",
            "" if close(got["fsum"], want["fsum"], REFERENCE_RTOL, scale * got["n"])
            else f"sum {got['fsum']!r} != {want['fsum']!r}",
        ]
        if got["n"] == want["n"]:
            for i, (a, b) in enumerate(zip(got["samples"], want["samples"])):
                if not close(a, b, REFERENCE_RTOL, scale):
                    bad.append(f"value {i * want['stride']}: {a!r} != {b!r}")
                    break
        detail = "; ".join(b for b in bad if b)
        checks.append(check(f"reference:{name}", not detail, detail))
    return checks


def load_reference(workload: str) -> dict | None:
    if not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(workload)


def matches(name: str, got, want, rtol: float, exact: bool = False) -> tuple:
    """Elementwise comparison of two equal-length lists that needs a nonzero pair."""
    got, want = list(got), list(want)
    if len(got) != len(want) or not got:
        return check(name, False, f"lengths {len(got)} and {len(want)}")
    if not any(w != 0.0 for w in want):
        return check(name, False, "reference values are all zero")
    for i, (a, b) in enumerate(zip(got, want)):
        if (a != b) if exact else not close(a, b, rtol):
            return check(name, False, f"index {i}: {a!r} vs {b!r}")
    return check(name, True)


def zero_at_forward(name: str, at_zero, elsewhere) -> tuple:
    """theta = 0 gives exactly 0.0 while some other angle does not."""
    at_zero, elsewhere = list(at_zero), list(elsewhere)
    if not at_zero or not any(v != 0.0 for v in elsewhere):
        return check(name, False, "no theta = 0 value, or the curve is zero everywhere")
    bad = [v for v in at_zero if v != 0.0]
    return check(name, not bad, f"theta = 0 values {bad[:3]!r}")
