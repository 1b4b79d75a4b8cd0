#!/usr/bin/env python3
"""Regenerate bench/reference_seed0.json from the current latscat sources.

    python3 bench/make_reference.py

Runs one untraced pass of every workload at the default seed, refuses to
write anything if an operation or a correctness check fails, and stores a
summary of every output (see verify.summarize).  Regenerate it only when a
change to latscat's numbers is intended, and say so in the change.
"""
from __future__ import annotations

import importlib
import json
import sys

from run import ROOT, SRC, WORKLOADS
from spans import Tracer
from verify import DEFAULT_SEED, REFERENCE_PATH, summarize


def main() -> int:
    sys.path.insert(0, str(SRC))
    reference = {}
    for workload, module in WORKLOADS.items():
        mod = importlib.import_module(module)
        inputs = mod.make_inputs(workload, DEFAULT_SEED)
        state = mod.setup(workload, inputs, ROOT)
        result = mod.run_pass(workload, inputs, state, Tracer(enabled=False))
        bad = result.errors + [c for c in mod.checks(workload, inputs, result, None) if not c[1]]
        if bad:
            print(f"{workload}: not writing a reference, failures: {bad}", file=sys.stderr)
            return 1
        reference[workload] = {name: summarize(v) for name, v in result.outputs.items()}
        print(f"{workload}: {len(reference[workload])} outputs")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
