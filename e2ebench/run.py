"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload battery --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that prints the per-layer
metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when
any output was wrong and 2 when the benchmark could not run at all (it
then prints no result).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

import common
from stats import Tally

def spec() -> dict:
    """The declarations: workloads, and every metric with its unit and bound."""
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _metrics(kind: str) -> dict[str, str]:
    """Declared metric names of ``kind`` with their units, in order."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [w["name"] for w in spec()["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order steers exploration order; pin it so both
        # commits time the same work.  Re-exec replaces this process.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)
    try:
        common.build()
    except (common.BenchError, OSError) as exc:
        print(f"e2ebench: cannot build the program: {exc}", file=sys.stderr)
        return 2
    common.use_build()
    workload = importlib.import_module(f"wl_{args.workload}")
    tally = Tally()
    host_start = common.host_ref_ms()
    declared = _metrics("per_layer" if args.trace else "end_to_end")
    try:
        if args.trace:
            # A layer off this workload's path reads 0.
            values = dict.fromkeys(declared, 0.0)
            values.update(workload.trace(args.seed, args.seconds, tally))
        else:
            values = workload.measure(args.seed, args.seconds, tally)
        samples = values.pop("samples", None)
        tail_percentile = values.pop("tail_percentile", None)
        undeclared = set(values) - set(declared)
        if undeclared:
            raise common.BenchError(f"undeclared metrics {sorted(undeclared)}")
    except common.BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    host_end = common.host_ref_ms()
    lines = common.line_counts()
    print(f"host_ref_ms: start {host_start:.3f}, end {host_end:.3f} (context, never gated)")
    if samples is not None:
        print(f"op_ms: {samples} samples, tail = p{tail_percentile:.1f}")
    print(f"lines: src {lines['src']}, scripts {lines['scripts']} (context)")
    for note in tally.notes:
        print(f"failed: {note}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
