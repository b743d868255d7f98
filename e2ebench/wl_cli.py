"""``cli``: cold ``promising-arm run --test T`` processes, one at a time.

A closed loop with one client.  Each op is a fresh interpreter that
imports the CLI, explores one catalogue test and prints its verdict, so
start-up and imports dominate; exploration is a few to tens of ms.
"""

from __future__ import annotations

import contextlib
import io
import random
import time

import common
import stats
from spans import Tracer, layer_metrics, paired
from stats import Tally

#: Ops per second of ``--seconds``.  The reference host runs about 4.3 a
#: second, so a run lasts a little longer than ``--seconds``.
OPS_PER_SECOND = 5.0


def _plan(seed: int, seconds: float) -> list[tuple[str, str]]:
    """Seeded draws (with replacement) of ``(test, expected ARM verdict)``."""
    from repro.lang.kinds import Arch
    from repro.litmus import all_tests

    catalogue = sorted((t.name, t.expected_verdict(Arch.ARM).value) for t in all_tests())
    rng = random.Random(seed)
    return [rng.choice(catalogue) for _ in range(max(12, round(seconds * OPS_PER_SECOND)))]


def _verdict(output: str) -> str:
    for line in output.splitlines():
        if line.startswith("verdict"):
            return line.split(":", 1)[1].strip()
    return ""


def _gate(tally: Tally, test: str, expected: str, status: int, output: str) -> None:
    verdict = _verdict(output)
    if status != 0:
        tally.fail(f"{test}: exit {status}")
    elif "truncated" in verdict:
        tally.fail(f"{test}: {verdict}")
    elif verdict != expected:
        tally.fail(f"{test}: verdict {verdict!r}, expected {expected!r}", wrong=True)
    else:
        tally.ok()


def measure(seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    setup = common.setup_median(lambda: common.run_child(["-c", "import repro.tools.cli"])[2])
    samples, peaks = [], []
    start = time.perf_counter()
    for test, expected in _plan(seed, seconds):
        argv = ["-c", common.CONSOLE_SCRIPT, "run", "--test", test]
        status, out, wall, peak = common.run_child(argv)
        samples.append(wall)
        peaks.append(peak)
        _gate(tally, test, expected, status, out)
    wall = time.perf_counter() - start
    return {
        "setup_s": setup,
        **stats.latency_metrics(samples, wall),
        # Each op is its own process: the typical op's peak, not the
        # heaviest test the seed happened to draw.
        "peak_rss_mb": stats.median(peaks),
    }


def _main(argv: list[str]) -> tuple[int, str]:
    from repro.tools.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


def trace(seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    interp = common.setup_median(lambda: common.run_child(["-c", "pass"])[2])
    imported = common.setup_median(lambda: common.run_child(["-c", "import repro.tools.cli"])[2])
    tracer = Tracer()
    plain_s = traced_s = 0.0
    main_ms = []
    plan = _plan(seed, seconds)
    for test, expected in plan:
        plain, traced, (status, out) = paired(
            tracer, "tools.main", lambda: _main(["run", "--test", test])
        )
        plain_s += plain
        traced_s += traced
        main_ms.append(traced * 1000.0)
        _gate(tally, test, expected, status, out)
    return {
        "tools.interp_ms": interp * 1000.0,
        "tools.import_ms": (imported - interp) * 1000.0,
        "tools.main_ms": stats.median(main_ms),
        **layer_metrics(tracer, len(plan)),
        "obs.trace_overhead": traced_s / plain_s,
    }
