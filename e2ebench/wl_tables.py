"""``tables``: the paper's §8 Table 2/3 explorations, one per op.

Promising against Flat on the data-structure workloads, on ARM with
``loop_bound=2``.  A few large state spaces: certification, completion
enumeration and the Flat window dominate and per-job overhead vanishes.
Left out because they still truncate at 8 s or take seconds alone:
SLA-2, SLC-2, STC-pp-o, SLR-1 and Flat DQ-p-1.
"""

from __future__ import annotations

import random
import time

import common
import stats
from spans import Tracer, layer_metrics, paired
from stats import Tally

#: (paper row, model, ``repro.workloads`` builder, its arguments).
CONFIGS = (
    ("SLA-1", "promising", "spinlock_asm", (2, 1)),
    ("SLC-1", "promising", "spinlock_cxx", (2, 1)),
    ("TL-1", "promising", "ticket_lock", (2, 1)),
    ("PCS-2-2", "promising", "spsc_queue", (2, 2)),
    ("QU-e-d", "promising", "ms_queue", (("e", "d"),)),
    ("DQ-pp-1", "promising", "chase_lev", ("pp", (1,))),
    ("PCS-1-1", "flat", "spsc_queue", (1, 1)),
)
LOOP_BOUND = 2

#: Whole passes per second of ``--seconds``, at least one.  A pass takes
#: about 4 s on the reference host; the extra passes give the median, which
#: falls on one row's samples, enough of them.
PASSES_PER_SECOND = 0.35

#: What a user waits for before the first op: imports and the programs.
SETUP_CODE = (
    "from repro.harness import Job, execute_job\n"
    f"from repro.workloads import {', '.join(sorted({c[2] for c in CONFIGS}))}\n"
    + "\n".join(f"{builder}(*{args!r})" for _, _, builder, args in CONFIGS)
)


def _programs() -> dict[str, tuple[str, object]]:
    """Each row's model and workload, built once per run.

    Builders draw fresh register names, so the programs are built once
    and reused: every pass then explores the very same program.
    """
    import repro.workloads

    return {
        label: (model, getattr(repro.workloads, builder)(*args))
        for label, model, builder, args in CONFIGS
    }


def _plan(seed: int, seconds: float) -> list[str]:
    rng = random.Random(seed)
    plan = []
    for _ in range(max(1, round(seconds * PASSES_PER_SECOND))):
        order = [c[0] for c in CONFIGS]
        rng.shuffle(order)
        plan.extend(order)
    return plan


def _op(model: str, workload):
    from repro.flat import FlatConfig
    from repro.harness import Job, execute_job
    from repro.lang.kinds import Arch
    from repro.promising import ExploreConfig

    job = Job.for_program(
        workload.program,
        model,
        Arch.ARM,
        explore_config=ExploreConfig(loop_bound=LOOP_BOUND),
        flat_config=FlatConfig(loop_bound=LOOP_BOUND),
        name=workload.name,
    )
    return execute_job(job)


class _Gate:
    """Safety check, no truncation, and the same digest and states every pass."""

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.seen: dict[str, tuple] = {}

    def __call__(self, label: str, workload, result) -> None:
        from repro.harness import outcome_set_digest

        if not result.ok:
            self.tally.fail(f"{label}: {result.status}")
        elif result.truncated:
            self.tally.fail(f"{label}: truncated")
        elif not workload.check(result.outcomes):
            self.tally.fail(f"{label}: safety check failed", wrong=True)
        else:
            states = result.stats.get("promise_states", result.stats.get("states"))
            key = (outcome_set_digest(result.outcomes), states)
            if self.seen.setdefault(label, key) != key:
                self.tally.fail(f"{label}: {key} differs from {self.seen[label]}", wrong=True)
            else:
                self.tally.ok()


def measure(seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    setup = common.setup_median(lambda: common.timed_child(SETUP_CODE))
    programs = _programs()
    gate = _Gate(tally)
    samples = []
    start = time.perf_counter()
    for label in _plan(seed, seconds):
        model, workload = programs[label]
        began = time.perf_counter()
        result = _op(model, workload)
        samples.append(time.perf_counter() - began)
        gate(label, workload, result)
    wall = time.perf_counter() - start
    return {
        "setup_s": setup,
        **stats.latency_metrics(samples, wall),
        "peak_rss_mb": common.self_peak_rss_mb(),
    }


def trace(seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    programs = _programs()
    gate = _Gate(tally)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    plan = _plan(seed, seconds)
    for index, label in enumerate(plan):
        model, workload = programs[label]
        if index < len(CONFIGS):
            plain, traced, result = paired(
                tracer, "harness.execute_job", lambda: _op(model, workload)
            )
            plain_s += plain
            traced_s += traced
        else:
            with tracer.active(), tracer.span("harness.execute_job"):
                result = _op(model, workload)
        gate(label, workload, result)
    return {
        **layer_metrics(tracer, len(plan)),
        "obs.trace_overhead": traced_s / plain_s,
    }
