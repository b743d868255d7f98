"""``battery``: differential verdicts on the two-thread cycle corpus, in-process.

One op is one test on one architecture through ``run_fuzz`` with the
default four models, one worker and no cache.  A pass is every
two-thread test on both architectures; the 3- and 4-thread families hold
almost all of the corpus cost (one test alone can take 24 s), so they
are left out.  Many small jobs: per-job harness overhead and the small
explorers dominate, the mirror image of ``tables``.
"""

from __future__ import annotations

import random
import time

import common
import stats
from spans import Tracer, layer_metrics, paired
from stats import Tally

#: Whole passes per second of ``--seconds`` (a pass takes about 20 s on
#: the reference host), at least one.
PASSES_PER_SECOND = 0.05
#: Ops of the traced run that also run untraced, for ``obs.trace_overhead``.
PAIRED_OPS = 48

#: What a user waits for before the first op: imports and the corpus.
SETUP_CODE = (
    "from repro.harness import run_fuzz\n"
    "from repro.litmus.synth import generate_cycle_battery\n"
    "generate_cycle_battery()"
)


def _corpus() -> list:
    from repro.litmus.synth import generate_cycle_battery

    return generate_cycle_battery()


def _plan(seed: int, seconds: float) -> list:
    """Whole passes of ``(test, arch)`` ops, each pass in its own seeded order.

    Expected verdicts are stamped by the axiomatic oracle first, as
    ``promising-arm fuzz --expected`` does.
    """
    from repro.lang.kinds import Arch
    from repro.litmus.synth import attach_expected

    two_thread = [t for t in _corpus() if len(t.program.thread_ids) == 2]
    ops = [(test, arch) for test in attach_expected(two_thread) for arch in (Arch.ARM, Arch.RISCV)]
    rng = random.Random(seed)
    plan = []
    for _ in range(max(1, round(seconds * PASSES_PER_SECOND))):
        order = ops[:]
        rng.shuffle(order)
        plan.extend(order)
    return plan


def _op(test, arch):
    from repro.harness import run_fuzz

    return run_fuzz([test], archs=[arch], workers=1)


def _gate(tally: Tally, test, arch, fuzz) -> None:
    where = f"{test.name} [{arch.value}]"
    if fuzz.counterexamples:
        tally.fail(f"{where}: {len(fuzz.counterexamples)} counterexample(s)", wrong=True)
        return
    for result in fuzz.results:
        if not result.ok:
            tally.fail(f"{where} {result.model}: {result.status}")
            return
        if result.truncated:
            tally.fail(f"{where} {result.model}: truncated")
            return
        if result.expected is None or result.verdict is not result.expected:
            tally.fail(f"{where} {result.model}: {result.verdict} vs {result.expected}", wrong=True)
            return
    tally.ok()


def measure(seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    setup = common.setup_median(lambda: common.timed_child(SETUP_CODE))
    plan = _plan(seed, seconds)
    samples = []
    start = time.perf_counter()
    for test, arch in plan:
        began = time.perf_counter()
        fuzz = _op(test, arch)
        samples.append(time.perf_counter() - began)
        _gate(tally, test, arch, fuzz)
    wall = time.perf_counter() - start
    return {
        "setup_s": setup,
        **stats.latency_metrics(samples, wall),
        "peak_rss_mb": common.self_peak_rss_mb(),
    }


def trace(seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    generate = []
    for _ in range(common.SETUP_SAMPLES):
        start = time.perf_counter()
        _corpus()
        generate.append(time.perf_counter() - start)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    plan = _plan(seed, seconds)
    for index, (test, arch) in enumerate(plan):
        if index < PAIRED_OPS:
            plain, traced, fuzz = paired(tracer, "harness.run_fuzz", lambda: _op(test, arch))
            plain_s += plain
            traced_s += traced
        else:
            with tracer.active(), tracer.span("harness.run_fuzz"):
                fuzz = _op(test, arch)
        _gate(tally, test, arch, fuzz)
    return {
        "litmus.generate_s": stats.median(generate),
        **layer_metrics(tracer, len(plan)),
        "obs.trace_overhead": traced_s / plain_s,
    }
