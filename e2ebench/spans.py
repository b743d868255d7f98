"""In-memory spans around the program's calls into each layer.

Only the traced run installs them.  :meth:`Tracer.active` swaps module
attributes (the names callers look up at call time) for wrappers that
open a span and, for explorers, add the result's counters, and puts the
originals back when its block ends.  No file of the program is changed.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

from stats import Span, median, ratio, self_times

#: (module, attribute, span name): the call sites the traced run wraps.
#: ``execute_job`` is wrapped where the scheduler and the litmus runner
#: call it; the explorers where ``execute_job`` calls them; the program
#: compiler where the packed backend calls it.
LAYER_CALLS = (
    ("repro.harness.scheduler", "execute_job", "harness.execute_job"),
    ("repro.litmus.runner", "execute_job", "harness.execute_job"),
    ("repro.harness.jobs", "explore", "promising.explore"),
    ("repro.harness.jobs", "explore_naive", "promising.explore_naive"),
    ("repro.harness.jobs", "enumerate_axiomatic_outcomes", "axiomatic"),
    ("repro.harness.jobs", "explore_flat", "flat.explore_flat"),
    ("repro.backend.packed", "compile_program", "isa.compile"),
)

_MEMO = ("dedup_hits", "step_memo_hits", "step_memo_misses")
_PROMISING = ("promise_states", "cert_calls", "cert_memo_hits") + _MEMO
#: Explorer result counters summed over the traced work, by span name.
_COUNTERS = {
    "promising.explore": _PROMISING,
    "promising.explore_naive": _PROMISING,
    "flat.explore_flat": ("states",) + _MEMO,
}

_PHASE_COUNTER = "explore_phase_seconds_total"
PHASES = ("enumerate", "certify", "intern")


class Tracer:
    """Spans and counters recorded while the traced run's work executes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phases: dict[str, float] = dict.fromkeys(PHASES, 0.0)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        record = Span(name, parent, time.perf_counter())
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, original: Callable, name: str) -> Callable:
        counters = _COUNTERS.get(name, ())

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            for counter in counters:
                self.counts[f"{name}.{counter}"] += getattr(result.stats, counter)
            return result

        return traced

    @contextmanager
    def active(self) -> Iterator[None]:
        """Wrap every :data:`LAYER_CALLS` site while the block runs.

        The ``explore_phase_seconds`` the block adds are kept in
        :attr:`phases`.
        """
        for module_name, attribute, name in LAYER_CALLS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._patched.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, name))
        before = phase_seconds()
        try:
            yield
        finally:
            after = phase_seconds()
            for phase in PHASES:
                self.phases[phase] += after[phase] - before[phase]
            while self._patched:
                module, attribute, original = self._patched.pop()
                setattr(module, attribute, original)

    # -- summaries ----------------------------------------------------------
    def self_seconds(self, name: str) -> list[float]:
        own = self_times(self.spans)
        return [own[i] for i, s in enumerate(self.spans) if s.name == name]

    def seconds(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)


def phase_seconds() -> dict[str, float]:
    """Current ``explore_phase_seconds`` totals by phase, over the promising
    explorers (the Flat explorer reports its own phases there too)."""
    from repro.obs import metrics

    entry = metrics.get_registry().snapshot().get(_PHASE_COUNTER)
    totals = dict.fromkeys(PHASES, 0.0)
    if entry is None:
        return totals
    model_at, phase_at = entry["labels"].index("model"), entry["labels"].index("phase")
    for key, value in entry["series"].items():
        labels = key.split("\x1f")
        if labels[model_at].startswith("promising") and labels[phase_at] in totals:
            totals[labels[phase_at]] += value
    return totals


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """The explorer, harness and backend per-layer metrics of a traced run.

    ``ops`` is the number of operations the traced work ran.
    """
    promising = ("promising.explore", "promising.explore_naive")
    explorers = (*promising, "flat.explore_flat")

    def total(counter: str, names: tuple[str, ...] = explorers) -> float:
        return sum(tracer.counts[f"{name}.{counter}"] for name in names)

    def p50_ms(name: str) -> float:
        own = tracer.self_seconds(name)
        return median(own) * 1000.0 if own else 0.0

    def self_s(name: str) -> float:
        return sum(tracer.self_seconds(name), 0.0)

    promise_states = total("promise_states", promising)
    flat_states = total("states", ("flat.explore_flat",))
    states = promise_states + flat_states
    dedup_hits = total("dedup_hits")
    memo_hits = total("step_memo_hits")
    return {
        "harness.run_fuzz.self_ms": p50_ms("harness.run_fuzz"),
        "harness.execute_job.self_ms": p50_ms("harness.execute_job"),
        "promising.explore.self_s": self_s("promising.explore"),
        "promising.explore_naive.self_s": self_s("promising.explore_naive"),
        **{f"promising.phase.{p}_s": tracer.phases[p] for p in PHASES},
        "promising.cert_memo_hit_ratio": ratio(
            total("cert_memo_hits", promising), total("cert_calls", promising)
        ),
        "promising.states": ratio(promise_states, ops),
        "flat.states": ratio(flat_states, ops),
        "flat.explore_flat.self_s": self_s("flat.explore_flat"),
        "flat.states_per_s": ratio(flat_states, tracer.seconds("flat.explore_flat")),
        "axiomatic.self_s": self_s("axiomatic"),
        "backend.step_memo_hit_ratio": ratio(memo_hits, memo_hits + total("step_memo_misses")),
        "backend.dedup_hit_ratio": ratio(dedup_hits, dedup_hits + states),
        "isa.compile_ms": tracer.seconds("isa.compile") * 1000.0,
        "explore.states_per_s": ratio(states, sum(tracer.seconds(n) for n in explorers)),
    }


def paired(tracer: Tracer, name: str, op: Callable[[], object]) -> tuple[float, float, object]:
    """Run ``op`` untraced, then again traced inside a ``name`` span.

    Returns ``(untraced seconds, traced seconds, traced result)``; the
    two timings sit side by side, so host drift cancels out of their
    ratio.
    """
    start = time.perf_counter()
    op()
    plain = time.perf_counter() - start
    with tracer.active():
        start = time.perf_counter()
        with tracer.span(name):
            result = op()
        traced = time.perf_counter() - start
    return plain, traced, result
