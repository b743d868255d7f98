"""The unified exploration kernel.

Every state-space search in the repo — the promise-first explorer, the
naive fully-interleaved explorer, the Flat-style explorer, and the
per-thread run-to-completion enumeration inside the promise-first
strategy — used to hand-roll the same loop: a frontier, a visited set,
a state budget, truncation accounting, and stats counters.  The
:class:`SearchKernel` owns all of that once, parameterised by

* a **transition-enumeration callback** ``successors(state)`` returning
  the successor states (and recording outcomes/deadlocks as a side
  effect when the popped state is terminal), and
* a pluggable :class:`~repro.explore.strategy.Strategy` deciding the
  frontier discipline (``dfs`` exhaustive, ``sample`` random walks).

The kernel's counters land in a :class:`KernelStats`, which the concrete
explorers fold into their domain-specific stats dataclasses (both of
which extend :class:`SearchStats`, so strategy/sampling fields flow
uniformly into job results and sweep reports).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ..obs import metrics
from .strategy import Strategy, is_exhaustive

# Flushed once per kernel run — the inner loop touches only KernelStats'
# plain ints, so instrumentation cost is O(1) per search, not per state.
_KERNEL_RUNS = metrics.counter(
    "kernel_runs_total", "SearchKernel runs completed.", labels=("strategy",)
)
_KERNEL_STATES = metrics.counter(
    "kernel_states_total", "States visited across all kernel runs.", labels=("strategy",)
)
_KERNEL_TRANSITIONS = metrics.counter(
    "kernel_transitions_total", "Transitions enumerated across all kernel runs.",
    labels=("strategy",),
)
_KERNEL_DEDUP_HITS = metrics.counter(
    "kernel_dedup_hits_total", "Visited-set hits across all kernel runs.",
    labels=("strategy",),
)
_KERNEL_TRUNCATIONS = metrics.counter(
    "kernel_truncations_total", "Kernel runs cut short, by cause.", labels=("cause",)
)
_KERNEL_RUN_SECONDS = metrics.histogram(
    "kernel_run_seconds", "Wall time per kernel run.", labels=("strategy",)
)
_KERNEL_STATES_PER_SECOND = metrics.gauge(
    "kernel_states_per_second", "Throughput of the most recent kernel run.",
    labels=("strategy",),
)


@dataclass
class SearchStats:
    """Strategy-and-budget fields shared by every explorer's stats.

    Concrete explorers subclass this with their domain counters
    (``promise_states``, ``restarts``, …); these base fields are what the
    harness, the report schema, and the fuzz policy consume uniformly.
    """

    truncated: bool = False
    #: Whether truncation was caused by the wall-clock deadline (as
    #: opposed to the ``max_states`` budget).
    deadline_hit: bool = False
    elapsed_seconds: float = 0.0
    #: Visited-set hits (exhaustive strategies only).
    dedup_hits: int = 0
    #: Strategy that produced this result (``dfs``/``sample``).
    strategy: str = "dfs"
    #: Random walks completed (``sample`` only).
    samples_run: int = 0
    #: Random-walk steps taken (``sample`` only).
    sample_steps: int = 0
    #: Walks abandoned at the per-walk depth bound (``sample`` only).
    sample_depth_hits: int = 0
    #: Distinct states touched across all walks (``sample`` only).
    unique_sample_states: int = 0
    #: ``unique_sample_states / states visited`` — the new-state rate of
    #: the walks.  Near 1.0 the walks still discover fresh states every
    #: step (the space is far from sampled out); near 0.0 they keep
    #: reconverging (the sample is saturating).  ``None`` for exhaustive
    #: runs, whose coverage is total by construction.
    coverage_estimate: Optional[float] = None

    @property
    def sampled(self) -> bool:
        """Whether this result is a statistical under-approximation."""
        return not is_exhaustive(self.strategy)

    def sampling_suffix(self) -> str:
        """The ``describe()`` tail shared by every explorer's stats."""
        if not self.sampled:
            return ""
        return (
            f" [strategy: {self.strategy}, walks: {self.samples_run}, "
            f"coverage est.: {self.coverage_estimate}]"
        )


@dataclass
class KernelStats:
    """Raw counters one :meth:`SearchKernel.run` call accumulates."""

    states: int = 0
    transitions: int = 0
    dedup_hits: int = 0
    truncated: bool = False
    deadline_hit: bool = False
    samples_run: int = 0
    sample_steps: int = 0
    sample_depth_hits: int = 0
    unique_sample_states: int = 0
    coverage_estimate: Optional[float] = None

    def merge_into(self, stats: SearchStats, strategy: Strategy) -> None:
        """Fold this run's counters into an explorer's stats object."""
        stats.truncated = stats.truncated or self.truncated
        stats.deadline_hit = stats.deadline_hit or self.deadline_hit
        stats.dedup_hits += self.dedup_hits
        stats.strategy = strategy.name
        stats.samples_run += self.samples_run
        stats.sample_steps += self.sample_steps
        stats.sample_depth_hits += self.sample_depth_hits
        stats.unique_sample_states += self.unique_sample_states
        if self.coverage_estimate is not None:
            stats.coverage_estimate = self.coverage_estimate


class SearchKernel:
    """One state-space search: frontier + visited set + budgets + stats.

    Parameters
    ----------
    successors:
        The transition-enumeration callback.  Called once per visited
        state; returns (an iterable of) successor states.  Terminal
        handling is the callback's job: a final state returns no
        successors and records its outcome as a side effect.
    strategy:
        Frontier discipline (see :mod:`repro.explore.strategy`).
    max_states:
        Visited-state budget; exceeding it marks the run truncated.
    deadline_seconds:
        Wall-clock budget measured with ``time.monotonic`` (NTP steps on
        the wall clock must never fire a deadline early or late).
    key_fn:
        Hashable-identity function for the visited set (typically a
        ``cache_key``).  ``None`` runs without a visited set: the search
        then walks the full execution tree.
    """

    def __init__(
        self,
        successors: Callable[[object], Iterable],
        *,
        strategy: Strategy,
        max_states: int,
        deadline_seconds: Optional[float] = None,
        key_fn: Optional[Callable[[object], object]] = None,
    ) -> None:
        self.successors = successors
        self.strategy = strategy
        self.max_states = max_states
        self.deadline_seconds = deadline_seconds
        #: Sampling strategies must be free to revisit states, so only
        #: exhaustive strategies get a visited set; ``key_fn`` stays
        #: available either way (``sample`` uses it to count the unique
        #: states behind its coverage estimate).
        self.key_fn = key_fn
        self.visited: Optional[set] = set() if key_fn is not None and strategy.exhaustive else None
        self.stats = KernelStats()
        self._deadline: Optional[float] = None

    def deadline_exceeded(self) -> bool:
        if self._deadline is None:
            return False
        if time.monotonic() >= self._deadline:
            self.stats.deadline_hit = True
            return True
        return False

    def run(self, roots: Sequence) -> KernelStats:
        """Search from ``roots`` until exhaustion or a budget trips."""
        start = time.perf_counter()
        if self.deadline_seconds is not None:
            self._deadline = time.monotonic() + self.deadline_seconds
        self.strategy.search(self, roots)
        self._record_metrics(time.perf_counter() - start)
        return self.stats

    def _record_metrics(self, elapsed: float) -> None:
        """Flush this run's counters to the metrics registry (once)."""
        name = self.strategy.name
        _KERNEL_RUNS.inc(strategy=name)
        _KERNEL_STATES.inc(self.stats.states, strategy=name)
        _KERNEL_TRANSITIONS.inc(self.stats.transitions, strategy=name)
        _KERNEL_DEDUP_HITS.inc(self.stats.dedup_hits, strategy=name)
        if self.stats.truncated:
            cause = "deadline" if self.stats.deadline_hit else "max_states"
            _KERNEL_TRUNCATIONS.inc(cause=cause)
        _KERNEL_RUN_SECONDS.observe(elapsed, strategy=name)
        if elapsed > 0:
            _KERNEL_STATES_PER_SECOND.set(self.stats.states / elapsed, strategy=name)

    def finish(self, stats: SearchStats) -> None:
        """Fold the kernel counters into an explorer's stats object."""
        self.stats.merge_into(stats, self.strategy)


__all__ = ["KernelStats", "SearchKernel", "SearchStats"]
