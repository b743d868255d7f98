"""The ``object`` (reference) execution backends.

These wrap the historical dataclass-walking enumeration behind the
backend seam without changing a single step of it: states are the
``MachineState``/``FlatState`` object graphs themselves (``encode`` and
``decode`` are the identity), visited-set keys are the ``cache_key()``
snapshot tuples, and certification goes through one per-run
:class:`~repro.promising.certification.CertificationCache`.  The
conformance suite holds the ``packed`` backend to this one's outcomes
and counters.
"""

from __future__ import annotations

import time
from typing import Optional

from ..explore import DepthFirst, SearchKernel
from ..lang.ast import Stmt
from ..lang.kinds import Arch
from ..lang.program import Program, TId
from ..obs.tracing import PhaseAccumulator
from ..outcomes import Outcome
from ..promising.certification import CertificationCache
from ..promising.machine import MachineState, machine_transitions
from ..promising.state import Memory, TState
from ..promising.steps import is_terminated, non_promise_steps, promise_step
from .base import EXPLORE_PHASE_SECONDS


def enumerate_completions(
    stmt: Stmt,
    ts: TState,
    memory: Memory,
    arch: Arch,
    tid: TId,
    stats,
    max_states: int,
) -> set[tuple]:
    """All final register states of one thread under a fixed memory.

    Non-promise phase of §7: memory is fixed, so the thread's behaviour
    is independent of the other threads; we enumerate its executions and
    collect the register file of every run that terminates with all
    promises fulfilled.

    Always exhaustive (plain DFS through the kernel) even when the outer
    promise search is sampling: a sampled run must under-approximate the
    *reachable memories*, never fabricate partial register files.
    Symmetric instruction interleavings that reconverge on the same
    thread state are enumerated once.  The visited key is
    backend-specific — ``(statement, thread-state key)`` here,
    ``(statement id, packed thread state)`` on ``packed`` — but induces
    the same equivalence classes, so the ``thread_enumeration_states`` /
    ``thread_dedup_hits`` counters agree across backends.
    """
    results: set[tuple] = set()

    def expand(node: tuple[Stmt, TState]) -> list[tuple[Stmt, TState]]:
        cur_stmt, cur_ts = node
        if is_terminated(cur_stmt) and not cur_ts.prom:
            results.add(tuple(sorted(cur_ts.register_values().items())))
            return []
        return [
            (step.stmt, step.tstate)
            for step in non_promise_steps(cur_stmt, cur_ts, memory, arch, tid)
        ]

    kernel = SearchKernel(
        expand,
        strategy=DepthFirst(),
        max_states=max_states,
        key_fn=lambda node: (node[0], node[1].cache_key()),
    )
    kernel.run([(stmt, ts)])
    stats.thread_enumeration_states += kernel.stats.states
    stats.thread_dedup_hits += kernel.stats.dedup_hits
    if kernel.stats.truncated:
        stats.truncated = True
    return results


class ObjectPromisingBackend:
    """Reference backend of the promising explorers (object-graph states)."""

    name = "object"

    def __init__(self, program: Program, config, stats) -> None:
        self.program = program
        self.config = config
        self.arch = config.arch
        self.stats = stats
        self.cert_cache = CertificationCache(config.arch, config.cert_fuel)
        # Memoise per-thread completion enumeration across final-memory
        # states: different promise interleavings frequently reconverge.
        self._completions: dict[tuple, set[tuple]] = {}
        self.phases = PhaseAccumulator()

    # -- ExecutionBackend core --------------------------------------------
    def initial(self) -> MachineState:
        return MachineState.initial(self.program, self.arch)

    def encode(self, state: MachineState) -> MachineState:
        return state

    def decode(self, packed: MachineState) -> MachineState:
        return packed

    def key(self, state: MachineState):
        # The visited-set key, timed as the "intern" phase.
        t0 = time.perf_counter()
        key = state.cache_key()
        self.phases.add("intern", time.perf_counter() - t0)
        return key

    # -- promise-first exploration ----------------------------------------
    def certify_all(self, state: MachineState):
        """Certify every thread; returns (per-thread results, can-finish)."""
        per_thread = []
        can_finish = []
        phase_start = time.perf_counter()
        for tid, thread in enumerate(state.threads):
            # One sequential-graph build (memoised) answers both the
            # promise enumeration and the can-finish question.
            cert = self.cert_cache.certify(thread.stmt, thread.tstate, state.memory, tid)
            if not cert.complete:
                self.stats.truncated = True
            per_thread.append(cert)
            can_finish.append(cert.can_complete)
        self.phases.add("certify", time.perf_counter() - phase_start)
        return per_thread, can_finish

    def completion_sets(self, state: MachineState) -> Optional[list[set[tuple]]]:
        """Per-thread final register sets under this (final) memory.

        ``None`` when some thread has no completing execution (the
        candidate final memory is infeasible).
        """
        stats = self.stats
        phase_start = time.perf_counter()
        thread_results: list[set[tuple]] = []
        feasible = True
        for tid, thread in enumerate(state.threads):
            cache_key = (tid, thread.key(), state.memory.cache_key())
            regs = self._completions.get(cache_key)
            if regs is not None:
                stats.completion_memo_hits += 1
            else:
                regs = enumerate_completions(
                    thread.stmt,
                    thread.tstate,
                    state.memory,
                    self.arch,
                    tid,
                    stats,
                    self.config.max_states,
                )
                self._completions[cache_key] = regs
            if not regs:
                feasible = False
                break
            thread_results.append(regs)
        self.phases.add("enumerate", time.perf_counter() - phase_start)
        return thread_results if feasible else None

    def accumulate_outcomes(self, outcomes, state: MachineState) -> None:
        """Cross per-thread completion sets into the outcome set.

        The reference cross product: decoded register dicts folded
        through :meth:`Outcome.make`, exactly the drive logic the
        explorer ran before outcome accumulation moved behind the seam.
        """
        thread_results = self.completion_sets(state)
        if thread_results is None:
            return
        final_memory = state.memory.final_values()

        def recurse(tid: int, acc: list[dict]) -> None:
            if tid == len(thread_results):
                outcomes.add(Outcome.make(list(acc), final_memory))
                return
            for regs in thread_results[tid]:
                acc.append(dict(regs))
                recurse(tid + 1, acc)
                acc.pop()

        recurse(0, [])

    def promise_successors(self, state: MachineState, per_thread) -> list[MachineState]:
        successors: list[MachineState] = []
        for tid, cert in enumerate(per_thread):
            thread = state.threads[tid]
            for msg in cert.promises:
                step = promise_step(thread.stmt, thread.tstate, state.memory, msg)
                successors.append(state.replace_thread(tid, step))
        return successors

    def final_memory(self, state: MachineState) -> dict:
        return state.memory.final_values()

    # -- naive (fully interleaved) exploration -----------------------------
    def successors(self, state: MachineState) -> list[MachineState]:
        # Certification happens inside machine_transitions here, so the
        # naive explorer's step enumeration and certify time are one
        # phase by construction.
        phase_start = time.perf_counter()
        transitions = machine_transitions(
            state, self.config.cert_fuel, cert_cache=self.cert_cache
        )
        self.phases.add("enumerate", time.perf_counter() - phase_start)
        return [transition.state for transition in transitions]

    def is_final(self, state: MachineState) -> bool:
        return state.is_final

    def has_outstanding_promises(self, state: MachineState) -> bool:
        return state.has_outstanding_promises

    def outcome(self, state: MachineState):
        return state.outcome()

    # -- accounting ---------------------------------------------------------
    def finalise(self, stats, model: str) -> None:
        """Fold the run's cert counters into stats; flush phases."""
        stats.cert_calls += self.cert_cache.calls
        stats.cert_memo_hits += self.cert_cache.hits
        self.phases.flush(EXPLORE_PHASE_SECONDS, model=model)


class ObjectFlatBackend:
    """Reference backend of the Flat-style explorer.

    The transition relation stays in :mod:`repro.flat.explorer`; it is
    injected as ``successors_fn`` (signature ``(state, config) ->
    iterable of (label, state)``) so this module needs no import of the
    explorer it serves.
    """

    name = "object"

    def __init__(self, program: Program, config, stats, successors_fn) -> None:
        self.program = program
        self.config = config
        self.stats = stats
        self._successors = successors_fn
        self.phases = PhaseAccumulator()

    def initial(self):
        from ..flat.machine import initial_state

        return self.encode(initial_state(self.program, self.config.arch))

    def encode(self, state):
        return state

    def decode(self, packed):
        return packed

    def key(self, state):
        t0 = time.perf_counter()
        key = state.cache_key()
        self.phases.add("intern", time.perf_counter() - t0)
        return key

    def successors(self, state) -> list:
        phase_start = time.perf_counter()
        result = []
        for label, succ in self._successors(state, self.config):
            if label == "restart":
                self.stats.restarts += 1
            result.append(succ)
        self.phases.add("enumerate", time.perf_counter() - phase_start)
        return result

    def is_final(self, state) -> bool:
        return state.is_final

    def outcome(self, state):
        return state.outcome()

    def finalise(self, stats, model: str) -> None:
        self.phases.flush(EXPLORE_PHASE_SECONDS, model=model)


__all__ = [
    "ObjectFlatBackend",
    "ObjectPromisingBackend",
    "enumerate_completions",
]
