"""The ARMv8/RISC-V axiomatic memory model (Fig. 6 / §D of the paper).

Candidate executions are built from per-thread pre-executions
(:mod:`repro.axiomatic.preexec`) by choosing a reads-from relation ``rf``
and a per-location coherence order ``co``; a candidate is *legal* when it
satisfies the three axioms:

* ``internal``: ``acyclic (po-loc | fr | co | rf)`` — coherence;
* ``external``: ``acyclic ob`` where ``ob = obs | dob | aob | bob`` —
  observed ordering must be consistent with the preserved thread-local
  ordering (dependencies, barriers, release/acquire);
* ``atomic``: ``empty (rmw & (fre; coe))`` — load/store exclusive pairs
  are not interleaved by another thread's write to the same location.

The two architectures differ only in ``aob`` (forwarding from an exclusive
write) and in ``bob`` (RISC-V orders the paired load before the store
conditional), exactly as in the paper's Fig. 6.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from ..explore.config import BaseSearchConfig
from ..lang.kinds import Arch
from ..lang.program import Loc, Program, TId
from ..lang.expr import Value
from ..outcomes import Outcome, OutcomeSet
from .events import Event, EventId, INIT_TID, init_write
from .preexec import (
    PreExecution,
    TooManyPreExecutions,
    enumerate_preexecutions,
    infer_value_domains,
)
from .relations import Relation, identity_on


@dataclass
class AxiomaticConfig:
    """Configuration of the axiomatic enumerator."""

    arch: Arch = Arch.ARM
    loop_bound: int = BaseSearchConfig.loop_bound
    #: Cap on interpreter states per thread unfolding.
    max_preexec_states: int = 100_000
    #: Cap on candidate executions examined (safety valve).
    max_candidates: int = 2_000_000
    #: Iterations of the value-domain fixpoint.
    domain_iterations: int = 4


@dataclass
class AxiomaticStats:
    """Diagnostics from an axiomatic enumeration."""

    pre_executions: int = 0
    candidates: int = 0
    consistent: int = 0
    truncated: bool = False
    elapsed_seconds: float = 0.0

    def describe(self) -> str:
        return (
            f"pre-executions: {self.pre_executions}, candidates: {self.candidates}, "
            f"consistent: {self.consistent}, truncated: {self.truncated}, "
            f"time: {self.elapsed_seconds:.3f}s"
        )


@dataclass
class AxiomaticResult:
    outcomes: OutcomeSet
    stats: AxiomaticStats
    program: Program

    def describe(self) -> str:
        header = f"{len(self.outcomes)} outcomes ({self.stats.describe()})"
        return header + "\n" + self.outcomes.describe(self.program.loc_names)


@dataclass(frozen=True)
class CandidateExecution:
    """A full candidate: events plus the execution witness."""

    events: tuple[Event, ...]
    po: Relation
    rf: Relation
    co: Relation
    rmw: Relation

    def event(self, eid: EventId) -> Event:
        return self._index[eid]

    @property
    def _index(self) -> dict[EventId, Event]:
        return {e.eid: e for e in self.events}


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


def _external(index: Mapping[EventId, Event], relation: Relation) -> Relation:
    return Relation(
        (a, b) for a, b in relation if index[a].tid != index[b].tid
    )


def _internal(index: Mapping[EventId, Event], relation: Relation) -> Relation:
    return Relation(
        (a, b) for a, b in relation if index[a].tid == index[b].tid
    )


def preserved_ordering(
    events: Sequence[Event],
    po: Relation,
    rf: Relation,
    co: Relation,
    rmw: Relation,
    arch: Arch,
) -> Relation:
    """The ordered-before relation ``ob = obs | dob | aob | bob`` (Fig. 6)."""
    index = {e.eid: e for e in events}
    fr = rf.inverse().compose(co)

    rfe = _external(index, rf)
    rfi = _internal(index, rf)

    obs = rfe | fr | co

    addr = Relation(
        (dep, e.eid) for e in events for dep in e.addr_deps
    )
    data = Relation(
        (dep, e.eid) for e in events for dep in e.data_deps
    )
    ctrl = Relation(
        (dep, e.eid) for e in events for dep in e.ctrl_deps
    )

    def is_write(eid):
        return index[eid].is_write

    def is_read(eid):
        return index[eid].is_read

    addr_or_data = addr | data
    ctrl_or_addrpo = ctrl | addr.compose(po)
    isb_id = identity_on(events, lambda e: e.is_isb)

    dob = (
        addr
        | data
        | addr_or_data.compose(rfi)
        | ctrl_or_addrpo.restrict(range_=is_write)
        | ctrl_or_addrpo.compose(isb_id).compose(po).restrict(range_=is_read)
    )

    # aob: forwarding from a successful store exclusive.
    rmw_writes = {b for _a, b in rmw}
    aob_pairs = []
    for a, b in rfi:
        if a in rmw_writes:
            target = index[b]
            if arch is Arch.RISCV or target.is_acquire:
                aob_pairs.append((a, b))
    aob = Relation(aob_pairs)

    # bob: barriers and release/acquire ordering.
    bob_pairs: list[tuple[EventId, EventId]] = []
    by_thread: dict[TId, list[Event]] = {}
    for event in events:
        if event.tid != INIT_TID:
            by_thread.setdefault(event.tid, []).append(event)
    for thread_events in by_thread.values():
        thread_events.sort(key=lambda e: e.eid[1])
        for i, fence in enumerate(thread_events):
            if not fence.is_fence:
                continue
            before = [
                e for e in thread_events[:i] if e.matches_fence_class(fence.fence_before)
            ]
            after = [
                e
                for e in thread_events[i + 1 :]
                if e.matches_fence_class(fence.fence_after)
            ]
            bob_pairs.extend((b.eid, a.eid) for b in before for a in after)
        for i, first in enumerate(thread_events):
            for later in thread_events[i + 1 :]:
                # [RL]; po; [AQ]
                if first.is_strong_release and later.is_strong_acquire:
                    bob_pairs.append((first.eid, later.eid))
                # [AQ|AQpc]; po
                if first.is_acquire:
                    bob_pairs.append((first.eid, later.eid))
                # po; [RL|RLpc]
                if later.is_release:
                    bob_pairs.append((first.eid, later.eid))
    bob = Relation(bob_pairs)
    if arch is Arch.RISCV:
        bob = bob | rmw

    return obs | dob | aob | bob


def check_axioms(candidate: CandidateExecution, arch: Arch) -> bool:
    """Do the Fig. 6 axioms hold for ``candidate``?"""
    events = candidate.events
    index = {e.eid: e for e in events}
    po, rf, co, rmw = candidate.po, candidate.rf, candidate.co, candidate.rmw
    fr = rf.inverse().compose(co)

    # internal: acyclic (po-loc | fr | co | rf)
    po_loc = Relation(
        (a, b)
        for a, b in po
        if index[a].is_access
        and index[b].is_access
        and index[a].loc == index[b].loc
    )
    if not (po_loc | fr | co | rf).is_acyclic():
        return False

    # external: acyclic ob
    ob = preserved_ordering(events, po, rf, co, rmw, arch)
    if not ob.is_acyclic():
        return False

    # atomic: empty (rmw & (fre; coe))
    fre = _external(index, fr)
    coe = _external(index, co)
    if not (rmw & fre.compose(coe)).is_empty():
        return False
    return True


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------


def _program_order(pre_execs: Sequence[PreExecution]) -> Relation:
    pairs = []
    for pre in pre_execs:
        events = pre.events
        for i, first in enumerate(events):
            for later in events[i + 1 :]:
                pairs.append((first.eid, later.eid))
    return Relation(pairs)


def _rf_choices(reads: Sequence[Event], writes: Sequence[Event]) -> Iterator[Relation]:
    """All reads-from assignments matching locations and values."""
    per_read: list[list[Event]] = []
    for read in reads:
        sources = [
            w for w in writes if w.loc == read.loc and w.val == read.val
        ]
        if not sources:
            return
        per_read.append(sources)
    for combo in itertools.product(*per_read):
        yield Relation(
            (w.eid, r.eid) for w, r in zip(combo, reads)
        )


def _co_choices(writes: Sequence[Event]) -> Iterator[Relation]:
    """All per-location coherence orders (initial writes first)."""
    by_loc: dict[Loc, list[Event]] = {}
    init_by_loc: dict[Loc, Event] = {}
    for w in writes:
        if w.is_init:
            init_by_loc[w.loc] = w
        else:
            by_loc.setdefault(w.loc, []).append(w)
    per_loc_orders: list[list[list[Event]]] = []
    for loc, ws in by_loc.items():
        orders = []
        for perm in itertools.permutations(ws):
            chain = ([init_by_loc[loc]] if loc in init_by_loc else []) + list(perm)
            orders.append(chain)
        per_loc_orders.append(orders)
    if not per_loc_orders:
        yield Relation()
        return
    for combo in itertools.product(*per_loc_orders):
        pairs = []
        for chain in combo:
            for i, first in enumerate(chain):
                for later in chain[i + 1 :]:
                    pairs.append((first.eid, later.eid))
        yield Relation(pairs)


def _candidate_outcome(
    pre_execs: Sequence[PreExecution],
    events: Sequence[Event],
    co: Relation,
    initial: Mapping[Loc, Value],
) -> Outcome:
    final_memory: dict[Loc, Value] = dict(initial)
    writes = [e for e in events if e.is_write]
    co_pairs = set(co)
    for write in writes:
        final_memory.setdefault(write.loc, 0)
    for loc in {w.loc for w in writes}:
        loc_writes = [w for w in writes if w.loc == loc]
        maximal = [
            w
            for w in loc_writes
            if not any((w.eid, other.eid) in co_pairs for other in loc_writes if other is not w)
        ]
        if maximal:
            final_memory[loc] = maximal[0].val
    registers = [pre.final_register_values() for pre in pre_execs]
    return Outcome.make(registers, final_memory)


def enumerate_axiomatic_outcomes(
    program: Program, config: Optional[AxiomaticConfig] = None
) -> AxiomaticResult:
    """Enumerate all outcomes allowed by the axiomatic model."""
    config = config or AxiomaticConfig()
    start = time.perf_counter()
    stats = AxiomaticStats()
    outcomes = OutcomeSet()

    domains = infer_value_domains(
        program,
        loop_bound=config.loop_bound,
        max_iterations=config.domain_iterations,
        max_states=config.max_preexec_states,
    )

    per_thread: list[list[PreExecution]] = []
    for tid, stmt in enumerate(program.threads):
        try:
            pre_execs = enumerate_preexecutions(
                stmt,
                tid,
                domains,
                program.initial,
                config.loop_bound,
                config.max_preexec_states,
            )
        except TooManyPreExecutions:
            stats.truncated = True
            pre_execs = []
        if not pre_execs:
            pre_execs = [PreExecution(tid, (), ())]
        stats.pre_executions += len(pre_execs)
        per_thread.append(pre_execs)

    for chosen in itertools.product(*per_thread):
        thread_events = [e for pre in chosen for e in pre.events]
        locations = sorted(
            {e.loc for e in thread_events if e.is_access} | set(program.initial)
        )
        init_events = [
            init_write(loc, program.initial_value(loc), i)
            for i, loc in enumerate(locations)
        ]
        events = tuple(init_events + thread_events)
        reads = [e for e in thread_events if e.is_read]
        writes = [e for e in events if e.is_write]
        po = _program_order(chosen)
        rmw = Relation(
            (e.rmw_partner, e.eid)
            for e in thread_events
            if e.is_write and e.rmw_partner is not None
        )
        for rf in _rf_choices(reads, writes):
            for co in _co_choices(writes):
                stats.candidates += 1
                if stats.candidates > config.max_candidates:
                    stats.truncated = True
                    stats.elapsed_seconds = time.perf_counter() - start
                    return AxiomaticResult(outcomes, stats, program)
                candidate = CandidateExecution(events, po, rf, co, rmw)
                if check_axioms(candidate, config.arch):
                    stats.consistent += 1
                    outcomes.add(_candidate_outcome(chosen, events, co, program.initial))

    stats.elapsed_seconds = time.perf_counter() - start
    return AxiomaticResult(outcomes, stats, program)


def axiomatic_verdict(test, config: Optional[AxiomaticConfig] = None):
    """Verdict oracle: is ``test``'s condition observable axiomatically?

    The standalone, harness-free entry point (the axiomatic models are the
    architectures' official definitions, so their verdict is what
    generated tests are checked against): enumerate the axiomatic
    outcomes, project them onto the observables mentioned by the
    condition — the same projection the litmus runner applies — and
    evaluate the condition.  Returns a
    :class:`~repro.litmus.test.Verdict`.  For whole corpora prefer
    :func:`repro.litmus.synth.attach_expected`, which asks the same
    question through the sweep harness (worker pool + result cache).

    ``test`` is a :class:`~repro.litmus.test.LitmusTest` (typed loosely to
    keep this package import-free of :mod:`repro.litmus`); pass the target
    architecture via ``config``.
    """
    result = enumerate_axiomatic_outcomes(test.program, config)
    registers = {
        tid: sorted(names) for tid, names in test.observable_registers().items()
    }
    locations = sorted(test.observable_locations())
    return test.evaluate(result.outcomes.project(registers, locations))


__all__ = [
    "AxiomaticConfig",
    "AxiomaticStats",
    "AxiomaticResult",
    "CandidateExecution",
    "preserved_ordering",
    "check_axioms",
    "enumerate_axiomatic_outcomes",
    "axiomatic_verdict",
]
