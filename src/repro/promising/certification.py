"""Certification and promise enumeration (§4.3, §B, Theorem 6.4).

A thread configuration ⟨T, M⟩ is *certified* when the thread, executing
sequentially (alone, with every new promise immediately fulfilled), can
reach a state with no outstanding promises.  The machine only takes steps
that lead to certified configurations.

:func:`find_and_certify` is the algorithmic counterpart used by the
executable tool: starting from a certified configuration it returns the
set of promise messages whose addition keeps the configuration certified
(exactly the promises the machine should offer, per Theorem 6.4), by
enumerating the thread's bounded sequential executions and harvesting the
writes whose pre-view and coherence view do not exceed the current
maximal timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.ast import Stmt
from ..lang.kinds import Arch
from ..lang.program import TId
from .state import Memory, Msg, TState
from .steps import (
    ThreadStep,
    is_terminated,
    non_promise_steps,
    sequential_steps,
)

#: Default bound on the number of sequential states a single certification
#: run may visit.  Certification explores one thread in isolation, so this
#: is rarely reached except for programs with unbounded loops.
DEFAULT_FUEL = 4000


@dataclass(frozen=True)
class CertificationResult:
    """Result of :func:`find_and_certify` / :func:`certify_thread`.

    Attributes
    ----------
    certified:
        Whether the configuration itself can fulfil all its promises.
    promises:
        Messages that may be promised next while staying certified.
    complete:
        False when the sequential search was truncated by ``fuel``; in
        that case ``certified``/``promises`` are under-approximations
        (sound for exploration, possibly missing behaviours).
    visited:
        Number of sequential states visited (for diagnostics/benchmarks).
    can_complete:
        Whether the thread can also terminate with *memory fixed* (no new
        writes), i.e. the :func:`can_complete_without_promising` answer.
        Populated by :func:`certify_thread`, which derives it from the
        same sequential graph; ``None`` when the producer did not compute
        it.
    """

    certified: bool
    promises: frozenset[Msg]
    complete: bool
    visited: int
    can_complete: Optional[bool] = None


def _state_key(stmt: Stmt, ts: TState, memory: Memory) -> tuple:
    return (stmt, ts.cache_key(), memory.cache_key())


class _SequentialGraphBase:
    """Shared node/edge store and reachability passes of the two builds.

    Nodes are thread configurations reachable by sequential steps; edges
    remember the write performed (if any) so promise candidates can be
    harvested afterwards.  Node identities are hash-consed to dense
    integer ids and the reachability passes run on ints only; what
    differs between the subclasses is the node *key* (and therefore what
    gets hashed per discovered edge).
    """

    def __init__(self, arch: Arch, tid: TId, fuel: int) -> None:
        self.arch = arch
        self.tid = tid
        self.fuel = fuel
        self._ids: dict[tuple, int] = {}
        #: Edge lists indexed by node id (parallel list, not a dict).
        self.edges: list[Optional[list[tuple[int, Optional[ThreadStep]]]]] = []
        self.fulfilled: set[int] = set()
        #: Terminated *and* promise-free nodes: the accepting states of
        #: :func:`can_complete_without_promising`.
        self.finished: set[int] = set()
        self.complete = True

    @property
    def n_nodes(self) -> int:
        return len(self._ids)

    def _backward_reachable(self, targets: set[int], writes_too: bool) -> set[int]:
        """Nodes from which some target is reachable (optionally over all
        edges; otherwise only non-write edges)."""
        predecessors: list[list[int]] = [[] for _ in range(len(self._ids))]
        for src, succs in enumerate(self.edges):
            for dst, step in succs or ():
                if writes_too or step is None:
                    predecessors[dst].append(src)
        good = set(targets)
        worklist = list(targets)
        while worklist:
            node = worklist.pop()
            for pred in predecessors[node]:
                if pred not in good:
                    good.add(pred)
                    worklist.append(pred)
        return good

    def can_reach_fulfilled(self) -> set[int]:
        """Ids of nodes from which a promise-free state is reachable."""
        return self._backward_reachable(self.fulfilled, writes_too=True)

    def can_reach_finished_locally(self) -> set[int]:
        """Ids of nodes that reach a finished node via non-write edges.

        Write edges append to memory, so a path avoiding them is exactly
        a :func:`~repro.promising.steps.non_promise_steps` execution —
        the relation :func:`can_complete_without_promising` searches.
        """
        return self._backward_reachable(self.finished, writes_too=False)


class _SequentialGraph(_SequentialGraphBase):
    """The reference build: nodes keyed by deep configuration tuples.

    The full configuration key — ``(statement, thread-state snapshot,
    memory)`` — is a deep tuple whose hash walks every register, view,
    and message; interning pays that hash once per discovered edge, which
    is where most of the certification profile used to go.
    """

    def _intern(self, stmt: Stmt, ts: TState, memory: Memory) -> tuple[int, bool]:
        """Dense id for a configuration, plus whether it is new."""
        key = _state_key(stmt, ts, memory)
        nid = self._ids.get(key)
        if nid is not None:
            return nid, False
        nid = len(self._ids)
        self._ids[key] = nid
        self.edges.append(None)
        return nid, True

    def build(self, stmt: Stmt, ts: TState, memory: Memory) -> int:
        root, _ = self._intern(stmt, ts, memory)
        stack = [(root, stmt, ts, memory)]
        while stack:
            nid, stmt, ts, memory = stack.pop()
            if self.edges[nid] is not None:
                continue
            if not ts.prom:
                self.fulfilled.add(nid)
                if is_terminated(stmt):
                    self.finished.add(nid)
            if len(self._ids) >= self.fuel:
                # Truncated: leave this node unexpanded.
                self.edges[nid] = []
                self.complete = False
                continue
            successors: list[tuple[int, Optional[ThreadStep]]] = []
            for step in sequential_steps(stmt, ts, memory, self.arch, self.tid):
                succ, fresh = self._intern(step.stmt, step.tstate, step.memory)
                successors.append((succ, step if step.kind == "write" else None))
                if fresh:
                    stack.append((succ, step.stmt, step.tstate, step.memory))
            self.edges[nid] = successors
        return root


class CompiledSequentialGraph(_SequentialGraphBase):
    """The packed build: nodes keyed ``(stmt id, packed regs, mem id)``.

    Statements are dense compiled ids (no AST hashing), memories intern
    to dense ids through a caller-supplied
    :class:`~repro.promising.intern.IdInterner` (shared across the
    certification calls of one run, so a memory's messages are hashed
    once ever), and step enumeration goes through the compiled
    per-statement tables.  The rule bodies, enumeration order, node
    equivalence classes, discovery order and fuel cut-off are identical
    to :class:`_SequentialGraph` by construction, so both builds produce
    the same :class:`CertificationResult` — the conformance suite holds
    them to that.
    """

    def __init__(
        self, compiled, arch: Arch, tid: TId, fuel: int, mem_ids, appends=None
    ) -> None:
        super().__init__(arch, tid, fuel)
        self.compiled = compiled
        self.mem_ids = mem_ids
        #: ``(mem id, loc, value, tid)`` -> appended memory id.  Sequential
        #: write steps extend memory deterministically, so once an append
        #: has been interned its id can be replayed without hashing the
        #: messages tuple again.  The packed backend shares its run-wide
        #: append memo here, making the ids flow *through* the build:
        #: every successor memory id is derived from its predecessor's id
        #: and the written message, never from a by-value memory hash.
        self.appends: dict[tuple, int] = {} if appends is None else appends

    def _intern(self, sid: int, ts: TState, mem_id: int) -> tuple[int, bool]:
        key = (sid, ts.pack(self.compiled.registers), mem_id)
        nid = self._ids.get(key)
        if nid is not None:
            return nid, False
        nid = len(self._ids)
        self._ids[key] = nid
        self.edges.append(None)
        return nid, True

    def _memory_id(self, memory: Memory) -> int:
        return self.mem_ids.intern(memory.cache_key(), memory)

    def build(self, sid: int, ts: TState, memory: Memory, mem_id=None) -> int:
        compiled = self.compiled
        records = compiled.stmts
        appends = self.appends
        if mem_id is None:
            mem_id = self._memory_id(memory)
        root, _ = self._intern(sid, ts, mem_id)
        stack = [(root, sid, ts, memory, mem_id)]
        while stack:
            nid, sid, ts, memory, mem_id = stack.pop()
            if self.edges[nid] is not None:
                continue
            if not ts.prom:
                self.fulfilled.add(nid)
                if records[sid].terminated:
                    self.finished.add(nid)
            if len(self._ids) >= self.fuel:
                self.edges[nid] = []
                self.complete = False
                continue
            successors: list[tuple[int, Optional[ThreadStep]]] = []
            for succ_sid, step in compiled.candidate_steps(
                sid, ts, memory, self.arch, self.tid
            ):
                if step.memory is memory:
                    succ_mem = mem_id
                elif step.kind == "write":
                    akey = (mem_id, step.loc, step.value, self.tid)
                    succ_mem = appends.get(akey)
                    if succ_mem is None:
                        succ_mem = self._memory_id(step.memory)
                        appends[akey] = succ_mem
                else:
                    succ_mem = self._memory_id(step.memory)
                succ, fresh = self._intern(succ_sid, step.tstate, succ_mem)
                successors.append((succ, step if step.kind == "write" else None))
                if fresh:
                    stack.append((succ, succ_sid, step.tstate, step.memory, succ_mem))
            self.edges[nid] = successors
        return root


def certified(
    stmt: Stmt,
    ts: TState,
    memory: Memory,
    arch: Arch,
    tid: TId,
    fuel: int = DEFAULT_FUEL,
) -> bool:
    """Is the thread configuration certified (rule r24)?

    A configuration with no outstanding promises is trivially certified;
    otherwise we search the thread's sequential executions for a state
    with an empty promise set.
    """
    if not ts.prom:
        return True
    graph = _SequentialGraph(arch, tid, fuel)
    root = graph.build(stmt, ts, memory)
    return root in graph.can_reach_fulfilled()


def find_and_certify(
    stmt: Stmt,
    ts: TState,
    memory: Memory,
    arch: Arch,
    tid: TId,
    fuel: int = DEFAULT_FUEL,
) -> CertificationResult:
    """Enumerate the certified promise steps of a thread (§B).

    The algorithm:

    1. enumerate the thread's sequential executions under the current
       memory (bounded by ``fuel``);
    2. keep only execution prefixes from which a promise-free state
       remains reachable;
    3. every normal write performed on such a prefix whose pre-view and
       coherence view (at its location, before the write) are at most the
       current maximal timestamp is a legal promise.
    """
    return _certify(stmt, ts, memory, arch, tid, fuel, want_can_complete=False)


def _certify(
    stmt: Stmt,
    ts: TState,
    memory: Memory,
    arch: Arch,
    tid: TId,
    fuel: int,
    *,
    want_can_complete: bool,
) -> CertificationResult:
    """Shared body of :func:`find_and_certify` / :func:`certify_thread`.

    ``want_can_complete`` additionally derives the fixed-memory
    completion answer from the same graph; it is opt-in so the uncached
    reference path (:func:`machine_transitions
    <repro.promising.machine.machine_transitions>` without a cache) does
    not pay for it.
    """
    fast = _certify_fastpath(stmt, ts)
    if fast is not None:
        return fast
    graph = _SequentialGraph(arch, tid, fuel)
    root = graph.build(stmt, ts, memory)
    good = graph.can_reach_fulfilled()
    return CertificationResult(
        certified=root in good,
        promises=_harvest_promises(graph, good, memory.last_timestamp, tid),
        complete=graph.complete,
        visited=graph.n_nodes,
        can_complete=(
            root in graph.can_reach_finished_locally() if want_can_complete else None
        ),
    )


def _harvest_promises(
    graph: _SequentialGraphBase, good: set[int], max_ts: int, tid: TId
) -> frozenset[Msg]:
    """Step 3 of §B: writes on certified prefixes whose views fit memory."""
    promises: set[Msg] = set()
    for src, succs in enumerate(graph.edges):
        if src not in good:
            continue
        for dst, step in succs or ():
            if step is None or dst not in good:
                continue
            if step.pre_view is None or step.coh_before is None:
                continue
            if step.pre_view <= max_ts and step.coh_before <= max_ts:
                promises.add(Msg(step.loc, step.value, tid))
    return frozenset(promises)


def certify_thread(
    stmt: Stmt,
    ts: TState,
    memory: Memory,
    arch: Arch,
    tid: TId,
    fuel: int = DEFAULT_FUEL,
) -> CertificationResult:
    """Answer every certification question from ONE sequential-graph build.

    The exhaustive explorer needs three answers per thread configuration:
    is it certified, which promises may it make next, and can it finish
    with memory fixed.  The seed implementation built the bounded
    sequential graph twice per configuration (:func:`find_and_certify`
    then :func:`can_complete_without_promising`); all three answers are
    derivable from the same graph, so this entry point builds it once and
    fills :attr:`CertificationResult.can_complete` alongside the §B
    promise harvest.

    On fuel truncation ``can_complete`` may be a stricter
    under-approximation than the dedicated search (the shared graph also
    spends fuel on write successors); both report ``complete=False`` in
    that case, which the explorer already surfaces as truncation.
    """
    return _certify(stmt, ts, memory, arch, tid, fuel, want_can_complete=True)


def _certify_fastpath(stmt: Stmt, ts: TState) -> Optional[CertificationResult]:
    """Terminated promise-free threads need no graph at all."""
    if not ts.prom and is_terminated(stmt):
        return _FASTPATH_RESULT
    return None


#: The (constant) fastpath answer, shared between both certify entries.
_FASTPATH_RESULT = CertificationResult(
    certified=True,
    promises=frozenset(),
    complete=True,
    visited=1,
    can_complete=True,
)


def certify_compiled(
    compiled,
    sid: int,
    ts: TState,
    memory: Memory,
    arch: Arch,
    tid: TId,
    fuel: int,
    mem_ids,
    mem_id=None,
    appends=None,
) -> CertificationResult:
    """:func:`certify_thread` over the compiled statement tables.

    ``compiled`` is a :class:`~repro.isa.compile.CompiledProgram`,
    ``sid`` the dense id of the thread's statement, and ``mem_ids`` an
    :class:`~repro.promising.intern.IdInterner` for memories (shared
    per exploration run by the packed backend).  ``mem_id`` is the
    already-interned id of ``memory`` when the caller knows it, and
    ``appends`` an optional shared append memo (see
    :class:`CompiledSequentialGraph`); both let the build run without
    hashing a single messages tuple.  Answers all three certification
    questions from one :class:`CompiledSequentialGraph` build, with the
    same results as the reference entry — only the node keys and step
    dispatch differ.
    """
    if not ts.prom and compiled.stmts[sid].terminated:
        return _FASTPATH_RESULT
    graph = CompiledSequentialGraph(compiled, arch, tid, fuel, mem_ids, appends)
    root = graph.build(sid, ts, memory, mem_id)
    good = graph.can_reach_fulfilled()
    return CertificationResult(
        certified=root in good,
        promises=_harvest_promises(graph, good, memory.last_timestamp, tid),
        complete=graph.complete,
        visited=graph.n_nodes,
        can_complete=root in graph.can_reach_finished_locally(),
    )


class CertificationCache:
    """Per-exploration memo for :func:`certify_thread`.

    ``find_and_certify`` dominates exploration profiles and is re-invoked
    with recurring arguments: the promise-first explorer asks both the
    "which promises" and the "can it finish" question of every thread at
    every frontier state, and the naive explorer certifies the same
    thread configuration across all interleavings that only move *other*
    threads.  The memo key is the full thread configuration — ``(tid,
    statement, thread-state key, memory key)`` — which is exactly the
    input the sequential graph depends on (``arch`` and ``fuel`` are
    fixed per cache, i.e. per exploration run).

    The cache is deliberately per-run, not module-global: a sweep over
    thousands of litmus jobs must not retain certification graphs across
    tests.  It is the object backend's certification route; the packed
    backend memoises :func:`certify_compiled` on its own integer keys.
    """

    __slots__ = ("arch", "fuel", "_memo", "hits", "calls")

    def __init__(self, arch: Arch, fuel: int = DEFAULT_FUEL) -> None:
        self.arch = arch
        self.fuel = fuel
        self._memo: dict[tuple, CertificationResult] = {}
        self.hits = 0
        self.calls = 0

    def certify(self, stmt: Stmt, ts: TState, memory: Memory, tid: TId) -> CertificationResult:
        key = (tid, stmt, ts.cache_key(), memory.cache_key())
        self.calls += 1
        result = self._memo.get(key)
        if result is not None:
            self.hits += 1
            return result
        result = certify_thread(stmt, ts, memory, self.arch, tid, self.fuel)
        self._memo[key] = result
        return result

    def __len__(self) -> int:
        return len(self._memo)


def can_complete_without_promising(
    stmt: Stmt,
    ts: TState,
    memory: Memory,
    arch: Arch,
    tid: TId,
    fuel: int = DEFAULT_FUEL,
) -> bool:
    """Can the thread terminate, fulfilling all promises, with memory fixed?

    Used by the exhaustive explorer to decide when promise-mode may end:
    every remaining step must be a non-promise step (no new messages), the
    statement must reduce to ``skip`` and the promise set must drain.
    """
    seen: set[tuple] = set()
    stack = [(stmt, ts)]
    visited = 0
    while stack:
        cur_stmt, cur_ts = stack.pop()
        key = (cur_stmt, cur_ts.cache_key())
        if key in seen:
            continue
        seen.add(key)
        visited += 1
        if visited > fuel:
            return False
        if is_terminated(cur_stmt) and not cur_ts.prom:
            return True
        for step in non_promise_steps(cur_stmt, cur_ts, memory, arch, tid):
            stack.append((step.stmt, step.tstate))
    return False


__all__ = [
    "DEFAULT_FUEL",
    "CertificationCache",
    "CertificationResult",
    "CompiledSequentialGraph",
    "certified",
    "certify_compiled",
    "certify_thread",
    "find_and_certify",
    "can_complete_without_promising",
]
