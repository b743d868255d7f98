"""Per-thread pre-executions: program-order event streams with dependencies.

The axiomatic model works on *candidate executions*: a control-flow
unfolding of each thread with concrete values for every read, together
with the witness relations rf/co/rmw.  This module enumerates the
per-thread part — the possible event streams — by executing a thread's
statement and branching on the value returned by each load.

Loads draw their values from a per-location *value domain*.  The domain is
inferred by :func:`infer_value_domains` as a fixpoint: start from the
initial values, run all threads, collect the values written, and repeat
until no new value appears.  The resulting domains over-approximate the
values reads can observe; infeasible choices are discarded later when no
write can justify them under ``rf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from ..explore.config import BaseSearchConfig
from ..lang.ast import (
    Assign,
    Fence,
    If,
    Isb,
    Load,
    Seq,
    Skip,
    Stmt,
    Store,
    While,
)
from ..lang.expr import BinOp, Const, Expr, OPERATORS, RegE, Reg, Value
from ..lang.kinds import VFAIL, VSUCC
from ..lang.program import Loc, Program, TId
from ..lang.transform import unroll_loops
from ..lang import has_loops
from .events import Event, EventId

#: Per-location sets of values a read may observe.
ValueDomains = Mapping[Loc, frozenset[Value]]


@dataclass(frozen=True)
class PreExecution:
    """One control-flow unfolding of a thread with concrete read values."""

    tid: TId
    events: tuple[Event, ...]
    final_regs: tuple[tuple[Reg, Value], ...]

    def reads(self) -> list[Event]:
        return [e for e in self.events if e.is_read]

    def writes(self) -> list[Event]:
        return [e for e in self.events if e.is_write]

    def final_register_values(self) -> dict[Reg, Value]:
        return dict(self.final_regs)


@dataclass
class _ThreadEnv:
    """Mutable interpreter state threaded through the enumeration."""

    tid: TId
    regs: dict[Reg, tuple[Value, frozenset[EventId]]]
    ctrl: frozenset[EventId]
    events: list[Event]
    next_index: int
    #: Most recent load exclusive not yet consumed by a store exclusive.
    pending_lr: Optional[EventId]

    def copy(self) -> "_ThreadEnv":
        return _ThreadEnv(
            self.tid,
            dict(self.regs),
            self.ctrl,
            list(self.events),
            self.next_index,
            self.pending_lr,
        )

    def fresh_eid(self) -> EventId:
        eid = (self.tid, self.next_index)
        self.next_index += 1
        return eid

    def eval(self, expr: Expr) -> tuple[Value, frozenset[EventId]]:
        """Evaluate an expression to a value and the reads it depends on."""
        if isinstance(expr, Const):
            return expr.value, frozenset()
        if isinstance(expr, RegE):
            return self.regs.get(expr.reg, (0, frozenset()))
        if isinstance(expr, BinOp):
            v1, d1 = self.eval(expr.left)
            v2, d2 = self.eval(expr.right)
            return OPERATORS[expr.op](v1, v2), d1 | d2
        raise TypeError(f"not an expression: {expr!r}")


class TooManyPreExecutions(Exception):
    """Raised when a thread's unfolding exceeds the configured bound."""


def _domain_for(domains: ValueDomains, loc: Loc, initial: Mapping[Loc, Value]) -> frozenset[Value]:
    base = domains.get(loc, frozenset())
    return base | frozenset((initial.get(loc, 0),))


def _run(
    stmt: Stmt,
    env: _ThreadEnv,
    domains: ValueDomains,
    initial: Mapping[Loc, Value],
    budget: list[int],
) -> Iterator[_ThreadEnv]:
    """Yield the interpreter states after executing ``stmt`` from ``env``."""
    if budget[0] <= 0:
        raise TooManyPreExecutions()
    if isinstance(stmt, Skip):
        yield env
        return
    if isinstance(stmt, Seq):
        for mid in _run(stmt.first, env, domains, initial, budget):
            yield from _run(stmt.second, mid, domains, initial, budget)
        return
    if isinstance(stmt, Assign):
        new = env.copy()
        new.regs[stmt.reg] = new.eval(stmt.expr)
        yield new
        return
    if isinstance(stmt, If):
        value, deps = env.eval(stmt.cond)
        new = env.copy()
        new.ctrl = env.ctrl | deps
        branch = stmt.then if value != 0 else stmt.orelse
        yield from _run(branch, new, domains, initial, budget)
        return
    if isinstance(stmt, While):
        raise ValueError("loops must be unrolled before pre-execution enumeration")
    if isinstance(stmt, Fence):
        new = env.copy()
        eid = new.fresh_eid()
        new.events.append(
            Event(
                eid=eid,
                tid=env.tid,
                kind="F",
                fence_before=stmt.before,
                fence_after=stmt.after,
                ctrl_deps=env.ctrl,
            )
        )
        yield new
        return
    if isinstance(stmt, Isb):
        new = env.copy()
        eid = new.fresh_eid()
        new.events.append(Event(eid=eid, tid=env.tid, kind="ISB", ctrl_deps=env.ctrl))
        yield new
        return
    if isinstance(stmt, Load):
        loc, addr_deps = env.eval(stmt.addr)
        for value in sorted(_domain_for(domains, loc, initial)):
            budget[0] -= 1
            if budget[0] <= 0:
                raise TooManyPreExecutions()
            new = env.copy()
            eid = new.fresh_eid()
            new.events.append(
                Event(
                    eid=eid,
                    tid=env.tid,
                    kind="R",
                    loc=loc,
                    val=value,
                    rkind=stmt.kind,
                    exclusive=stmt.exclusive,
                    addr_deps=addr_deps,
                    ctrl_deps=env.ctrl,
                )
            )
            new.regs[stmt.reg] = (value, frozenset((eid,)))
            if stmt.exclusive:
                new.pending_lr = eid
            yield new
        return
    if isinstance(stmt, Store):
        loc, addr_deps = env.eval(stmt.addr)
        value, data_deps = env.eval(stmt.data)
        if stmt.exclusive:
            # Branch 1: the store exclusive fails — no write event.
            fail = env.copy()
            if stmt.succ_reg is not None:
                fail.regs[stmt.succ_reg] = (VFAIL, frozenset())
            fail.pending_lr = None
            yield fail
            # Branch 2: it succeeds, provided a load exclusive is pending.
            if env.pending_lr is not None:
                ok = env.copy()
                eid = ok.fresh_eid()
                ok.events.append(
                    Event(
                        eid=eid,
                        tid=env.tid,
                        kind="W",
                        loc=loc,
                        val=value,
                        wkind=stmt.kind,
                        exclusive=True,
                        addr_deps=addr_deps,
                        data_deps=data_deps,
                        ctrl_deps=env.ctrl,
                        rmw_partner=env.pending_lr,
                    )
                )
                if stmt.succ_reg is not None:
                    ok.regs[stmt.succ_reg] = (VSUCC, frozenset())
                ok.pending_lr = None
                yield ok
            return
        new = env.copy()
        eid = new.fresh_eid()
        new.events.append(
            Event(
                eid=eid,
                tid=env.tid,
                kind="W",
                loc=loc,
                val=value,
                wkind=stmt.kind,
                exclusive=False,
                addr_deps=addr_deps,
                data_deps=data_deps,
                ctrl_deps=env.ctrl,
            )
        )
        yield new
        return
    raise TypeError(f"cannot pre-execute statement {stmt!r}")


def enumerate_preexecutions(
    stmt: Stmt,
    tid: TId,
    domains: ValueDomains,
    initial: Mapping[Loc, Value],
    loop_bound: int = BaseSearchConfig.loop_bound,
    max_states: int = 100_000,
) -> list[PreExecution]:
    """Enumerate the pre-executions of one thread.

    Raises :class:`TooManyPreExecutions` when the unfolding exceeds
    ``max_states`` interpreter states.
    """
    if has_loops(stmt):
        stmt = unroll_loops(stmt, loop_bound)
    env = _ThreadEnv(tid, {}, frozenset(), [], 0, None)
    budget = [max_states]
    result = []
    for final in _run(stmt, env, domains, initial, budget):
        regs = tuple(sorted((r, v) for r, (v, _deps) in final.regs.items()))
        result.append(PreExecution(tid, tuple(final.events), regs))
    return result


def infer_value_domains(
    program: Program,
    loop_bound: int = BaseSearchConfig.loop_bound,
    max_iterations: int = 4,
    max_states: int = 100_000,
) -> dict[Loc, frozenset[Value]]:
    """Fixpoint inference of the per-location read-value domains.

    Iteration 0 seeds each location with its initial value; each round
    re-enumerates the threads' pre-executions under the current domains and
    adds every written (location, value) pair.  The fixpoint is reached
    quickly for litmus-style programs (values are constants or copied).
    """
    domains: dict[Loc, set[Value]] = {
        loc: {val} for loc, val in program.initial.items()
    }
    for _ in range(max_iterations):
        changed = False
        frozen = {loc: frozenset(vals) for loc, vals in domains.items()}
        for tid, stmt in enumerate(program.threads):
            try:
                pre_execs = enumerate_preexecutions(
                    stmt, tid, frozen, program.initial, loop_bound, max_states
                )
            except TooManyPreExecutions:
                continue
            for pre in pre_execs:
                for event in pre.writes():
                    bucket = domains.setdefault(event.loc, set())
                    if event.val not in bucket:
                        bucket.add(event.val)
                        changed = True
        if not changed:
            break
    return {loc: frozenset(vals) for loc, vals in domains.items()}


__all__ = [
    "PreExecution",
    "ValueDomains",
    "TooManyPreExecutions",
    "enumerate_preexecutions",
    "infer_value_domains",
]
