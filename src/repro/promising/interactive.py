"""Interactive exploration: step through model-allowed executions (§7, §8).

The paper's tool (integrated in rmem) lets the user step through an
execution transition by transition to pin down the source of an unexpected
behaviour.  :class:`InteractiveSession` provides the same workflow as a
Python API / REPL object:

>>> session = InteractiveSession(program, Arch.ARM)
>>> session.show()                # current state and enabled transitions
>>> session.step(0)               # take transition number 0
>>> session.undo()                # go back one step
>>> session.run_trace([2, 0, 1])  # replay a trace

A *witness trace* produced by :func:`find_witness` can be replayed to
demonstrate how a particular (often buggy) outcome arises — this is the
"witnessing trace" workflow of the Michael–Scott queue case study in §8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..explore.config import BaseSearchConfig
from ..lang.kinds import Arch
from ..lang.program import Program
from ..lang.transform import unroll_program
from ..lang import has_loops
from ..outcomes import Outcome
from .certification import DEFAULT_FUEL
from .machine import MachineState, MachineTransition, machine_transitions


@dataclass
class TraceEntry:
    """One entry of an execution trace: the transition taken and its index."""

    index: int
    transition: MachineTransition

    def __repr__(self) -> str:
        return f"[{self.index}] {self.transition.description}"


class InteractiveSession:
    """Step through executions of the promising machine interactively."""

    def __init__(
        self,
        program: Program,
        arch: Arch = Arch.ARM,
        loop_bound: int = BaseSearchConfig.loop_bound,
        cert_fuel: int = DEFAULT_FUEL,
    ) -> None:
        prepared = program
        if any(has_loops(t) for t in program.threads):
            prepared = unroll_program(program, loop_bound)
        self.program = prepared
        self.arch = arch
        self.cert_fuel = cert_fuel
        self._history: list[tuple[MachineState, TraceEntry]] = []
        self.state = MachineState.initial(prepared, arch)
        self._enabled: Optional[list[MachineTransition]] = None

    # -- inspection ---------------------------------------------------------
    @property
    def enabled(self) -> list[MachineTransition]:
        """Transitions enabled in the current state (computed lazily)."""
        if self._enabled is None:
            self._enabled = machine_transitions(self.state, self.cert_fuel)
        return self._enabled

    @property
    def finished(self) -> bool:
        return self.state.is_final

    @property
    def stuck(self) -> bool:
        """No transition enabled but the execution is not final (deadlock)."""
        return not self.enabled and not self.finished

    @property
    def trace(self) -> list[TraceEntry]:
        return [entry for _state, entry in self._history]

    def show(self) -> str:
        """Render the current state and the menu of enabled transitions."""
        lines = [self.state.describe(), ""]
        if self.finished:
            lines.append("execution finished")
            lines.append(f"outcome: {self.outcome().describe(self.program.loc_names)}")
        elif self.stuck:
            lines.append("execution is stuck (unfulfilled promises)")
        else:
            lines.append("enabled transitions:")
            for i, transition in enumerate(self.enabled):
                lines.append(f"  [{i}] {transition.description}")
        return "\n".join(lines)

    def outcome(self) -> Outcome:
        if not self.finished:
            raise RuntimeError("execution has not finished")
        return self.state.outcome()

    # -- stepping -----------------------------------------------------------
    def step(self, index: int) -> MachineTransition:
        """Take the enabled transition number ``index``."""
        transitions = self.enabled
        if not 0 <= index < len(transitions):
            raise IndexError(f"transition index {index} out of range (0..{len(transitions) - 1})")
        transition = transitions[index]
        self._history.append((self.state, TraceEntry(index, transition)))
        self.state = transition.state
        self._enabled = None
        return transition

    def undo(self) -> None:
        """Return to the state before the last :meth:`step`."""
        if not self._history:
            raise RuntimeError("nothing to undo")
        self.state, _entry = self._history.pop()
        self._enabled = None

    def reset(self) -> None:
        """Return to the initial state."""
        self._history.clear()
        self.state = MachineState.initial(self.program, self.arch)
        self._enabled = None

    def run_trace(self, indices: Sequence[int]) -> None:
        """Replay a trace given as a sequence of transition indices."""
        for index in indices:
            self.step(index)

    def run_until(self, predicate: Callable[[MachineState], bool], max_steps: int = 10_000) -> bool:
        """Greedily take the first enabled transition until ``predicate`` holds."""
        for _ in range(max_steps):
            if predicate(self.state):
                return True
            if not self.enabled:
                return False
            self.step(0)
        return False


def find_witness(
    program: Program,
    predicate: Callable[[Outcome], bool],
    arch: Arch = Arch.ARM,
    loop_bound: int = BaseSearchConfig.loop_bound,
    cert_fuel: int = DEFAULT_FUEL,
    max_states: int = 200_000,
) -> Optional[list[TraceEntry]]:
    """Search for a machine trace whose final outcome satisfies ``predicate``.

    Returns the trace as a list of :class:`TraceEntry` (replayable through
    :meth:`InteractiveSession.run_trace` via their indices), or ``None`` if
    no such execution exists within the search bounds.
    """
    prepared = program
    if any(has_loops(t) for t in program.threads):
        prepared = unroll_program(program, loop_bound)
    initial = MachineState.initial(prepared, arch)
    visited = {initial.key()}
    stack: list[tuple[MachineState, list[TraceEntry]]] = [(initial, [])]
    states = 0
    while stack:
        state, trace = stack.pop()
        states += 1
        if states > max_states:
            return None
        if state.is_final and predicate(state.outcome()):
            return trace
        for index, transition in enumerate(machine_transitions(state, cert_fuel)):
            key = transition.state.key()
            if key in visited:
                continue
            visited.add(key)
            stack.append((transition.state, trace + [TraceEntry(index, transition)]))
    return None


__all__ = ["InteractiveSession", "TraceEntry", "find_witness"]
