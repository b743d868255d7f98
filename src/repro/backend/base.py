"""The execution-backend seam of the exploration stack.

An *execution backend* owns the state representation of one exploration
run: how machine states are encoded for the search kernel, how successor
states are produced, and what identity the visited/memo tables key on.
The explorers (:func:`~repro.promising.exhaustive.explore`,
:func:`~repro.promising.exhaustive.explore_naive`,
:func:`~repro.flat.explorer.explore_flat`) keep the *drive* logic —
what to do with a popped state — and delegate every state-representation
question to the backend, so the same search produces the same outcome
set on any conforming backend.

Two backends conform today:

``object``
    The reference backend (:mod:`repro.backend.object`): states are the
    ``MachineState``/``FlatState`` dataclass graphs, keyed by their
    ``cache_key()`` snapshot tuples: the paper's rules walked plainly.

``packed``
    The compiled backend (:mod:`repro.backend.packed`): the program is
    compiled once per job (:mod:`repro.isa.compile`), thread
    configurations and memories are interned to dense integer ids, and a
    machine state is a flat tuple of ints whose ``key`` is the identity
    function.  Step computation runs the *same* reference step functions,
    but once per distinct ``(thread, thread-config, memory)`` triple
    instead of once per visit, then replays memoised integer results.

Backend names are validated against
:data:`~repro.explore.config.BACKENDS` (defined next to the config
dataclass so CLI/service layers need not import the implementations).
"""

from __future__ import annotations

from typing import Hashable, Protocol, runtime_checkable

from ..explore.config import BACKENDS, DEFAULT_BACKEND
from ..obs import metrics

#: Wall time per explorer phase, shared by both promising backends (the
#: registry returns the one counter for the name, so this is the same
#: series the pre-seam explorer exported).
EXPLORE_PHASE_SECONDS = metrics.counter(
    "explore_phase_seconds_total",
    "Wall time spent per explorer phase (certify/enumerate/intern).",
    labels=("model", "phase"),
)


@runtime_checkable
class ExecutionBackend(Protocol):
    """The minimal protocol every execution backend satisfies.

    ``encode``/``decode`` are inverse up to state equality (the
    round-trip law the conformance tests assert); ``key`` is the
    visited-set identity — states are equal iff their keys are; and
    ``successors`` enumerates the packed successor states of a packed
    state.  Concrete explorers use richer model-specific methods
    (certification, completion enumeration, outcome extraction) carried
    by the same backend objects.
    """

    name: str

    def encode(self, state) -> object: ...

    def decode(self, packed) -> object: ...

    def successors(self, packed) -> list: ...

    def key(self, packed) -> Hashable: ...


def validate_backend(name: str) -> str:
    """Return ``name`` if it names a known backend, else raise ValueError."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {name!r}; choose from {', '.join(BACKENDS)}"
        )
    return name


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "EXPLORE_PHASE_SECONDS",
    "ExecutionBackend",
    "validate_backend",
]
