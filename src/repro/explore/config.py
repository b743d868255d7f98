"""Shared configuration base of every state-space explorer.

Historically each explorer grew its own config dataclass and the common
fields (architecture, loop bound, state budget, strategy) drifted into
triplicates.  :class:`BaseSearchConfig` is the single home for everything
the :class:`~repro.explore.kernel.SearchKernel` consumes; the concrete
explorer configs (:class:`~repro.promising.exhaustive.ExploreConfig`,
:class:`~repro.flat.explorer.FlatConfig`) extend it with model-specific
fields only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..lang.kinds import Arch

#: Strategy applied when a config does not name one.
DEFAULT_STRATEGY = "dfs"

#: Execution backends an explorer can run on.  ``"object"`` is the
#: reference backend (the historical dataclass-walking enumeration);
#: ``"packed"`` compiles the program once and represents machine states
#: as flat integer tuples.  The names live here (not in
#: :mod:`repro.backend`) so config/CLI/service layers can validate a
#: backend without importing the backend implementations.
BACKENDS = ("object", "packed")

#: Backend applied when a config does not name one: the production
#: path.  ``"object"`` stays selectable as the readable reference oracle
#: (``--backend object``).  This is the one declaration of the default;
#: the CLI and the service read it.  Harness cache fingerprints omit the
#: backend altogether (outcomes are backend-independent), so changing
#: this default invalidates no cached result.
DEFAULT_BACKEND = "packed"


@dataclass
class BaseSearchConfig:
    """Fields every kernel-driven explorer shares."""

    #: Architecture variant (ARM or RISC-V).
    arch: Arch = Arch.ARM
    #: Loop unrolling bound applied when the program contains loops.
    loop_bound: int = 2
    #: Cap on kernel-visited states (safety valve; exploration is reported
    #: as truncated when hit).  Concrete configs override the default.
    max_states: int = 1_000_000
    #: Wall-clock budget for one exploration, in seconds (``None`` =
    #: unbounded).  Measured with ``time.monotonic`` so NTP adjustments
    #: can never fire it early or late; hitting it marks the run truncated.
    deadline_seconds: Optional[float] = None
    #: Frontier discipline: ``"dfs"`` (default; exhaustive, with a
    #: visited set over the backend's state keys) or ``"sample"`` —
    #: seeded bounded random walks with restart, a sound
    #: under-approximation of the outcome set.
    strategy: str = DEFAULT_STRATEGY
    #: Number of random walks a ``sample`` run performs.
    samples: int = 256
    #: Step bound of one random walk before it restarts.
    sample_depth: int = 4096
    #: PRNG seed of a ``sample`` run (same seed ⇒ same outcome set).
    seed: int = 0
    #: Execution backend: ``"packed"`` (default; compiled program +
    #: integer-tuple states) or ``"object"`` (the reference oracle).
    #: Exhaustive runs produce identical outcome sets on either.
    backend: str = DEFAULT_BACKEND

    def for_arch(self, arch: Arch):
        # ``dataclasses.replace`` rather than a field-by-field copy, so a
        # config field added later is carried over instead of silently
        # reset to its default when the harness re-targets an arch.
        return dataclasses.replace(self, arch=arch)

    @property
    def exhaustive(self) -> bool:
        """Whether this configuration enumerates the full state space."""
        from .strategy import is_exhaustive

        return is_exhaustive(self.strategy)


__all__ = ["BACKENDS", "BaseSearchConfig", "DEFAULT_BACKEND", "DEFAULT_STRATEGY"]
