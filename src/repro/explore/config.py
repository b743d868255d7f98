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

from ..bounds import POSITIVE_INT, POSITIVE_NUMBER, Bound, declared, option
from ..lang.kinds import Arch

#: Frontier disciplines, implemented in :mod:`repro.explore.strategy`.
STRATEGIES = ("dfs", "sample")

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
    """Fields every kernel-driven explorer shares; each search option is
    declared here once, with its default, bound and help (:data:`SEARCH_OPTIONS`)."""

    #: Architecture variant (ARM or RISC-V).
    arch: Arch = Arch.ARM
    loop_bound: int = option(2, POSITIVE_INT, flag=True, help="loop unrolling bound")
    #: Hitting it truncates the run; concrete configs override the default.
    max_states: int = option(1_000_000, POSITIVE_INT, help="cap on visited states")
    #: Hitting it truncates the run; ``time.monotonic``, so NTP never fires it early.
    deadline_seconds: Optional[float] = option(None, POSITIVE_NUMBER, help="budget in seconds")
    strategy: str = option(
        DEFAULT_STRATEGY,
        Bound(str, choices=STRATEGIES),
        flag=True,
        help="dfs enumerates exhaustively; sample runs seeded bounded random walks, "
        "a sound under-approximation for huge state spaces",
    )
    samples: int = option(256, POSITIVE_INT, flag=True, help="random walks of a sample run")
    sample_depth: int = option(
        4096, POSITIVE_INT, flag=True, help="step bound of one random walk before it restarts"
    )
    seed: int = option(
        0, Bound(int), flag=True, help="PRNG seed of a sample run (same seed, same outcomes)"
    )
    backend: str = option(
        DEFAULT_BACKEND,
        Bound(str, choices=BACKENDS),
        flag=True,
        help="packed compiles the program once and explores integer-tuple states; "
        "object walks the reference dataclass states (same outcomes, slower)",
    )

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


#: The declared search options (dataclass fields): each is a service
#: request option and, where its ``flag`` metadata is set, a CLI flag.
SEARCH_OPTIONS = declared(BaseSearchConfig)


__all__ = [
    "BACKENDS",
    "BaseSearchConfig",
    "DEFAULT_BACKEND",
    "DEFAULT_STRATEGY",
    "SEARCH_OPTIONS",
    "STRATEGIES",
]
