"""Unified exploration kernel with pluggable search strategies.

One :class:`SearchKernel` owns what every explorer used to hand-roll —
frontier, visited sets, state/wall-clock budgets, truncation
accounting, and a shared stats vocabulary — parameterised by a
transition-enumeration callback and a :class:`Strategy`:

* ``dfs`` — exhaustive enumeration, pruned by a visited set;
* ``sample`` — seeded bounded random walks with restart, producing a
  sound under-approximation of the outcome set on state spaces that
  exhaustive search cannot touch.

The promising explorers (:mod:`repro.promising.exhaustive`) and the
Flat explorer (:mod:`repro.flat.explorer`) are built on this kernel;
their configs extend :class:`BaseSearchConfig`.  State representation is
delegated to a pluggable execution backend (:mod:`repro.backend`,
selected by ``config.backend`` from :data:`BACKENDS`); the kernel only
ever sees opaque packed states and the backend's ``key``.
"""

from .config import BACKENDS, BaseSearchConfig, DEFAULT_BACKEND, DEFAULT_STRATEGY
from .kernel import KernelStats, SearchKernel, SearchStats
from .strategy import (
    STRATEGIES,
    DepthFirst,
    RandomWalks,
    Strategy,
    is_exhaustive,
    make_strategy,
    strategy_for,
)

__all__ = [
    "BACKENDS",
    "BaseSearchConfig",
    "DEFAULT_BACKEND",
    "DEFAULT_STRATEGY",
    "KernelStats",
    "SearchKernel",
    "SearchStats",
    "STRATEGIES",
    "Strategy",
    "DepthFirst",
    "RandomWalks",
    "is_exhaustive",
    "make_strategy",
    "strategy_for",
]
