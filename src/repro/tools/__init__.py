"""Command-line interface and model-comparison utilities.

Public names resolve on first use (see :mod:`repro._lazy`): the CLI never
loads the comparison layer, which pulls in every model and the pool.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".compare": ("ModelComparison", "compare_models", "observables"),
        ".cli": ("build_parser", "main"),
    },
)
