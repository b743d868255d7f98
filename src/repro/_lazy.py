"""Lazy package re-exports (PEP 562 module ``__getattr__``).

A package ``__init__`` that re-exports its submodules' public names makes
``import repro.<pkg>.<anything>`` pay for every submodule, which a cold
``promising-arm run`` (one litmus test per process) cannot afford.  A
package instead declares one table of submodule → exported names;
:func:`lazy_exports` derives ``__all__`` from it and returns the
``__getattr__``/``__dir__`` pair that imports a submodule the first time
one of its names is read, then caches the value on the package.  A plain
module can use the same pair for attributes it must expose but rarely
needs (:mod:`repro.harness.jobs` and the reference explorers).
"""

from __future__ import annotations

import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    module_name: str, table: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``module_name`` from ``table``.

    ``table`` maps a relative module (``".jobs"``, resolved against the
    module's package like a ``from .jobs import ...`` statement) to the
    names re-exported from it, in ``__all__`` order.
    """
    owner = {name: source for source, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        source = owner.get(name)
        if source is None:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        target = sys.modules[module_name]
        relative = source.lstrip(".")
        # ``__import__`` is what ``from <source> import <name>`` compiles
        # to; unlike ``importlib.import_module`` it is traced by ``python
        # -X importtime``, which is how each submodule's cost is read.
        module = __import__(relative, vars(target), None, (name,), len(source) - len(relative))
        value = getattr(module, name)
        setattr(target, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[module_name])) | set(owner))

    return list(owner), __getattr__, __dir__
