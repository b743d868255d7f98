"""The one bounds rule behind every option, and the declaration of options.

Every CLI flag, service request option and ``ServiceConfig`` field is
checked by a :class:`Bound`; a miss raises :class:`BoundsError`, which the
CLI maps to argparse's exit 2 and the service to a 400.  :func:`option`
declares a dataclass field once, with its default, bound and help as
field metadata.  Stdlib only, so the cold CLI path pays nothing for it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional


class BoundsError(ValueError):
    """A value of the wrong type, or outside its declared bound."""


@dataclass(frozen=True)
class Bound:
    """``kind`` values in ``[low, high]`` (``(low, high]`` with ``open_low``), or in ``choices``.

    ``None`` leaves a side open.  A ``bool`` is never a number (a JSON
    ``true`` would pass as 1), a float must be finite, an int an int.
    """

    kind: type = int
    low: Optional[float] = None
    high: Optional[float] = None
    open_low: bool = False
    choices: tuple = ()

    def capped(self, high: float) -> "Bound":
        return dataclasses.replace(self, high=high)

    def describe(self) -> str:
        if self.choices:
            return f"one of {', '.join(self.choices)}"
        if self.kind is bool:
            return "a boolean"
        noun = "an int" if self.kind is int else "a number"
        if self.high is None:
            above = f" {'>' if self.open_low else '>='} {self.low}"
            return noun + ("" if self.low is None else above)
        if self.kind is int:
            return f"{noun} in {self.low}..{self.high}"
        return f"{noun} in {'(' if self.open_low else '['}{self.low}, {self.high}]"

    def check(self, value: object, name: Optional[str] = None):
        """``value`` as ``kind`` if it lies within the bound, else :class:`BoundsError`."""
        if self.choices:
            ok = isinstance(value, str) and value in self.choices
        elif self.kind is bool:
            ok = isinstance(value, bool)
        else:
            ok = (
                isinstance(value, (int, float) if self.kind is float else int)
                and not isinstance(value, bool)
                and (self.kind is int or math.isfinite(value))
                and (self.low is None or (value > self.low if self.open_low else value >= self.low))
                and (self.high is None or value <= self.high)
            )
        if not ok:
            subject = "value" if name is None else f"'{name}'"
            raise BoundsError(f"{subject} must be {self.describe()}, got {value!r}")
        return self.kind(value)


POSITIVE_INT = Bound(int, 1)
NON_NEGATIVE_INT = Bound(int, 0)
POSITIVE_NUMBER = Bound(float, 0, open_low=True)
NON_NEGATIVE_NUMBER = Bound(float, 0)
BOOLEAN = Bound(bool)


def option(default, bound: Bound, *, help: str = "", flag: bool = False):
    """A dataclass field declaring its default, bound, help and (``flag``) a CLI flag."""
    metadata = {"bound": bound, "help": help, "flag": flag}
    return dataclasses.field(default=default, metadata=metadata)


def declared(cls) -> tuple[dataclasses.Field, ...]:
    """The :func:`option` fields of dataclass ``cls``, in declaration order."""
    return tuple(f for f in dataclasses.fields(cls) if "bound" in f.metadata)


__all__ = [
    "BOOLEAN",
    "Bound",
    "BoundsError",
    "NON_NEGATIVE_INT",
    "NON_NEGATIVE_NUMBER",
    "POSITIVE_INT",
    "POSITIVE_NUMBER",
    "declared",
    "option",
]
