"""Dense-id interning for the packed execution backend.

The packed backend (:mod:`repro.backend.packed`) replaces deep state
snapshots — thread configurations, memories, register files — with
small integers, so its visited sets and memo tables key on tuples of
ids.  An :class:`IdInterner` is created per exploration run (not
module-global) so a long sweep over thousands of litmus jobs never
accumulates keys across tests; its counters feed the ``intern_hits`` /
``interned_keys`` fields of
:class:`~repro.promising.exhaustive.ExplorationStats`.
"""

from __future__ import annotations

from typing import Hashable


class IdInterner:
    """Maps hashable keys to *dense integer ids* with a side table of
    canonical decoded objects.

    Downstream visited/memo tables key on tuples of these ids, whose
    ``cache_key()`` is the identity function.  ``objects[id]`` holds the
    object supplied at first intern — the canonical decoded form the
    backend hands back to the reference step functions.
    """

    __slots__ = ("_ids", "objects", "hits")

    def __init__(self) -> None:
        self._ids: dict = {}
        self.objects: list = []
        self.hits: int = 0

    def intern(self, key: Hashable, obj) -> int:
        """Return the dense id of ``key``, registering ``obj`` if new."""
        nid = self._ids.get(key)
        if nid is not None:
            self.hits += 1
            return nid
        nid = len(self.objects)
        self._ids[key] = nid
        self.objects.append(obj)
        return nid

    @property
    def unique(self) -> int:
        """Number of distinct keys seen."""
        return len(self.objects)

    def __len__(self) -> int:
        return len(self.objects)


__all__ = ["IdInterner"]
