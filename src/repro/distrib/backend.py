"""Pluggable leased work-queue backends.

A :class:`WorkBackend` is the shared ledger a fleet of stateless workers
coordinates through: the coordinator enqueues fingerprinted work items,
workers *claim* one item at a time under a lease, extend the lease from
their heartbeat while the job runs, and *complete* (or *fail*) it when
done.  A worker that dies mid-job simply stops extending its lease; once
the lease expires, :meth:`WorkBackend.requeue_expired` returns the item
to the pending pool and another worker picks it up.

Completion is exactly-once by construction: every claim carries a
monotonically increasing *token*, and ``complete``/``fail``/``extend``
only succeed for the worker currently holding the item under that token.
A reclaimed item re-claimed by anyone — including the original worker —
gets a fresh token, so a zombie's late ``complete`` is always rejected.

Two implementations ship here and in :mod:`repro.distrib.sqlite`:

* :class:`MemoryBackend` — in-process, for unit tests and the law suite;
* :class:`~repro.distrib.sqlite.SqliteBackend` — one SQLite file in WAL
  mode, safe across processes and across machines on a shared
  filesystem (the litmus7-style "farm the battery over the lab" shape).

Both are driven through the same :func:`open_backend` URL scheme:
``memory://<name>`` and ``sqlite:///path/to/queue.db`` (a bare
filesystem path also means SQLite).  A third implementation,
:class:`~repro.distrib.http_backend.HttpWorkBackend`, speaks the same
protocol to a ``promising-arm serve`` instance over ``http://host:port``
— a fleet with no shared filesystem at all.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Protocol, Union, runtime_checkable

from ..bounds import POSITIVE_INT
from ..obs import metrics

#: Lifecycle of a work item.
STATUS_PENDING = "pending"
STATUS_LEASED = "leased"
STATUS_DONE = "done"
STATUS_FAILED = "failed"
ITEM_STATUSES = (STATUS_PENDING, STATUS_LEASED, STATUS_DONE, STATUS_FAILED)

#: Claims a single item may consume (initial execution + reclaims) before
#: the backend marks it failed instead of requeueing it again.
DEFAULT_MAX_ATTEMPTS = 5

QUEUE_ENQUEUED = metrics.counter(
    "distrib_enqueued_total", "Work items enqueued onto a distributed backend."
)
QUEUE_CLAIMS = metrics.counter(
    "distrib_leases_claimed_total", "Leases granted to workers by a distributed backend."
)
QUEUE_COMPLETED = metrics.counter(
    "distrib_completed_total",
    "Work items completed on a distributed backend, by serving mode.",
    labels=("mode",),
)
QUEUE_RECLAIMS = metrics.counter(
    "distrib_lease_reclaims_total",
    "Expired leases requeued after their worker stopped heartbeating.",
)
QUEUE_FAILED = metrics.counter("distrib_failed_total", "Work items marked terminally failed.")
QUEUE_DEPTH = metrics.gauge(
    "distrib_queue_depth", "Pending + leased items on the most recently polled backend."
)


@dataclass(frozen=True)
class Claim:
    """One granted lease: the item, its payload, and the fencing token."""

    item_id: str
    payload: bytes
    token: int
    attempts: int
    enqueued_at: float


@dataclass(frozen=True)
class ItemView:
    """Read-only snapshot of one work item (coordinator polling)."""

    item_id: str
    status: str
    worker: Optional[str]
    attempts: int
    result: Optional[bytes]
    error: str
    served_from: str = ""


@dataclass(frozen=True)
class WorkerInfo:
    """Registration row of one fleet worker."""

    worker_id: str
    registered_at: float
    heartbeat_at: float
    jobs_done: int
    meta: Mapping = field(default_factory=dict)


@runtime_checkable
class WorkBackend(Protocol):
    """The lease ledger every queue implementation must provide.

    All mutating calls are atomic with respect to concurrent claimants;
    ``claim``/``extend``/``complete``/``fail`` implement the fencing-token
    laws exercised by ``tests/test_distrib.py`` identically across
    implementations.
    """

    def enqueue(self, item_id: str, payload: bytes) -> bool:
        """Add an item; ``False`` if ``item_id`` is already present (dedup)."""
        ...

    def claim(self, worker_id: str, lease_seconds: float) -> Optional[Claim]:
        """Atomically lease the oldest pending item, or ``None`` if idle."""
        ...

    def extend(self, item_id: str, worker_id: str, token: int, lease_seconds: float) -> bool:
        """Prolong a held lease (heartbeat); ``False`` if no longer held."""
        ...

    def complete(
        self, item_id: str, worker_id: str, token: int, result: bytes, *, mode: str = "computed"
    ) -> bool:
        """Finish a held item exactly once; ``False`` if the lease was lost."""
        ...

    def fail(
        self, item_id: str, worker_id: str, token: int, error: str, *, requeue: bool = True
    ) -> bool:
        """Record a failure; requeues while attempts remain, else fails it."""
        ...

    def requeue_expired(self) -> list[str]:
        """Return expired leases to the pending pool (stale-worker reclaim)."""
        ...

    def counts(self) -> dict[str, int]:
        """Item counts by status (every status present, zero included)."""
        ...

    def collect(self, item_ids: Iterable[str]) -> dict[str, ItemView]:
        """Terminal (done/failed) snapshots for the requested ids."""
        ...

    def register_worker(self, worker_id: str, meta: Optional[Mapping] = None) -> None: ...

    def heartbeat(self, worker_id: str) -> None: ...

    def workers(self) -> list[WorkerInfo]: ...

    def close(self) -> None: ...


class MemoryBackend:
    """In-process reference implementation of the lease ledger.

    Thread-safe (one lock around the ledger) so concurrent-claimant laws
    can be tested without a filesystem; naturally process-local, which is
    exactly what unit tests want and fleet deployments must not use.
    """

    def __init__(
        self,
        *,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.max_attempts = POSITIVE_INT.check(max_attempts, "max_attempts")
        self.clock = clock
        self._lock = threading.Lock()
        self._items: dict[str, dict] = {}
        self._order: list[str] = []
        self._workers: dict[str, dict] = {}

    # -- queue ---------------------------------------------------------------
    def enqueue(self, item_id: str, payload: bytes) -> bool:
        with self._lock:
            if item_id in self._items:
                return False
            self._items[item_id] = {
                "payload": bytes(payload),
                "status": STATUS_PENDING,
                "worker": None,
                "token": 0,
                "attempts": 0,
                "enqueued_at": self.clock(),
                "lease_expires": None,
                "result": None,
                "error": "",
                "served_from": "",
            }
            self._order.append(item_id)
        QUEUE_ENQUEUED.inc()
        return True

    def claim(self, worker_id: str, lease_seconds: float) -> Optional[Claim]:
        with self._lock:
            for item_id in self._order:
                item = self._items[item_id]
                if item["status"] != STATUS_PENDING:
                    continue
                item["status"] = STATUS_LEASED
                item["worker"] = worker_id
                item["token"] += 1
                item["attempts"] += 1
                item["lease_expires"] = self.clock() + lease_seconds
                QUEUE_CLAIMS.inc()
                return Claim(
                    item_id=item_id,
                    payload=item["payload"],
                    token=item["token"],
                    attempts=item["attempts"],
                    enqueued_at=item["enqueued_at"],
                )
        return None

    def _held(self, item_id: str, worker_id: str, token: int) -> Optional[dict]:
        item = self._items.get(item_id)
        if (
            item is None
            or item["status"] != STATUS_LEASED
            or item["worker"] != worker_id
            or item["token"] != token
        ):
            return None
        return item

    def extend(self, item_id: str, worker_id: str, token: int, lease_seconds: float) -> bool:
        with self._lock:
            item = self._held(item_id, worker_id, token)
            if item is None:
                return False
            item["lease_expires"] = self.clock() + lease_seconds
            return True

    def complete(
        self, item_id: str, worker_id: str, token: int, result: bytes, *, mode: str = "computed"
    ) -> bool:
        with self._lock:
            item = self._held(item_id, worker_id, token)
            if item is None:
                return False
            item["status"] = STATUS_DONE
            item["result"] = bytes(result)
            item["served_from"] = mode
            item["lease_expires"] = None
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker["jobs_done"] += 1
        QUEUE_COMPLETED.inc(mode=mode)
        return True

    def fail(
        self, item_id: str, worker_id: str, token: int, error: str, *, requeue: bool = True
    ) -> bool:
        with self._lock:
            item = self._held(item_id, worker_id, token)
            if item is None:
                return False
            self._fail_locked(item, error, requeue=requeue)
            return True

    def _fail_locked(self, item: dict, error: str, *, requeue: bool) -> None:
        if requeue and item["attempts"] < self.max_attempts:
            item["status"] = STATUS_PENDING
            item["worker"] = None
            item["lease_expires"] = None
            item["error"] = error
        else:
            item["status"] = STATUS_FAILED
            item["lease_expires"] = None
            item["error"] = error
            QUEUE_FAILED.inc()

    def requeue_expired(self) -> list[str]:
        now = self.clock()
        reclaimed: list[str] = []
        with self._lock:
            for item_id in self._order:
                item = self._items[item_id]
                if item["status"] != STATUS_LEASED:
                    continue
                expires = item["lease_expires"]
                if expires is not None and expires < now:
                    self._fail_locked(
                        item,
                        f"lease expired after attempt {item['attempts']} "
                        f"(worker {item['worker']})",
                        requeue=True,
                    )
                    reclaimed.append(item_id)
        if reclaimed:
            QUEUE_RECLAIMS.inc(len(reclaimed))
        return reclaimed

    # -- introspection -------------------------------------------------------
    def counts(self) -> dict[str, int]:
        out = {status: 0 for status in ITEM_STATUSES}
        with self._lock:
            for item in self._items.values():
                out[item["status"]] += 1
        return out

    def collect(self, item_ids: Iterable[str]) -> dict[str, ItemView]:
        out: dict[str, ItemView] = {}
        with self._lock:
            for item_id in item_ids:
                item = self._items.get(item_id)
                if item is None or item["status"] not in (STATUS_DONE, STATUS_FAILED):
                    continue
                out[item_id] = ItemView(
                    item_id=item_id,
                    status=item["status"],
                    worker=item["worker"],
                    attempts=item["attempts"],
                    result=item["result"],
                    error=item["error"],
                    served_from=item["served_from"],
                )
        return out

    # -- workers -------------------------------------------------------------
    def register_worker(self, worker_id: str, meta: Optional[Mapping] = None) -> None:
        now = self.clock()
        with self._lock:
            self._workers[worker_id] = {
                "registered_at": now,
                "heartbeat_at": now,
                "jobs_done": self._workers.get(worker_id, {}).get("jobs_done", 0),
                "meta": dict(meta or {}),
            }

    def heartbeat(self, worker_id: str) -> None:
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker["heartbeat_at"] = self.clock()

    def workers(self) -> list[WorkerInfo]:
        with self._lock:
            return [
                WorkerInfo(
                    worker_id=worker_id,
                    registered_at=row["registered_at"],
                    heartbeat_at=row["heartbeat_at"],
                    jobs_done=row["jobs_done"],
                    meta=dict(row["meta"]),
                )
                for worker_id, row in sorted(self._workers.items())
            ]

    def close(self) -> None:  # symmetric with SqliteBackend
        pass


#: Named in-process queues, so ``open_backend("memory://x")`` hands every
#: caller in the process the same ledger (what a unit test wants).
_MEMORY_BACKENDS: dict[str, MemoryBackend] = {}
_MEMORY_LOCK = threading.Lock()


def open_backend(url: Union[str, WorkBackend]) -> WorkBackend:
    """Coerce a ``--backend-url`` argument into a live :class:`WorkBackend`.

    * ``memory://<name>`` — shared in-process queue (tests only);
    * ``sqlite:///path/to/queue.db`` — SQLite ledger on a path;
    * ``http://host:port`` — the queue a ``promising-arm serve`` instance
      mounts at ``/v1/queue/*`` (fleets with no shared filesystem);
    * any other string — treated as a filesystem path for SQLite.
    """
    if not isinstance(url, str):
        return url
    if url.startswith("http://"):
        from .http_backend import HttpWorkBackend

        return HttpWorkBackend(url)
    if url.startswith("memory://"):
        name = url[len("memory://") :] or "default"
        with _MEMORY_LOCK:
            backend = _MEMORY_BACKENDS.get(name)
            if backend is None:
                backend = _MEMORY_BACKENDS[name] = MemoryBackend()
            return backend
    from .sqlite import SqliteBackend

    if url.startswith("sqlite://"):
        path = url[len("sqlite://") :]
        # Accept both sqlite:///abs/path (canonical) and sqlite://rel/path.
        if path.startswith("//"):
            path = path[1:]
        if not path:
            raise ValueError(f"backend url {url!r} has no database path")
        return SqliteBackend(path)
    if "://" in url:
        raise ValueError(
            f"unsupported backend url {url!r}; expected memory://<name>, "
            "sqlite:///path, http://host:port, or a filesystem path"
        )
    return SqliteBackend(url)


__all__ = [
    "Claim",
    "DEFAULT_MAX_ATTEMPTS",
    "ITEM_STATUSES",
    "ItemView",
    "MemoryBackend",
    "STATUS_DONE",
    "STATUS_FAILED",
    "STATUS_LEASED",
    "STATUS_PENDING",
    "WorkBackend",
    "WorkerInfo",
    "open_backend",
]
