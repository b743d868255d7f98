"""The exploration service engine: normalize → cache → coalesce → batch.

This is the transport-agnostic core of the long-lived serving layer.  A
request (a JSON-shaped dict) names a litmus test — either inline litmus
``source`` or a catalogue ``test`` — plus the models to run it under and
bounded options.  The engine normalizes it into :class:`~repro.harness.jobs.Job`
objects (so every request shares the sweep harness's single execution
path and content fingerprints), then answers each job from the cheapest
layer that can:

1. the process-resident :class:`~repro.harness.cache.LruResultCache`
   (a dict lookup);
2. the persistent on-disk :class:`~repro.harness.cache.ResultCache`
   (shared with CLI sweeps; hits are promoted into the LRU);
3. an identical in-flight computation (**coalescing**: concurrent
   requests with the same fingerprint share one execution);
4. a micro-batch dispatched to a resident
   :class:`~repro.harness.scheduler.WorkerPool`, whose workers stay warm
   across requests so imports and interner pools amortize.

Per-job deadlines and truncation warnings flow through the standard
:class:`~repro.harness.jobs.JobResult` schema: a budget-capped
exploration is served with ``"truncated": true`` and its warning string,
never as a silently verified verdict.
"""

from __future__ import annotations

import asyncio
import dataclasses
import importlib
import math
import platform
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .. import __version__
from ..axiomatic.model import AxiomaticConfig
from ..flat.explorer import FlatConfig
from ..harness.cache import CACHE_REQUESTS, LruResultCache, open_cache
from ..harness.jobs import (
    MODELS,
    STATUS_ERROR,
    STATUS_TIMEOUT,
    Job,
    JobResult,
    execute_job,
    result_to_json,
)
from ..harness.report import job_entry
from ..harness.scheduler import WorkerPool
from ..lang.kinds import ARCH_ALIASES, Arch, parse_arch
from ..obs import metrics
from ..obs.logging import get_logger, log_event
from ..obs.tracing import span
from ..promising.exhaustive import ExploreConfig

#: Version of the /healthz and /stats payload shapes (bumped whenever a
#: field is renamed or removed, not when purely additive).
SERVICE_SCHEMA_VERSION = 1

_log = get_logger("service.core")

_SERVICE_REQUESTS = metrics.counter(
    "service_requests_total", "Explore requests by outcome.", labels=("outcome",)
)
_SERVICE_REQUEST_SECONDS = metrics.histogram(
    "service_request_seconds", "End-to-end /explore latency."
)
_SERVICE_JOBS = metrics.counter(
    "service_jobs_total", "Jobs served, by the layer that answered.",
    labels=("served_from",),
)
_SERVICE_ERRORS = metrics.counter(
    "service_errors_total", "Failures inside the service, by kind.", labels=("kind",)
)
_SERVICE_ADMISSION = metrics.counter(
    "service_admission_total",
    "Explore admission decisions (accepted, queue_full, quota, draining).",
    labels=("outcome",),
)


def _build_info() -> dict:
    return {"version": __version__, "python": platform.python_version()}


def states_explored(stats: dict) -> int:
    """States a job's exploration visited, across model vocabularies.

    Promising counts promise-mode plus per-thread enumeration states;
    flat counts kernel states; axiomatic enumerates candidate executions
    rather than states and contributes 0.
    """
    return sum(
        int(stats.get(key) or 0)
        for key in ("promise_states", "thread_enumeration_states", "states")
    )


class ServiceError(Exception):
    """A client-visible request failure (maps to an HTTP status).

    ``retry_after`` (seconds) is set on throttling/overload rejections
    (429/503); the HTTP layer surfaces it as a ``Retry-After`` header so
    well-behaved clients can back off exactly as long as needed.
    """

    def __init__(
        self, message: str, status: int = 400, retry_after: Optional[float] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def _int_option(options: dict, name: str, default: Optional[int], limit: int) -> Optional[int]:
    """``options[name]`` as an int in ``1..limit``; an absent optional stays ``None``."""
    value = options.get(name, default)
    if value is None and default is None:
        return None
    # bool is an int subclass: reject it so `"max_states": true` fails
    # loudly instead of running with a budget of one.
    if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= limit:
        raise ServiceError(f"'{name}' must be an int in 1..{limit}")
    return value


def seconds_in_range(value: object, limit: float) -> bool:
    """Whether ``value`` is a number of seconds in ``(0, limit]``.

    The one rule for every deadline the service accepts: request options,
    the configured default, and ``serve --timeout``.  ``bool`` is an int
    subclass and is refused, as is NaN (it compares false to everything).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return 0 < value <= limit


def _seconds_option(
    options: dict, name: str, default: Optional[float], limit: float
) -> Optional[float]:
    """``options[name]`` as seconds in ``(0, limit]``; ``None`` means unbounded."""
    value = options.get(name, default)
    if value is None:
        return None
    if not seconds_in_range(value, limit):
        raise ServiceError(f"'{name}' must be a number of seconds in (0, {limit}]")
    return float(value)


class TokenBuckets:
    """Per-client token buckets: the /v1 explore quota ledger.

    One bucket per identity-header value, refilled continuously at
    ``refill_per_second`` up to ``capacity``.  A request costs one token
    per job it expands into; an empty bucket yields the exact time until
    enough tokens exist, which becomes the 429's ``Retry-After``.

    Only touched from the event loop, so no lock is needed.
    """

    def __init__(
        self,
        capacity: float,
        refill_per_second: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity <= 0:
            raise ValueError("quota capacity must be positive")
        if refill_per_second <= 0:
            raise ValueError("quota refill rate must be positive")
        self.capacity = float(capacity)
        self.refill_per_second = float(refill_per_second)
        self.clock = clock
        self._buckets: dict[str, tuple[float, float]] = {}

    def take(self, client_id: str, cost: float = 1.0) -> Optional[float]:
        """Spend ``cost`` tokens; ``None`` on success, else retry-after seconds."""
        now = self.clock()
        tokens, stamp = self._buckets.get(client_id, (self.capacity, now))
        tokens = min(self.capacity, tokens + (now - stamp) * self.refill_per_second)
        # A request costing more than the whole bucket drains a full bucket
        # instead of stalling forever: capacity is a burst cap, the refill
        # rate still bounds long-run throughput.
        cost = min(cost, self.capacity)
        if tokens >= cost:
            self._buckets[client_id] = (tokens - cost, now)
            return None
        self._buckets[client_id] = (tokens, now)
        return (cost - tokens) / self.refill_per_second


@dataclass
class ServiceConfig:
    """Tunables of one :class:`ExplorationService` instance."""

    #: Resident worker processes.  ``<= 1`` runs jobs inline on an
    #: executor thread (no pool, no enforceable per-job deadline) — the
    #: lightweight mode used by unit tests and tiny deployments.
    workers: int = 2
    #: Cold jobs are gathered for up to this long (seconds) or until
    #: ``batch_max_size`` of them are waiting, then dispatched together.
    batch_max_delay: float = 0.01
    batch_max_size: int = 16
    #: Micro-batches allowed to execute concurrently (``0`` = one per
    #: worker).  More than one prevents head-of-line blocking: a fast
    #: request arriving behind a slow batch runs on an idle worker
    #: instead of waiting the slow batch out.
    max_concurrent_batches: int = 0
    #: Capacity of the process-resident LRU result layer.
    lru_capacity: int = 4096
    #: Directory of the persistent result cache (``None`` = LRU only).
    cache_dir: Optional[str] = None
    #: Per-job deadline applied when a request does not name one.
    default_timeout: Optional[float] = 60.0
    #: Hard ceiling on any requested per-job deadline.
    max_timeout: float = 600.0
    #: Hard ceiling on any requested loop-unrolling bound.
    loop_bound_limit: int = 4
    #: Hard ceiling on any requested ``max_states`` budget.
    max_states_limit: int = 5_000_000
    #: Hard ceilings on the random walks one ``sample``-strategy job runs
    #: and on the step bound of each walk.
    max_samples_limit: int = 65_536
    max_sample_depth_limit: int = 65_536
    #: Largest accepted litmus source, in bytes.
    max_source_bytes: int = 65_536
    #: Most jobs (models) a single request may expand into.
    max_jobs_per_request: int = 8
    #: Latencies kept for the /stats percentiles (ring buffer).
    latency_window: int = 4096
    #: Admission control: once this many jobs are queued or in flight,
    #: new explore requests get ``429 + Retry-After`` instead of piling
    #: onto the dispatch queue (``0`` disables the check).
    max_pending_jobs: int = 1024
    #: ``Retry-After`` (seconds) suggested on a queue-depth 429.
    admission_retry_after: float = 1.0
    #: ``Retry-After`` (seconds) suggested on a drain-time 503.
    drain_retry_after: float = 2.0
    #: Longest a graceful drain waits for in-flight work before the
    #: server hard-stops whatever is left.
    drain_timeout: float = 30.0
    #: Per-client token-bucket capacity for explore requests, keyed on
    #: the identity header (one token per job; ``None`` = quotas off).
    quota_tokens: Optional[float] = None
    #: Tokens refilled per second per client.
    quota_refill_per_second: float = 1.0
    #: Work-queue ledger mounted at ``/v1/queue/*`` (``memory://<name>``
    #: or ``sqlite:///path``; ``None`` = a fresh in-memory queue).
    queue_url: Optional[str] = None

    def __post_init__(self) -> None:
        # A default outside the request rule would turn every request that
        # names no timeout into a 400 blaming the client.
        timeout = self.default_timeout
        if timeout is not None and not seconds_in_range(timeout, self.max_timeout):
            raise ValueError(
                f"default_timeout must be a number of seconds in (0, {self.max_timeout}]"
                f" or None, got {timeout!r}"
            )


@dataclass
class ServiceStats:
    """Counters surfaced by ``/stats`` (and asserted by the tests)."""

    started_unix: float = field(default_factory=time.time)
    #: Uptime is a *duration*, so it is measured against the monotonic
    #: clock — an NTP step of the wall clock must never move it.
    started_monotonic: float = field(default_factory=time.monotonic)
    requests: int = 0
    bad_requests: int = 0
    jobs: int = 0
    lru_hits: int = 0
    disk_hits: int = 0
    coalesced: int = 0
    computed: int = 0
    batches: int = 0
    batched_jobs: int = 0
    max_batch_size: int = 0
    #: Error accounting: jobs that raised or timed out during batch
    #: compute, and whole batches lost to pool breakage.  A failing job
    #: must surface here (and in /metrics), never vanish.
    job_errors: int = 0
    job_timeouts: int = 0
    batch_failures: int = 0
    #: Admission accounting: requests bounced before any job ran — queue
    #: depth over the limit, an exhausted client quota, or a drain in
    #: progress — each with an explicit ``Retry-After``.
    admission_rejections: int = 0
    quota_rejections: int = 0
    drain_rejections: int = 0
    #: HTTP front-end accounting (requests ≫ connections under keep-alive).
    connections: int = 0
    http_requests: int = 0
    latencies: deque = field(default_factory=deque)

    @property
    def errors_total(self) -> int:
        return self.job_errors + self.job_timeouts + self.batch_failures

    def record_batch(self, size: int) -> None:
        self.batches += 1
        self.batched_jobs += size
        self.max_batch_size = max(self.max_batch_size, size)

    def record_latency(self, seconds: float, window: int) -> None:
        self.latencies.append(seconds)
        while len(self.latencies) > window:
            self.latencies.popleft()


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile (0..1) of ``values`` by nearest-rank."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


@dataclass
class NormalizedRequest:
    """A validated request: jobs plus the options that shaped them."""

    name: str
    arch: Arch
    models: tuple[str, ...]
    jobs: list[Job]
    timeout: Optional[float]
    include_outcomes: bool
    #: Deadline-tier budget baked into the job configs (None = unbounded).
    deadline_seconds: Optional[float] = None


class ExplorationService:
    """The long-lived engine behind ``promising-arm serve``.

    Lifecycle: :meth:`start` (from a running event loop), then any number
    of concurrent :meth:`handle_explore` calls, then :meth:`stop`.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        self.lru = LruResultCache(self.config.lru_capacity)
        self.disk = open_cache(self.config.cache_dir)
        self._pool: Optional[WorkerPool] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._queue: deque = deque()
        self._queue_event = asyncio.Event()
        self._dispatcher: Optional[asyncio.Task] = None
        self._batch_slots: Optional[asyncio.Semaphore] = None
        self._batch_tasks: set = set()
        self._running = False
        self._draining = False
        self.quotas: Optional[TokenBuckets] = (
            TokenBuckets(self.config.quota_tokens, self.config.quota_refill_per_second)
            if self.config.quota_tokens
            else None
        )

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        # The execution backends (and the program compiler) load on an
        # explorer's first call.  Import them before the pool forks, so no
        # worker pays that inside its first cold compute, on the tail.
        importlib.import_module("..backend", __package__)
        if self.config.workers > 1:
            self._pool = WorkerPool(self.config.workers)
        slots = self.config.max_concurrent_batches or max(1, self.config.workers)
        self._batch_slots = asyncio.Semaphore(slots)
        self._running = True
        self._draining = False
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())

    def begin_drain(self) -> None:
        """Stop admitting new cold work; everything accepted keeps running.

        Cache hits and coalescing onto already-running computations stay
        served; only work that would *start* a new computation is bounced
        with ``503 + Retry-After``.
        """
        if not self._draining:
            self._draining = True
            log_event(_log, "drain started", queued=len(self._queue), inflight=len(self._inflight))

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown, phase one: finish queued and in-flight work.

        Returns ``True`` once nothing is pending (``False`` if ``timeout``
        expired first); :meth:`stop` afterwards finds nothing to fail, so
        no accepted request is ever answered with the bare shutdown 503.
        """
        self.begin_drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._queue or self._inflight or self._batch_tasks:
            if deadline is not None and time.monotonic() >= deadline:
                log_event(
                    _log,
                    "drain timed out",
                    level=30,  # logging.WARNING
                    queued=len(self._queue),
                    inflight=len(self._inflight),
                )
                return False
            await asyncio.sleep(0.01)
        log_event(_log, "drain complete")
        return True

    async def stop(self) -> None:
        self._running = False
        self._queue_event.set()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):
                pass
            self._dispatcher = None
        for task in list(self._batch_tasks):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._batch_tasks.clear()
        # Fail every pending future — queued ones *and* those whose batch
        # is still executing (the cancelled dispatcher will never resolve
        # them) — so no coalesced or computing waiter hangs forever.
        for fut in self._inflight.values():
            if not fut.done():
                fut.set_exception(ServiceError("service stopping", status=503))
        self._queue.clear()
        self._inflight.clear()
        if self._pool is not None:
            pool = self._pool
            self._pool = None
            await asyncio.get_running_loop().run_in_executor(None, pool.close)

    # -- request validation --------------------------------------------------
    def normalize(self, payload: object) -> NormalizedRequest:
        """Validate a request dict and expand it into harness jobs.

        Raises :class:`ServiceError` (a 400) on anything malformed; the
        limits in :class:`ServiceConfig` bound every knob a client can
        turn, so one request can never wedge the service.
        """
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        source = payload.get("source")
        test_name = payload.get("test")
        if (source is None) == (test_name is None):
            raise ServiceError("exactly one of 'source' or 'test' is required")

        options = payload.get("options") or {}
        if not isinstance(options, dict):
            raise ServiceError("'options' must be an object")
        config = self.config
        loop_bound = _int_option(options, "loop_bound", 2, config.loop_bound_limit)
        timeout = _seconds_option(options, "timeout", config.default_timeout, config.max_timeout)
        include_outcomes = options.get("include_outcomes", True)
        if not isinstance(include_outcomes, bool):
            raise ServiceError("'include_outcomes' must be a boolean")
        # The deadline tier: a kernel-enforced wall-clock budget per job.
        # Unlike 'timeout' (which kills the worker process), the kernel
        # stops at the budget and returns what it found, explicitly
        # flagged truncated — a cheap, bounded answer, never a silent one.
        deadline_seconds = _seconds_option(options, "deadline_seconds", None, config.max_timeout)
        max_states = _int_option(options, "max_states", None, config.max_states_limit)

        from ..explore import BACKENDS, DEFAULT_BACKEND, DEFAULT_STRATEGY, STRATEGIES

        strategy = options.get("strategy", DEFAULT_STRATEGY)
        if strategy not in STRATEGIES:
            raise ServiceError(
                f"unknown strategy {strategy!r}; choose from {', '.join(STRATEGIES)}"
            )
        samples = _int_option(options, "samples", 256, config.max_samples_limit)
        sample_depth = _int_option(options, "sample_depth", 4096, config.max_sample_depth_limit)
        seed = options.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ServiceError("'seed' must be an integer")

        backend = options.get("backend", DEFAULT_BACKEND)
        if not isinstance(backend, str) or backend not in BACKENDS:
            raise ServiceError(f"unknown backend {backend!r}; choose from {', '.join(BACKENDS)}")

        models = payload.get("models", ["promising"])
        if isinstance(models, str):
            models = [m.strip() for m in models.split(",") if m.strip()]
        if not isinstance(models, list) or not models:
            raise ServiceError("'models' must be a non-empty list of model names")
        unknown = [m for m in models if m not in MODELS]
        if unknown:
            raise ServiceError(
                f"unknown model(s) {', '.join(map(repr, unknown))}; "
                f"choose from {', '.join(MODELS)}"
            )
        models = tuple(dict.fromkeys(models))
        if len(models) > self.config.max_jobs_per_request:
            raise ServiceError(
                f"a request may expand into at most {self.config.max_jobs_per_request} jobs"
            )

        arch_name = payload.get("arch")
        if arch_name is not None:
            arch = parse_arch(arch_name) if isinstance(arch_name, str) else None
            if arch is None:
                raise ServiceError(
                    f"unknown arch {arch_name!r}; choose from {', '.join(sorted(ARCH_ALIASES))}"
                )
        else:
            arch = None

        if source is not None:
            if not isinstance(source, str):
                raise ServiceError("'source' must be a litmus-format string")
            if len(source.encode()) > self.config.max_source_bytes:
                raise ServiceError(
                    f"'source' exceeds {self.config.max_source_bytes} bytes", status=413
                )
            from ..litmus.format import parse_litmus

            try:
                parsed = parse_litmus(source, unroll_bound=loop_bound)
            except Exception as exc:
                raise ServiceError(f"unparseable litmus source: {exc}") from exc
            test = parsed.test
            if arch is None:
                arch = parsed.arch
        else:
            if not isinstance(test_name, str):
                raise ServiceError("'test' must be a catalogue test name")
            from ..litmus import get_test

            try:
                test = get_test(test_name)
            except (KeyError, ValueError) as exc:
                raise ServiceError(f"unknown catalogue test {test_name!r}") from exc
            if arch is None:
                arch = Arch.ARM

        search_kwargs = dict(
            loop_bound=loop_bound,
            strategy=strategy,
            samples=samples,
            sample_depth=sample_depth,
            seed=seed,
            backend=backend,
        )
        if max_states is not None:
            search_kwargs["max_states"] = max_states
        if deadline_seconds is not None:
            search_kwargs["deadline_seconds"] = deadline_seconds
        # Strategy and sampling knobs are ordinary config fields, so they
        # enter each job's fingerprint: a sampled run caches, coalesces,
        # and LRU-serves under its own key, never shadowing an exhaustive
        # result for the same test.
        explore_config = ExploreConfig(**search_kwargs)
        flat_config = FlatConfig(**search_kwargs)
        jobs = [
            Job(
                test=test,
                model=model,
                arch=arch,
                explore_config=explore_config,
                axiomatic_config=AxiomaticConfig(loop_bound=loop_bound),
                flat_config=flat_config,
            )
            for model in models
        ]
        return NormalizedRequest(
            name=test.name,
            arch=arch,
            models=models,
            jobs=jobs,
            timeout=timeout,
            include_outcomes=include_outcomes,
            deadline_seconds=deadline_seconds,
        )

    # -- request handling ----------------------------------------------------
    @staticmethod
    def _rejection(exc: ServiceError) -> dict:
        body = {"ok": False, "error": str(exc)}
        if exc.retry_after is not None:
            body["retry_after"] = round(exc.retry_after, 3)
        return body

    def _admit(self, request: NormalizedRequest, client_id: Optional[str]) -> None:
        """Admission control: raises a 429 :class:`ServiceError` or returns.

        Two gates, both with explicit ``Retry-After``: the global dispatch
        queue depth (protects the service) and the per-client token bucket
        keyed on the identity header (protects everyone else's share).
        """
        if self.config.max_pending_jobs:
            depth = len(self._queue) + len(self._inflight)
            if depth >= self.config.max_pending_jobs:
                self.stats.admission_rejections += 1
                _SERVICE_ADMISSION.inc(outcome="queue_full")
                raise ServiceError(
                    f"service overloaded: {depth} jobs already pending",
                    status=429,
                    retry_after=self.config.admission_retry_after,
                )
        if self.quotas is not None:
            wait = self.quotas.take(client_id or "anonymous", cost=len(request.jobs))
            if wait is not None:
                self.stats.quota_rejections += 1
                _SERVICE_ADMISSION.inc(outcome="quota")
                raise ServiceError(
                    f"quota exhausted for client {client_id or 'anonymous'!r}",
                    status=429,
                    retry_after=wait,
                )
        _SERVICE_ADMISSION.inc(outcome="accepted")

    async def handle_explore(
        self, payload: object, client_id: Optional[str] = None
    ) -> tuple[int, dict]:
        """The full request path; returns ``(http_status, response_dict)``."""
        start = time.perf_counter()
        try:
            request = self.normalize(payload)
        except ServiceError as exc:
            self.stats.bad_requests += 1
            _SERVICE_REQUESTS.inc(outcome="bad_request")
            return exc.status, self._rejection(exc)
        try:
            self._admit(request, client_id)
        except ServiceError as exc:
            _SERVICE_REQUESTS.inc(outcome="rejected")
            return exc.status, self._rejection(exc)
        self.stats.requests += 1
        self.stats.jobs += len(request.jobs)
        # Fast path: when every job is already LRU-resident the whole
        # request is answerable without touching the event loop — no
        # coroutines, no gather, no scheduler round-trip.  This is the
        # steady state of a warm service, so it is worth keeping flat.
        fast: Optional[list[tuple[JobResult, str]]] = []
        for job in request.jobs:
            hit = self.lru.get(job)
            if hit is None:
                fast = None
                break
            fast.append((hit, "lru"))
        if fast is not None:
            self.stats.lru_hits += len(fast)
            resolved = fast
        else:
            try:
                resolved = await asyncio.gather(
                    *(self._resolve(job, request.timeout) for job in request.jobs)
                )
            except ServiceError as exc:
                if exc.retry_after is not None and exc.status == 503:
                    self.stats.drain_rejections += 1
                    _SERVICE_ADMISSION.inc(outcome="draining")
                _SERVICE_REQUESTS.inc(outcome="error")
                return exc.status, self._rejection(exc)
        rows = []
        total_cost = {"states_explored": 0, "queue_ms": 0.0, "compute_ms": 0.0}
        served_from_counts: dict[str, int] = {}
        for job, (result, served_from) in zip(request.jobs, resolved):
            _SERVICE_JOBS.inc(served_from=served_from)
            served_from_counts[served_from] = served_from_counts.get(served_from, 0) + 1
            row = job_entry(result)
            row["served_from"] = served_from
            # Per-job cost accounting: a cache hit cost nothing *now* (its
            # recorded elapsed_seconds is the original computation), so
            # only freshly computed answers bill queue/compute time.
            computed_now = served_from in ("computed", "coalesced") and not result.cached
            cost = {
                "states": states_explored(result.stats),
                "served_from": served_from,
                "queue_ms": round((result.queue_seconds or 0.0) * 1000, 3)
                if computed_now
                else 0.0,
                "compute_ms": round(result.elapsed_seconds * 1000, 3)
                if computed_now
                else 0.0,
            }
            row["cost"] = cost
            total_cost["states_explored"] += cost["states"]
            total_cost["queue_ms"] += cost["queue_ms"]
            total_cost["compute_ms"] += cost["compute_ms"]
            if request.include_outcomes:
                row["outcomes"] = result_to_json(result)["outcomes"]
            rows.append(row)
        total_cost["queue_ms"] = round(total_cost["queue_ms"], 3)
        total_cost["compute_ms"] = round(total_cost["compute_ms"], 3)
        total_cost["served_from"] = served_from_counts
        elapsed = time.perf_counter() - start
        self.stats.record_latency(elapsed, self.config.latency_window)
        _SERVICE_REQUESTS.inc(outcome="ok")
        _SERVICE_REQUEST_SECONDS.observe(elapsed)
        response = {
            "ok": all(result.ok for result, _ in resolved),
            "test": request.name,
            "arch": request.arch.value,
            "models": list(request.models),
            "elapsed_seconds": elapsed,
            "cost": total_cost,
            "results": rows,
        }
        if request.deadline_seconds is not None:
            # Deadline-tier responses say so: the budget that shaped them
            # and whether any row was cut short by it.  Per-row
            # ``truncated``/``sampled`` flags carry the fine grain.
            response["deadline_seconds"] = request.deadline_seconds
            response["truncated"] = any(result.truncated for result, _ in resolved)
        return 200, response

    async def _resolve(self, job: Job, timeout: Optional[float]) -> tuple[JobResult, str]:
        """Serve one job from the cheapest layer that can answer it."""
        hit = self.lru.get(job)
        if hit is not None:
            self.stats.lru_hits += 1
            return hit, "lru"
        if self.disk is not None:
            # File read + JSON parse happen off the event loop so a slow
            # cache volume can never stall every other connection.  The
            # in-flight check below runs *after* this await, so identical
            # concurrent misses still coalesce onto one computation.
            hit = await self._loop.run_in_executor(None, self.disk.get, job)
            if hit is not None:
                self.lru.put(job, hit)
                self.stats.disk_hits += 1
                return hit, "disk"
        fingerprint = job.fingerprint()
        inflight = self._inflight.get(fingerprint)
        if inflight is not None:
            # Coalescing: an identical computation is already running (or
            # queued); share its result instead of executing twice.  This
            # is the third cache tier, so it shares the layer-labeled
            # counter vocabulary with the LRU and disk layers.
            self.stats.coalesced += 1
            CACHE_REQUESTS.inc(layer="coalesced", outcome="hit")
            result, _label = await asyncio.shield(inflight)
            return self._rebind(result, job), "coalesced"
        if not self._running or self._draining:
            # New arrivals only: cache hits and coalesced joins above were
            # already served, and queued/in-flight work keeps running to
            # completion — the graceful-drain contract.
            raise ServiceError(
                "service draining" if self._running else "service stopping",
                status=503,
                retry_after=self.config.drain_retry_after,
            )
        future = self._loop.create_future()
        self._inflight[fingerprint] = future
        self._queue.append((job, timeout, future, time.monotonic()))
        self._queue_event.set()
        # The dispatcher resolves the future with (result, label): label
        # is "computed" normally, or "lru" for a duplicate that slipped
        # past the in-flight check and was answered at dispatch time.
        result, label = await future
        if label == "computed":
            self.stats.computed += 1
        else:
            self.stats.lru_hits += 1
        return result, label

    @staticmethod
    def _rebind(result: JobResult, job: Job) -> JobResult:
        """A coalesced waiter's copy, carrying its own job's annotations."""
        return dataclasses.replace(
            result,
            name=job.test.name,
            expected=job.test.expected_verdict(job.arch),
            stats=dict(result.stats),
        )

    # -- batching ------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Gather cold jobs into micro-batches and run them on the pool.

        Up to ``max_concurrent_batches`` batches execute at once (one per
        worker by default), so a fast request arriving behind a slow
        batch is dispatched to an idle worker instead of waiting the slow
        batch out; within that limit, jobs queueing while every slot is
        busy accumulate into larger batches, which keeps dispatch
        overhead amortised under load while an idle service dispatches a
        lone request after at most ``batch_max_delay``.
        """
        while self._running:
            await self._queue_event.wait()
            if not self._running:
                return
            if not self._queue:
                self._queue_event.clear()
                continue
            if self.config.batch_max_delay > 0 and len(self._queue) < self.config.batch_max_size:
                await asyncio.sleep(self.config.batch_max_delay)
            batch = []
            while self._queue and len(batch) < self.config.batch_max_size:
                batch.append(self._queue.popleft())
            if not self._queue:
                self._queue_event.clear()
            # A duplicate can slip past _resolve's in-flight check when
            # its disk probe overlaps the original's completion; anything
            # already in the LRU by dispatch time is served from it
            # instead of being executed again.  The membership probe
            # avoids charging the LRU a second miss for genuinely cold
            # jobs (``_resolve`` already recorded one).
            still_cold = []
            for entry in batch:
                job, _timeout, future, _enqueued = entry
                if job.fingerprint() in self.lru:
                    hit = self.lru.get(job)
                    self._inflight.pop(job.fingerprint(), None)
                    if not future.done():
                        future.set_result((hit, "lru"))
                else:
                    still_cold.append(entry)
            if not still_cold:
                continue
            self.stats.record_batch(len(still_cold))
            await self._batch_slots.acquire()
            if not self._running:
                self._batch_slots.release()
                return
            task = asyncio.ensure_future(self._run_batch(still_cold))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(self, batch: list) -> None:
        """Execute one micro-batch on the pool and resolve its futures."""
        jobs = [job for job, _, _, _ in batch]
        timeouts = [timeout for _, timeout, _, _ in batch]
        dispatch = time.monotonic()
        try:
            with span("batch_compute", jobs=len(jobs)):
                results = await self._loop.run_in_executor(
                    None, self._execute_batch, jobs, timeouts
                )
        except Exception as exc:  # pool breakage: fail this batch, keep serving
            self.stats.batch_failures += 1
            _SERVICE_ERRORS.inc(kind="batch_failure")
            log_event(
                _log,
                "batch failed",
                level=40,  # logging.ERROR
                jobs=len(jobs),
                error=f"{type(exc).__name__}: {exc}",
            )
            for job, _, future, _ in batch:
                self._inflight.pop(job.fingerprint(), None)
                if not future.done():
                    future.set_exception(
                        ServiceError(f"batch execution failed: {exc}", status=500)
                    )
            return
        finally:
            self._batch_slots.release()
        for (job, _, future, enqueued), result in zip(batch, results):
            self._inflight.pop(job.fingerprint(), None)
            # Total queue time = wait in the service's dispatch queue plus
            # any wait inside the worker pool (measured by the worker).
            result.queue_seconds = max(0.0, dispatch - enqueued) + (
                result.queue_seconds or 0.0
            )
            if result.status == STATUS_ERROR:
                # A job that raised during compute must be *counted*, not
                # just passed through as a row the caller may ignore.
                self.stats.job_errors += 1
                _SERVICE_ERRORS.inc(kind="job_error")
                log_event(
                    _log,
                    "job error",
                    level=40,  # logging.ERROR
                    test=result.name,
                    model=result.model,
                    fingerprint=result.fingerprint[:12],
                    error=result.error.splitlines()[0] if result.error else "",
                )
            elif result.status == STATUS_TIMEOUT:
                self.stats.job_timeouts += 1
                _SERVICE_ERRORS.inc(kind="job_timeout")
                log_event(
                    _log,
                    "job timeout",
                    level=30,  # logging.WARNING
                    test=result.name,
                    model=result.model,
                    fingerprint=result.fingerprint[:12],
                )
            self.lru.put(job, result)
            if not future.done():
                future.set_result((result, "computed"))

    def _execute_batch(
        self, jobs: list[Job], timeouts: list[Optional[float]]
    ) -> list[JobResult]:
        """Run one micro-batch (called on an executor thread).

        With a resident pool the batch fans out across warm workers and
        per-job ``SIGALRM`` deadlines are enforced on their main threads.
        Inline mode (``workers <= 1``) executes serially on this thread,
        where deadlines are best-effort only (no ``SIGALRM`` off the main
        thread) — acceptable for tests and single-user deployments.

        Disk persistence also happens here, on this thread, streamed as
        each result lands: it never blocks the event loop, and there is
        no cancellation point between computing a result and persisting
        it, so a service stopping right after answering has already
        written its cache entries.
        """
        if self._pool is not None:

            def persist(index: int, result: JobResult) -> None:
                self.disk.put(jobs[index], result)

            return self._pool.run(
                jobs, timeouts, on_result=persist if self.disk is not None else None
            )
        results = []
        for job, timeout in zip(jobs, timeouts):
            result = execute_job(job, timeout=timeout)
            if self.disk is not None:
                self.disk.put(job, result)
            results.append(result)
        return results

    # -- introspection -------------------------------------------------------
    def healthz(self) -> dict:
        if not self._running:
            status = "stopping"
        elif self._draining:
            status = "draining"
        else:
            status = "ok"
        return {
            "status": status,
            "schema_version": SERVICE_SCHEMA_VERSION,
            "build": _build_info(),
            "uptime_seconds": time.monotonic() - self.stats.started_monotonic,
            "workers": self.config.workers,
            "pool": "resident" if self._pool is not None else "inline",
        }

    def metrics_text(self) -> str:
        """The process-wide metrics registry in Prometheus text format."""
        return metrics.get_registry().render_prometheus()

    def stats_snapshot(self) -> dict:
        """The ``/stats`` payload: cache hit rates, batching, latency."""
        stats = self.stats
        latencies = list(stats.latencies)
        served_without_execution = stats.lru_hits + stats.disk_hits + stats.coalesced
        return {
            "schema_version": SERVICE_SCHEMA_VERSION,
            "build": _build_info(),
            "uptime_seconds": time.monotonic() - stats.started_monotonic,
            "requests": stats.requests,
            "bad_requests": stats.bad_requests,
            "jobs": stats.jobs,
            "errors": {
                "jobs": stats.job_errors,
                "timeouts": stats.job_timeouts,
                "batches": stats.batch_failures,
                "total": stats.errors_total,
            },
            "served": {
                "lru": stats.lru_hits,
                "disk": stats.disk_hits,
                "coalesced": stats.coalesced,
                "computed": stats.computed,
            },
            "cache_hit_rate": served_without_execution / stats.jobs if stats.jobs else 0.0,
            "lru": {
                "size": len(self.lru),
                "capacity": self.lru.capacity,
                "hits": self.lru.hits,
                "misses": self.lru.misses,
                "evictions": self.lru.evictions,
                "hit_rate": self.lru.hit_rate,
            },
            "disk_cache": (
                None
                if self.disk is None
                else {
                    "path": str(self.disk.path),
                    "hits": self.disk.hits,
                    "misses": self.disk.misses,
                    "store_failures": self.disk.store_failures,
                }
            ),
            "batches": {
                "count": stats.batches,
                "jobs": stats.batched_jobs,
                "max_size": stats.max_batch_size,
                "mean_size": stats.batched_jobs / stats.batches if stats.batches else 0.0,
            },
            "latency_seconds": {
                "count": len(latencies),
                "mean": sum(latencies) / len(latencies) if latencies else None,
                "p50": percentile(latencies, 0.50),
                "p95": percentile(latencies, 0.95),
            },
            "queue_depth": len(self._queue),
            "inflight": len(self._inflight),
            "workers": self.config.workers,
            "pool": "resident" if self._pool is not None else "inline",
            "http": {
                "connections": stats.connections,
                "requests": stats.http_requests,
            },
            "admission": {
                "max_pending_jobs": self.config.max_pending_jobs,
                "quota_tokens": self.config.quota_tokens,
                "quota_refill_per_second": (
                    self.config.quota_refill_per_second if self.quotas else None
                ),
                "queue_full_rejections": stats.admission_rejections,
                "quota_rejections": stats.quota_rejections,
                "drain_rejections": stats.drain_rejections,
                "draining": self._draining,
            },
        }


__all__ = [
    "SERVICE_SCHEMA_VERSION",
    "ExplorationService",
    "NormalizedRequest",
    "ServiceConfig",
    "ServiceError",
    "ServiceStats",
    "TokenBuckets",
    "percentile",
    "states_explored",
]
