"""Serializable litmus jobs and their results.

A :class:`Job` is one unit of sweep work: a litmus test to run under one
model (promising, promising-naive, axiomatic, or flat) on one architecture
with an explicit configuration.  Jobs are plain picklable dataclasses so
the scheduler can ship them to worker processes, and they carry a stable
content *fingerprint* (program + condition + projection + effective
configuration) that keys the persistent result cache.

:func:`execute_job` is the single execution path: every sweep in the
codebase — ``check_agreement``, ``compare_models``, the CLI, the
benchmarks — ultimately runs jobs through it, so serial and parallel runs
are bit-identical by construction.
"""

from __future__ import annotations

import dataclasses
import hashlib
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Optional

from ..axiomatic.model import AxiomaticConfig, enumerate_axiomatic_outcomes
from ..flat.explorer import FlatConfig, explore_flat
from ..lang.kinds import Arch
from ..lang.program import Loc, Program, TId
from ..obs import metrics
from ..obs.logging import bind
from ..outcomes import Outcome, OutcomeSet
from ..promising.exhaustive import ExploreConfig, explore, explore_naive

_JOBS_EXECUTED = metrics.counter(
    "jobs_executed_total", "Jobs run through execute_job, by model and status.",
    labels=("model", "status"),
)
_JOB_SECONDS = metrics.histogram(
    "job_execute_seconds", "Wall time per executed job.", labels=("model",)
)

if TYPE_CHECKING:  # litmus imports harness (runner); keep ours lazy.
    from ..litmus.test import LitmusTest, Verdict

#: Bumped whenever the result format or the model semantics change in a way
#: that invalidates previously cached results.
#: v2: explorer configs carry search-strategy fields (``strategy``,
#: ``samples``, ``sample_depth``, ``seed``, ``deadline_seconds``), so a
#: sampled (or otherwise bounded) run keys a *different* cache entry and
#: can never shadow an exhaustive result.
#: v3: the ``dedup`` and ``cert_memo`` ablation fields left the explorer
#: configs, which changes every job's hashed field list.
FINGERPRINT_VERSION = 3

#: Models a job can request.
MODELS = ("promising", "promising-naive", "axiomatic", "flat")

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"


class JobTimeout(Exception):
    """Raised inside a job when its per-job deadline expires."""


def timeouts_enforceable() -> bool:
    """Whether per-job deadlines can actually fire on this platform.

    Deadlines use ``SIGALRM``, which only exists on POSIX and only fires
    on a main thread; callers should warn rather than silently run
    unbounded when this is false.
    """
    return hasattr(signal, "SIGALRM") and threading.current_thread() is threading.main_thread()


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Bound the wrapped block to ``seconds`` of wall time (best effort).

    Uses ``SIGALRM``, so it only engages on the main thread of a process —
    which is where both the serial runner and the pool workers execute
    jobs.  Elsewhere (or with no timeout) it is a no-op.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise JobTimeout(f"job exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Job:
    """One litmus test × model × architecture × configuration."""

    test: LitmusTest
    model: str
    arch: Arch = Arch.ARM
    explore_config: Optional[ExploreConfig] = None
    axiomatic_config: Optional[AxiomaticConfig] = None
    flat_config: Optional[FlatConfig] = None
    #: Projection override: ``((tid, (reg, ...)), ...)`` and ``(loc, ...)``.
    #: When ``None`` the observables are derived from the test condition,
    #: exactly as the litmus runner does.
    project_registers: Optional[tuple[tuple[TId, tuple[str, ...]], ...]] = None
    project_locations: Optional[tuple[Loc, ...]] = None

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")

    # -- construction helpers ------------------------------------------------
    @classmethod
    def for_program(
        cls,
        program: Program,
        model: str,
        arch: Arch = Arch.ARM,
        *,
        explore_config: Optional[ExploreConfig] = None,
        axiomatic_config: Optional[AxiomaticConfig] = None,
        flat_config: Optional[FlatConfig] = None,
        name: Optional[str] = None,
    ) -> "Job":
        """Wrap a bare program (a workload, say) as a job.

        The projection covers the program's own registers and named
        locations — the same observables :func:`repro.tools.observables`
        computes — so workload safety checkers see every register and
        memory cell they inspect.
        """
        from ..litmus.conditions import TrueCond
        from ..litmus.test import LitmusTest
        from ..tools.compare import observables

        test = LitmusTest(name or program.name or "<anonymous>", program, TrueCond())
        reg_map, loc_list = observables(program)
        regs = tuple((tid, tuple(reg_map[tid])) for tid in program.thread_ids)
        locs = tuple(loc_list)
        return cls(
            test=test,
            model=model,
            arch=arch,
            explore_config=explore_config,
            axiomatic_config=axiomatic_config,
            flat_config=flat_config,
            project_registers=regs,
            project_locations=locs,
        )

    # -- observables ---------------------------------------------------------
    def observables(self) -> tuple[dict[TId, list[str]], list[Loc]]:
        """The registers/locations the outcome sets are projected onto.

        Each override is independent: leaving one ``None`` derives that
        side from the test condition while the other stays explicit.
        """
        if self.project_registers is not None:
            regs = {tid: sorted(names) for tid, names in self.project_registers}
        else:
            regs = {
                tid: sorted(names)
                for tid, names in self.test.observable_registers().items()
            }
        if self.project_locations is not None:
            locs = sorted(self.project_locations)
        else:
            locs = sorted(self.test.observable_locations())
        return regs, locs

    # -- effective configurations -------------------------------------------
    # ``dataclasses.replace`` (rather than field-by-field copies) so a
    # config gaining a new field is automatically carried into execution
    # and the cache fingerprint.
    def effective_explore_config(self) -> ExploreConfig:
        base = self.explore_config or ExploreConfig()
        _, locs = self.observables()
        return dataclasses.replace(
            base,
            arch=self.arch,
            shared_locations=tuple(sorted(set(base.shared_locations) | set(locs))),
        )

    def effective_axiomatic_config(self) -> AxiomaticConfig:
        base = self.axiomatic_config or AxiomaticConfig()
        return dataclasses.replace(base, arch=self.arch)

    def effective_flat_config(self) -> FlatConfig:
        base = self.flat_config or FlatConfig()
        return dataclasses.replace(base, arch=self.arch)

    # -- fingerprint ---------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash identifying this job's semantics.

        Covers the program text (threads + initial memory), the condition,
        the projection, the model/arch, and every field of the effective
        configuration — so any change that could change the outcome set
        (or its projection) yields a fresh key.  Memoized: the scheduler,
        the cache, and the executor each consult it.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        if self.model in ("promising", "promising-naive"):
            cfg: object = self.effective_explore_config()
        elif self.model == "axiomatic":
            cfg = self.effective_axiomatic_config()
        else:
            cfg = self.effective_flat_config()
        # The execution backend changes the state representation, never the
        # outcome set (conformance-tested), so it is not part of the key: a
        # result computed on either backend answers a job on the other, and
        # fingerprints match those of jobs cached before the field existed.
        cfg_items = sorted(
            (f.name, repr(getattr(cfg, f.name)))
            for f in dataclasses.fields(cfg)
            if f.name != "backend"
        )
        regs, locs = self.observables()
        parts = [
            f"v{FINGERPRINT_VERSION}",
            self.model,
            self.arch.value,
            repr(self.test.program.threads),
            repr(sorted(self.test.program.initial.items())),
            self.test.condition.canonical(),
            repr(sorted(regs.items())),
            repr(locs),
            repr(cfg_items),
        ]
        digest = hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
        object.__setattr__(self, "_fingerprint", digest)
        return digest


@dataclass
class JobResult:
    """Outcome of executing (or recalling) one :class:`Job`."""

    name: str
    model: str
    arch: Arch
    status: str
    outcomes: Optional[OutcomeSet]
    verdict: Optional[Verdict]
    expected: Optional[Verdict]
    elapsed_seconds: float
    stats: dict = field(default_factory=dict)
    error: str = ""
    fingerprint: str = ""
    cached: bool = False
    # Transport-only observability fields.  Deliberately excluded from
    # result_to_json (cache entries and reports stay deterministic and
    # replay-free): a recalled result must never re-merge old metrics.
    #: Seconds this job waited between scheduling and execution start
    #: (set by the pool path; ``None`` when not measured).
    queue_seconds: Optional[float] = None
    #: Metrics-registry delta accumulated while executing this job in a
    #: worker process; the parent merges it and clears the field.
    metrics_delta: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def truncated(self) -> bool:
        """Whether the exploration hit a state/fuel/deadline budget.

        A truncated run's outcome set is a (sound) under-approximation,
        so its verdict is *not verified* — reports and comparisons must
        treat it as a warning, never as a clean result.
        """
        return bool(self.stats.get("truncated"))

    @property
    def strategy(self) -> Optional[str]:
        """The search strategy that produced this result (``None`` for
        models without one, e.g. axiomatic enumeration)."""
        return self.stats.get("strategy")

    @property
    def sampled(self) -> bool:
        """Whether the run used a non-exhaustive (sampling) strategy.

        Sampled outcome sets are sound under-approximations: every
        outcome found is genuinely reachable, but absence proves
        nothing.  Comparisons must therefore use containment, never
        equality, and a ``forbidden`` verdict is unverified.
        """
        from ..explore import is_exhaustive

        strategy = self.stats.get("strategy")
        return strategy is not None and not is_exhaustive(strategy)

    @property
    def warning(self) -> Optional[str]:
        if self.truncated:
            return (
                "exploration truncated (max_states/cert_fuel/deadline budget "
                "hit): outcome set may be incomplete, verdict unverified"
            )
        if self.sampled:
            return (
                f"sampled exploration (strategy={self.strategy}): outcome set "
                "is a statistical under-approximation; 'forbidden' verdicts "
                "are unverified"
            )
        return None

    @property
    def matches_expectation(self) -> Optional[bool]:
        # A truncated exploration may simply not have reached the outcome
        # that decides the verdict; refuse to confirm or deny.
        if self.expected is None or self.verdict is None or self.truncated:
            return None
        if self.sampled:
            # One-sided check: a sampled 'allowed' rests on a concrete
            # witness, so it can confirm an expected 'allowed' or expose
            # an outcome the oracle forbids; a sampled 'forbidden' may
            # just mean the walks missed the witness — abstain.
            from ..litmus.test import Verdict

            if self.verdict is Verdict.ALLOWED:
                return self.verdict is self.expected
            return None
        return self.verdict is self.expected

    def describe(self) -> str:
        tail = self.status if not self.ok else (self.verdict.value if self.verdict else "-")
        if self.ok and self.truncated:
            tail += "!"
        return (
            f"{self.name:28s} {self.model:16s} {self.arch.value:7s} "
            f"{tail:9s} {self.elapsed_seconds:.3f}s{' (cached)' if self.cached else ''}"
            f"{' [TRUNCATED]' if self.truncated else ''}"
            f"{' [SAMPLED]' if self.sampled else ''}"
        )


def _stats_dict(stats: object) -> dict:
    """Explorer diagnostics as a JSON-friendly dict.

    Wall time is dropped (``JobResult.elapsed_seconds`` records it): the
    remaining counters are deterministic, so results compare bit-identical
    between serial, parallel, and cached runs.
    """
    out = {}
    for f in dataclasses.fields(stats):
        if f.name == "elapsed_seconds":
            continue
        value = getattr(stats, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def execute_job(
    job: Job,
    timeout: Optional[float] = None,
    *,
    capture_errors: bool = True,
) -> JobResult:
    """Run one job to completion, capturing timeouts and errors.

    With ``capture_errors`` (the scheduler's mode) a failing or timed-out
    job yields a ``JobResult`` with the corresponding status instead of
    raising, so one bad job never poisons a batch.

    Every log record emitted while the job runs carries the job's
    fingerprint prefix and model (contextvars correlation), and the
    job-level counters/histograms are recorded here — once per job.
    """
    with bind(job=job.fingerprint()[:12], model=job.model, test=job.test.name):
        result = _execute_job_inner(job, timeout, capture_errors=capture_errors)
    _JOBS_EXECUTED.inc(model=job.model, status=result.status)
    _JOB_SECONDS.observe(result.elapsed_seconds, model=job.model)
    return result


def _execute_job_inner(
    job: Job,
    timeout: Optional[float],
    *,
    capture_errors: bool,
) -> JobResult:
    regs, locs = job.observables()
    start = time.perf_counter()
    try:
        with _deadline(timeout):
            if job.model in ("promising", "promising-naive"):
                cfg = job.effective_explore_config()
                runner = explore_naive if job.model == "promising-naive" else explore
                result = runner(job.test.program, cfg)
            elif job.model == "axiomatic":
                result = enumerate_axiomatic_outcomes(
                    job.test.program, job.effective_axiomatic_config()
                )
            else:
                result = explore_flat(job.test.program, job.effective_flat_config())
    except JobTimeout as exc:
        return JobResult(
            name=job.test.name,
            model=job.model,
            arch=job.arch,
            status=STATUS_TIMEOUT,
            outcomes=None,
            verdict=None,
            expected=job.test.expected_verdict(job.arch),
            elapsed_seconds=time.perf_counter() - start,
            error=str(exc),
            fingerprint=job.fingerprint(),
        )
    except Exception as exc:
        if not capture_errors:
            raise
        return JobResult(
            name=job.test.name,
            model=job.model,
            arch=job.arch,
            status=STATUS_ERROR,
            outcomes=None,
            verdict=None,
            expected=job.test.expected_verdict(job.arch),
            elapsed_seconds=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=4)}",
            fingerprint=job.fingerprint(),
        )
    elapsed = time.perf_counter() - start
    outcomes = result.outcomes.project(regs, locs)
    return JobResult(
        name=job.test.name,
        model=job.model,
        arch=job.arch,
        status=STATUS_OK,
        outcomes=outcomes,
        verdict=job.test.evaluate(outcomes),
        expected=job.test.expected_verdict(job.arch),
        elapsed_seconds=elapsed,
        stats=_stats_dict(result.stats),
        fingerprint=job.fingerprint(),
    )


# ---------------------------------------------------------------------------
# JSON (de)serialization — shared by the cache and the report writer.
# ---------------------------------------------------------------------------


def outcome_to_json(outcome: Outcome) -> dict:
    return {
        "registers": [[[reg, value] for reg, value in regs] for regs in outcome.registers],
        "memory": [[loc, value] for loc, value in outcome.memory],
    }


def outcome_from_json(data: Mapping) -> Outcome:
    return Outcome(
        registers=tuple(
            tuple((reg, value) for reg, value in regs) for regs in data["registers"]
        ),
        memory=tuple((loc, value) for loc, value in data["memory"]),
    )


def result_to_json(result: JobResult) -> dict:
    return {
        "name": result.name,
        "model": result.model,
        "arch": result.arch.value,
        "status": result.status,
        "verdict": result.verdict.value if result.verdict else None,
        "expected": result.expected.value if result.expected else None,
        "elapsed_seconds": result.elapsed_seconds,
        "stats": result.stats,
        "error": result.error,
        "fingerprint": result.fingerprint,
        "outcomes": (
            None
            if result.outcomes is None
            else sorted(
                (outcome_to_json(o) for o in result.outcomes),
                key=lambda d: (d["registers"], d["memory"]),
            )
        ),
    }


def result_from_json(data: Mapping) -> JobResult:
    from ..litmus.test import Verdict

    return JobResult(
        name=data["name"],
        model=data["model"],
        arch=Arch(data["arch"]),
        status=data["status"],
        outcomes=(
            None
            if data["outcomes"] is None
            else OutcomeSet(outcome_from_json(o) for o in data["outcomes"])
        ),
        verdict=Verdict(data["verdict"]) if data["verdict"] else None,
        expected=Verdict(data["expected"]) if data["expected"] else None,
        elapsed_seconds=data["elapsed_seconds"],
        stats=dict(data.get("stats") or {}),
        error=data.get("error", ""),
        fingerprint=data.get("fingerprint", ""),
    )


__all__ = [
    "FINGERPRINT_VERSION",
    "MODELS",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "STATUS_ERROR",
    "Job",
    "JobResult",
    "JobTimeout",
    "execute_job",
    "timeouts_enforceable",
    "outcome_to_json",
    "outcome_from_json",
    "result_to_json",
    "result_from_json",
]
