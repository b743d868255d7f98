"""High-level sweep orchestration: tests × models → scheduler → report.

This is what the ``promising-arm sweep`` subcommand and the benchmark
batteries call: expand a battery of litmus tests across the requested
models, push the whole job list through the scheduler (parallel and
cached as configured), and produce the structured report artifact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..axiomatic.model import AxiomaticConfig
from ..flat.explorer import FlatConfig
from ..lang.kinds import Arch
from ..obs.logging import get_logger, log_event
from ..obs.tracing import span
from ..promising.exhaustive import ExploreConfig

_log = get_logger("harness.sweep")

if TYPE_CHECKING:  # litmus imports harness (runner); keep ours lazy.
    from ..distrib.coordinator import DistribConfig
    from ..litmus.test import LitmusTest
from .cache import ResultCache, open_cache
from .jobs import DEFAULT_MODELS, Job, JobResult
from .report import build_report, describe_dedup, write_report
from .scheduler import BatchStats, run_jobs


@dataclass
class SweepResult:
    """Everything a sweep produced."""

    jobs: list[Job]
    results: list[JobResult]
    report: dict
    stats: BatchStats
    wall_seconds: float

    @property
    def mismatches(self) -> list[dict]:
        return self.report["mismatches"]

    @property
    def ok(self) -> bool:
        return self.report["ok"] and not self.mismatches

    def describe(self) -> str:
        statuses = ", ".join(
            f"{count} {status}" for status, count in sorted(self.report["status_counts"].items())
        )
        store_failures = self.report["cache"].get("store_failures", 0)
        lines = [
            f"{self.report['n_jobs']} jobs ({statuses}) over "
            f"{'+'.join(self.report['models'])} in {self.wall_seconds:.1f}s "
            f"(cache hit rate {self.report['cache']['hit_rate'] * 100:.0f}%"
            + (f", {store_failures} store failures" if store_failures else "")
            + ")"
        ]
        lines.append("  " + describe_dedup(self.report))
        truncated = self.report.get("truncated_jobs", 0)
        if truncated:
            lines.append(
                f"  WARNING: {truncated} truncated job(s) — outcome sets "
                "incomplete, verdicts unverified (see per-job 'warning')"
            )
        sampled = self.report.get("sampled_jobs", 0)
        if sampled:
            from ..explore import is_exhaustive

            sampling = [s for s in self.report.get("strategies", []) if not is_exhaustive(s)]
            lines.append(
                f"  note: {sampled} sampled job(s) ({'+'.join(sampling)}) — "
                "outcome sets are statistical under-approximations"
            )
        for mismatch in self.mismatches:
            lines.append(
                f"  mismatch: {mismatch['test']} [{mismatch['arch']}] "
                f"{mismatch['models'][0]} vs {mismatch['models'][1]}"
            )
        return "\n".join(lines)


def build_jobs(
    tests: Sequence[LitmusTest],
    models: Sequence[str] = DEFAULT_MODELS,
    arch: Arch = Arch.ARM,
    *,
    explore_config: Optional[ExploreConfig] = None,
    axiomatic_config: Optional[AxiomaticConfig] = None,
    flat_config: Optional[FlatConfig] = None,
) -> list[Job]:
    """One job per test × model, grouped by test (models adjacent)."""
    return [
        Job(
            test=test,
            model=model,
            arch=arch,
            explore_config=explore_config,
            axiomatic_config=axiomatic_config,
            flat_config=flat_config,
        )
        for test in tests
        for model in models
    ]


def run_sweep(
    tests: Sequence[LitmusTest],
    models: Sequence[str] = DEFAULT_MODELS,
    arch: Arch = Arch.ARM,
    *,
    workers: int = 1,
    timeout: Optional[float] = None,
    cache: Union[None, str, Path, ResultCache] = None,
    report_path: Union[None, str, Path] = None,
    name: str = "litmus-sweep",
    explore_config: Optional[ExploreConfig] = None,
    axiomatic_config: Optional[AxiomaticConfig] = None,
    flat_config: Optional[FlatConfig] = None,
    distrib: Optional[DistribConfig] = None,
) -> SweepResult:
    """Run a litmus battery across models and (optionally) write a report.

    With ``distrib`` set, the batch runs on a distributed work backend
    (fleet workers) instead of the in-process scheduler; results and
    report digests are bit-identical between the two paths.
    """
    cache = open_cache(cache)
    jobs = build_jobs(
        tests,
        models,
        arch,
        explore_config=explore_config,
        axiomatic_config=axiomatic_config,
        flat_config=flat_config,
    )
    log_event(
        _log,
        "sweep started",
        sweep=name,
        n_tests=len(tests),
        n_jobs=len(jobs),
        models=list(models),
        arch=arch.value,
        workers=workers,
    )
    stats = BatchStats()
    distrib_info = None
    start = time.perf_counter()
    with span("sweep", name=name, jobs=len(jobs)):
        if distrib is not None:
            from ..distrib.coordinator import run_distributed

            run = run_distributed(jobs, config=distrib, timeout=timeout, cache=cache, stats=stats)
            results, distrib_info = run.results, run.info
        else:
            results = run_jobs(jobs, workers=workers, timeout=timeout, cache=cache, stats=stats)
    wall = time.perf_counter() - start
    extra = {
        "workers": workers,
        "timeout_seconds": timeout,
        "arch": arch.value,
        "n_tests": len(tests),
    }
    if distrib_info is not None:
        extra["distrib"] = distrib_info
    report = build_report(
        jobs,
        results,
        name=name,
        wall_seconds=wall,
        cache=cache,
        extra=extra,
    )
    if report_path is not None:
        write_report(report, report_path)
    log_event(
        _log,
        "sweep finished",
        sweep=name,
        n_jobs=len(jobs),
        seconds=round(wall, 3),
        statuses=dict(stats.statuses),
        cache_hits=stats.cache_hits,
        mismatches=len(report["mismatches"]),
    )
    return SweepResult(jobs=jobs, results=results, report=report, stats=stats, wall_seconds=wall)


__all__ = ["DEFAULT_MODELS", "SweepResult", "build_jobs", "run_sweep"]
