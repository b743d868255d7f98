"""Running litmus tests under the models and comparing the results.

The runner wires a :class:`~repro.litmus.test.LitmusTest` to one of the
three implementations (promising, axiomatic, flat) through the sweep
harness (:mod:`repro.harness`), which takes care of the projection onto
the observables mentioned by the test condition, of keeping
condition-observed locations shared when the promising explorer's
local-location optimisation is enabled, and — for batteries — of worker
pools, per-job timeouts, and the persistent result cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..lang.kinds import Arch
from ..outcomes import OutcomeSet
from ..promising.exhaustive import ExploreConfig
from ..harness.jobs import Job, JobResult, execute_job
from .test import LitmusTest, Verdict

if TYPE_CHECKING:  # a single promising run loads neither the axiomatic model nor the pool
    from ..axiomatic.model import AxiomaticConfig
    from ..harness.cache import ResultCache


@dataclass
class RunResult:
    """Result of running one litmus test under one model."""

    test: LitmusTest
    model: str
    arch: Arch
    outcomes: OutcomeSet
    verdict: Verdict
    expected: Optional[Verdict]
    elapsed_seconds: float
    #: Explorer diagnostics (states, dedup/cert-memo counters, truncation).
    stats: dict = field(default_factory=dict)

    @property
    def truncated(self) -> bool:
        """True when the exploration hit a budget: verdict unverified."""
        return bool(self.stats.get("truncated"))

    @property
    def matches_expectation(self) -> Optional[bool]:
        if self.expected is None or self.truncated:
            return None
        return self.verdict is self.expected

    def describe(self) -> str:
        expectation = (
            "?" if self.expected is None else ("ok" if self.matches_expectation else "MISMATCH")
        )
        return (
            f"{self.test.name:28s} {self.model:10s} {self.arch.value:7s} "
            f"{self.verdict.value:9s} [{expectation}] {self.elapsed_seconds:.3f}s"
            f"{' [TRUNCATED]' if self.truncated else ''}"
        )


def _run_result(test: LitmusTest, result: JobResult) -> RunResult:
    return RunResult(
        test=test,
        model=result.model,
        arch=result.arch,
        outcomes=result.outcomes,
        verdict=result.verdict,
        expected=result.expected,
        elapsed_seconds=result.elapsed_seconds,
        stats=dict(result.stats),
    )


def run_promising(
    test: LitmusTest,
    arch: Arch = Arch.ARM,
    config: Optional[ExploreConfig] = None,
    naive: bool = False,
) -> RunResult:
    """Run a litmus test under the promising exhaustive explorer."""
    job = Job(
        test=test,
        model="promising-naive" if naive else "promising",
        arch=arch,
        explore_config=config,
    )
    return _run_result(test, execute_job(job, capture_errors=False))


def run_axiomatic(
    test: LitmusTest,
    arch: Arch = Arch.ARM,
    config: Optional[AxiomaticConfig] = None,
) -> RunResult:
    """Run a litmus test under the axiomatic enumerator (the herd role)."""
    job = Job(test=test, model="axiomatic", arch=arch, axiomatic_config=config)
    return _run_result(test, execute_job(job, capture_errors=False))


def run_flat(test: LitmusTest, arch: Arch = Arch.ARM, **kwargs) -> RunResult:
    """Run a litmus test under the Flat-style baseline model."""
    from ..flat.explorer import FlatConfig

    job = Job(test=test, model="flat", arch=arch, flat_config=FlatConfig(arch=arch, **kwargs))
    return _run_result(test, execute_job(job, capture_errors=False))


@dataclass
class AgreementReport:
    """Summary of a model-vs-model litmus agreement run (§7)."""

    total: int = 0
    agreeing: int = 0
    disagreements: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def agreement_rate(self) -> float:
        return self.agreeing / self.total if self.total else 1.0

    def describe(self) -> str:
        lines = [
            f"{self.agreeing}/{self.total} tests agree "
            f"({self.agreement_rate * 100:.1f}%) in {self.elapsed_seconds:.1f}s"
        ]
        lines.extend(f"  disagreement: {name}" for name in self.disagreements)
        return "\n".join(lines)


def check_agreement(
    tests: Sequence[LitmusTest],
    arch: Arch = Arch.ARM,
    promising_config: Optional[ExploreConfig] = None,
    axiomatic_config: Optional[AxiomaticConfig] = None,
    *,
    workers: int = 1,
    timeout: Optional[float] = None,
    cache: Union[None, str, Path, ResultCache] = None,
) -> AgreementReport:
    """Compare promising and axiomatic outcome sets on a battery of tests.

    This is the reproduction of the paper's experimental-equivalence check
    (the 6,500-test ARM / 7,000-test RISC-V agreement of §7): the two
    models must produce identical *projected* outcome sets on every test.

    The battery is dispatched through the sweep harness: ``workers`` runs
    it on a process pool (the report is identical to the serial run),
    ``cache`` reuses previously computed outcome sets across runs, and a
    per-job ``timeout`` turns a runaway test into a recorded disagreement
    instead of a hung sweep.
    """
    from ..harness.scheduler import run_jobs

    tests = list(tests)  # tolerate iterator inputs: we traverse twice
    jobs: list[Job] = []
    for test in tests:
        jobs.append(Job(test=test, model="promising", arch=arch, explore_config=promising_config))
        jobs.append(Job(test=test, model="axiomatic", arch=arch, axiomatic_config=axiomatic_config))

    report = AgreementReport()
    start = time.perf_counter()
    results = run_jobs(jobs, workers=workers, timeout=timeout, cache=cache)
    for index, test in enumerate(tests):
        promising, axiomatic = results[2 * index], results[2 * index + 1]
        report.total += 1
        if not (promising.ok and axiomatic.ok):
            statuses = f"{promising.status}/{axiomatic.status}"
            report.disagreements.append(f"{test.name} ({statuses})")
        elif promising.sampled:
            # A sampled promising run under-approximates: containment is
            # the strongest relation the equivalence check can demand of
            # it (equality would flag every outcome the walks missed).
            if set(promising.outcomes) <= set(axiomatic.outcomes):
                report.agreeing += 1
            else:
                report.disagreements.append(f"{test.name} (sampled outcomes not contained)")
        elif set(promising.outcomes) == set(axiomatic.outcomes):
            report.agreeing += 1
        else:
            report.disagreements.append(test.name)
    report.elapsed_seconds = time.perf_counter() - start
    return report


__all__ = [
    "RunResult",
    "run_promising",
    "run_axiomatic",
    "run_flat",
    "AgreementReport",
    "check_agreement",
]
