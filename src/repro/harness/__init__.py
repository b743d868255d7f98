"""Batch-execution engine for litmus jobs (the sweep harness).

The paper's headline experiment — validating the promising model against
the axiomatic one on thousands of generated litmus tests (§7) — is
embarrassingly parallel and repeats largely unchanged work between runs.
This subsystem turns every sweep in the codebase into a batch of
serializable :class:`Job`\\ s pushed through a scheduler with:

* a ``multiprocessing`` worker pool with per-job timeouts and a serial
  fallback (``workers=1``) producing bit-identical results;
* a persistent on-disk :class:`ResultCache` keyed by content fingerprint
  (program + condition + projection + configuration), so warm reruns skip
  all already-computed outcome sets;
* structured JSON sweep reports (per-job timing, outcome counts,
  verdicts, mismatches, cache hit rate) for ``BENCH_*.json`` artifacts.

Public names resolve on first use (see :mod:`repro._lazy`), so importing
one submodule never drags in the pool, the sweep or the fuzz driver.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".jobs": (
            "FINGERPRINT_VERSION",
            "MODELS",
            "DEFAULT_MODELS",
            "STATUS_ERROR",
            "STATUS_OK",
            "STATUS_TIMEOUT",
            "Job",
            "JobResult",
            "JobTimeout",
            "execute_job",
            "result_from_json",
            "result_to_json",
            "timeouts_enforceable",
        ),
        ".cache": ("LruResultCache", "ResultCache", "open_cache"),
        ".scheduler": ("BatchStats", "WorkerPool", "default_workers", "run_jobs"),
        ".report": (
            "DEDUP_COUNTERS",
            "REPORT_SCHEMA_VERSION",
            "build_report",
            "describe_dedup",
            "find_mismatches",
            "outcome_set_digest",
            "write_report",
        ),
        ".sweep": ("SweepResult", "build_jobs", "run_sweep"),
        ".fuzz": (
            "CONTAINMENT_PAIRS",
            "EQUALITY_PAIRS",
            "FUZZ_MODELS",
            "FuzzResult",
            "build_fuzz_jobs",
            "differential_mismatches",
            "run_fuzz",
        ),
    },
)
