"""Command-line interface: ``promising-arm``.

Sub-commands mirror how the paper's rmem-based tool is used:

* ``run`` — exhaustively explore a litmus file (or a catalogue test) and
  print the allowed final states;
* ``interactive`` — step through an execution transition by transition;
* ``catalogue`` — list the built-in litmus tests and their verdicts;
* ``agreement`` — compare the promising and axiomatic models on the
  generated litmus battery;
* ``sweep`` — run a battery across several models through the parallel
  sweep harness, with a persistent result cache and a JSON report;
* ``fuzz`` — differential fuzzing: run the cycle-generated corpus across
  models and architectures, reporting every cross-model disagreement as a
  counterexample with its reproducing test source;
* ``serve`` — start the long-lived exploration service: an HTTP/JSON
  front-end over a process-resident LRU, the persistent result cache,
  and a warm worker pool, with request coalescing and micro-batching;
* ``work`` — join a distributed fleet: claim leased litmus jobs from a
  shared work backend (``sweep``/``fuzz`` ``--distributed`` enqueue
  them), execute them, and write results into the shared cache.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
from pathlib import Path

from ..explore import BACKENDS, DEFAULT_BACKEND, DEFAULT_STRATEGY, STRATEGIES
from ..harness import DEFAULT_MODELS, MODELS, run_fuzz, run_sweep
from ..lang.kinds import ARCH_ALIASES, Arch, parse_arch
from ..obs import LOG_FORMATS, configure_logging
from ..litmus import (
    all_tests,
    attach_expected,
    check_agreement,
    generate_battery,
    generate_cycle_battery,
    get_test,
    run_axiomatic,
    run_promising,
)
from ..litmus.cycles import FAMILIES_BY_NAME
from ..litmus.format import parse_litmus
from ..promising import ExploreConfig, InteractiveSession


def _arch(name: str) -> Arch:
    # Resolved at parse time, so an unknown spelling exits 2 with the
    # known ones instead of silently exploring ARM.
    arch = parse_arch(name)
    if arch is None:
        raise argparse.ArgumentTypeError(
            f"unknown arch {name!r}; choose from {', '.join(ARCH_ALIASES)}"
        )
    return arch


def _positive_int(text: str) -> int:
    # Reject out-of-range loop bounds and sampling knobs at parse time
    # (exit 2, matching the service's 400) instead of exploring with a
    # meaningless unroll or letting RandomWalks raise mid-exploration.
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _load_test(args: argparse.Namespace):
    if args.file:
        text = Path(args.file).read_text()
        parsed = parse_litmus(text, unroll_bound=args.loop_bound)
        return parsed.test, parsed.arch
    return get_test(args.test), args.arch


def _search_kwargs(args: argparse.Namespace) -> dict:
    """Kernel-level knobs shared by every explorer config the CLI builds."""
    return dict(
        loop_bound=args.loop_bound,
        strategy=getattr(args, "strategy", DEFAULT_STRATEGY),
        samples=getattr(args, "samples", 256),
        sample_depth=getattr(args, "sample_depth", 4096),
        seed=getattr(args, "seed", 0),
        backend=getattr(args, "backend", DEFAULT_BACKEND),
    )


def _explore_config(args: argparse.Namespace) -> ExploreConfig:
    return ExploreConfig(**_search_kwargs(args))


def _flat_config(args: argparse.Namespace) -> "FlatConfig":
    from ..flat import FlatConfig

    return FlatConfig(**_search_kwargs(args))


def _distrib_config(args: argparse.Namespace):
    """``--distributed`` knobs → a :class:`DistribConfig` (or ``None``)."""
    if not getattr(args, "distributed", False):
        return None
    from ..distrib import DistribConfig
    from ..harness import default_workers

    if getattr(args, "external_workers", False):
        fleet = 0
    else:
        fleet = args.workers if args.workers > 0 else default_workers()
    return DistribConfig(
        backend_url=getattr(args, "backend_url", None) or "",
        workers=fleet,
        stall_timeout=getattr(args, "stall_timeout", None),
    )


def cmd_run(args: argparse.Namespace) -> int:
    test, arch = _load_test(args)
    result = run_promising(test, arch, _explore_config(args))
    print(f"test      : {test.name}")
    print(f"model     : promising ({arch})")
    print(f"condition : {test.condition!r}")
    verdict = result.verdict.value
    if result.truncated:
        verdict += "  (WARNING: exploration truncated, verdict unverified)"
    elif result.stats.get("strategy") == "sample":
        verdict += "  (sampled: under-approximation, 'forbidden' unverified)"
    print(f"verdict   : {verdict}")
    if result.stats:
        counters = ", ".join(
            f"{k}={result.stats[k]}"
            for k in ("promise_states", "dedup_hits", "cert_memo_hits", "cert_calls")
            if k in result.stats
        )
        print(f"stats     : {counters}")
        if result.stats.get("strategy") == "sample":
            print(
                f"sampling  : {result.stats.get('samples_run', 0)} walks, "
                f"{result.stats.get('unique_sample_states', 0)} unique states, "
                f"coverage est. {result.stats.get('coverage_estimate')}"
            )
    print(f"time      : {result.elapsed_seconds:.3f}s")
    print("final states:")
    print("  " + result.outcomes.describe(test.program.loc_names).replace("\n", "\n  "))
    if args.axiomatic:
        ax = run_axiomatic(test, arch)
        if result.stats.get("strategy") == "sample":
            # A sample is a sound under-approximation: containment is the
            # strongest checkable relation (equality would cry wolf on
            # every outcome the walks happened to miss).
            contained = set(result.outcomes) <= set(ax.outcomes)
            relation = "contained in axiomatic" if contained else "NOT CONTAINED in axiomatic"
            print(f"axiomatic verdict: {ax.verdict.value} (sampled outcomes {relation})")
        else:
            agree = set(ax.outcomes) == set(result.outcomes)
            print(
                f"axiomatic verdict: {ax.verdict.value} "
                f"(outcome sets {'agree' if agree else 'DIFFER'})"
            )
    return 0


def cmd_interactive(args: argparse.Namespace) -> int:
    test, arch = _load_test(args)
    session = InteractiveSession(test.program, arch, loop_bound=args.loop_bound)
    print(f"interactive exploration of {test.name} ({arch}); commands: <n>, undo, reset, quit")
    while True:
        print()
        print(session.show())
        if session.finished or session.stuck:
            return 0
        try:
            command = input("step> ").strip()
        except EOFError:
            return 0
        if command in ("q", "quit", "exit"):
            return 0
        if command == "undo":
            session.undo()
        elif command == "reset":
            session.reset()
        elif command.isdigit():
            session.step(int(command))
        else:
            print(f"unknown command {command!r}")


def cmd_catalogue(args: argparse.Namespace) -> int:
    arch = args.arch
    for test in all_tests():
        expected = test.expected_verdict(arch)
        print(f"{test.name:24s} {expected.value if expected else '-':10s} {test.description}")
    return 0


def cmd_agreement(args: argparse.Namespace) -> int:
    arch = args.arch
    tests = generate_battery(max_tests=args.max_tests)
    report = check_agreement(
        tests,
        arch,
        _explore_config(args),
        workers=args.workers,
        cache=args.cache_dir,
        timeout=args.timeout,
    )
    print(report.describe())
    return 0 if not report.disagreements else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    arch = args.arch
    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    unknown = [m for m in models if m not in MODELS]
    if unknown:
        print(f"unknown model(s) {', '.join(unknown)}; choose from {', '.join(MODELS)}")
        return 2
    if not models:
        print(f"no models given; choose from {', '.join(MODELS)}")
        return 2
    tests = generate_battery(max_tests=args.max_tests)
    if args.catalogue:
        tests = tests + [t for t in all_tests() if t.program.n_threads <= 3]
    from ..axiomatic import AxiomaticConfig

    sweep = run_sweep(
        tests,
        models,
        arch,
        workers=args.workers,
        timeout=args.timeout,
        cache=args.cache_dir,
        report_path=args.report,
        explore_config=_explore_config(args),
        axiomatic_config=AxiomaticConfig(loop_bound=args.loop_bound),
        flat_config=_flat_config(args),
        distrib=_distrib_config(args),
    )
    print(sweep.describe())
    if args.report:
        print(f"report written to {args.report}")
    return 0 if sweep.ok else 1


_ARCH_NAMES = tuple(ARCH_ALIASES)


def cmd_fuzz(args: argparse.Namespace) -> int:
    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    unknown = [m for m in models if m not in MODELS]
    if unknown:
        print(f"unknown model(s) {', '.join(unknown)}; choose from {', '.join(MODELS)}")
        return 2
    if not models:
        print(f"no models given; choose from {', '.join(MODELS)}")
        return 2
    arch_names = [a.strip() for a in args.archs.split(",") if a.strip()]
    unknown_archs = [a for a in arch_names if a.lower() not in _ARCH_NAMES]
    if unknown_archs:
        print(
            f"unknown arch(s) {', '.join(unknown_archs)}; "
            f"choose from {', '.join(_ARCH_NAMES)}"
        )
        return 2
    if not arch_names:
        print(f"no architectures given; choose from {', '.join(_ARCH_NAMES)}")
        return 2
    archs = tuple(parse_arch(a) for a in arch_names)
    families = None
    if args.families:
        families = [f.strip() for f in args.families.split(",") if f.strip()]
        unknown_families = [f for f in families if f not in FAMILIES_BY_NAME]
        if unknown_families:
            print(
                f"unknown cycle family(ies) {', '.join(unknown_families)}; "
                f"choose from {', '.join(FAMILIES_BY_NAME)}"
            )
            return 2
    from ..axiomatic import AxiomaticConfig

    tests = generate_cycle_battery(
        families=families, max_tests=args.max_tests, max_per_family=args.max_per_family
    )
    with contextlib.ExitStack() as stack:
        cache_dir = args.cache_dir
        if args.expected and cache_dir is None:
            # The oracle sweep and the fuzzed axiomatic jobs share their
            # fingerprints; an ephemeral cache makes the oracle free
            # instead of enumerating the whole corpus twice.
            cache_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="promising-fuzz-cache-")
            )
        if args.expected:
            # Attach the axiomatic-oracle verdict per architecture; the
            # fuzz run then also checks each model against it.  The oracle
            # uses the same config as the fuzzed axiomatic jobs, so the
            # cache computes each outcome set only once.
            tests = attach_expected(
                tests,
                archs,
                workers=args.workers,
                timeout=args.timeout,
                cache=cache_dir,
                axiomatic_config=AxiomaticConfig(loop_bound=args.loop_bound),
            )

        fuzz = run_fuzz(
            tests,
            models,
            archs,
            workers=args.workers,
            timeout=args.timeout,
            cache=cache_dir,
            report_path=args.report,
            explore_config=_explore_config(args),
            axiomatic_config=AxiomaticConfig(loop_bound=args.loop_bound),
            flat_config=_flat_config(args),
            distrib=_distrib_config(args),
        )
    print(fuzz.describe())
    if args.report:
        print(f"report written to {args.report}")
    return 0 if fuzz.ok else 1


def cmd_work(args: argparse.Namespace) -> int:
    from ..distrib import run_worker

    stats = run_worker(
        args.backend_url,
        args.cache_dir,
        worker_id=args.worker_id,
        lease_seconds=args.lease_seconds,
        poll_seconds=args.poll_seconds,
        max_jobs=args.max_jobs,
        idle_exit_seconds=args.idle_exit,
    )
    print(
        f"worker {stats.worker_id}: {stats.claimed} claimed, "
        f"{stats.computed} computed, {stats.cache_hits} cache hits, "
        f"{stats.failures} failures, {stats.lost_leases} lost leases"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from ..service import ServiceConfig, run_server

    config = ServiceConfig(
        workers=args.workers,
        batch_max_delay=args.batch_delay_ms / 1000.0,
        batch_max_size=args.batch_max_size,
        lru_capacity=args.lru_capacity,
        cache_dir=args.cache_dir,
        default_timeout=args.timeout,
        max_pending_jobs=args.max_pending_jobs,
        quota_tokens=args.quota_tokens,
        quota_refill_per_second=args.quota_refill,
        queue_url=args.queue_url,
    )
    run_server(config, args.host, args.port)
    return 0


def _add_distrib_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--distributed", action="store_true",
                        help="run the batch on a distributed work backend: --workers "
                             "fleet processes are spawned locally unless "
                             "--external-workers attaches to an existing fleet")
    parser.add_argument("--backend-url", default=None,
                        help="work backend shared with the fleet (sqlite:///path or "
                             "http://host:port; default: ephemeral SQLite tmpdir)")
    parser.add_argument("--external-workers", action="store_true",
                        help="spawn no local workers; an external fleet "
                             "(promising-arm work) serves the queue")
    parser.add_argument("--stall-timeout", type=float, default=None,
                        help="abort if no distributed item completes for this long")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promising-arm",
        description="Promising-ARM/RISC-V exhaustive and interactive exploration tool",
    )
    parser.add_argument("--arch", type=_arch, default=Arch.ARM,
                        help="architecture: arm (default) or riscv; "
                             f"spellings: {', '.join(ARCH_ALIASES)}")
    parser.add_argument("--loop-bound", type=_positive_int, default=2,
                        help="loop unrolling bound")
    parser.add_argument("--strategy", choices=STRATEGIES, default=DEFAULT_STRATEGY,
                        help="search strategy: dfs enumerates exhaustively, "
                             "sample runs seeded bounded random walks "
                             "(sound under-approximation for huge state spaces)")
    parser.add_argument("--samples", type=_positive_int, default=256,
                        help="random walks performed by --strategy sample")
    parser.add_argument("--sample-depth", type=_positive_int, default=4096,
                        help="step bound of one random walk before restart")
    parser.add_argument("--seed", type=int, default=0,
                        help="PRNG seed of --strategy sample (same seed, same outcomes)")
    parser.add_argument("--backend", choices=BACKENDS, default=DEFAULT_BACKEND,
                        help="execution backend: packed (default) compiles the "
                             "program once and explores interned integer-tuple "
                             "states; object walks the readable reference "
                             "dataclass states (same outcomes, slower)")
    parser.add_argument("--log-format", choices=LOG_FORMATS, default="text",
                        help="structured log output: text (default) or json "
                             "(one JSON object per line on stderr)")
    parser.add_argument("--log-level", default="info",
                        help="log verbosity: debug, info (default), warning, error")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="exhaustively explore a litmus test")
    run_parser.add_argument("--file", help="path to a .litmus file")
    run_parser.add_argument("--test", help="name of a catalogue test", default="MP")
    run_parser.add_argument("--axiomatic", action="store_true", help="also run the axiomatic model")
    run_parser.set_defaults(func=cmd_run)

    inter_parser = sub.add_parser("interactive", help="step through executions interactively")
    inter_parser.add_argument("--file", help="path to a .litmus file")
    inter_parser.add_argument("--test", help="name of a catalogue test", default="MP")
    inter_parser.set_defaults(func=cmd_interactive)

    cat_parser = sub.add_parser("catalogue", help="list built-in litmus tests")
    cat_parser.set_defaults(func=cmd_catalogue)

    agree_parser = sub.add_parser("agreement", help="promising vs axiomatic agreement run")
    agree_parser.add_argument("--max-tests", type=int, default=40)
    agree_parser.add_argument("--workers", type=int, default=1,
                              help="worker processes (0 = one per CPU)")
    agree_parser.add_argument("--cache-dir", default=None, help="persistent result cache directory")
    agree_parser.add_argument("--timeout", type=float, default=None,
                              help="per-job timeout in seconds")
    agree_parser.set_defaults(func=cmd_agreement)

    sweep_parser = sub.add_parser(
        "sweep", help="run a litmus battery across models via the parallel harness"
    )
    sweep_parser.add_argument("--max-tests", type=int, default=40,
                              help="size of the generated battery")
    sweep_parser.add_argument("--models", default=",".join(DEFAULT_MODELS),
                              help="comma-separated: promising,axiomatic,flat,promising-naive")
    sweep_parser.add_argument("--workers", type=int, default=1,
                              help="worker processes (0 = one per CPU)")
    sweep_parser.add_argument("--cache-dir", default=None, help="persistent result cache directory")
    sweep_parser.add_argument("--timeout", type=float, default=None,
                              help="per-job timeout in seconds")
    sweep_parser.add_argument("--report", default=None,
                              help="write a JSON sweep report to this path")
    sweep_parser.add_argument("--catalogue", action="store_true",
                              help="also include the hand-written catalogue tests "
                                   "(those with at most 3 threads)")
    _add_distrib_args(sweep_parser)
    sweep_parser.set_defaults(func=cmd_sweep)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the cycle-generated corpus across models/archs",
    )
    fuzz_parser.add_argument("--max-tests", type=int, default=None,
                             help="truncate the generated corpus (default: full)")
    fuzz_parser.add_argument("--max-per-family", type=int, default=64,
                             help="cap per cycle family (default 64)")
    fuzz_parser.add_argument("--families", default=None,
                             help="comma-separated cycle families (default: all)")
    fuzz_parser.add_argument("--models", default="promising,axiomatic",
                             help="comma-separated: promising,axiomatic,flat,promising-naive")
    fuzz_parser.add_argument("--archs", default="arm,riscv",
                             help="comma-separated architectures (default arm,riscv)")
    fuzz_parser.add_argument("--workers", type=int, default=1,
                             help="worker processes (0 = one per CPU)")
    fuzz_parser.add_argument("--cache-dir", default=None, help="persistent result cache directory")
    fuzz_parser.add_argument("--timeout", type=float, default=None,
                             help="per-job timeout in seconds")
    fuzz_parser.add_argument("--report", default=None, help="write a JSON fuzz report to this path")
    fuzz_parser.add_argument("--expected", action="store_true",
                             help="attach axiomatic-oracle expected verdicts to the corpus")
    _add_distrib_args(fuzz_parser)
    fuzz_parser.set_defaults(func=cmd_fuzz)

    work_parser = sub.add_parser(
        "work",
        help="join a distributed fleet: claim and execute leased litmus jobs",
    )
    work_parser.add_argument("--backend-url", required=True,
                             help="shared work backend: http://host:port (a promising-arm "
                                  "serve queue, no shared filesystem needed), "
                                  "sqlite:///path/to/queue.db "
                                  "(or a bare path)")
    work_parser.add_argument("--cache-dir", default=None,
                             help="shared persistent result cache directory")
    work_parser.add_argument("--worker-id", default=None,
                             help="stable worker identity (default host-pid)")
    work_parser.add_argument("--lease-seconds", type=float, default=30.0,
                             help="claim lease length; heartbeats extend it while running")
    work_parser.add_argument("--poll-seconds", type=float, default=0.1,
                             help="idle back-off between claim attempts")
    work_parser.add_argument("--max-jobs", type=int, default=None,
                             help="exit after claiming this many items (default: serve forever)")
    work_parser.add_argument("--idle-exit", type=float, default=None,
                             help="exit after the queue has been empty this long")
    work_parser.set_defaults(func=cmd_work)

    serve_parser = sub.add_parser(
        "serve",
        help="start the long-lived exploration service (HTTP/JSON, warm worker pool)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument("--port", type=int, default=8765,
                              help="bind port (0 = ephemeral, printed on start)")
    serve_parser.add_argument("--workers", type=int, default=2,
                              help="resident worker processes (<=1 = inline executor)")
    serve_parser.add_argument("--cache-dir", default=None,
                              help="persistent result cache directory (shared with sweeps)")
    serve_parser.add_argument("--lru-capacity", type=int, default=4096,
                              help="entries kept in the in-process LRU result cache")
    serve_parser.add_argument("--batch-max-size", type=int, default=16,
                              help="most cold jobs dispatched in one micro-batch")
    serve_parser.add_argument("--batch-delay-ms", type=float, default=10.0,
                              help="micro-batch accumulation window in milliseconds")
    serve_parser.add_argument("--timeout", type=float, default=60.0,
                              help="default per-job deadline in seconds")
    serve_parser.add_argument("--max-pending-jobs", type=int, default=1024,
                              help="admission control: answer 429 + Retry-After once this "
                                   "many jobs are queued or in flight (0 = unlimited)")
    serve_parser.add_argument("--quota-tokens", type=float, default=None,
                              help="per-client token-bucket capacity for /v1/explore, keyed "
                                   "on X-Client-Id (one token per job; default: quotas off)")
    serve_parser.add_argument("--quota-refill", type=float, default=1.0,
                              help="tokens refilled per second per client")
    serve_parser.add_argument("--queue-url", default=None,
                              help="ledger mounted at /v1/queue for HTTP fleets "
                                   "(sqlite:///path or memory://name; default: fresh "
                                   "in-memory queue)")
    serve_parser.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_format, args.log_level)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
