"""Command-line interface: ``promising-arm``.

Sub-commands mirror how the paper's rmem-based tool is used: ``run`` and
``interactive`` explore one litmus test, ``catalogue`` lists the built-in
ones, ``agreement``, ``sweep`` and ``fuzz`` run batteries across models
through the parallel harness, ``serve`` starts the exploration service
and ``work`` joins a distributed fleet.  ``docs/cli.md`` documents every
option.  The global search flags are derived from the option declarations
on :class:`~repro.explore.config.BaseSearchConfig`, and every numeric flag
is checked by the shared :mod:`repro.bounds` rule at parse time.

Each sub-command imports what it runs inside its own body: a cold
``run`` (one litmus test per process, as the paper's tool is used) loads
the promising explorer and nothing of the harness pool, the sweep/fuzz
drivers, the axiomatic or Flat models, the service or the fleet.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import Callable

from ..bounds import NON_NEGATIVE_INT, NON_NEGATIVE_NUMBER, POSITIVE_INT, POSITIVE_NUMBER, Bound
from ..explore.config import SEARCH_OPTIONS
from ..harness.jobs import DEFAULT_MODELS, MODELS
from ..lang.kinds import ARCH_ALIASES, Arch, parse_arch
from ..obs import LOG_FORMATS, LOG_LEVELS, configure_logging
from ..litmus import all_tests, get_test, run_axiomatic, run_promising
from ..promising.exhaustive import ExploreConfig


def _arch(name: str) -> Arch:
    # Resolved at parse time, so an unknown spelling exits 2 with the
    # known ones instead of silently exploring ARM.
    arch = parse_arch(name)
    if arch is None:
        raise argparse.ArgumentTypeError(
            f"unknown arch {name!r}; choose from {', '.join(ARCH_ALIASES)}"
        )
    return arch


def _bounded(bound) -> Callable[[str], float]:
    """argparse ``type=`` applying the shared bounds rule: a miss exits 2.  ``bound``
    may be a callable returning the rule, when it sits behind a costly import."""

    def parse(text: str) -> float:
        rule = bound() if callable(bound) else bound
        try:
            return rule.check(rule.kind(text))
        except ValueError:  # a BoundsError, or text that is not a `kind` at all
            raise argparse.ArgumentTypeError(f"must be {rule.describe()}, got {text!r}") from None

    return parse


def _service_deadline() -> Bound:
    # serve's default deadline takes the service's own request rule, so a
    # default outside it cannot turn every request into a 400.
    from ..service.core import ServiceConfig

    return ServiceConfig().timeout_bound()


def _names(what: str, known, key=str) -> Callable[[str], tuple[str, ...]]:
    """argparse ``type=`` for a comma-separated list of ``known`` names (or a callable
    returning them).  An empty list would run a vacuous 0-job battery: refused."""

    def parse(text: str) -> tuple[str, ...]:
        valid = known() if callable(known) else known
        names = tuple(name.strip() for name in text.split(",") if name.strip())
        unknown = [name for name in names if key(name) not in valid]
        if unknown or not names:
            problem = f"unknown {what} {', '.join(unknown)}" if unknown else f"no {what} given"
            raise argparse.ArgumentTypeError(f"{problem}; choose from {', '.join(valid)}")
        return names

    return parse


def _cycle_families() -> tuple[str, ...]:
    from ..litmus.cycles import FAMILIES_BY_NAME

    return tuple(FAMILIES_BY_NAME)


def _load_test(args: argparse.Namespace):
    if args.file:
        from ..litmus.format import parse_litmus

        text = Path(args.file).read_text()
        parsed = parse_litmus(text, unroll_bound=args.loop_bound)
        return parsed.test, parsed.arch
    return get_test(args.test), args.arch


#: The search options the CLI exposes as global flags.
_SEARCH_FLAGS = tuple(f.name for f in SEARCH_OPTIONS if f.metadata["flag"])


def _explore_config(args: argparse.Namespace) -> ExploreConfig:
    return ExploreConfig(**{name: getattr(args, name) for name in _SEARCH_FLAGS})


def _flat_config(args: argparse.Namespace) -> "FlatConfig":
    from ..flat import FlatConfig

    return FlatConfig(**{name: getattr(args, name) for name in _SEARCH_FLAGS})


def _distrib_config(args: argparse.Namespace):
    """``--distributed`` knobs → a :class:`DistribConfig` (or ``None``)."""
    if not args.distributed:
        return None
    from ..distrib import DistribConfig
    from ..harness.scheduler import default_workers

    if args.external_workers:
        fleet = 0
    else:
        fleet = args.workers if args.workers > 0 else default_workers()
    return DistribConfig(
        backend_url=args.backend_url or "", workers=fleet, stall_timeout=args.stall_timeout
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
    from ..promising.interactive import InteractiveSession

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
        # An undo at the start or an out-of-range step is a typo: say so
        # and keep the session, rather than end it with a traceback.
        if command == "undo":
            try:
                session.undo()
            except RuntimeError as exc:
                print(exc)
        elif command == "reset":
            session.reset()
        elif command.isdigit():
            try:
                session.step(int(command))
            except IndexError as exc:
                print(exc)
        else:
            print(f"unknown command {command!r}")


def cmd_catalogue(args: argparse.Namespace) -> int:
    arch = args.arch
    for test in all_tests():
        expected = test.expected_verdict(arch)
        print(f"{test.name:24s} {expected.value if expected else '-':10s} {test.description}")
    return 0


def cmd_agreement(args: argparse.Namespace) -> int:
    from ..litmus import check_agreement, generate_battery

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


def _batch_kwargs(args: argparse.Namespace, cache) -> dict:
    """What ``run_sweep`` and ``run_fuzz`` take from the shared batch flags."""
    from ..axiomatic import AxiomaticConfig

    return dict(
        workers=args.workers,
        timeout=args.timeout,
        cache=cache,
        report_path=args.report,
        explore_config=_explore_config(args),
        axiomatic_config=AxiomaticConfig(loop_bound=args.loop_bound),
        flat_config=_flat_config(args),
        distrib=_distrib_config(args),
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    from ..harness.sweep import run_sweep
    from ..litmus import generate_battery

    arch = args.arch
    tests = generate_battery(max_tests=args.max_tests)
    if args.catalogue:
        tests = tests + [t for t in all_tests() if t.program.n_threads <= 3]
    sweep = run_sweep(tests, args.models, arch, **_batch_kwargs(args, args.cache_dir))
    print(sweep.describe())
    if args.report:
        print(f"report written to {args.report}")
    return 0 if sweep.ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    import tempfile

    from ..harness.fuzz import run_fuzz
    from ..litmus import attach_expected, generate_cycle_battery

    archs = tuple(parse_arch(name) for name in args.archs)
    tests = generate_cycle_battery(
        families=args.families, max_tests=args.max_tests, max_per_family=args.max_per_family
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
        batch = _batch_kwargs(args, cache_dir)
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
                axiomatic_config=batch["axiomatic_config"],
            )
        fuzz = run_fuzz(tests, args.models, archs, **batch)
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


def _batch_parents() -> tuple[argparse.ArgumentParser, ...]:
    """Parent parsers of the batch commands' shared flags: ``batch`` (all
    three), ``report`` and ``distrib`` (``sweep`` and ``fuzz``)."""
    batch = argparse.ArgumentParser(add_help=False)
    batch.add_argument("--workers", type=_bounded(NON_NEGATIVE_INT), default=1,
                       help="worker processes (0 = one per CPU)")
    batch.add_argument("--cache-dir", default=None, help="persistent result cache directory")
    batch.add_argument("--timeout", type=_bounded(POSITIVE_NUMBER), default=None,
                       help="per-job timeout in seconds")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", default=None, help="write a JSON report to this path")
    distrib = argparse.ArgumentParser(add_help=False)
    distrib.add_argument("--distributed", action="store_true",
                         help="run on a distributed work backend, with --workers local "
                              "fleet processes unless --external-workers")
    distrib.add_argument("--backend-url", default=None,
                         help="work backend shared with the fleet: sqlite:///path or "
                              "http://host:port (default: an ephemeral SQLite queue)")
    distrib.add_argument("--external-workers", action="store_true",
                         help="spawn no workers; an external fleet serves the queue")
    distrib.add_argument("--stall-timeout", type=_bounded(POSITIVE_NUMBER), default=None,
                         help="abort if no distributed item completes for this long")
    return batch, report, distrib


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promising-arm",
        description="Promising-ARM/RISC-V exhaustive and interactive exploration tool",
    )
    parser.add_argument("--arch", type=_arch, default=Arch.ARM,
                        help="architecture: arm (default) or riscv; "
                             f"spellings: {', '.join(ARCH_ALIASES)}")
    for field in SEARCH_OPTIONS:
        if field.metadata["flag"]:
            bound = field.metadata["bound"]
            parser.add_argument("--" + field.name.replace("_", "-"), default=field.default,
                                type=_bounded(bound), choices=bound.choices or None,
                                help=field.metadata["help"])
    parser.add_argument("--log-format", choices=LOG_FORMATS, default="text",
                        help="log output on stderr: text, or json with one object per line")
    parser.add_argument("--log-level", type=str.lower, choices=LOG_LEVELS, default="info",
                        help="log verbosity (default info)")
    sub = parser.add_subparsers(dest="command", required=True)
    batch, report, distrib = _batch_parents()

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

    agree_parser = sub.add_parser(
        "agreement", parents=[batch], help="promising vs axiomatic agreement run"
    )
    agree_parser.add_argument("--max-tests", type=_bounded(POSITIVE_INT), default=40,
                              help="size of the generated battery")
    agree_parser.set_defaults(func=cmd_agreement)

    sweep_parser = sub.add_parser(
        "sweep",
        parents=[batch, report, distrib],
        help="run a litmus battery across models via the parallel harness",
    )
    sweep_parser.add_argument("--max-tests", type=_bounded(POSITIVE_INT), default=40,
                              help="size of the generated battery")
    sweep_parser.add_argument("--models", type=_names("model(s)", MODELS),
                              default=",".join(DEFAULT_MODELS),
                              help=f"comma-separated, from: {','.join(MODELS)}")
    sweep_parser.add_argument("--catalogue", action="store_true",
                              help="also run the catalogue tests with at most 3 threads")
    sweep_parser.set_defaults(func=cmd_sweep)

    fuzz_parser = sub.add_parser(
        "fuzz",
        parents=[batch, report, distrib],
        help="differential fuzzing of the cycle-generated corpus across models/archs",
    )
    fuzz_parser.add_argument("--max-tests", type=_bounded(POSITIVE_INT), default=None,
                             help="truncate the generated corpus (default: full)")
    fuzz_parser.add_argument("--max-per-family", type=_bounded(POSITIVE_INT), default=64,
                             help="cap per cycle family")
    fuzz_parser.add_argument("--families", type=_names("cycle family(ies)", _cycle_families),
                             default=None, help="comma-separated cycle families (default: all)")
    fuzz_parser.add_argument("--models", type=_names("model(s)", MODELS),
                             default="promising,axiomatic",
                             help=f"comma-separated, from: {','.join(MODELS)}")
    fuzz_parser.add_argument("--archs", type=_names("arch(s)", ARCH_ALIASES, key=str.lower),
                             default="arm,riscv", help="comma-separated architectures")
    fuzz_parser.add_argument("--expected", action="store_true",
                             help="attach axiomatic-oracle expected verdicts to the corpus")
    fuzz_parser.set_defaults(func=cmd_fuzz)

    work_parser = sub.add_parser(
        "work",
        help="join a distributed fleet: claim and execute leased litmus jobs",
    )
    work_parser.add_argument("--backend-url", required=True,
                             help="shared work backend: http://host:port (a serve queue), "
                                  "sqlite:///path/to/queue.db or a bare path")
    work_parser.add_argument("--cache-dir", default=None,
                             help="shared persistent result cache directory")
    work_parser.add_argument("--worker-id", default=None,
                             help="stable worker identity (default host-pid)")
    work_parser.add_argument("--lease-seconds", type=_bounded(POSITIVE_NUMBER), default=30.0,
                             help="claim lease length; heartbeats extend it while running")
    work_parser.add_argument("--poll-seconds", type=_bounded(POSITIVE_NUMBER), default=0.1,
                             help="idle back-off between claim attempts")
    work_parser.add_argument("--max-jobs", type=_bounded(POSITIVE_INT), default=None,
                             help="exit after claiming this many items (default: serve forever)")
    work_parser.add_argument("--idle-exit", type=_bounded(NON_NEGATIVE_NUMBER), default=None,
                             help="exit after the queue has been empty this long")
    work_parser.set_defaults(func=cmd_work)

    serve_parser = sub.add_parser(
        "serve",
        help="start the long-lived exploration service (HTTP/JSON, warm worker pool)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument("--port", type=_bounded(Bound(int, 0, 65535)), default=8765,
                              help="bind port (0 = ephemeral, printed on start)")
    serve_parser.add_argument("--workers", type=_bounded(NON_NEGATIVE_INT), default=2,
                              help="resident worker processes (<=1 = inline executor)")
    serve_parser.add_argument("--cache-dir", default=None,
                              help="persistent result cache directory (shared with sweeps)")
    serve_parser.add_argument("--lru-capacity", type=_bounded(POSITIVE_INT), default=4096,
                              help="entries kept in the in-process LRU result cache")
    serve_parser.add_argument("--batch-max-size", type=_bounded(POSITIVE_INT), default=16,
                              help="most cold jobs dispatched in one micro-batch")
    serve_parser.add_argument("--batch-delay-ms", type=_bounded(NON_NEGATIVE_NUMBER),
                              default=10.0, help="micro-batch accumulation window in ms")
    serve_parser.add_argument("--timeout", type=_bounded(_service_deadline), default=60.0,
                              help="default per-job deadline in seconds")
    serve_parser.add_argument("--max-pending-jobs", type=_bounded(NON_NEGATIVE_INT),
                              default=1024, help="answer 429 + Retry-After once this many "
                                                 "jobs are queued or running (0 = unlimited)")
    serve_parser.add_argument("--quota-tokens", type=_bounded(POSITIVE_NUMBER), default=None,
                              help="per-client token bucket on X-Client-Id, one token "
                                   "per job (default: quotas off)")
    serve_parser.add_argument("--quota-refill", type=_bounded(POSITIVE_NUMBER), default=1.0,
                              help="tokens refilled per second per client")
    serve_parser.add_argument("--queue-url", default=None,
                              help="ledger mounted at /v1/queue: sqlite:///path or "
                                   "memory://name (default: a fresh in-memory queue)")
    serve_parser.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_format, args.log_level)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
