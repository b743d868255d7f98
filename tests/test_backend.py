"""Conformance of the execution backends (object vs packed).

The backend seam swaps the *representation* of machine states, never the
semantics: for every explorer the two backends must produce identical
outcome sets and identical semantic statistics (states, transitions,
final memories, deadlocks, dedup hits, …), and the packed encoding must
be a bijection onto the object backend's ``cache_key`` equivalence
classes.  These tests pin that contract on a catalogue slice, a
generated corpus slice, both architectures and all three explorers.
"""

import pytest

from repro.backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    make_flat_backend,
    make_promising_backend,
    validate_backend,
)
from repro.explore import DEFAULT_STRATEGY
from repro.flat import (
    FlatConfig,
    FlatStats,
    explore_flat,
    initial_state,
    thread_transitions,
)
from repro.flat import successors as flat_successors
from repro.harness.jobs import Job
from repro.lang import LocationEnv, R, if_, load, make_program, seq, store
from repro.lang.kinds import VSUCC, Arch
from repro.litmus import generate_battery, get_test
from repro.promising import ExploreConfig, explore, explore_naive
from repro.promising.exhaustive import ExplorationStats
from repro.promising.machine import MachineState, machine_transitions

ARCHS = [Arch.ARM, Arch.RISCV]

# Small-but-varied slice: message passing, store buffering, dependencies,
# multicopy atomicity, exclusives, and a write-heavy shape.
PROMISING_SLICE = ["MP", "SB", "LB+addrs", "WRC+pos", "LSE-atomicity", "2+2W"]
# The flat model's state spaces are far larger; keep its slice lean.
FLAT_SLICE = ["MP", "SB", "CoRW2"]
# A deterministic slice of the generated (fuzz) corpus.
GENERATED = generate_battery(max_tests=4)

#: Semantic counters that must be bit-identical across backends.  The
#: representation counters (``cert_calls``, ``interned_keys``, …) are
#: backend-specific by design and excluded.
PROMISING_COUNTERS = (
    "truncated",
    "promise_states",
    "promise_transitions",
    "final_memories",
    "deadlocked_states",
    "dedup_hits",
    "thread_enumeration_states",
    "thread_dedup_hits",
    "completion_memo_hits",
)
FLAT_COUNTERS = ("truncated", "states", "transitions", "restarts", "dedup_hits")


def _compare(explore_fn, program, make_config, counters):
    results = {
        backend: explore_fn(program, make_config(backend)) for backend in BACKENDS
    }
    reference = results["object"]
    for backend, result in results.items():
        assert set(result.outcomes) == set(reference.outcomes), (
            f"{program.name} ({backend}): outcome sets diverge"
        )
        for counter in counters:
            assert getattr(result.stats, counter) == getattr(reference.stats, counter), (
                f"{program.name} ({backend}): stats.{counter} diverges"
            )


@pytest.mark.parametrize("arch", ARCHS, ids=[a.value for a in ARCHS])
@pytest.mark.parametrize("name", PROMISING_SLICE)
def test_promise_first_conformance(name, arch):
    program = get_test(name).program
    _compare(
        explore,
        program,
        lambda b: ExploreConfig(arch=arch, backend=b),
        PROMISING_COUNTERS,
    )


@pytest.mark.parametrize("arch", ARCHS, ids=[a.value for a in ARCHS])
@pytest.mark.parametrize("name", PROMISING_SLICE)
def test_naive_conformance(name, arch):
    program = get_test(name).program
    _compare(
        explore_naive,
        program,
        lambda b: ExploreConfig(arch=arch, backend=b),
        PROMISING_COUNTERS,
    )


@pytest.mark.parametrize("arch", ARCHS, ids=[a.value for a in ARCHS])
@pytest.mark.parametrize("name", FLAT_SLICE)
def test_flat_conformance(name, arch):
    program = get_test(name).program
    _compare(
        explore_flat,
        program,
        lambda b: FlatConfig(arch=arch, backend=b),
        FLAT_COUNTERS,
    )


@pytest.mark.parametrize("test", GENERATED, ids=[t.name for t in GENERATED])
def test_generated_corpus_conformance(test):
    _compare(
        explore,
        test.program,
        lambda b: ExploreConfig(backend=b),
        PROMISING_COUNTERS,
    )


def test_sample_strategy_walks_identical_traces():
    # Successor *order* is part of the backend contract: the same seed
    # must drive the same walks, so sampled outcome sets coincide too.
    program = get_test("WRC+pos").program
    results = [
        explore_naive(
            program,
            ExploreConfig(backend=b, strategy="sample", samples=32, seed=7),
        )
        for b in BACKENDS
    ]
    assert set(results[0].outcomes) == set(results[1].outcomes)
    assert results[0].stats.samples_run == results[1].stats.samples_run


# ---------------------------------------------------------------------------
# Encode/decode laws
# ---------------------------------------------------------------------------


def _reachable(program, arch, limit=200):
    """A breadth-first sample of reachable object machine states."""
    initial = MachineState.initial(program, arch)
    seen = {initial.cache_key(): initial}
    frontier = [initial]
    while frontier and len(seen) < limit:
        state = frontier.pop()
        for step in machine_transitions(state):
            key = step.state.cache_key()
            if key not in seen:
                seen[key] = step.state
                frontier.append(step.state)
    return list(seen.values())


@pytest.mark.parametrize("name", ["MP", "LSE-atomicity"])
def test_packed_roundtrip_laws(name):
    program = get_test(name).program
    config = ExploreConfig()
    backend = make_promising_backend("packed", program, config, None)
    for state in _reachable(program, config.arch):
        packed = backend.encode(state)
        # key is the identity on packed states.
        assert backend.key(packed) == packed
        # encode/decode round-trips through the same packed id.
        assert backend.encode(backend.decode(packed)) == packed
        # decode lands in the same object-key equivalence class.
        assert backend.decode(packed).cache_key() == state.cache_key()


def test_packed_key_equivalence_classes():
    # Two object states with equal cache keys intern to the same id;
    # distinct keys to distinct ids.
    program = get_test("MP").program
    config = ExploreConfig()
    backend = make_promising_backend("packed", program, config, None)
    states = _reachable(program, config.arch)
    by_key = {}
    for state in states:
        by_key.setdefault(state.cache_key(), set()).add(backend.encode(state))
    ids = [next(iter(v)) for v in by_key.values()]
    assert all(len(v) == 1 for v in by_key.values())
    assert len(ids) == len(set(ids))


# ---------------------------------------------------------------------------
# Certification / completion-set equivalence laws
# ---------------------------------------------------------------------------


def _assert_cert_equivalence(program, arch, limit):
    """Packed ``certify_all``/``completion_sets`` == object, pointwise.

    The explorer-level conformance above compares whole runs; these laws
    pin the per-state answers: for every reachable machine state both
    backends must agree on certification (certified bit, promise set,
    truncation, fixed-memory completability, even the visited count of
    the sequential graph) and, at candidate final memories, on the exact
    per-thread completion sets.
    """
    config = ExploreConfig(arch=arch)
    obj = make_promising_backend("object", program, config, ExplorationStats())
    packed = make_promising_backend("packed", program, config, ExplorationStats())
    checked_completions = 0
    for state in _reachable(program, arch, limit=limit):
        enc = packed.encode(state)
        o_res, o_fin = obj.certify_all(state)
        p_res, p_fin = packed.certify_all(enc)
        assert o_fin == p_fin, f"{program.name}: can-finish diverges"
        for tid, (o, p) in enumerate(zip(o_res, p_res)):
            context = f"{program.name} thread {tid}"
            assert o.certified == p.certified, context
            assert o.promises == p.promises, context
            assert o.complete == p.complete, context
            assert o.can_complete == p.can_complete, context
            assert o.visited == p.visited, context
        if all(o_fin):
            assert obj.completion_sets(state) == packed.completion_sets(enc), (
                f"{program.name}: completion sets diverge"
            )
            checked_completions += 1
    assert checked_completions > 0, "slice never reached a final memory"


@pytest.mark.parametrize("arch", ARCHS, ids=[a.value for a in ARCHS])
@pytest.mark.parametrize("name", ["MP", "WRC+pos", "LSE-atomicity", "2+2W"])
def test_certification_equivalence_laws(name, arch):
    _assert_cert_equivalence(get_test(name).program, arch, limit=60)


@pytest.mark.parametrize("test", GENERATED, ids=[t.name for t in GENERATED])
def test_certification_equivalence_on_generated_corpus(test):
    _assert_cert_equivalence(test.program, ExploreConfig().arch, limit=40)


# ---------------------------------------------------------------------------
# Packed-Flat window round-trip laws
# ---------------------------------------------------------------------------


def _pr5_regression_program():
    """The PR 5 reservation-clear regression shape (see test_flat.py).

    T1's mis-speculated branch body contains a second load-exclusive of
    ``x``; the squashed load must take its reservation with it or the
    trailing store-exclusive pairs with a load that architecturally
    never happened.
    """
    env = LocationEnv()
    x, y = env["x"], env["y"]
    t0 = store(x, 7)
    t1 = seq(
        load("r0", x, exclusive=True),
        load("r1", y),
        if_(R("r1").eq(1), load("r2", x, exclusive=True)),
        store(x, 5, exclusive=True, succ_reg="rs"),
    )
    return make_program([t0, t1], env=env, name="PR5-reservation-clear"), x


def _flat_reachable(program, config, limit):
    init = initial_state(program, config.arch)
    seen = {init.cache_key(): init}
    frontier = [init]
    while frontier and len(seen) < limit:
        state = frontier.pop()
        for _label, succ in flat_successors(state, config):
            key = succ.cache_key()
            if key not in seen:
                seen[key] = succ
                frontier.append(succ)
    return list(seen.values())


def _make_flat(backend, program, config, stats):
    return make_flat_backend(
        backend, program, config, stats, flat_successors, thread_transitions
    )


@pytest.mark.parametrize("arch", ARCHS, ids=[a.value for a in ARCHS])
def test_packed_flat_roundtrip_laws(arch):
    # Window entries, alternative continuations, speculation flags and
    # the reservation must all survive the pack/unpack cycle — the
    # regression program exercises every one of those fields.
    program, _x = _pr5_regression_program()
    config = FlatConfig(arch=arch)
    backend = _make_flat("packed", program, config, FlatStats())
    for state in _flat_reachable(program, config, limit=250):
        packed_state = backend.encode(state)
        assert backend.key(packed_state) == packed_state
        assert backend.encode(backend.decode(packed_state)) == packed_state
        assert backend.decode(packed_state).cache_key() == state.cache_key()


def test_packed_flat_successors_match_reference_on_regression_program():
    program, _x = _pr5_regression_program()
    config = FlatConfig()
    stats_o, stats_p = FlatStats(), FlatStats()
    obj = _make_flat("object", program, config, stats_o)
    packed = _make_flat("packed", program, config, stats_p)
    for state in _flat_reachable(program, config, limit=200):
        enc = packed.encode(state)
        obj_keys = [succ.cache_key() for succ in obj.successors(state)]
        packed_keys = [
            packed.decode(p).cache_key() for p in packed.successors(enc)
        ]
        assert obj_keys == packed_keys, "successor lists (or order) diverge"
    # Both backends saw every state exactly once, so the per-visit
    # restart accounting must agree too.
    assert stats_p.restarts == stats_o.restarts


@pytest.mark.parametrize("backend", BACKENDS)
def test_flat_reservation_clear_regression(backend):
    # The PR 5 bugfix, re-pinned per backend: a squashed exclusive load
    # must clear the reservation, so the non-atomic store-exclusive
    # success is forbidden on both representations.
    program, x = _pr5_regression_program()
    result = explore_flat(program, FlatConfig(backend=backend))
    assert not any(
        o.mem(x) == 5 and o.reg(1, "r0") == 0 and o.reg(1, "rs") == VSUCC
        for o in result.outcomes
    )


# ---------------------------------------------------------------------------
# Validation and fingerprint stability
# ---------------------------------------------------------------------------


def test_validate_backend_rejects_unknown():
    with pytest.raises(ValueError, match="unknown execution backend"):
        validate_backend("bogus")
    with pytest.raises(ValueError):
        explore(get_test("MP").program, ExploreConfig(backend="turbo"))


#: ``Job(test=get_test("MP"), model="promising").fingerprint()`` at
#: fingerprint v3.  Results cached under that key must keep answering the
#: same job whatever the default backend is.
MP_PROMISING_FINGERPRINT = "adf9a09b3dd5aa362193dd338a278930696de9e48751d93b05de018f9d8e7d35"


def test_default_backend_keeps_cache_fingerprints():
    # Outcomes are backend-independent, so the backend never enters the
    # fingerprint: the default, object and packed jobs share one key, and
    # it is the pinned v3 key.
    test = get_test("MP")
    default = Job(test=test, model="promising", arch=Arch.ARM)
    fingerprints = {default.fingerprint()}
    for backend in BACKENDS:
        config = ExploreConfig(backend=backend)
        job = Job(test=test, model="promising", arch=Arch.ARM, explore_config=config)
        fingerprints.add(job.fingerprint())
    assert fingerprints == {MP_PROMISING_FINGERPRINT}
    # The field exists on the effective config — only the fingerprint
    # omits it, which the equality above pins down.
    assert default.effective_explore_config().backend == DEFAULT_BACKEND == "packed"


def test_cli_and_service_read_the_declared_defaults():
    # One declaration of the backend and strategy defaults: the CLI's
    # parsed flags and the service's normalised jobs both carry it.
    from repro.service import ExplorationService, ServiceConfig
    from repro.tools.cli import _explore_config, _flat_config, build_parser

    args = build_parser().parse_args(["run", "--test", "MP"])
    assert (args.backend, args.strategy) == (DEFAULT_BACKEND, DEFAULT_STRATEGY)
    payload = {"test": "MP", "models": ["promising", "flat"]}
    request = ExplorationService(ServiceConfig()).normalize(payload)
    configs = [_explore_config(args), _flat_config(args)]
    configs += [request.jobs[0].explore_config, request.jobs[1].flat_config]
    for config in configs:
        assert (config.backend, config.strategy) == (DEFAULT_BACKEND, DEFAULT_STRATEGY)


@pytest.mark.parametrize(
    "run",
    [
        lambda program: explore(program, ExploreConfig()),
        lambda program: explore_naive(program, ExploreConfig()),
        lambda program: explore_flat(program, FlatConfig()),
    ],
    ids=["explore", "explore_naive", "explore_flat"],
)
def test_default_runs_take_the_packed_path(run):
    # Only the packed backend replays memoised steps; the object walk
    # leaves the step-memo counters at zero.
    stats = run(get_test("MP").program).stats
    assert stats.step_memo_misses > 0


def test_conformance_slice_is_nontrivial():
    # Guard the slice itself: conformance over empty outcome sets would
    # be vacuous.
    for name in PROMISING_SLICE:
        result = explore(get_test(name).program, ExploreConfig())
        assert len(result.outcomes) > 0
