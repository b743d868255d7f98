"""State keys and certification memoisation.

Pins the stability/equality laws of the ``cache_key`` methods that the
explorers' visited sets and memo tables key on, and the single-graph
certification entry point (and its per-run memo) against the separate
reference searches.
"""

import pytest

from repro.lang.kinds import Arch
from repro.litmus import get_test
from repro.promising import (
    CertificationCache,
    MachineState,
    Memory,
    Msg,
    can_complete_without_promising,
    certify_thread,
    find_and_certify,
    initial_tstate,
    machine_transitions,
    promise_step,
)
from repro.lang import DMB_SY, R, load, seq, store


class TestCacheKeys:
    def test_tstate_cache_key_is_stable_and_matches_key(self):
        ts = initial_tstate()
        ts.regs["r1"] = (7, 2)
        first = ts.cache_key()
        assert first == ts.key()
        assert ts.cache_key() is first  # cached, not recomputed

    def test_equal_states_reached_differently_share_a_key(self):
        a = initial_tstate().copy()
        a.regs["r1"] = (1, 0)
        a.regs["r2"] = (2, 0)
        b = initial_tstate().copy()
        b.regs["r2"] = (2, 0)
        b.regs["r1"] = (1, 0)
        assert a.cache_key() == b.cache_key()
        assert hash(a) == hash(b) and a == b

    def test_copy_resets_the_cached_key(self):
        ts = initial_tstate()
        _ = ts.cache_key()
        clone = ts.copy()
        clone.vCAP = 9
        assert clone.cache_key() != ts.cache_key()

    def test_memory_cache_key_tracks_messages(self):
        empty = Memory()
        grown, t = empty.append(Msg(0, 1, 0))
        assert empty.cache_key() == ()
        assert grown.cache_key() == (Msg(0, 1, 0),) and t == 1

    def test_machine_state_cache_key_is_shared_by_equal_states(self):
        test = get_test("LB")
        initial = MachineState.initial(test.program, Arch.ARM)
        # Take the same transition twice via fresh state objects.
        transitions = machine_transitions(initial)
        again = machine_transitions(initial)
        state_a, state_b = transitions[0].state, again[0].state
        assert state_a is not state_b
        assert state_a.cache_key() == state_b.cache_key()
        assert state_a.cache_key() is state_a.cache_key()  # cached, not recomputed
        assert state_a.cache_key() != initial.cache_key()


class TestCertifyThread:
    CONFIGS = [
        ("initial-store", store(0, 5), None),
        ("load-store", seq(load("r1", 8), store(0, R("r1"))), None),
        ("barrier", seq(load("r1", 8), DMB_SY, store(0, 42)), None),
    ]

    @pytest.mark.parametrize("name,stmt,_x", CONFIGS, ids=[c[0] for c in CONFIGS])
    def test_matches_separate_searches(self, name, stmt, _x):
        ts = initial_tstate()
        memory, _ = Memory().append(Msg(8, 1, 9))
        merged = certify_thread(stmt, ts, memory, Arch.ARM, 0)
        separate = find_and_certify(stmt, ts, memory, Arch.ARM, 0)
        assert merged.certified == separate.certified
        assert merged.promises == separate.promises
        assert merged.can_complete == can_complete_without_promising(
            stmt, ts, memory, Arch.ARM, 0
        )

    def test_matches_with_outstanding_promise(self):
        stmt = store(0, 1)
        promised = promise_step(stmt, initial_tstate(), Memory(), Msg(0, 1, 0))
        merged = certify_thread(stmt, promised.tstate, promised.memory, Arch.ARM, 0)
        assert merged.certified
        assert merged.can_complete is True  # the promise is fulfilable in place

    def test_cache_memoises_and_counts(self):
        cache = CertificationCache(Arch.ARM)
        stmt = seq(load("r1", 8), store(0, 42))
        ts = initial_tstate()
        memory = Memory()
        first = cache.certify(stmt, ts, memory, 0)
        second = cache.certify(stmt, ts, memory, 0)
        assert first is second
        assert cache.calls == 2 and cache.hits == 1 and len(cache) == 1

    def test_cache_discriminates_memory_and_tid(self):
        cache = CertificationCache(Arch.ARM)
        stmt = store(0, 1)
        ts = initial_tstate()
        cache.certify(stmt, ts, Memory(), 0)
        grown, _ = Memory().append(Msg(8, 7, 1))
        cache.certify(stmt, ts, grown, 0)
        cache.certify(stmt, ts, Memory(), 1)
        assert cache.hits == 0 and len(cache) == 3
