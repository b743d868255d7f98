"""Ablation — state deduplication / certification memoisation (PR 3).

Measures dedup-on vs dedup-off on the worst litmus families (the
four-thread IRIW, the three-location 3.2W/3.LB shapes) and the Chase-Lev
deque workload, across the explorers:

* ``promising`` (promise-first): its promise frontier is a *tree* (every
  promise sequence yields a distinct memory), so the visited set almost
  never fires — the measured win there is the certification layer (one
  interned sequential-graph build per configuration instead of two
  searches).  This is itself a reproduction-relevant observation: the
  paper's promise-first strategy already removes the interleaving
  redundancy that dedup would otherwise catch.

* ``promising-naive`` and ``flat`` (full interleaving): symmetric
  schedules reconverge constantly, so the visited set *is* the
  difference between polynomial and exponential work — dedup-off either
  multiplies wall-clock many-fold or fails to terminate within the state
  budget at all (reported as ``truncated``).

Every on/off pair that completes must produce identical outcome sets.
The results land in ``BENCH_dedup.json`` at the repo root (override with
``BENCH_DEDUP_PATH``); ``scripts/bench.sh`` refreshes the tracked copy.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.flat.explorer import FlatConfig, explore_flat
from repro.litmus import generate_cycle_battery, get_test
from repro.promising import ExploreConfig, explore, explore_naive
from repro.tools.compare import observables
from repro.workloads import chase_lev

pytestmark = pytest.mark.bench

#: State cap for dedup-off runs that would otherwise never finish; a
#: truncated "off" row is reported as a lower bound, not a speedup.
OFF_BUDGET = 150_000

_rows: list[dict] = []


def _cycle_case(family: str, index: int = 0):
    test = generate_cycle_battery(families=(family,), max_per_family=index + 1)[index]
    locs = tuple(test.observable_locations())
    return test.name, test.program, locs


def _workload_case():
    workload = chase_lev("p", (1,), name="DQ-p-1")
    _regs, locs = observables(workload.program)
    return workload.name, workload.program, tuple(locs)


def _run(model: str, program, locs, dedup: bool):
    # The ablated reduction layer (InternPool keys, CertificationCache) is
    # the object backend's; the packed backend always memoises.
    if model == "flat":
        result = explore_flat(program, FlatConfig(dedup=dedup, backend="object"))
        states = result.stats.states
    else:
        config = ExploreConfig(
            shared_locations=locs,
            dedup=dedup,
            cert_memo=dedup,
            max_states=OFF_BUDGET if not dedup else 500_000,
            backend="object",
        )
        runner = explore_naive if model == "promising-naive" else explore
        result = runner(program, config)
        states = result.stats.promise_states
    return result, states


CASES = [
    ("IRIW+po+po", "promising"),
    ("IRIW+po+po", "promising-naive"),
    ("3.2W+po+po+dmb.sy", "promising"),
    ("3.2W+po+po+dmb.sy", "promising-naive"),
    ("3.LB+po+po+po", "promising"),
    ("3.LB+po+po+po", "promising-naive"),
    ("DQ-p-1", "promising"),
    ("DQ-p-1", "promising-naive"),
    ("MP", "flat"),
    ("IRIW+po+po", "flat"),
]


def _case_inputs(case: str):
    if case == "DQ-p-1":
        return _workload_case()
    if case == "MP":
        test = get_test("MP")
        return test.name, test.program, tuple(test.observable_locations())
    family, _plus, _rest = case.partition("+")
    # Deterministic: the named test is the family's first diagonal entry
    # for IRIW/3.LB and the dmb.sy variant for 3.2W.
    tests = generate_cycle_battery(families=(family,), max_per_family=8)
    test = next(t for t in tests if t.name == case)
    return test.name, test.program, tuple(test.observable_locations())


@pytest.mark.parametrize("case,model", CASES, ids=[f"{c}-{m}" for c, m in CASES])
def test_dedup_on_off(benchmark, case, model):
    name, program, locs = _case_inputs(case)
    start = time.perf_counter()
    on, on_states = benchmark.pedantic(
        lambda: _run(model, program, locs, dedup=True),
        rounds=1,
        iterations=1,
    )
    on_seconds = time.perf_counter() - start
    start = time.perf_counter()
    off, off_states = _run(model, program, locs, dedup=False)
    off_seconds = time.perf_counter() - start

    both_complete = not on.stats.truncated and not off.stats.truncated
    if both_complete:
        assert set(on.outcomes) == set(off.outcomes), name
    else:
        # The off run hit its budget: its outcomes under-approximate.
        assert set(off.outcomes) <= set(on.outcomes), name
    _rows.append(
        {
            "case": name,
            "model": model,
            "on_seconds": round(on_seconds, 4),
            "off_seconds": round(off_seconds, 4),
            "on_states": on_states,
            "off_states": off_states,
            "off_truncated": bool(off.stats.truncated),
            "speedup": round(off_seconds / on_seconds, 2) if on_seconds else None,
            "speedup_is_lower_bound": bool(off.stats.truncated),
            "dedup_hits": on.stats.dedup_hits,
            "cert_memo_stats": {
                "hits": getattr(on.stats, "cert_memo_hits", 0),
                "calls": getattr(on.stats, "cert_calls", 0),
            },
            "n_outcomes": len(on.outcomes),
        }
    )


def test_write_artifact_and_summary(table_printer):
    assert _rows, "parametrized cases must run first"
    complete = [r for r in _rows if not r["off_truncated"]]
    interleaved = [r for r in complete if r["model"] in ("promising-naive", "flat")]
    aggregate = {
        "on_seconds": round(sum(r["on_seconds"] for r in complete), 3),
        "off_seconds": round(sum(r["off_seconds"] for r in complete), 3),
    }
    aggregate["speedup"] = round(aggregate["off_seconds"] / aggregate["on_seconds"], 2)
    interleaved_speedup = round(
        sum(r["off_seconds"] for r in interleaved)
        / sum(r["on_seconds"] for r in interleaved),
        2,
    )
    artifact = {
        "name": "dedup-ablation",
        "off_budget_states": OFF_BUDGET,
        "rows": _rows,
        "aggregate_completing_pairs": aggregate,
        "interleaved_explorers_speedup": interleaved_speedup,
        "note": (
            "promise-first rows measure the certification layer (the promise "
            "frontier is a tree, so state dedup cannot fire there); "
            "naive/flat rows measure the visited set itself"
        ),
    }
    default_path = Path(__file__).parent.parent / "BENCH_dedup.json"
    path = Path(os.environ.get("BENCH_DEDUP_PATH", default_path))
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    table_printer(
        "dedup ablation (on vs off)",
        ["case", "model", "on", "off", "speedup", "off truncated"],
        [
            [
                r["case"],
                r["model"],
                f"{r['on_seconds']:.3f}s",
                f"{r['off_seconds']:.3f}s",
                f"{r['speedup']}x" + ("+" if r["speedup_is_lower_bound"] else ""),
                r["off_truncated"],
            ]
            for r in _rows
        ],
    )
    # The acceptance bar: deduplication buys at least 2x wall-clock on the
    # worst families under the explorers where interleavings reconverge.
    assert interleaved_speedup >= 2.0, artifact
