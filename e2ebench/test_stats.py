"""Tests of the benchmark's own arithmetic and declarations.

Run with ``python3 -m pytest e2ebench -q`` from the repository root.
"""

from __future__ import annotations

import pytest

import run
from spans import Tracer
from stats import Span, Tally, covered, latency_metrics, self_times, tail


# -- tail percentile rule ----------------------------------------------------
def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    q, value = tail(values)
    assert q == 90.0
    assert value == 90
    assert sum(v > value for v in values) == 10


def test_tail_is_the_highest_such_percentile():
    values = [float(v) for v in range(386)]
    q, value = tail(values)
    assert sum(v > value for v in values) == 10
    # One rank higher would leave only nine beyond it.
    assert sum(v > values[values.index(value) + 1] for v in values) == 9
    assert q == pytest.approx(100 * 376 / 386)


def test_tail_ignores_input_order():
    assert tail([5, 1, 4, 2, 3] * 6) == tail(sorted([5, 1, 4, 2, 3] * 6))


def test_tail_never_falls_below_the_median():
    values = [float(v) for v in range(14)]
    q, value = tail(values)
    assert q == 50.0
    assert value == 6.0  # rank 7 of 14


def test_latency_metrics():
    m = latency_metrics([0.001 * v for v in range(1, 101)], wall_s=4.0)
    assert m["op_ms.p50"] == pytest.approx(50.5)
    assert m["op_ms.tail"] == pytest.approx(90.0)
    assert m["ops_per_s"] == pytest.approx(25.0)
    assert m["samples"] == 100


# -- span self time ----------------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5)], 0, 10) == 4
    assert covered([(1, 2), (4, 6)], 0, 10) == 3
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered([(1, 9), (2, 3)], 0, 10) == 8


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("job", None, 0.0, 10.0),
        Span("explore", 0, 1.0, 6.0),
        Span("compile", 1, 2.0, 3.0),  # inside explore, already taken out
        Span("flat", 0, 7.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 4.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("parent", None, 0.0, 10.0),
        Span("a", 0, 2.0, 6.0),
        Span("b", 0, 4.0, 8.0),
        Span("late", 0, 9.0, 12.0),  # runs past its parent: clipped
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_records_nesting():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    with tracer.span("next"):
        pass
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None),
        ("inner", 0),
        ("inner", 0),
        ("next", None),
    ]
    outer_self = tracer.self_seconds("outer")[0]
    assert 0 <= outer_self <= tracer.seconds("outer")


# -- failed share ------------------------------------------------------------
def test_tally_counts_failed_against_attempted():
    tally = Tally()
    for _ in range(7):
        tally.ok()
    tally.fail("refused")
    tally.fail("truncated")
    tally.fail("wrong verdict", wrong=True)
    assert (tally.attempted, tally.failed, tally.wrong) == (10, 3, 1)
    assert not tally.correct


def test_failures_without_wrong_output_keep_the_run_correct():
    tally = Tally()
    tally.ok()
    tally.fail("refused")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.correct


# -- declarations ------------------------------------------------------------
def test_every_declared_workload_has_a_module():
    import importlib

    for workload in run.spec()["workloads"]:
        name = workload["name"]
        module = importlib.import_module(f"wl_{name}")
        assert callable(module.measure) and callable(module.trace)


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in run.spec()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
