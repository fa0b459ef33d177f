"""The benchmark's own arithmetic: tails, open-loop clocks, SLO
accounting and span self time.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness as H  # noqa: E402


# ----------------------------------------------------------------------
# the tail needs ten samples beyond it
# ----------------------------------------------------------------------
def test_quantile_matches_linear_interpolation():
    samples = [float(x) for x in range(1, 101)]
    assert H.quantile(samples, 0.5) == pytest.approx(50.5)
    assert H.quantile(samples, 0.99) == pytest.approx(99.01)
    assert H.quantile([3.0, 1.0, 2.0], 0.0) == 1.0


@pytest.mark.parametrize(
    "q, count, beyond",
    [(0.99, 902, 10), (0.99, 901, 9), (0.9, 100, 10), (0.75, 38, 10), (0.75, 37, 9),
     (0.5, 0, 0)],
)
def test_samples_beyond(q, count, beyond):
    assert H.samples_beyond(q, count) == beyond


@pytest.mark.parametrize("q", [0.5, 0.75, 0.8, 0.9, 0.95, 0.98, 0.99])
def test_min_samples_is_the_smallest_count_with_ten_beyond(q):
    n = H.min_samples_for(q)
    assert H.samples_beyond(q, n) >= H.MIN_BEYOND
    assert H.samples_beyond(q, n - 1) < H.MIN_BEYOND


def test_samples_beyond_are_strictly_above_the_estimate():
    for count in (50, 101, 902, 1000):
        samples = [float(x) for x in range(count)]
        value = H.quantile(samples, 0.99)
        above = sum(1 for x in samples if x > value)
        assert H.samples_beyond(0.99, count) == above


def test_tail_refuses_an_unsupported_percentile():
    samples = [float(x) for x in range(901)]
    with pytest.raises(ValueError, match="p99 needs 902 samples"):
        H.tail_latency(samples, 0.99)
    assert H.tail_latency(samples + [901.0], 0.99) == pytest.approx(891.99)


# ----------------------------------------------------------------------
# open loop: latency from the due time, generator lateness
# ----------------------------------------------------------------------
def test_open_loop_latency_counts_from_due_time():
    sched = H.OpenLoopSchedule(start=100.0, rate=10.0)  # due every 0.1 s
    # request 3 is due at 100.3; the generator stalled and sent it at
    # 100.5, and the system answered 0.1 s after the send
    sched.mark_sent(3, 100.5)
    sched.mark_done(3, 100.6)
    assert sched.due(3) == pytest.approx(100.3)
    assert sched.latency(3) == pytest.approx(0.3)  # not 0.1
    assert sched.late(3) == pytest.approx(0.2)


def test_a_stall_charges_every_request_it_delayed():
    sched = H.OpenLoopSchedule(start=0.0, rate=100.0)
    # a 50 ms stall at t=0: requests 0..4 all go out at 0.05
    for i in range(5):
        sched.mark_sent(i, 0.05)
        sched.mark_done(i, 0.051)
    assert [round(sched.late(i), 3) for i in range(5)] == [0.05, 0.04, 0.03, 0.02, 0.01]
    assert [round(sched.latency(i), 3) for i in range(5)] == [0.051, 0.041, 0.031, 0.021, 0.011]


def test_early_send_is_not_negative_lateness():
    sched = H.OpenLoopSchedule(start=0.0, rate=1.0)
    sched.mark_sent(2, 1.9)
    assert sched.late(2) == 0.0


def test_offered_rate():
    sched = H.OpenLoopSchedule(start=0.0, rate=50.0)
    for i in range(11):
        sched.mark_sent(i, i * 0.02)
    assert sched.offered_rate() == pytest.approx(50.0)


# ----------------------------------------------------------------------
# SLO accounting
# ----------------------------------------------------------------------
def test_failed_request_counts_as_slo_miss():
    ok = [1.0, 2.0, 3.0]
    assert H.slo_ok_ratio(ok, failed=0, limit=2.5) == pytest.approx(2 / 3)
    # one failure: 4 attempted, still 2 within the limit
    assert H.slo_ok_ratio(ok, failed=1, limit=2.5) == pytest.approx(2 / 4)
    # a failure misses even with a generous limit
    assert H.slo_ok_ratio(ok, failed=1, limit=1e9) == pytest.approx(3 / 4)


def test_slo_over_nothing_is_an_error():
    with pytest.raises(ValueError):
        H.slo_ok_ratio([], failed=0, limit=1.0)


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------
def span(name, start, end, parent=None):
    return H.Span(name, start, end, parent)


def test_self_time_subtracts_children():
    spans = [
        span("op", 0.0, 10.0),
        span("build", 1.0, 4.0, parent=0),
        span("kernel", 5.0, 9.0, parent=0),
        span("csr", 5.5, 6.5, parent=2),
    ]
    assert H.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("request", 0.0, 10.0),
        span("a", 1.0, 5.0, parent=0),
        span("b", 3.0, 7.0, parent=0),
        span("c", 9.0, 12.0, parent=0),  # runs past its parent's end
    ]
    assert H.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_and_keeps_request_ids():
    tracer = H.Tracer()
    with tracer.span("request", "r1"):
        with tracer.span("decode", "r1"):
            pass
        with tracer.span("step", "r1"):
            pass
    names = [(s.name, s.parent, s.request_id) for s in tracer.spans]
    assert names == [("request", None, "r1"), ("decode", 0, "r1"), ("step", 0, "r1")]
    assert all(s.end >= s.start for s in tracer.spans)
    own = H.self_times(tracer.spans)
    assert own[0] <= tracer.spans[0].duration


def test_disabled_tracer_records_nothing():
    tracer = H.Tracer(enabled=False)
    with tracer.span("x"):
        pass
    assert tracer.spans == []


# ----------------------------------------------------------------------
# steadiness arithmetic
# ----------------------------------------------------------------------
def test_quartile_spread():
    q1, med, q3, spread = H.quartile_spread([10.0, 11.0, 12.0, 13.0, 14.0])
    assert med == 12.0
    assert spread == pytest.approx((q3 - q1) / 12.0)


def test_trace_overhead_share():
    assert H.trace_overhead([1.0, 1.0, 1.0], [1.1, 1.1, 1.2]) == pytest.approx(0.1)


def test_checks_key_failures_by_op():
    checks = H.Checks()
    checks.fail(3, "bad coloring")
    checks.fail(3, "wrong palette")
    assert checks.failed_ops == {3}
    assert not checks.ok(3) and checks.ok(2)
    assert checks.errors == ["op 3: bad coloring", "op 3: wrong palette"]
