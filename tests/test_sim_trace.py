"""Unit tests for counters, series recorders, and percentile."""

import pytest

from repro.sim.trace import Counter, SeriesRecorder, TraceRecorder, percentile


def test_counter_increments():
    c = Counter()
    c.incr("a")
    c.incr("a", 4)
    assert c.get("a") == 5
    assert c.get("missing") == 0
    assert c.as_dict() == {"a": 5}


def test_counter_rejects_negative():
    c = Counter()
    with pytest.raises(ValueError):
        c.incr("a", -1)


def test_series_basic():
    s = SeriesRecorder("cwnd")
    s.record(0.0, 1.0)
    s.record(1.0, 3.0)
    assert len(s) == 2
    assert (s.times, s.values) == ([0.0, 1.0], [1.0, 3.0])


def test_series_rejects_time_travel():
    s = SeriesRecorder()
    s.record(1.0, 1.0)
    with pytest.raises(ValueError):
        s.record(0.5, 2.0)


def test_trace_recorder_series_identity():
    tr = TraceRecorder()
    s1 = tr.series("x")
    s2 = tr.series("x")
    assert s1 is s2


def test_percentile_median():
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([7], 90) == 7


def test_percentile_bounds():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 150)


def test_rng_streams_deterministic_and_independent():
    from repro.sim.rng import RngStreams

    a1 = RngStreams(42)
    a2 = RngStreams(42)
    xs1 = [a1.random("csma") for _ in range(5)]
    xs2 = [a2.random("csma") for _ in range(5)]
    assert xs1 == xs2
    # consuming a different stream does not perturb the first
    b = RngStreams(42)
    b.random("other")
    ys = [b.random("csma") for _ in range(5)]
    assert ys == xs1
    assert 1.0 <= b.uniform("u", 1.0, 2.0) <= 2.0
