"""Discrete-event loop: ordering, determinism, control."""

import pickle

import pytest

from repro.sim.engine import EventBudgetExceeded, EventLoop


def test_events_run_in_time_order():
    loop = EventLoop()
    order = []
    loop.call_at(2.0, lambda: order.append("b"))
    loop.call_at(1.0, lambda: order.append("a"))
    loop.call_at(3.0, lambda: order.append("c"))
    loop.run_until(10.0)
    assert order == ["a", "b", "c"]


def test_ties_break_by_scheduling_order():
    loop = EventLoop()
    order = []
    for name in "abc":
        loop.call_at(1.0, lambda n=name: order.append(n))
    loop.run_until(2.0)
    assert order == ["a", "b", "c"]


def test_ties_break_by_origin_before_scheduling_order():
    # An ACK scheduled at t=0 for its departure at 0.5 takes the place
    # of an event scheduled at 0.5: after a timer armed at 0.2, before
    # one armed at 0.7.
    loop = EventLoop()
    order = []
    loop.call_at_from(1.0, 0.5, order.append, "ack")
    loop.call_at(0.2, loop.call_at, 1.0, order.append, "armed at 0.2")
    loop.call_at(0.7, loop.call_at, 1.0, order.append, "armed at 0.7")
    loop.run_until(2.0)
    assert order == ["armed at 0.2", "ack", "armed at 0.7"]


def test_an_origin_lies_between_now_and_the_event():
    loop = EventLoop()
    for when, origin in ((1.0, -0.1), (1.0, 1.5), (1.0, float("nan"))):
        with pytest.raises(ValueError):
            loop.call_at_from(when, origin, print)


def test_run_until_stops_at_deadline():
    loop = EventLoop()
    fired = []
    loop.call_at(5.0, lambda: fired.append(5))
    loop.call_at(15.0, lambda: fired.append(15))
    loop.run_until(10.0)
    assert fired == [5]
    assert loop.now == 10.0
    assert loop.pending() == 1


def test_event_at_exact_deadline_runs():
    loop = EventLoop()
    fired = []
    loop.call_at(10.0, lambda: fired.append(1))
    loop.run_until(10.0)
    assert fired == [1]


def test_clock_advances_to_deadline_when_queue_drains():
    loop = EventLoop()
    loop.run_until(42.0)
    assert loop.now == 42.0


def test_call_later_is_relative():
    loop = EventLoop()
    times = []
    loop.call_at(
        5.0, lambda: loop.call_later(2.0, lambda: times.append(loop.now))
    )
    loop.run_until(10.0)
    assert times == [7.0]


def test_cannot_schedule_in_the_past():
    loop = EventLoop()
    loop.call_at(5.0, lambda: None)
    loop.run_until(5.0)
    with pytest.raises(ValueError):
        loop.call_at(3.0, lambda: None)


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.call_later(-1.0, lambda: None)


def test_events_can_schedule_events():
    loop = EventLoop()
    hits = []

    def recurse():
        hits.append(loop.now)
        if len(hits) < 5:
            loop.call_later(1.0, recurse)

    loop.call_at(0.0, recurse)
    loop.run_until(100.0)
    assert hits == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_stop_halts_processing():
    loop = EventLoop()
    hits = []

    def first():
        hits.append(1)
        loop.stop()

    loop.call_at(1.0, first)
    loop.call_at(2.0, lambda: hits.append(2))
    loop.run_until(10.0)
    assert hits == [1]
    assert loop.pending() == 1


def test_stop_does_not_move_the_clock_past_queued_events():
    loop = EventLoop()
    seen = []

    def first():
        loop.stop()

    def second():
        seen.append(loop.now)
        loop.call_later(1.0, seen.append, "later")

    loop.call_at(1.0, first)
    loop.call_at(2.0, second)
    loop.run_until(10.0)
    assert loop.now == 1.0  # Not 10.0: the 2.0 event is still due.
    loop.run_until(10.0)  # Resumes forwards, never 10.0 -> 2.0.
    assert seen == [2.0, "later"]
    assert loop.now == 10.0 and loop.pending() == 0


def test_nan_time_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.call_at(float("nan"), lambda: None)
    with pytest.raises(ValueError):
        loop.call_later(float("nan"), lambda: None)
    assert loop.pending() == 0


def test_callback_arguments_ride_in_the_event():
    loop = EventLoop()
    calls = []

    def record(*args):
        calls.append(args)

    loop.call_at(1.0, record, "a", 1)
    loop.call_at(1.0, record)  # Zero-argument callbacks as ever.
    loop.call_later(1.0, record, "c", 3)  # A tie: scheduling order wins,
    loop.call_at(1.0, record, [], {})  # arguments are never compared.
    loop.run_until(2.0)
    assert calls == [("a", 1), (), ("c", 3), ([], {})]


def test_run_all_counts_events():
    loop = EventLoop()
    for i in range(7):
        loop.call_at(float(i), lambda: None)
    assert loop.run_all() == 7


def test_run_all_guards_against_runaway():
    loop = EventLoop()

    def forever():
        loop.call_later(0.001, forever)

    loop.call_at(0.0, forever)
    with pytest.raises(EventBudgetExceeded) as excinfo:
        loop.run_all(max_events=100)
    assert isinstance(excinfo.value, RuntimeError)
    assert (excinfo.value.events, excinfo.value.budget) == (100, 100)


def test_run_until_stops_a_runaway_at_its_budget():
    loop = EventLoop()
    ran = []

    def forever():
        ran.append(loop.now)
        loop.call_later(0.25, forever)

    loop.call_at(0.0, forever)
    with pytest.raises(EventBudgetExceeded) as excinfo:
        loop.run_until(100.0, max_events=8)
    exc = excinfo.value
    assert (exc.time, exc.events, exc.budget) == (1.75, 8, 8)
    assert len(ran) == 8 and loop.events_processed == 8
    assert "budget of 8" in str(exc)
    clone = pickle.loads(pickle.dumps(exc))  # Crosses a worker pool.
    assert (clone.time, clone.events, clone.budget) == (1.75, 8, 8)


def test_run_until_budget_counts_only_events_it_runs():
    loop = EventLoop()
    for t in (1.0, 2.0, 3.0):
        loop.call_at(t, lambda: None)
    loop.run_until(2.0, max_events=2)  # Exactly the budget: no error.
    loop.run_until(3.0, max_events=1)  # Per call.
    assert loop.events_processed == 3
