"""Unit tests for the event queue."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.events import EventQueue, event_sort_position, fires_before
from repro.errors import SimulationError


def test_pop_orders_by_time():
    queue = EventQueue()
    fired = []
    queue.push(2.0, fired.append, "b")
    queue.push(1.0, fired.append, "a")
    queue.push(3.0, fired.append, "c")
    while queue:
        event = queue.pop()
        event.callback(*event.args)
    assert fired == ["a", "b", "c"]


def test_same_time_fires_in_schedule_order():
    queue = EventQueue()
    first = []
    queue.push(1.0, first.append, 1)
    queue.push(1.0, first.append, 2)
    queue.push(1.0, first.append, 3)
    while queue:
        event = queue.pop()
        event.callback(*event.args)
    assert first == [1, 2, 3]


def test_priority_breaks_same_time_ties():
    queue = EventQueue()
    fired = []
    queue.push(1.0, fired.append, "late", priority=10)
    queue.push(1.0, fired.append, "early", priority=0)
    while queue:
        event = queue.pop()
        event.callback(*event.args)
    assert fired == ["early", "late"]


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    fired = []
    keep = queue.push(1.0, fired.append, "keep")
    drop = queue.push(0.5, fired.append, "drop")
    queue.cancel(drop)
    assert len(queue) == 1
    event = queue.pop()
    event.callback(*event.args)
    assert fired == ["keep"]
    assert keep.cancelled is False


def test_cancel_is_idempotent():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0


def test_pop_empty_raises():
    queue = EventQueue()
    with pytest.raises(SimulationError):
        queue.pop()


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    early = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.cancel(early)
    assert queue.peek_time() == 2.0


def test_peek_time_empty_returns_none():
    queue = EventQueue()
    assert queue.peek_time() is None
    event = queue.push(1.0, lambda: None)
    queue.cancel(event)
    assert queue.peek_time() is None


def test_clear_drops_everything():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.clear()
    assert len(queue) == 0
    assert not queue


def test_event_sort_position_is_the_triple():
    assert event_sort_position(1.5, 2, 9) == (1.5, 2, 9)


@given(
    st.tuples(st.floats(0, 100), st.integers(0, 10), st.integers(0, 1000)),
    st.tuples(st.floats(0, 100), st.integers(0, 10), st.integers(0, 1000)),
)
def test_fires_before_is_lexicographic(a, b):
    assert fires_before(a, b) == (a < b)
    # Antisymmetry on distinct keys: exactly one direction fires first.
    if a != b:
        assert fires_before(a, b) != fires_before(b, a)
