"""Event queue for the discrete-event simulator.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
makes ordering total and deterministic: two events scheduled for the same
instant fire in the order they were scheduled, which keeps whole simulation
runs bit-for-bit reproducible for a given seed.

Performance notes (this queue is the hottest structure in the library —
every simulated page access passes through it twice):

* Heap entries are ``(time, priority, sequence, event)`` tuples, not
  :class:`Event` objects.  Tuple comparison runs entirely in C and the
  unique sequence number guarantees the ``event`` element is never
  compared, so a push/pop pays zero Python-level ``__lt__`` calls.
* Cancellation is lazy: :meth:`Event.cancel` marks the event dead and the
  queue skips dead entries on pop.  This is O(1) per cancellation and
  avoids re-heapifying, at the cost of dead entries lingering until
  popped — the standard idiom for simulation queues.
* :meth:`pop_due` fuses the simulator loop's peek-then-pop pair into one
  heap traversal.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError


def event_sort_position(
    time: float, priority: int, sequence: int
) -> tuple[float, int, int]:
    """The total-order key of one scheduled event.

    Events fire in ascending ``(time, priority, sequence)`` order; the
    unique sequence number makes the order total, which is what makes
    whole simulation runs bit-for-bit reproducible.
    """
    return (time, priority, sequence)


def fires_before(
    a: tuple[float, int, int], b: tuple[float, int, int]
) -> bool:
    """Whether event key ``a`` fires strictly before event key ``b``."""
    return a < b


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time : float
        Simulated time at which the callback fires.
    priority : int
        Tie-breaker fired before ``sequence``; lower fires first.
        Protocols use this to order same-instant activities (e.g. commit
        processing before new arrivals).
    sequence : int
        Scheduling order; makes event ordering total and deterministic.
    callback : Callable
        Callable invoked as ``callback(*args)`` when the event fires.
    args : tuple
        Positional arguments forwarded to the callback.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "args", "_cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this event."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._cancelled = True

    def sort_position(self) -> tuple[float, int, int]:
        """The event's position in the total firing order.

        See :func:`event_sort_position`.
        """
        return event_sort_position(self.time, self.priority, self.sequence)

    def __lt__(self, other: "Event") -> bool:
        """Order events by ``(time, priority, sequence)``.

        Kept for API compatibility (e.g. sorting event lists in tests);
        the queue itself compares tuple entries and never calls this.
        """
        return fires_before(
            (self.time, self.priority, self.sequence),
            (other.time, other.priority, other.sequence),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "live"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6f}, prio={self.priority}, {name}, {state})"


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    __slots__ = ("_heap", "_sequence", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at ``time`` and return its handle.

        Parameters
        ----------
        time : float
            Absolute simulated firing time.
        callback : Callable
            Invoked as ``callback(*args)`` when the event fires.
        *args
            Positional arguments forwarded to the callback.
        priority : int, optional
            Same-instant tie-breaker; lower fires first.

        Returns
        -------
        Event
            A handle usable with :meth:`cancel`.
        """
        return self.push_at(time, priority, callback, args)

    def push_at(
        self,
        time: float,
        priority: int,
        callback: Callable[..., Any],
        args: tuple,
    ) -> Event:
        """Positional fast path of :meth:`push` (no varargs/kwargs framing).

        Parameters
        ----------
        time : float
            Absolute simulated firing time.
        priority : int
            Same-instant tie-breaker; lower fires first.
        callback : Callable
            Invoked as ``callback(*args)`` when the event fires.
        args : tuple
            Pre-packed positional arguments for the callback.

        Returns
        -------
        Event
            A handle usable with :meth:`cancel`.
        """
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback, args)
        self._live += 1
        heapq.heappush(self._heap, (time, priority, sequence, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Returns
        -------
        Event
            The earliest event by ``(time, priority, sequence)``.

        Raises
        ------
        SimulationError
            If the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if not event._cancelled:
                self._live -= 1
                return event
        raise SimulationError("pop from an empty event queue")

    def pop_due(self, until: Optional[float] = None) -> Optional[Event]:
        """Pop the earliest live event firing at or before ``until``.

        Fuses the peek/pop pair the simulator loop would otherwise perform
        into a single heap traversal (dead entries are skipped once, not
        twice).

        Parameters
        ----------
        until : float, optional
            Inclusive time bound; ``None`` means no bound.

        Returns
        -------
        Event or None
            The event, or ``None`` when the queue is drained or the next
            live event fires after ``until`` (that event stays queued).
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3]._cancelled:
                heapq.heappop(heap)
                continue
            if until is not None and head[0] > until:
                return None
            heapq.heappop(heap)
            self._live -= 1
            return head[3]
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest live event, or ``None``."""
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` if it is still pending.

        Parameters
        ----------
        event : Event
            Handle returned by :meth:`push`.  Cancelling a fired or
            already-cancelled event is a no-op.
        """
        if not event._cancelled:
            event._cancelled = True
            self._live -= 1

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0
