"""The simulator: a clock plus an event loop.

The simulator advances time by firing events in deterministic order.  All
model components (workload generator, resource manager, concurrency-control
protocol) interact with simulated time exclusively through
:meth:`Simulator.schedule` / :meth:`Simulator.cancel`, which keeps them
trivially composable and testable.

The :meth:`Simulator.run` loop is the single hottest frame of every
experiment sweep; it drives the queue through
:meth:`~repro.engine.events.EventQueue.pop_due` (one fused heap traversal
per event instead of a peek/pop pair) and keeps all per-event state in
locals.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.engine.events import Event, EventQueue
from repro.errors import SimulationError


class Simulator:
    """Discrete-event simulation loop.

    Attributes
    ----------
    now : float
        Current simulated time (seconds).  Starts at 0.0.
    metered : bool
        When set, :meth:`run` tracks the peak live-event queue depth in
        :attr:`peak_pending` (one O(1) length read and integer compare
        per fired event).  Off by default for bare-simulator use.
    peak_pending : int
        Highest live pending-event count observed while ``metered``.
    """

    __slots__ = ("now", "_queue", "_running", "_events_fired", "metered", "peak_pending")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue = EventQueue()
        self._running = False
        self._events_fired = 0
        self.metered = False
        self.peak_pending = 0

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (for instrumentation)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of live events awaiting execution."""
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Parameters
        ----------
        delay : float
            Non-negative offset from the current time.
        callback : Callable
            Callable invoked when the event fires.
        *args
            Positional arguments forwarded to the callback.
        priority : int, optional
            Same-instant tie-breaker; lower fires first.

        Returns
        -------
        Event
            A handle usable with :meth:`cancel`.

        Raises
        ------
        SimulationError
            If ``delay`` is negative or not finite.
        """
        if not (delay >= 0.0):  # also rejects NaN
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        return self._queue.push_at(self.now + delay, priority, callback, args)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Parameters
        ----------
        time : float
            Absolute firing time; must not precede the current clock.
        callback : Callable
            Callable invoked when the event fires.
        *args
            Positional arguments forwarded to the callback.
        priority : int, optional
            Same-instant tie-breaker; lower fires first.

        Returns
        -------
        Event
            A handle usable with :meth:`cancel`.

        Raises
        ------
        SimulationError
            If ``time`` precedes the current clock.
        """
        if not (time >= self.now):
            raise SimulationError(
                f"cannot schedule at t={time!r}, which precedes now={self.now!r}"
            )
        return self._queue.push_at(time, priority, callback, args)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.  Cancelling a fired/cancelled event is a no-op."""
        self._queue.cancel(event)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Fire events until the queue drains or a bound is hit.

        Parameters
        ----------
        until : float, optional
            If given, stop once the next event would fire after this time
            (the clock is still advanced to ``until``).
        max_events : int, optional
            If given, stop after firing this many events — a guard against
            accidental non-termination in tests.

        Raises
        ------
        SimulationError
            On re-entrant ``run`` calls.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        fired = 0
        queue = self._queue
        pop_due = queue.pop_due
        metered = self.metered
        peak = self.peak_pending
        try:
            while max_events is None or fired < max_events:
                event = pop_due(until)
                if event is None:
                    break
                self.now = event.time
                fired += 1
                event.callback(*event.args)
                if metered:
                    pending = queue._live  # len(queue), without the frame
                    if pending > peak:
                        peak = pending
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._events_fired += fired
            if metered and peak > self.peak_pending:
                self.peak_pending = peak
            self._running = False

    def step(self) -> bool:
        """Fire exactly one event.  Returns ``False`` when the queue is empty."""
        if not self._queue:
            return False
        event = self._queue.pop()
        self.now = event.time
        self._events_fired += 1
        event.callback(*event.args)
        return True

