"""Discrete-event simulation kernel.

This package is the substrate every experiment runs on: a deterministic
event queue (:mod:`repro.engine.events`), the simulator loop and clock
(:mod:`repro.engine.simulator`), and named reproducible random streams
(:mod:`repro.engine.rng`).

Events fire in the ``(time, priority, sequence)`` total order, so a run
is bit-for-bit reproducible for a given seed.
"""

from repro.engine.events import Event, EventQueue
from repro.engine.rng import RandomStreams
from repro.engine.simulator import Simulator

__all__ = [
    "Event",
    "EventQueue",
    "RandomStreams",
    "Simulator",
]
