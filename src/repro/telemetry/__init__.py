"""Unified observability: tracing, counters, sweep events, and logging.

Four small layers, each usable alone:

* :mod:`repro.telemetry.events` / :mod:`repro.telemetry.tracer` — typed
  per-run lifecycle traces (zero-cost when disabled; JSONL or in-memory
  sinks; identical streams from identical runs).
* :mod:`repro.telemetry.counters` — always-on run counters/gauges,
  sampled into the ``telemetry`` block on stored run records.
* :mod:`repro.telemetry.bus` — the structured sweep event stream behind
  ``run_sweep(on_event=...)``.
* :mod:`repro.telemetry.log` — the ``repro`` stdlib logger and its
  one-call configuration.

See docs/ARCHITECTURE.md ("Telemetry & observability") for the event
taxonomy and the overhead contract.
"""

from repro.telemetry.bus import SWEEP_EVENT_KINDS, EventBus, SweepEvent
from repro.telemetry.counters import TELEMETRY_SCHEMA, CounterRegistry, run_telemetry
from repro.telemetry.events import (
    EVENT_KINDS,
    TraceEvent,
    execution_mode,
    is_marker,
    iter_trace,
    read_trace,
)
from repro.telemetry.log import LOG_LEVELS, configure_logging, get_logger
from repro.telemetry.tracer import JsonlTracer, MemoryTracer, NullTracer, Tracer

__all__ = [
    "EVENT_KINDS",
    "LOG_LEVELS",
    "SWEEP_EVENT_KINDS",
    "TELEMETRY_SCHEMA",
    "CounterRegistry",
    "EventBus",
    "JsonlTracer",
    "MemoryTracer",
    "NullTracer",
    "SweepEvent",
    "TraceEvent",
    "Tracer",
    "configure_logging",
    "execution_mode",
    "get_logger",
    "is_marker",
    "iter_trace",
    "read_trace",
    "run_telemetry",
]
