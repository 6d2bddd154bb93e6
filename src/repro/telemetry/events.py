"""Typed lifecycle trace events and their JSONL serialization.

A :class:`TraceEvent` is one observation of the simulated system's
dynamics — a transaction arriving, a page access completing, a shadow
being forked or pruned, a commit beating (or missing) its deadline.  The
taxonomy (:data:`EVENT_KINDS`) covers the generic protocol lifecycle plus
the SCC-specific speculation machinery; every event carries the simulated
clock, the transaction id, and (when one exists) the *lane* of the
execution involved.

Lanes, not serials: :class:`~repro.protocols.base.Execution` serial
numbers are process-global (they keep counting across runs), so a raw
serial would make two identical runs produce different traces.  The
:class:`~repro.telemetry.tracer.Tracer` base class therefore renumbers
serials into run-local lanes in first-seen order, which is what makes
trace streams bit-identical across runs.

Serialization is strict and canonical: :meth:`TraceEvent.to_dict` always
emits the full key set, :meth:`TraceEvent.from_dict` refuses unknown keys
and unknown kinds, and the JSONL form round-trips floats exactly
(shortest-repr).  Sweep trace files may additionally contain *marker*
lines (plain dicts with a ``"marker"`` key, e.g. the per-cell
``cell_start`` boundary written by
:func:`~repro.experiments.runner.run_sweep`); :func:`read_trace` skips
them, :func:`iter_trace` yields every line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional, Union

from repro.errors import ConfigurationError

__all__ = [
    "EVENT_KINDS",
    "TraceEvent",
    "execution_mode",
    "is_marker",
    "iter_trace",
    "read_trace",
]

#: The complete event taxonomy.  Generic lifecycle events are emitted
#: from :mod:`repro.protocols.base` and :mod:`repro.system.model` (so
#: every protocol gets them for free); the ``shadow_*`` and ``vote``
#: events are SCC-specific and fire from :mod:`repro.core`.
EVENT_KINDS = (
    "txn_start",  # transaction arrived (system)
    "step_complete",  # one page access finished service (base protocol)
    "block",  # an execution transitioned to BLOCKED (base protocol)
    "abort",  # an execution died (system; includes shadow kills)
    "restart",  # a transaction restarted from scratch (system)
    "commit",  # a transaction committed (system)
    "deadline_miss",  # the commit landed past the deadline (system)
    "txn_finish",  # an execution exhausted its program (base protocol)
    "shadow_fork",  # SCC spawned a shadow (data.origin: spawn|restart)
    "shadow_prune",  # SCC killed a live shadow
    "shadow_promote",  # SCC promoted a speculative shadow to optimistic
    "vote",  # a deferred-termination commit/defer decision (SCC-DC/VW)
)

_KIND_SET = frozenset(EVENT_KINDS)

_EVENT_KEYS = frozenset({"time", "kind", "txn", "lane", "mode", "pos", "data"})

#: Shared canonical encoder (sorted keys, compact separators).  A cached
#: instance matters on the tracing hot path: ``json.dumps`` with
#: non-default arguments constructs a fresh ``JSONEncoder`` per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

encode_payload = _ENCODER.encode


def execution_mode(execution: Any) -> Optional[str]:
    """The shadow mode name of an execution, or ``None`` for plain ones.

    Parameters
    ----------
    execution : Execution
        Any execution; SCC shadows carry a ``mode`` enum, plain
        executions (OCC/2PL/serial) do not.
    """
    mode = getattr(execution, "mode", None)
    return mode.value if mode is not None else None


@dataclass(frozen=True)
class TraceEvent:
    """One typed lifecycle observation.

    Attributes
    ----------
    time : float
        Simulated clock at emission.
    kind : str
        One of :data:`EVENT_KINDS`.
    txn : int
        The transaction the event concerns.
    lane : int, optional
        Run-local id of the execution/shadow involved (first-seen-order
        renumbering of the execution serial), or ``None`` for
        transaction-level events.
    mode : str, optional
        Shadow mode (``"optimistic"``/``"speculative"``) for SCC events;
        ``None`` for plain executions.
    pos : int, optional
        Program position of the execution at emission.
    data : Mapping
        Kind-specific extras (e.g. ``page``/``write`` on
        ``step_complete``, ``tardiness`` on ``deadline_miss``).
    """

    time: float
    kind: str
    txn: int
    lane: Optional[int] = None
    mode: Optional[str] = None
    pos: Optional[int] = None
    data: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Canonical plain-dict form (full key set), invertible by :meth:`from_dict`."""
        return {
            "time": self.time,
            "kind": self.kind,
            "txn": self.txn,
            "lane": self.lane,
            "mode": self.mode,
            "pos": self.pos,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceEvent":
        """Rebuild an event from its :meth:`to_dict` form.

        Raises
        ------
        ConfigurationError
            On a non-dict payload, missing/unknown keys, an unknown
            ``kind``, or a non-dict ``data`` block.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"trace event payload must be a dict, got {type(payload).__name__}"
            )
        missing = _EVENT_KEYS - set(payload)
        unknown = set(payload) - _EVENT_KEYS
        if missing or unknown:
            raise ConfigurationError(
                f"trace event payload mismatch: missing {sorted(missing)}, "
                f"unknown {sorted(unknown)}"
            )
        kind = payload["kind"]
        if kind not in _KIND_SET:
            raise ConfigurationError(
                f"unknown trace event kind {kind!r}; expected one of "
                f"{list(EVENT_KINDS)}"
            )
        data = payload["data"]
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"trace event data must be a dict, got {type(data).__name__}"
            )
        return cls(
            time=payload["time"],
            kind=kind,
            txn=payload["txn"],
            lane=payload["lane"],
            mode=payload["mode"],
            pos=payload["pos"],
            data=data,
        )

    def to_json_line(self) -> str:
        """The event as one canonical JSON line (no trailing newline)."""
        return encode_payload(self.to_dict())

    @classmethod
    def from_json_line(cls, line: str) -> "TraceEvent":
        """Parse one JSONL trace line back into an event.

        Raises
        ------
        ConfigurationError
            If the line is not valid JSON or not a valid event payload.
        """
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"corrupt trace line: {exc}") from exc
        return cls.from_dict(payload)


def is_marker(payload: Mapping[str, Any]) -> bool:
    """Whether a parsed trace line is a marker (e.g. a cell boundary)."""
    return "marker" in payload


def iter_trace(path: Union[str, "object"]) -> Iterator[dict]:
    """Yield every line of a JSONL trace file as a parsed dict.

    Markers and events alike; blank lines are skipped.  Raises
    :class:`~repro.errors.ConfigurationError` on unreadable files or
    non-JSON lines.
    """
    import os

    try:
        handle = open(os.fspath(path), "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace file: {exc}") from exc
    with handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"corrupt trace line {number}: {exc}"
                ) from exc


def read_trace(path: Union[str, "object"]) -> Iterator[TraceEvent]:
    """Yield the :class:`TraceEvent` stream of a JSONL trace file.

    Marker lines (cell boundaries) are skipped; every other line must be
    a valid event payload.
    """
    for payload in iter_trace(path):
        if is_marker(payload):
            continue
        yield TraceEvent.from_dict(payload)
