"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`install` wraps
public callables of ``repro`` at the name their caller resolves (a module
global such as ``repro.experiments.runner.check_serializable``, or a method
on the class that defines it), so nothing inside ``src/`` changes.  A span
carries its name, start, end, parent and cell id; spans are kept in memory
and written out only when the run ends.

A target that no longer exists (renamed or removed by a later change) is
reported as absent, never as an error, so the benchmark keeps running.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (layer span name, module, attribute path) for every wrapped callable.
#: The attribute path is either a module global the caller resolves at
#: call time, or ``Class.method``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.build_generator", "repro.experiments.runner", "build_generator"),
    ("workloads.generate", "repro.workloads.generator", "TransactionGenerator.generate"),
    ("system.load_workload", "repro.system.model", "RTDBSystem.load_workload"),
    ("system.run", "repro.system.model", "RTDBSystem.run"),
    ("analysis.check_serializable", "repro.experiments.runner", "check_serializable"),
    ("metrics.summary", "repro.metrics.stats", "MetricsCollector.summary"),
    ("telemetry.run_telemetry", "repro.experiments.runner", "run_telemetry"),
    ("results.cell_fingerprint", "repro.experiments.runner", "cell_fingerprint"),
    ("results.cell_fingerprint", "repro.gateway.app", "cell_fingerprint"),
    ("results.store_get", "repro.results.store", "BaseRunStore.get"),
    ("results.store_append", "repro.results.store", "RunStore.append"),
    ("results.store_append", "repro.results.sqlite_store", "SQLiteRunStore.append"),
)

#: The span that roots one cell executed by a gateway worker thread.
GATEWAY_CELL_TARGET = ("experiments.cell", "repro.gateway.app", "_execute_cell")

#: Per-layer metric -> the span names whose self time it sums.
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "workloads.build_s": ("workloads.build_generator", "workloads.generate"),
    "system.load_s": ("system.load_workload",),
    "system.run_s": ("system.run",),
    "analysis.serializability_s": ("analysis.check_serializable",),
    "metrics.summary_s": ("metrics.summary",),
    "telemetry.run_telemetry_s": ("telemetry.run_telemetry",),
    "experiments.self_s": ("experiments.cell",),
    "results.fingerprint_s": ("results.cell_fingerprint",),
    "results.store_get_s": ("results.store_get",),
    "results.store_append_s": ("results.store_append",),
}


@dataclass
class Span:
    """One timed call at a layer boundary (``perf_counter`` seconds)."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    cell: Optional[str]


class SpanRecorder:
    """Collect spans in memory; each thread keeps its own open-span stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, cell: Optional[str] = None) -> Span:
        """Start a span as a child of this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if cell is None and parent is not None:
            cell = parent.cell
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent.id if parent is not None else None,
            cell=cell,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """End ``span`` (and any child a raised exception left open)."""
        span.end = time.perf_counter()
        stack = self._stack()
        while stack:
            if stack.pop() is span:
                break
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` recording one span per call under ``name``."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = func(*args, **kwargs)
                if name == "workloads.generate":
                    # generate() is lazy; materialize it inside the span so
                    # the build time is not billed to load_workload.
                    result = iter(list(result))
                return result
            finally:
                self.close(span)

        return traced

    def dump(self, path: str, absent: Sequence[str] = ()) -> None:
        """Write every closed span, and the absent target names, as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"absent": list(absent), "spans": [asdict(span) for span in self.spans]},
                handle,
            )


def load_spans(path: str) -> Tuple[List[Span], List[str]]:
    """``(spans, absent target names)`` written by :meth:`SpanRecorder.dump`."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return [Span(**entry) for entry in data["spans"]], data["absent"]


def _resolve(module_name: str, attr_path: str):
    """``(owner, attribute, current value)`` or ``None`` when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # Wrap only where the class itself defines the method, so a
        # subclass override is never replaced by its base's version.
        if attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]
    value = getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


def install(
    recorder: SpanRecorder,
    targets: Iterable[Tuple[str, str, str]] = TARGETS,
) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every target; return ``(uninstall, absent target names)``."""
    restore: List[Tuple[object, str, object]] = []
    absent: List[str] = []
    for name, module_name, attr_path in targets:
        found = _resolve(module_name, attr_path)
        if found is None or not callable(found[2]):
            absent.append(f"{module_name}.{attr_path}")
            continue
        owner, attr, original = found
        setattr(owner, attr, recorder.wrap(name, original))
        restore.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall, absent


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of that interval
    its child spans cover (children of one span never overlap, since a
    thread runs one call at a time).
    """
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = (
                child_time.get(span.parent, 0.0) + span.end - span.start
            )
    totals: Dict[str, float] = {}
    for span in spans:
        own = span.end - span.start - child_time.get(span.id, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def layer_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per per-layer metric of :data:`LAYER_SPANS`."""
    totals = self_times(spans)
    return {
        layer: sum(totals.get(name, 0.0) for name in names)
        for layer, names in LAYER_SPANS.items()
    }


def format_table(
    title: str, layers: Dict[str, float], cells: int, absent: Sequence[str]
) -> str:
    """A per-layer self-time table: total, per delivered cell, share."""
    total = sum(layers.values()) or 1.0
    lines = [
        f"per-layer self time: {title} ({cells} cells delivered)",
        f"  {'layer':<28}{'total s':>10}{'s/cell':>10}{'share':>8}",
    ]
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        per_cell = seconds / cells if cells else 0.0
        lines.append(
            f"  {layer:<28}{seconds:>10.4f}{per_cell:>10.5f}"
            f"{100 * seconds / total:>7.1f}%"
        )
    for name in absent:
        lines.append(f"  absent: {name}")
    return "\n".join(lines)


def per_layer_metrics(
    spans: Sequence[Span], delivered: int, computed: Sequence[dict]
) -> Dict[str, Tuple[float, str]]:
    """The simulation and store layers of one traced run.

    Times are self seconds per cell delivered to the caller.  Counts come
    from the ``telemetry`` block and summary of each cell computed in the
    run (``computed`` holds ``{"telemetry": ..., "summary": ...}``), as a
    mean per computed cell.
    """
    layers = layer_times(spans)
    per_cell = max(delivered, 1)
    out: Dict[str, Tuple[float, str]] = {
        name: (seconds / per_cell, "s") for name, seconds in layers.items()
    }
    count = max(len(computed), 1)

    def counted(extract: Callable[[dict], float]) -> float:
        return sum(extract(cell) for cell in computed) / count

    events = sum(cell["telemetry"]["events_fired"] for cell in computed)
    out["engine.events_fired"] = (
        counted(lambda c: c["telemetry"]["events_fired"]), "count"
    )
    out["system.run_us_per_event"] = (
        1e6 * layers["system.run_s"] / events if events else 0.0, "us"
    )
    out["core.shadow_forks"] = (
        counted(lambda c: c["telemetry"]["counters"].get("shadow_forks", 0)),
        "count",
    )
    out["core.peak_live_shadows"] = (
        counted(lambda c: c["telemetry"]["gauges"].get("peak_live_shadows", 0)),
        "count",
    )
    out["protocols.restarts"] = (
        counted(lambda c: c["telemetry"]["counters"].get("restarts", 0)),
        "count",
    )
    useful = sum(cell["summary"]["useful_work"] for cell in computed)
    wasted = sum(cell["summary"]["wasted_work"] for cell in computed)
    out["protocols.useful_work_ratio"] = (
        useful / (useful + wasted) if useful + wasted > 0 else 0.0, "ratio"
    )
    cell_total = sum(
        span.end - span.start for span in spans if span.name == "experiments.cell"
    )
    out["analysis.serializability_share"] = (
        layers["analysis.serializability_s"] / cell_total if cell_total else 0.0,
        "ratio",
    )
    return out
