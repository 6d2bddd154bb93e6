"""Sweep runner: protocols × arrival rates × replications.

Variance-reduction discipline: within one (arrival rate, replication)
cell, every protocol sees *literally the same workload* — same arrival
instants, page selections, and update coin-flips — because the workload
stream is derived from ``(seed, replication)`` only.  Confidence intervals
are computed across replications per the paper's 90% rule.

Workload shape is delegated to :mod:`repro.workloads`: each cell builds
its generator via :func:`~repro.workloads.generator.build_generator`, so
scenario configs (``config.workload``) and the paper baseline take the
same path.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from repro.analysis.serializability import check_serializable
from repro.engine.rng import RandomStreams
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    SweepExecutionError,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import (
    CellOutcome,
    ProgressCallback,
    SerialSweepExecutor,
    SweepCell,
    SweepExecutor,
    resolve_executor,
)
from repro.metrics.confidence import ConfidenceInterval, mean_confidence_interval
from repro.metrics.stats import MetricsCollector, RunSummary
from repro.protocols.registry import ProtocolSpec, protocol_spec
from repro.results.backends import open_store
from repro.results.fingerprint import cell_fingerprint, config_payload
from repro.results.record import RunRecord
from repro.results.store import BaseRunStore
from repro.protocols.base import CCProtocol
from repro.system.model import RTDBSystem
from repro.system.resources import InfiniteResources, ResourceManager
from repro.telemetry.bus import EventBus
from repro.telemetry.counters import run_telemetry
from repro.telemetry.tracer import JsonlTracer, Tracer
from repro.workloads.generator import build_generator

ProtocolFactory = Callable[[], CCProtocol]
#: What run_sweep accepts per protocol entry: a zero-arg factory, a
#: registry ProtocolSpec, a compact spec string, or a spec dict.
ProtocolLike = Union[ProtocolFactory, ProtocolSpec, str, dict]
ResourceFactory = Callable[[ExperimentConfig], ResourceManager]


def normalize_protocols(
    protocols: "Mapping[str, ProtocolLike] | Sequence[ProtocolLike]",
) -> tuple[dict[str, ProtocolFactory], dict[str, Optional[ProtocolSpec]]]:
    """Resolve the protocol argument of :func:`run_sweep`.

    Accepts either a mapping ``{label: factory-or-spec}`` or a bare
    sequence of specs/spec strings (labels then come from
    :attr:`~repro.protocols.registry.ProtocolSpec.label`).  Returns the
    ``{label: factory}`` dict the executors consume plus a parallel
    ``{label: ProtocolSpec | None}`` identity map — ``None`` marks a
    legacy opaque factory whose store identity is the label itself.

    Raises:
        ConfigurationError: On duplicate labels (two differently
            parameterized specs whose labels collide would silently
            overwrite each other's results) or an uninterpretable entry.
    """
    if isinstance(protocols, (str, ProtocolSpec)) or (
        isinstance(protocols, Mapping) and "family" in protocols
    ):
        # A single spec (string, ProtocolSpec, or {"family": ...} dict)
        # passed bare: treat it as a one-protocol roster rather than
        # iterating a string character by character or misreading the
        # spec dict as a {label: factory} mapping.
        items = [(None, protocols)]
    elif isinstance(protocols, Mapping):
        items = [(label, value) for label, value in protocols.items()]
    else:
        items = [(None, value) for value in protocols]
    factories: dict[str, ProtocolFactory] = {}
    specs: dict[str, Optional[ProtocolSpec]] = {}
    for label, value in items:
        if isinstance(value, (ProtocolSpec, str, dict)):
            spec = protocol_spec(value)
            label = spec.label if label is None else label
            factory: ProtocolFactory = spec
        elif callable(value):
            warnings.warn(
                "passing zero-arg protocol factories to run_sweep is "
                "deprecated; use registry ProtocolSpec entries (e.g. the "
                "spec string 'scc-2s' or 'scc-vw?period=0.01') so results "
                "are fingerprinted by their full protocol identity",
                DeprecationWarning,
                stacklevel=3,
            )
            spec = None
            factory = value
            if label is None:
                raise ConfigurationError(
                    f"bare protocol factory {value!r} needs a label; pass "
                    "a {label: factory} mapping or use registry specs"
                )
        else:
            raise ConfigurationError(
                f"cannot interpret protocol entry {value!r}; expected a "
                "factory, ProtocolSpec, spec string, or spec dict"
            )
        if label in factories:
            raise ConfigurationError(
                f"duplicate protocol label {label!r} in one sweep; "
                "pass an explicit {label: spec} mapping to give the "
                "variants distinct labels"
            )
        factories[label] = factory
        specs[label] = spec
    if not factories:
        raise ConfigurationError("run_sweep needs at least one protocol")
    return factories, specs


def _default_resources(config: ExperimentConfig) -> ResourceManager:
    return InfiniteResources(cpu_time=config.cpu_time, io_time=config.io_time)


def run_instrumented(
    protocol_factory: ProtocolFactory,
    config: ExperimentConfig,
    arrival_rate: float,
    replication: int = 0,
    resources: Optional[ResourceFactory] = None,
    tracer: Optional[Tracer] = None,
) -> tuple[RunSummary, dict]:
    """Run one complete simulation; return its summary and telemetry block.

    The telemetry block (see
    :func:`~repro.telemetry.counters.run_telemetry`) carries the run's
    lifecycle counters (arrivals/commits/aborts/restarts/shadow forks and
    prunes/deadline misses), gauges (peak live shadows, peak pending
    events), events fired, and host wall-clock seconds.  It is what
    ``run_sweep`` stores on :class:`~repro.results.record.RunRecord`.

    Args:
        protocol_factory: Zero-arg factory producing the protocol.
        config: Experiment configuration.
        arrival_rate: Mean arrival rate for this run.
        replication: Replication index (workload stream selector).
        resources: Optional resource-manager factory.
        tracer: Optional :class:`~repro.telemetry.tracer.Tracer` sink
            receiving typed lifecycle events.  ``None`` disables tracing
            (the zero-cost default).  Tracing never affects results.

    Raises:
        InvariantViolation: If the committed history is not serializable
            (when ``config.check_serializability`` is set) — a protocol
            bug, never a workload property.
    """
    resource_factory = resources or _default_resources
    system = RTDBSystem(
        protocol=protocol_factory(),
        num_pages=config.num_pages,
        resources=resource_factory(config),
        metrics=MetricsCollector(warmup_commits=config.warmup_commits),
        record_history=config.check_serializability,
        tracer=tracer,
    )
    started = time.perf_counter()
    streams = RandomStreams(config.seed).spawn(replication)
    generator = build_generator(config, arrival_rate, streams)
    system.load_workload(generator.generate(config.num_transactions))
    system.run()
    wall_clock = time.perf_counter() - started
    if config.check_serializability and system.history is not None:
        if not check_serializable(system.history):
            raise InvariantViolation(
                f"{system.protocol.name} produced a non-serializable history "
                f"at rate {arrival_rate}"
            )
    return system.metrics.summary(), run_telemetry(system, wall_clock)


def run_once(
    protocol_factory: ProtocolFactory,
    config: ExperimentConfig,
    arrival_rate: float,
    replication: int = 0,
    resources: Optional[ResourceFactory] = None,
    tracer: Optional[Tracer] = None,
) -> RunSummary:
    """Run one complete simulation and return its summary.

    A thin wrapper over :func:`run_instrumented` that discards the
    telemetry block; see it for the argument reference.
    """
    summary, _ = run_instrumented(
        protocol_factory,
        config,
        arrival_rate,
        replication=replication,
        resources=resources,
        tracer=tracer,
    )
    return summary


@dataclass
class SweepResult:
    """Results of one protocol sweep over arrival rates."""

    protocol: str
    arrival_rates: tuple[float, ...]
    replications: list[list[RunSummary]]  # [rate index][replication]

    def metric(self, extract: Callable[[RunSummary], float]) -> list[float]:
        """Per-rate replication means of one metric."""
        return [
            sum(extract(s) for s in summaries) / len(summaries)
            for summaries in self.replications
        ]

    def confidence(
        self, extract: Callable[[RunSummary], float], level: float = 0.90
    ) -> list[ConfidenceInterval]:
        """Per-rate confidence intervals of one metric."""
        return [
            mean_confidence_interval([extract(s) for s in summaries], level)
            for summaries in self.replications
        ]

    def missed_ratio(self) -> list[float]:
        """Per-rate mean Missed Ratio (%)."""
        return self.metric(lambda s: s.missed_ratio)

    def avg_tardiness(self) -> list[float]:
        """Per-rate mean Average Tardiness over late transactions (s)."""
        return self.metric(lambda s: s.avg_tardiness_late)

    def system_value(self) -> list[float]:
        """Per-rate mean System Value (%)."""
        return self.metric(lambda s: s.system_value)


def build_cells(
    protocol_names: Sequence[str],
    rates: Sequence[float],
    replications: int,
) -> list[SweepCell]:
    """Enumerate the sweep grid in serial order (protocol, rate, replication)."""
    cells: list[SweepCell] = []
    for name in protocol_names:
        for rate_index, rate in enumerate(rates):
            for replication in range(replications):
                cells.append(
                    SweepCell(
                        index=len(cells),
                        protocol=name,
                        rate_index=rate_index,
                        arrival_rate=rate,
                        replication=replication,
                    )
                )
    return cells


def assemble_results(
    protocol_names: Sequence[str],
    rates: Sequence[float],
    replications: int,
    outcomes: Sequence[CellOutcome],
) -> dict[str, SweepResult]:
    """Reassemble cell-ordered outcomes into per-protocol sweep results.

    Raises:
        SweepExecutionError: If any cell carries an error record.  All
            failures are attached so callers can inspect every crash at
            once rather than replaying the sweep failure by failure.
    """
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        raise SweepExecutionError(failures)
    by_index = {outcome.cell.index: outcome for outcome in outcomes}
    results: dict[str, SweepResult] = {}
    cursor = 0
    for name in protocol_names:
        per_rate: list[list[RunSummary]] = []
        for _ in rates:
            summaries: list[RunSummary] = []
            for _ in range(replications):
                summaries.append(by_index[cursor].summary)
                cursor += 1
            per_rate.append(summaries)
        results[name] = SweepResult(
            protocol=name, arrival_rates=tuple(rates), replications=per_rate
        )
    return results


def run_sweep(
    protocols: "Mapping[str, ProtocolLike] | Sequence[ProtocolLike]",
    config: ExperimentConfig,
    arrival_rates: Optional[Sequence[float]] = None,
    resources: Optional[ResourceFactory] = None,
    progress: Optional[Callable[[str, float, int], None]] = None,
    executor: "SweepExecutor | str | None" = None,
    workers: Optional[int] = None,
    on_progress: Optional[ProgressCallback] = None,
    store: Union[BaseRunStore, str, os.PathLike, None] = None,
    store_backend: Optional[str] = None,
    scenario: Optional[str] = None,
    on_event: Optional[Callable] = None,
    trace: Union[str, os.PathLike, None] = None,
) -> dict[str, SweepResult]:
    """Run every protocol over the arrival-rate sweep with replications.

    The grid is executed through a :class:`SweepExecutor`.  Because every
    cell's workload stream depends only on ``(seed, replication)``, the
    parallel executor produces summaries bit-identical to the serial path.

    With ``store`` set, the sweep becomes *persistent and resumable*:
    cells whose fingerprint (config + workload spec + cell coordinates,
    see :mod:`repro.results.fingerprint`) is already in the store are
    served from it without running, and fresh outcomes are appended
    durably as they complete — a sweep killed mid-grid resumes where it
    died, and the assembled results are bit-identical to a cold run
    (summaries round-trip through canonical JSON exactly).

    Args:
        protocols: The protocol set, normalized by
            :func:`normalize_protocols`: a ``{label: entry}`` mapping or
            a bare sequence of entries, where each entry is a registry
            :class:`~repro.protocols.registry.ProtocolSpec` (or compact
            spec string / spec dict) or a legacy zero-arg factory.  With
            a store, spec entries are fingerprinted by their full
            ``family + params`` identity — two parameterizations can
            never share a cached cell — while legacy factories fall back
            to label-as-identity: reusing a label for a differently
            parameterized factory against the same store returns the old
            records.
        config: Experiment configuration.
        arrival_rates: Overrides ``config.arrival_rates`` when given.
        resources: Optional resource-manager factory (infinite by default).
            Mutually exclusive with ``store``: resource managers are not
            fingerprinted, so caching across resource models would serve
            wrong results.
        progress: Optional callback ``(protocol, rate, replication)`` fired
            before each run under the serial executor, and as cells complete
            under the process executor (workers start cells remotely).
        executor: A :class:`SweepExecutor` instance, a registry name
            (``"serial"``/``"process"``/``"distributed"``), or ``None``
            for the default (serial, unless ``workers`` > 1 implies the
            process pool).
        workers: Worker-process count for the process and distributed
            executors.
        on_progress: Optional structured callback receiving
            :class:`~repro.experiments.parallel.ProgressEvent` ticks
            (e.g. a :class:`~repro.experiments.parallel.ProgressReporter`).
            With a store, ``completed``/``total`` count only the cells
            actually being run this invocation.
        store: An open store (:class:`~repro.results.store.RunStore` or
            :class:`~repro.results.sqlite_store.SQLiteRunStore`) or a
            path, opened via :func:`~repro.results.backends.open_store`
            (existing files are sniffed by content, new paths by
            extension).
        store_backend: Backend name from
            :data:`~repro.results.backends.STORE_BACKENDS` forcing the
            backend for a path-given ``store``; only meaningful with a
            path.
        scenario: Scenario name recorded as metadata on stored records
            (:func:`~repro.experiments.figures.run_scenario` supplies it).
        on_event: Optional subscriber for the unified sweep event stream
            (:class:`~repro.telemetry.bus.SweepEvent`): ``cell_started``
            and ``cell_completed`` progress ticks plus one
            ``cell_outcome`` per materialized outcome (carrying the
            summary dict and the run's telemetry block).  This is the
            structured superset of ``progress``/``on_progress``.
        trace: Optional path; when given, every cell's typed lifecycle
            events are appended to this JSONL trace file, with a
            ``cell_start`` marker line (and a lane-numbering reset)
            between cells.  Requires the serial executor — a single
            trace file cannot be shared across pool workers.

    Returns:
        name -> :class:`SweepResult`.

    Raises:
        SweepExecutionError: If any cell crashed.  The executor isolates
            failures per cell, so every other cell still runs to completion
            and all error records are reported together.  Failed cells are
            never persisted, so a store-backed rerun retries exactly them.
    """
    if store is not None and resources is not None:
        raise ConfigurationError(
            "run_sweep cannot combine store= with a custom resources= "
            "factory: resource managers are not part of the cell "
            "fingerprint, so cached cells from a different resource model "
            "would be served silently"
        )
    if store_backend is not None and store is None:
        raise ConfigurationError(
            "run_sweep(store_backend=...) needs store= (a path to open "
            "with that backend)"
        )
    rates = tuple(arrival_rates if arrival_rates is not None else config.arrival_rates)
    chosen = resolve_executor(executor, workers=workers)
    factories, spec_map = normalize_protocols(protocols)
    names = list(factories)
    cells = build_cells(names, rates, config.replications)

    tracer: Optional[JsonlTracer] = None
    if trace is not None:
        if not isinstance(chosen, SerialSweepExecutor):
            raise ConfigurationError(
                "run_sweep(trace=...) requires the serial executor: one "
                "JSONL trace file cannot be shared across pool workers"
            )
        tracer = JsonlTracer(trace)

    bus: Optional[EventBus] = None
    if on_event is not None:
        bus = EventBus()
        bus.subscribe(on_event)
        if hasattr(chosen, "lifecycle_hook"):
            # The distributed executor reports its worker fleet
            # (spawn/stop/loss, lease-expiry retries) through this seam.
            chosen.lifecycle_hook = bus.publish_lifecycle

    def run_cell(cell: SweepCell) -> tuple[RunSummary, dict]:
        if tracer is not None:
            # One marker + a fresh lane numbering per cell, so each
            # cell's event stream is self-contained and reproducible.
            tracer.reset_lanes()
            tracer.write_marker(
                {
                    "marker": "cell_start",
                    "index": cell.index,
                    "protocol": cell.protocol,
                    "arrival_rate": cell.arrival_rate,
                    "replication": cell.replication,
                }
            )
        return run_instrumented(
            factories[cell.protocol],
            config,
            arrival_rate=cell.arrival_rate,
            replication=cell.replication,
            resources=resources,
            tracer=tracer,
        )

    # Legacy (name, rate, replication) progress: fire on "started" ticks
    # under the serial executor (preserving pre-run semantics) and on
    # "completed" ticks otherwise, since worker starts are not observable.
    legacy_kind = (
        "started" if isinstance(chosen, SerialSweepExecutor) else "completed"
    )

    def emit(event) -> None:
        if progress is not None and event.kind == legacy_kind:
            progress(event.cell.protocol, event.cell.arrival_rate,
                     event.cell.replication)
        if on_progress is not None:
            on_progress(event)
        if bus is not None:
            bus.publish_progress(event)

    callback = (
        emit
        if (progress is not None or on_progress is not None or bus is not None)
        else None
    )

    if store is None:
        def outcome_hook(outcome: CellOutcome) -> None:
            if bus is not None:
                bus.publish_outcome(outcome)

        try:
            outcomes = chosen.run(
                cells,
                run_cell,
                on_progress=callback,
                on_outcome=outcome_hook if bus is not None else None,
            )
        finally:
            if tracer is not None:
                tracer.close()
        return assemble_results(names, rates, config.replications, outcomes)

    owns_store = not isinstance(store, BaseRunStore)
    run_store = open_store(store, backend=store_backend)
    payload = config_payload(config)
    fingerprints = {
        cell.index: cell_fingerprint(
            payload,
            spec_map[cell.protocol] or cell.protocol,
            cell.arrival_rate,
            cell.replication,
        )
        for cell in cells
    }
    cached: dict[int, CellOutcome] = {}
    missing: list[SweepCell] = []
    for cell in cells:
        record = run_store.get(fingerprints[cell.index])
        if record is not None:
            cached[cell.index] = CellOutcome(
                cell=cell, summary=record.summary, error=None,
                elapsed=record.elapsed, telemetry=record.telemetry,
            )
        else:
            missing.append(cell)

    if bus is not None:
        # Cached cells never reach the executor; surface them on the bus
        # up front so subscribers see the complete grid.
        for cell in cells:
            if cell.index in cached:
                bus.publish_outcome(cached[cell.index], cached=True)

    def persist(outcome: CellOutcome) -> None:
        # Parent-side, per completed cell: each append is flushed + fsync'd
        # before the next cell's outcome lands, which is what makes a
        # killed sweep resume from its last *completed* cell.
        if outcome.ok:
            run_store.append(
                RunRecord.from_outcome(
                    config, outcome, scenario=scenario,
                    config_payload_dict=payload,
                    protocol_spec=spec_map[outcome.cell.protocol],
                )
            )
        if bus is not None:
            bus.publish_outcome(outcome)

    fresh: dict[int, CellOutcome] = {}
    try:
        if missing:
            for outcome in chosen.run(
                missing, run_cell, on_progress=callback, on_outcome=persist
            ):
                fresh[outcome.cell.index] = outcome
    finally:
        if tracer is not None:
            tracer.close()
        if owns_store:
            # Release the append handle we opened; caller-supplied stores
            # manage their own lifecycle.
            run_store.close()
    outcomes = [
        cached[cell.index] if cell.index in cached else fresh[cell.index]
        for cell in cells
    ]
    return assemble_results(names, rates, config.replications, outcomes)
