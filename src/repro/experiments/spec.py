"""Declarative experiment specifications and the fluent builder.

An :class:`ExperimentSpec` is the single artifact that describes one
whole experiment: the workload scenario, the protocol roster (registry
:class:`~repro.protocols.registry.ProtocolSpec` entries), the grid axes
(arrival rates × replications), scale knobs, the execution policy
(executor/workers), and the run store.  It round-trips through plain
dicts/JSON exactly, so experiments can live in version-controlled files
(``repro run spec.json``), notebooks, or CI gates, and the same spec
always addresses the same run-store cells.

The :class:`Experiment` builder is the fluent front door::

    from repro.experiments.spec import Experiment

    results = (
        Experiment.scenario("flash-sale-hotspot")
        .protocols("scc-2s", "occ-bc")
        .rates(20, 120, step=20)
        .replications(10)
        .store("runs.jsonl")
        .run(executor="process")
    )

Everything downstream — :func:`~repro.experiments.runner.run_sweep`, the
figure runners, the CLI, and the scripts — consumes the spec's pieces
through the same normalization, so a JSON spec run via the CLI is
bit-identical to the equivalent direct ``run_sweep`` call.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig, baseline_config
from repro.experiments.runner import (
    ProtocolLike,
    SweepResult,
    normalize_protocols,
    run_sweep,
)
from repro.protocols.registry import ProtocolSpec, protocol_spec
from repro.workloads.scenarios import Scenario, get_scenario, scenario_from_dict

__all__ = ["SPEC_SCHEMA", "Experiment", "ExperimentSpec"]

#: Version stamped into every serialized experiment spec.
SPEC_SCHEMA = 1

_SPEC_KEYS = frozenset(
    {
        "schema",
        "protocols",
        "scenario",
        "scenario_def",
        "arrival_rates",
        "replications",
        "num_transactions",
        "warmup_commits",
        "seed",
        "executor",
        "workers",
        "store",
        "store_backend",
        "telemetry",
    }
)

#: Values of the retired ``engine`` key that specs written by earlier
#: versions may carry; :meth:`ExperimentSpec.from_dict` drops them with
#: a :class:`DeprecationWarning` (a ``null`` value is dropped silently).
_LEGACY_ENGINES = frozenset({"object", "array"})

#: Keys an ``ExperimentSpec.telemetry`` block may carry.
_TELEMETRY_KEYS = frozenset({"trace", "log_level"})


@dataclass(frozen=True)
class ExperimentSpec:
    """One complete, serializable experiment description.

    ``None`` fields mean "use the scenario's/config's default", so a
    minimal spec is just a protocol roster; everything else inherits the
    paper-baseline behaviour.

    Attributes:
        protocols: Registry protocol specs, in sweep order.  Labels
            (series keys in the results) come from each spec's
            :attr:`~repro.protocols.registry.ProtocolSpec.label`.
        scenario: Name of a registered workload scenario, or ``None``
            for the paper baseline.  Mutually exclusive with
            ``scenario_def``.
        scenario_def: An inline (unregistered) scenario definition.
        arrival_rates: Sweep axis override (tps).
        replications: Replications per grid point.
        num_transactions: Completed transactions per run.
        warmup_commits: Commits excluded from metrics at run start.
        seed: Root RNG seed.
        executor: Default executor registry name (``"serial"`` /
            ``"process"`` / ``"distributed"``).
        workers: Default worker count for the process and distributed
            executors.
        store: Default run-store path.
        store_backend: Default store backend
            (:data:`~repro.results.backends.STORE_BACKENDS` name) for a
            path-given store; ``None`` lets the path decide (existing
            files are sniffed by content, new paths by extension).
        telemetry: Default observability policy — a dict with optional
            ``"trace"`` (JSONL trace-file path) and ``"log_level"``
            (:data:`~repro.telemetry.log.LOG_LEVELS` name) keys, or
            ``None`` for no telemetry.  Pure execution policy: tracing never perturbs results, so the block never
            enters the fingerprint.
    """

    protocols: tuple[ProtocolSpec, ...]
    scenario: Optional[str] = None
    scenario_def: Optional[Scenario] = None
    arrival_rates: Optional[tuple[float, ...]] = None
    replications: Optional[int] = None
    num_transactions: Optional[int] = None
    warmup_commits: Optional[int] = None
    seed: Optional[int] = None
    executor: Optional[str] = None
    workers: Optional[int] = None
    store: Optional[str] = None
    store_backend: Optional[str] = None
    telemetry: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.store_backend is not None:
            from repro.results.backends import STORE_BACKENDS

            if self.store_backend not in STORE_BACKENDS:
                raise ConfigurationError(
                    f"unknown store backend {self.store_backend!r}; "
                    f"choose from {list(STORE_BACKENDS)}"
                )
        if self.telemetry is not None:
            if not isinstance(self.telemetry, dict):
                raise ConfigurationError(
                    f"spec telemetry must be a dict, "
                    f"got {type(self.telemetry).__name__}"
                )
            unknown = set(self.telemetry) - _TELEMETRY_KEYS
            if unknown:
                raise ConfigurationError(
                    f"unknown telemetry keys: {sorted(unknown)} "
                    f"(choose from {sorted(_TELEMETRY_KEYS)})"
                )
            level = self.telemetry.get("log_level")
            if level is not None:
                from repro.telemetry.log import LOG_LEVELS

                if level not in LOG_LEVELS:
                    raise ConfigurationError(
                        f"unknown telemetry log_level {level!r}; choose "
                        f"from {list(LOG_LEVELS)}"
                    )
        if not self.protocols:
            raise ConfigurationError(
                "experiment spec needs at least one protocol"
            )
        for entry in self.protocols:
            if not isinstance(entry, ProtocolSpec):
                raise ConfigurationError(
                    f"experiment spec protocols must be ProtocolSpec "
                    f"instances, got {entry!r} (use ExperimentSpec.create "
                    "or the Experiment builder to coerce strings/dicts)"
                )
        if self.scenario is not None and self.scenario_def is not None:
            raise ConfigurationError(
                "experiment spec takes either a scenario name or an "
                "inline scenario_def, not both"
            )

    @classmethod
    def create(
        cls,
        protocols: Sequence[ProtocolLike],
        scenario: "str | Scenario | None" = None,
        arrival_rates: Optional[Sequence[float]] = None,
        **fields: Any,
    ) -> "ExperimentSpec":
        """Build a spec with friendly coercions.

        ``protocols`` entries may be specs, compact spec strings, or
        spec dicts; ``scenario`` may be a registry name or an inline
        :class:`~repro.workloads.scenarios.Scenario`.
        """
        coerced = tuple(protocol_spec(entry) for entry in protocols)
        scenario_name: Optional[str] = None
        scenario_def: Optional[Scenario] = None
        if isinstance(scenario, Scenario):
            scenario_def = scenario
        elif scenario is not None:
            scenario_name = get_scenario(scenario).name
        rates = (
            tuple(float(rate) for rate in arrival_rates)
            if arrival_rates is not None
            else None
        )
        return cls(
            protocols=coerced,
            scenario=scenario_name,
            scenario_def=scenario_def,
            arrival_rates=rates,
            **fields,
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical plain-dict form, invertible by :meth:`from_dict`."""
        return {
            "schema": SPEC_SCHEMA,
            "protocols": [spec.to_dict() for spec in self.protocols],
            "scenario": self.scenario,
            "scenario_def": (
                self.scenario_def.to_dict()
                if self.scenario_def is not None
                else None
            ),
            "arrival_rates": (
                list(self.arrival_rates)
                if self.arrival_rates is not None
                else None
            ),
            "replications": self.replications,
            "num_transactions": self.num_transactions,
            "warmup_commits": self.warmup_commits,
            "seed": self.seed,
            "executor": self.executor,
            "workers": self.workers,
            "store": self.store,
            "store_backend": self.store_backend,
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from its :meth:`to_dict` form.

        Accepts the friendly shorthand forms too: protocol entries may
        be compact spec strings, and omitted optional keys default.  A
        legacy ``"engine"`` key is ignored: ``None`` silently,
        ``"object"``/``"array"`` with a :class:`DeprecationWarning`.

        Raises:
            ConfigurationError: Wrong schema, unknown keys, or malformed
                protocol/scenario payloads.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"experiment spec payload must be a dict, "
                f"got {type(payload).__name__}"
            )
        data = dict(payload)
        schema = data.pop("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise ConfigurationError(
                f"unsupported experiment-spec schema {schema!r} "
                f"(this library reads schema {SPEC_SCHEMA})"
            )
        engine = data.pop("engine", None)
        if engine is not None:
            if engine not in _LEGACY_ENGINES:
                raise ConfigurationError(
                    f"unknown engine {engine!r}; choose from "
                    f"{sorted(_LEGACY_ENGINES)}"
                )
            warnings.warn(
                "the experiment-spec 'engine' key is deprecated and "
                "ignored: every run uses the single simulation engine",
                DeprecationWarning,
                stacklevel=2,
            )
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown experiment-spec keys: {sorted(unknown)}"
            )
        if "protocols" not in data or not data["protocols"]:
            raise ConfigurationError(
                "experiment spec needs a non-empty 'protocols' list"
            )
        protocols = tuple(protocol_spec(p) for p in data["protocols"])
        scenario_def = data.get("scenario_def")
        rates = data.get("arrival_rates")
        return cls(
            protocols=protocols,
            scenario=data.get("scenario"),
            scenario_def=(
                scenario_from_dict(scenario_def)
                if scenario_def is not None
                else None
            ),
            arrival_rates=(
                tuple(float(rate) for rate in rates)
                if rates is not None
                else None
            ),
            replications=data.get("replications"),
            num_transactions=data.get("num_transactions"),
            warmup_commits=data.get("warmup_commits"),
            seed=data.get("seed"),
            executor=data.get("executor"),
            workers=data.get("workers"),
            store=data.get("store"),
            store_backend=data.get("store_backend"),
            telemetry=data.get("telemetry"),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Render the spec as JSON (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a spec from its JSON form."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"experiment spec is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)

    def save(self, path: Union[str, os.PathLike]) -> None:
        """Write the spec to ``path`` as JSON (atomic replace)."""
        from repro.results.store import write_json_atomic

        write_json_atomic(path, self.to_dict())

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "ExperimentSpec":
        """Read a spec from a JSON file."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read experiment spec {os.fspath(path)!r}: {exc}"
            ) from exc
        return cls.from_json(text)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def resolved_scenario(self) -> Optional[Scenario]:
        """The scenario this spec runs: registered, inline, or ``None``."""
        if self.scenario is not None:
            return get_scenario(self.scenario)
        return self.scenario_def

    def scenario_name(self) -> Optional[str]:
        """The scenario name recorded as run metadata (may be ``None``)."""
        scenario = self.resolved_scenario()
        return scenario.name if scenario is not None else None

    def protocol_mapping(self) -> dict[str, ProtocolSpec]:
        """``{label: spec}`` in roster order, rejecting label collisions."""
        factories, specs = normalize_protocols(self.protocols)
        return {label: specs[label] for label in factories}

    def to_config(self, **overrides: Any) -> ExperimentConfig:
        """The :class:`ExperimentConfig` this spec describes.

        Spec fields override scenario/baseline defaults; keyword
        ``overrides`` (e.g. smoke-test scale knobs) override both.
        """
        params: dict[str, Any] = {}
        for name in (
            "replications",
            "num_transactions",
            "warmup_commits",
            "seed",
            "arrival_rates",
        ):
            value = getattr(self, name)
            if value is not None:
                params[name] = value
        params.update(overrides)
        scenario = self.resolved_scenario()
        if scenario is not None:
            return scenario.to_config(**params)
        return baseline_config(**params)

    def run(
        self,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        store: "str | os.PathLike | None" = None,
        store_backend: Optional[str] = None,
        arrival_rates: Optional[Sequence[float]] = None,
        progress=None,
        on_progress=None,
        config: Optional[ExperimentConfig] = None,
        trace: "str | os.PathLike | None" = None,
        on_event=None,
        **config_overrides: Any,
    ) -> dict[str, SweepResult]:
        """Execute the experiment through the sweep runner.

        Keyword arguments override the spec's own execution policy
        (``executor``/``workers``/``store``/``store_backend``/
        ``telemetry``) for this invocation only;
        ``config_overrides`` pass to :meth:`to_config` (e.g.
        ``num_transactions=200`` for a smoke run).  A caller that
        already built the config (to print status from it, say) can pass
        it via ``config`` and skip the rebuild — it must come from
        :meth:`to_config` of this same spec.  ``trace`` falls back to
        the spec's ``telemetry["trace"]``; ``on_event`` subscribes to
        the sweep's structured event stream (see
        :class:`~repro.telemetry.bus.EventBus`).

        Returns:
            label -> :class:`~repro.experiments.runner.SweepResult`,
            exactly as :func:`~repro.experiments.runner.run_sweep`
            returns it.
        """
        if config is None:
            config = self.to_config(**config_overrides)
        if trace is None:
            trace = (self.telemetry or {}).get("trace")
        return run_sweep(
            self.protocol_mapping(),
            config,
            arrival_rates=arrival_rates,
            executor=executor if executor is not None else self.executor,
            workers=workers if workers is not None else self.workers,
            store=store if store is not None else self.store,
            store_backend=(
                store_backend
                if store_backend is not None
                else self.store_backend
            ),
            progress=progress,
            on_progress=on_progress,
            scenario=self.scenario_name(),
            trace=trace,
            on_event=on_event,
        )


class _ClassOnlyConstructor:
    """A classmethod-style constructor that refuses mid-chain calls.

    ``Experiment.scenario(...)`` starts a *new* builder; calling it on an
    existing instance (``Experiment.baseline().protocols(...).scenario(...)``)
    would silently discard the accumulated roster and axes, so instance
    access raises instead of returning a fresh builder.
    """

    def __init__(self, func):
        self._func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self._name = name

    def __get__(self, instance, owner=None):
        if instance is not None:
            # AttributeError (not ConfigurationError) keeps hasattr()/
            # inspect-style introspection of builder instances working
            # while still failing the mid-chain call loudly.
            raise AttributeError(
                f"{self._name}() starts a new Experiment and would discard "
                f"this chain's state; call Experiment.{self._name}(...) on "
                "the class instead"
            )

        def bound(*args, **kwargs):
            return self._func(owner, *args, **kwargs)

        bound.__doc__ = self._func.__doc__
        return bound


class Experiment:
    """Fluent builder for :class:`ExperimentSpec`.

    Each method returns the builder, so an experiment reads as one
    chain; :meth:`build` freezes the accumulated state into a spec and
    :meth:`run` builds-and-executes in one step::

        Experiment.scenario("bursty-telecom").protocols(
            "scc-vw", "occ-bc"
        ).rates(20, 120, step=20).replications(5).run(workers=4)
    """

    def __init__(self) -> None:
        self._protocols: list[ProtocolSpec] = []
        self._scenario: Optional[str] = None
        self._scenario_def: Optional[Scenario] = None
        self._fields: dict[str, Any] = {}

    # -- constructors ---------------------------------------------------

    @_ClassOnlyConstructor
    def scenario(cls, scenario: "str | Scenario") -> "Experiment":
        """Start an experiment over a registered or inline scenario."""
        builder = cls()
        if isinstance(scenario, Scenario):
            builder._scenario_def = scenario
        else:
            builder._scenario = get_scenario(scenario).name
        return builder

    @_ClassOnlyConstructor
    def baseline(cls) -> "Experiment":
        """Start an experiment over the paper's §4 baseline model."""
        return cls()

    @_ClassOnlyConstructor
    def from_spec(cls, spec: ExperimentSpec) -> "Experiment":
        """Seed a builder from an existing spec (for derived variants)."""
        builder = cls()
        builder._protocols = list(spec.protocols)
        builder._scenario = spec.scenario
        builder._scenario_def = spec.scenario_def
        for name in (
            "arrival_rates",
            "replications",
            "num_transactions",
            "warmup_commits",
            "seed",
            "executor",
            "workers",
            "store",
            "store_backend",
            "telemetry",
        ):
            value = getattr(spec, name)
            if value is not None:
                builder._fields[name] = value
        return builder

    # -- roster and grid ------------------------------------------------

    def protocols(self, *entries: ProtocolLike) -> "Experiment":
        """Add protocols: specs, compact spec strings, or spec dicts."""
        self._protocols.extend(protocol_spec(entry) for entry in entries)
        return self

    def rates(
        self, *values: float, step: Optional[float] = None
    ) -> "Experiment":
        """Set the arrival-rate axis.

        Either explicit points — ``rates(40, 100, 160)`` — or an
        inclusive range — ``rates(20, 120, step=20)`` for
        20, 40, ..., 120.
        """
        if step is not None:
            if len(values) != 2:
                raise ConfigurationError(
                    "rates(start, stop, step=...) takes exactly two "
                    f"positional values, got {len(values)}"
                )
            if step <= 0:
                raise ConfigurationError(f"rate step must be > 0, got {step}")
            start, stop = (float(v) for v in values)
            if start > stop:
                raise ConfigurationError(
                    f"rates(start, stop, step=...) needs start <= stop, "
                    f"got {start:g} > {stop:g}"
                )
            count = int(round((stop - start) / step))
            axis = [start + i * step for i in range(count + 1)]
            axis = [rate for rate in axis if rate <= stop + 1e-9]
        else:
            axis = [float(v) for v in values]
        if not axis:
            raise ConfigurationError("rates() needs at least one rate")
        self._fields["arrival_rates"] = tuple(axis)
        return self

    def replications(self, count: int) -> "Experiment":
        """Set the replications per grid point."""
        self._fields["replications"] = count
        return self

    def transactions(self, count: int) -> "Experiment":
        """Set the completed-transaction count per run."""
        self._fields["num_transactions"] = count
        return self

    def warmup(self, commits: int) -> "Experiment":
        """Set the warmup commits excluded from metrics."""
        self._fields["warmup_commits"] = commits
        return self

    def seed(self, seed: int) -> "Experiment":
        """Set the root RNG seed."""
        self._fields["seed"] = seed
        return self

    # -- execution policy ----------------------------------------------

    def executor(
        self, name: str, workers: Optional[int] = None
    ) -> "Experiment":
        """Set the default executor (and optionally its worker count)."""
        self._fields["executor"] = name
        if workers is not None:
            self._fields["workers"] = workers
        return self

    def workers(self, count: int) -> "Experiment":
        """Set the default worker count for the process executor."""
        self._fields["workers"] = count
        return self

    def store(
        self,
        path: Union[str, os.PathLike],
        backend: Optional[str] = None,
    ) -> "Experiment":
        """Set the default run-store path (makes runs resumable).

        Args:
            path: The store file.
            backend: Optional backend name (``"jsonl"``/``"sqlite"``);
                omitted means the path decides (content sniffing for
                existing files, extension for new ones).
        """
        self._fields["store"] = os.fspath(path)
        if backend is not None:
            self._fields["store_backend"] = backend
        return self

    def telemetry(
        self,
        trace: "str | os.PathLike | None" = None,
        log_level: Optional[str] = None,
    ) -> "Experiment":
        """Set the default observability policy.

        Args:
            trace: JSONL trace-file path; sweeps run via this spec emit
                the typed lifecycle event stream there (serial executor
                only).
            log_level: Default ``repro`` logger level for CLI runs of
                this spec (``debug``/``info``/``warning``/``error``).
        """
        block = dict(self._fields.get("telemetry") or {})
        if trace is not None:
            block["trace"] = os.fspath(trace)
        if log_level is not None:
            block["log_level"] = log_level
        self._fields["telemetry"] = block or None
        return self

    # -- terminal operations -------------------------------------------

    def build(self) -> ExperimentSpec:
        """Freeze the accumulated state into an :class:`ExperimentSpec`."""
        return ExperimentSpec(
            protocols=tuple(self._protocols),
            scenario=self._scenario,
            scenario_def=self._scenario_def,
            **self._fields,
        )

    def run(self, **kwargs: Any) -> dict[str, SweepResult]:
        """Build the spec and execute it (see :meth:`ExperimentSpec.run`)."""
        return self.build().run(**kwargs)
