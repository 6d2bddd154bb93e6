"""Per-figure experiment definitions (paper §4.1-4.2 plus ablations).

Each ``figNN`` function returns the protocol set and configuration that
regenerate one figure of the paper; ``run_*`` executes it and returns the
plotted series.  Benchmarks and the CLI are thin wrappers over these.
:func:`run_scenario` is the same entry point for registered workload
scenarios (:mod:`repro.workloads.scenarios`) instead of paper figures.

Protocol sets are registry-driven: every roster is a mapping from
display label to :class:`~repro.protocols.registry.ProtocolSpec`, so the
figure runners share identity (and therefore run-store fingerprints)
with :class:`~repro.experiments.spec.ExperimentSpec` runs of the same
grids.  Specs are callable factories, so these mappings remain drop-in
compatible with code that calls ``fig13_protocols()["SCC-2S"]()``.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from repro.experiments.config import (
    ExperimentConfig,
    baseline_config,
    two_class_config,
)
from repro.experiments.parallel import SweepExecutor
from repro.experiments.runner import (
    ProtocolFactory,
    SweepResult,
    run_sweep,
)
from repro.protocols.registry import (
    REPLACEMENT_CHOICES,
    ProtocolSpec,
    get_protocol_family,
    parse_protocol_spec,
)

# SCC-VW's re-evaluation/backstop period Δ: a small fraction of the mean
# transaction execution time (96 ms) so deferral decisions track value
# decay closely without flooding the event queue.  Sourced from the
# protocol registry's ``scc-vw`` parameter default so figure runs, the
# golden gate, and spec-driven runs can never drift apart.
VW_PERIOD = get_protocol_family("scc-vw").param("period").default


def _spec_mapping(*spec_strings: str) -> dict[str, ProtocolSpec]:
    """Resolve compact spec strings into a ``{label: spec}`` roster."""
    specs = [parse_protocol_spec(text) for text in spec_strings]
    return {spec.label: spec for spec in specs}


def fig13_protocols() -> dict[str, ProtocolSpec]:
    """Figure 13's contenders: SCC-2S vs OCC-BC vs WAIT-50 vs 2PL-PA."""
    return _spec_mapping("scc-2s", "occ-bc", "wait-50", "2pl-pa")


def fig14_protocols() -> dict[str, ProtocolSpec]:
    """Figures 14-15's contenders: SCC-VW joins, 2PL-PA drops out."""
    return _spec_mapping("scc-vw", "scc-2s", "occ-bc", "wait-50")


#: Figure key -> roster factory.  The ``run_fig*`` runners consult this
#: table (not the bare functions), and the CLI resolves export rosters
#: through it too — one mapping, so a roster change can never leave the
#: CLI's machine-readable records pointing at stale protocol specs.
FIGURE_PROTOCOLS: dict[str, Callable[[], dict[str, ProtocolSpec]]] = {
    "fig13": fig13_protocols,
    "fig14a": fig14_protocols,
    "fig14b": fig14_protocols,
    "fig15": fig14_protocols,
}


def run_scenario(
    scenario,
    protocols: Optional[Mapping[str, ProtocolFactory]] = None,
    arrival_rates: Optional[Sequence[float]] = None,
    executor: "SweepExecutor | str | None" = None,
    workers: Optional[int] = None,
    store=None,
    on_event: Optional[Callable] = None,
    **config_overrides,
) -> dict[str, SweepResult]:
    """Run a registered (or ad-hoc) scenario through the sweep runner.

    Args:
        scenario: A registry name (``"bursty-telecom"``) or a
            :class:`~repro.workloads.scenarios.Scenario` instance.
        protocols: Protocol set; defaults to :func:`fig14_protocols` (the
            value-cognizant contenders).
        arrival_rates: Overrides the scenario's default sweep axis.
        on_event: Optional subscriber for the unified sweep event stream
            (see :func:`~repro.experiments.runner.run_sweep`).
        config_overrides: Passed to
            :meth:`~repro.workloads.scenarios.Scenario.to_config` (e.g.
            ``num_transactions=200, replications=1`` for smoke runs).
    """
    from repro.workloads.scenarios import Scenario, get_scenario

    if not isinstance(scenario, Scenario):
        scenario = get_scenario(scenario)
    config = scenario.to_config(**config_overrides)
    return run_sweep(protocols or fig14_protocols(), config, arrival_rates,
                     executor=executor, workers=workers, store=store,
                     scenario=scenario.name, on_event=on_event)


def run_fig13(
    config: Optional[ExperimentConfig] = None,
    arrival_rates: Optional[Sequence[float]] = None,
    executor: "SweepExecutor | str | None" = None,
    workers: Optional[int] = None,
    store=None,
    scenario: Optional[str] = None,
    on_event: Optional[Callable] = None,
) -> dict[str, SweepResult]:
    """Figures 13(a)+(b): Missed Ratio and Average Tardiness, baseline model."""
    return run_sweep(FIGURE_PROTOCOLS["fig13"](), config or baseline_config(),
                     arrival_rates,
                     executor=executor, workers=workers, store=store,
                     scenario=scenario, on_event=on_event)


def run_fig14a(
    config: Optional[ExperimentConfig] = None,
    arrival_rates: Optional[Sequence[float]] = None,
    executor: "SweepExecutor | str | None" = None,
    workers: Optional[int] = None,
    store=None,
    scenario: Optional[str] = None,
    on_event: Optional[Callable] = None,
) -> dict[str, SweepResult]:
    """Figure 14(a): System Value, one transaction class (45° gradient)."""
    return run_sweep(FIGURE_PROTOCOLS["fig14a"](), config or baseline_config(),
                     arrival_rates,
                     executor=executor, workers=workers, store=store,
                     scenario=scenario, on_event=on_event)


def run_fig14b(
    config: Optional[ExperimentConfig] = None,
    arrival_rates: Optional[Sequence[float]] = None,
    executor: "SweepExecutor | str | None" = None,
    workers: Optional[int] = None,
    store=None,
    scenario: Optional[str] = None,
    on_event: Optional[Callable] = None,
) -> dict[str, SweepResult]:
    """Figure 14(b): System Value, the 10%/90% two-class mix."""
    return run_sweep(FIGURE_PROTOCOLS["fig14b"](), config or two_class_config(),
                     arrival_rates,
                     executor=executor, workers=workers, store=store,
                     scenario=scenario, on_event=on_event)


def run_fig15(
    config: Optional[ExperimentConfig] = None,
    arrival_rates: Optional[Sequence[float]] = None,
    executor: "SweepExecutor | str | None" = None,
    workers: Optional[int] = None,
    store=None,
    scenario: Optional[str] = None,
    on_event: Optional[Callable] = None,
) -> dict[str, SweepResult]:
    """Figures 15(a)+(b): SCC-VW's Missed Ratio / Average Tardiness."""
    return run_sweep(FIGURE_PROTOCOLS["fig15"](), config or baseline_config(),
                     arrival_rates,
                     executor=executor, workers=workers, store=store,
                     scenario=scenario, on_event=on_event)


# ----------------------------------------------------------------------
# ablations (DESIGN.md A1-A3)
# ----------------------------------------------------------------------


def ablation_k_protocols(ks: Sequence[Optional[int]] = (1, 2, 3, 5, None)) -> dict:
    """SCC-kS at several shadow budgets; ``None`` = unlimited (SCC-CB)."""
    specs = [
        ProtocolSpec.create("scc-ks", k=k)
        for k in ks
    ]
    return {spec.label: spec for spec in specs}


def run_ablation_k(
    config: Optional[ExperimentConfig] = None,
    arrival_rates: Optional[Sequence[float]] = None,
    ks: Sequence[Optional[int]] = (1, 2, 3, 5, None),
    executor: "SweepExecutor | str | None" = None,
    workers: Optional[int] = None,
    store=None,
) -> dict[str, SweepResult]:
    """A1: the resources-for-timeliness dial (k shadows per transaction).

    ``k=1`` is pure OCC-BC behaviour (no speculation); increasing k should
    monotonically improve the Missed Ratio at a diminishing rate.
    """
    return run_sweep(
        ablation_k_protocols(ks), config or baseline_config(), arrival_rates,
        executor=executor, workers=workers, store=store,
    )


def run_ablation_replacement(
    config: Optional[ExperimentConfig] = None,
    arrival_rates: Optional[Sequence[float]] = None,
    k: int = 3,
    executor: "SweepExecutor | str | None" = None,
    workers: Optional[int] = None,
    store=None,
) -> dict[str, SweepResult]:
    """A3: LBFO vs deadline-aware vs value-aware shadow replacement.

    The contenders come straight from the registry's replacement-policy
    vocabulary (:data:`repro.protocols.registry.REPLACEMENT_CHOICES`),
    so registering a fourth policy automatically joins the ablation.
    """
    factories = {
        choice.upper() if choice == "lbfo" else choice:
            ProtocolSpec.create("scc-ks", k=k, replacement=choice)
        for choice in REPLACEMENT_CHOICES
    }
    return run_sweep(factories, config or baseline_config(), arrival_rates,
                     executor=executor, workers=workers, store=store)


def run_ablation_wait_threshold(
    config: Optional[ExperimentConfig] = None,
    arrival_rates: Optional[Sequence[float]] = None,
    thresholds: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    executor: "SweepExecutor | str | None" = None,
    workers: Optional[int] = None,
    store=None,
) -> dict[str, SweepResult]:
    """A4: the WAIT-X family (Haritsa's wait-control threshold).

    ``X -> 0`` approaches plain OCC-BC (never wait); ``X = 1`` waits only
    when *every* conflicting transaction has higher priority.  The paper's
    WAIT-50 is the X = 0.5 instance.  OCC-BC is included as the no-wait
    reference.
    """
    factories: dict[str, ProtocolSpec] = {
        "OCC-BC (no wait)": ProtocolSpec.create("occ-bc"),
    }
    for threshold in thresholds:
        spec = ProtocolSpec.create("wait-50", wait_threshold=threshold)
        factories[spec.label] = spec
    return run_sweep(factories, config or baseline_config(), arrival_rates,
                     executor=executor, workers=workers, store=store)


def run_ablation_resources(
    config: Optional[ExperimentConfig] = None,
    arrival_rate: float = 100.0,
    server_counts: Sequence[Optional[int]] = (1, 2, 4, 8, 16, None),
    executor: "SweepExecutor | str | None" = None,
    workers: Optional[int] = None,
) -> dict[str, SweepResult]:
    """A2: finite resources (``None`` = infinite), fixed arrival rate.

    Takes no ``store``: resource managers are not part of the cell
    fingerprint, so the per-server-count sweeps would collide in one store.

    Reproduces the introduction's PCC-vs-OCC resource argument: with few
    servers, restart- and speculation-heavy protocols pay for their wasted
    work; with abundant servers the blocking-based protocol loses its edge.
    """
    from repro.system.resources import FiniteResources, InfiniteResources

    config = config or baseline_config()
    results: dict[str, SweepResult] = {}
    for count in server_counts:
        if count is None:
            factory = lambda cfg: InfiniteResources(cfg.cpu_time, cfg.io_time)
            label = "servers=inf"
        else:
            factory = (
                lambda c: lambda cfg: FiniteResources(
                    cfg.cpu_time, cfg.io_time, num_servers=c
                )
            )(count)
            label = f"servers={count}"
        sweep = run_sweep(
            _spec_mapping("scc-2s", "occ-bc", "2pl-pa"),
            config,
            arrival_rates=[arrival_rate],
            resources=factory,
            executor=executor,
            workers=workers,
        )
        for name, result in sweep.items():
            results[f"{name} {label}"] = result
    return results
