"""Determinism of the telemetry streams, and tracing's neutrality.

Tracing draws no randomness and perturbs no event order, so a traced run
is a pure observer: two traced runs of the same cell emit the *identical*
typed event stream — same kinds, simulated times, lane numbering, and
payloads — and a traced run's summary equals the untraced one.
"""

import dataclasses

import pytest

from repro.experiments.runner import run_instrumented, run_once
from repro.protocols.registry import protocol_spec
from repro.telemetry.tracer import MemoryTracer, NullTracer
from repro.workloads.scenarios import get_scenario

SCALE = dict(
    num_transactions=100,
    warmup_commits=10,
    replications=1,
    check_serializability=False,
)

SCENARIOS = ("paper-baseline", "flash-sale-hotspot")
PROTOCOLS = ("scc-2s", "scc-vw", "2pl-pa")


def traced_run(scenario, protocol, rate=120.0):
    config = get_scenario(scenario).to_config(**SCALE)
    tracer = MemoryTracer()
    summary, telemetry = run_instrumented(
        protocol_spec(protocol), config, arrival_rate=rate, tracer=tracer,
    )
    return summary, telemetry, tracer


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_traced_runs_identical(scenario, protocol):
    (summary, telemetry, tracer), (again, telemetry_again, tracer_again) = (
        traced_run(scenario, protocol) for _ in range(2)
    )
    assert tracer.dicts() == tracer_again.dicts()
    assert tracer.events  # the comparison must not be vacuous
    assert summary == again
    # wall_clock is host time; everything else in the block is simulated.
    assert telemetry["counters"] == telemetry_again["counters"]
    assert telemetry["gauges"] == telemetry_again["gauges"]
    assert telemetry["events_fired"] == telemetry_again["events_fired"]


@pytest.mark.parametrize("protocol", ("scc-2s", "scc-vw"))
def test_scc_traces_cover_the_speculation_machinery(protocol):
    _, _, tracer = traced_run("flash-sale-hotspot", protocol)
    kinds = {event.kind for event in tracer.events}
    assert {"txn_start", "step_complete", "commit", "shadow_fork"} <= kinds
    forks = [e for e in tracer.events if e.kind == "shadow_fork"]
    assert all(e.data.get("origin") in ("spawn", "restart") for e in forks)


def test_lanes_are_run_local_and_zero_based():
    _, _, first = traced_run("paper-baseline", "scc-2s")
    _, _, second = traced_run("paper-baseline", "scc-2s")
    # Execution serials are process-global and keep counting between the
    # two runs; lane normalization must hide that entirely.
    assert first.dicts() == second.dicts()
    lanes = sorted({e.lane for e in first.events if e.lane is not None})
    assert lanes[0] == 0
    assert lanes == list(range(len(lanes)))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_tracing_never_perturbs_results(protocol):
    config = get_scenario("paper-baseline").to_config(**SCALE)
    spec = protocol_spec(protocol)
    plain = run_once(spec, config, arrival_rate=140.0)
    with_null = run_once(spec, config, arrival_rate=140.0, tracer=NullTracer())
    traced_summary, _, _ = traced_run("paper-baseline", protocol, rate=140.0)
    assert dataclasses.asdict(plain) == dataclasses.asdict(with_null)
    assert dataclasses.asdict(plain) == dataclasses.asdict(traced_summary)
