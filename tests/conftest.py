"""Shared test fixtures and scenario-driving helpers.

The ``run_scenario`` helper is the workhorse of the protocol tests: it
builds a hand-crafted workload (explicit programs, arrivals, deadlines),
runs it under a given protocol with unit step time (1 second per page
access, zero I/O), and returns the finished system for inspection.  With
unit steps, commit times are small integers and scenario tests can assert
exact schedules — the paper's figures become executable.
"""

from __future__ import annotations

from typing import Optional, Sequence

import pytest

from repro.metrics.stats import MetricsCollector
from repro.protocols.base import CCProtocol
from repro.system.model import RTDBSystem
from repro.system.resources import InfiniteResources, ResourceManager
from repro.txn.generator import fixed_workload
from repro.txn.spec import Step
from repro.values.classes import TransactionClass


def make_class(
    name: str = "test",
    num_steps: int = 4,
    write_probability: float = 0.25,
    slack_factor: float = 2.0,
    value: float = 1.0,
    alpha_degrees: float = 45.0,
    weight: float = 1.0,
) -> TransactionClass:
    """A TransactionClass with convenient defaults for unit tests."""
    return TransactionClass(
        name=name,
        num_steps=num_steps,
        write_probability=write_probability,
        slack_factor=slack_factor,
        value=value,
        alpha_degrees=alpha_degrees,
        weight=weight,
    )


def R(page: int) -> Step:
    """A read step (test shorthand)."""
    return Step(page=page, is_write=False)


def W(page: int) -> Step:
    """A read-modify-write step (test shorthand)."""
    return Step(page=page, is_write=True)


def build_system(
    protocol: CCProtocol,
    num_pages: int = 64,
    step_time: float = 1.0,
    resources: Optional[ResourceManager] = None,
    warmup: int = 0,
) -> RTDBSystem:
    """An RTDBSystem with unit-time steps for deterministic scenarios."""
    return RTDBSystem(
        protocol=protocol,
        num_pages=num_pages,
        resources=resources or InfiniteResources(cpu_time=step_time, io_time=0.0),
        metrics=MetricsCollector(warmup_commits=warmup),
        record_history=True,
    )


def run_scenario(
    protocol: CCProtocol,
    programs: Sequence[Sequence[Step]],
    arrivals: Optional[Sequence[float]] = None,
    deadlines: Optional[Sequence[Optional[float]]] = None,
    txn_class: Optional[TransactionClass] = None,
    num_pages: int = 64,
    step_time: float = 1.0,
    run: bool = True,
) -> RTDBSystem:
    """Run a hand-crafted scenario to completion and return the system."""
    if arrivals is None:
        arrivals = [0.0] * len(programs)
    specs = fixed_workload(
        programs=programs,
        arrivals=arrivals,
        txn_class=txn_class or make_class(num_steps=max(len(p) for p in programs)),
        step_duration=step_time,
        deadlines=deadlines,
    )
    system = build_system(protocol, num_pages=num_pages, step_time=step_time)
    system.load_workload(specs)
    if run:
        system.run()
    return system


def build_hotspot_system(
    protocol_spec: str,
    num_transactions: int = 300,
    arrival_rate: float = 150.0,
    resources: Optional[ResourceManager] = None,
) -> RTDBSystem:
    """A loaded ``flash-sale-hotspot`` system at the scenario's time scale.

    The workload is the one a default sweep cell of that scenario runs,
    cut to ``num_transactions``; history recording is on so callers can
    check serializability.  Call ``system.run()`` to simulate it.
    """
    from repro.engine.rng import RandomStreams
    from repro.protocols.registry import parse_protocol_spec
    from repro.workloads.generator import build_generator
    from repro.workloads.scenarios import get_scenario

    config = get_scenario("flash-sale-hotspot").to_config(
        num_transactions=num_transactions, warmup_commits=0
    )
    system = RTDBSystem(
        protocol=parse_protocol_spec(protocol_spec).build(),
        num_pages=config.num_pages,
        resources=resources
        or InfiniteResources(cpu_time=config.cpu_time, io_time=config.io_time),
        metrics=MetricsCollector(warmup_commits=0),
        record_history=True,
    )
    streams = RandomStreams(config.seed).spawn(0)
    generator = build_generator(config, arrival_rate, streams)
    system.load_workload(generator.generate(num_transactions))
    return system


def commit_time_of(system: RTDBSystem, txn_id: int) -> float:
    """Commit time of one transaction from the recorded history."""
    assert system.history is not None
    for committed in system.history:
        if committed.txn_id == txn_id:
            return committed.commit_time
    raise AssertionError(f"T{txn_id} never committed")


def commit_order(system: RTDBSystem) -> list[int]:
    """Transaction ids in commit order."""
    assert system.history is not None
    return [committed.txn_id for committed in system.history]


@pytest.fixture
def baseline_class() -> TransactionClass:
    """The paper's baseline transaction class (16 pages, 25% update)."""
    return make_class(
        name="baseline", num_steps=16, write_probability=0.25, slack_factor=2.0
    )
