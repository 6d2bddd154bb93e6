"""Property-based tests of SCC shadow invariants and value machinery."""

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.serializability import check_serializable
from repro.core.conflict_table import ConflictTable
from repro.core.probability import AdoptionProfile, adoption_profiles
from repro.core.scc_ks import SCCkS
from repro.core.shadow_counts import (
    scc_cb_total_shadows,
    scc_ob_shadows,
    scc_ob_shadows_enumerated,
)
from repro.experiments.runner import run_once
from repro.metrics.confidence import mean_confidence_interval
from repro.protocols.registry import available_protocols, protocol_spec
from repro.txn.generator import fixed_workload
from repro.txn.spec import Step
from repro.values.distributions import (
    ExponentialExecution,
    UniformExecution,
)
from repro.values.value_function import ValueFunction
from repro.workloads.scenarios import available_scenarios, get_scenario
from tests.conftest import build_system, make_class, run_scenario


# ----------------------------------------------------------------------
# value functions
# ----------------------------------------------------------------------


@given(
    value=st.floats(min_value=0.0, max_value=1e6),
    deadline=st.floats(min_value=0.0, max_value=1e6),
    gradient=st.floats(min_value=0.0, max_value=1e3),
    t1=st.floats(min_value=0.0, max_value=2e6),
    t2=st.floats(min_value=0.0, max_value=2e6),
)
def test_value_functions_are_non_increasing(value, deadline, gradient, t1, t2):
    vf = ValueFunction(value=value, deadline=deadline, penalty_gradient=gradient)
    lo, hi = min(t1, t2), max(t1, t2)
    assert vf(lo) >= vf(hi)


@given(
    value=st.floats(min_value=0.01, max_value=1e4),
    deadline=st.floats(min_value=0.0, max_value=1e4),
    gradient=st.floats(min_value=1e-3, max_value=1e3),
)
def test_breakeven_is_the_zero_crossing(value, deadline, gradient):
    vf = ValueFunction(value=value, deadline=deadline, penalty_gradient=gradient)
    t0 = vf.breakeven_time()
    assert vf(t0) == abs(vf(t0)) or math.isclose(vf(t0), 0.0, abs_tol=1e-6)
    assert vf(t0 * 1.001 + 1e-6) <= 0.0


# ----------------------------------------------------------------------
# execution-time distributions
# ----------------------------------------------------------------------


@given(
    mean=st.floats(min_value=0.01, max_value=100.0),
    x1=st.floats(min_value=0.0, max_value=500.0),
    x2=st.floats(min_value=0.0, max_value=500.0),
)
def test_survival_monotone_exponential(mean, x1, x2):
    dist = ExponentialExecution(mean)
    lo, hi = min(x1, x2), max(x1, x2)
    assert dist.survival(lo) >= dist.survival(hi)


@given(
    low=st.floats(min_value=0.0, max_value=10.0),
    span=st.floats(min_value=0.01, max_value=10.0),
    elapsed=st.floats(min_value=0.0, max_value=25.0),
    x=st.floats(min_value=0.0, max_value=50.0),
)
def test_conditional_finish_is_a_probability(low, span, elapsed, x):
    dist = UniformExecution(low, low + span)
    p = dist.conditional_finish_by(x, elapsed)
    assert 0.0 <= p <= 1.0


@given(
    mean=st.floats(min_value=0.05, max_value=50.0),
    elapsed=st.floats(min_value=0.0, max_value=100.0),
    epsilon=st.floats(min_value=0.001, max_value=0.2),
)
def test_horizon_meets_target(mean, elapsed, epsilon):
    dist = ExponentialExecution(mean)
    horizon = dist.horizon(elapsed, epsilon)
    assert horizon >= elapsed
    assert dist.conditional_finish_by(horizon, elapsed) >= 1.0 - epsilon - 1e-9


# ----------------------------------------------------------------------
# conflict table
# ----------------------------------------------------------------------


@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # writer
            st.integers(min_value=0, max_value=9),  # page
            st.integers(min_value=0, max_value=15),  # position
        ),
        max_size=40,
    )
)
def test_conflict_table_first_pos_is_minimum(events):
    table = ConflictTable()
    minima = {}
    for writer, page, position in events:
        table.record(writer, page, position)
        minima[writer] = min(minima.get(writer, position), position)
    for writer, expected in minima.items():
        assert table.get(writer).first_pos == expected
    ordered = [r.first_pos for r in table.records()]
    assert ordered == sorted(ordered)


# ----------------------------------------------------------------------
# shadow counts
# ----------------------------------------------------------------------


@given(n=st.integers(min_value=1, max_value=9))
def test_ob_formula_equals_enumeration(n):
    assert scc_ob_shadows(n) == scc_ob_shadows_enumerated(n)


@given(n=st.integers(min_value=3, max_value=12))
def test_cb_quadratic_below_ob_factorial(n):
    assert scc_cb_total_shadows(n) <= scc_ob_shadows(n)


# ----------------------------------------------------------------------
# adoption probabilities on live systems
# ----------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    now=st.floats(min_value=0.5, max_value=6.0),
)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_adoption_mass_sums_to_one_mid_run(seed, now):
    import numpy as np

    rng = np.random.default_rng(seed)
    programs = []
    for _ in range(4):
        pages = rng.choice(6, size=3, replace=False)
        flags = rng.random(3) < 0.5
        programs.append(
            [Step(page=int(p), is_write=bool(w)) for p, w in zip(pages, flags)]
        )
    protocol = SCCkS(k=3)
    specs = fixed_workload(
        programs=programs,
        arrivals=[0.0, 0.3, 0.6, 0.9],
        txn_class=make_class(num_steps=3),
        step_duration=1.0,
    )
    system = build_system(protocol, num_pages=6)
    system.load_workload(specs)
    system.sim.run(until=now)
    for profile in adoption_profiles(protocol, now=system.sim.now).values():
        assert isinstance(profile, AdoptionProfile)
        assert profile.total() == __import__("pytest").approx(1.0)
        assert 0.0 <= profile.p_optimistic <= 1.0
    system.sim.run()


# ----------------------------------------------------------------------
# confidence intervals
# ----------------------------------------------------------------------


@given(
    samples=st.lists(
        st.floats(min_value=-1e5, max_value=1e5),
        min_size=2,
        max_size=30,
    )
)
def test_confidence_interval_contains_sample_mean(samples):
    import numpy as np

    ci = mean_confidence_interval(samples, level=0.9)
    assert ci.contains(float(np.mean(samples)))
    assert ci.half_width >= 0.0


# ----------------------------------------------------------------------
# SCC shadow invariants under random mid-run inspection
# ----------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    checkpoint=st.floats(min_value=0.5, max_value=8.0),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scc_invariants_hold_at_any_instant(seed, checkpoint):
    import numpy as np

    rng = np.random.default_rng(seed)
    programs = []
    for _ in range(5):
        length = int(rng.integers(2, 5))
        pages = rng.choice(6, size=length, replace=False)
        flags = rng.random(length) < 0.4
        programs.append(
            [Step(page=int(p), is_write=bool(w)) for p, w in zip(pages, flags)]
        )
    protocol = SCCkS(k=3)
    specs = fixed_workload(
        programs=programs,
        arrivals=[float(a) for a in rng.random(5) * 3.0],
        txn_class=make_class(num_steps=4),
        step_duration=1.0,
    )
    system = build_system(protocol, num_pages=6)
    system.load_workload(specs)
    system.sim.run(until=checkpoint)
    protocol.check_invariants()
    system.sim.run()
    protocol.check_invariants()
    assert system.committed_count == 5


# ----------------------------------------------------------------------
# whole runs: deterministic and conflict-serializable
# ----------------------------------------------------------------------
#
# Every run below executes twice; the two summaries must be equal
# field-for-field (``==``, no tolerance), and the committed history must
# be conflict-serializable (paper section 2, Commit Rule).

RUN_SCALE = dict(
    num_transactions=120,
    warmup_commits=12,
    replications=1,
    check_serializability=True,
)


def assert_deterministic_run(config, protocol, rate, replication=0):
    """Run one cell twice (each run checks serializability itself)."""
    factory = protocol_spec(protocol)
    first, second = (
        dataclasses.asdict(
            run_once(factory, config, arrival_rate=rate, replication=replication)
        )
        for _ in range(2)
    )
    assert first == second
    assert first["committed"] > 0


@pytest.mark.parametrize("protocol", available_protocols())
def test_protocol_run_reproducible(protocol):
    config = get_scenario("paper-baseline").to_config(**RUN_SCALE)
    assert_deterministic_run(config, protocol, rate=120.0)


@pytest.mark.parametrize("scenario", available_scenarios())
def test_scenario_run_reproducible(scenario):
    # Covers every arrival process (Poisson, MMPP, diurnal, trace replay)
    # and access pattern in the scenario registry.
    config = get_scenario(scenario).to_config(**RUN_SCALE)
    assert_deterministic_run(config, "scc-2s", rate=100.0, replication=1)


def test_hotspot_twopl_run_reproducible():
    # Lock-heavy + skewed access drives the deferral tick and zero-delay
    # restart events.
    config = get_scenario("flash-sale-hotspot").to_config(**RUN_SCALE)
    assert_deterministic_run(config, "2pl-pa", rate=160.0)


@settings(max_examples=10, deadline=None)
@given(
    rate=st.floats(min_value=30.0, max_value=220.0, allow_nan=False),
    replication=st.integers(min_value=0, max_value=5),
    protocol=st.sampled_from(["scc-2s", "occ-bc", "wait-50"]),
)
def test_run_reproducible_at_arbitrary_coordinates(rate, replication, protocol):
    config = get_scenario("paper-baseline").to_config(**RUN_SCALE)
    assert_deterministic_run(config, protocol, rate=rate, replication=replication)


# ----------------------------------------------------------------------
# hand-built same-instant schedules
# ----------------------------------------------------------------------

BURST_PAGES = 24

BURST_CLASS = make_class(name="burst", num_steps=4, slack_factor=8.0)


def run_schedule(protocol, schedule):
    """Run ``(arrival, ((page, is_write), ...))`` rows; return summary, system."""
    system = run_scenario(
        protocol_spec(protocol)(),
        programs=[[Step(page, write) for page, write in steps]
                  for _, steps in schedule],
        arrivals=[arrival for arrival, _ in schedule],
        txn_class=BURST_CLASS,
        num_pages=BURST_PAGES,
        step_time=0.006,
    )
    return dataclasses.asdict(system.metrics.summary()), system


def assert_deterministic_schedule(protocol, schedule):
    first, system = run_schedule(protocol, schedule)
    second, _ = run_schedule(protocol, schedule)
    assert first == second
    assert system.committed_count == len(schedule)
    assert check_serializable(system.history)
    return first


# Three same-instant waves over a hot page set: wave 0 is a 6-transaction
# simultaneous burst on overlapping read/write programs, wave 1 lands
# while wave 0's shadows are mid-flight, wave 2 arrives as wave 1 commits.
ADVERSARIAL_BURST = (
    [(0.0, ((0, True), (1, False), (2, False))) for _ in range(3)]
    + [(0.0, ((1, True), (0, False), (3, False))) for _ in range(3)]
    + [(0.02, ((0, False), (1, True), (2, True))) for _ in range(4)]
    + [(0.15, ((2, False), (3, True), (0, False))) for _ in range(4)]
)


@pytest.mark.parametrize("protocol", available_protocols())
def test_same_instant_burst_reproducible(protocol):
    assert_deterministic_schedule(protocol, ADVERSARIAL_BURST)


@pytest.mark.parametrize("protocol", ["scc-2s", "scc-ks"])
def test_large_same_instant_burst_commits_everything(protocol):
    # 80 simultaneous arrivals: every transaction arrives in one
    # same-instant cohort and all of them must commit.
    schedule = [
        (0.0, ((txn % BURST_PAGES, txn % 4 == 0),
               ((txn + 7) % BURST_PAGES, False)))
        for txn in range(80)
    ]
    summary = assert_deterministic_schedule(protocol, schedule)
    assert summary["committed"] == 80


@st.composite
def adversarial_schedules(draw):
    """Schedules with few distinct instants and a small hot page set.

    Arrival times come from a coarse grid so multiple transactions share
    instants by construction; pages come from an 8-page universe so the
    conflict machinery is never idle.
    """
    num_txns = draw(st.integers(min_value=2, max_value=14))
    num_instants = draw(st.integers(min_value=1, max_value=3))
    rows = []
    for _ in range(num_txns):
        instant = draw(st.integers(min_value=0, max_value=num_instants - 1))
        steps = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=7),
                    st.booleans(),
                ),
                min_size=1,
                max_size=5,
            )
        )
        rows.append((instant * 0.017, tuple(steps)))
    rows.sort(key=lambda row: row[0])
    return rows


@settings(max_examples=25, deadline=None)
@given(
    schedule=adversarial_schedules(),
    protocol=st.sampled_from(["scc-2s", "scc-ks", "scc-vw", "2pl-pa"]),
)
def test_arbitrary_same_instant_schedules_reproducible(schedule, protocol):
    assert_deterministic_schedule(protocol, schedule)
