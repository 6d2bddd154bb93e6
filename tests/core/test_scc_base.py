"""Unit tests for SCC base machinery: queries and the invariant checker."""

from types import SimpleNamespace

import pytest

from repro.core.scc_base import select_replacement
from repro.core.scc_ks import SCCkS
from repro.core.shadow import Shadow, ShadowMode
from repro.errors import InvariantViolation, ProtocolError
from repro.protocols.base import ExecutionState, ReadRecord
from repro.txn.generator import fixed_workload
from tests.conftest import R, W, build_system, make_class


def mid_run_protocol(until=2.5):
    protocol = SCCkS(k=3)
    specs = fixed_workload(
        programs=[
            [R(5), R(0), R(6), R(7)],
            [W(0), R(8), R(9), R(10)],
        ],
        arrivals=[0.5, 0.0],
        txn_class=make_class(num_steps=4),
        step_duration=1.0,
    )
    system = build_system(protocol, num_pages=32)
    system.load_workload(specs)
    system.sim.run(until=until)
    return protocol, system


def test_runtime_queries():
    protocol, system = mid_run_protocol()
    assert protocol.runtime_of(0) is not None
    assert protocol.runtime_of(99) is None
    assert {rt.txn_id for rt in protocol.runtimes()} == {0, 1}
    writer = protocol.runtime_of(1)
    readers = protocol.readers_of_writes(writer)
    assert [rt.txn_id for rt in readers] == [0]
    assert protocol.transaction_has_conflicts(writer)
    assert protocol.transaction_has_conflicts(protocol.runtime_of(0))
    system.sim.run()


def test_live_shadows_listing():
    protocol, system = mid_run_protocol()
    runtime = protocol.runtime_of(0)
    shadows = runtime.live_shadows()
    assert runtime.optimistic in shadows
    assert len(shadows) == 2  # optimistic + one speculative
    system.sim.run()


def test_invariant_checker_passes_mid_run():
    protocol, system = mid_run_protocol()
    protocol.check_invariants()
    system.sim.run()
    protocol.check_invariants()


def test_invariant_checker_catches_wrong_mode():
    protocol, system = mid_run_protocol()
    runtime = protocol.runtime_of(0)
    runtime.optimistic.mode = ShadowMode.SPECULATIVE
    with pytest.raises(InvariantViolation):
        protocol.check_invariants()


def test_invariant_checker_catches_dead_optimistic():
    protocol, system = mid_run_protocol()
    runtime = protocol.runtime_of(0)
    runtime.optimistic.state = ExecutionState.ABORTED
    with pytest.raises(InvariantViolation):
        protocol.check_invariants()


def test_overtaking_shadow_is_legal():
    # A speculative shadow transiently ahead of the optimistic shadow is
    # permitted (it happens when a blocked shadow is promoted while a
    # sibling is mid-service); the checker must NOT flag it.
    protocol, system = mid_run_protocol()
    runtime = protocol.runtime_of(0)
    shadow = next(iter(runtime.speculatives.values()))
    shadow.pos = runtime.optimistic.pos + 1
    protocol.check_invariants()
    shadow.pos = min(shadow.pos, runtime.optimistic.pos)  # restore sanity
    system.sim.run()


def test_invariant_checker_catches_exposed_waiter():
    protocol, system = mid_run_protocol()
    runtime = protocol.runtime_of(0)
    writer, shadow = next(iter(runtime.speculatives.items()))
    # Forge a read of the waited writer's page.
    page = next(iter(protocol.index.written_by(writer)))
    shadow.readset[page] = ReadRecord(position=0, version=0, time=0.0)
    with pytest.raises(InvariantViolation):
        protocol.check_invariants()


def test_invariant_checker_catches_stale_read():
    protocol, system = mid_run_protocol()
    runtime = protocol.runtime_of(0)
    page, record = next(iter(runtime.optimistic.readset.items()))
    runtime.optimistic.readset[page] = ReadRecord(
        position=record.position, version=record.version + 7, time=record.time
    )
    with pytest.raises(InvariantViolation):
        protocol.check_invariants()


def test_non_shadow_execution_rejected():
    from repro.protocols.base import Execution

    protocol, system = mid_run_protocol()
    spec = protocol.runtime_of(0).spec
    with pytest.raises(ProtocolError):
        protocol.on_finished(Execution(spec))


def test_commit_of_unfinished_transaction_rejected():
    protocol, system = mid_run_protocol()
    with pytest.raises(ProtocolError):
        protocol.commit_transaction(protocol.runtime_of(0))


# ----------------------------------------------------------------------
# Commit Rule promotion choice
# ----------------------------------------------------------------------


def shadow_stub(pos, serial):
    return SimpleNamespace(pos=pos, serial=serial)


def test_replacement_empty_is_none():
    assert select_replacement([], committer_id=9) is None


def test_replacement_prefers_latest_position():
    survivors = [(1, shadow_stub(2, 0)), (2, shadow_stub(6, 1))]
    assert select_replacement(survivors, committer_id=1) == survivors[1]


def test_replacement_prefers_committer_among_position_ties():
    survivors = [(1, shadow_stub(4, 0)), (7, shadow_stub(4, 1))]
    # Commit Rule case 1: the shadow hedging against the committer wins
    # even though the other was created first.
    assert select_replacement(survivors, committer_id=7) == survivors[1]


def test_replacement_final_tie_breaks_by_creation_order():
    survivors = [(2, shadow_stub(4, 3)), (3, shadow_stub(4, 1))]
    assert select_replacement(survivors, committer_id=9) == survivors[1]
