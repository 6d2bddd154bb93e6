"""Unit tests for the execution framework (step loop, epochs, states)."""

import pytest

from repro.errors import InvariantViolation, ProtocolError
from repro.protocols.base import (
    CCProtocol,
    Execution,
    ExecutionState,
    ReadRecord,
    record_access,
)
from repro.protocols.serial import SerialExecution
from repro.txn.generator import fixed_workload
from tests.conftest import R, W, build_system, make_class


class Recorder(CCProtocol):
    """Minimal protocol that records hook invocations."""

    name = "recorder"

    def __init__(self, block_at=None):
        super().__init__()
        self.events = []
        self.block_at = block_at
        self.execution = None

    def on_arrival(self, txn):
        self.execution = Execution(txn)
        self._start(self.execution)

    def before_step(self, execution, step):
        self.events.append(("before", execution.pos, step.page))
        if self.block_at is not None and execution.pos == self.block_at:
            self._block(execution)
            return False
        return True

    def after_step(self, execution, step):
        self.events.append(("after", execution.pos, step.page))

    def on_finished(self, execution):
        self.events.append(("finished", execution.pos, None))
        self._commit(execution)


def drive(protocol, steps):
    system = build_system(protocol, num_pages=16)
    specs = fixed_workload(
        programs=[steps],
        arrivals=[0.0],
        txn_class=make_class(num_steps=len(steps)),
        step_duration=1.0,
    )
    system.load_workload(specs)
    return system


def test_hooks_fire_in_order():
    protocol = Recorder()
    system = drive(protocol, [R(0), W(1)])
    system.run()
    assert protocol.events == [
        ("before", 0, 0),
        ("after", 1, 0),
        ("before", 1, 1),
        ("after", 2, 1),
        ("finished", 2, None),
    ]


def test_readset_and_writeset_recorded_with_versions():
    protocol = Recorder()
    system = drive(protocol, [R(0), W(1)])
    system.run()
    execution = protocol.execution
    assert execution.readset[0].position == 0
    assert execution.readset[0].version == 0
    assert execution.readset[0].time == pytest.approx(1.0)
    assert execution.writeset == {1: 1}
    assert execution.work == pytest.approx(2.0)


def test_blocked_execution_makes_no_progress():
    protocol = Recorder(block_at=1)
    system = drive(protocol, [R(0), R(1), R(2)])
    system.sim.run()
    execution = protocol.execution
    assert execution.state is ExecutionState.BLOCKED
    assert execution.pos == 1
    # Resume and finish.
    protocol.block_at = None
    protocol._resume(execution)
    system.sim.run()
    assert execution.state is ExecutionState.COMMITTED


def test_stale_epoch_callback_ignored():
    protocol = Recorder()
    system = drive(protocol, [R(0), R(1)])
    system.sim.run(until=0.5)  # step 0 in flight
    execution = protocol.execution
    execution.bump_epoch()  # simulate an abort/re-route mid-service
    execution.state = ExecutionState.BLOCKED
    system.sim.run(until=1.5)  # the old completion event fires harmlessly
    assert execution.pos == 0
    assert execution.readset == {}


def test_kill_releases_execution():
    protocol = Recorder()
    system = drive(protocol, [R(0), R(1)])
    system.sim.run(until=0.5)
    protocol._kill(protocol.execution)
    assert protocol.execution.state is ExecutionState.ABORTED
    # Wasted work accounted.
    assert system.metrics.shadow_aborts == 1
    # The pending completion is a no-op; the drain check would fail, so we
    # only run the event queue (the transaction is deliberately lost).
    system.sim.run()
    assert protocol.execution.pos == 0


def test_state_machine_violations_raise():
    protocol = Recorder()
    system = drive(protocol, [R(0)])
    system.sim.run(until=0.5)
    execution = protocol.execution
    with pytest.raises(ProtocolError):
        protocol._resume(execution)  # not blocked
    with pytest.raises(ProtocolError):
        protocol._commit(execution)  # not finished
    execution.state = ExecutionState.ABORTED
    with pytest.raises(ProtocolError):
        protocol._start(execution)  # dead


def test_before_step_contract_enforced():
    class Liar(Recorder):
        def before_step(self, execution, step):
            return False  # refuses without blocking

    protocol = Liar()
    system = drive(protocol, [R(0)])
    with pytest.raises(InvariantViolation):
        system.run()


def test_current_step_past_end_rejected():
    protocol = SerialExecution()
    system = build_system(protocol, num_pages=4)
    specs = fixed_workload(
        programs=[[R(0)]],
        arrivals=[0.0],
        txn_class=make_class(num_steps=1),
        step_duration=1.0,
    )
    system.load_workload(specs)
    system.run()
    execution = Execution(specs[0])
    execution.pos = 1
    with pytest.raises(ProtocolError):
        execution.current_step()


def test_unbound_protocol_rejected():
    protocol = Recorder()
    with pytest.raises(ProtocolError):
        protocol._require_system()


def test_record_access_first_read_records_position():
    record = record_access(None, pos=3, version=7, now=1.5)
    assert record == ReadRecord(3, 7, 1.5)


def test_record_access_reread_keeps_first_position():
    first = record_access(None, pos=1, version=2, now=0.5)
    second = record_access(first, pos=6, version=9, now=2.0)
    assert second.position == 1  # first touch wins
    assert second.version == 9 and second.time == 2.0
