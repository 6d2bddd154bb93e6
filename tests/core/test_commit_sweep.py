"""Sensitivity tests for the pruned Commit Rule sweep.

With a time-invariant coverage policy, ``SCCProtocolBase.commit_transaction``
runs ``_process_commit_effects`` only on *candidate* transactions: readers
of an installed page, and the transactions a reverse conflict index says
may hold a conflict record naming the committer.  Skipping any other
transaction is sound only if the commit cannot affect it.  These tests
check that claim at every commit of small saturated runs, and pin the
one history that page readers alone would get wrong.
"""

import pytest

from repro.analysis.serializability import check_serializable
from repro.core.scc_2s import SCC2S
from repro.core.shadow import ShadowMode
from repro.txn.generator import fixed_workload
from tests.conftest import R, W, build_hotspot_system, build_system, make_class


class SweepAudit:
    """Wraps a protocol's commit path and checks every skipped runtime.

    At each commit it snapshots, for every other active transaction,
    whether its conflict table names the committer and whether a live
    shadow of it read a page the commit installs.  Every transaction the
    sweep then skips must have had neither.
    """

    def __init__(self, protocol):
        self.protocol = protocol
        self.commits = 0
        self.visited_total = 0
        self.skipped_total = 0
        self._visited = None
        self._commit = protocol.commit_transaction
        self._process = protocol._process_commit_effects
        protocol.commit_transaction = self.commit_transaction
        protocol._process_commit_effects = self.process_commit_effects

    def process_commit_effects(self, runtime, committer_id, write_pages):
        self._visited.add(runtime.txn_id)
        self._process(runtime, committer_id, write_pages)

    def commit_transaction(self, runtime):
        committer = runtime.txn_id
        installed = set(runtime.optimistic.writeset)
        before = {
            tid: (
                committer in other.conflicts,
                any(s.has_read_any(installed) for s in other.live_shadows()),
            )
            for tid, other in self.protocol._runtimes.items()
            if tid != committer
        }
        outer, self._visited = self._visited, set()
        try:
            self._commit(runtime)
            visited = self._visited
        finally:
            self._visited = outer
        self.commits += 1
        self.visited_total += len(visited)
        for tid, (names_committer, exposed) in before.items():
            if tid in visited:
                continue
            self.skipped_total += 1
            assert not names_committer, (
                f"sweep skipped T{tid}, whose conflict table names the "
                f"committer T{committer}"
            )
            assert not exposed, (
                f"sweep skipped T{tid}, which has a live shadow that read a "
                f"page T{committer} installed"
            )


@pytest.mark.parametrize(
    "spec, pruned",
    [
        ("scc-2s", True),
        ("scc-vw", True),
        ("scc-ks?k=3", True),
        ("scc-ks?k=3&replacement=value-aware", False),
    ],
)
def test_skipped_runtimes_are_untouched_by_the_commit(spec, pruned):
    system = build_hotspot_system(spec, num_transactions=250)
    audit = SweepAudit(system.protocol)
    system.run()
    assert audit.commits == 250
    assert audit.visited_total > 0
    if pruned:
        assert audit.skipped_total > 0  # the sweep really prunes
    else:
        # Value-aware coverage drifts with the clock: every runtime is
        # visited (and rebuilt) at every commit.
        assert audit.skipped_total == 0
    system.protocol.check_invariants()
    assert check_serializable(system.history)


@pytest.mark.parametrize("spec", ["scc-2s", "scc-ks?k=3"])
def test_pruned_sweep_matches_the_full_sweep(spec):
    # Declaring the coverage time-variant forces the full sweep and a
    # rebuild of every runtime at every commit.  For a time-invariant
    # policy those extra calls are no-ops, so the runs must agree.
    pruned = build_hotspot_system(spec, num_transactions=250)
    pruned.run()
    full = build_hotspot_system(spec, num_transactions=250)
    full.protocol._coverage_time_invariant = False
    full.run()
    assert pruned.metrics.summary() == full.metrics.summary()
    assert [c.txn_id for c in pruned.history] == [c.txn_id for c in full.history]


def test_commit_during_an_in_service_read_clears_the_conflict():
    # T1 writes page 0 at t=1.  T0's optimistic shadow requests its read
    # of page 0 at t=1.5: the Read Rule records the conflict with T1 and
    # forks a shadow blocked at position 1.  T1 commits at t=2 while that
    # read is still in service, so T0 is not yet a reader of page 0 in
    # the access index; only the reverse conflict index names it.
    protocol = SCC2S()
    specs = fixed_workload(
        programs=[[R(5), R(0), R(6), R(7)], [W(0), R(8)]],
        arrivals=[0.5, 0.0],
        txn_class=make_class(num_steps=4),
        step_duration=1.0,
    )
    system = build_system(protocol, num_pages=16)
    system.load_workload(specs)
    system.sim.run(until=1.7)
    reader = protocol.runtime_of(0)
    assert 1 in reader.conflicts
    assert 0 not in protocol.index.readers_of(0)  # the read is in service
    assert [s.mode for s in reader.speculatives.values()] == [ShadowMode.SPECULATIVE]

    system.sim.run(until=2.2)
    assert protocol.runtime_of(1) is None  # T1 committed at t=2
    assert 1 not in reader.conflicts
    assert reader.speculatives == {}  # its shadow waited on a committed writer
    protocol.check_invariants()

    system.sim.run()
    assert check_serializable(system.history)
    assert system.metrics.restarts == 0
