"""SCC under queueing: the fused step loop over a finite server pool.

The SCC step loop requests service through the system's resource
manager, so with :class:`FiniteResources` page accesses queue, stale
queued requests are purged, and completions arrive late.  These runs
check that speculation stays correct and deterministic under that.
"""

import pytest

from repro.analysis.serializability import check_serializable
from repro.system.resources import FiniteResources
from tests.conftest import build_hotspot_system


def queued_run(spec):
    resources = FiniteResources(cpu_time=0.001, io_time=0.007, num_servers=2)
    system = build_hotspot_system(spec, num_transactions=200, resources=resources)
    system.run()
    return system, resources


@pytest.mark.parametrize("spec", ["scc-2s", "scc-vw"])
def test_scc_over_finite_resources(spec):
    system, resources = queued_run(spec)
    assert resources.total_queued > 0  # the pool really was contended
    assert system.metrics.summary().committed == 200
    assert check_serializable(system.history)
    system.protocol.check_invariants()
    again, _ = queued_run(spec)
    assert again.metrics.summary() == system.metrics.summary()
