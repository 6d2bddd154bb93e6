"""Experiment gateway: submission latency and event-stream throughput.

The gateway's promise is that simulation-as-a-service costs service
overhead, not simulation — a cached grid must come back at HTTP
round-trip speed.  Both benchmarks run a real server (asyncio, real
sockets) against a store pre-seeded with the whole grid, so the numbers
isolate the gateway hot path: spec validation, fingerprint dedup, event
fan-out, and chunked NDJSON streaming.

* ``submit_to_first_event`` — wall-clock from ``POST /experiments`` to
  the first event off the stream, the interactive feel of a notebook
  submission.
* ``stream_throughput`` — draining a cached grid's full event stream;
  ``extra_info`` records events per second.
* ``worker_scaling`` — a fresh (uncached) 8-cell grid computed on
  ``workers=2``, each worker's cells in its own child process;
  ``extra_info`` records the same grid's ``workers=1`` time and the
  ratio.  No ratio is asserted: a 1-core host has nothing to scale onto.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from contextlib import contextmanager

import pytest

from repro.gateway import (
    ClientQuotas,
    GatewayApp,
    GatewayClient,
    GatewayServer,
)

# A grid big enough that streaming dominates connection setup: 3
# protocols x 3 rates x 4 replications = 36 cells, ~76 events cached.
GATEWAY_SPEC = {
    "schema": 1,
    "protocols": ["scc-2s", "occ-bc", "wait-50"],
    "arrival_rates": [40.0, 70.0, 150.0],
    "replications": 4,
    "num_transactions": 120,
    "warmup_commits": 12,
    "seed": 1995,
}
GRID_CELLS = 36


@contextmanager
def _running_server(app):
    server = GatewayServer(app, port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)

        async def main():
            await server.start()
            started.set()
            await server.run()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "gateway server failed to start"
    try:
        yield server
    finally:
        if not loop.is_closed():
            try:
                loop.call_soon_threadsafe(server.request_shutdown)
            except RuntimeError:
                pass
        thread.join(30)


@pytest.fixture(scope="module")
def cached_gateway(tmp_path_factory):
    """A running gateway whose store already holds the whole grid."""
    root = tmp_path_factory.mktemp("gateway-bench")
    app = GatewayApp(
        store=str(root / "store.jsonl"),
        workers=2,
        workdir=str(root / "work"),
        # The default submit rate-limit would throttle back-to-back
        # benchmark rounds; admission control is benchmarked elsewhere.
        quotas=ClientQuotas(submit_burst=100_000.0, submit_rate=100_000.0),
    )
    with _running_server(app) as server:
        client = GatewayClient(port=server.port, client_id="warmup")
        accepted = client.submit(GATEWAY_SPEC)
        final = client.wait(accepted["id"])
        assert final["status"] == "done"
        assert final["total_cells"] == GRID_CELLS
        yield server
    app.close()


def test_gateway_submit_to_first_event(benchmark, cached_gateway):
    client = GatewayClient(port=cached_gateway.port, client_id="bench")

    def submit_and_first_event():
        accepted = client.submit(GATEWAY_SPEC)
        stream = client.events(accepted["id"])
        first = next(stream)
        stream.close()
        return accepted, first

    accepted, first = benchmark.pedantic(
        submit_and_first_event, rounds=50, iterations=1, warmup_rounds=5
    )
    # Fully cached: terminal at submit, and the stream replays from the
    # acceptance marker.
    assert accepted["status"] == "done"
    assert accepted["cached_cells"] == GRID_CELLS
    assert first["kind"] == "experiment_accepted"
    benchmark.extra_info["cells"] = GRID_CELLS


def test_gateway_stream_throughput(benchmark, cached_gateway):
    client = GatewayClient(port=cached_gateway.port, client_id="bench")
    accepted = client.submit(GATEWAY_SPEC)
    assert accepted["status"] == "done"

    def drain_stream():
        return list(client.events(accepted["id"]))

    events = benchmark.pedantic(
        drain_stream, rounds=50, iterations=1, warmup_rounds=5
    )
    outcomes = [e for e in events if e["kind"] == "cell_outcome"]
    assert len(outcomes) == GRID_CELLS
    assert all(e["cached"] for e in outcomes)
    benchmark.extra_info["events"] = len(events)
    benchmark.extra_info["events_per_s"] = round(
        len(events) / benchmark.stats.stats.mean, 1
    )


# 4 protocols x 2 rates = 8 fresh cells at benchmark scale.
SCALING_SPEC = {
    "schema": 1,
    "protocols": ["scc-2s", "scc-vw", "occ-bc", "wait-50"],
    "arrival_rates": [70.0, 150.0],
    "replications": 1,
    "num_transactions": 600,
    "warmup_commits": 60,
    "seed": 1995,
}


def _time_fresh_grid(root, workers: int) -> float:
    """Seconds from submit to done for SCALING_SPEC on a fresh store."""
    app = GatewayApp(
        store=str(root / f"store-{workers}.jsonl"),
        workers=workers,
        workdir=str(root / f"work-{workers}"),
    )
    try:
        started = time.perf_counter()
        accepted = app.submit(SCALING_SPEC, client="bench")
        status = app._get(accepted["id"]).wait(timeout=600)
        elapsed = time.perf_counter() - started
    finally:
        app.close()
    assert status == "done"
    assert accepted["enqueued_cells"] == 8
    return elapsed


def test_gateway_worker_scaling(benchmark, tmp_path_factory):
    one_s = _time_fresh_grid(tmp_path_factory.mktemp("scaling-1"), workers=1)
    two_s = benchmark.pedantic(
        lambda: _time_fresh_grid(tmp_path_factory.mktemp("scaling-2"), workers=2),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["cells"] = 8
    benchmark.extra_info["workers_1_s"] = round(one_s, 3)
    benchmark.extra_info["workers_2_s"] = round(two_s, 3)
    benchmark.extra_info["speedup"] = round(one_s / two_s, 3)
    benchmark.extra_info["cores"] = os.cpu_count() or 1
