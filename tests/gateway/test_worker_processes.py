"""Gateway workers compute in child processes: crash, signals, shutdown, parity."""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import repro
from repro.experiments.spec import ExperimentSpec
from repro.gateway import CircuitBreaker, GatewayApp
from repro.protocols.registry import available_protocols
from repro.results import open_store

from tests.gateway.conftest import tiny_spec_dict


def wait_done(app: GatewayApp, experiment_id: str, timeout: float = 60.0) -> str:
    status = app._get(experiment_id).wait(timeout=timeout)
    assert status != "running", "experiment did not finish in time"
    return status


def child_pid(app: GatewayApp, worker_id: str = "gw-0") -> int:
    return app.health()["workers"][worker_id]["pid"]


def signal_on_dispatch():
    """A fault hook that signals each time a cell is about to be dispatched."""
    dispatched = threading.Event()

    def hook(cell):
        dispatched.set()

    return dispatched, hook


# One cell long enough (seconds) that a signal sent right after dispatch
# always lands while the child is computing it.
LONG_CELL = tiny_spec_dict(
    protocols=["scc-2s"], num_transactions=6000, warmup_commits=100, seed=3
)


class TestChildren:
    def test_each_worker_has_its_own_child(self, make_app):
        app = make_app(workers=2)
        workers = app.health()["workers"]
        pids = [workers[w]["pid"] for w in ("gw-0", "gw-1")]
        assert len(set(pids)) == 2
        assert os.getpid() not in pids
        assert all(workers[w]["restarts"] == 0 for w in workers)
        for pid in pids:
            os.kill(pid, 0)  # alive

    def test_killed_child_fails_its_cell_and_is_replaced(self, make_app):
        dispatched, hook = signal_on_dispatch()
        app = make_app(workers=1, fault_hook=hook)
        before = child_pid(app)
        status = app.submit(LONG_CELL, client="alice")
        assert dispatched.wait(10)
        os.kill(before, signal.SIGKILL)
        # The supervising thread sees the death instead of hanging.
        assert wait_done(app, status["id"], timeout=30) == "partial"
        final = app.status(status["id"])
        assert [f["error"]["type"] for f in final["failed"]] == ["WorkerLost"]
        assert app.results(status["id"]) == []
        fingerprint = app._get(status["id"]).fingerprints[0]
        with app._store_lock:
            assert app._store.get(fingerprint) is None
        health = app.health()
        assert health["breaker"]["gw-0"]["consecutive_failures"] == 1
        worker = health["workers"]["gw-0"]
        assert worker["restarts"] == 1
        assert worker["pid"] not in (before, os.getpid())
        # The fresh child serves the next submission on the same worker.
        retry = app.submit(tiny_spec_dict(), client="alice")
        assert wait_done(app, retry["id"]) == "done"
        assert len(app.results(retry["id"])) == 2
        assert app.health()["workers"]["gw-0"]["restarts"] == 1

    def test_interrupt_signals_do_not_kill_an_inflight_cell(self, make_app):
        dispatched, hook = signal_on_dispatch()
        app = make_app(workers=1, fault_hook=hook)
        pid = child_pid(app)
        status = app.submit(LONG_CELL, client="alice")
        assert dispatched.wait(10)
        os.kill(pid, signal.SIGINT)
        os.kill(pid, signal.SIGTERM)
        assert wait_done(app, status["id"], timeout=120) == "done"
        assert len(app.results(status["id"])) == 1
        events, _ = app.events_since(status["id"], 0)
        outcomes = [e for e in events if e["kind"] == "cell_outcome"]
        assert len(outcomes) == 1 and outcomes[0]["ok"]
        worker = app.health()["workers"]["gw-0"]
        assert worker["pid"] == pid and worker["restarts"] == 0

    def test_drain_stops_every_child_including_a_parked_one(self, make_app):
        def explode(cell):
            if cell.protocol == "OCC-BC":
                raise RuntimeError("poisoned cell")

        app = make_app(
            workers=2,
            breaker=CircuitBreaker(failure_threshold=1),
            fault_hook=explode,
        )
        status = app.submit(tiny_spec_dict(), client="alice")
        assert wait_done(app, status["id"]) == "partial"
        deadline = time.monotonic() + 10
        while not any(
            w["state"] == "parked" for w in app.health()["workers"].values()
        ):
            assert time.monotonic() < deadline, "no worker parked"
            time.sleep(0.01)
        processes = [worker.process for worker in app._workers]
        assert all(process.is_alive() for process in processes)
        app.drain()
        assert all(process.exitcode is not None for process in processes)

    def test_interpreter_exit_without_close_stops_the_children(self, tmp_path):
        # Children ignore SIGTERM, so multiprocessing's exit hook alone
        # would wait on them forever; the app's finalizer must stop them.
        script = textwrap.dedent(
            f"""
            from repro.gateway import GatewayApp
            app = GatewayApp(store={str(tmp_path / "s.jsonl")!r},
                             workdir={str(tmp_path / "w")!r})
            print(*(w["pid"] for w in app.health()["workers"].values()))
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 0, done.stderr
        for pid in map(int, done.stdout.split()):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            raise AssertionError(f"worker child {pid} outlived the process")


def test_gateway_summaries_equal_the_serial_run(make_app, tmp_path):
    """The child's rebuild from the board payload's JSON spec is exact."""
    # Bare "scc-ks" defaults to k=2, whose label collides with scc-2s;
    # the family is covered by its parametrized forms.
    protocols = [name for name in available_protocols() if name != "scc-ks"]
    protocols += ["scc-ks?k=3", "scc-ks?k=3&replacement=value-aware"]
    spec_dict = tiny_spec_dict(
        protocols=protocols, arrival_rates=[50.0, 110.0], seed=19
    )
    serial_path = tmp_path / "serial.jsonl"
    ExperimentSpec.from_dict(spec_dict).run(store=str(serial_path))
    with open_store(str(serial_path)) as store:
        serial = {record.fingerprint: record for record in store.records()}

    app = make_app(workers=2)
    status = app.submit(spec_dict, client="alice")
    assert status["enqueued_cells"] == len(protocols) * 2
    assert wait_done(app, status["id"], timeout=120) == "done"
    gateway = {record["fingerprint"]: record for record in app.results(status["id"])}
    assert set(gateway) == set(serial)
    with app._store_lock:
        for fingerprint, record in serial.items():
            assert app._store.get(fingerprint).summary == record.summary, (
                record.protocol
            )
