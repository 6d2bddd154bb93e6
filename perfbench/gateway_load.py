"""The ``gateway-mixed`` workload: two closed-loop clients on ``repro serve``.

The server is a ``repro serve --workers 2`` subprocess with its own store
and workdir.  Two clients (``X-Client`` a and b) each submit a seeded
sequence of small ``paper-baseline`` experiments and wait for each one to
finish before submitting the next.  Round ``i`` gives both clients the same
protocol (the roster in turn) and three rates: a private rate (fresh
work), a rate both clients share (computed by whichever submits first and
joined in flight or read from the store by the other), and the shared
rate of the protocol's previous round (a store read).  The seed shuffles
rates drawn without replacement from a narrow band, so fresh work never
runs out and every round holds about the same work.

Every delivered cell is checked against the serial path: after the server
stops, each distinct cell fingerprint is replayed with
``ExperimentSpec.run`` and every gateway summary must equal it.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (
    HERE,
    SETUP_SAMPLES,
    Outcome,
    gateway_spec,
    mean,
    p50,
    p90,
    sim_seed,
    src_env,
    summary_digest,
    vm_hwm_mb,
)
from spans import load_spans, layer_times, format_table, per_layer_metrics

ROSTER = ("scc-2s", "scc-vw", "occ-bc", "wait-50")
CLIENTS = ("a", "b")
WORKERS = 2
#: Rounds generated per run; a run stops submitting at its deadline.
ROUNDS = 200


def make_plan(seed: int, scale: str) -> Dict[str, List[Tuple[str, dict]]]:
    """Per client, the ``(protocol, spec dict)`` sequence it submits."""
    rng = random.Random(sim_seed(seed))
    rates = {}
    for protocol in ROSTER:
        # A narrow band keeps the work per round nearly constant, so the
        # seed changes the cells but not how much work a run holds.
        pool = [95 + 0.025 * k for k in range(400)]  # 95..105 tps
        rng.shuffle(pool)
        rates[protocol] = iter(pool)
    previous: Dict[str, float] = {}
    plan: Dict[str, List[Tuple[str, dict]]] = {client: [] for client in CLIENTS}
    for round_index in range(ROUNDS):
        protocol = ROSTER[round_index % len(ROSTER)]
        shared = next(rates[protocol])
        old = [previous[protocol]] if protocol in previous else []
        previous[protocol] = shared
        for client in CLIENTS:
            spec = gateway_spec(
                [protocol], [shared, next(rates[protocol])] + old, seed, scale
            )
            plan[client].append((protocol, spec.to_dict()))
    return plan


def free_port() -> int:
    """A TCP port nothing listens on right now."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess; always stopped by :meth:`stop`."""

    def __init__(self, root: str, workdir: str, spans_path: Optional[str] = None) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.store_path = os.path.join(workdir, "store.jsonl")
        self.port = free_port()
        serve = [
            "serve", "--store", self.store_path, "--port", str(self.port),
            "--workers", str(WORKERS), "--workdir", os.path.join(workdir, "board"),
        ]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.experiments.cli", *serve]
        else:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"), spans_path, *serve]
        self._log = open(os.path.join(workdir, "server.log"), "wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            env=src_env(os.path.join(root, "src")),
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            self.setup_s = self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, timeout: float = 60.0) -> float:
        from repro.gateway import GatewayClient, GatewayError

        client = GatewayClient(port=self.port, client_id="probe", timeout=5.0)
        while time.perf_counter() - self.started < timeout:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.process.returncode}")
            try:
                if client.health().get("status") == "ok":
                    return time.perf_counter() - self.started
            except (OSError, GatewayError):
                pass
            time.sleep(0.01)
        raise RuntimeError("repro serve never became healthy")

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` so far."""
        return vm_hwm_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (a graceful drain), then kill; wait until it has ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def _client_loop(
    port: int, client_id: str, plan: List[Tuple[str, dict]], deadline: float,
    log: List[dict],
) -> None:
    """Submit experiments one at a time until the deadline passes."""
    from repro.gateway import GatewayClient, GatewayError

    client = GatewayClient(port=port, client_id=client_id, timeout=120.0)
    for protocol, spec in plan:
        if time.perf_counter() >= deadline:
            return
        entry: dict = {"client": client_id, "protocol": protocol, "events": []}
        log.append(entry)
        started = time.perf_counter()
        try:
            accepted = client.submit(spec)
        except GatewayError as exc:
            entry["rejected"] = f"HTTP {exc.status}"
            time.sleep(exc.retry_after or 0.1)
            continue
        except OSError as exc:
            entry["error"] = f"submit failed: {exc}"
            return
        entry["submit_s"] = time.perf_counter() - started
        try:
            for event in client.events(accepted["id"]):
                entry["events"].append((time.perf_counter() - started, event))
                if event["kind"] in ("experiment_done", "experiment_interrupted"):
                    break
        except (OSError, GatewayError) as exc:
            entry["error"] = f"stream failed: {exc}"
            return
        entry["experiment_s"] = time.perf_counter() - started


def run(
    root: str,
    seed: int,
    seconds: float,
    scale: str,
    workdir: str,
    traced: bool,
) -> Outcome:
    """Measure ``gateway-mixed``; ``traced`` runs the server with spans on."""
    out = Outcome()
    plan = make_plan(seed, scale)
    setups = [
        _throwaway_setup(root, os.path.join(workdir, f"setup-{n}"))
        for n in range(SETUP_SAMPLES - 1)
    ]
    spans_path = os.path.join(workdir, "spans.json") if traced else None
    server = Server(root, os.path.join(workdir, "serve"), spans_path)
    log: List[dict] = []
    try:
        setups.append(server.setup_s)
        _warm_up(server.port, seed)
        started = time.perf_counter()
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(server.port, client, plan[client], started + seconds, log),
            )
            for client in CLIENTS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = time.perf_counter() - started
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()

    stats = _analyse(out, log, seed, scale)
    _check_against_serial(out, stats["delivered"], root, workdir, seed, scale)
    delivered = len(stats["delivered"])
    out.metrics = {
        "cells_per_s": (delivered / window, "1/s"),
        "cell_s_p50": (p50(stats["exec_s"]), "s"),
        "cell_s_p90": (p90(stats["exec_s"]), "s"),
        "experiment_s_p50": (p50(stats["experiment_s"]), "s"),
        "experiment_s_p90": (p90(stats["experiment_s"]), "s"),
        "first_event_s_p50": (p50(stats["first_event_s"]), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
        "setup_s": (p50(setups), "s"),
    }
    out.notes.append(
        f"samples: cell_s n={len(stats['exec_s'])} (cells computed), "
        f"experiment_s n={len(stats['experiment_s'])}, "
        f"first_event_s n={len(stats['first_event_s'])}, "
        f"first streamed line p50 {p50(stats['first_marker_s']):.4f} s "
        f"(n={len(stats['first_marker_s'])}), "
        f"cells delivered {delivered}, setup_s n={len(setups)}"
    )
    if traced:
        records = _store_records(server.store_path)
        # perf_counter is CLOCK_MONOTONIC, shared with the server process:
        # drop the warm-up's spans.
        spans, absent = load_spans(spans_path)
        spans = [span for span in spans if span.start >= started]
        out.layers = per_layer_metrics(spans, delivered, stats["computed"])
        out.layers.update(
            {
                "results.bytes_per_record": (
                    os.path.getsize(server.store_path) / max(records, 1), "B"
                ),
                "gateway.submit_s": (mean(stats["submit_s"]), "s"),
                "gateway.stream_lag_s": (mean(stats["stream_lag_s"]), "s"),
                "gateway.queue_wait_s": (mean(stats["queue_wait_s"]), "s"),
                "gateway.exec_s": (mean(stats["exec_s"]), "s"),
                "gateway.post_run_s": (mean(stats["post_run_s"]), "s"),
                "gateway.worker_utilization": (
                    sum(stats["exec_s"]) / (WORKERS * window), "ratio"
                ),
                "gateway.dedup_hit_ratio": (
                    stats["deduped"] / max(stats["cells"], 1), "ratio"
                ),
                "gateway.rejected": (float(stats["rejected"]), "count"),
                "perfbench.traced_cells_per_s": (delivered / window, "1/s"),
            }
        )
        out.notes.append(
            format_table("gateway-mixed (server)", layer_times(spans), delivered, absent)
        )
    return out


def _warm_up(port: int, seed: int) -> None:
    """One tiny experiment, untimed, so the server's lazy set-up is done.

    Its rate lies outside the measured band, so no measured cell shares
    its fingerprints.
    """
    from repro.gateway import GatewayClient

    spec = gateway_spec(ROSTER, [60], seed, "smoke")
    client = GatewayClient(port=port, client_id="warm-up", timeout=120.0)
    status = client.wait(client.submit(spec.to_dict())["id"])
    if status["status"] != "done":
        raise RuntimeError(f"warm-up experiment ended {status['status']}")


def _throwaway_setup(root: str, workdir: str) -> float:
    server = Server(root, workdir)
    server.stop()
    return server.setup_s


def _store_records(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())


def _analyse(out: Outcome, log: List[dict], seed: int, scale: str) -> dict:
    """Check every submission and cell; gather the latency samples."""
    from repro.protocols.registry import protocol_spec
    from repro.results.fingerprint import cell_fingerprint, config_payload

    # The fingerprint payload excludes the rate axis, so one spec of the
    # run's config serves every cell.
    payload = config_payload(gateway_spec(ROSTER, [100], seed, scale).to_config())
    stats: dict = {
        name: [] for name in (
            "submit_s", "experiment_s", "first_event_s", "first_marker_s", "queue_wait_s",
            "exec_s", "post_run_s", "stream_lag_s", "delivered", "computed",
        )
    }
    stats.update(rejected=0, cells=0, deduped=0)
    for entry in log:
        out.attempted += 1
        if "rejected" in entry:
            stats["rejected"] += 1
            out.fail(f"client {entry['client']}: submission refused ({entry['rejected']})")
            continue
        if "submit_s" in entry:
            stats["submit_s"].append(entry["submit_s"])
        if entry["events"]:
            stats["first_marker_s"].append(entry["events"][0][0])
        done = [event for _, event in entry["events"] if event["kind"] == "experiment_done"]
        if "error" in entry or not done or done[0]["status"] != "done":
            out.fail(f"client {entry['client']}: experiment did not finish: "
                     f"{entry.get('error') or (done and done[0]['status'])}")
            continue
        stats["experiment_s"].append(entry["experiment_s"])
        first_result: Optional[float] = None
        started: Dict[int, float] = {}
        completed: Dict[int, Tuple[float, float]] = {}
        for received, event in entry["events"]:
            kind = event["kind"]
            if kind == "experiment_accepted":
                stats["cells"] += event["total"]
                stats["deduped"] += event["cached"] + event["shared"]
            elif kind == "cell_started":
                started[event["cell"]["index"]] = event["elapsed"]
            elif kind == "cell_completed":
                completed[event["cell"]["index"]] = (received, event["elapsed"])
            elif kind == "cell_outcome":
                if not event["cached"] and first_result is None:
                    first_result = received
                out.attempted += 1
                cell = event["cell"]
                rate = cell["arrival_rate"]
                if not event["ok"]:
                    out.fail(f"{cell['protocol']}@{rate:g}: {event.get('error')}")
                    continue
                fingerprint = cell_fingerprint(
                    payload, protocol_spec(entry["protocol"]), rate, cell["replication"]
                )
                stats["delivered"].append(
                    (fingerprint, entry["protocol"], rate, summary_digest(event["summary"]))
                )
                index = cell["index"]
                if not event["cached"] and index in started and index in completed:
                    completed_at, finished = completed[index]
                    exec_s = finished - started[index]
                    stats["queue_wait_s"].append(started[index])
                    stats["exec_s"].append(exec_s)
                    stats["post_run_s"].append(exec_s - event["elapsed"])
                    stats["stream_lag_s"].append(completed_at - finished)
                    stats["computed"].append(event)
        if first_result is not None:
            stats["first_event_s"].append(first_result)
    return stats


def _check_against_serial(
    out: Outcome,
    delivered: List[Tuple[str, str, float, str]],
    root: str,
    workdir: str,
    seed: int,
    scale: str,
) -> None:
    """Every delivered summary must equal the serial path's, per fingerprint.

    The distinct cells are replayed by ``WORKERS`` ``replay.py`` processes
    once the server has stopped.
    """
    jobs: Dict[str, Tuple[str, float, int, str]] = {}
    for fingerprint, protocol, rate, _digest in delivered:
        jobs.setdefault(fingerprint, (protocol, rate, seed, scale))
    fingerprints = list(jobs)
    chunks = [fingerprints[n::WORKERS] for n in range(WORKERS)]
    processes = []
    try:
        for n, chunk in enumerate(chunks):
            path = os.path.join(workdir, f"replay-{n}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump([jobs[fingerprint] for fingerprint in chunk], handle)
            processes.append(subprocess.Popen(
                [sys.executable, os.path.join(HERE, "replay.py"), path],
                env=src_env(os.path.join(root, "src")),
                stdout=subprocess.PIPE, text=True,
            ))
        digests: Dict[str, str] = {}
        for chunk, process in zip(chunks, processes):
            stdout, _ = process.communicate(timeout=600)
            if process.returncode != 0:
                raise RuntimeError(f"replay.py exited with {process.returncode}")
            digests.update(zip(chunk, json.loads(stdout)))
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()
    for fingerprint, protocol, rate, digest in delivered:
        if digests[fingerprint] != digest:
            out.fail(f"{protocol}@{rate:g}: gateway summary differs from the serial path")
