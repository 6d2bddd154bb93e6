"""The sweep workloads: ``ExperimentSpec.run`` on the default path.

Each run repeats one whole sweep (serial executor, write-through to a
fresh JSONL store, serializability check on) until ``seconds`` have
passed, so every repetition delivers the same grid.  Cell latency is
measured on the ``on_event`` bus, from ``cell_started`` to the
``cell_outcome`` that follows the store append.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, List, Optional

from common import (
    HERE,
    SETUP_SAMPLES,
    SWEEP_SCALE,
    Outcome,
    cell_key,
    median_setup,
    p50,
    p90,
    sim_seed,
    src_env,
    summary_digest,
    vm_hwm_mb,
)
from spans import SpanRecorder, format_table, install, layer_times, per_layer_metrics

#: workload -> (scenario, protocol roster, arrival rates in tps).
SWEEPS = {
    "sweep-paper": ("paper-baseline", ("scc-2s", "scc-vw", "occ-bc", "wait-50"), (50, 150)),
    "sweep-hotspot": ("flash-sale-hotspot", ("scc-2s", "scc-vw", "occ-bc"), (150,)),
}


def make_spec(workload: str, seed: int, scale: str):
    """The generated spec for one sweep workload: the program's only input."""
    from repro.experiments.spec import ExperimentSpec

    scenario, protocols, rates = SWEEPS[workload]
    return ExperimentSpec.create(
        protocols,
        scenario=scenario,
        arrival_rates=rates,
        replications=1,
        seed=sim_seed(seed),
        **SWEEP_SCALE[scale],
    )


class _SweepObserver:
    """``on_event`` subscriber timing cells and keeping their outcomes."""

    def __init__(self, recorder: Optional[SpanRecorder], sweep: int) -> None:
        self.recorder = recorder
        self.sweep = sweep
        self.started_at = time.perf_counter()
        self.first_outcome: Optional[float] = None
        self.cell_start: Dict[int, float] = {}
        self.cell_span: Dict[int, object] = {}
        self.cell_s: List[float] = []
        self.outcomes: List[dict] = []

    def __call__(self, event) -> None:
        payload = event.payload
        if event.kind == "cell_started":
            index = payload["cell"]["index"]
            self.cell_start[index] = time.perf_counter()
            if self.recorder is not None:
                self.cell_span[index] = self.recorder.open(
                    "experiments.cell", cell=f"{self.sweep}:{index}"
                )
        elif event.kind == "cell_outcome":
            now = time.perf_counter()
            index = payload["cell"]["index"]
            if self.recorder is not None and index in self.cell_span:
                self.recorder.close(self.cell_span.pop(index))
            if self.first_outcome is None:
                self.first_outcome = now - self.started_at
            if index in self.cell_start:
                self.cell_s.append(now - self.cell_start.pop(index))
            self.outcomes.append(payload)


def run(
    root: str,
    workload: str,
    seed: int,
    seconds: float,
    scale: str,
    workdir: str,
    reference: Optional[Dict[str, str]],
    recorder: Optional[SpanRecorder] = None,
) -> Outcome:
    """Measure one sweep workload; ``recorder`` turns spans on."""
    from repro.errors import SweepExecutionError

    out = Outcome()
    spec = make_spec(workload, seed, scale)
    setup_s = median_setup(
        [sys.executable, os.path.join(HERE, "setup_probe.py"),
         os.path.join(workdir, "setup-probe.jsonl")],
        src_env(os.path.join(root, "src")),
        SETUP_SAMPLES,
    )
    # Warm-up: lazy imports and registry set-up happen here, untimed.
    make_spec(workload, seed, "smoke").run(executor="serial")
    uninstall, absent = (
        install(recorder) if recorder is not None else (lambda: None, [])
    )
    cell_s: List[float] = []
    experiment_s: List[float] = []
    first_event_s: List[float] = []
    computed: List[dict] = []
    first_digests: Dict[str, str] = {}
    store_bytes = 0
    store_records = 0
    try:
        sweep = 0
        while True:
            store_path = os.path.join(workdir, f"{workload}-{sweep}.jsonl")
            observer = _SweepObserver(recorder, sweep)
            try:
                spec.run(executor="serial", store=store_path, on_event=observer)
            except SweepExecutionError:
                pass  # failed cells are counted from their outcome events
            experiment_s.append(time.perf_counter() - observer.started_at)
            first_event_s.append(observer.first_outcome or experiment_s[-1])
            cell_s.extend(observer.cell_s)
            _check_sweep(out, observer.outcomes, computed, first_digests, reference)
            if os.path.exists(store_path):  # absent when every cell failed
                store_bytes += os.path.getsize(store_path)
                store_records += sum(1 for item in observer.outcomes if item["ok"])
                os.remove(store_path)
            sweep += 1
            if sum(experiment_s) >= seconds:
                break
    finally:
        uninstall()

    measured = sum(experiment_s)
    delivered = len(cell_s)
    out.metrics = {
        "cells_per_s": (delivered / measured, "1/s"),
        "cell_s_p50": (p50(cell_s), "s"),
        "cell_s_p90": (p90(cell_s), "s"),
        "experiment_s_p50": (p50(experiment_s), "s"),
        "experiment_s_p90": (p90(experiment_s), "s"),
        "first_event_s_p50": (p50(first_event_s), "s"),
        "peak_rss_mb": (vm_hwm_mb(), "MiB"),
        "setup_s": (setup_s, "s"),
    }
    out.notes.append(
        f"samples: cell_s n={delivered}, experiment_s n={len(experiment_s)} "
        f"({sweep} sweeps of {delivered // max(sweep, 1)} cells), "
        f"first_event_s n={len(first_event_s)}, setup_s n={SETUP_SAMPLES}"
    )
    out.digests = first_digests
    if recorder is not None:
        out.layers = per_layer_metrics(recorder.spans, delivered, computed)
        out.layers["results.bytes_per_record"] = (
            store_bytes / max(store_records, 1), "B"
        )
        out.layers["perfbench.traced_cells_per_s"] = (delivered / measured, "1/s")
        out.notes.append(
            format_table(workload, layer_times(recorder.spans), delivered, absent)
        )
    return out


def _check_sweep(
    out: Outcome,
    outcomes: List[dict],
    computed: List[dict],
    first_digests: Dict[str, str],
    reference: Optional[Dict[str, str]],
) -> None:
    """Count and check one sweep's outcomes, failing each wrong cell once.

    A cell is wrong when it failed (a non-serializable history raises in
    the runner), was served from the fresh store, differs from the same
    cell of the run's first sweep, or differs from the reference digest.
    """
    for payload in outcomes:
        out.attempted += 1
        cell = payload["cell"]
        key = cell_key(cell["protocol"], cell["arrival_rate"])
        if not payload["ok"]:
            error = payload.get("error") or {}
            out.fail(f"{key}: {error.get('type')}: {error.get('message')}")
            continue
        digest = summary_digest(payload["summary"])
        if payload["cached"]:
            out.fail(f"{key}: served from a store that should be fresh")
        elif first_digests.setdefault(key, digest) != digest:
            out.fail(f"{key}: summary differs from the run's first sweep")
        elif reference is not None and reference.get(key) != digest:
            out.fail(f"{key}: summary does not match the reference digest")
        computed.append(payload)
