"""CI smoke check: the telemetry subsystem end to end.

Three passes over a reduced paper-baseline grid:

1. **Trace determinism and neutrality** — for every registered protocol
   family, the same cell traced twice with in-memory tracers must produce
   *identical* typed event streams (kinds, times, lanes, payloads), and
   the traced summary must equal the untraced one.
2. **Trace-file integrity** — a traced ``run_sweep`` must leave a JSONL
   file where every line parses as either a ``cell_start`` marker or a
   schema-valid :class:`~repro.telemetry.events.TraceEvent`, with one
   marker per sweep cell and lanes restarting at 0 in each cell.
3. **Stored telemetry** — run records persisted by the sweep must carry a
   well-formed ``telemetry`` block (counter/gauge snapshot + wall-clock).

Usage::

    python scripts/telemetry_smoke.py [--transactions 200] [--rates 60,140]

Exit codes: 0 all passes clean, 1 any failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments.runner import run_instrumented, run_once, run_sweep
from repro.protocols.registry import available_protocols, protocol_spec
from repro.results import RunStore
from repro.telemetry.events import TraceEvent, is_marker, iter_trace
from repro.telemetry.tracer import MemoryTracer
from repro.workloads.scenarios import get_scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transactions", type=int, default=200)
    parser.add_argument("--rates", default="60,140")
    parser.add_argument("--seed", type=int, default=90_1995)
    args = parser.parse_args(argv)

    rates = tuple(float(r) for r in args.rates.split(",") if r.strip())
    scale = dict(
        num_transactions=args.transactions,
        warmup_commits=min(200, args.transactions // 10),
        replications=1,
        arrival_rates=rates,
        seed=args.seed,
        check_serializability=False,
    )
    config = get_scenario("paper-baseline").to_config(**scale)
    failures: list[str] = []

    # Pass 1: per-protocol trace determinism and tracing neutrality.
    t0 = time.perf_counter()
    for name in available_protocols():
        factory = protocol_spec(name)
        streams, summaries = [], []
        for _ in range(2):
            tracer = MemoryTracer()
            summary, _ = run_instrumented(
                factory, config, arrival_rate=rates[-1], tracer=tracer,
            )
            streams.append(tracer.dicts())
            summaries.append(dataclasses.asdict(summary))
        if not streams[0]:
            failures.append(f"{name}: empty trace stream (vacuous check)")
        elif streams[0] != streams[1]:
            diffs = [
                (first, second)
                for first, second in zip(*streams)
                if first != second
            ]
            failures.append(
                f"{name}: {len(diffs)} trace event(s) differ between two "
                f"traced runs (first: "
                f"{diffs[0] if diffs else 'length mismatch'})"
            )
        untraced = dataclasses.asdict(
            run_once(factory, config, arrival_rate=rates[-1])
        )
        if summaries[0] != untraced:
            failures.append(f"{name}: traced summary != untraced summary")
    print(
        f"pass 1: {len(available_protocols())} protocols traced twice and "
        f"diffed against untraced runs in {time.perf_counter() - t0:.1f}s"
    )

    # Passes 2+3: a traced, stored sweep; validate the file and the records.
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "smoke.jsonl"
        store_path = Path(tmp) / "runs.jsonl"
        run_sweep(
            {"SCC-2S": "scc-2s"}, config,
            trace=trace_path, store=store_path,
        )

        markers, events, lane_floors, current = 0, 0, [], []
        for payload in iter_trace(trace_path):
            if is_marker(payload):
                if payload.get("marker") != "cell_start":
                    failures.append(f"unexpected marker: {payload}")
                if current:
                    lane_floors.append(min(current))
                current = []
                markers += 1
            else:
                TraceEvent.from_dict(payload)  # raises on schema drift
                events += 1
                if payload["lane"] is not None:
                    current.append(payload["lane"])
        if current:
            lane_floors.append(min(current))
        if markers != len(rates):
            failures.append(
                f"expected {len(rates)} cell_start markers, got {markers}"
            )
        if events == 0:
            failures.append("trace file holds no events")
        if lane_floors != [0] * len(lane_floors):
            failures.append(f"lanes do not restart per cell: {lane_floors}")
        print(f"pass 2: {events} trace events across {markers} cells validated")

        records = RunStore(store_path).records()
        for record in records:
            telemetry = record.telemetry
            if not telemetry or telemetry.get("schema") != 1:
                failures.append(
                    f"record {record.fingerprint[:12]}: bad telemetry block"
                )
                continue
            counters = telemetry["counters"]
            if counters["commits"] <= 0 or telemetry["wall_clock"] <= 0:
                failures.append(
                    f"record {record.fingerprint[:12]}: implausible "
                    f"telemetry {telemetry}"
                )
        print(f"pass 3: {len(records)} stored records carry telemetry")

    if failures:
        print(f"FAIL: {len(failures)} telemetry failure(s):")
        for line in failures[:20]:
            print(f"  {line}")
        return 1
    print("OK: traces deterministic, files schema-valid, records telemetered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
