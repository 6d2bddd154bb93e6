"""The repository benchmark: default-path sweeps and the gateway.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-paper --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

One run measures one workload for ``--seconds`` seconds, checks every
output, prints each metric by name with its unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` records spans and reports
the per-layer metrics plus a per-layer self-time table.  Without
``--workload`` (or with ``all``) every workload runs untraced and then
traced, and the tracing overhead is printed.  The exit code is 0 only
when every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

WORKLOADS = ("sweep-paper", "sweep-hotspot", "gateway-mixed")

#: End-to-end metric -> unit (reported with ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_s_p50": "s",
    "cell_s_p90": "s",
    "experiment_s_p50": "s",
    "experiment_s_p90": "s",
    "first_event_s_p50": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metric -> unit (reported with ``--trace 1``).  A layer a
#: workload does not exercise (``gateway.*`` on the sweeps) reads 0.
PER_LAYER = {
    "workloads.build_s": "s",
    "system.load_s": "s",
    "system.run_s": "s",
    "engine.events_fired": "count",
    "system.run_us_per_event": "us",
    "core.shadow_forks": "count",
    "core.peak_live_shadows": "count",
    "protocols.restarts": "count",
    "protocols.useful_work_ratio": "ratio",
    "analysis.serializability_s": "s",
    "analysis.serializability_share": "ratio",
    "metrics.summary_s": "s",
    "telemetry.run_telemetry_s": "s",
    "experiments.self_s": "s",
    "results.fingerprint_s": "s",
    "results.store_get_s": "s",
    "results.store_append_s": "s",
    "results.bytes_per_record": "B",
    "gateway.submit_s": "s",
    "gateway.stream_lag_s": "s",
    "gateway.queue_wait_s": "s",
    "gateway.exec_s": "s",
    "gateway.post_run_s": "s",
    "gateway.worker_utilization": "ratio",
    "gateway.dedup_hit_ratio": "ratio",
    "gateway.rejected": "count",
    "perfbench.traced_cells_per_s": "1/s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", default="full", choices=("full", "smoke"),
        help="smoke: tiny cells, for the benchmark's own smoke test",
    )
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record the sweep digests of --seed 0 at --scale into the "
             "reference file (after a deliberate change to the simulation)",
    )
    return parser.parse_args(argv)


def run_workload(args, workload: str, traced: bool, workdir: str):
    """Measure one workload once; returns its :class:`common.Outcome`."""
    import gateway_load
    import sweeps
    from common import DEFAULT_SEED, load_reference
    from spans import SpanRecorder

    os.makedirs(workdir, exist_ok=True)
    if workload == "gateway-mixed":
        out = gateway_load.run(ROOT, args.seed, args.seconds, args.scale, workdir, traced)
    else:
        reference = None
        if args.seed == DEFAULT_SEED and not args.write_reference:
            stored = load_reference()
            reference = stored.get(args.scale, {}).get(workload, {})
        out = sweeps.run(
            ROOT, workload, args.seed, args.seconds, args.scale, workdir,
            reference, SpanRecorder() if traced else None,
        )
    if traced:
        out.unexercised = [name for name in PER_LAYER if name not in out.layers]
        for name in out.unexercised:
            out.layers[name] = (0.0, PER_LAYER[name])
    return out


def report(workload: str, out, traced: bool) -> dict:
    """Print one workload's notes and metrics; return its JSON result."""
    names = PER_LAYER if traced else END_TO_END
    values = out.layers if traced else out.metrics
    metrics = {name: {"value": values[name][0], "unit": values[name][1]} for name in names}
    print(f"== {workload} ({'traced' if traced else 'untraced'})")
    for note in out.notes:
        print(note)
    for name, entry in metrics.items():
        if name in out.unexercised:
            print(f"  {name:<32}{'-':>16} (not exercised; reported as 0)")
        else:
            print(f"  {name:<32}{entry['value']:>16.6g} {entry['unit']}")
    error_rate = out.failed / max(out.attempted, 1)
    print(f"  error_rate {error_rate:.4g} ({out.failed} failed of {out.attempted} attempted)")
    for error in out.errors:
        print(f"  check failed: {error}")
    return {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }


def write_reference(args, workdir: str) -> int:
    """Record the default seed's sweep digests into the reference file."""
    from common import DEFAULT_SEED, REFERENCE_PATH, load_reference

    if args.seed != DEFAULT_SEED:
        print(f"--write-reference records --seed {DEFAULT_SEED} only", file=sys.stderr)
        return 2
    stored = load_reference() if os.path.exists(REFERENCE_PATH) else {}
    args.seconds = 0.0  # one sweep each
    for workload in WORKLOADS[:2]:
        out = run_workload(args, workload, False, os.path.join(workdir, workload))
        if out.failed:
            print(f"{workload}: {out.errors}", file=sys.stderr)
            return 1
        stored.setdefault(args.scale, {})[workload] = out.digests
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    try:
        if args.write_reference:
            return write_reference(args, workdir)
        if args.workload != "all":
            out = run_workload(args, args.workload, bool(args.trace), workdir)
            result = report(args.workload, out, bool(args.trace))
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        results = {}
        for traced in (False, True):
            for workload in WORKLOADS:
                out = run_workload(
                    args, workload, traced,
                    os.path.join(workdir, f"{workload}-{int(traced)}"),
                )
                results[(workload, traced)] = report(workload, out, traced)
        for workload in WORKLOADS:
            untraced = results[(workload, False)]["metrics"]["cells_per_s"]["value"]
            traced = results[(workload, True)]["metrics"]["perfbench.traced_cells_per_s"]["value"]
            print(
                f"tracing overhead {workload}: traced - untraced cells_per_s = "
                f"{traced - untraced:+.4f} 1/s ({traced:.4f} vs {untraced:.4f})"
            )
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}{'.traced' if traced else ''}.{name}": entry
                for (workload, traced), r in results.items()
                for name, entry in r["metrics"].items()
            },
        }
        print(json.dumps(combined))
        return 0 if combined["correct"] else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
