"""Benchmark regression gate: diff BENCH_results.json against a baseline.

CI's bench-smoke job runs the benchmark suite (which emits
``BENCH_results.json`` via ``benchmarks/conftest.py``) and then runs this
script against the checked-in ``BENCH_baseline.json``.  A benchmark whose
mean wall-clock exceeds ``baseline * threshold`` fails the gate.

Usage::

    python scripts/check_bench_regression.py \
        [--baseline BENCH_baseline.json] [--current BENCH_results.json] \
        [--threshold 1.25] [--update]

``--update`` rewrites the baseline from the current results instead of
checking (used when intentionally re-baselining after a perf-relevant
change; commit the refreshed file).  The threshold can also be set via the
``BENCH_REGRESSION_THRESHOLD`` env var — CI uses the default 1.25, i.e.
fail on a >25% regression.

Exit codes: 0 OK, 1 regression detected, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys


def load(path: str) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    if "benchmarks" not in payload:
        print(f"error: {path} has no 'benchmarks' key", file=sys.stderr)
        raise SystemExit(2)
    return payload


def compare(
    baseline: dict,
    current: dict,
    threshold: float,
    allow_missing: bool = False,
) -> int:
    base_benchmarks = baseline["benchmarks"]
    curr_benchmarks = current["benchmarks"]
    shared = sorted(set(base_benchmarks) & set(curr_benchmarks))
    new = sorted(set(curr_benchmarks) - set(base_benchmarks))
    gone = sorted(set(base_benchmarks) - set(curr_benchmarks))

    regressions = []
    width = max((len(name) for name in shared), default=0)
    print(f"benchmark regression gate (threshold {threshold:.2f}x)")
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}  ratio")
    for name in shared:
        base_mean = base_benchmarks[name]["mean_s"]
        curr_mean = curr_benchmarks[name]["mean_s"]
        ratio = curr_mean / base_mean if base_mean > 0 else float("inf")
        flag = "  ** REGRESSION **" if ratio > threshold else ""
        print(
            f"{name:<{width}}  {base_mean:>9.3f}s  {curr_mean:>9.3f}s  "
            f"{ratio:>5.2f}x{flag}"
        )
        if ratio > threshold:
            regressions.append((name, ratio))

    for name in new:
        print(f"note: {name} has no baseline entry (new benchmark?)")
    for name in gone:
        print(f"note: {name} is in the baseline but was not run")

    if not shared:
        print("error: no benchmarks in common with the baseline")
        return 1
    if gone and not allow_missing:
        # A dropped benchmark silently weakens the gate: a regression can
        # hide behind a renamed/uncollected file.  Fail unless the caller
        # explicitly opted out (or re-baseline with --update).
        print(
            f"\nFAIL: {len(gone)} baseline benchmark(s) were not run; "
            "pass --allow-missing if intentional, or re-baseline with --update"
        )
        return 1
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} benchmark(s) regressed beyond "
            f"{threshold:.2f}x:"
        )
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x")
        print(
            "If intentional, re-baseline with "
            "'python scripts/check_bench_regression.py --update' and commit."
        )
        return 1
    print(f"\nOK: {len(shared)} benchmark(s) within {threshold:.2f}x of baseline")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_baseline.json")
    parser.add_argument("--current", default="BENCH_results.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("BENCH_REGRESSION_THRESHOLD", "1.25")),
        help="fail when current mean > baseline mean * threshold",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="overwrite the baseline with the current results and exit",
    )
    parser.add_argument(
        "--allow-missing", action="store_true",
        help="tolerate baseline benchmarks that were not run (default: fail)",
    )
    args = parser.parse_args(argv)

    if args.threshold <= 0:
        parser.error("--threshold must be positive")
    if args.update:
        load(args.current)  # validate before clobbering the baseline
        shutil.copyfile(args.current, args.baseline)
        print(f"baseline updated: {args.current} -> {args.baseline}")
        return 0
    return compare(
        load(args.baseline), load(args.current), args.threshold,
        allow_missing=args.allow_missing,
    )


if __name__ == "__main__":
    sys.exit(main())
