"""Shared benchmark configuration.

Benchmarks run *reduced-scale* versions of the paper's experiments (fewer
transactions, fewer arrival-rate points, one replication) so the whole
harness completes in minutes; the full-scale runs behind EXPERIMENTS.md go
through ``scc-experiments`` (see README).  Each benchmark prints the same
series its paper figure plots and asserts the figure's qualitative shape
(who wins, where the crossover falls).

Scale and execution knobs (all env vars, used by the CI bench-smoke job):

* ``REPRO_BENCH_TXNS`` / ``REPRO_BENCH_WARMUP`` — per-run transaction and
  warmup counts (defaults 600 / 60).
* ``REPRO_BENCH_RATES`` — comma-separated arrival rates.
* ``REPRO_BENCH_EXECUTOR`` / ``REPRO_BENCH_WORKERS`` — sweep executor
  (``serial``/``process``) and worker count for the sweep-shaped benches.
* ``REPRO_BENCH_JSON`` — where to write the machine-readable results
  (default ``BENCH_results.json`` in the rootdir; empty string disables).

Every run emits that JSON file — mean/min/max wall-clock per benchmark plus
any ``benchmark.extra_info`` — so the performance trajectory is tracked
from commit to commit; CI diffs it against the checked-in
``BENCH_baseline.json`` via ``scripts/check_bench_regression.py``.
"""

from __future__ import annotations

import os
import platform
import time

import pytest

from repro.experiments.config import baseline_config, two_class_config
from repro.experiments.parallel import make_executor
from repro.results import write_json_atomic

# Reduced-scale sweep: the low-contention anchor (40), the paper's "all
# protocols healthy" point (70), and the high-contention knee (150).
BENCH_RATES = tuple(
    float(rate)
    for rate in os.environ.get("REPRO_BENCH_RATES", "40,70,150").split(",")
    if rate.strip()
)
BENCH_TXNS = int(os.environ.get("REPRO_BENCH_TXNS", "600"))
BENCH_WARMUP = int(os.environ.get("REPRO_BENCH_WARMUP", "60"))


@pytest.fixture(scope="session")
def bench_config():
    """One-class baseline model at benchmark scale."""
    return baseline_config(
        num_transactions=BENCH_TXNS,
        warmup_commits=BENCH_WARMUP,
        replications=1,
        arrival_rates=BENCH_RATES,
        check_serializability=False,  # timed in perfbench (analysis.serializability_s)
    )


@pytest.fixture(scope="session")
def bench_two_class_config():
    """Two-class (Figure 14(b)) model at benchmark scale."""
    return two_class_config(
        num_transactions=BENCH_TXNS,
        warmup_commits=BENCH_WARMUP,
        replications=1,
        arrival_rates=BENCH_RATES,
        check_serializability=False,
    )


@pytest.fixture(scope="session")
def bench_executor():
    """The sweep executor benchmarks route their grids through.

    Defaults to serial so timings stay comparable with the checked-in
    baseline; CI's scaling job sets ``REPRO_BENCH_EXECUTOR=process``.
    """
    name = os.environ.get("REPRO_BENCH_EXECUTOR", "serial")
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0")) or None
    return make_executor(name, workers=workers)


# ----------------------------------------------------------------------
# machine-readable results (BENCH_*.json)
# ----------------------------------------------------------------------


def _stats_record(bench) -> dict:
    stats = bench.stats  # pytest-benchmark Metadata.stats is a Stats
    return {
        "mean_s": stats.mean,
        "min_s": stats.min,
        "max_s": stats.max,
        "stddev_s": stats.stddev,
        "rounds": stats.rounds,
        "extra_info": dict(bench.extra_info),
    }


def pytest_sessionfinish(session, exitstatus):
    """Dump per-benchmark wall-clock stats as JSON after every bench run."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    target = os.environ.get("REPRO_BENCH_JSON", "BENCH_results.json")
    if not target:
        return
    if not os.path.isabs(target):
        target = os.path.join(str(session.config.rootpath), target)
    records = {}
    for bench in bench_session.benchmarks:
        try:
            records[bench.fullname] = _stats_record(bench)
        except AttributeError:  # benchmark errored before producing stats
            continue
    payload = {
        "schema": 1,
        "created_unix": time.time(),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "scale": {
            "transactions": BENCH_TXNS,
            "warmup": BENCH_WARMUP,
            "rates": list(BENCH_RATES),
            "executor": os.environ.get("REPRO_BENCH_EXECUTOR", "serial"),
            "workers": os.environ.get("REPRO_BENCH_WORKERS", ""),
        },
        "benchmarks": records,
    }
    # Atomic replace via the results layer: a crashed/killed bench run can
    # never leave a half-written JSON for the regression gate to choke on.
    write_json_atomic(target, payload)
    print(f"\nbenchmark results written to {target}")
