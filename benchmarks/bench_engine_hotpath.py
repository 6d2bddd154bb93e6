"""Engine hot-path microbenchmarks.

Unlike the figure benchmarks (which time whole experiment sweeps), these
isolate the layers every sweep cell pays for on *every simulated page
access*:

* ``test_event_loop_throughput`` — the bare simulator: schedule/fire a
  large batch of self-rescheduling no-op events.  Measures queue
  discipline (the tuple-keyed heap) with no protocol on top.
* ``test_scc_step_loop_throughput`` — one in-process SCC-2S run at a
  contended (but pre-saturation) arrival rate.  Measures the full
  per-access stack: step loop, conflict detection against the access
  index, shadow fork/block/promote, and commit processing.
* ``test_workload_generation_throughput`` — building one sweep cell's
  workload with the per-transaction generator loop.
* ``test_arrival_load_throughput`` — loading a sorted workload into the
  simulator with per-spec ``schedule_at`` heap pushes.

Benchmarks report ``events_per_sec`` (where events are meaningful) in
``extra_info``.  The regression gate (`scripts/check_bench_regression.py`)
tracks wall clock like every other entry.  See benchmarks/README.md for
how to read the output and when re-baselining is legitimate.
"""

import gc

from repro.core.scc_2s import SCC2S
from repro.engine.rng import RandomStreams
from repro.engine.simulator import Simulator
from repro.experiments.config import baseline_config
from repro.metrics.stats import MetricsCollector
from repro.system.model import RTDBSystem
from repro.workloads.generator import build_generator

# Enough events to dominate interpreter warmup noise while keeping the
# benchmark under a second on developer hardware.
EVENT_BATCH = 200_000
SCC_TRANSACTIONS = 400
# Contended low-mid range of the fig13 sweep: ~30% of transactions fork
# speculative shadows here (122 forks / 400 txns, peak 14 live shadows).
# Near the saturation knee (150) the run's time shifts into shadow
# fork/replacement, while this entry exists to isolate the per-access
# stack (step loop, conflict probes, commit sweep).
SCC_ARRIVAL_RATE = 50.0
WORKLOAD_TRANSACTIONS = 12_000
WORKLOAD_ARRIVAL_RATE = 120.0
ARRIVAL_BATCH = 200_000


def _record_events(benchmark, events: int) -> None:
    seconds = benchmark.stats.stats.min
    benchmark.extra_info["events_fired"] = events
    benchmark.extra_info["events_per_sec"] = round(events / seconds)


# ----------------------------------------------------------------------
# bare event loop
# ----------------------------------------------------------------------


def _drive_event_loop(num_events: int) -> int:
    sim = Simulator()
    remaining = [num_events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(0.001, tick)

    # Seed a small fan so the heap holds a realistic mix of times.
    for i in range(100):
        sim.schedule(0.001 * (i + 1), tick)
    sim.run()
    return sim.events_fired


def test_event_loop_throughput(benchmark):
    fired = benchmark.pedantic(
        lambda: _drive_event_loop(EVENT_BATCH),
        rounds=5, iterations=1, warmup_rounds=1
    )
    assert fired >= EVENT_BATCH
    _record_events(benchmark, fired)


# ----------------------------------------------------------------------
# full SCC cell (workload + run)
# ----------------------------------------------------------------------


def _run_scc_cell() -> RTDBSystem:
    config = baseline_config(
        num_transactions=SCC_TRANSACTIONS,
        warmup_commits=40,
        replications=1,
        arrival_rates=(SCC_ARRIVAL_RATE,),
        check_serializability=False,
    )
    system = RTDBSystem(
        protocol=SCC2S(),
        num_pages=config.num_pages,
        metrics=MetricsCollector(warmup_commits=config.warmup_commits),
        record_history=False,
    )
    streams = RandomStreams(config.seed)
    generator = build_generator(config, SCC_ARRIVAL_RATE, streams)
    system.load_workload(generator.generate(config.num_transactions))
    system.run()
    return system


# The SCC cell quiesces the collector for the timed region (collect,
# then disable): a gen-2 pass landing mid-round scans the whole test
# process heap and can inflate a round by tens of percent.  The cell
# allocates bounded, mostly short-lived garbage, so disabling collection
# for a ~100ms run is safe.


def _gc_off():
    gc.collect()
    gc.disable()
    return (), {}


def test_scc_step_loop_throughput(benchmark):
    try:
        system = benchmark.pedantic(
            _run_scc_cell,
            setup=_gc_off, rounds=5, iterations=1, warmup_rounds=1,
        )
    finally:
        gc.enable()
    # Every transaction must have committed (soft deadlines), or the run
    # measured a broken simulation rather than the hot path.
    assert system.committed_count == SCC_TRANSACTIONS
    _record_events(benchmark, system.sim.events_fired)
    benchmark.extra_info["restarts"] = system.metrics.restarts


# ----------------------------------------------------------------------
# one sweep cell's workload construction
# ----------------------------------------------------------------------


def test_workload_generation_throughput(benchmark):
    config = baseline_config(
        num_transactions=WORKLOAD_TRANSACTIONS,
        warmup_commits=40,
        replications=1,
        arrival_rates=(WORKLOAD_ARRIVAL_RATE,),
        check_serializability=False,
    )

    def generate():
        streams = RandomStreams(config.seed).spawn(0)
        generator = build_generator(config, WORKLOAD_ARRIVAL_RATE, streams)
        return list(generator.generate(config.num_transactions))

    specs = benchmark.pedantic(generate, rounds=7, iterations=1, warmup_rounds=1)
    assert len(specs) == WORKLOAD_TRANSACTIONS
    benchmark.extra_info["transactions"] = len(specs)


# ----------------------------------------------------------------------
# loading a sorted workload into the simulator
# ----------------------------------------------------------------------


def _noop(index: int) -> None:
    pass


def test_arrival_load_throughput(benchmark):
    times = [0.001 * (i + 1) for i in range(ARRIVAL_BATCH)]

    def load() -> Simulator:
        sim = Simulator()
        schedule_at = sim.schedule_at
        for i, t in enumerate(times):
            schedule_at(t, _noop, i)
        return sim

    sim = benchmark.pedantic(load, rounds=5, iterations=1, warmup_rounds=1)
    assert sim.pending_events == ARRIVAL_BATCH
    benchmark.extra_info["entries"] = ARRIVAL_BATCH
