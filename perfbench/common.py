"""Shared helpers: scales, seeds, statistics, memory and output checks."""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: The seed the reference digests were recorded for.
DEFAULT_SEED = 0
#: ``--seed n`` maps to simulation seed ``SEED_BASE + n``, so the default
#: seed runs the paper's default ``ExperimentConfig.seed``.
SEED_BASE = 90_1995

#: Spec overrides per scale.  ``full`` keeps the default config
#: (4,000 transactions, warmup 200) on the sweeps; ``smoke`` is the tiny
#: scale the benchmark's own smoke test runs at.
SWEEP_SCALE: Dict[str, dict] = {
    "full": {},
    "smoke": {"num_transactions": 300, "warmup_commits": 30},
}
#: The gateway's small experiments.
GATEWAY_SCALE: Dict[str, dict] = {
    "full": {"num_transactions": 1000, "warmup_commits": 100},
    "smoke": {"num_transactions": 200, "warmup_commits": 20},
}
#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` and ``layers`` map a metric name to ``(value, unit)``;
    ``notes`` are human-readable lines (sample counts, the layer table);
    ``digests`` maps each sweep cell to its summary digest;
    ``unexercised`` names the per-layer metrics the workload never runs.
    """

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    unexercised: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Record one failed or wrong cell or submission."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def sim_seed(seed: int) -> int:
    """The simulation seed a benchmark ``--seed`` selects."""
    return SEED_BASE + seed


def gateway_spec(protocols: Sequence[str], rates: Sequence[float], seed: int, scale: str):
    """A small ``paper-baseline`` experiment as the gateway workload sends it."""
    from repro.experiments.spec import ExperimentSpec

    return ExperimentSpec.create(
        protocols, scenario="paper-baseline", arrival_rates=rates,
        replications=1, seed=sim_seed(seed), **GATEWAY_SCALE[scale],
    )


def p50(values: Sequence[float]) -> float:
    """Median (0.0 for no samples)."""
    return statistics.median(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    """Nearest-rank 90th percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for no samples)."""
    return sum(values) / len(values) if values else 0.0


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{'self' if pid is None else pid}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


def summary_digest(summary: dict) -> str:
    """sha256 of a run summary's canonical JSON form."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_key(protocol: str, rate: float) -> str:
    """Stable name of one sweep cell, e.g. ``SCC-2S@150``."""
    return f"{protocol}@{rate:g}"


def load_reference() -> dict:
    """The stored digests: ``{scale: {workload: {cell key: digest}}}``."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def median_setup(command: List[str], env: dict, samples: int) -> float:
    """Median of ``samples`` set-up probes; each prints its seconds last."""
    values = []
    for _ in range(samples):
        done = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=120,
            check=True,
        )
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


def src_env(src: str) -> dict:
    """The environment for a child process importing ``repro`` from ``src``."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


