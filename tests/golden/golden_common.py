"""Shared machinery for the golden determinism reference.

The golden payload runs two registered scenarios (the paper baseline and
the adversarial flash-sale hotspot) through the full protocol roster at a
reduced-but-meaningful scale and serializes every :class:`RunSummary`
field with full float precision.  JSON round-trips Python floats exactly
(shortest-repr), so equality against the committed reference is
*bit-identical* equality of every metric.
"""

from __future__ import annotations

import dataclasses
import os

from repro.experiments.runner import run_sweep
from repro.workloads.scenarios import get_scenario

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_reference.json")

#: Scenarios covered by the golden gate: the CI-gated paper baseline and
#: the high-contention hotspot scenario (exercises heavy speculation,
#: restarts, and the deferral machinery under skewed access).
SCENARIOS = ("paper-baseline", "flash-sale-hotspot")

#: Reduced-scale sweep knobs.  Chosen so the whole payload computes in a
#: few seconds while still driving thousands of events per protocol
#: through every hot path (forking, blocking, replacement, commit).
NUM_TRANSACTIONS = 240
WARMUP_COMMITS = 24
REPLICATIONS = 1
ARRIVAL_RATES = (60.0, 140.0)


def golden_protocols() -> dict:
    """The protocol roster the golden gate sweeps.

    Covers every concurrency-control family in the library: two-shadow
    speculation (SCC-2S), value-cognizant deferred speculation (SCC-VW,
    at its registry-default period), optimistic broadcast commit
    (OCC-BC), wait-controlled OCC (WAIT-50), and locking with priority
    abort (2PL-PA).  Entries are registry spec strings with the
    reference's historical labels, so result keys stay stable.
    """
    return {
        "SCC-2S": "scc-2s",
        "SCC-VW": "scc-vw",
        "OCC-BC": "occ-bc",
        "WAIT-50": "wait-50",
        "2PL-PA": "2pl-pa",
    }


def compute_golden_payload(trace=None) -> dict:
    """Run the golden sweeps and return the JSON-serializable payload.

    Parameters
    ----------
    trace : str or os.PathLike, optional
        JSONL trace-file path; when given, the sweeps run fully traced.
        The payload must be identical regardless — tracing draws no
        randomness and perturbs no event order, and the telemetry
        regression test holds the gate on exactly that.
    """
    scenarios_out = {}
    for name in SCENARIOS:
        scenario = get_scenario(name)
        config = scenario.to_config(
            num_transactions=NUM_TRANSACTIONS,
            warmup_commits=WARMUP_COMMITS,
            replications=REPLICATIONS,
            arrival_rates=ARRIVAL_RATES,
        )
        results = run_sweep(golden_protocols(), config, trace=trace)
        summaries = {
            protocol: [
                [dataclasses.asdict(summary) for summary in per_rate]
                for per_rate in sweep.replications
            ]
            for protocol, sweep in results.items()
        }
        scenarios_out[name] = {
            "arrival_rates": list(ARRIVAL_RATES),
            "summaries": summaries,
        }
    return {
        "schema": 1,
        "scale": {
            "num_transactions": NUM_TRANSACTIONS,
            "warmup_commits": WARMUP_COMMITS,
            "replications": REPLICATIONS,
            "arrival_rates": list(ARRIVAL_RATES),
        },
        "scenarios": scenarios_out,
    }
