"""Replay gateway cells on the serial path and print their summary digests.

Usage: ``python3 perfbench/replay.py JOBS_PATH`` with ``src`` on
``PYTHONPATH``.  ``JOBS_PATH`` holds a JSON list of
``[protocol, rate, seed, scale]`` jobs; the output is one JSON list of
summary digests, in job order.
"""

import json
import sys

from common import gateway_spec, summary_digest


def replay(protocol: str, rate: float, seed: int, scale: str) -> str:
    """Digest of one cell's summary from ``ExperimentSpec.run``."""
    spec = gateway_spec([protocol], [rate], seed, scale)
    (result,) = spec.run(executor="serial").values()
    return summary_digest(result.replications[0][0].to_dict())


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        jobs = json.load(handle)
    print(json.dumps([replay(*job) for job in jobs]))


if __name__ == "__main__":
    main()
