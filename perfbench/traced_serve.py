"""Run ``repro serve`` with the benchmark's spans installed.

Usage: ``python3 perfbench/traced_serve.py SPANS_PATH serve [serve args]``
with ``src`` on ``PYTHONPATH``.  Wraps the same callables as the sweep
workloads, plus the gateway's per-cell ``_execute_cell`` as the cell root,
and writes every span, with the names of targets that were absent, to
``SPANS_PATH`` once the server has drained.
"""

import sys

from spans import GATEWAY_CELL_TARGET, TARGETS, SpanRecorder, install


def main() -> int:
    from repro.experiments.cli import main as cli_main

    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    _, absent = install(recorder, TARGETS + (GATEWAY_CELL_TARGET,))
    try:
        return cli_main(argv)
    finally:
        recorder.dump(spans_path, absent)


if __name__ == "__main__":
    raise SystemExit(main())
