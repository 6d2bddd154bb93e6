"""Time the sweep set-up: import ``repro`` and open a fresh run store.

Usage: ``python3 perfbench/setup_probe.py STORE_PATH`` with ``src`` on
``PYTHONPATH``.  Prints the seconds taken, from before the first
``repro`` import until the store is open.
"""

import os
import sys
import time


def main() -> None:
    started = time.perf_counter()
    import repro  # noqa: F401
    from repro.experiments.spec import ExperimentSpec  # noqa: F401
    from repro.results.backends import open_store

    store = open_store(sys.argv[1])
    elapsed = time.perf_counter() - started
    store.close()
    if os.path.exists(sys.argv[1]):
        os.remove(sys.argv[1])
    print(repr(elapsed))


if __name__ == "__main__":
    main()
