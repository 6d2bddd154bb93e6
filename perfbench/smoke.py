"""The benchmark's own smoke test, at tiny scale.

Run from the repository root with either::

    python3 perfbench/smoke.py
    python3 -m pytest perfbench/smoke.py -q

It checks that every workload emits every metric named in
``BENCHMARK.json`` with its unit, traced and untraced; that the output
check fails on a tampered reference digest; that a missing callable is
reported as absent, also across the traced server's span file; and that
the self-time reducer subtracts children.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from spans import (  # noqa: E402
    Span, SpanRecorder, format_table, install, load_spans, self_times,
)


def _bench(*args: str) -> "tuple[int, dict]":
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "smoke",
         "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
    return done.returncode, json.loads(last)


def test_benchmark_json_names_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_every_metric_is_emitted_with_its_unit():
    for workload in WORKLOADS:
        for trace, names in (("0", END_TO_END), ("1", PER_LAYER)):
            code, result = _bench("--workload", workload, "--trace", trace)
            assert code == 0, (workload, trace, result)
            assert result["correct"] is True, (workload, trace)
            assert result["attempted"] >= 1 and result["failed"] == 0
            assert set(result["metrics"]) == set(names), (workload, trace)
            for name, unit in names.items():
                entry = result["metrics"][name]
                assert entry["unit"] == unit, (workload, name)
                assert isinstance(entry["value"], float), (workload, name)


def test_tampered_reference_digest_fails_the_check():
    import sweeps
    from common import load_reference

    cells = load_reference()["smoke"]["sweep-paper"]
    tampered = {**cells, sorted(cells)[0]: "0" * 64}
    workdir = os.path.join(ROOT, ".perfbench_work", f"smoke-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        out = sweeps.run(ROOT, "sweep-paper", 0, 0.0, "smoke", workdir, tampered)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    assert out.failed >= 1
    assert any("reference digest" in error for error in out.errors), out.errors


def test_missing_callable_is_reported_absent():
    recorder = SpanRecorder()
    uninstall, absent = install(
        recorder,
        [("gone", "repro.experiments.runner", "no_such_function"),
         ("gone", "repro.no_such_module", "anything")],
    )
    uninstall()
    assert absent == [
        "repro.experiments.runner.no_such_function",
        "repro.no_such_module.anything",
    ]


def test_absent_names_survive_the_span_file():
    workdir = os.path.join(ROOT, ".perfbench_work", f"smoke-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        recorder = SpanRecorder()
        recorder.close(recorder.open("cell", cell="c"))
        path = os.path.join(workdir, "spans.json")
        recorder.dump(path, ["repro.gateway.app.gone"])
        spans, absent = load_spans(path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    assert [span.name for span in spans] == ["cell"]
    assert absent == ["repro.gateway.app.gone"]
    table = format_table("t", {"layer": 1.0}, 1, absent)
    assert "absent: repro.gateway.app.gone" in table


def test_self_time_subtracts_children():
    spans = [
        Span(id=1, name="cell", start=0.0, end=10.0, parent=None, cell="c"),
        Span(id=2, name="run", start=1.0, end=5.0, parent=1, cell="c"),
        Span(id=3, name="check", start=5.0, end=8.0, parent=1, cell="c"),
        Span(id=4, name="inner", start=2.0, end=3.0, parent=2, cell="c"),
    ]
    assert self_times(spans) == {"cell": 3.0, "run": 3.0, "check": 3.0, "inner": 1.0}


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print(f"ok {name}")
