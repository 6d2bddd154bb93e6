"""The public API surface: everything advertised imports and is documented."""

import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version():
    assert repro.__version__


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.analysis",
        "repro.core",
        "repro.db",
        "repro.engine",
        "repro.errors",
        "repro.experiments",
        "repro.experiments.spec",
        "repro.gateway",
        "repro.gateway.client",
        "repro.metrics",
        "repro.protocols",
        "repro.protocols.registry",
        "repro.results",
        "repro.system",
        "repro.telemetry",
        "repro.telemetry.events",
        "repro.telemetry.tracer",
        "repro.txn",
        "repro.values",
        "repro.workloads",
        "repro.workloads.scenarios",
    ],
)
def test_subpackages_import_and_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, module_name


def test_public_classes_have_docstrings():
    missing = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                missing.append(name)
    assert missing == []


def test_protocol_names_are_distinct():
    protocols = [
        repro.BasicOCC(),
        repro.OCCBroadcastCommit(),
        repro.SerialExecution(),
        repro.TwoPhaseLockingPA(),
        repro.Wait50(),
        repro.SCC2S(),
        repro.SCCCB(),
        repro.SCCVW(),
        repro.SCCDC(),
        repro.SCCkS(k=4),
    ]
    names = [p.name for p in protocols]
    assert len(set(names)) == len(names)


def test_quickstart_docstring_example_runs():
    # The module docstring promises a working quickstart; hold it to that
    # (scale knobs reduced so the whole suite stays fast).
    from repro import Experiment

    results = (
        Experiment.scenario("paper-baseline")
        .protocols("scc-2s", "occ-bc")
        .rates(50, 100)
        .transactions(120)
        .warmup(12)
        .replications(1)
        .run()
    )
    assert set(results) == {"SCC-2S", "OCC-BC"}
    assert len(results["SCC-2S"].missed_ratio()) == 2


def test_low_level_building_blocks_still_run():
    # The pre-spec surface stays public for custom harnesses.
    from repro import (
        RTDBSystem,
        RandomStreams,
        SCC2S,
        TransactionClass,
        WorkloadGenerator,
    )

    streams = RandomStreams(seed=42)
    generator = WorkloadGenerator(
        classes=[
            TransactionClass(
                "base", num_steps=16, write_probability=0.25, slack_factor=2.0
            )
        ],
        num_pages=1000,
        arrival_rate=50.0,
        step_duration=0.006,
        streams=streams,
    )
    system = RTDBSystem(protocol=SCC2S(), num_pages=1000)
    system.load_workload(generator.generate(100))
    system.run()
    summary = system.metrics.summary()
    assert summary.committed == 100


def test_registry_protocol_names_match_instances():
    # Every registered family is constructible by name and the default
    # spec label matches a real protocol instance.
    from repro import ProtocolSpec, available_protocols
    from repro.protocols.base import CCProtocol

    assert {
        "scc-2s", "scc-ks", "scc-cb", "scc-dc", "scc-vw",
        "2pl-pa", "occ", "occ-bc", "wait-50", "serial",
    } <= set(available_protocols())
    for family in available_protocols():
        spec = ProtocolSpec.create(family)
        protocol = spec.build()
        assert isinstance(protocol, CCProtocol)


def _all_modules() -> list:
    return sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    )


@pytest.mark.parametrize("module_name", _all_modules())
def test_every_module_imports(module_name):
    # A dangling import of a deleted or renamed module fails here even
    # when no other test happens to load the importing module.
    importlib.import_module(module_name)


def _install_requires() -> set:
    tree = ast.parse((REPO_ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            requirements = ast.literal_eval(node.value)
            return {
                re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in requirements
            }
    return set()


def test_imports_are_stdlib_or_declared():
    # An import of a package that setup.py does not declare works on a
    # box that happens to have it and breaks a clean `pip install -e .`.
    allowed = set(sys.stdlib_module_names) | {"repro"} | _install_requires()
    undeclared = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in allowed:
                    undeclared.append(f"{path.relative_to(REPO_ROOT)}: {name}")
    assert undeclared == []


def test_numpy_is_the_only_runtime_dependency():
    assert _install_requires() == {"numpy"}
