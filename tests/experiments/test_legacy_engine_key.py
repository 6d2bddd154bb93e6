"""Specs written with the retired ``engine`` key still load and run.

Earlier versions serialized an ``"engine"`` field (``"object"`` /
``"array"`` / ``null``) into every experiment spec and gateway board
payload.  There is now one simulation engine, so the key is decoded and
dropped: ``null`` silently, a legacy engine name with a
:class:`DeprecationWarning`.  An unknown value is still a configuration
error, and the key is never written back.
"""

import json
import warnings
from dataclasses import asdict

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cli import main as cli_main
from repro.experiments.distributed import JobBoard
from repro.experiments.runner import build_cells, normalize_protocols
from repro.experiments.spec import ExperimentSpec
from repro.gateway import GatewayApp
from repro.results.fingerprint import cell_fingerprint, config_payload
from repro.results.store import RunStore

from tests.gateway.conftest import tiny_spec_dict


@pytest.mark.parametrize("engine", ["object", "array"])
def test_legacy_engine_name_warns_and_is_dropped(engine):
    with pytest.warns(DeprecationWarning, match="engine"):
        spec = ExperimentSpec.from_dict(tiny_spec_dict(engine=engine))
    assert spec == ExperimentSpec.from_dict(tiny_spec_dict())
    assert "engine" not in spec.to_dict()


def test_null_engine_is_dropped_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = ExperimentSpec.from_dict(tiny_spec_dict(engine=None))
    assert spec == ExperimentSpec.from_dict(tiny_spec_dict())


def test_unknown_engine_value_is_rejected():
    with pytest.raises(ConfigurationError, match="unknown engine 'vector'"):
        ExperimentSpec.from_dict(tiny_spec_dict(engine="vector"))


def test_engine_is_no_longer_a_spec_field():
    with pytest.raises(TypeError):
        ExperimentSpec.create(["scc-2s"], engine="object")


def test_cli_has_no_engine_flag(capsys):
    with pytest.raises(SystemExit):
        cli_main(["fig13a", "--engine", "object"])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_legacy_spec_gives_identical_records(tmp_path):
    plain_path = tmp_path / "plain.jsonl"
    legacy_path = tmp_path / "legacy.jsonl"
    plain = ExperimentSpec.from_dict(tiny_spec_dict())
    with pytest.warns(DeprecationWarning):
        legacy = ExperimentSpec.from_json(
            json.dumps(tiny_spec_dict(engine="array"))
        )
    plain.run(store=plain_path)
    legacy.run(store=legacy_path)

    def cells(path):
        return sorted(
            (record.fingerprint, record.config_fingerprint,
             record.protocol, record.summary)
            for record in RunStore(path)
        )

    assert len(cells(plain_path)) == 2
    assert cells(legacy_path) == cells(plain_path)


def test_gateway_adopts_board_payloads_carrying_engine(tmp_path):
    spec_dict = tiny_spec_dict(engine="array")
    with pytest.warns(DeprecationWarning):
        spec = ExperimentSpec.from_dict(spec_dict)
    config = spec.to_config()
    factories, spec_map = normalize_protocols(spec.protocols)
    cells = build_cells(
        list(factories), tuple(config.arrival_rates), config.replications
    )
    payload = config_payload(config)
    workdir = tmp_path / "work"
    workdir.mkdir()
    # The board a gateway of the earlier version persisted: every
    # payload's spec carries the engine key.
    board = JobBoard(workdir / "board.sqlite")
    for cell in cells:
        board.add(
            cell.index,
            {
                "experiment": "legacy00",
                "client": "alice",
                "fingerprint": cell_fingerprint(
                    payload, spec_map[cell.protocol], cell.arrival_rate,
                    cell.replication,
                ),
                "cell": asdict(cell),
                "spec": spec_dict,
            },
        )
    board.close()
    with pytest.warns(DeprecationWarning):
        app = GatewayApp(
            store=str(tmp_path / "store.jsonl"), workers=1,
            workdir=str(workdir),
        )
    try:
        status = app.status("legacy00")
        assert status["client"] == "alice"
        assert status["total_cells"] == len(cells)
        assert app._get("legacy00").wait(timeout=60) == "done"
        assert app.status("legacy00")["failed"] == []
        assert len(app.results("legacy00")) == len(cells)
        with app._lock:
            counts = app._board.counts()
        assert counts["failed"] == 0 and counts["pending"] == 0
    finally:
        app.close()
