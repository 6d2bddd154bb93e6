"""Unit tests for the serializability oracle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.history import History
from repro.analysis.serializability import (
    check_serializable,
    precedence_graph,
    serialization_order,
)
from repro.errors import InvariantViolation


def test_serial_history_is_serializable():
    history = History()
    history.record(1, 1.0, reads={0: 0}, writes={0: 1})
    history.record(2, 2.0, reads={0: 1}, writes={0: 2})
    assert check_serializable(history)
    assert serialization_order(history) == [1, 2]


def test_write_read_edge():
    history = History()
    history.record(1, 1.0, reads={}, writes={7: 1})
    history.record(2, 2.0, reads={7: 1}, writes={})
    graph = precedence_graph(history)
    assert 2 in graph[1]


def test_read_write_edge():
    history = History()
    # T2 read version 0 of page 7; T1 installed version 1 -> T2 before T1.
    history.record(1, 1.0, reads={}, writes={7: 1})
    history.record(2, 2.0, reads={7: 0}, writes={})
    graph = precedence_graph(history)
    assert 1 in graph[2]


def test_write_write_edge():
    history = History()
    history.record(1, 1.0, reads={}, writes={3: 1})
    history.record(2, 2.0, reads={}, writes={3: 2})
    graph = precedence_graph(history)
    assert 2 in graph[1]


def test_cyclic_history_detected():
    history = History()
    # Classic non-serializable interleaving: each read the initial version
    # of the page the other wrote.
    history.record(1, 1.0, reads={0: 0, 1: 0}, writes={0: 1})
    history.record(2, 2.0, reads={1: 0, 0: 0}, writes={1: 1})
    assert not check_serializable(history)
    assert serialization_order(history) is None


def test_read_of_uninstalled_version_rejected():
    history = History()
    history.record(1, 1.0, reads={0: 5}, writes={})
    with pytest.raises(InvariantViolation):
        precedence_graph(history)


def test_double_install_rejected():
    history = History()
    history.record(1, 1.0, reads={}, writes={0: 1})
    with pytest.raises(InvariantViolation):
        history.record(2, 2.0, reads={}, writes={0: 1})
    assert [txn.txn_id for txn in history] == [1]


def test_self_edges_ignored():
    history = History()
    # T1 reads the version it will overwrite: no self-edge, serializable.
    history.record(1, 1.0, reads={0: 0}, writes={0: 1})
    assert check_serializable(history)
    graph = precedence_graph(history)
    assert 1 not in graph[1]


def test_three_way_cycle_detected():
    history = History()
    history.record(1, 1.0, reads={0: 0}, writes={1: 1})
    history.record(2, 2.0, reads={1: 0}, writes={2: 1})
    history.record(3, 3.0, reads={2: 0}, writes={0: 1})
    # read-write edges (reader before next installer): T1->T3 (page 0),
    # T2->T1 (page 1), T3->T2 (page 2) — a three-cycle.
    assert not check_serializable(history)
    assert serialization_order(history) is None


def _lost_update(history):
    # Both read version 0 and overwrite it: T2 -> T1 (read-write) and
    # T1 -> T2 (write-write).
    history.record(1, 1.0, reads={0: 0}, writes={0: 1})
    history.record(2, 2.0, reads={0: 0}, writes={0: 2})


def _write_skew(history):
    # Each reads both pages at version 0 and writes the page the other did
    # not: T1 -> T2 on page 1 and T2 -> T1 on page 0 (read-write).
    history.record(1, 1.0, reads={0: 0, 1: 0}, writes={0: 1})
    history.record(2, 2.0, reads={0: 0, 1: 0}, writes={1: 1})


def _mixed_three_cycle(history):
    # T1 -> T2 (write-read, page 0), T2 -> T3 (write-read, page 1) and
    # T3 -> T1 (read-write: T3 read page 2 before T1's install).
    history.record(1, 1.0, reads={}, writes={0: 1, 2: 1})
    history.record(2, 2.0, reads={0: 1}, writes={1: 1})
    history.record(3, 3.0, reads={1: 1, 2: 0}, writes={})


@pytest.mark.parametrize(
    "build", [_lost_update, _write_skew, _mixed_three_cycle], ids=lambda f: f.__name__
)
def test_anomalies_rejected(build):
    history = History()
    build(history)
    assert not check_serializable(history)
    assert serialization_order(history) is None


def _reference_edges(history):
    """Conflict edges straight from the definitions, pair by pair."""
    txns = list(history)
    edges = set()
    for a, b in itertools.permutations(txns, 2):
        for page, version in a.writes.items():
            if b.reads.get(page) == version or b.writes.get(page) == version + 1:
                edges.add((a.txn_id, b.txn_id))
        for page, version in a.reads.items():
            if b.writes.get(page) == version + 1:
                edges.add((a.txn_id, b.txn_id))
    return edges


def _reference_order(history):
    """First permutation, in sorted order, that satisfies every edge."""
    edges = _reference_edges(history)
    for order in itertools.permutations(sorted(txn.txn_id for txn in history)):
        position = {txn_id: i for i, txn_id in enumerate(order)}
        if all(position[a] < position[b] for a, b in edges):
            return list(order)
    return None


@st.composite
def histories(draw):
    """Up to six commits over three pages, reads of any installed version."""
    num_txns = draw(st.integers(min_value=1, max_value=6))
    txn_ids = draw(st.permutations(range(10, 10 + num_txns)))
    latest = [0, 0, 0]
    history = History()
    for commit, txn_id in enumerate(txn_ids):
        read_pages = draw(st.sets(st.integers(min_value=0, max_value=2)))
        reads = {
            page: draw(st.integers(min_value=0, max_value=latest[page]))
            for page in sorted(read_pages)
        }
        writes = {}
        for page in sorted(draw(st.sets(st.integers(min_value=0, max_value=2)))):
            latest[page] += 1
            writes[page] = latest[page]
        history.record(txn_id, float(commit), reads=reads, writes=writes)
    return history


@given(history=histories())
@settings(max_examples=300, deadline=None)
def test_oracle_matches_brute_force(history):
    graph = precedence_graph(history)
    assert {(a, b) for a, succ in graph.items() for b in succ} == _reference_edges(
        history
    )
    expected = _reference_order(history)
    assert serialization_order(history) == expected
    assert check_serializable(history) == (expected is not None)
