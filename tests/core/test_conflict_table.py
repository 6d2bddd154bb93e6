"""Unit tests for the access index and conflict table."""

import pytest

from repro.core.conflict_table import AccessIndex, ConflictTable
from repro.errors import InvariantViolation


class TestConflictTable:
    def test_record_new_writer(self):
        table = ConflictTable()
        assert table.record(writer=5, page=10, position=3)
        assert 5 in table
        record = table.get(5)
        assert record.pages == {10}
        assert record.first_pos == 3

    def test_merge_earlier_page_moves_blocking_point(self):
        table = ConflictTable()
        table.record(5, page=10, position=3)
        assert table.record(5, page=11, position=1)  # Figure 5/6 situation
        assert table.get(5).first_pos == 1
        assert table.get(5).pages == {10, 11}

    def test_duplicate_page_is_noop(self):
        table = ConflictTable()
        table.record(5, page=10, position=3)
        assert not table.record(5, page=10, position=3)
        assert not table.record(5, page=10, position=7)  # later pos ignored

    def test_records_sorted_by_first_position(self):
        table = ConflictTable()
        table.record(5, page=10, position=3)
        table.record(6, page=11, position=1)
        table.record(7, page=12, position=2)
        assert [r.writer for r in table.records()] == [6, 7, 5]

    def test_earliest_is_the_sorted_head(self):
        table = ConflictTable()
        assert table.earliest() is None
        table.record(5, page=10, position=3)
        table.record(7, page=12, position=1)
        table.record(6, page=11, position=1)  # ties on position: lower writer
        assert table.earliest().writer == 6
        assert table.earliest() is table.records()[0]
        table.remove_writer(6)
        assert table.earliest().writer == 7

    def test_remove_writer(self):
        table = ConflictTable()
        table.record(5, page=10, position=3)
        table.remove_writer(5)
        assert 5 not in table
        assert len(table) == 0
        table.remove_writer(5)  # idempotent


class TestAccessIndex:
    def test_read_and_write_tracking(self):
        index = AccessIndex()
        index.add_read(1, page=10, position=2)
        index.add_write(2, page=10)
        assert index.readers_of(10) == {1}
        assert index.writers_of(10) == {2}
        assert index.written_by(2) == {10}
        assert index.writes_page(2, 10)
        assert not index.writes_page(1, 10)
        assert index.first_read_position(1, 10) == 2

    def test_first_read_position_keeps_minimum(self):
        index = AccessIndex()
        index.add_read(1, page=10, position=5)
        index.add_read(1, page=10, position=2)
        index.add_read(1, page=10, position=9)
        assert index.first_read_position(1, 10) == 2

    def test_unknown_read_position_raises(self):
        index = AccessIndex()
        with pytest.raises(InvariantViolation):
            index.first_read_position(1, 10)

    def test_remove_txn_cleans_both_sides(self):
        index = AccessIndex()
        index.add_read(1, 10, 0)
        index.add_write(1, 11)
        index.add_read(2, 10, 1)
        index.remove_txn(1)
        assert index.readers_of(10) == {2}
        assert index.writers_of(11) == set()
        assert index.written_by(1) == set()
        index.remove_txn(1)  # idempotent
