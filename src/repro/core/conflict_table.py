"""Conflict bookkeeping for SCC.

Two structures:

* :class:`AccessIndex` — the global, transaction-level view of who has
  read and written which pages (cumulative across all shadows; shadows of
  a transaction replay the same program, so transaction-level sets are
  well defined prefixes).  It answers the detection queries of the Read
  and Write Rules.
* :class:`ConflictTable` — per *reader* transaction: for each uncommitted
  *writer* it conflicts with, the set of conflicting pages and the position
  of the reader's **first** read of any of them.  That first position is
  where a speculative shadow accounting for the conflict must block (the
  paper's Figures 5 and 6: a newly discovered earlier conflict page moves
  the blocking point forward and forces a shadow replacement).

Both structures are *precomputed indices*: every page keeps its reader and
writer sets and every transaction its page maps, maintained incrementally
on each access, so the Read/Write Rule detection queries are dictionary
probes rather than scans over active transactions.  The copying
accessors are the safe public API; ``readers_view`` exposes a reader set
without copying.

The SCC step loop (:class:`~repro.core.scc_base.SCCProtocolBase`) runs
:meth:`AccessIndex.add_read` and the per-access writer probes inline on
the index's dictionaries, once per simulated page access, with exactly
their semantics; a change to the layout here must be made there too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import InvariantViolation

#: Shared empty tuple returned by the view accessors for unindexed pages —
#: avoids allocating an empty container per probe.
_EMPTY: tuple = ()


@dataclass
class ConflictRecord:
    """One directed conflict ``writer -> reader`` (reader's perspective).

    Attributes
    ----------
    writer : int
        Transaction id whose commit would invalidate the reader.
    pages : set of int
        Conflicting pages (writer wrote them, reader read/reads them).
    first_pos : int
        Reader's earliest program position reading any of them.
    """

    writer: int
    pages: set[int] = field(default_factory=set)
    first_pos: int = 0

    def merge(self, page: int, position: int) -> bool:
        """Fold in one more conflicting page.

        Parameters
        ----------
        page : int
            Newly detected conflicting page.
        position : int
            Reader's first read position of that page.

        Returns
        -------
        bool
            ``True`` if the record changed (new page or earlier position).
        """
        changed = page not in self.pages
        self.pages.add(page)
        if position < self.first_pos:
            self.first_pos = position
            changed = True
        return changed


class ConflictTable:
    """Per-transaction table of uncommitted writers it conflicts with.

    The table is keyed by writer id; each entry carries the conflicting
    pages and the reader's earliest read position among them (the blocking
    point a speculative shadow must respect).  A sorted snapshot for
    replacement policies is cached and invalidated on mutation, so
    repeated coverage rebuilds between conflict changes do not re-sort.
    """

    __slots__ = ("_records", "_sorted")

    def __init__(self) -> None:
        self._records: dict[int, ConflictRecord] = {}
        self._sorted: Optional[list[ConflictRecord]] = None

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, writer: int) -> bool:
        return writer in self._records

    def writers(self) -> list[int]:
        """Return all conflicting writer ids."""
        return list(self._records)

    def record(self, writer: int, page: int, position: int) -> bool:
        """Record a conflict page.

        Parameters
        ----------
        writer : int
            Uncommitted transaction whose write conflicts.
        page : int
            The conflicting page.
        position : int
            The reader's first read position of ``page``.

        Returns
        -------
        bool
            ``True`` if the table changed.
        """
        existing = self._records.get(writer)
        if existing is None:
            self._records[writer] = ConflictRecord(
                writer=writer, pages={page}, first_pos=position
            )
            self._sorted = None
            return True
        changed = existing.merge(page, position)
        if changed:
            self._sorted = None
        return changed

    def get(self, writer: int) -> Optional[ConflictRecord]:
        """Return the record for ``writer``, or ``None``."""
        return self._records.get(writer)

    def remove_writer(self, writer: int) -> bool:
        """Drop the conflict with ``writer`` (it committed).  Idempotent.

        Returns
        -------
        bool
            ``True`` if a record was actually removed.
        """
        if self._records.pop(writer, None) is not None:
            self._sorted = None
            return True
        return False

    def earliest(self) -> Optional[ConflictRecord]:
        """The record with the smallest ``(first_pos, writer)``, or ``None``.

        The head of :meth:`records` without sorting the table (the keys
        are unique, so the minimum is the sorted head).
        """
        return min(
            self._records.values(),
            key=lambda r: (r.first_pos, r.writer),
            default=None,
        )

    def _sorted_records(self) -> list[ConflictRecord]:
        """The cached (first_pos, writer)-sorted records.

        Returns
        -------
        list of ConflictRecord
            The cache itself — callers must treat it as read-only.  The
            rebuild-speculation hot path borrows this to skip the
            defensive copy :meth:`records` makes.
        """
        if self._sorted is None:
            self._sorted = sorted(
                self._records.values(), key=lambda r: (r.first_pos, r.writer)
            )
        return self._sorted

    def records(self) -> list[ConflictRecord]:
        """Return all records, ordered by first conflict position then writer id.

        Returns
        -------
        list of ConflictRecord
            A fresh list (safe to mutate); the underlying sort is cached
            until the table changes.
        """
        return list(self._sorted_records())


class AccessIndex:
    """Global transaction-level access tracking for conflict detection.

    Maintains four precomputed indices — page -> readers, page -> writers,
    transaction -> first-read positions, transaction -> written pages —
    updated incrementally on every access so Read/Write Rule detection is
    a dictionary probe per access, never a scan over transactions.
    """

    __slots__ = ("_page_readers", "_page_writers", "_txn_reads", "_txn_writes")

    def __init__(self) -> None:
        self._page_readers: dict[int, set[int]] = {}
        self._page_writers: dict[int, set[int]] = {}
        self._txn_reads: dict[int, dict[int, int]] = {}  # txn -> page -> first pos
        self._txn_writes: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def add_read(self, txn_id: int, page: int, position: int) -> None:
        """Record that ``txn_id``'s program reads ``page`` at ``position``.

        Parameters
        ----------
        txn_id : int
            The reading transaction.
        page : int
            The page read.
        position : int
            Program position of the read; only the earliest observed
            position per page is kept.
        """
        reads = self._txn_reads.get(txn_id)
        if reads is None:
            reads = self._txn_reads[txn_id] = {}
        prior = reads.get(page)
        if prior is None or position < prior:
            reads[page] = position
        readers = self._page_readers.get(page)
        if readers is None:
            self._page_readers[page] = {txn_id}
        else:
            readers.add(txn_id)

    def add_write(self, txn_id: int, page: int) -> None:
        """Record that ``txn_id``'s program writes ``page``."""
        writes = self._txn_writes.get(txn_id)
        if writes is None:
            self._txn_writes[txn_id] = {page}
        else:
            writes.add(page)
        writers = self._page_writers.get(page)
        if writers is None:
            self._page_writers[page] = {txn_id}
        else:
            writers.add(txn_id)

    def remove_txn(self, txn_id: int) -> None:
        """Forget a committed (or permanently gone) transaction."""
        for page in self._txn_reads.pop(txn_id, _EMPTY):
            readers = self._page_readers.get(page)
            if readers is not None:
                readers.discard(txn_id)
                if not readers:
                    del self._page_readers[page]
        for page in self._txn_writes.pop(txn_id, _EMPTY):
            writers = self._page_writers.get(page)
            if writers is not None:
                writers.discard(txn_id)
                if not writers:
                    del self._page_writers[page]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def writers_of(self, page: int) -> set[int]:
        """Return a copy of the uncommitted writers of ``page``."""
        return set(self._page_writers.get(page, _EMPTY))

    def readers_of(self, page: int) -> set[int]:
        """Return a copy of the uncommitted readers of ``page``."""
        return set(self._page_readers.get(page, _EMPTY))

    def readers_view(self, page: int):
        """Return the internal reader set of ``page`` without copying.

        Returns
        -------
        collection of int
            The live internal set (or a shared empty tuple).  Callers
            MUST NOT mutate it and MUST NOT hold it across index updates.
        """
        return self._page_readers.get(page, _EMPTY)

    def written_by(self, txn_id: int) -> set[int]:
        """Return pages written (so far) by ``txn_id``'s program.

        Returns
        -------
        set of int
            The live internal set when the transaction has writes (do not
            mutate), else a fresh empty set.
        """
        return self._txn_writes.get(txn_id, set())

    def writes_page(self, txn_id: int, page: int) -> bool:
        """Whether ``txn_id``'s program (as observed so far) writes ``page``."""
        writes = self._txn_writes.get(txn_id)
        return writes is not None and page in writes

    def first_read_position(self, txn_id: int, page: int) -> int:
        """Return the reader's first observed position reading ``page``.

        Parameters
        ----------
        txn_id : int
            The reading transaction.
        page : int
            The page whose first read position is requested.

        Returns
        -------
        int
            The earliest recorded program position.

        Raises
        ------
        InvariantViolation
            If the read was never recorded (detection logic out of sync).
        """
        try:
            return self._txn_reads[txn_id][page]
        except KeyError:
            raise InvariantViolation(
                f"no recorded read of page {page} by T{txn_id}"
            ) from None
