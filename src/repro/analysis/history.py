"""Committed-history recording.

The system model records, for every committed transaction, the page
versions its committing execution read and the versions its writes
installed.  That is exactly the information needed to reconstruct all three
kinds of conflict edges (write-read, write-write, read-write) for the
serializability oracle, without retaining the full operation trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import InvariantViolation


@dataclass(frozen=True)
class CommittedTransaction:
    """Read/write version footprint of one committed transaction.

    Attributes:
        txn_id: The transaction's id.
        commit_time: Simulated commit instant.
        reads: page -> committed version the transaction read.
        writes: page -> version its commit installed (always ``read + 1``
            for pages it both read and wrote, by construction).
    """

    txn_id: int
    commit_time: float
    reads: Mapping[int, int]
    writes: Mapping[int, int]


class History:
    """Accumulates committed transactions in commit order."""

    def __init__(self) -> None:
        self._committed: list[CommittedTransaction] = []
        # (page, installed_version) -> writer txn id; version 0 is the
        # initial database load (writer None).
        self._installer: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self._committed)

    def __iter__(self) -> Iterator[CommittedTransaction]:
        return iter(self._committed)

    @property
    def transactions(self) -> list[CommittedTransaction]:
        """Committed transactions in commit order."""
        return list(self._committed)

    def record(
        self,
        txn_id: int,
        commit_time: float,
        reads: Mapping[int, int],
        writes: Mapping[int, int],
    ) -> None:
        """Record one commit.  ``writes`` maps pages to installed versions.

        Raises:
            InvariantViolation: If a committed transaction already installed
                one of the ``(page, version)`` pairs in ``writes``.
        """
        record = CommittedTransaction(
            txn_id=txn_id,
            commit_time=commit_time,
            reads=dict(reads),
            writes=dict(writes),
        )
        for page, version in record.writes.items():
            if (page, version) in self._installer:
                raise InvariantViolation(
                    f"two transactions installed version {version} of page {page}"
                )
        self._committed.append(record)
        for page, version in record.writes.items():
            self._installer[(page, version)] = txn_id

    @property
    def installers(self) -> Mapping[tuple[int, int], int]:
        """``(page, version) -> txn id`` of every installed version (no v0)."""
        return self._installer

    def installer_of(self, page: int, version: int) -> int | None:
        """Transaction that installed ``(page, version)``; ``None`` for v0."""
        return self._installer.get((page, version))
