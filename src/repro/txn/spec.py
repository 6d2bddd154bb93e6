"""Transaction specifications.

A :class:`TransactionSpec` is the *program* of a transaction: an immutable
list of page-access steps plus its timing/value envelope.  Every execution
of the transaction — its optimistic shadow, each speculative shadow, and
any restart — replays this same program.  That replay-determinism is what
makes speculative shadows meaningful: a shadow blocked at step ``p`` will,
once resumed, perform exactly the accesses the original would have
performed from step ``p`` onward (reading fresher committed values).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.errors import ConfigurationError
from repro.values.classes import TransactionClass
from repro.values.value_function import ValueFunction


@dataclass(frozen=True, slots=True)
class Step:
    """One page access.

    Slotted: one ``Step`` exists per program position, but its ``page`` /
    ``is_write`` attributes are read on every execution of that position
    by every shadow — the hottest attribute reads in the library.

    Attributes:
        page: Page id accessed.
        is_write: ``True`` for read-modify-write (the page enters both the
            read and write sets), ``False`` for a pure read.
    """

    page: int
    is_write: bool

    def __repr__(self) -> str:
        kind = "W" if self.is_write else "R"
        return f"{kind}({self.page})"


@dataclass
class TransactionSpec:
    """A transaction: program, timing envelope, and value function.

    Attributes:
        txn_id: Unique id (assigned by the generator; also the total
            priority tie-break everywhere in the library).
        arrival: Arrival time :math:`A_u`.
        deadline: Soft deadline :math:`D_u`.
        steps: The access program; replayed identically by every shadow.
        value_function: :math:`V_u(t)` per paper Definition 2.
        txn_class: The class the transaction was drawn from.
        estimated_duration: A-priori execution-time estimate used for
            deadline assignment and by WAIT-50/SCC-VW (``E_C`` in §3.3).
    """

    txn_id: int
    arrival: float
    deadline: float
    steps: tuple[Step, ...]
    value_function: ValueFunction
    txn_class: TransactionClass
    estimated_duration: float

    def __post_init__(self) -> None:
        if not self.steps:
            raise ConfigurationError(f"transaction {self.txn_id} has no steps")
        if self.deadline < self.arrival:
            raise ConfigurationError(
                f"transaction {self.txn_id}: deadline precedes arrival"
            )
        if self.estimated_duration <= 0:
            raise ConfigurationError(
                f"transaction {self.txn_id}: non-positive estimated duration"
            )

    def __hash__(self) -> int:
        return self.txn_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TransactionSpec) and other.txn_id == self.txn_id

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    @property
    def read_pages(self) -> frozenset[int]:
        """All pages the full program reads (every accessed page)."""
        return frozenset(step.page for step in self.steps)

    @property
    def write_pages(self) -> frozenset[int]:
        """All pages the full program updates."""
        return frozenset(step.page for step in self.steps if step.is_write)

    def first_read_position(self, page: int) -> Optional[int]:
        """Index of the program's first access of ``page``, or ``None``."""
        for position, step in enumerate(self.steps):
            if step.page == page:
                return position
        return None

    def slack(self) -> float:
        """Absolute slack: deadline minus arrival."""
        return self.deadline - self.arrival

    @classmethod
    def build(
        cls,
        txn_id: int,
        arrival: float,
        steps: Sequence[Step],
        *,
        txn_class: TransactionClass,
        step_duration: float,
        deadline: Optional[float] = None,
    ) -> "TransactionSpec":
        """Construct a spec, deriving deadline and value function.

        The deadline defaults to the paper's slack-factor rule:
        ``arrival + slack_factor * num_steps * step_duration``.
        """
        estimated = len(steps) * step_duration
        if estimated <= 0:
            raise ConfigurationError("steps and step_duration must be positive")
        if deadline is None:
            deadline = arrival + txn_class.slack_factor * estimated
        value_function = ValueFunction(
            value=txn_class.value,
            deadline=deadline,
            penalty_gradient=txn_class.penalty_gradient,
            arrival=arrival,
        )
        return cls(
            txn_id=txn_id,
            arrival=arrival,
            deadline=deadline,
            steps=tuple(steps),
            value_function=value_function,
            txn_class=txn_class,
            estimated_duration=estimated,
        )
