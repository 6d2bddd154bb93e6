"""Shared SCC machinery: the five rules of SCC-kS (paper §2.1).

This base class runs its own step loop.  It overrides the generic
``_advance``/``_complete_step`` of :class:`~repro.protocols.base.CCProtocol`
with one fused pair that applies the per-access rules inline, so a
simulated page access costs two SCC frames plus the resource request
instead of a chain of hook calls:

    _start -> _advance [Blocking Rule | Read Rule] -> resources.request ->
    _complete_step [index the read, Read Rule re-check, Write Rule] ->
    _advance ...

The rules:

* **Start Rule** — ``on_arrival`` creates the optimistic shadow.
* **Read Rule** — a read-after-write conflict is detected in ``_advance``
  of the optimistic shadow, *before* the exposing read happens;
  speculation is rebuilt so a shadow can fork off the optimistic at the
  current position (it blocks immediately, the paper's "forked off
  T_o_r").  ``_complete_step`` re-checks the read against writes recorded
  while it was in service.
* **Write Rule** — a write-after-read conflict is detected in
  ``_complete_step`` of any shadow performing a write; the affected
  *reader* transaction's speculation is rebuilt, forking from the latest
  valid donor before the conflict position, or from scratch (the paper's
  "create a new copy of the reader transaction"), including the Figure
  5/6 replacement adjustments.
* **Blocking Rule** — a speculative shadow is blocked in ``_advance`` the
  first time it would read a page written by a transaction in its
  ``wait_for`` set.
* **Commit Rule** — :meth:`commit_transaction` installs the committing
  shadow, kills every shadow *anywhere* that read a now-stale page
  ("exposed" shadows, e.g. T³₁ in the paper's Figure 7), and for each
  transaction whose optimistic shadow died promotes the surviving shadow
  with the latest blocking point.  Because any shadow past the first
  conflict position with the committer must have read the conflict page
  and is therefore dead, the latest-blocked survivor *is* the shadow that
  waited on the committer whenever one exists — uniformly realizing both
  cases of the paper's Commit Rule (Figures 7 and 8).  With no survivor
  the transaction restarts from scratch (OCC-BC behaviour).  The sweep
  over other transactions visits only those a reverse conflict index and
  the installed pages' readers name, when the coverage policy allows it.

Deciding *when* a finished optimistic shadow commits is delegated to a
:class:`~repro.core.deferral.TerminationPolicy`: immediate for
SCC-kS/2S/CB, deferred for the value-cognizant SCC-DC/SCC-VW (§3's
Termination Rule).

Speculation maintenance is centralized in :meth:`_rebuild_speculation`,
which reconciles the live shadow set against the *desired coverage*
(which conflicts deserve shadows, per subclass policy and budget).  The
Read and Write Rules, LBFO replacement, and post-commit re-speculation are
all "conflict table changed → rebuild" under the hood, which keeps the
invariants checkable in one place.

The step loop reads and updates the
:class:`~repro.core.conflict_table.AccessIndex` dictionaries directly
rather than through its methods; that module documents their meaning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.conflict_table import AccessIndex, ConflictTable
from repro.core.deferral import ImmediateCommit, TerminationPolicy
from repro.core.shadow import Shadow, ShadowMode
from repro.errors import InvariantViolation, ProtocolError
from repro.protocols.base import CCProtocol, Execution, ExecutionState, ReadRecord
from repro.txn.spec import TransactionSpec

#: States a shadow may be in to serve as a fork donor: it must still be
#: executing (or about to) so the copied prefix is a live computation.
_DONOR_STATES = frozenset(
    (ExecutionState.RUNNING, ExecutionState.BLOCKED, ExecutionState.READY)
)

# Step-loop constants: module globals load faster than enum attributes.
_RUNNING = ExecutionState.RUNNING
_SPECULATIVE = ShadowMode.SPECULATIVE


def select_replacement(
    survivors: Sequence[tuple[int, Shadow]], committer_id: int
) -> Optional[tuple[int, Shadow]]:
    """Pick the speculative shadow promoted by the Commit Rule.

    The latest position wins; among equals, the shadow that speculated on
    the committing transaction itself is preferred (Commit Rule case 1),
    then creation order (smallest ``serial``) breaks the remaining tie.

    Parameters
    ----------
    survivors : sequence of (writer, shadow)
        Live speculative shadows keyed by the conflicting writer each one
        hedges against; shadows expose ``pos`` and ``serial``.
    committer_id : int
        The transaction that just committed.

    Returns
    -------
    The chosen ``(writer, shadow)`` pair, or ``None`` when no speculative
    shadow survived (the transaction must restart from scratch).
    """
    if not survivors:
        return None

    def rank(item: tuple[int, Shadow]) -> tuple:
        writer, shadow = item
        return (shadow.pos, writer == committer_id, -shadow.serial)

    return max(survivors, key=rank)


@dataclass
class SCCTxnRuntime:
    """Per-transaction SCC state.

    Attributes
    ----------
    spec : TransactionSpec
        The transaction.
    optimistic : Shadow
        The unique optimistic shadow (always present).
    speculatives : dict[int, Shadow]
        writer txn id -> speculative shadow accounting for the conflict
        with that writer.
    conflicts : ConflictTable
        The transaction's conflict table (it is the *reader*).
    restarts : int
        Times the transaction lost all shadows and started over.
    deferred : bool
        Whether a finished shadow's commitment was ever deferred.
    """

    spec: TransactionSpec
    optimistic: Shadow
    speculatives: dict[int, Shadow] = field(default_factory=dict)
    conflicts: ConflictTable = field(default_factory=ConflictTable)
    restarts: int = 0
    deferred: bool = False
    #: The transaction's id (denormalized from ``spec`` — read on every
    #: step of every shadow, so a plain attribute, not a property).
    txn_id: int = field(init=False)

    def __post_init__(self) -> None:
        self.txn_id = self.spec.txn_id

    def live_shadows(self) -> list[Shadow]:
        """The optimistic shadow plus all live speculative shadows."""
        shadows = [self.optimistic]
        shadows.extend(s for s in self.speculatives.values() if s.alive)
        return shadows

    @property
    def finished_waiting(self) -> bool:
        """Whether the optimistic shadow finished and awaits commitment."""
        return self.optimistic.state is ExecutionState.FINISHED


class SCCProtocolBase(CCProtocol):
    """Common machinery for every SCC variant."""

    name = "SCC-base"

    def __init__(self, termination: Optional[TerminationPolicy] = None) -> None:
        super().__init__()
        self._runtimes: dict[int, SCCTxnRuntime] = {}
        self._index = AccessIndex()
        self._termination = termination or ImmediateCommit()
        self._termination.bind(self)
        #: Whether :meth:`_desired_coverage` is a pure function of the
        #: conflict records (no dependence on the simulated clock).  The
        #: base default coverage (empty) trivially is; subclasses with a
        #: replacement policy must set this from the policy's
        #: ``time_invariant`` flag.  Enables the commit-path rebuild skip.
        self._coverage_time_invariant = True
        #: Optional shadow-lifecycle observer: a callable
        #: ``(kind, txn_id, shadow_or_None)`` invoked on "spawn", "block",
        #: "promote", "restart", "kill", "finish", and "commit" events.
        #: Used by :mod:`repro.analysis.timeline` to draw execution
        #: diagrams; ``None`` (the default) costs nothing.
        self.observer = None
        #: Live shadow count across all runtimes, maintained by _emit for
        #: the ``peak_live_shadows`` telemetry gauge.
        self._live_shadow_count = 0
        #: Reverse conflict index: writer id -> ids of the transactions
        #: whose conflict table may name that writer (see
        #: :meth:`_note_conflict`).  It prunes the Commit Rule sweep.
        self._conflict_readers: dict[int, set[int]] = {}

    #: Observer kinds that map onto SCC-specific trace events.  The
    #: remaining kinds ("block", "finish", "commit") are already traced
    #: at the base-protocol/system layer and are *not* re-emitted here.
    _TRACE_KINDS = {
        "spawn": "shadow_fork",
        "restart": "shadow_fork",
        "kill": "shadow_prune",
        "promote": "shadow_promote",
    }

    def _emit(self, kind: str, txn_id: int, shadow: Optional[Shadow]) -> None:
        # Shadow-occupancy accounting rides the existing lifecycle
        # notifications: spawn/restart create a live shadow, kill and
        # commit retire one.  These are cold paths (per shadow, not per
        # step), so the counters are effectively free.
        system = self.system
        if system is not None:
            counters = system.counters
            if kind in ("spawn", "restart"):
                counters.incr("shadow_forks")
                self._live_shadow_count += 1
                counters.record_max("peak_live_shadows", self._live_shadow_count)
            elif kind == "kill":
                counters.incr("shadow_prunes")
                self._live_shadow_count -= 1
            elif kind == "commit":
                self._live_shadow_count -= 1
            tracer = self._tracer
            if tracer is not None:
                trace_kind = self._TRACE_KINDS.get(kind)
                if trace_kind is not None:
                    tracer.emit(
                        trace_kind,
                        system.sim.now,
                        txn_id,
                        serial=shadow.serial if shadow is not None else None,
                        mode=shadow.mode.value if shadow is not None else None,
                        pos=shadow.pos if shadow is not None else None,
                        data=(
                            {"origin": kind}
                            if trace_kind == "shadow_fork"
                            else None
                        ),
                    )
        if self.observer is not None:
            self.observer(kind, txn_id, shadow)

    # ------------------------------------------------------------------
    # subclass policy hooks
    # ------------------------------------------------------------------

    def _desired_coverage(self, runtime: SCCTxnRuntime) -> list[int]:
        """Writers whose conflicts deserve speculative shadows, in order.

        Subclasses implement the budget/replacement policy here.  The
        default covers nothing (pure OCC-BC behaviour).
        """
        return []

    # ------------------------------------------------------------------
    # shared queries (used by policies and termination rules)
    # ------------------------------------------------------------------

    @property
    def index(self) -> AccessIndex:
        """The global access index."""
        return self._index

    def runtime_of(self, txn_id: int) -> Optional[SCCTxnRuntime]:
        """Runtime state of an active transaction, or ``None``."""
        return self._runtimes.get(txn_id)

    def runtimes(self) -> list[SCCTxnRuntime]:
        """All active transaction runtimes."""
        return list(self._runtimes.values())

    def transaction_has_conflicts(self, runtime: SCCTxnRuntime) -> bool:
        """Whether ``runtime`` conflicts with any uncommitted transaction.

        Checks both directions: incoming (it read pages an uncommitted
        writer wrote — its conflict table) and outgoing (uncommitted
        transactions read pages it wrote).  The paper's Termination Rules
        commit immediately only when *neither* exists.
        """
        if len(runtime.conflicts) > 0:
            return True
        return bool(self.readers_of_writes(runtime))

    def readers_of_writes(self, runtime: SCCTxnRuntime) -> list[SCCTxnRuntime]:
        """Active transactions that read pages ``runtime`` wrote."""
        seen: set[int] = set()
        result = []
        for page in self._index.written_by(runtime.txn_id):
            for reader in self._index.readers_of(page):
                if reader != runtime.txn_id and reader not in seen:
                    other = self._runtimes.get(reader)
                    if other is not None:
                        seen.add(reader)
                        result.append(other)
        return result

    # ------------------------------------------------------------------
    # Start Rule
    # ------------------------------------------------------------------

    def on_arrival(self, txn: TransactionSpec) -> None:
        """Apply the Start Rule: create and start the optimistic shadow.

        Invariant established: every active transaction has exactly one
        live optimistic shadow at all times (replacements promote or
        restart before the old one's death is visible).
        """
        optimistic = Shadow(txn, ShadowMode.OPTIMISTIC)
        runtime = SCCTxnRuntime(spec=txn, optimistic=optimistic)
        self._runtimes[txn.txn_id] = runtime
        self._emit("spawn", txn.txn_id, optimistic)
        self._start(optimistic)

    # ------------------------------------------------------------------
    # the fused step loop: Read, Blocking and Write Rules
    # ------------------------------------------------------------------

    def _start(self, execution: Execution) -> None:
        """Begin (or restart) driving a shadow.

        Every shadow enters the step loop here, so this is where the
        loop checks that it only ever drives :class:`Shadow` executions.

        Raises
        ------
        ProtocolError
            If ``execution`` is not a shadow, or is dead.
        """
        super()._start(self._as_shadow(execution))

    def _advance(self, execution: Shadow) -> None:
        """Drive the next step of a running shadow (or finish it).

        The generic advance with the SCC rules that run *before* an
        access inlined:

        * **Blocking Rule** (speculative shadow) — stop just before
          reading a page a transaction in ``wait_for`` wrote.
        * **Read Rule** (optimistic shadow) — record a read-after-write
          conflict with every other writer of the page and rebuild
          speculation, *before* the exposing read, so a shadow forked
          here can still block ahead of it (the paper's "forked off
          T_o_r").

        Parameters
        ----------
        execution : Shadow
            The RUNNING shadow to drive.

        Raises
        ------
        ProtocolError
            If the shadow is not RUNNING.
        """
        if execution.state is not _RUNNING:
            raise ProtocolError(f"cannot advance {execution!r}")
        pos = execution.pos
        if pos >= execution.num_steps:
            self._finish(execution)
            return
        page = execution.txn.steps[pos].page
        if execution.mode is _SPECULATIVE:
            txn_writes = self._index._txn_writes
            for writer in execution.wait_for:
                writes = txn_writes.get(writer)
                if writes is not None and page in writes:
                    self._block(execution)
                    self._emit("block", execution.txn.txn_id, execution)
                    return
        else:
            # conflicts.record never mutates the index, so iterating the
            # live writer set is safe.
            writers = self._index._page_writers.get(page)
            if writers:
                runtime = self._runtimes[execution.txn.txn_id]
                txn_id = runtime.txn_id
                conflicts = runtime.conflicts
                changed = False
                for writer in writers:
                    if writer != txn_id and conflicts.record(writer, page, pos):
                        changed = True
                        self._note_conflict(writer, txn_id)
                if changed:
                    self._rebuild_speculation(runtime)
        execution.step_started_at = self._sim.now
        self._resources.request(
            execution, self._complete_step, execution, execution.epoch
        )

    def _complete_step(self, execution: Shadow, epoch: int) -> None:
        """Record a serviced access, apply the after-access rules, go on.

        The generic completion (readset entry, first-write record,
        position and work) with the SCC rules that run *after* an access
        inlined:

        * the global :class:`AccessIndex` learns of the read here, at
          completion time;
        * **Read Rule, completion-time half** — a write recorded while
          this read was in service is re-checked, and a speculative
          shadow that read a page its own wait set wrote is replaced
          (paper Figure 5);
        * **Write Rule** — the first write of a page by this transaction
          is broadcast to the conflict table of every prior reader.

        Parameters
        ----------
        execution : Shadow
            The shadow whose page access finished service.
        epoch : int
            The epoch captured when service was requested; a mismatch
            means the shadow was aborted/blocked in service and the
            completion is dropped.
        """
        if execution.epoch != epoch or execution.state is not _RUNNING:
            return  # the shadow was aborted/blocked while in service
        pos = execution.pos
        step = execution.txn.steps[pos]
        page = step.page
        now = self._sim.now
        readset = execution.readset
        prior = readset.get(page)
        position = pos if prior is None else prior[0]
        readset[page] = ReadRecord(position, self._db.version(page), now)
        is_write = step.is_write
        if is_write and page not in execution.writeset:
            execution.writeset[page] = pos
        execution.pos = pos + 1
        execution.work += self._step_time
        tracer = self._tracer
        runtime = self._runtimes[execution.txn.txn_id]
        txn_id = runtime.txn_id
        if tracer is not None:
            tracer.emit(
                "step_complete",
                now,
                txn_id,
                serial=execution.serial,
                mode=execution.mode.value,
                pos=pos,
                data={"page": page, "write": is_write},
            )
        # AccessIndex.add_read: the earliest position per page, and the
        # page's reader set.
        index = self._index
        reads = index._txn_reads.get(txn_id)
        if reads is None:
            reads = index._txn_reads[txn_id] = {}
        prior_pos = reads.get(page)
        if prior_pos is None or position < prior_pos:
            reads[page] = position
        page_readers = index._page_readers
        readers = page_readers.get(page)
        if readers is None:
            page_readers[page] = {txn_id}
        else:
            readers.add(txn_id)
        # Read Rule, completion-time half: a write recorded while this
        # read was in service (after the check in _advance) is missed by
        # both that check and the writer's Write Rule broadcast (this
        # read was not yet indexed).  The conflict table is idempotent.
        changed = False
        writers = index._page_writers.get(page)
        if writers:
            conflicts = runtime.conflicts
            for writer in writers:
                if writer != txn_id and conflicts.record(writer, page, position):
                    changed = True
                    self._note_conflict(writer, txn_id)
        # A speculative shadow may have completed a read of a page its
        # *waited* writer wrote while the read was in service: that
        # writer's broadcast ran before this read was indexed, and the
        # table may already know the page (no "change").  The shadow is
        # exposed to its own wait set; force a rebuild so it is replaced.
        if not changed and execution.mode is _SPECULATIVE:
            txn_writes = index._txn_writes
            for writer in execution.wait_for:
                writes = txn_writes.get(writer)
                if writes is not None and page in writes:
                    changed = True
                    break
        if changed:
            self._rebuild_speculation(runtime)
        if is_write:
            written = index._txn_writes.get(txn_id)
            newly_written = written is None or page not in written
            index.add_write(txn_id, page)
            if newly_written:
                # Write Rule: this first write of the page conflicts with
                # everyone who already read it.  The loop iterates a
                # *copy* of the reader set on purpose: rebuild side
                # effects schedule events, so the iteration order is part
                # of the deterministic result and must match the set-copy
                # order the golden reference was recorded under.
                runtimes = self._runtimes
                for reader in index.readers_of(page):
                    if reader == txn_id:
                        continue
                    other = runtimes.get(reader)
                    if other is None:
                        continue
                    reader_pos = index.first_read_position(reader, page)
                    if other.conflicts.record(txn_id, page, reader_pos):
                        self._note_conflict(txn_id, reader)
                        self._rebuild_speculation(other)
        if execution.state is _RUNNING:
            self._advance(execution)

    def _note_conflict(self, writer: int, reader: int) -> None:
        """Add ``reader`` to the reverse conflict index entry of ``writer``.

        Called wherever a conflict table records (or moves) a conflict,
        so at ``writer``'s commit the entry names every runtime whose
        table may hold a record for it (a superset: entries are dropped
        only at that commit).
        """
        readers = self._conflict_readers.get(writer)
        if readers is None:
            self._conflict_readers[writer] = {reader}
        else:
            readers.add(reader)

    # ------------------------------------------------------------------
    # speculation maintenance
    # ------------------------------------------------------------------

    def _rebuild_speculation(self, runtime: SCCTxnRuntime) -> None:
        """Reconcile live shadows against the desired conflict coverage."""
        desired = self._desired_coverage(runtime)
        speculatives = runtime.speculatives
        if speculatives:
            # List membership below is fine for the typical tiny coverage
            # (k-1 entries); fall back to a set for wide budgets.
            desired_set = desired if len(desired) <= 4 else set(desired)
            for writer, shadow in list(speculatives.items()):
                if (
                    writer not in desired_set
                    or not shadow.alive
                    or self._shadow_invalid_for(shadow, writer)
                ):
                    del speculatives[writer]
                    if shadow.alive:
                        self._emit("kill", runtime.txn_id, shadow)
                    self._kill(shadow)
        for writer in desired:
            if writer not in speculatives:
                speculatives[writer] = self._spawn_speculative(
                    runtime, writer
                )

    def _shadow_invalid_for(self, shadow: Shadow, writer: int) -> bool:
        """A shadow that read the writer's pages can no longer wait on it.

        This is the Figure 5 situation: a new, earlier conflict page means
        the existing shadow already exposed itself to the writer.
        """
        return shadow.has_read_any(self._index.written_by(writer))

    def _spawn_speculative(self, runtime: SCCTxnRuntime, writer: int) -> Shadow:
        """Create the shadow accounting for the conflict with ``writer``.

        Forks from the *latest* valid donor: any live shadow positioned at
        or before the conflict's first position that has not read any of
        the writer's pages.  With no donor it re-executes from scratch.
        """
        conflict = runtime.conflicts.get(writer)
        if conflict is None:
            raise InvariantViolation(
                f"spawning shadow for unrecorded conflict "
                f"T{writer} -> T{runtime.txn_id}"
            )
        written = self._index.written_by(writer)
        first_pos = conflict.first_pos
        # Fork-donor choice in one pass: the latest valid donor wins
        # (largest pos), creation order (smallest serial) breaks ties.
        # The donor-state filter subsumes live_shadows' aliveness check,
        # and the (pos, -serial) maximum is order-independent, so the
        # scan is equivalent to filtering a materialized candidate list.
        donor = None
        for shadow in (
            runtime.optimistic,
            *runtime.speculatives.values(),
        ):
            if (
                shadow.pos <= first_pos
                and shadow.state in _DONOR_STATES
                and not shadow.has_read_any(written)
                and (
                    donor is None
                    or shadow.pos > donor.pos
                    or (shadow.pos == donor.pos and shadow.serial < donor.serial)
                )
            ):
                donor = shadow
        wait_for = frozenset({writer})
        if donor is not None:
            shadow = donor.fork(ShadowMode.SPECULATIVE, wait_for)
        else:
            shadow = Shadow(runtime.spec, ShadowMode.SPECULATIVE, wait_for)
        self._emit("spawn", runtime.txn_id, shadow)
        self._start(shadow)
        return shadow

    # ------------------------------------------------------------------
    # finishing and the Commit Rule
    # ------------------------------------------------------------------

    def on_finished(self, execution: Execution) -> None:
        """Hand a finished optimistic shadow to the Termination Rule.

        Invariant checked: only optimistic shadows can run to completion —
        a speculative shadow must hit its Blocking Rule point first (its
        wait set wrote a page its program reads, by construction).
        """
        shadow = self._as_shadow(execution)
        if shadow.mode is not ShadowMode.OPTIMISTIC:
            raise InvariantViolation(
                f"speculative shadow of T{shadow.txn.txn_id} ran to completion "
                f"without blocking"
            )
        runtime = self._runtimes[shadow.txn.txn_id]
        self._emit("finish", runtime.txn_id, shadow)
        self._termination.on_finished(runtime)

    def commit_transaction(self, runtime: SCCTxnRuntime) -> None:
        """Apply the Commit Rule for ``runtime``'s finished optimistic shadow.

        The effects sweep visits the active transactions in their
        registration order.  With a time-invariant coverage policy it
        skips every transaction that is not a *candidate*: a reader of an
        installed page (the access index), or a transaction whose
        conflict table may name the committer (the reverse conflict
        index).  For any other transaction no shadow read an installed
        page and no record names the committer, so
        :meth:`_process_commit_effects` would change nothing.  Page
        readers alone do not suffice: the Read Rule records a conflict
        when a read is *requested*, and the read joins the index only at
        completion, so a reader whose read is in service when the writer
        commits is found through the reverse index only.  (Under the
        current Read and Write Rules every indexed reader of a page the
        committer wrote also has such a record, so the page readers add
        no candidate today; they keep the sweep sound should a rule stop
        recording one.)
        """
        shadow = runtime.optimistic
        if shadow.state is not ExecutionState.FINISHED:
            raise ProtocolError(
                f"T{runtime.txn_id} has no finished shadow to commit"
            )
        committer_id = runtime.txn_id
        write_pages = set(shadow.writeset)
        self._commit(shadow)
        self._emit("commit", committer_id, shadow)
        for speculative in runtime.speculatives.values():
            if speculative.alive:
                self._emit("kill", committer_id, speculative)
            self._kill(speculative)
        runtime.speculatives.clear()
        runtimes = self._runtimes
        del runtimes[committer_id]
        index = self._index
        index.remove_txn(committer_id)
        candidates = self._conflict_readers.pop(committer_id, None)
        self._termination.on_departure(runtime)
        if self._coverage_time_invariant:
            if candidates is None:
                candidates = set()
            for page in write_pages:
                candidates.update(index.readers_view(page))
            affected = (
                [rt for tid, rt in runtimes.items() if tid in candidates]
                if candidates
                else []
            )
        else:
            affected = list(runtimes.values())
        for other in affected:
            self._process_commit_effects(other, committer_id, write_pages)
        self._termination.on_system_change()

    def _process_commit_effects(
        self, runtime: SCCTxnRuntime, committer_id: int, write_pages: set[int]
    ) -> None:
        """Kill exposed shadows of one transaction and promote/restart.

        Parameters
        ----------
        runtime : SCCTxnRuntime
            An active transaction other than the committer.
        committer_id : int
            The transaction that just committed.
        write_pages : set of int
            The committer's installed write set; any shadow that read one
            of these pages is exposed and must die (Commit Rule).

        Notes
        -----
        The closing speculation rebuild is skipped when provably a no-op:
        nothing about this runtime changed (no conflict removed, no shadow
        killed, no promotion) and the coverage policy is time-invariant.
        New conflicts always trigger an eager rebuild at detection time
        (Read/Write Rules) and shadow exposure to its *own* wait set is
        reaped eagerly in ``_complete_step``, so an unchanged runtime's
        desired coverage is exactly its current coverage.  The same
        argument lets :meth:`commit_transaction` skip non-candidate
        runtimes altogether.
        """
        changed = runtime.conflicts.remove_writer(committer_id)
        for writer, speculative in list(runtime.speculatives.items()):
            if speculative.has_read_any(write_pages):
                del runtime.speculatives[writer]
                if speculative.alive:
                    self._emit("kill", runtime.txn_id, speculative)
                self._kill(speculative)
                changed = True
        optimistic = runtime.optimistic
        if optimistic.has_read_any(write_pages):
            was_finished = optimistic.state is ExecutionState.FINISHED
            self._emit("kill", runtime.txn_id, optimistic)
            self._kill(optimistic)
            if was_finished:
                self._termination.on_unfinished(runtime)
            self._adopt_replacement(runtime, committer_id)
            changed = True
        if changed or not self._coverage_time_invariant:
            self._rebuild_speculation(runtime)

    def _adopt_replacement(self, runtime: SCCTxnRuntime, committer_id: int) -> None:
        """Promote the latest-blocked survivor, or restart from scratch."""
        survivors = [
            (writer, s) for writer, s in runtime.speculatives.items() if s.alive
        ]
        replacement = select_replacement(survivors, committer_id)
        if replacement is not None:
            writer, chosen = replacement
            del runtime.speculatives[writer]
            chosen.promote()
            runtime.optimistic = chosen
            self._emit("promote", runtime.txn_id, chosen)
            if chosen.state is ExecutionState.BLOCKED:
                self._resume(chosen)
            # A RUNNING catch-up shadow simply keeps executing as the new
            # optimistic; a READY one is already scheduled to start.
        else:
            runtime.restarts += 1
            self._require_system().record_restart(runtime.spec)
            fresh = Shadow(runtime.spec, ShadowMode.OPTIMISTIC)
            runtime.optimistic = fresh
            self._emit("restart", runtime.txn_id, fresh)
            self._start(fresh)

    # ------------------------------------------------------------------
    # invariant checking (used heavily by the test-suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`InvariantViolation` on any broken SCC invariant."""
        system = self._require_system()
        for runtime in self._runtimes.values():
            optimistic = runtime.optimistic
            if optimistic.mode is not ShadowMode.OPTIMISTIC:
                raise InvariantViolation(
                    f"T{runtime.txn_id}: registered optimistic shadow has "
                    f"mode {optimistic.mode}"
                )
            if not optimistic.alive:
                raise InvariantViolation(
                    f"T{runtime.txn_id}: optimistic shadow is dead"
                )
            for writer, shadow in runtime.speculatives.items():
                if shadow.mode is not ShadowMode.SPECULATIVE:
                    raise InvariantViolation(
                        f"T{runtime.txn_id}: shadow for writer {writer} has "
                        f"mode {shadow.mode}"
                    )
                # Note: a speculative shadow MAY transiently be ahead of the
                # optimistic shadow — after a promotion adopts a blocked
                # shadow, a sibling that was mid-service keeps running to
                # its own (later) blocking point.  That is safe: it only
                # exposes itself to writers outside its wait set, which its
                # speculated serialization order permits, and the exposure
                # machinery reaps it if such a conflict materializes.
                if shadow.alive and self._shadow_invalid_for(shadow, writer):
                    raise InvariantViolation(
                        f"T{runtime.txn_id}: shadow waiting on T{writer} has "
                        f"read the writer's pages"
                    )
            for shadow in runtime.live_shadows():
                for page, record in shadow.readset.items():
                    if system.db.version(page) != record.version:
                        raise InvariantViolation(
                            f"live shadow of T{runtime.txn_id} holds a stale "
                            f"read of page {page}"
                        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _as_shadow(execution: Execution) -> Shadow:
        if not isinstance(execution, Shadow):
            raise ProtocolError("SCC protocols only drive Shadow executions")
        return execution
