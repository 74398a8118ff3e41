"""The certification (optimistic) scheduler variant (§2).

*"The conflict graph of the completed transactions is maintained.  The
active transactions are left free to run.  When an active transaction is
ready to terminate, a certification phase takes place, in which it is tested
whether the transaction can be added to the conflict graph without creating
cycles; if so, it is certified and completed, otherwise it aborts (and is
restarted)."*

Implementation notes
---------------------
* Reads execute freely and are timestamped with a global step counter;
  writes are installed atomically at certification (basic model), so a
  completed transaction's write time *is* its certification time.
* Certifying ``T`` inserts arcs against every completed ``U`` in the graph,
  directed by step order:

  - ``U`` wrote ``x`` (at cert time ``c``), ``T`` read ``x`` at ``t``:
    arc ``U -> T`` if ``c < t``, else ``T -> U`` (T read the overwritten
    value);
  - ``U`` accessed ``x``, ``T`` writes ``x`` now: arc ``U -> T`` (all of
    ``U``'s steps precede the present).

  If both directions arise for the same pair, or the arc set closes any
  cycle, certification fails and ``T`` aborts.
* Since the graph holds only completed transactions and the scheduler
  cannot see the read sets of running transactions, conditions C1/C2 — which
  quantify over *active tight predecessors* — are not evaluable here.  The
  sound deletion rule this class offers is Corollary 1's noncurrency test
  (:meth:`deletable_noncurrent`): any future cycle through a noncurrent
  transaction can be rerouted through the last writer of one of its
  entities, which is always present.  (See DESIGN.md, experiment E12.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.conditions import noncurrent_transactions
from repro.core.reduced_graph import ReducedGraph
from repro.errors import InvalidStepError, SchedulerError
from repro.model.entities import Entity
from repro.model.status import AccessMode, TxnState
from repro.model.steps import Begin, Read, Step, TxnId, Write
from repro.scheduler.base import SchedulerBase
from repro.scheduler.events import Decision, StepResult

__all__ = ["Certifier"]


class _RunningTxn:
    """Book-keeping for an uncertified transaction."""

    __slots__ = ("txn", "first_read", "last_read", "begun_at")

    def __init__(self, txn: TxnId, begun_at: int) -> None:
        self.txn = txn
        self.begun_at = begun_at
        self.first_read: Dict[Entity, int] = {}
        self.last_read: Dict[Entity, int] = {}

    def record_read(self, entity: Entity, time: int) -> None:
        self.first_read.setdefault(entity, time)
        self.last_read[entity] = time


class Certifier(SchedulerBase):
    """Optimistic conflict-graph scheduler (certification at completion).

    >>> from repro.model.steps import Begin, Read, Write
    >>> c = Certifier()
    >>> for s in [Begin("T1"), Read("T1", "x"), Begin("T2"),
    ...           Read("T2", "x"), Write("T2", {"x"})]:
    ...     r = c.feed(s)
    >>> r.decision   # T2 certified
    <Decision.ACCEPTED: 'accepted'>
    >>> c.feed(Write("T1", {"x"})).decision  # T1 read x before T2's write,
    ...                                      # and writes x after: cycle
    <Decision.REJECTED: 'rejected'>
    """

    def __init__(self, graph: Optional[ReducedGraph] = None) -> None:
        super().__init__(graph)
        self._running: Dict[TxnId, _RunningTxn] = {}
        self._clock = 0
        # Certification times of completed transactions (= write times).
        self._cert_time: Dict[TxnId, int] = {}

    def _process(self, step: Step) -> StepResult:
        self._clock += 1
        if isinstance(step, Begin):
            return self._on_begin(step)
        if isinstance(step, Read):
            return self._on_read(step)
        if isinstance(step, Write):
            return self._certify(step)
        raise InvalidStepError(
            f"{type(step).__name__} is not a basic-model step"
        )

    def _on_begin(self, step: Begin) -> StepResult:
        if step.txn in self._running or step.txn in self.graph:
            raise SchedulerError(f"transaction {step.txn!r} already present")
        self._running[step.txn] = _RunningTxn(step.txn, self._clock)
        return StepResult(step, Decision.ACCEPTED)

    def _on_read(self, step: Read) -> StepResult:
        running = self._running.get(step.txn)
        if running is None:
            raise SchedulerError(f"read by unknown/completed transaction {step.txn!r}")
        running.record_read(step.entity, self._clock)
        self.currency.on_read(step.txn, step.entity)
        return StepResult(step, Decision.ACCEPTED)

    # -- certification -------------------------------------------------------------

    def _certify(self, step: Write) -> StepResult:
        running = self._running.get(step.txn)
        if running is None:
            raise SchedulerError(f"write by unknown/completed transaction {step.txn!r}")
        arcs = self._certification_arcs(running, step)
        if arcs is None or self._would_cycle(arcs):
            del self._running[step.txn]
            self.currency.forget(step.txn)
            return StepResult(step, Decision.REJECTED, aborted=(step.txn,))
        # Certified: enter the graph as a completed transaction.
        self.graph.add_transaction(step.txn, TxnState.COMMITTED)
        for entity, _time in running.first_read.items():
            self.graph.record_access(step.txn, entity, AccessMode.READ)
        for entity in step.entities:
            self.graph.record_access(step.txn, entity, AccessMode.WRITE)
        for tail, head in arcs:
            self.graph.add_arc(tail, head)
        for entity in step.entities:
            self.currency.on_write(step.txn, entity)
        # Resident from certification on: a running transaction holds its
        # reads while absent from the graph.
        self.currency.on_enter(step.txn)
        self._cert_time[step.txn] = self._clock
        del self._running[step.txn]
        return StepResult(
            step, Decision.ACCEPTED, arcs_added=tuple(arcs), committed=(step.txn,)
        )

    def _certification_arcs(
        self, running: _RunningTxn, step: Write
    ) -> Optional[List[Tuple[TxnId, TxnId]]]:
        """Arcs to insert for *running*; ``None`` on an immediate 2-cycle.

        Only transactions that actually accessed one of *running*'s
        entities matter, so the scan iterates the graph's entity-index
        buckets for the read set and write set — not every node.
        """
        incoming: set[TxnId] = set()
        outgoing: set[TxnId] = set()
        txn = running.txn
        for entity, first_read in running.first_read.items():
            # other wrote entity; we read it.
            for other in self.graph.writers_of(entity):
                cert = self._cert_time.get(other, 0)
                if first_read < cert:
                    outgoing.add(other)  # we read the pre-image
                if running.last_read[entity] > cert:
                    incoming.add(other)  # we read their installed value
        for entity in step.entities:
            # other accessed entity; we write it now: their step is past.
            incoming.update(self.graph.accessors_of(entity))
        if incoming & outgoing:
            return None  # both directions against one transaction: 2-cycle
        arcs = [(other, txn) for other in sorted(incoming)]
        arcs.extend((txn, other) for other in sorted(outgoing))
        return arcs

    def _would_cycle(self, arcs: List[Tuple[TxnId, TxnId]]) -> bool:
        """Would inserting the certification arcs close a cycle?

        Arcs mix heads and tails (into and out of the certifying node), so
        the single-arc closure test is insufficient — but a cycle not
        involving the new node is impossible (the graph was acyclic), so
        any cycle must run ``txn -> o ->* i -> txn`` through one outgoing
        head ``o`` and one incoming tail ``i``.  With the bitset kernel
        the whole ``o ->* i`` probe family collapses to one AND per
        outgoing head: does ``o``'s closure row (or ``o`` itself) hit the
        mask of incoming tails?  No graph copy, no per-pair loop.
        """
        certifying = {t for t, _ in arcs} | {h for _, h in arcs}
        certifying -= self.graph.nodes()
        # All arcs are incident to the one node being certified.
        incoming = [t for t, h in arcs if h in certifying]
        outgoing = [h for t, h in arcs if t in certifying]
        graph = self.graph
        incoming_mask = graph.mask_of(incoming)
        return any(
            (graph.descendants_mask(o) | graph.bit_of(o)) & incoming_mask
            for o in outgoing
        )

    def accepted_subschedule(self):
        """Projection on the *certified* transactions.

        An optimistic scheduler's guarantee covers only transactions that
        passed certification: a still-running transaction may well have
        read an inconsistent snapshot — it would simply fail certification
        later.  (The preventive scheduler, by contrast, guarantees CSR for
        completed *and* active transactions at every prefix, which is why
        the base-class implementation keeps actives.)
        """
        committed = self.graph.committed_transactions()
        return self.input_schedule.projection(committed)

    # -- deletion support ------------------------------------------------------------

    def deletable_noncurrent(self) -> frozenset:
        """Completed transactions deletable by Corollary 1's criterion.

        A completed transaction is noncurrent when every entity it accessed
        has been overwritten since; rerouting through the (completed) last
        writer preserves every future cycle, so removal is safe even though
        the certifier cannot see active transactions.
        """
        return noncurrent_transactions(self.currency, self.graph)

    def running_transactions(self) -> frozenset:
        return frozenset(self._running)

    def delete_transaction(self, txn: TxnId) -> None:
        super().delete_transaction(txn)
        # A certification time is read only for a writer still in the
        # graph; kept past deletion it would make every core O(history).
        self._cert_time.pop(txn, None)

    # -- shard migration ------------------------------------------------------------

    def sync_clock(self, tick: int) -> None:
        """Keep certification timestamps order-consistent across shards.

        All comparisons (`read time` vs `cert time`) happen between
        transactions sharing an entity — i.e. within one footprint group —
        so any clock that is monotone in the *global* arrival order makes
        a sharded run decide exactly like a monolithic one, even after a
        group migrates between shards with different local step counts.
        """
        if tick > self._clock:
            self._clock = tick

    def _extract_extra_group(self, txns, entities):
        return {
            "running": {
                txn: self._running.pop(txn)
                for txn in sorted(txns)
                if txn in self._running
            },
            "cert_time": {
                txn: self._cert_time.pop(txn)
                for txn in sorted(txns)
                if txn in self._cert_time
            },
        }

    def _absorb_extra_group(self, extra):
        self._running.update(extra["running"])
        self._cert_time.update(extra["cert_time"])

    # -- checkpointing ------------------------------------------------------------

    def _snapshot_extra(self):
        return {
            "clock": self._clock,
            "cert_time": dict(sorted(self._cert_time.items())),
            "running": [
                {
                    "txn": running.txn,
                    "begun_at": running.begun_at,
                    "first_read": dict(sorted(running.first_read.items())),
                    "last_read": dict(sorted(running.last_read.items())),
                }
                for _, running in sorted(self._running.items())
            ],
        }

    def _restore_extra(self, extra):
        self._clock = extra["clock"]
        self._cert_time = dict(extra["cert_time"])
        self._running = {}
        for item in extra["running"]:
            running = _RunningTxn(item["txn"], item["begun_at"])
            running.first_read.update(item["first_read"])
            running.last_read.update(item["last_read"])
            self._running[running.txn] = running
