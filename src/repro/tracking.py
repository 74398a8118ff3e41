"""History-level tracking shared by schedulers and deletion conditions.

:class:`CurrencyTracker` lives outside both the scheduler and the core
packages because both need it: schedulers update it as steps execute, and
Corollary 1's noncurrency test (:mod:`repro.core.conditions`) reads it.
Currency is a property of the accepted schedule, **not** of the (possibly
reduced) conflict graph — §4 warns that after deletions the graph alone can
no longer support Corollary 1 (Example 1: after deleting ``T3``, the
noncurrent ``T2`` must not be removed).

Noncurrency is a *maintained* fact here, not a recomputed one (§4: a
deletion policy is worth running only if evaluating it is cheap next to
the growth it prevents).  Every access updates, in O(1), which current
values each transaction holds; a transaction whose last holding is
overwritten drops into a small candidate set, and Corollary 1's sweep
reads that set instead of walking every entity row and every retained
transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set

from repro.model.entities import Entity
from repro.model.steps import TxnId

__all__ = ["CurrencyTracker"]


@dataclass
class CurrencyTracker:
    """Who touched the *current* value of each entity.

    Corollary 1: a completed transaction is **current** if it has read or
    written the current value of some entity (the entity has not been
    subsequently overwritten).  We maintain, per entity, the last writer
    and the readers since that write; a transaction is current iff it
    appears in some entity's current set.

    **Serialized state** — the two per-entity rows, ``last_writer`` and
    ``readers_since_write``.  They are readable attributes, mutated only
    by the methods below; :func:`repro.io.currency_to_dict` writes exactly
    these and nothing else.

    **Derived state** — rebuilt from the rows (construction,
    :func:`repro.io.currency_from_dict`) and from the scheduler's graph
    (:meth:`on_enter` per node after a restore or a migration), never
    serialized:

    * ``_holds`` — the reverse index: per transaction, the entities whose
      current value it holds (as last writer and/or reader).  No empty
      sets are stored, so *current* is one dict lookup.
    * ``_resident`` — the transactions the scheduler told us are in its
      graph (:meth:`on_enter`) and has not since removed
      (:meth:`on_leave`, :meth:`forget`).
    * ``_idle`` — the Corollary 1 candidates.  **Invariant:** ``_idle`` is
      exactly the resident transactions holding no current value,
      ``_resident - _holds.keys()``.  A transaction enters it when it
      enters the graph holding nothing or when its last holding is
      overwritten (even while still active); it leaves when it gains a
      holding or leaves the graph — never because a query returned it.

    A transaction deleted while still current (eager-c1, optimal) keeps
    its rows — the rows are history — but is no longer resident, so when
    it later lapses it vanishes from ``_holds`` without becoming a
    candidate: auxiliary state is O(entity-row members + resident
    transactions), never O(history).

    >>> tracker = CurrencyTracker()
    >>> tracker.on_write("T1", "x"); tracker.on_read("T2", "x")
    >>> sorted(tracker.current_transactions())
    ['T1', 'T2']
    >>> tracker.on_write("T3", "x")   # overwrites: T1, T2 lose currency
    >>> sorted(tracker.current_transactions())
    ['T3']
    """

    last_writer: Dict[Entity, TxnId] = field(default_factory=dict)
    readers_since_write: Dict[Entity, Set[TxnId]] = field(default_factory=dict)
    _holds: Dict[TxnId, Set[Entity]] = field(
        default_factory=dict, init=False, repr=False
    )
    _resident: Set[TxnId] = field(default_factory=set, init=False, repr=False)
    _idle: Set[TxnId] = field(default_factory=set, init=False, repr=False)

    def __post_init__(self) -> None:
        # Rebuild the reverse index from whatever rows we were built with.
        for entity, writer in self.last_writer.items():
            self._holds.setdefault(writer, set()).add(entity)
        for entity, readers in self.readers_since_write.items():
            for reader in readers:
                self._holds.setdefault(reader, set()).add(entity)

    # -- graph membership (told by the scheduler) ----------------------------

    def on_enter(self, txn: TxnId) -> None:
        """*txn* entered the scheduler's graph (Begin; certification).

        A transaction may complete without ever holding anything
        (``Write(T, ∅)``) and is then noncurrent at once, so residency is
        learned here, not at the first access.
        """
        self._resident.add(txn)
        if txn not in self._holds:
            self._idle.add(txn)

    def on_leave(self, txn: TxnId) -> None:
        """*txn* left the graph without aborting — deleted by a policy, or
        migrating to another shard.  Its rows stay: they are history."""
        self._resident.discard(txn)
        self._idle.discard(txn)

    # -- accesses ------------------------------------------------------------

    def on_read(self, txn: TxnId, entity: Entity) -> None:
        self.readers_since_write.setdefault(entity, set()).add(txn)
        self._gain(txn, entity)

    def on_write(self, txn: TxnId, entity: Entity) -> None:
        self._release(entity, keep=txn)
        self.last_writer[entity] = txn
        self.readers_since_write[entity] = set()
        self._gain(txn, entity)

    def _release(self, entity: Entity, keep: Optional[TxnId] = None) -> None:
        """Every holder of *entity*'s current value except *keep* loses it
        (the value is being overwritten, or its rows are migrating)."""
        # ``_lose`` never touches the rows, so the reader set is walked in
        # place; the writer is handled apart unless it also read the value.
        readers = self.readers_since_write.get(entity, ())
        for reader in readers:
            if reader != keep:
                self._lose(reader, entity)
        writer = self.last_writer.get(entity)
        if writer is not None and writer != keep and writer not in readers:
            self._lose(writer, entity)

    def _gain(self, txn: TxnId, entity: Entity) -> None:
        held = self._holds.get(txn)
        if held is None:
            self._holds[txn] = {entity}
            self._idle.discard(txn)
        else:
            held.add(entity)

    def _lose(self, txn: TxnId, entity: Entity) -> None:
        held = self._holds[txn]
        held.discard(entity)
        if not held:
            del self._holds[txn]
            if txn in self._resident:
                self._idle.add(txn)

    def forget(self, txn: TxnId) -> None:
        """Erase an aborted transaction from the current sets.

        In the basic model an aborted transaction never *wrote* anything
        (its final write was the rejected step), so only its reads need
        removal; the writer cleanup handles the multiwrite model, where an
        aborted transaction's installed values are undone.  Touches only
        the rows *txn* itself holds.
        """
        self._resident.discard(txn)
        self._idle.discard(txn)
        for entity in self._holds.pop(txn, ()):
            if self.last_writer.get(entity) == txn:
                del self.last_writer[entity]
            readers = self.readers_since_write.get(entity)
            if readers is not None:
                readers.discard(txn)

    # -- shard migration -----------------------------------------------------

    def extract(self, entities: Iterable[Entity]) -> "CurrencyTracker":
        """Remove and return the tracking rows of *entities*.

        Shard migration: currency is per-entity state, so a footprint
        group's rows move with the group — the part tracker feeds
        :meth:`absorb` on the target shard's tracker.  Holdings follow
        their rows; residency follows the graph nodes (the scheduler
        reports those with :meth:`on_leave` here and :meth:`on_enter`
        on the target).
        """
        last_writer: Dict[Entity, TxnId] = {}
        readers_since_write: Dict[Entity, Set[TxnId]] = {}
        for entity in entities:
            self._release(entity)
            if entity in self.last_writer:
                last_writer[entity] = self.last_writer.pop(entity)
            readers = self.readers_since_write.pop(entity, None)
            if readers is not None:
                readers_since_write[entity] = readers
        return CurrencyTracker(last_writer, readers_since_write)

    def absorb(self, part: "CurrencyTracker") -> None:
        """Merge rows produced by :meth:`extract` (disjoint entity sets)."""
        self.last_writer.update(part.last_writer)
        self.readers_since_write.update(part.readers_since_write)
        for txn, held in part._holds.items():
            for entity in held:
                self._gain(txn, entity)

    # -- queries -------------------------------------------------------------

    def current_transactions(self) -> FrozenSet[TxnId]:
        return frozenset(self._holds)

    def is_current(self, txn: TxnId) -> bool:
        return txn in self._holds

    def idle_transactions(self) -> FrozenSet[TxnId]:
        """Resident transactions holding no current value — Corollary 1's
        candidates, completed or not.  A pure view.

        *Resident* is what the scheduler reported through
        :meth:`on_enter`/:meth:`on_leave`: a tracker fed accesses only,
        beside a graph it was never told about, has no candidates.
        """
        return frozenset(self._idle)

    def iter_idle(self) -> Iterator[TxnId]:
        """:meth:`idle_transactions` without the copy, for the sweep path;
        do not tell the tracker anything while iterating."""
        return iter(self._idle)
