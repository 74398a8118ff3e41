"""The unified engine façade: §4's scheduling loop as one configurable object.

§4 defines the combined algorithm: *"A deletion policy together with F
(Rules 1-3) specify the behavior of the scheduling algorithm ... when a new
transaction step arrives, the function F is applied to the current graph
giving a new graph G; then the set of nodes P(G) is removed."*  Everything
in this repository that drives that loop — the CLI, the experiment
runner, the durability and serving layers — goes through :class:`Engine`:

* **Registries** — schedulers and policies are named strings resolved via
  :mod:`repro.registry`, with model-compatibility validated when the
  :class:`EngineConfig` is constructed (``eager-c4`` only pairs with
  ``predeclared``, and so on).
* **Event hooks** — observers subscribe to ``on_step``, ``on_abort``,
  ``on_commit``, ``on_delete``, ``on_sweep`` (and ``on_step_end``), so
  statistics, metric sampling, tracing, and validation are composable
  subscribers instead of hard-coded fields.
* **Batched sweeps** — ``sweep_interval=k`` invokes the deletion policy
  once every *k* steps instead of after every step, amortizing the
  policy's graph scan over the batch (the paper never requires a deletion
  after *each* step; any interleaving of safe deletions is covered by
  Theorem 2).  :meth:`Engine.feed_batch` drives a whole iterable lazily
  and returns an aggregate :class:`BatchResult`.
* **Dirty-set sweeps** — between sweeps the engine tracks which completed
  transactions' deletion-condition status could have changed (new arcs,
  completions, aborts — via the step outcomes it already observes; see
  :mod:`repro.core.dirty`).  A cadence-due sweep whose dirty set is empty
  is skipped outright (``skip_clean_sweeps=False`` restores the classic
  unconditional cadence), and dirty-consuming policies (``eager-c1``,
  ``eager-c3``, ``eager-c4``) re-examine only the dirty transactions —
  with selections provably identical to a full scan.
* **Checkpoint/restore** — :meth:`Engine.snapshot` captures the full loop
  state (graph, currency, history log, variant-specific scheduler state,
  statistics, sweep cadence) as a JSON-ready dict built on the
  :mod:`repro.io` serializers; :meth:`Engine.restore` rebuilds a live
  engine that continues exactly where the snapshot left off.
* **History protocol** — what grows with *history* rather than live
  state is one :class:`~repro.scheduler.history.HistoryLog` per engine,
  each step recorded once: results (their steps are the input
  schedule), a delaying scheduler's execution order, and deletions with
  their ticks (what :meth:`audit` reads).  ``snapshot(include_logs=False)``
  is the history-free core, ``history_marks()`` says how much history
  exists, ``history_since(marks)`` returns the tails as rows (format 3
  keys ``results``, ``executed``, ``deleted``; a :class:`ShardedEngine`
  adds its shards' as ``shard_<key>`` lists), and
  ``repro.io.restore_engine(core, history=tails)`` splices them back.

>>> engine = Engine(scheduler="conflict-graph", policy="eager-c1",
...                 sweep_interval=2, verify_c2=True)
>>> from repro.workloads.traces import example1_schedule
>>> batch = engine.feed_batch(example1_schedule())
>>> batch.accepted, engine.stats.deletions >= 1
(8, True)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro import registry as _registry
from repro.core.dirty import DirtyTracker
from repro.core.policies import DeletionPolicy, NeverDeletePolicy
from repro.core.set_conditions import can_delete_set
from repro.errors import (
    EngineError,
    IncompatiblePolicyError,
    SnapshotError,
    TransactionStateError,
    UnknownNameError,
    UnsafeDeletionError,
)
from repro.model.schedule import Schedule
from repro.model.status import TxnState
from repro.model.steps import Begin, BeginDeclared, Step, TxnId
from repro.scheduler.base import SchedulerBase
from repro.scheduler.events import Decision, StepResult
from repro.scheduler.history import HistoryLog
from repro.sharding import FootprintRouter, Migration, footprint_of, migrate_group

__all__ = [
    "SNAPSHOT_FORMAT",
    "SHARDED_SNAPSHOT_FORMAT",
    "AuditRecord",
    "GcStats",
    "EngineObserver",
    "CallbackObserver",
    "StatsObserver",
    "SweepReport",
    "BatchResult",
    "EngineConfig",
    "Engine",
    "ShardedEngine",
    "build_engine",
]

SNAPSHOT_FORMAT = 3
SHARDED_SNAPSHOT_FORMAT = 3
SHARDED_SNAPSHOT_KIND = "sharded-engine"

_BEGIN_STEPS = (Begin, BeginDeclared)

#: Observer hook names, in firing order within one step.
_HOOK_NAMES = (
    "on_step",
    "on_abort",
    "on_commit",
    "on_delete",
    "on_sweep",
    "on_step_end",
)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@dataclass
class GcStats:
    """Running totals for one engine (né garbage-collected scheduler);
    an engine reads ``deleted_ids`` and ``deletions`` off its history log
    and ``policy_invocations`` off its sweep counter."""

    steps_fed: int = 0
    deletions: int = 0
    policy_invocations: int = 0
    peak_graph_size: int = 0
    peak_retained_completed: int = 0
    deleted_ids: List[TxnId] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        payload["deleted_ids"] = list(self.deleted_ids)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "GcStats":
        counts = {
            f.name: int(payload.get(f.name, 0))
            for f in dataclasses.fields(cls) if f.name != "deleted_ids"
        }
        return cls(**counts, deleted_ids=list(payload.get("deleted_ids", ())))


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    """One policy invocation: when it ran and what it selected."""

    sweep_index: int
    step_index: int
    selected: Tuple[TxnId, ...]

    @property
    def deleted_anything(self) -> bool:
        return bool(self.selected)


@dataclass(frozen=True)
class AuditRecord:
    """One transaction's fate, answered from a single accessor.

    The serving read path (and any post-deletion auditor) needs "what
    happened to T?" answered without cross-referencing the live graph,
    the tombstone set, the aborted set, and the deletion log by hand —
    :meth:`Engine.audit` / :meth:`ShardedEngine.audit` collapse those
    four structures into one record.

    ``status`` is one of:

    * ``"live"`` — still in the maintained graph (``state`` carries the
      fine-grained ACTIVE/FINISHED/COMMITTED value);
    * ``"deleted"`` — completed and then removed by a deletion policy;
      the graph keeps only its id-reuse tombstone.  ``deleted_at`` is the
      step index (engine-local logical tick in sharded engines) of the
      sweep that removed it;
    * ``"aborted"`` — rejected or cascade-aborted; its steps are ignored;
    * ``"unknown"`` — never seen.

    ``accepted_at`` is the step index at which the transaction's BEGIN
    was accepted.  Both positions are read off the engine's history log,
    which checkpoints persist: a restored, recovered, following or
    promoted engine answers all five fields as the engine that wrote the
    log did.
    """

    txn: TxnId
    status: str
    state: Optional[str] = None
    accepted_at: Optional[int] = None
    deleted_at: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "txn": self.txn,
            "status": self.status,
            "state": self.state,
            "accepted_at": self.accepted_at,
            "deleted_at": self.deleted_at,
        }


class EngineObserver:
    """Base observer: subclass and override the hooks you care about.

    Hook firing order per fed step: ``on_step`` (scheduler outcome is in),
    then ``on_abort``/``on_commit`` when the step aborted or committed
    transactions, then — if the sweep cadence is due — ``on_delete`` (only
    when the policy selected something) and ``on_sweep``, and finally
    ``on_step_end`` once the step's full (step, deletion) pair is done.
    """

    def on_step(self, engine: "Engine", result: StepResult) -> None:
        """A step was processed by the scheduler (before any sweep)."""

    def on_abort(
        self, engine: "Engine", result: StepResult, aborted: Tuple[TxnId, ...]
    ) -> None:
        """The step aborted one or more transactions (cascades included)."""

    def on_commit(
        self, engine: "Engine", result: StepResult, committed: Tuple[TxnId, ...]
    ) -> None:
        """The step committed one or more transactions."""

    def on_delete(
        self, engine: "Engine", deleted: Tuple[TxnId, ...], step_index: int
    ) -> None:
        """A sweep removed *deleted* from the graph (sorted order)."""

    def on_sweep(self, engine: "Engine", report: SweepReport) -> None:
        """The deletion policy was invoked (even if it selected nothing)."""

    def on_step_end(self, engine: "Engine", result: StepResult) -> None:
        """The step's full (step, deletion) pair is complete."""


class CallbackObserver(EngineObserver):
    """Adapt plain callables into an observer.

    >>> deleted = []
    >>> obs = CallbackObserver(on_delete=lambda e, ids, i: deleted.extend(ids))
    """

    def __init__(
        self,
        on_step: Optional[Callable] = None,
        on_abort: Optional[Callable] = None,
        on_commit: Optional[Callable] = None,
        on_delete: Optional[Callable] = None,
        on_sweep: Optional[Callable] = None,
        on_step_end: Optional[Callable] = None,
    ) -> None:
        for name, fn in (
            ("on_step", on_step),
            ("on_abort", on_abort),
            ("on_commit", on_commit),
            ("on_delete", on_delete),
            ("on_sweep", on_sweep),
            ("on_step_end", on_step_end),
        ):
            if fn is not None:
                setattr(self, name, fn)


class StatsObserver(EngineObserver):
    """Maintains the per-step counters of :class:`GcStats` (steps fed and
    the peaks).  Every engine carries one; ``engine.stats`` adds what the
    engine counts itself."""

    def __init__(self, stats: Optional[GcStats] = None) -> None:
        self.stats = stats if stats is not None else GcStats()

    def on_step(self, engine: "Engine", result: StepResult) -> None:
        self.stats.steps_fed += 1

    def on_step_end(self, engine: "Engine", result: StepResult) -> None:
        # Peaks are measured after the (step, deletion) pair completes.
        # The completed count comes from the maintained state mask (one
        # bit_count), not a per-step frozenset materialization.
        graph = engine.scheduler.graph
        stats = self.stats
        size = len(graph)
        if size > stats.peak_graph_size:
            stats.peak_graph_size = size
        completed = graph.completed_count()
        if completed > stats.peak_retained_completed:
            stats.peak_retained_completed = completed


# ---------------------------------------------------------------------------
# Batch results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchResult:
    """Aggregate outcome of one :meth:`Engine.feed_batch` call."""

    steps_fed: int
    accepted: int
    rejected: int
    delayed: int
    ignored: int
    aborted: Tuple[TxnId, ...]
    committed: Tuple[TxnId, ...]
    deleted: Tuple[TxnId, ...]
    sweeps: int
    results: Tuple[StepResult, ...]

    def summary(self) -> Dict[str, object]:
        return {
            "steps_fed": self.steps_fed,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "delayed": self.delayed,
            "ignored": self.ignored,
            "aborted_txns": len(self.aborted),
            "committed_txns": len(self.committed),
            "deleted_txns": len(self.deleted),
            "sweeps": self.sweeps,
        }


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineConfig:
    """Declarative engine recipe: registry names plus loop knobs.

    Names are resolved (aliases canonicalized) and the scheduler/policy
    pairing is model-checked **at construction time**, so an invalid
    configuration never produces a half-built engine.

    >>> EngineConfig(scheduler="conflict", policy="eager-c1").scheduler
    'conflict-graph'
    """

    scheduler: str = "conflict-graph"
    policy: str = "never"
    sweep_interval: int = 1
    verify_c2: bool = False
    #: Skip cadence sweeps that provably cannot select anything (see
    #: "Dirty-set sweeps" in the Engine docstring).  Off = the classic
    #: unconditional §4 cadence.
    skip_clean_sweeps: bool = True
    scheduler_options: Dict[str, Any] = field(default_factory=dict)
    policy_options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "scheduler", _registry.schedulers.resolve(self.scheduler)
        )
        object.__setattr__(
            self, "policy", _registry.policies.resolve(self.policy)
        )
        if not isinstance(self.sweep_interval, int) or self.sweep_interval < 1:
            raise EngineError(
                f"sweep_interval must be a positive integer, got "
                f"{self.sweep_interval!r}"
            )
        _registry.check_compatible(self.scheduler, self.policy)
        object.__setattr__(
            self, "scheduler_options", dict(self.scheduler_options)
        )
        object.__setattr__(self, "policy_options", dict(self.policy_options))

    def build_scheduler(self) -> SchedulerBase:
        return _registry.create_scheduler(
            self.scheduler, **self.scheduler_options
        )

    def build_policy(self) -> DeletionPolicy:
        return _registry.create_policy(self.policy, **self.policy_options)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "policy": self.policy,
            "sweep_interval": self.sweep_interval,
            "verify_c2": self.verify_c2,
            "skip_clean_sweeps": self.skip_clean_sweeps,
            "scheduler_options": dict(self.scheduler_options),
            "policy_options": dict(self.policy_options),
        }


# ---------------------------------------------------------------------------
# What every engine answers the same way
# ---------------------------------------------------------------------------


class BatchFacade:
    """``feed_many`` / ``feed_batch`` over the surface every engine —
    :class:`Engine`, :class:`ShardedEngine`, the durable wrapper — shares:
    ``feed``, ``flush``, ``stats``, ``sweeps_run``.  Each is looked up
    per call, so a wrapper that logs ``feed`` (or a proxy that times it)
    sees every step of a batch."""

    def feed_many(self, steps: Iterable[Step]) -> List[StepResult]:
        """Feed steps lazily; returns the per-step results."""
        return [self.feed(step) for step in steps]

    def feed_batch(
        self, steps: Iterable[Step], *, flush: bool = False
    ) -> BatchResult:
        """Feed a whole iterable lazily and aggregate the outcome.

        Steps are pulled from *steps* one at a time (generators welcome;
        nothing is materialized up front).  ``flush=True`` ends the batch
        with :meth:`flush`: deferred BEGINs are materialized and a final
        sweep runs wherever steps were fed since the last one, so the
        batch ends with the policy's verdict applied.
        """
        results: List[StepResult] = []
        counts = {decision: 0 for decision in Decision}
        aborted: List[TxnId] = []
        committed: List[TxnId] = []
        deleted_start = len(self.stats.deleted_ids)
        sweeps_start = self.sweeps_run
        for step in steps:
            result = self.feed(step)
            results.append(result)
            counts[result.decision] += 1
            aborted.extend(result.aborted)
            committed.extend(result.committed)
        if flush:
            self.flush()
        return BatchResult(
            steps_fed=len(results),
            accepted=counts[Decision.ACCEPTED],
            rejected=counts[Decision.REJECTED],
            delayed=counts[Decision.DELAYED],
            ignored=counts[Decision.IGNORED],
            aborted=tuple(aborted),
            committed=tuple(committed),
            deleted=tuple(self.stats.deleted_ids[deleted_start:]),
            sweeps=self.sweeps_run - sweeps_start,
            results=tuple(results),
        )


class _EngineFacade(BatchFacade):
    """The batch façade plus the one :class:`AuditRecord` assembly: an
    engine says where a transaction is now (``_fate(txn)`` → status and
    fine-grained state or ``None``) and its ``history`` log says when."""

    def audit(self, txn: TxnId) -> AuditRecord:
        """One transaction's fate — see :class:`AuditRecord`.

        Answers "was it accepted, is it still retained, when was it
        deleted" in one call; the serving read path exposes it per
        tenant.
        """
        status, state = self._fate(txn)
        if status == "unknown":
            return AuditRecord(txn, status)
        # Only a deleted transaction has a deletion tick (ids are never
        # reused), so that lookup is None for every other status.
        history = self.history
        return AuditRecord(
            txn, status, state,
            history.accepted_at.get(txn), history.deleted_at.get(txn),
        )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class Engine(_EngineFacade):
    """§4's combined scheduling algorithm behind one stable API.

    Construct from registry names (directly or via an
    :class:`EngineConfig`)::

        Engine(scheduler="predeclared", policy="eager-c4", sweep_interval=8)

    or adopt pre-built instances (no registry validation — the caller
    vouches for the pairing)::

        Engine.from_parts(ConflictGraphScheduler(), EagerC1Policy())

    Feed steps with :meth:`feed` / :meth:`feed_batch`; subscribe observers
    with :meth:`subscribe`; checkpoint with :meth:`snapshot` /
    :meth:`restore`.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        observers: Iterable[EngineObserver] = (),
        **overrides: Any,
    ) -> None:
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        self._setup(
            config,
            config.build_scheduler(),
            config.build_policy(),
            config.sweep_interval,
            config.verify_c2,
            observers,
            skip_clean_sweeps=config.skip_clean_sweeps,
        )

    @classmethod
    def from_parts(
        cls,
        scheduler: SchedulerBase,
        policy: Optional[DeletionPolicy] = None,
        *,
        sweep_interval: int = 1,
        verify_c2: bool = False,
        skip_clean_sweeps: bool = True,
        observers: Iterable[EngineObserver] = (),
    ) -> "Engine":
        """Wrap pre-built scheduler/policy instances.

        Registry compatibility validation is **skipped** — this is the
        adoption path for custom (unregistered) components.  When both
        types are registered, an equivalent :class:`EngineConfig` is
        derived so :meth:`snapshot` works; note that constructor options
        of the instances are not recoverable, so a restored engine gets
        registry-default options.
        """
        chosen_policy = policy if policy is not None else NeverDeletePolicy()
        if sweep_interval < 1:
            raise EngineError(
                f"sweep_interval must be a positive integer, got "
                f"{sweep_interval!r}"
            )
        try:
            config: Optional[EngineConfig] = EngineConfig(
                scheduler=_registry.scheduler_name_of(scheduler),
                policy=_registry.policy_name_of(chosen_policy),
                sweep_interval=sweep_interval,
                verify_c2=verify_c2,
                skip_clean_sweeps=skip_clean_sweeps,
            )
        except (UnknownNameError, IncompatiblePolicyError):
            config = None
        engine = cls.__new__(cls)
        engine._setup(
            config, scheduler, chosen_policy, sweep_interval, verify_c2,
            observers, skip_clean_sweeps=skip_clean_sweeps,
        )
        return engine

    def _setup(
        self,
        config: Optional[EngineConfig],
        scheduler: SchedulerBase,
        policy: DeletionPolicy,
        sweep_interval: int,
        verify_c2: bool,
        observers: Iterable[EngineObserver],
        skip_clean_sweeps: bool = True,
    ) -> None:
        self.config = config
        self.scheduler = scheduler
        self.policy = policy
        self.sweep_interval = sweep_interval
        self.verify_c2 = verify_c2
        self.skip_clean_sweeps = skip_clean_sweeps
        self._stats_observer = StatsObserver()
        self._observers: List[EngineObserver] = [self._stats_observer]
        self._observers.extend(observers)
        self._rebuild_hooks()
        self._step_index = 0
        self._steps_since_sweep = 0
        self._sweeps_run = 0
        self._sweeps_skipped = 0
        # Sweep-gating state (see "Dirty-set sweeps" in the class
        # docstring).  Conservative until the first sweep: the gate opens
        # and the tracker starts ALL-dirty.
        self._gate_policy: Optional[DeletionPolicy] = None
        self._gate_open = True
        self._dirty_tracker: Optional[DirtyTracker] = None
        self._bind_policy()

    def _bind_policy(self) -> None:
        """(Re)derive gating state from the current policy.

        Policies can be swapped mid-run (``engine.policy`` is a plain
        attribute), so binding is re-checked by identity on every feed/sweep;
        a swap resets the gate and dirty tracker to their conservative
        states.
        """
        if self._gate_policy is self.policy:
            return
        self._gate_policy = self.policy
        self._gate_open = True
        events = getattr(self.policy, "dirty_events", None)
        self._dirty_tracker = DirtyTracker(events) if events else None
        self._completion_gated = bool(
            getattr(self.policy, "completion_gated", False)
        )

    # -- observers ---------------------------------------------------------------

    def subscribe(self, observer: EngineObserver) -> EngineObserver:
        """Attach *observer*; returns it (handy for inline construction).

        Hook handlers are snapshotted per subscription: only hooks an
        observer actually overrides (or was given as callables) are
        dispatched, so an unobserved hook costs one empty-list test per
        step instead of a getattr loop.  After monkey-patching an
        already-attached observer's hooks, unsubscribe it and subscribe
        it again (subscribing twice dispatches its hooks twice).
        """
        self._observers.append(observer)
        self._rebuild_hooks()
        return observer

    def unsubscribe(self, observer: EngineObserver) -> None:
        self._observers.remove(observer)
        self._rebuild_hooks()

    def _rebuild_hooks(self) -> None:
        """Per-hook handler lists, skipping base-class no-op definitions."""
        hooks: Dict[str, List[Callable]] = {name: [] for name in _HOOK_NAMES}
        for observer in self._observers:
            for name in _HOOK_NAMES:
                handler = getattr(observer, name)
                # Bound methods expose the underlying function; plain
                # callables (CallbackObserver instance attributes) count
                # as overrides by construction.
                func = getattr(handler, "__func__", handler)
                if func is not getattr(EngineObserver, name):
                    hooks[name].append(handler)
        self._hooks = hooks

    # -- the §4 loop -------------------------------------------------------------

    def feed(self, step: Step) -> StepResult:
        """Apply F to the current graph; sweep when the cadence is due.

        This is the per-step floor under every policy, so nothing here is
        a helper call: the policy binding is the identity test of
        :meth:`_bind_policy`, and a hook is a loop over its handler list
        (read from ``self._hooks`` each time, so a handler that subscribes
        an observer takes effect at the next hook).
        """
        if self._gate_policy is not self.policy:
            self._bind_policy()
        scheduler = self.scheduler
        tracker = self._dirty_tracker
        if tracker is not None:
            # Asserted per step (not per bind) because restore_state can
            # swap the graph object underneath us; an attribute check +
            # set is nanoseconds next to the step itself.
            scheduler.graph.enable_abort_impact()
        result = scheduler.feed(step)
        self._step_index += 1
        self._steps_since_sweep += 1
        if result.committed or result.aborted:
            self._gate_open = True
        if tracker is not None:
            tracker.observe(scheduler.graph, result)
        for handler in self._hooks["on_step"]:
            handler(self, result)
        if result.aborted:
            for handler in self._hooks["on_abort"]:
                handler(self, result, result.aborted)
        if result.committed:
            for handler in self._hooks["on_commit"]:
                handler(self, result, result.committed)
        if self._steps_since_sweep >= self.sweep_interval:
            if self.skip_clean_sweeps and self._sweep_is_clean():
                # Nothing a policy could newly select: skip the invocation
                # outright, keep the cadence.
                self._steps_since_sweep = 0
                self._sweeps_skipped += 1
            else:
                self.sweep()
        for handler in self._hooks["on_step_end"]:
            handler(self, result)
        return result

    def _sweep_is_clean(self) -> bool:
        """Can the due sweep be skipped without changing any selection?

        * dirty-consuming policies: yes iff the dirty set is empty;
        * completion-gated policies: yes iff no transaction completed or
          aborted since the last sweep;
        * anything else: never skipped.
        """
        if self._dirty_tracker is not None:
            return self._dirty_tracker.is_empty
        return self._completion_gated and not self._gate_open

    def flush(self) -> None:
        """The ``feed_batch(flush=True)`` epilogue: a final sweep when
        steps were fed since the last one (a monolith defers nothing)."""
        if self._steps_since_sweep:
            self.sweep()

    def flush_pending(self) -> int:
        """Deferred BEGINs materialized — always 0: a monolith feeds every
        BEGIN at once (only a router defers; see :class:`ShardedEngine`)."""
        return 0

    def sweep(self) -> FrozenSet[TxnId]:
        """Invoke the policy now and delete its selection; returns it.

        Emits ``on_delete`` (when anything was selected) and ``on_sweep``.
        Resets the batched-sweep cadence and consumes the gating state —
        an explicit call always invokes the policy (no skip), with the
        dirty set when the policy declares it consumes one.
        """
        if self._gate_policy is not self.policy:
            self._bind_policy()
        if self._dirty_tracker is not None:
            dirty = self._dirty_tracker.snapshot()
            selected = self.policy.select(self.scheduler, dirty=dirty)
            self._dirty_tracker.clear()
        else:
            selected = self.policy.select(self.scheduler)
        self._gate_open = False
        self._sweeps_run += 1
        self._steps_since_sweep = 0
        ordered = tuple(sorted(selected)) if selected else ()
        if ordered:
            if self.verify_c2 and not can_delete_set(
                self.scheduler.graph, selected
            ):
                raise UnsafeDeletionError(
                    ordered,
                    f"policy {self.policy.name!r} selected a C2-violating set",
                )
            self.scheduler.delete_transactions(ordered)
            for handler in self._hooks["on_delete"]:
                handler(self, ordered, self._step_index)
        report = SweepReport(self._sweeps_run, self._step_index, ordered)
        for handler in self._hooks["on_sweep"]:
            handler(self, report)
        return frozenset(selected)

    def note_migration_in(self, txns: Iterable[TxnId]) -> None:
        """A shard migration moved *txns* into this engine's scheduler.

        Migration changes nothing semantic (the moved group's subgraph is
        bit-identical), but any dirtiness the *source* engine was still
        holding for these transactions must not be lost — so they are
        conservatively marked dirty here and the completion gate opens.
        Over-marking never changes a selection (the policy just re-tests
        a condition that is still false).
        """
        self._bind_policy()
        self._gate_open = True
        if self._dirty_tracker is not None:
            self._dirty_tracker.mark(txns)

    # -- views -------------------------------------------------------------------

    @property
    def stats(self) -> GcStats:
        stats = self._stats_observer.stats
        stats.deleted_ids = self.scheduler.history.deleted
        stats.deletions = len(stats.deleted_ids)
        stats.policy_invocations = self._sweeps_run
        return stats

    @property
    def history(self) -> HistoryLog:
        """The scheduler's log, which also holds the sweeps' deletions."""
        return self.scheduler.history

    @property
    def graph(self):
        return self.scheduler.graph

    @property
    def currency(self):
        return self.scheduler.currency

    @property
    def aborted(self):
        return self.scheduler.aborted

    @property
    def step_index(self) -> int:
        """Steps fed so far."""
        return self._step_index

    @property
    def sweeps_run(self) -> int:
        return self._sweeps_run

    @property
    def sweeps_skipped(self) -> int:
        """Cadence-due sweeps skipped because nothing could be selected."""
        return self._sweeps_skipped

    @property
    def steps_since_sweep(self) -> int:
        return self._steps_since_sweep

    def accepted_subschedule(self):
        return self.scheduler.accepted_subschedule()

    def live_transactions(self) -> FrozenSet[TxnId]:
        """Nodes of the maintained graph (mirrors :class:`ShardedEngine`)."""
        return self.scheduler.graph.nodes()

    def deleted_transactions(self) -> FrozenSet[TxnId]:
        """Ids removed by sweeps so far (the graph's tombstone set)."""
        return self.scheduler.graph.deleted_transactions()

    def _fate(self, txn: TxnId) -> Tuple[str, Optional[str]]:
        graph = self.scheduler.graph
        if txn in graph:
            return "live", graph.state(txn).value
        if graph.is_deleted(txn):
            return "deleted", None
        if txn in self.scheduler.aborted or graph.is_aborted(txn):
            return "aborted", None
        return "unknown", None

    def __repr__(self) -> str:
        return (
            f"Engine({type(self.scheduler).__name__}, "
            f"policy={self.policy.name!r}, "
            f"sweep_interval={self.sweep_interval}, "
            f"steps={self._step_index}, deletions={self.stats.deletions})"
        )

    # -- checkpoint / restore ------------------------------------------------------

    def snapshot(self, *, include_logs: bool = True) -> Dict[str, Any]:
        """A JSON-ready checkpoint of the whole loop.

        Requires a registry-derived :class:`EngineConfig` (engines adopted
        via :meth:`from_parts` with unregistered components cannot promise
        a faithful rebuild and raise :class:`EngineError`).

        The one history log rides in ``scheduler_state`` under the
        format-3 delta keys (``results``, ``executed`` for a delaying
        scheduler, ``deleted`` rows), so ``stats`` carries no
        ``deleted_ids``.  ``include_logs=False`` is
        the history-free **core**: the log and the graph's tombstone list
        are left out, their lengths recorded instead.  A core is **not**
        restorable on its own: persist :meth:`history_since` tails
        beside it and hand both to
        ``repro.io.restore_engine(core, history=tails)``.
        """
        if self.config is None:
            raise EngineError(
                "cannot snapshot an engine built from unregistered parts; "
                "register the scheduler/policy types (repro.registry) first"
            )
        stats = self.stats.as_dict()
        del stats["deleted_ids"]
        return {
            "format": SNAPSHOT_FORMAT,
            "config": self.config.as_dict(),
            "engine": {
                "step_index": self._step_index,
                "steps_since_sweep": self._steps_since_sweep,
                "sweeps_run": self._sweeps_run,
                "sweeps_skipped": self._sweeps_skipped,
                "gate_open": self._gate_open,
                "dirty": (
                    None
                    if self._dirty_tracker is None
                    else self._dirty_tracker.state_dict()
                ),
            },
            "stats": stats,
            "scheduler_state": self.scheduler.snapshot_state(
                include_logs=include_logs
            ),
        }

    # -- history protocol ----------------------------------------------------------

    def history_marks(self) -> Dict[str, Any]:
        """How much history exists now (:meth:`HistoryLog.marks`)."""
        return self.scheduler.history.marks()

    def history_since(self, marks: Dict[str, Any]) -> Dict[str, Any]:
        """The rows past *marks* (:meth:`HistoryLog.since`)."""
        return self.scheduler.history.since(marks)

    @staticmethod
    def splice_history(core: Dict[str, Any], deltas) -> None:
        """Make a ``snapshot(include_logs=False)`` *core* restorable, in
        place, from the ordered :meth:`history_since` tails covering it
        (:meth:`HistoryLog.splice`)."""
        layout = set(HistoryLog.keys_of(core["scheduler_state"]))
        Engine._install_history(core, deltas, layout)

    @staticmethod
    def _install_history(core, deltas, layout, *, shard=None) -> None:
        """Splice the log this *core*'s scheduler needs — from a sharded
        delta's ``shard_<key>`` lists when *shard* is given."""
        HistoryLog.splice(core["scheduler_state"], deltas, layout, shard=shard)

    @classmethod
    def restore(
        cls,
        snapshot: Dict[str, Any],
        *,
        observers: Iterable[EngineObserver] = (),
    ) -> "Engine":
        """Rebuild a live engine from a :meth:`snapshot` payload.

        The restored engine continues exactly where the snapshot left off:
        same graph, currency, history log (so :meth:`audit` answers as
        before), scheduler-variant state, stats, and sweep cadence.
        *observers* are attached fresh (observers are not serialized) and
        see only post-restore events.
        """
        if not isinstance(snapshot, dict):
            raise SnapshotError(
                f"engine snapshot must be a dict, got {type(snapshot).__name__}"
            )
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"unsupported engine snapshot format {snapshot.get('format')!r}"
                f" (this build reads format {SNAPSHOT_FORMAT} only)"
            )
        try:
            config = EngineConfig(**snapshot["config"])
            engine = cls(config, observers=observers)
            engine.scheduler.restore_state(snapshot["scheduler_state"])
            counters = snapshot["engine"]
            engine._step_index = int(counters["step_index"])
            engine._steps_since_sweep = int(counters["steps_since_sweep"])
            engine._sweeps_run = int(counters["sweeps_run"])
            engine._sweeps_skipped = int(counters.get("sweeps_skipped", 0))
            engine._gate_open = bool(counters.get("gate_open", True))
            dirty_state = counters.get("dirty")
            if dirty_state is not None and engine._dirty_tracker is not None:
                engine._dirty_tracker = DirtyTracker.from_state(dirty_state)
            engine._stats_observer.stats = GcStats.from_dict(snapshot["stats"])
        except (KeyError, ValueError, TypeError) as exc:
            raise SnapshotError(f"malformed engine snapshot: {exc}") from exc
        if engine._dirty_tracker is not None:
            # restore_state swapped in a freshly deserialized graph whose
            # abort-impact accumulator is off; re-enable it eagerly so a
            # post-restore abort feeds the tracker the same impacted
            # region an uninterrupted run would have captured, instead of
            # silently degrading to the conservative mark_all reset.
            engine.scheduler.graph.enable_abort_impact()
        return engine


# ---------------------------------------------------------------------------
# The sharded engine
# ---------------------------------------------------------------------------


class ShardedEngine(_EngineFacade):
    """K independent §4 loops behind one feed API, partitioned by footprint.

    Every model's arc/lock/certification rules only ever relate
    transactions that share an entity, so the maintained graph of any run
    is the disjoint union of its *entity-footprint groups* (connected
    components of the transaction-touches-entity bipartite graph).  A
    :class:`~repro.sharding.FootprintRouter` tracks those groups with a
    union-find and pins each to one of *K* shards; every shard owns a full
    :class:`Engine` — its own scheduler, reduced graph, bit kernel,
    deletion policy, and :class:`~repro.core.dirty.DirtyTracker` — and
    every step is fed to its group's shard.  Decisions, aborts, deletions,
    and the (union) live graph are **identical** to a monolithic engine fed
    the same stream (the lockstep property tests replay this across all
    five schedulers); what changes is cost: each shard's mask operations,
    sweeps, and C3 abort-set enumerations are bounded by the *shard's*
    live size, not the system's.

    Cross-group traffic is handled by **migration**: a step that touches
    entities of two groups merges them (union-find), and when the groups
    live on different shards the smaller group's live transactions move
    into the larger group's shard via the kernel's snapshot/patch
    machinery (:meth:`BitClosureGraph.extract_nodes` /
    ``install_nodes``) — closure rows travel as relative masks, nothing is
    re-propagated.

    Routing details worth knowing:

    * A plain ``Begin`` carries no footprint, so it is **deferred**: the
      engine answers ``ACCEPTED`` immediately (a BEGIN never fails and an
      isolated active node influences no decision and no deletion
      condition in any model) and feeds the buffered BEGIN to the resolved
      shard right before the transaction's first footprint-bearing step.
      ``BeginDeclared`` routes immediately on its declared set.  Call
      :meth:`flush_pending` (``feed_batch(flush=True)`` does) to
      materialize transactions that never took a step.
    * Steps of already-aborted transactions are answered ``IGNORED`` at
      the router, exactly like a monolithic scheduler's input filter.
    * The certifier's logical clock is re-synced to the global step
      counter before every feed (:meth:`SchedulerBase.sync_clock`), so
      its timestamp comparisons survive migrations.
    * Two registry policies carry graph-*global* caps and therefore are
      not perfectly shard-equivalent: ``optimal`` bounds its exact search
      by the whole graph's candidate count, and ``eager-c3``'s
      ``max_actives`` guard counts the whole graph's actives — a monolith
      may refuse a C3 check (``DeletionError``) that a shard, seeing only
      its group's actives, happily runs.  Selections that *do* run are
      identical; only the guard trip points differ.  Every other
      registered policy decomposes over groups exactly.

    Per-shard sweep cadence counts the shard's own steps; with the default
    ``sweep_interval=1`` the deletion sets are step-for-step identical to
    the monolith's.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        shards: int = 2,
        observers: Iterable[EngineObserver] = (),
        **overrides: Any,
    ) -> None:
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        if not isinstance(shards, int) or shards < 1:
            raise EngineError(
                f"shards must be a positive integer, got {shards!r}"
            )
        self.config = config
        self.shard_count = shards
        self._router = FootprintRouter(shards)
        # The global record: one result per fed step, every deletion at
        # the global tick of its shard's sweep.  Its deletions are the
        # id-reuse tombstones: a graph's tombstone stays on the deleting
        # shard, so the router enforces "ids are never reused" itself.
        self.history = HistoryLog()
        self._engines: List[Engine] = [
            Engine(config, observers=[self._make_collector()])
            for _ in range(shards)
        ]
        self._aborted: set[TxnId] = set()
        self._pending_begin: Dict[TxnId, Step] = {}
        self._ticks = 0
        # System-wide totals, maintained incrementally: per-shard
        # contributions are refreshed only for the shard that was just
        # fed/swept/migrated-into, so per-step cost stays bounded by that
        # shard's size, not the system's.
        self._shard_live = [0] * shards
        self._shard_completed = [0] * shards
        self._live_total = 0
        self._completed_total = 0
        self._peak_live_total = 0
        self._peak_completed_total = 0
        self._extra_observers: List[EngineObserver] = []
        for observer in observers:
            self.subscribe(observer)

    def _make_collector(self) -> EngineObserver:
        """The internal per-shard observer: global deletion order + router
        live-set maintenance."""

        def on_delete(_engine: Engine, deleted, _step_index: int) -> None:
            for txn in deleted:
                self.history.record_deletion(self._ticks, txn)
                self._router.on_txn_removed(txn)

        return CallbackObserver(on_delete=on_delete)

    # -- observers ---------------------------------------------------------------

    def subscribe(self, observer: EngineObserver) -> EngineObserver:
        """Attach *observer* to every shard engine.

        Hooks fire with the owning *shard* engine as the ``engine``
        argument; each fed step fires on exactly one shard, so global
        counters (steps, aborts, commits, deletions) aggregate correctly.
        """
        for engine in self._engines:
            engine.subscribe(observer)
        self._extra_observers.append(observer)
        return observer

    def unsubscribe(self, observer: EngineObserver) -> None:
        for engine in self._engines:
            engine.unsubscribe(observer)
        self._extra_observers.remove(observer)

    # -- the routed §4 loop -------------------------------------------------------

    def feed(self, step: Step) -> StepResult:
        """Route one step to its footprint group's shard and feed it."""
        if step.txn in self._aborted:
            result = StepResult(step, Decision.IGNORED)
        else:
            result = self._route_and_feed(step)
        self.history.record_result(result)
        if result.aborted:
            self._aborted.update(result.aborted)
            for txn in result.aborted:
                self._router.on_txn_removed(txn)
                self._pending_begin.pop(txn, None)
        return result

    def _refresh_shard_totals(self, shard_index: int) -> None:
        """Re-measure one shard's contribution to the system-wide totals
        and advance the peaks — O(that shard's live size)."""
        graph = self._engines[shard_index].graph
        live = len(graph)
        completed = graph.completed_count()
        self._live_total += live - self._shard_live[shard_index]
        self._completed_total += completed - self._shard_completed[shard_index]
        self._shard_live[shard_index] = live
        self._shard_completed[shard_index] = completed
        if self._live_total > self._peak_live_total:
            self._peak_live_total = self._live_total
        if self._completed_total > self._peak_completed_total:
            self._peak_completed_total = self._completed_total

    def _route_and_feed(self, step: Step) -> StepResult:
        txn = step.txn
        if isinstance(step, _BEGIN_STEPS) and txn in self.history.deleted_at:
            # The deleting shard's graph holds the tombstone, but the
            # group may since have migrated elsewhere; enforce the
            # monolith's id-reuse rule here so the error is identical.
            raise TransactionStateError(
                f"transaction id {txn!r} was already used and removed"
            )
        entities = footprint_of(step)
        if (
            isinstance(step, (Begin, BeginDeclared))
            and not entities
            and txn not in self._pending_begin
            and not self._router.knows_txn(txn)
        ):
            self._pending_begin[txn] = step
            return StepResult(step, Decision.ACCEPTED)
        shard = self._resolve(txn, entities)
        pending = self._pending_begin.pop(txn, None)
        if pending is not None:
            self._feed_shard(shard, pending)
        return self._feed_shard(shard, step)

    def _feed_shard(self, shard_index: int, step: Step) -> StepResult:
        """One scheduler feed = one globally unique logical tick.

        Every shard feed gets its own strictly increasing tick, so
        timestamp-comparing schedulers (the certifier) never stamp two
        events — even on different shards — with the same value; the
        stamp order is exactly the global feed order.
        """
        self._ticks += 1
        engine = self._engines[shard_index]
        engine.scheduler.sync_clock(self._ticks)
        result = engine.feed(step)
        self._refresh_shard_totals(shard_index)
        return result

    def _resolve(self, txn: TxnId, entities) -> int:
        shard, migrations = self._router.assign(txn, entities)
        for migration in migrations:
            self._execute_migration(migration)
        return shard

    def _execute_migration(self, migration: Migration) -> None:
        source = self._engines[migration.source]
        target = self._engines[migration.target]
        migrate_group(source.scheduler, target.scheduler, migration)
        moved_completed = [
            txn
            for txn in migration.txns
            if txn in target.graph and target.graph.is_completed(txn)
        ]
        target.note_migration_in(moved_completed)
        self._refresh_shard_totals(migration.source)
        self._refresh_shard_totals(migration.target)

    def flush_pending(self) -> int:
        """Materialize deferred BEGINs that never took a footprint step.

        Behaviorally invisible (an isolated active node affects nothing),
        but it makes the union of shard graphs node-identical to a
        monolithic run's graph.  Returns how many were flushed.
        """
        flushed = 0
        for txn in sorted(self._pending_begin):
            step = self._pending_begin.pop(txn)
            shard = self._resolve(txn, frozenset())
            self._feed_shard(shard, step)
            flushed += 1
        return flushed

    def flush(self) -> None:
        """The ``feed_batch(flush=True)`` epilogue: materialize pending
        BEGINs, then sweep every shard that has fed steps since its last
        sweep."""
        self.flush_pending()
        for index, engine in enumerate(self._engines):
            if engine.steps_since_sweep:
                engine.sweep()
                self._refresh_shard_totals(index)

    def sweep(self) -> FrozenSet[TxnId]:
        """Invoke every shard's policy now; union of the selections."""
        selected: set[TxnId] = set()
        for index, engine in enumerate(self._engines):
            selected |= engine.sweep()
            self._refresh_shard_totals(index)
        return frozenset(selected)

    # -- views -------------------------------------------------------------------

    @property
    def shards(self) -> Tuple[Engine, ...]:
        return tuple(self._engines)

    @property
    def router(self) -> FootprintRouter:
        return self._router

    @property
    def stats(self) -> GcStats:
        """Merged statistics: global counters plus per-shard sums.

        ``peak_graph_size`` / ``peak_retained_completed`` are peaks of the
        system-wide totals (refreshed after every shard feed); per-shard
        peaks live on ``engine.shards[i].stats``.  Because footprint-less
        BEGINs are deferred, idle not-yet-materialized transactions are
        not counted — a monolithic engine's peak can exceed the sharded
        one by the number of concurrently pending BEGINs.
        """
        merged = GcStats(
            steps_fed=len(self.history.results),
            deletions=len(self.history.deleted),
            peak_graph_size=self._peak_live_total,
            peak_retained_completed=self._peak_completed_total,
            deleted_ids=self.history.deleted,
        )
        for engine in self._engines:
            merged.policy_invocations += engine.stats.policy_invocations
        return merged

    @property
    def policy(self) -> DeletionPolicy:
        return self._engines[0].policy

    @property
    def scheduler(self) -> SchedulerBase:
        """Shard 0's scheduler (for type/name introspection only)."""
        return self._engines[0].scheduler

    @property
    def aborted(self) -> FrozenSet[TxnId]:
        return frozenset(self._aborted)

    @property
    def step_index(self) -> int:
        return len(self.history.results)

    @property
    def sweeps_run(self) -> int:
        return sum(engine.sweeps_run for engine in self._engines)

    @property
    def sweeps_skipped(self) -> int:
        return sum(engine.sweeps_skipped for engine in self._engines)

    @property
    def migrations(self) -> int:
        return self._router.migrations

    @property
    def pending_begins(self) -> Tuple[TxnId, ...]:
        return tuple(sorted(self._pending_begin))

    def graphs(self):
        """The per-shard reduced graphs, shard order."""
        return [engine.graph for engine in self._engines]

    def live_transactions(self) -> FrozenSet[TxnId]:
        """Union of the shard graphs' nodes (pending BEGINs excluded)."""
        live: set[TxnId] = set()
        for engine in self._engines:
            live |= engine.graph.nodes()
        return frozenset(live)

    def deleted_transactions(self) -> FrozenSet[TxnId]:
        """Ids removed by any shard's sweeps (the global tombstone set)."""
        return frozenset(self.history.deleted)

    def _fate(self, txn: TxnId) -> Tuple[str, Optional[str]]:
        if txn in self.history.deleted_at:
            return "deleted", None
        if txn in self._pending_begin:
            # A deferred (footprint-less) BEGIN: the router accepted it,
            # it just has no graph node yet.
            return "live", TxnState.ACTIVE.value
        for engine in self._engines:
            if txn in engine.graph:
                return "live", engine.graph.state(txn).value
        if txn in self._aborted:
            return "aborted", None
        return "unknown", None

    def shard_of(self, txn: TxnId) -> Optional[int]:
        return self._router.shard_of_txn(txn)

    def accepted_subschedule(self) -> Schedule:
        """The global accepted subschedule, reconstructed from the per-step
        results (per-shard logs only see their own traffic)."""
        from repro.scheduler.certifier import Certifier

        if isinstance(self._engines[0].scheduler, Certifier):
            committed: set[TxnId] = set()
            for engine in self._engines:
                committed |= engine.graph.committed_transactions()
            return Schedule(
                tuple(result.step for result in self.history.results)
            ).projection(committed)
        delaying = hasattr(self._engines[0].scheduler, "waiting_transactions")
        executed: List[Step] = []
        for result in self.history.results:
            if result.decision is Decision.ACCEPTED and not (
                delaying and isinstance(result.step, (Begin, BeginDeclared))
            ):
                executed.append(result.step)
            executed.extend(result.released)
        return Schedule(tuple(executed)).accepted_subschedule(self._aborted)

    def shard_report(self) -> List[Dict[str, object]]:
        """Per-shard load/health rows (benchmarks and the CLI table)."""
        rows = []
        for index, engine in enumerate(self._engines):
            stats = engine.stats
            rows.append(
                {
                    "shard": index,
                    "steps_fed": stats.steps_fed,
                    "live": len(engine.graph),
                    "peak_graph": stats.peak_graph_size,
                    "deletions": stats.deletions,
                    "sweeps_run": engine.sweeps_run,
                    "sweeps_skipped": engine.sweeps_skipped,
                    "closure_bytes": engine.graph.kernel.memory_bytes(),
                    "id_capacity": engine.graph.kernel.interner.capacity,
                }
            )
        return rows

    def __repr__(self) -> str:
        return (
            f"ShardedEngine(shards={self.shard_count}, "
            f"policy={self.policy.name!r}, steps={self.step_index}, "
            f"deletions={len(self.history.deleted)}, "
            f"migrations={self._router.migrations})"
        )

    # -- checkpoint / restore ------------------------------------------------------

    def snapshot(self, *, include_logs: bool = True) -> Dict[str, Any]:
        """A JSON-ready checkpoint of the whole sharded loop.

        Format-versioned and bit-exact: every shard's engine snapshot
        (kernel layout and own history log included), the router's
        union-find forest and shard assignments as they stand, deferred
        BEGINs, the router's history log (``results``, one per fed step,
        and ``deleted`` rows at global ticks), and the merged counters.
        Restore followed by re-snapshot yields an identical payload.

        ``include_logs=False`` is the history-free core, as on
        :meth:`Engine.snapshot`: length markers replace the router's log,
        and every shard contributes its own core.
        """
        from repro.io import step_to_dict

        payload = {
            "format": SHARDED_SNAPSHOT_FORMAT,
            "kind": SHARDED_SNAPSHOT_KIND,
            "config": self.config.as_dict(),
            "shard_count": self.shard_count,
            "shards": [
                engine.snapshot(include_logs=include_logs)
                for engine in self._engines
            ],
            "router": self._router.state_dict(),
            "pending": [
                step_to_dict(self._pending_begin[txn])
                for txn in sorted(self._pending_begin)
            ],
            "aborted": sorted(self._aborted),
            "engine": {
                "ticks": self._ticks,
                "peak_live_total": self._peak_live_total,
                "peak_completed_total": self._peak_completed_total,
            },
        }
        self.history.write(payload, include_logs=include_logs)
        return payload

    # -- history protocol (see Engine) ----------------------------------------------

    def history_marks(self) -> Dict[str, Any]:
        marks = self.history.marks()
        marks["shards"] = [engine.history_marks() for engine in self._engines]
        return marks

    def history_since(self, marks: Dict[str, Any]) -> Dict[str, Any]:
        """The router log's tails, and every shard's tails regrouped per
        key: ``shard_<key>`` holds one list per shard."""
        tails = [e.history_since(m) for e, m in zip(self._engines, marks["shards"])]
        delta = self.history.since(marks)
        delta.update(("shard_" + key, [t[key] for t in tails]) for key in tails[0])
        return delta

    @staticmethod
    def splice_history(core: Dict[str, Any], deltas) -> None:
        shard_keys = HistoryLog.keys_of(core["shards"][0]["scheduler_state"])
        layout = set(HistoryLog.keys_of(core))
        layout.update("shard_" + key for key in shard_keys)
        HistoryLog.splice(core, deltas, layout)
        for shard, shard_core in enumerate(core["shards"]):
            Engine._install_history(shard_core, deltas, layout, shard=shard)

    @classmethod
    def restore(
        cls,
        snapshot: Dict[str, Any],
        *,
        observers: Iterable[EngineObserver] = (),
    ) -> "ShardedEngine":
        """Rebuild a live sharded engine from a :meth:`snapshot` payload."""
        from repro.io import step_from_dict

        if not isinstance(snapshot, dict):
            raise SnapshotError(
                "sharded snapshot must be a dict, got "
                f"{type(snapshot).__name__}"
            )
        if (
            snapshot.get("format") != SHARDED_SNAPSHOT_FORMAT
            or snapshot.get("kind") != SHARDED_SNAPSHOT_KIND
        ):
            raise SnapshotError(
                f"unsupported sharded snapshot stamp "
                f"(format={snapshot.get('format')!r}, "
                f"kind={snapshot.get('kind')!r}; this build reads format "
                f"{SHARDED_SNAPSHOT_FORMAT} only)"
            )
        try:
            engine = cls.__new__(cls)
            engine.config = EngineConfig(**snapshot["config"])
            engine.shard_count = int(snapshot["shard_count"])
            engine._router = FootprintRouter.from_state(snapshot["router"])
            engine.history = HistoryLog.from_rows(snapshot)
            engine._aborted = set(snapshot.get("aborted", ()))
            engine._pending_begin = {}
            for item in snapshot.get("pending", ()):
                step = step_from_dict(item)
                engine._pending_begin[step.txn] = step
            engine._engines = [
                Engine.restore(shard, observers=[engine._make_collector()])
                for shard in snapshot["shards"]
            ]
            if len(engine._engines) != engine.shard_count:
                raise SnapshotError(
                    "sharded snapshot shard_count disagrees with the "
                    "serialized shard list"
                )
            counters = snapshot["engine"]
            engine._ticks = int(counters["ticks"])
            engine._shard_live = [len(e.graph) for e in engine._engines]
            engine._shard_completed = [
                e.graph.completed_count() for e in engine._engines
            ]
            engine._live_total = sum(engine._shard_live)
            engine._completed_total = sum(engine._shard_completed)
            engine._peak_live_total = int(counters["peak_live_total"])
            engine._peak_completed_total = int(
                counters["peak_completed_total"]
            )
            engine._extra_observers = []
        except (KeyError, ValueError, TypeError) as exc:
            raise SnapshotError(
                f"malformed sharded snapshot: {exc}"
            ) from exc
        for observer in observers:
            engine.subscribe(observer)
        return engine


#: Keyword arguments :func:`build_engine` itself consumes (everything else
#: must be an :class:`EngineConfig` field).
_BUILDER_KWARGS = frozenset(
    {"shards", "observers", "wal_dir", "checkpoint_interval", "sync"}
)


def build_engine(
    config: Optional[EngineConfig] = None,
    *,
    shards: int = 1,
    observers: Iterable[EngineObserver] = (),
    wal_dir: Optional[str] = None,
    checkpoint_interval: Optional[int] = None,
    sync: Optional[str] = None,
    **overrides: Any,
):
    """``shards == 1`` builds a plain :class:`Engine`, else a
    :class:`ShardedEngine` — the CLI's ``--shards`` entry point.

    With ``wal_dir`` set, the engine is wrapped in a
    :class:`~repro.durability.DurableEngine`: every fed step is appended
    to an on-disk write-ahead log and a checkpoint is taken every
    *checkpoint_interval* steps (default
    :data:`~repro.durability.DEFAULT_CHECKPOINT_INTERVAL`), so a crash
    loses at most the torn final record (see
    :func:`repro.durability.recover`).

    Keyword arguments are validated eagerly: an unknown key raises
    :class:`ValueError` naming it (with a did-you-mean hint), and the
    durability-only knobs (``checkpoint_interval``, ``sync``) raise when
    passed without ``wal_dir`` — a misspelled or misplaced ``wal_dir``
    must never silently yield a non-durable engine.
    """
    config_fields = {f.name for f in dataclasses.fields(EngineConfig)}
    unknown = sorted(set(overrides) - config_fields)
    if unknown:
        import difflib

        known = sorted(config_fields | _BUILDER_KWARGS)
        hints = []
        for key in unknown:
            close = difflib.get_close_matches(key, known, n=1)
            hints.append(
                f"{key!r}" + (f" (did you mean {close[0]!r}?)" if close else "")
            )
        raise ValueError(
            f"build_engine() got unknown keyword argument(s) "
            f"{', '.join(hints)}; known keywords: {', '.join(known)}"
        )
    if wal_dir is not None:
        from repro.durability import DurableEngine

        given = {"checkpoint_interval": checkpoint_interval, "sync": sync}
        return DurableEngine(
            config,
            wal_dir=wal_dir,
            shards=shards,
            observers=observers,
            # What the caller left unsaid takes DurableEngine's own default.
            **{key: value for key, value in given.items() if value is not None},
            **overrides,
        )
    if checkpoint_interval is not None or sync is not None:
        raise ValueError(
            "checkpoint_interval/sync configure the write-ahead log and "
            "require wal_dir=...; without it the run would silently be "
            "non-durable"
        )
    if shards == 1:
        return Engine(config, observers=observers, **overrides)
    return ShardedEngine(
        config, shards=shards, observers=observers, **overrides
    )
