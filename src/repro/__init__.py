"""repro — Hadzilacos & Yannakakis, *Deleting Completed Transactions*.

A faithful, complete implementation of the PODS 1986 / JCSS 1989 paper:
conflict-graph schedulers for three transaction models, the necessary-and-
sufficient conditions (C1-C4) for safely forgetting completed transactions,
the set-deletion theory, the NP-completeness reductions of Theorems 5 and
6, and the supporting substrates (graph kernel with incremental transitive
closure, strict-2PL baseline, workload generators, offline serializability
audits).

Quickstart
----------
>>> from repro import ConflictGraphScheduler, can_delete
>>> from repro.model.steps import Begin, Read, Write
>>> scheduler = ConflictGraphScheduler()
>>> for step in [Begin("T1"), Read("T1", "x"),
...              Begin("T2"), Read("T2", "x"), Write("T2", {"x"})]:
...     _ = scheduler.feed(step)
>>> can_delete(scheduler.graph, "T2")   # T1 still active and uncovered
False

See ``examples/`` for runnable scenarios and ``DESIGN.md`` for the full
paper-to-module map.
"""

from repro.errors import (
    ConnectionDroppedError,
    CycleError,
    DeletionError,
    DurabilityError,
    EngineError,
    GraphError,
    IncompatiblePolicyError,
    InvalidStepError,
    ModelError,
    NotCompletedError,
    NotPrimaryError,
    PromotionError,
    ProtocolError,
    RecoveryError,
    ReplicaLaggingError,
    RegistryError,
    ReproError,
    RequestRejectedError,
    RequestTimeoutError,
    RetriesExhaustedError,
    SchedulerError,
    ServingError,
    SnapshotError,
    TenantDegradedError,
    TenantSaturatedError,
    TransactionStateError,
    UnknownNameError,
    UnknownTenantError,
    UnsafeDeletionError,
    WalCorruptionError,
    WalLockedError,
    WorkloadError,
)
from repro.model import (
    AccessMode,
    Begin,
    BeginDeclared,
    Entity,
    EntityUniverse,
    Finish,
    MultiwriteTransactionSpec,
    PredeclaredTransactionSpec,
    Read,
    Schedule,
    Step,
    TransactionSpec,
    TxnState,
    Write,
    WriteItem,
    serial_schedule,
)
from repro.graphs import BitClosureGraph, ClosureGraph, DiGraph, NodeInterner
from repro.core import (
    DeletionPolicy,
    EagerC1Policy,
    Lemma1Policy,
    NeverDeletePolicy,
    NoncurrentPolicy,
    OptimalPolicy,
    ReducedGraph,
    TxnInfo,
    c1_violations,
    c2_violations,
    c3_violation_witness,
    c4_violations,
    can_delete,
    can_delete_multiwrite,
    can_delete_predeclared,
    can_delete_set,
    greedy_safe_deletion_set,
    has_no_active_predecessors,
    irreducible_bound,
    is_noncurrent,
    maximum_safe_deletion_set,
    witness_map,
)
from repro.core.policies import EagerC3Policy, EagerC4Policy
from repro.core.witnesses import (
    basic_witness_continuation,
    check_divergence,
    check_multiwrite_divergence,
    check_predeclared_divergence,
    multiwrite_witness_continuation,
    predeclared_witness_continuation,
)
from repro.core.oracle import bounded_safety_check
from repro.scheduler import (
    Certifier,
    ConflictGraphScheduler,
    Decision,
    MultiwriteScheduler,
    PredeclaredScheduler,
    SchedulerBase,
    StepResult,
    StrictTwoPhaseLocking,
)
from repro.analysis import (
    RunMetrics,
    ascii_table,
    conflict_graph_of,
    equivalent_serial_order,
    is_conflict_serializable,
    is_view_serializable,
    run_with_policy,
)
from repro.workloads import (
    BankingConfig,
    WorkloadConfig,
    banking_stream,
    basic_specs,
    basic_stream,
    example1_graph,
    example1_schedule,
    example2_graph,
    example2_steps,
    multiwrite_stream,
    predeclared_stream,
)
from repro.tracking import CurrencyTracker
from repro.registry import (
    compatible_policies,
    create_policy,
    create_scheduler,
    policy_names,
    register_policy,
    register_scheduler,
    scheduler_names,
)
from repro.engine import (
    AuditRecord,
    BatchResult,
    CallbackObserver,
    Engine,
    EngineConfig,
    EngineObserver,
    GcStats,
    ShardedEngine,
    StatsObserver,
    SweepReport,
    build_engine,
)
from repro.durability import DurableEngine, RecoveryInfo, open_durable, recover
from repro.replication import ReplicaLag, WalFollower, read_promotions
from repro.faults import FaultPlan, FaultSpec, FaultyIO, InjectedFault, StorageIO
from repro.server import ReproServer
from repro.client import AsyncServingClient, ServingClient
from repro.analysis.runner import MetricsObserver
from repro.io import (
    graph_from_json,
    graph_to_json,
    schedule_from_list,
    schedule_to_list,
)
from repro.analysis.visualize import render_ascii, render_dot

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "ModelError",
    "InvalidStepError",
    "TransactionStateError",
    "SchedulerError",
    "GraphError",
    "CycleError",
    "DeletionError",
    "UnsafeDeletionError",
    "NotCompletedError",
    "WorkloadError",
    "RegistryError",
    "UnknownNameError",
    "IncompatiblePolicyError",
    "EngineError",
    "SnapshotError",
    "DurabilityError",
    "WalCorruptionError",
    "RecoveryError",
    "WalLockedError",
    "PromotionError",
    "NotPrimaryError",
    "ReplicaLaggingError",
    "ServingError",
    "ProtocolError",
    "UnknownTenantError",
    "RequestRejectedError",
    "TenantSaturatedError",
    "TenantDegradedError",
    "ConnectionDroppedError",
    "RequestTimeoutError",
    "RetriesExhaustedError",
    # engine + registries
    "Engine",
    "ShardedEngine",
    "EngineConfig",
    "build_engine",
    "AuditRecord",
    "DurableEngine",
    "RecoveryInfo",
    "recover",
    "open_durable",
    # replication
    "WalFollower",
    "ReplicaLag",
    "read_promotions",
    # fault injection
    "FaultPlan",
    "FaultSpec",
    "FaultyIO",
    "InjectedFault",
    "StorageIO",
    # serving
    "ReproServer",
    "ServingClient",
    "AsyncServingClient",
    "EngineObserver",
    "CallbackObserver",
    "StatsObserver",
    "MetricsObserver",
    "SweepReport",
    "BatchResult",
    "register_scheduler",
    "register_policy",
    "create_scheduler",
    "create_policy",
    "scheduler_names",
    "policy_names",
    "compatible_policies",
    # model
    "Entity",
    "EntityUniverse",
    "AccessMode",
    "TxnState",
    "Step",
    "Begin",
    "BeginDeclared",
    "Read",
    "Write",
    "WriteItem",
    "Finish",
    "TransactionSpec",
    "MultiwriteTransactionSpec",
    "PredeclaredTransactionSpec",
    "Schedule",
    "serial_schedule",
    # graphs
    "DiGraph",
    "ClosureGraph",
    "BitClosureGraph",
    "NodeInterner",
    # core
    "ReducedGraph",
    "TxnInfo",
    "can_delete",
    "c1_violations",
    "can_delete_set",
    "c2_violations",
    "can_delete_multiwrite",
    "c3_violation_witness",
    "can_delete_predeclared",
    "c4_violations",
    "has_no_active_predecessors",
    "is_noncurrent",
    "greedy_safe_deletion_set",
    "maximum_safe_deletion_set",
    "irreducible_bound",
    "witness_map",
    "DeletionPolicy",
    "NeverDeletePolicy",
    "Lemma1Policy",
    "NoncurrentPolicy",
    "EagerC1Policy",
    "OptimalPolicy",
    "EagerC3Policy",
    "EagerC4Policy",
    "basic_witness_continuation",
    "multiwrite_witness_continuation",
    "predeclared_witness_continuation",
    "check_divergence",
    "check_multiwrite_divergence",
    "check_predeclared_divergence",
    "bounded_safety_check",
    "GcStats",
    "graph_to_json",
    "graph_from_json",
    "schedule_to_list",
    "schedule_from_list",
    "render_ascii",
    "render_dot",
    # schedulers
    "SchedulerBase",
    "Decision",
    "StepResult",
    "ConflictGraphScheduler",
    "Certifier",
    "StrictTwoPhaseLocking",
    "MultiwriteScheduler",
    "PredeclaredScheduler",
    "CurrencyTracker",
    # analysis
    "conflict_graph_of",
    "is_conflict_serializable",
    "is_view_serializable",
    "equivalent_serial_order",
    "RunMetrics",
    "run_with_policy",
    "ascii_table",
    # workloads
    "WorkloadConfig",
    "basic_specs",
    "basic_stream",
    "multiwrite_stream",
    "predeclared_stream",
    "BankingConfig",
    "banking_stream",
    "example1_schedule",
    "example1_graph",
    "example2_steps",
    "example2_graph",
]
