"""Exception hierarchy for the ``repro`` library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still being able to distinguish model violations
(malformed transactions or schedules) from scheduler-level rejections and
deletion-safety violations.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

__all__ = [
    "ReproError",
    "ModelError",
    "UnknownTransactionError",
    "UnknownEntityError",
    "InvalidStepError",
    "TransactionStateError",
    "SchedulerError",
    "GraphError",
    "NodeNotFoundError",
    "ArcNotFoundError",
    "CycleError",
    "DeletionError",
    "UnsafeDeletionError",
    "NotCompletedError",
    "WorkloadError",
    "ReductionError",
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
    "ServingError",
    "ProtocolError",
    "UnknownTenantError",
    "RequestRejectedError",
    "TenantSaturatedError",
    "TenantDegradedError",
    "NotPrimaryError",
    "ReplicaLaggingError",
    "ConnectionDroppedError",
    "RequestTimeoutError",
    "RetriesExhaustedError",
    "WIRE_ERRORS",
    "error_to_wire",
    "error_from_wire",
]


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ModelError(ReproError):
    """A transaction, step, or schedule violates the model of Section 2/5."""


class UnknownTransactionError(ModelError, KeyError):
    """An operation referenced a transaction id that is not known."""

    def __init__(self, txn_id: object) -> None:
        super().__init__(f"unknown transaction: {txn_id!r}")
        self.txn_id = txn_id


class UnknownEntityError(ModelError, KeyError):
    """An operation referenced an entity outside the database universe."""

    def __init__(self, entity: object) -> None:
        super().__init__(f"unknown entity: {entity!r}")
        self.entity = entity


class InvalidStepError(ModelError):
    """A step is malformed or arrives out of protocol order.

    Examples: a read after the final atomic write in the basic model, a step
    of a transaction that never issued BEGIN, a predeclared transaction
    executing a step it did not declare.
    """


class TransactionStateError(ModelError):
    """A transaction is in the wrong state for the requested operation.

    For instance asking to delete an *active* transaction, or committing a
    multiwrite transaction that still depends on active transactions.
    """


class SchedulerError(ReproError):
    """The scheduler was driven incorrectly (not a model violation)."""


class GraphError(ReproError):
    """Base class for graph-kernel errors."""


class NodeNotFoundError(GraphError, KeyError):
    """A graph operation referenced a node that is not present."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node not in graph: {node!r}")
        self.node = node


class ArcNotFoundError(GraphError, KeyError):
    """A graph operation referenced an arc that is not present."""

    def __init__(self, tail: object, head: object) -> None:
        super().__init__(f"arc not in graph: {tail!r} -> {head!r}")
        self.tail = tail
        self.head = head


class CycleError(GraphError):
    """An operation would create, or requires the absence of, a cycle."""


class DeletionError(ReproError):
    """Base class for deletion-theory errors (Sections 3-5)."""


class UnsafeDeletionError(DeletionError):
    """A deletion was requested that the governing condition rejects.

    Raised by the safe wrappers (``ReducedGraph.delete_checked`` and the
    policies) when asked to remove a transaction whose removal would let the
    reduced scheduler accept a non-CSR schedule.
    """

    def __init__(self, txn_id: object, reason: str = "") -> None:
        message = f"unsafe to delete transaction {txn_id!r}"
        if reason:
            message = f"{message}: {reason}"
        super().__init__(message)
        self.txn_id = txn_id
        self.reason = reason


class NotCompletedError(DeletionError, TransactionStateError):
    """Only completed (or committed, in the multiwrite model) transactions
    may be removed from the graph."""

    def __init__(self, txn_id: object, state: object) -> None:
        super().__init__(
            f"transaction {txn_id!r} is {state!r}; only completed "
            "transactions can be deleted"
        )
        self.txn_id = txn_id
        self.state = state


class WorkloadError(ReproError):
    """A workload generator was configured with invalid parameters."""


class ReductionError(ReproError):
    """An NP-completeness reduction received a malformed instance."""


class RegistryError(ReproError):
    """Misuse of the named-component registries (:mod:`repro.registry`)."""


class UnknownNameError(RegistryError, KeyError):
    """A registry lookup used a name nobody registered."""

    def __init__(self, kind: str, name: object, known) -> None:
        super().__init__(
            f"unknown {kind} {name!r}; known {kind}s: {', '.join(sorted(known))}"
        )
        self.kind = kind
        self.name = name
        self.known = tuple(sorted(known))

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class IncompatiblePolicyError(RegistryError):
    """A scheduler/policy pairing whose models do not match.

    The deletion conditions are model-specific (C1/C2 for the basic model,
    C3 for multiwrite, C4 for predeclared), so pairing e.g. ``eager-c4``
    with anything but the predeclared scheduler would silently apply the
    wrong safety condition; the registries reject it at construction time.
    """

    def __init__(self, scheduler: str, policy: str, allowed) -> None:
        super().__init__(
            f"policy {policy!r} is not compatible with scheduler "
            f"{scheduler!r}; compatible policies: {', '.join(sorted(allowed))}"
        )
        self.scheduler = scheduler
        self.policy = policy
        self.allowed = tuple(sorted(allowed))


class EngineError(ReproError):
    """The :class:`repro.engine.Engine` façade was misconfigured or misused."""


class SnapshotError(EngineError):
    """An engine snapshot is malformed, or restore hit unsupported state."""


class DurabilityError(EngineError):
    """The durability subsystem (:mod:`repro.durability`) was misused —
    e.g. opening a fresh WAL over an existing one, or checkpointing a
    closed engine."""


class WalCorruptionError(DurabilityError):
    """A write-ahead-log segment holds an unreadable record that is *not*
    the torn final record of a crashed append.

    A torn tail (the one record a crash mid-append can legally produce) is
    repaired and skipped by recovery; anything else — an unparsable record
    in the middle of a segment, a gap in the sequence numbers — means the
    log itself is damaged and recovery must stop rather than silently
    resurrect a different history.
    """


class RecoveryError(DurabilityError):
    """Recovery cannot proceed: missing/invalid manifest, or a corrupt
    checkpoint in the chain (as opposed to a torn WAL tail, which is
    tolerated)."""


class WalLockedError(DurabilityError):
    """Another live writer holds the exclusive lock on this ``wal_dir``.

    Two writers appending to the same log would interleave sequence
    numbers and corrupt the segment order, so opening (or recovering) a
    locked directory refuses up front.  The lock is a kernel-held
    ``flock`` that dies with its holder, so this error always means a
    writer that is still running; ``pid`` is the PID it recorded in the
    ``LOCK`` file (diagnostics only; -1 when caught mid-write).
    """

    def __init__(self, wal_dir: object, pid: int) -> None:
        super().__init__(
            f"wal_dir {str(wal_dir)!r} is locked by live process {pid}; "
            "a WAL accepts exactly one writer at a time"
        )
        self.wal_dir = str(wal_dir)
        self.pid = pid


class PromotionError(DurabilityError):
    """Promoting a follower to primary failed its safety checks.

    Raised by :meth:`repro.replication.WalFollower.promote` when the
    sealed log cannot be brought to a verified state — e.g. the
    follower's replayed snapshot disagrees byte-for-byte with an
    independent restore of the same log (the watermark verification), or
    the follower was already promoted/closed.  The WAL lock is released
    on the way out; the directory itself is untouched and can still be
    :func:`~repro.durability.recover`-ed.
    """


class ServingError(ReproError):
    """Base class for the serving layer (:mod:`repro.server` /
    :mod:`repro.client`)."""


class ProtocolError(ServingError):
    """A wire message was malformed: not JSON, not an object, missing the
    ``op`` field, or carrying fields of the wrong shape."""


#: ``(field, decode)`` pairs in wire order — see :data:`WIRE_ERRORS`.
_WireFields = Tuple[Tuple[str, Callable[[Any], Any]], ...]


class UnknownTenantError(ServingError, KeyError):
    """A request addressed a tenant the server does not host."""

    wire_code = "unknown_tenant"
    wire_fields: _WireFields = (("tenant", lambda tenant: tenant),)

    def __init__(self, tenant: object) -> None:
        super().__init__(f"unknown tenant: {tenant!r}")
        self.tenant = tenant

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class RequestRejectedError(ServingError):
    """The server refused a request with a structured error response.

    Carries the machine-readable ``code`` from the wire (e.g.
    ``"saturated"``, ``"unknown_tenant"``, ``"bad_request"``) so clients
    can branch without parsing the human-readable message.

    A subclass carries more than a message: it declares its wire
    ``code`` and, in wire order, its ``error`` fields with the type each
    decodes to — once, for the server's encoder and the client's decoder
    alike (:data:`WIRE_ERRORS`).
    """

    wire_fields: _WireFields = ()

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class TenantSaturatedError(RequestRejectedError):
    """Admission control rejected a write: the tenant's queue is full.

    ``retry_after`` is the server's estimate (seconds) of when capacity
    will free up, derived from the tenant's recent drain rate.
    """

    wire_code = "saturated"
    wire_fields = (("retry_after", float),)

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(self.wire_code, message)
        self.retry_after = retry_after


class TenantDegradedError(RequestRejectedError):
    """A write was rejected because the tenant is degraded or recovering.

    The tenant's worker hit an infrastructure failure (storage fault,
    engine invariant violation); reads — audit, query, metrics — are
    still answered from the last consistent state, but writes are
    refused until recovery completes.  ``retry_after`` estimates when
    the next recovery attempt lands; ``exhausted`` is True once the
    recovery attempt budget is spent (the tenant will not heal on its
    own — an operator must intervene).
    """

    wire_code = "degraded"
    wire_fields = (("retry_after", float), ("exhausted", bool))

    def __init__(
        self, message: str, *, retry_after: float = 0.0,
        exhausted: bool = False,
    ) -> None:
        super().__init__(self.wire_code, message)
        self.retry_after = retry_after
        self.exhausted = exhausted


class NotPrimaryError(RequestRejectedError):
    """A write was addressed to a read-only follower tenant.

    Follower tenants (``replica_of``) answer reads only; every mutating
    op is redirected with this structured ``not_primary`` error carrying
    the primary's ``wal_dir`` so the caller can re-route (or ask for a
    ``promote`` if the primary is gone).
    """

    wire_code = "not_primary"
    wire_fields = (("primary_wal_dir", str),)

    def __init__(self, message: str, *, primary_wal_dir: str = "") -> None:
        super().__init__(self.wire_code, message)
        self.primary_wal_dir = primary_wal_dir


class ReplicaLaggingError(RequestRejectedError):
    """A lag-bounded read found the replica too far behind the primary.

    Raised when a read carries ``max_lag`` and the follower's current
    ``lag_seq`` exceeds it.  ``retry_after`` estimates when the next
    tail poll lands; the caller can retry here, relax ``max_lag``, or
    fall back to the primary.
    """

    wire_code = "replica_lagging"
    wire_fields = (
        ("lag_seq", int), ("lag_seconds", float), ("max_lag", int),
        ("retry_after", float),
    )

    def __init__(
        self, message: str, *, lag_seq: int = 0, lag_seconds: float = 0.0,
        max_lag: int = 0, retry_after: float = 0.0,
    ) -> None:
        super().__init__(self.wire_code, message)
        self.lag_seq = lag_seq
        self.lag_seconds = lag_seconds
        self.max_lag = max_lag
        self.retry_after = retry_after


#: Wire code -> the class whose ``error`` carries fields beyond ``code``
#: and ``message``; any other code is a plain :class:`RequestRejectedError`.
WIRE_ERRORS: Dict[str, type] = {
    cls.wire_code: cls
    for cls in (TenantSaturatedError, TenantDegradedError, NotPrimaryError,
                ReplicaLaggingError, UnknownTenantError)
}


def error_to_wire(exc: Exception) -> Dict[str, Any]:
    """The ``error`` object for a :class:`RequestRejectedError` or an
    :class:`UnknownTenantError` (a ``KeyError`` that builds its message
    from ``tenant``): ``code``, ``message``, then the declared fields."""
    if isinstance(exc, RequestRejectedError):
        error = {"code": exc.code, "message": exc.message}
    else:
        error = {"code": exc.wire_code, "message": str(exc)}
    for name, _decode in exc.wire_fields:
        error[name] = getattr(exc, name)
    return error


def error_from_wire(error: Dict[str, Any]) -> Exception:
    """Inverse of :func:`error_to_wire`, for the client to raise.  A
    field the server left out takes the class's own default."""
    code = error.get("code", "error")
    message = error.get("message", "request failed")
    cls = WIRE_ERRORS.get(code)
    if cls is None:
        return RequestRejectedError(code, message)
    fields = {
        name: decode(error[name]) for name, decode in cls.wire_fields
        if name in error
    }
    if cls is UnknownTenantError:
        return cls(fields.get("tenant", message))
    return cls(message, **fields)


class ConnectionDroppedError(ServingError):
    """The server connection died mid-request.

    For idempotent reads the client retries transparently; for writes it
    surfaces this error because the request's outcome is *indeterminate*
    — the server may or may not have applied it.  Callers resolve the
    ambiguity with :meth:`AsyncServingClient.feed_resumable`, which
    consults the tenant's durable ``wal_seq`` instead of guessing.
    """


class RequestTimeoutError(ServingError):
    """A request exceeded the client's per-request deadline.

    The connection is treated as poisoned (the late response would
    desynchronize the request/response stream) and is re-established
    before the next request.  Like a dropped connection, a timed-out
    write has an indeterminate outcome.
    """


class RetriesExhaustedError(ServingError):
    """A bounded retry loop gave up.

    Carries what was durably achieved before surrender: ``attempts``
    (retries consumed), ``fed`` (steps known applied), and ``totals``
    (the partial per-decision summary), so callers can resume instead of
    restarting from scratch.
    """

    def __init__(
        self, message: str, *, attempts: int, fed: int = 0,
        totals: object = None,
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.fed = fed
        self.totals = totals
