"""WAL-follower read replicas: streaming replication and failover.

A primary :class:`~repro.durability.DurableEngine` already leaves behind
everything a second process needs to reconstruct it — an append-only,
globally-sequenced WAL plus an incremental checkpoint chain.  This
module turns that observation into *read replicas*: a
:class:`WalFollower` tails a primary's ``wal_dir`` **without taking the
writer lock**, replaying new records into a live engine incrementally
instead of re-running :func:`~repro.durability.recover` from scratch.

The follower *is* recovery's machinery, not a copy of it: both are
entry points on the one log-tail state machine in
:mod:`repro.durability` (chain restore → incremental segment read →
in-order apply).  :meth:`WalFollower.poll` runs it *unsealed* — beside a
live writer, where an unterminated fragment is an append in flight and a
gap is lag; ``recover()`` and :meth:`WalFollower.promote` run it
*sealed* under the writer lock, where the same fragment is a record or
the torn tail and a gap is corruption.  So a follower that has applied
seq *n* is byte-identical to a recovery of the log's first *n* records,
at most **one** torn segment tail is ever tolerated, and when the
primary checkpoints + truncates segments out from under the tail the
follower *adopts* the chain rather than stalling on the vanished prefix.

Failover is :meth:`WalFollower.promote`: take the writer lock (a
kernel-held ``flock`` — a still-live primary makes this raise
:class:`~repro.errors.WalLockedError`, the zero-acknowledged-write-loss
guard), follow the warm engine to the sealed end, verify it
byte-for-byte against an independent sealed follow of the same
directory, repair any torn tail, and hand back a writable
:class:`~repro.durability.DurableEngine` wrapping the already-warm
follower engine — no cold restart.  Promotions are recorded in a
``PROMOTIONS.json`` audit marker beside the manifest (not in the WAL: a
promotion consumes no sequence number, so client-side ``wal_seq``
watermarks stay valid across failover).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.durability import DurableEngine, _DEFAULT_IO, _LogTail, _WalLock
from repro.engine import EngineObserver
from repro.errors import DurabilityError, ModelError, PromotionError
from repro.faults import StorageIO
from repro.io import atomic_write_json, engine_snapshot_to_json, wal_record_from_line

__all__ = [
    "PROMOTIONS_NAME",
    "ReplicaLag",
    "WalFollower",
    "read_promotions",
]

PROMOTIONS_NAME = "PROMOTIONS.json"

#: How many bytes of each segment tail :meth:`WalFollower.probe` reads.
_PROBE_TAIL_BYTES = 4096


@dataclass(frozen=True)
class ReplicaLag:
    """One follower lag measurement.

    ``lag_seq`` is how many sequence numbers of the primary's log are
    visible on disk but not yet applied; ``lag_seconds`` is how long the
    follower has continuously been behind (0.0 when caught up).
    ``applied_seq`` is the replica watermark — every record with seq ≤
    ``applied_seq`` is reflected in the follower's engine.
    """

    applied_seq: int
    visible_seq: int
    lag_seq: int
    lag_seconds: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "applied_seq": self.applied_seq,
            "visible_seq": self.visible_seq,
            "lag_seq": self.lag_seq,
            "lag_seconds": self.lag_seconds,
        }


def read_promotions(wal_dir) -> List[Dict[str, Any]]:
    """The ``PROMOTIONS.json`` audit trail of *wal_dir* (empty if none)."""
    path = pathlib.Path(wal_dir) / PROMOTIONS_NAME
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    entries = payload.get("entries") if isinstance(payload, dict) else None
    return entries if isinstance(entries, list) else []


class WalFollower:
    """Tail a primary's ``wal_dir`` into a live read-only engine.

    Construction validates the manifest and adopts the current
    checkpoint chain; each :meth:`poll` reads whatever new bytes the
    primary has flushed since, applies every record that extends the
    contiguous applied prefix, and adopts newer checkpoints when the
    primary truncates segments the follower had not finished reading.

    The follower holds **no lock** and opens no persistent handles: it
    is a pure observer, safe to run beside a live writer.  Reads go
    through *io* (a :class:`~repro.faults.StorageIO`), consulting the
    ``follower.read`` / ``follower.apply`` fault sites so chaos suites
    can tear the stream mid-tail.
    """

    def __init__(self, wal_dir, *, io: Optional[StorageIO] = None) -> None:
        self._io = io if io is not None else _DEFAULT_IO
        self._tail = _LogTail(wal_dir, self._io)
        self._tail.adopt()
        self._behind_since: Optional[float] = None
        self._closed = False
        self._promoted = False
        self.polls = 0

    # -- introspection -----------------------------------------------------------

    @property
    def wal_dir(self) -> pathlib.Path:
        return self._tail.wal_path

    @property
    def engine(self):
        """The live follower engine (read it, never feed it)."""
        return self._tail.engine

    @property
    def wal_seq(self) -> int:
        """Replica watermark: highest seq applied to :attr:`engine`."""
        return self._tail.applied_seq

    @property
    def visible_seq(self) -> int:
        """Highest seq observed on disk (may exceed :attr:`wal_seq`)."""
        return self._tail.visible_seq

    @property
    def records_applied(self) -> int:
        return self._tail.records_applied

    @property
    def checkpoints_adopted(self) -> int:
        return self._tail.adoptions

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def promoted(self) -> bool:
        return self._promoted

    def __repr__(self) -> str:
        return (
            f"WalFollower(wal_dir={str(self.wal_dir)!r}, "
            f"applied={self.wal_seq}, visible={self.visible_seq}, "
            f"adopted={self.checkpoints_adopted})"
        )

    def metrics(self) -> Dict[str, Any]:
        lag = self.lag()
        return {
            "polls": self.polls,
            "records_applied": self.records_applied,
            "checkpoints_adopted": self.checkpoints_adopted,
            **lag.as_dict(),
        }

    # -- the tail ----------------------------------------------------------------

    def _require_live(self) -> None:
        if self._promoted:
            raise DurabilityError(
                "this follower was promoted to primary; use the engine "
                "promote() returned"
            )
        if self._closed:
            raise DurabilityError("this follower has been closed")

    def poll(self) -> int:
        """Ingest whatever the primary has flushed; returns records applied.

        Applies only the contiguous extension of the applied prefix;
        records flushed out of scan order stay stashed for the next
        poll.  When the primary's latest checkpoint passes the applied
        watermark (it truncated segments the follower still needed),
        the checkpoint chain is adopted and tailing resumes past it —
        or, when the primary checkpoints faster than this host can
        restore, the follower keeps serving (lag-guarded) stale reads
        until a later poll lands the adoption.
        """
        self._require_live()
        self._io.check("follower.read")
        self.polls += 1
        applied = self._tail.follow(sealed=False)
        self._update_clock()
        return applied

    # -- lag ---------------------------------------------------------------------

    def _update_clock(self) -> None:
        if self.visible_seq > self.wal_seq:
            if self._behind_since is None:
                # Lag telemetry only: this wall-clock stamp feeds the
                # human-facing lag_seconds metric and never influences
                # which records get applied, so replica state stays
                # deterministic.  # lint: allow(determinism)
                self._behind_since = time.monotonic()
        else:
            self._behind_since = None

    def probe(self) -> int:
        """Cheaply refresh :attr:`visible_seq`; returns it.

        Reads only the last few KB of each segment (the newest complete
        line carries the highest seq), so an idle follower can report
        honest lag without a full poll.
        """
        self._require_live()
        tail = self._tail
        for path in tail.segment_paths():
            try:
                size = path.stat().st_size
                data = self._io.read_tail(
                    path, max(0, size - _PROBE_TAIL_BYTES)
                )
            except OSError:
                continue
            lines = data.split(b"\n")[:-1]  # drop any trailing fragment
            for raw in reversed(lines):
                try:
                    seq, _step, _control = wal_record_from_line(
                        raw.decode("utf-8", errors="replace")
                    )
                except ModelError:
                    continue  # partial first line of the window, or torn
                if seq > tail.visible_seq:
                    tail.visible_seq = seq
                break
        self._update_clock()
        return tail.visible_seq

    def lag(self, *, probe: bool = False) -> ReplicaLag:
        """Current replica lag; ``probe=True`` refreshes visibility first."""
        if probe:
            self.probe()
        else:
            self._update_clock()
        lag_seq = max(0, self.visible_seq - self.wal_seq)
        if lag_seq and self._behind_since is not None:
            # Telemetry, not state (see _update_clock).  # lint: allow(determinism)
            lag_seconds = max(0.0, time.monotonic() - self._behind_since)
        else:
            lag_seconds = 0.0
        return ReplicaLag(
            applied_seq=self.wal_seq,
            visible_seq=self.visible_seq,
            lag_seq=lag_seq,
            lag_seconds=lag_seconds,
        )

    # -- failover ----------------------------------------------------------------

    def promote(
        self,
        *,
        verify: bool = True,
        observers: Iterable[EngineObserver] = (),
        checkpoint_interval: Optional[int] = None,
        sync: Optional[str] = None,
    ) -> DurableEngine:
        """Seal the log and flip this follower into a writable primary.

        Takes the WAL writer lock first — a still-live primary holds it,
        so promotion against a healthy primary raises
        :class:`~repro.errors.WalLockedError` before anything is
        touched: an acknowledged write can never be orphaned by a
        premature failover.  With the log sealed, the warm engine is
        followed to its end (same contiguity and single-torn-tail rules
        as recovery; the chain is adopted first if the primary
        checkpointed past this follower), and a second, independent
        sealed follow of the same directory yields both the chain
        bookkeeping the new writer resumes on and the oracle: it must
        end at the same seq and — when *verify* is set — hold a
        **byte-identical** engine.  A mismatch raises
        :class:`~repro.errors.PromotionError` and releases the lock,
        leaving the directory recoverable.  Only then is a torn record
        repaired in place.

        Returns a live :class:`~repro.durability.DurableEngine` wrapping
        the follower's warm engine (no manifest rewrite — the directory
        already has one) and records the event in ``PROMOTIONS.json``.
        The follower itself is spent afterwards.
        """
        self._require_live()
        self._io.check("promote.seal")
        lock = _WalLock.acquire(self.wal_dir)
        try:
            warm = self._tail
            warm.follow(sealed=True)
            oracle = _LogTail(self.wal_dir, self._io)
            oracle.adopt()
            oracle.follow(sealed=True)
            if warm.applied_seq != oracle.applied_seq or (
                verify
                and engine_snapshot_to_json(warm.engine.snapshot())
                != engine_snapshot_to_json(oracle.engine.snapshot())
            ):
                raise PromotionError(
                    f"follower state at seq {warm.applied_seq} disagrees "
                    f"with an independent restore of the same log (seq "
                    f"{oracle.applied_seq}); refusing to promote a "
                    "divergent replica"
                )
            oracle.repair()
            engine = DurableEngine._resume(
                warm.engine, oracle, lock, None,
                observers=observers,
                checkpoint_interval=checkpoint_interval,
                sync=sync,
            )
            self._record_promotion(engine)
        except BaseException:
            lock.release()
            raise
        self._promoted = True
        self.close()
        return engine

    def _record_promotion(self, engine: DurableEngine) -> None:
        path = self.wal_dir / PROMOTIONS_NAME
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            payload = None
        if not isinstance(payload, dict) or not isinstance(
            payload.get("entries"), list
        ):
            payload = {"format": 1, "kind": "wal-promotions", "entries": []}
        payload["entries"].append(
            {
                "seq": engine.seq,
                "checkpoint_seq": engine.last_checkpoint_seq,
                "epoch": engine._wal.epoch,
                "pid": os.getpid(),
                # Deliberately out-of-band: PROMOTIONS.json is a forensic
                # audit trail read by humans after a failover, never by
                # recovery or replay, so a wall-clock stamp here cannot
                # make replicas diverge.  # lint: allow(determinism)
                "promoted_at": time.time(),
            }
        )
        atomic_write_json(path, payload)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Stop following; the follower holds no locks or open handles."""
        self._closed = True
        self._behind_since = None
        self._tail.forget_reads()

    def __enter__(self) -> "WalFollower":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
