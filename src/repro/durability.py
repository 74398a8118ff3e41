"""Crash safety: write-ahead step log, incremental checkpoints, recovery.

The paper bounds the scheduler's *live* state by deleting completed
transactions; this module bounds what a **crash** can cost by the same
discipline applied to storage.  Kuperberg's *Enabling Deletion in
Append-Only Blockchains* and Manevich et al.'s redactable-ledger work
(PAPERS.md) show the shape: an append-only log stays authoritative while
its *prefix* becomes deletable the moment a checkpoint covers it.  Here:

* **Write-ahead log** — every step fed to a :class:`DurableEngine` is
  appended (one compact JSON line, :func:`repro.io.wal_record_to_line`)
  to a segment file *before* the engine applies it.  Sharded engines keep
  per-shard segment files (records carry a global sequence number, so
  recovery merges them back into arrival order); steps the router answers
  itself (deferred BEGINs, post-abort traffic) land in the ``router``
  stream.  Out-of-loop mutations (explicit sweeps, batch flushes) are
  logged as *control* records so replay reproduces them too.
* **Incremental checkpoints** — every ``checkpoint_interval`` records the
  engine's history-free *core* (``snapshot(include_logs=False)``) is
  written atomically (tmp file + fsync + ``os.replace``) together with a
  **delta**, its ``history_since`` the previous checkpoint.  What counts
  as history is the engine's business: one log per engine records each
  step once and each deletion with its tick (format 3: ``results``,
  ``executed``, ``deleted`` rows), so ``audit`` survives recovery; this
  module stores marks, cores and deltas, never looking inside them.
  Per-checkpoint cost is O(live state + interval), not O(history), for
  every scheduler — a core's only history-sized residue is one id per
  aborted transaction (the id-reuse guard) — so checkpoints stay cheap
  forever, which is what makes a small interval affordable (E17).
* **Truncation** — segments are grouped into *epochs* that roll at each
  checkpoint; once the checkpoint is durably on disk every segment of an
  older epoch is covered by it and deleted.  The WAL's steady-state
  footprint is one checkpoint interval of records.
* **Taking over a directory** — one log-tail state machine
  (:class:`_LogTail`) restores the engine from the checkpoint chain
  (validating every link; a corrupt checkpoint **aborts** with
  :class:`~repro.errors.RecoveryError`), reads the segments
  incrementally and applies the records in sequence order.
  :func:`recover` is one of its three entry points (the others are a
  :class:`~repro.replication.WalFollower`'s ``poll`` and ``promote``):
  take the exclusive writer lock — an ``flock`` the kernel holds for the
  writer's lifetime and drops when the process dies — follow to the end,
  repair, resume logging.  A torn *final* record — the one artifact a
  crash mid-append can legally produce — is detected, dropped, and
  repaired in place; an unreadable record anywhere else, a duplicate or
  a gap in the sequence raises :class:`~repro.errors.WalCorruptionError`
  instead of silently resurrecting a different history.  Recovery is
  **deterministic**: the recovered engine's snapshot is byte-identical
  to an uninterrupted run over the same logged prefix (the
  crash-injection suite pins this across all five schedulers and
  sharded mode).

Durability model: with the default ``sync="checkpoint"`` every record is
flushed to the OS (a *process* crash loses at most the torn tail) and
checkpoints/manifest are fsync'd; ``sync="always"`` additionally fsyncs
every appended record, extending the guarantee to power loss at a heavy
per-step cost (measured in E17).
"""

from __future__ import annotations

import dataclasses
import fcntl
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.engine import BatchFacade, EngineConfig, EngineObserver, build_engine
from repro.errors import (
    DurabilityError,
    ModelError,
    RecoveryError,
    ReproError,
    WalCorruptionError,
    WalLockedError,
)
from repro.faults import StorageIO
from repro.io import (
    atomic_write_json,
    restore_engine,
    wal_record_from_line,
    wal_record_to_line,
)
from repro.model.steps import Step
from repro.scheduler.events import StepResult

__all__ = [
    "MANIFEST_FORMAT",
    "CHECKPOINT_FORMAT",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "DEFAULT_SYNC",
    "DurableEngine",
    "RecoveryInfo",
    "recover",
    "open_durable",
]

MANIFEST_FORMAT = 1
MANIFEST_KIND = "wal-manifest"
MANIFEST_NAME = "MANIFEST.json"
CHECKPOINT_FORMAT = 3
CHECKPOINT_KIND = "durability-checkpoint"

_SEGMENTS_DIR = "segments"
_CHECKPOINTS_DIR = "checkpoints"
_SEGMENT_SUFFIX = ".wal"
_ENGINE_STREAM = "engine"
_ROUTER_STREAM = "router"
LOCK_NAME = "LOCK"

_SYNC_MODES = ("checkpoint", "always")

#: What a directory is opened with when the caller (and, on a resume, the
#: manifest) names no cadence or sync mode.
DEFAULT_CHECKPOINT_INTERVAL = 64
DEFAULT_SYNC = "checkpoint"

#: Shared passthrough shim — every engine without an explicit ``io``
#: routes storage calls through this (one method hop, no allocation).
_DEFAULT_IO = StorageIO()


def _segment_name(epoch: int, stream: str) -> str:
    return f"{epoch:08d}-{stream}{_SEGMENT_SUFFIX}"


def _parse_segment_name(name: str) -> Optional[Tuple[int, str]]:
    if not name.endswith(_SEGMENT_SUFFIX):
        return None
    stem = name[: -len(_SEGMENT_SUFFIX)]
    epoch_text, sep, stream = stem.partition("-")
    if not sep or not epoch_text.isdigit() or not stream:
        return None
    return int(epoch_text), stream


def _checkpoint_name(seq: int) -> str:
    return f"checkpoint-{seq:010d}.json"


def _parse_checkpoint_name(name: str) -> Optional[int]:
    if not (name.startswith("checkpoint-") and name.endswith(".json")):
        return None
    digits = name[len("checkpoint-") : -len(".json")]
    return int(digits) if digits.isdigit() else None


# ---------------------------------------------------------------------------
# Exclusive writer lock
# ---------------------------------------------------------------------------


class _WalLock:
    """Exclusive writer lock: one live writer per ``wal_dir``.

    Two engines appending to the same log would interleave sequence
    numbers and corrupt the segment order, so every open — fresh,
    :func:`recover` or a follower's ``promote()`` — takes
    ``flock(LOCK_EX | LOCK_NB)`` on ``wal_dir/LOCK`` and keeps that
    descriptor open for the writer's lifetime.  The kernel holds the
    exclusion and drops it when the descriptor closes, which includes
    the death of the process: there is no stale lock to reclaim, and
    nothing *in* the file (torn bytes, a dead PID, a leftover from an
    older protocol) ever decides ownership.  The holder's PID is written
    into the file for :attr:`WalLockedError.pid` and post-mortems only.

    ``LOCK`` is never unlinked: ``flock`` locks the inode, so removing
    the path would let a third opener lock a fresh inode beside a
    holder of the old one.
    """

    def __init__(self, fd: int) -> None:
        self._fd: Optional[int] = fd

    @classmethod
    def acquire(cls, wal_path: pathlib.Path) -> "_WalLock":
        # Raw syscalls on purpose: mutual exclusion must hold against
        # *other processes*, so it cannot ride the per-engine injectable
        # StorageIO shim (a fault plan delaying the lock would change
        # who wins, not what a crash does); fault drills cover crashes
        # around the lock via process kills instead.  One os.open per
        # acquire is one open-file description, so a second open from
        # the same process is refused like any other, and os.open
        # descriptors are not inherited by spawned children.
        # lint: allow(raw-syscall)
        fd = os.open(
            pathlib.Path(wal_path) / LOCK_NAME, os.O_RDWR | os.O_CREAT, 0o644
        )
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            os.ftruncate(fd, 0)
            os.write(fd, (json.dumps({"pid": os.getpid()}) + "\n").encode())
        except BlockingIOError:
            holder = cls._recorded_pid(fd)
            os.close(fd)
            raise WalLockedError(wal_path, holder) from None
        except BaseException:
            os.close(fd)
            raise
        return cls(fd)

    @staticmethod
    def _recorded_pid(fd: int) -> int:
        """The PID the holder wrote, or -1 (caught mid-write)."""
        try:
            pid = json.loads(os.pread(fd, 64, 0)).get("pid")
        except (OSError, ValueError, AttributeError):
            return -1
        return pid if isinstance(pid, int) else -1

    def release(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


# ---------------------------------------------------------------------------
# Segment writer
# ---------------------------------------------------------------------------


class _WalWriter:
    """Append-only JSONL segment files, one per (epoch, stream).

    Files are opened lazily on first append and flushed per record, so a
    process crash tears at most the final line.  ``sync_always`` adds an
    fsync per record (power-loss durability).
    """

    def __init__(
        self, directory: pathlib.Path, *, sync_always: bool,
        io: StorageIO = _DEFAULT_IO,
    ) -> None:
        self._dir = directory
        self._sync_always = sync_always
        self._io = io
        self._epoch = 0
        self._files: Dict[str, Any] = {}

    @property
    def epoch(self) -> int:
        return self._epoch

    def set_epoch(self, epoch: int) -> None:
        self.close()
        self._epoch = epoch

    def append(self, stream: str, line: str) -> None:
        handle = self._files.get(stream)
        if handle is None:
            path = self._dir / _segment_name(self._epoch, stream)
            # Power-loss durability needs the new segment's directory
            # entry on disk too, not just its records.
            handle = self._io.open_append(
                path, self._dir, fsync_dir=self._sync_always
            )
            self._files[stream] = handle
        self._io.append_line(handle, line)
        if self._sync_always:
            self._io.fsync(handle)

    def roll(self, new_epoch: int) -> None:
        """Close the current epoch's files and start a new epoch."""
        self.set_epoch(new_epoch)

    def truncate_before(self, epoch: int) -> int:
        """Delete every segment of an epoch older than *epoch*; returns
        how many files were removed (the checkpoint covering them is
        already durable — this is the paper's deletable prefix, on disk).
        """
        removed = 0
        for path in sorted(self._dir.iterdir()):
            parsed = _parse_segment_name(path.name)
            if parsed is not None and parsed[0] < epoch:
                path.unlink()
                removed += 1
        return removed

    def close(self) -> None:
        # Exception-tolerant: close() runs on demotion paths where the
        # storage below may be actively failing — a handle that cannot
        # flush must not keep the lock held or the engine half-open.
        for handle in self._files.values():
            try:
                handle.close()
            except OSError:
                pass
        self._files.clear()


# ---------------------------------------------------------------------------
# Recovery report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryInfo:
    """What one :func:`recover` call found and did."""

    checkpoint_seq: int
    checkpoints_loaded: int
    replayed_steps: int
    replayed_controls: int
    torn_records_dropped: int
    repaired_segments: Tuple[str, ...]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "checkpoint_seq": self.checkpoint_seq,
            "checkpoints_loaded": self.checkpoints_loaded,
            "replayed_steps": self.replayed_steps,
            "replayed_controls": self.replayed_controls,
            "torn_records_dropped": self.torn_records_dropped,
            "repaired_segments": list(self.repaired_segments),
        }


# ---------------------------------------------------------------------------
# The durable engine
# ---------------------------------------------------------------------------


class DurableEngine(BatchFacade):
    """A crash-safe wrapper around whatever :func:`build_engine` builds.

    Every fed step is WAL-appended before it is applied; a checkpoint is
    taken every *checkpoint_interval* records (0 disables the cadence —
    call :meth:`checkpoint` manually).  Use module-level :func:`recover`
    to resume from a crashed ``wal_dir``.  Read-only views (``stats``,
    ``graph``, ``accepted_subschedule`` …) delegate to the wrapped engine
    (also reachable as :attr:`engine`); state mutations must go through
    this wrapper, or they will not survive a crash; assigning a public
    name the wrapper does not own raises
    :class:`~repro.errors.DurabilityError`.  The wrapper knows
    the engine by its façade and history protocol only: ``shard_count``
    decides nothing but which WAL stream a record lands in.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        wal_dir,
        shards: int = 1,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        sync: str = DEFAULT_SYNC,
        observers: Iterable[EngineObserver] = (),
        io: Optional[StorageIO] = None,
        **overrides: Any,
    ) -> None:
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        if not isinstance(checkpoint_interval, int) or checkpoint_interval < 0:
            raise DurabilityError(
                f"checkpoint_interval must be a non-negative integer, got "
                f"{checkpoint_interval!r}"
            )
        if sync not in _SYNC_MODES:
            raise DurabilityError(
                f"unknown sync mode {sync!r}; known: {', '.join(_SYNC_MODES)}"
            )
        wal_path = pathlib.Path(wal_dir)
        if (wal_path / MANIFEST_NAME).exists():
            raise DurabilityError(
                f"{wal_path} already holds a write-ahead log; use "
                "repro.durability.recover() to resume it (or point wal_dir "
                "at an empty directory)"
            )
        inner = build_engine(config, shards=shards, observers=observers)
        self._init_common(
            inner,
            wal_path,
            config=config,
            shards=shards,
            checkpoint_interval=checkpoint_interval,
            sync=sync,
            io=io if io is not None else _DEFAULT_IO,
        )

    # -- construction plumbing ---------------------------------------------------

    def _init_common(
        self,
        inner,
        wal_path: pathlib.Path,
        *,
        config: EngineConfig,
        shards: int,
        checkpoint_interval: int,
        sync: str,
        io: StorageIO,
        tail: Optional["_LogTail"] = None,
        lock: Optional[_WalLock] = None,
        recovery_info: Optional[RecoveryInfo] = None,
    ) -> None:
        """A fresh open (no *tail*: take the lock, start at seq 0, write
        the manifest) or the resume of the directory *tail* has just
        followed to its sealed end under *lock*: logging continues after
        the last record on disk, in a new epoch, on the directory's
        current chain."""
        chain = tail.chain if tail is not None else None
        self._inner = inner
        self.wal_dir = wal_path
        self.config = config
        self.shard_count = shards
        #: The WAL stream of every record no shard owns: all of a
        #: monolith's, and what a router answers itself (deferred BEGINs,
        #: post-abort traffic, control records).
        self._own_stream = _ENGINE_STREAM if shards == 1 else _ROUTER_STREAM
        self.checkpoint_interval = checkpoint_interval
        self.sync = sync
        self._seq = tail.applied_seq if tail is not None else 0
        self._last_checkpoint_seq = chain.checkpoint_seq if chain else 0
        self._last_checkpoint_path = chain.latest_path if chain else None
        #: The last-written checkpoint payload, already core-stripped —
        #: lets the *next* checkpoint demote it without a disk read.
        #: None on a resumed engine (its latest link lives on disk only).
        self._last_checkpoint_payload: Optional[Dict[str, Any]] = None
        #: How much of the engine's history the chain on disk covers.
        #: Advanced only once a checkpoint is durably published: a failed
        #: write leaves the engine usable and the next checkpoint must
        #: carry the same tail again.
        self._marks = chain.marks if chain else inner.history_marks()
        self.recovery_info = recovery_info
        self._closed = False
        self._poisoned = False
        self._io = io
        segments = wal_path / _SEGMENTS_DIR
        checkpoints = wal_path / _CHECKPOINTS_DIR
        segments.mkdir(parents=True, exist_ok=True)
        checkpoints.mkdir(parents=True, exist_ok=True)
        self._checkpoints_dir = checkpoints
        if lock is None:
            lock = _WalLock.acquire(wal_path)
        self._lock = lock
        try:
            self._wal = _WalWriter(
                segments, sync_always=(sync == "always"), io=io
            )
            if tail is not None:
                self._wal.set_epoch(tail.next_epoch())
            else:
                atomic_write_json(
                    wal_path / MANIFEST_NAME,
                    {
                        "format": MANIFEST_FORMAT,
                        "kind": MANIFEST_KIND,
                        "config": config.as_dict(),
                        "shards": shards,
                        "checkpoint_interval": checkpoint_interval,
                        "sync": sync,
                    },
                )
        except BaseException:
            lock.release()
            raise

    @classmethod
    def _resume(
        cls,
        inner,
        tail: "_LogTail",
        lock: _WalLock,
        recovery_info: Optional[RecoveryInfo],
        *,
        observers: Iterable[EngineObserver],
        checkpoint_interval: Optional[int],
        sync: Optional[str],
    ) -> "DurableEngine":
        """Wrap *inner* as the writer of *tail*'s directory (see
        :meth:`_init_common`); cadence and sync default to the
        manifest's, *observers* attach after the replay."""
        if checkpoint_interval is None:
            checkpoint_interval = int(
                tail.manifest.get(
                    "checkpoint_interval", DEFAULT_CHECKPOINT_INTERVAL
                )
            )
        if sync is None:
            sync = str(tail.manifest.get("sync", DEFAULT_SYNC))
        engine = cls.__new__(cls)
        engine._init_common(
            inner,
            tail.wal_path,
            config=tail.config,
            shards=tail.shards,
            checkpoint_interval=checkpoint_interval,
            sync=sync,
            io=tail.io,
            tail=tail,
            lock=lock,
            recovery_info=recovery_info,
        )
        for observer in observers:
            inner.subscribe(observer)
        return engine

    # -- delegation ---------------------------------------------------------------

    @property
    def engine(self):
        """The wrapped in-memory engine."""
        return self._inner

    @property
    def seq(self) -> int:
        """Sequence number of the last WAL record appended."""
        return self._seq

    @property
    def last_checkpoint_seq(self) -> int:
        return self._last_checkpoint_seq

    def __getattr__(self, name: str):
        # Read-only views (stats, graph, accepted_subschedule, aborted,
        # step_index, ...) pass straight through to the wrapped engine.
        # Private names never delegate (also breaks the recursion a
        # half-constructed instance would otherwise hit on self._inner).
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)

    _OWN_NAMES = ("wal_dir", "config", "shard_count", "checkpoint_interval",
                  "sync", "recovery_info")

    def __setattr__(self, name: str, value) -> None:
        # An engine's name set here would shadow the engine's own value.
        if not name.startswith("_") and name not in self._OWN_NAMES:
            raise DurabilityError(
                f"cannot set {name!r} on a durable engine; it is the wrapped "
                "engine's (set it on durable.engine, outside the WAL)"
            )
        object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return (
            f"DurableEngine({self._inner!r}, wal_dir={str(self.wal_dir)!r}, "
            f"seq={self._seq}, checkpointed={self._last_checkpoint_seq})"
        )

    # -- the durable loop ---------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise DurabilityError("this durable engine has been closed")
        if self._poisoned:
            raise DurabilityError(
                "this durable engine hit a storage fault mid-append; "
                "close it and recover() the wal_dir (appending past a "
                "torn record would corrupt the log)"
            )

    def _stream_for(self, step: Step) -> str:
        if self.shard_count > 1:
            # peek (no path compression!) so the WAL never perturbs the
            # router's forest relative to an un-instrumented run.
            shard = self._inner.router.peek_shard_of_txn(step.txn)
            if shard is not None:
                return f"shard{shard:02d}"
        return self._own_stream

    def feed(self, step: Step) -> StepResult:
        """WAL-append *step*, apply it, checkpoint when the cadence is due."""
        self._require_open()
        seq = self._seq + 1
        self._append(self._stream_for(step), wal_record_to_line(seq, step))
        self._seq = seq
        result = self._inner.feed(step)
        self._maybe_checkpoint()
        return result

    def _append(self, stream: str, line: str) -> None:
        """One WAL append; a failure poisons the engine (the segment may
        now end in a torn record — appending more would bury it mid-file
        where recovery rightly refuses to repair)."""
        try:
            self._wal.append(stream, line)
        except BaseException:
            self._poisoned = True
            raise

    def _control(self, op: str, apply):
        """One out-of-loop mutation: WAL-log *op* so replay reproduces
        it, apply it, checkpoint when the cadence is due."""
        self._require_open()
        seq = self._seq + 1
        self._append(self._own_stream, wal_record_to_line(seq, control=op))
        self._seq = seq
        outcome = apply()
        self._maybe_checkpoint()
        return outcome

    def _maybe_checkpoint(self) -> None:
        if (
            self.checkpoint_interval
            and self._seq - self._last_checkpoint_seq >= self.checkpoint_interval
        ):
            self.checkpoint()

    # Every mutation the engines offer outside the per-step loop is
    # intercepted (instead of falling through ``__getattr__``): applied
    # with no WAL record, a crash right after would replay to a
    # different engine.

    def sweep(self):
        """Explicit policy sweep, logged."""
        return self._control("sweep", self._inner.sweep)

    def flush_pending(self) -> int:
        """Materialize deferred BEGINs, logged (a monolith defers none:
        its record replays as the no-op it was)."""
        return self._control("flush_pending", self._inner.flush_pending)

    def flush(self) -> None:
        """The ``feed_batch(flush=True)`` epilogue, logged: pending BEGINs
        are materialized and every shard (or the engine) with steps since
        its last sweep is swept."""
        self._control("flush", self._inner.flush)

    # -- checkpoints ---------------------------------------------------------------

    def checkpoint(self) -> Optional[int]:
        """Write one incremental checkpoint now; returns its seq.

        No-op (returns ``None``) when nothing was logged since the last
        checkpoint.  On success the WAL epoch rolls and every segment the
        new checkpoint covers is deleted.
        """
        self._require_open()
        seq = self._seq
        if seq == self._last_checkpoint_seq:
            return None
        inner = self._inner
        core = inner.snapshot(include_logs=False)
        delta = inner.history_since(self._marks)
        marks = inner.history_marks()
        payload = {
            "format": CHECKPOINT_FORMAT,
            "kind": CHECKPOINT_KIND,
            "seq": seq,
            "prev_seq": self._last_checkpoint_seq,
            "epoch": self._wal.epoch,
            "sharded": self.shard_count > 1,
            "core": core,
            "delta": delta,
        }
        path = self._checkpoints_dir / _checkpoint_name(seq)
        try:
            self._io.write_checkpoint(
                path, json.dumps(payload, separators=(",", ":")) + "\n"
            )
        except BaseException:
            if path.exists():
                # The rename published the checkpoint but a later stage
                # (the directory fsync) failed: disk now disagrees with
                # the in-memory chain state, and continuing would write
                # the next checkpoint with a stale prev_seq — a broken
                # chain.  Poison: close + recover() resolves it (the
                # published file simply becomes the latest link).
                self._poisoned = True
            raise
        # The checkpoint is durable: advance the chain, roll the epoch,
        # delete the WAL prefix it covers, and strip the now-superseded
        # predecessor down to its delta (recovery only ever restores the
        # *latest* core; keeping every historical core would make the
        # chain O(history x live state) on disk).
        self._strip_superseded_checkpoint()
        self._last_checkpoint_path = path
        payload.pop("core")
        payload["core_stripped"] = True
        self._last_checkpoint_payload = payload
        self._marks = marks
        self._last_checkpoint_seq = seq
        self._wal.roll(self._wal.epoch + 1)
        self._wal.truncate_before(self._wal.epoch)
        return seq

    def _strip_superseded_checkpoint(self) -> None:
        previous = self._last_checkpoint_path
        if previous is None or not previous.exists():
            return
        payload = self._last_checkpoint_payload
        if payload is None:
            # Resumed engine: the superseded link came from disk (once,
            # at recovery); read it back to strip its core.
            try:
                payload = json.loads(previous.read_text())
            except (OSError, json.JSONDecodeError):
                return  # leave it for recovery to report
            if payload.pop("core", None) is None:
                return
            payload["core_stripped"] = True
        # No fsync: stripping is a space optimization, not a durability
        # step — if this write is lost the superseded link just keeps its
        # core, which recovery tolerates on non-latest links.
        atomic_write_json(previous, payload, indent=None, fsync=False)

    def close(self, *, checkpoint: bool = False) -> None:
        """Close the WAL files (optionally after a final checkpoint).

        The file handles are closed and the writer lock released even
        when the final checkpoint raises — a close on a failing disk
        must still surrender the directory so :func:`recover` can take
        over.
        """
        if self._closed:
            return
        try:
            if checkpoint and not self._poisoned:
                self.checkpoint()
        finally:
            self._closed = True
            self._wal.close()
            self._lock.release()

    def simulate_crash(self) -> None:
        """Abandon the engine the way a process kill would.

        Drops the segment file handles and the writer lock **without**
        checkpointing or truncating anything.  Every append was already
        flushed, so the on-disk state after this call is byte-identical
        to a real mid-run crash, and the lock descriptor is closed just
        as the kernel closes a dead process's.  Crash-injection suites
        use this between "kill" and ``recover``.
        """
        if self._closed:
            return
        self._closed = True
        self._wal.close()
        self._lock.release()

    def __enter__(self) -> "DurableEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def _load_manifest(wal_path: pathlib.Path) -> Dict[str, Any]:
    manifest_path = wal_path / MANIFEST_NAME
    if not manifest_path.exists():
        raise RecoveryError(
            f"{wal_path} has no {MANIFEST_NAME}; not a write-ahead log "
            "directory (or the manifest was lost — recovery cannot guess "
            "the engine configuration)"
        )
    from repro.io import engine_snapshot_from_json

    try:
        manifest = engine_snapshot_from_json(manifest_path.read_text())
    except ModelError as exc:
        raise RecoveryError(f"corrupt WAL manifest: {exc}") from exc
    if (
        manifest.get("format") != MANIFEST_FORMAT
        or manifest.get("kind") != MANIFEST_KIND
    ):
        raise RecoveryError(
            f"unsupported WAL manifest stamp (format="
            f"{manifest.get('format')!r}, kind={manifest.get('kind')!r})"
        )
    for key in ("config", "shards"):
        if key not in manifest:
            raise RecoveryError(f"WAL manifest is missing the {key!r} section")
    return manifest


def _load_checkpoint_chain(
    checkpoints_dir: pathlib.Path,
) -> List[Tuple[Dict[str, Any], pathlib.Path]]:
    """Every checkpoint, seq order, each strictly validated.

    Checkpoints are written atomically, so a *torn* checkpoint cannot
    exist — an unreadable or inconsistent one means real corruption and
    recovery must abort (the covered WAL prefix is already deleted;
    silently skipping a link would resurrect a different history).

    Superseded links are stripped down to their delta when the next
    checkpoint lands (``core_stripped``); only the **latest** link must
    still carry a restorable core.
    """
    entries: List[Tuple[int, pathlib.Path]] = []
    if checkpoints_dir.is_dir():
        for path in checkpoints_dir.iterdir():
            seq = _parse_checkpoint_name(path.name)
            if seq is not None:
                entries.append((seq, path))
    entries.sort()
    chain: List[Tuple[Dict[str, Any], pathlib.Path]] = []
    prev_seq = 0
    for seq, path in entries:
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise RecoveryError(
                f"corrupt checkpoint {path.name}: {exc} — aborting recovery "
                "(a checkpoint is never torn; this is data loss, not a "
                "crashed append)"
            ) from exc
        stamp = payload if isinstance(payload, dict) else {}
        if (stamp.get("format"), stamp.get("kind")) != (
            CHECKPOINT_FORMAT, CHECKPOINT_KIND
        ):
            raise RecoveryError(
                f"checkpoint {path.name} has an unsupported format stamp "
                f"(format={stamp.get('format')!r}, kind={stamp.get('kind')!r}"
                f"; this build reads format {CHECKPOINT_FORMAT} only)"
            )
        if payload.get("seq") != seq:
            raise RecoveryError(
                f"checkpoint {path.name} claims seq {payload.get('seq')!r}"
            )
        if payload.get("prev_seq") != prev_seq:
            raise RecoveryError(
                f"checkpoint chain is broken at {path.name}: expected "
                f"prev_seq {prev_seq}, found {payload.get('prev_seq')!r}"
            )
        if "delta" not in payload:
            raise RecoveryError(
                f"checkpoint {path.name} is missing the 'delta' section"
            )
        if "core" not in payload and not payload.get("core_stripped"):
            raise RecoveryError(
                f"checkpoint {path.name} carries neither a core nor a "
                "core-stripped stamp"
            )
        chain.append((payload, path))
        prev_seq = seq
    if chain and "core" not in chain[-1][0]:
        raise RecoveryError(
            f"latest checkpoint {chain[-1][1].name} has no core (a crash "
            "can strip only superseded links); the chain cannot restore"
        )
    return chain


@dataclass
class _ChainState:
    """Everything one checkpoint-chain restore yields: the restored
    engine plus the bookkeeping a writer resuming *this* chain needs."""

    links: int  # checkpoints loaded
    checkpoint_seq: int
    epoch: int  # next WAL epoch hint (latest checkpoint's + 1, or 0)
    inner: Any  # restored engine (or a fresh build when no chain)
    #: What the chain covers: the restored engine's history marks, taken
    #: before any tail record is applied.  Data, not an instance's cursor
    #: — promote() resumes a *warm* engine on an independent restore's.
    marks: Dict[str, Any]
    latest_path: Optional[pathlib.Path]


def _restore_from_chain(
    wal_path: pathlib.Path, config: EngineConfig, shards: int
) -> _ChainState:
    """Load + validate the checkpoint chain and restore an engine from it.

    Raises :class:`~repro.errors.RecoveryError` on any chain damage — a
    malformed delta, a core whose length markers disagree with what the
    deltas reconstruct — naming the checkpoint seq; an empty chain yields
    a fresh engine at seq 0.
    """
    chain = _load_checkpoint_chain(wal_path / _CHECKPOINTS_DIR)
    latest_path: Optional[pathlib.Path] = None
    if chain:
        latest, latest_path = chain[-1]
        checkpoint_seq = latest["seq"]
        epoch = int(latest.get("epoch", 0)) + 1
        try:
            inner = restore_engine(
                latest["core"],
                history=[checkpoint["delta"] for checkpoint, _path in chain],
            )
        except ReproError as exc:
            raise RecoveryError(
                f"checkpoint seq {checkpoint_seq} failed to restore: {exc}"
            ) from exc
    else:
        checkpoint_seq = 0
        epoch = 0
        inner = build_engine(config, shards=shards)
    return _ChainState(
        links=len(chain),
        checkpoint_seq=checkpoint_seq,
        epoch=epoch,
        inner=inner,
        marks=inner.history_marks(),
        latest_path=latest_path,
    )


def _replay_record(inner, step, control) -> Optional[bool]:
    """Apply one WAL record to *inner* exactly as the original run did.

    Returns ``True`` when a step was applied, ``None`` when a step was
    rejected by the engine, and ``False`` for a control record.  A
    :class:`~repro.errors.ReproError` raised by the engine is the
    deterministic re-raise of an error the original run also hit (a
    rejected step mutates nothing) and is swallowed, exactly as the
    original caller's error path did.
    """
    try:
        if step is not None:
            inner.feed(step)
            return True
        if control == "sweep":
            inner.sweep()
        elif control == "flush":
            inner.flush()
        elif control == "flush_pending":
            inner.flush_pending()
    except ReproError:
        if step is not None:
            return None
    return False


#: Chain reads retried while the chain head keeps advancing (see
#: :meth:`_LogTail.adopt`), and extra read rounds one follow may spend
#: chasing adoptions.
_ADOPT_RETRIES = 3


class _LogTail:
    """The one reader/applier over a ``wal_dir``'s checkpoint chain and
    segment tail.

    :meth:`adopt` restores an engine from the chain; :meth:`follow`
    reads whatever segment bytes are new, stashes the records by seq,
    applies the contiguous extension of the applied prefix and adopts
    the chain again when the writer checkpointed past it.  The three
    ways to take a directory over are entry points on this machine:
    ``WalFollower.poll()`` follows *unsealed* beside a live writer;
    :func:`recover` and ``WalFollower.promote()`` take the writer lock
    and follow *sealed* to the end, then :meth:`repair` and wrap.

    ``sealed`` (chosen by the entry point, never by a caller) is the
    one mode switch — whether an append can still be in flight:

    ======================================  =====================  ====================
    found while following                   sealed (lock held)     unsealed (tailing)
    ======================================  =====================  ====================
    unterminated final fragment, parses     a record               not read yet
    unterminated final fragment, invalid    the torn tail          not read yet
    terminated unparsable **last** line     the torn tail          suspect, unconsumed
    unparsable line anywhere else           corruption             corruption
    more than one torn tail / suspect       corruption             corruption
    duplicate seq above the watermark       corruption             corruption
    gap left when the read ends             corruption             lag (stays stashed)
    record at or below the watermark        skipped                skipped
    ======================================  =====================  ====================
    """

    def __init__(self, wal_dir, io: StorageIO) -> None:
        self.wal_path = pathlib.Path(wal_dir)
        self.io = io
        self.manifest = _load_manifest(self.wal_path)
        self.shards = int(self.manifest["shards"])
        try:
            self.config = EngineConfig(**self.manifest["config"])
        except (TypeError, ReproError) as exc:
            raise RecoveryError(
                f"WAL manifest config is invalid: {exc}"
            ) from exc
        self.chain: Optional[_ChainState] = None
        self.engine: Any = None
        #: watermark: every record with seq <= applied_seq is in engine
        self.applied_seq = 0
        #: highest seq seen on disk (may run ahead of applied_seq)
        self.visible_seq = 0
        #: byte offset of the first unconsumed byte, per segment name
        self.offsets: Dict[str, int] = {}
        #: parsed records not yet contiguous with the watermark, by seq
        self.stash: Dict[int, Tuple[Optional[Step], Optional[str]]] = {}
        #: (segment, good-prefix byte length) of each torn tail the
        #: latest read found
        self.torn: List[Tuple[pathlib.Path, int]] = []
        self.records_applied = 0
        self.replayed_steps = 0
        self.replayed_controls = 0
        self.adoptions = 0

    # -- chain -------------------------------------------------------------------

    def latest_checkpoint_seq(self) -> int:
        checkpoints = self.wal_path / _CHECKPOINTS_DIR
        latest = 0
        if checkpoints.is_dir():
            for path in checkpoints.iterdir():
                seq = _parse_checkpoint_name(path.name)
                if seq is not None and seq > latest:
                    latest = seq
        return latest

    def adopt(self) -> bool:
        """Restore from the checkpoint chain; False = racing, try later.

        A live writer publishes checkpoint N and then strips N-1's core
        (and superseded links), so a chain read overlapping the pair can
        transiently see a coreless "latest" or lose a link mid-read.
        While the chain *head keeps advancing* between attempts, any
        :class:`RecoveryError` is that race, not damage — and if the
        writer checkpoints faster than this process can restore (a
        write burst on a loaded host), the tail stays on its current
        engine until a later follow lands the adoption.  A failure with
        a *static* head — always the case under the writer lock — is the
        real thing and raises.
        """
        last_head = -1
        for _attempt in range(_ADOPT_RETRIES):
            head = self.latest_checkpoint_seq()
            try:
                state = _restore_from_chain(
                    self.wal_path, self.config, self.shards
                )
            except RecoveryError:
                if head == last_head:
                    raise
                last_head = head
                continue
            self.chain = state
            self.engine = state.inner
            self.applied_seq = state.checkpoint_seq
            self.visible_seq = max(self.visible_seq, self.applied_seq)
            self.forget_reads()
            return True
        return False

    # -- segments ----------------------------------------------------------------

    def segment_paths(self) -> List[pathlib.Path]:
        segments = self.wal_path / _SEGMENTS_DIR
        if not segments.is_dir():
            return []
        return sorted(
            path
            for path in segments.iterdir()
            if _parse_segment_name(path.name) is not None
        )

    def forget_reads(self) -> None:
        """Drop the incremental read state; the next read rescans every
        segment from byte 0 (records at or below the watermark are
        skipped by seq)."""
        self.offsets.clear()
        self.stash.clear()

    def _read(self, sealed: bool) -> None:
        """Parse every segment byte not consumed yet into the stash."""
        self.torn = []
        seen = set()
        for path in self.segment_paths():
            try:
                data = self.io.read_bytes(path)
            except FileNotFoundError:
                continue  # truncated away mid-listing; adoption follows
            if len(data) < self.offsets.get(path.name, 0):
                # The segment shrank: a torn tail was repaired in place
                # under our offsets.  Start the whole read over.
                self.forget_reads()
                return self._read(sealed)
            seen.add(path.name)
            self._read_segment(path, data, sealed)
        for name in list(self.offsets):
            if name not in seen:
                del self.offsets[name]  # segment truncated by a checkpoint
        if len(self.torn) > 1:
            # A single crash can tear at most ONE append globally
            # (records are written and flushed one at a time), and a
            # torn record's seq is unreadable, so the contiguity check
            # could not see what a second one lost.
            raise WalCorruptionError(
                f"{len(self.torn)} torn segment tails found in "
                f"{self.wal_path}; a single crash can tear at most one "
                "record, so this log is damaged, not crashed"
            )

    def _read_segment(self, path: pathlib.Path, data: bytes, sealed: bool) -> None:
        name, size = path.name, len(data)
        offset = self.offsets.get(name, 0)
        lines = data[offset:].split(b"\n")
        fragment = lines.pop()  # the bytes after the last newline, if any
        if sealed and fragment:
            # Nothing is in flight under the writer lock: the fragment
            # is a record missing only its newline, or the torn tail.
            lines.append(fragment)
        in_flight = bool(fragment) and not sealed
        for index, raw in enumerate(lines):
            try:
                seq, step, control = wal_record_from_line(
                    raw.decode("utf-8", errors="replace")
                )
            except ModelError as exc:
                if index == len(lines) - 1 and not in_flight:
                    # The one legal artifact of a crash mid-append.  Its
                    # offset stays put: repair() cuts there, and an
                    # unsealed reader looks again next time.
                    self.torn.append((path, offset))
                    return
                raise WalCorruptionError(
                    f"unreadable WAL record in {name} at byte "
                    f"{offset} (not the segment tail): {exc}"
                ) from exc
            # (min: a sealed record missing its newline ends at the end)
            offset = min(offset + len(raw) + 1, size)
            self.offsets[name] = offset
            if seq > self.visible_seq:
                self.visible_seq = seq
            if seq <= self.applied_seq:
                continue  # covered by the chain, segment not yet truncated
            if seq in self.stash:
                raise self._not_contiguous(f"seq {seq} appears twice")
            self.stash[seq] = (step, control)

    def _not_contiguous(self, detail: str) -> WalCorruptionError:
        """The tail after checkpoint seq *s* must be s+1..n, each once."""
        return WalCorruptionError(
            f"WAL tail is not contiguous after checkpoint seq "
            f"{self.chain.checkpoint_seq}: {detail}"
        )

    # -- apply -------------------------------------------------------------------

    def _apply(self, sealed: bool) -> int:
        """Apply the contiguous run the stash now extends; returns count."""
        if (self.applied_seq + 1) not in self.stash:
            return 0
        if not sealed:
            # The unsealed follow is a live follower's poll(); sealed
            # take-overs never consult this site, so seeded fault plans
            # keep their occurrence arithmetic.
            self.io.check("follower.apply")
        applied = 0
        while (record := self.stash.pop(self.applied_seq + 1, None)) is not None:
            outcome = _replay_record(self.engine, *record)
            if outcome is True:
                self.replayed_steps += 1
            elif outcome is False:
                self.replayed_controls += 1
            self.applied_seq += 1
            applied += 1
        self.records_applied += applied
        return applied

    def follow(self, *, sealed: bool) -> int:
        """Read what is new, apply what is contiguous, adopt the chain
        when the writer checkpointed past the watermark (it truncated
        the segments that held the records in between); returns records
        applied.  A *sealed* follow ends with every record on disk
        applied or raises."""
        applied = 0
        # An adoption forgets the reads, so the scan must rerun to pick
        # up the tail past the new checkpoint; one extra round suffices
        # unless the writer checkpoints faster than we read.
        for _round in range(_ADOPT_RETRIES + 1):
            self._read(sealed)
            applied += self._apply(sealed)
            behind = self.latest_checkpoint_seq() > self.applied_seq
            if not (behind and self.adopt()):
                break
            self.adoptions += 1
        if sealed and self.stash:
            found = sorted(self.stash)
            raise self._not_contiguous(
                f"applied through seq {self.applied_seq}, then found "
                f"{found[:20]}" + ("..." if len(found) > 20 else "")
            )
        return applied

    # -- taking over -------------------------------------------------------------

    def repair(self) -> "RecoveryInfo":
        """After a sealed follow validated the log: cut the torn tail
        off in place, so a later reader sees only complete records, and
        report what this take-over found and did."""
        repaired = []
        for path, length in self.torn:
            self.io.truncate(path, length)
            repaired.append(path.name)
        return RecoveryInfo(
            checkpoint_seq=self.chain.checkpoint_seq,
            checkpoints_loaded=self.chain.links,
            replayed_steps=self.replayed_steps,
            replayed_controls=self.replayed_controls,
            torn_records_dropped=len(self.torn),
            repaired_segments=tuple(repaired),
        )

    def next_epoch(self) -> int:
        """A resumed writer never appends to a segment that exists: its
        epoch is past the chain's hint and past every segment on disk."""
        epochs = [
            _parse_segment_name(path.name)[0] + 1
            for path in self.segment_paths()
        ]
        return max([self.chain.epoch] + epochs)


def recover(
    wal_dir,
    *,
    observers: Iterable[EngineObserver] = (),
    checkpoint_interval: Optional[int] = None,
    sync: Optional[str] = None,
    io: Optional[StorageIO] = None,
) -> DurableEngine:
    """Rebuild a live :class:`DurableEngine` from a crashed ``wal_dir``.

    Loads the latest valid checkpoint chain (corrupt chain ⇒
    :class:`~repro.errors.RecoveryError`), replays the WAL tail in
    sequence order (torn final record dropped and repaired; any other
    damage ⇒ :class:`~repro.errors.WalCorruptionError`), and resumes
    logging where the crash left off.  The result is byte-identical to an
    uninterrupted run over the same logged prefix.  *observers* are
    attached **after** replay, so they see only post-recovery events.

    The exclusive writer lock is taken before the directory is read (a
    live writer would mutate segments under the scan) and released again
    if recovery fails; pass *io* to route the resumed engine's storage
    calls — and this recovery's reads and repairs — through a custom
    :class:`~repro.faults.StorageIO` shim.
    """
    storage = io if io is not None else _DEFAULT_IO
    storage.check("recover.start")
    tail = _LogTail(wal_dir, storage)
    lock = _WalLock.acquire(tail.wal_path)
    try:
        tail.adopt()
        tail.follow(sealed=True)
        return DurableEngine._resume(
            tail.engine, tail, lock, tail.repair(),
            observers=observers,
            checkpoint_interval=checkpoint_interval,
            sync=sync,
        )
    except BaseException:
        lock.release()
        raise


def open_durable(
    wal_dir,
    config: Optional[EngineConfig] = None,
    *,
    shards: Optional[int] = None,
    checkpoint_interval: Optional[int] = None,
    sync: Optional[str] = None,
    observers: Iterable[EngineObserver] = (),
    io: Optional[StorageIO] = None,
    **overrides: Any,
) -> DurableEngine:
    """Open *wal_dir* whether or not it already holds a durable engine.

    The serving layer's create-or-recover entry point: if *wal_dir*
    carries a manifest, the engine is rebuilt with :func:`recover` (and a
    ``config``/``shards`` explicitly passed here must match what the
    manifest records — a mismatch raises :class:`DurabilityError` rather
    than silently serving a different configuration); otherwise a fresh
    :class:`DurableEngine` is created with the given configuration.
    """
    wal_path = pathlib.Path(wal_dir)
    manifest_path = wal_path / MANIFEST_NAME
    if manifest_path.exists():
        engine = recover(
            wal_path,
            observers=observers,
            checkpoint_interval=checkpoint_interval,
            sync=sync,
            io=io,
        )
        if shards is not None and engine.shard_count != shards:
            engine.close()
            raise DurabilityError(
                f"wal_dir {str(wal_path)!r} was created with "
                f"shards={engine.shard_count}, but open_durable was "
                f"asked for shards={shards}"
            )
        if config is not None or overrides:
            want = config if config is not None else EngineConfig()
            if overrides:
                want = dataclasses.replace(want, **overrides)
            have = engine.config
            if dataclasses.asdict(want) != dataclasses.asdict(have):
                engine.close()
                raise DurabilityError(
                    f"wal_dir {str(wal_path)!r} records config {have!r}, "
                    f"which differs from the requested {want!r}"
                )
        return engine
    given = {
        "shards": shards, "checkpoint_interval": checkpoint_interval, "sync": sync,
    }
    return DurableEngine(
        config,
        wal_dir=wal_path,
        observers=observers,
        io=io,
        # What the caller left unsaid takes DurableEngine's own default.
        **{key: value for key, value in given.items() if value is not None},
        **overrides,
    )
