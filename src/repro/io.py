"""Serialization: reduced graphs and schedules to/from JSON.

For debugging sessions, regression fixtures, and crash post-mortems: dump
the scheduler's current reduced graph (arc structure + payloads + deletion
bookkeeping) or a step stream, reload them bit-identically later.

The graph format (version 2) carries, besides nodes and arcs, the bitset
kernel state (:meth:`~repro.graphs.bitclosure.BitClosureGraph.state_dict`): the
interner's slot/free-list layout and the successor/descendant rows as
hex-encoded bitmasks.  Loading restores the kernel directly — no
re-propagation — and is *bit-exact*: the restored graph has the same id
assignment, the same free list, and therefore the same masks everywhere.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, List, Optional

from repro.core.reduced_graph import ReducedGraph, TxnInfo
from repro.errors import ModelError, SnapshotError
from repro.graphs.bitclosure import BitClosureGraph
from repro.model.schedule import Schedule
from repro.model.status import AccessMode, TxnState
from repro.model.steps import (
    Begin,
    BeginDeclared,
    Finish,
    Read,
    Step,
    Write,
    WriteItem,
)

__all__ = [
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "graph_from_json",
    "step_to_dict",
    "step_from_dict",
    "step_result_to_dict",
    "step_result_from_dict",
    "history_step_to_row",
    "history_step_from_row",
    "history_result_to_row",
    "history_result_from_row",
    "history_deletions_to_rows",
    "history_deletions_from_rows",
    "currency_to_dict",
    "currency_from_dict",
    "schedule_to_list",
    "schedule_from_list",
    "engine_snapshot_to_json",
    "engine_snapshot_from_json",
    "restore_engine",
    "atomic_write_text",
    "atomic_write_json",
    "WAL_RECORD_FORMAT",
    "wal_record_to_line",
    "wal_record_from_line",
    "WIRE_FORMAT",
    "wire_message_to_line",
    "wire_message_from_line",
]

_FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# Atomic file writes
# ---------------------------------------------------------------------------


def atomic_write_text(path, text: str, *, fsync: bool = True) -> None:
    """Write *text* to *path* so a crash never leaves a torn file.

    The content goes to a temporary file in the **same directory** (so the
    final rename cannot cross filesystems), is flushed — and fsync'd when
    *fsync* is true — and is then moved over *path* with :func:`os.replace`,
    which is atomic on POSIX: readers see either the complete old content
    or the complete new content, never a prefix.  With *fsync* the parent
    directory is synced too, so the rename itself survives a power loss.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".tmp-", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            # mkstemp creates 0600 files; give the published file the
            # ordinary umask-governed mode so overwriting a shared
            # artifact does not silently revoke other readers.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    if fsync:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def atomic_write_json(
    path, payload, *, indent: Optional[int] = 2, fsync: bool = True
) -> None:
    """Atomic, key-sorted JSON dump (see :func:`atomic_write_text`).

    ``indent=None`` writes compact single-line JSON without key sorting —
    the cheap mode the durability layer uses for checkpoint files, where
    write latency sits on the feed path and nobody diffs the bytes.
    """
    if indent is None:
        text = json.dumps(payload, separators=(",", ":"))
    else:
        text = json.dumps(payload, indent=indent, sort_keys=True)
    atomic_write_text(path, text + "\n", fsync=fsync)


def graph_to_dict(
    graph: ReducedGraph, *, include_deleted: bool = True
) -> Dict[str, Any]:
    """A JSON-ready dict capturing the whole reduced graph.

    Format 2: the ``closure`` section carries the bitset kernel state
    (interner layout + hex mask rows) so :func:`graph_from_dict` restores
    without re-propagating the closure; ``arcs`` stays in the payload for
    human audit and cross-checks.

    ``include_deleted=False`` omits the ``deleted`` tombstone list — the
    one section that grows with *history* rather than live state; an
    engine's snapshot takes it from its history log instead.

    Not allowed while a deletion trial is open: the payload would record
    the to-be-rolled-back deletions as permanent and serialize their
    detached interner slots as leaked capacity.
    """
    if graph.in_trial:
        raise ModelError(
            "cannot serialize a reduced graph during a deletion trial; "
            "finish rollback_trial() first"
        )
    nodes = []
    for txn in sorted(graph.nodes()):
        info = graph.info(txn)
        nodes.append(
            {
                "txn": txn,
                "state": info.state.value,
                "accesses": {
                    entity: mode.name for entity, mode in sorted(info.accesses.items())
                },
                "future": (
                    None
                    if info.future is None
                    else {e: m.name for e, m in sorted(info.future.items())}
                ),
                "reads_from": sorted(info.reads_from),
            }
        )
    payload = {
        "format": _FORMAT_VERSION,
        "nodes": nodes,
        "arcs": sorted(graph.arcs()),
        "aborted": sorted(graph.aborted_transactions()),
        "closure": graph.kernel.state_dict(),
    }
    if include_deleted:
        payload["deleted"] = sorted(graph.deleted_transactions())
    return payload


def _node_info_from_dict(node: Dict[str, Any]) -> TxnInfo:
    future = node.get("future")
    return TxnInfo(
        txn=node["txn"],
        state=TxnState(node["state"]),
        accesses={
            entity: AccessMode[mode]
            for entity, mode in node["accesses"].items()
        },
        future=(
            None
            if future is None
            else {e: AccessMode[m] for e, m in future.items()}
        ),
        reads_from=set(node.get("reads_from", ())),
    )


def _require_section(payload: Dict[str, Any], key: str, what: str):
    """Fetch a required payload section or raise a *named* ModelError.

    Recovery relies on these names to tell a torn tail record (skippable)
    from a corrupt checkpoint (abort): a raw ``KeyError('nodes')`` says
    nothing, ``"graph payload is missing the 'nodes' section"`` does.
    """
    if not isinstance(payload, dict):
        raise ModelError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    if key not in payload:
        raise ModelError(f"{what} is missing the {key!r} section")
    return payload[key]


def graph_from_dict(payload: Dict[str, Any]) -> ReducedGraph:
    """Inverse of :func:`graph_to_dict`.

    Restores the kernel bit-exactly (no closure re-propagation).
    Truncated or type-mangled payloads raise :class:`ModelError` naming
    the missing/invalid section instead of surfacing a raw ``KeyError``.
    """
    version = _require_section(payload, "format", "graph payload")
    if version != _FORMAT_VERSION:
        raise ModelError(f"unsupported graph format {version!r}")
    try:
        closure_state = _require_section(payload, "closure", "graph payload")
        nodes = _require_section(payload, "nodes", "graph payload")
        graph = ReducedGraph()
        graph._closure = BitClosureGraph.from_state_dict(closure_state)
        for node in nodes:
            info = _node_info_from_dict(node)
            if info.txn not in graph._closure:
                raise ModelError(
                    f"graph payload node {info.txn!r} missing from the "
                    "serialized closure kernel"
                )
            graph._info[info.txn] = info
            graph._index_payload(info.txn, info)
        if len(graph._info) != len(graph._closure):
            raise ModelError(
                "serialized closure kernel carries nodes without payloads"
            )
        # Deletion/abort bookkeeping: restore so id-reuse protection
        # survives a round trip.
        graph._deleted.update(payload.get("deleted", ()))
        graph._aborted.update(payload.get("aborted", ()))
    except ModelError:
        raise
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ModelError(
            f"graph payload has an invalid section: {exc!r}"
        ) from exc
    return graph


def graph_to_json(graph: ReducedGraph, indent: int = 2) -> str:
    return json.dumps(graph_to_dict(graph), indent=indent, sort_keys=True)


def graph_from_json(text: str) -> ReducedGraph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(
            f"graph JSON is truncated or not valid JSON: {exc}"
        ) from exc
    return graph_from_dict(payload)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

_STEP_ENCODERS = {
    Begin: lambda s: {"kind": "begin", "txn": s.txn},
    BeginDeclared: lambda s: {
        "kind": "begin_declared",
        "txn": s.txn,
        "declared": {e: m.name for e, m in sorted(s.declared.items())},
    },
    Read: lambda s: {"kind": "read", "txn": s.txn, "entity": s.entity},
    Write: lambda s: {"kind": "write", "txn": s.txn, "entities": sorted(s.entities)},
    WriteItem: lambda s: {"kind": "write_item", "txn": s.txn, "entity": s.entity},
    Finish: lambda s: {"kind": "finish", "txn": s.txn},
}


def step_to_dict(step: Step) -> Dict[str, Any]:
    """Encode one step as a small JSON-ready dict."""
    encoder = _STEP_ENCODERS.get(type(step))
    if encoder is None:
        raise ModelError(f"cannot encode step kind {type(step).__name__}")
    return encoder(step)


def step_from_dict(item: Dict[str, Any]) -> Step:
    """Inverse of :func:`step_to_dict`.

    Raises :class:`ModelError` (naming the offending field) on truncated
    or type-mangled payloads — never a raw ``KeyError``.  Ids must be
    strings and ``entities`` a list of them: a string there would
    otherwise be read as its characters.
    """
    kind = _require_section(item, "kind", "step payload")
    try:
        txn = _id(item["txn"], "txn")
        if kind == "begin":
            return Begin(txn)
        if kind == "begin_declared":
            return BeginDeclared(txn, _declared(item["declared"]))
        if kind == "read":
            return Read(txn, _id(item["entity"], "entity"))
        if kind == "write":
            return Write(txn, frozenset(_ids(item["entities"], "entities")))
        if kind == "write_item":
            return WriteItem(txn, _id(item["entity"], "entity"))
        if kind == "finish":
            return Finish(txn)
    except ModelError as exc:
        raise ModelError(f"step payload of kind {kind!r}: {exc}") from exc
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ModelError(
            f"step payload of kind {kind!r} has a missing or invalid "
            f"field: {exc!r}"
        ) from exc
    raise ModelError(f"unknown step kind {kind!r}")


def schedule_to_list(schedule: Schedule) -> List[Dict[str, Any]]:
    """Encode every step as a small dict."""
    return [step_to_dict(step) for step in schedule]


def schedule_from_list(items: List[Dict[str, Any]]) -> Schedule:
    """Inverse of :func:`schedule_to_list`."""
    return Schedule(tuple(step_from_dict(item) for item in items))


# ---------------------------------------------------------------------------
# Step results and currency (engine checkpoints)
# ---------------------------------------------------------------------------


def step_result_to_dict(result) -> Dict[str, Any]:
    """Encode a :class:`~repro.scheduler.events.StepResult`."""
    return {
        "step": step_to_dict(result.step),
        "decision": result.decision.value,
        "arcs_added": [list(arc) for arc in result.arcs_added],
        "aborted": list(result.aborted),
        "committed": list(result.committed),
        "released": [step_to_dict(step) for step in result.released],
        "blocked_on": list(result.blocked_on),
    }


def step_result_from_dict(item: Dict[str, Any]):
    """Inverse of :func:`step_result_to_dict`.

    As strict as :func:`step_from_dict`: ids are strings, every list
    field is a list, and an arc is a ``[tail, head]`` pair.
    """
    step = _require_section(item, "step", "step-result payload")
    decision = _require_section(item, "decision", "step-result payload")
    try:
        return StepResult(
            step=step_from_dict(step),
            decision=Decision(decision),
            arcs_added=_arcs(item.get("arcs_added", []), "arcs_added"),
            aborted=_ids(item.get("aborted", []), "aborted"),
            committed=_ids(item.get("committed", []), "committed"),
            released=tuple(
                step_from_dict(s)
                for s in _list(item.get("released", []), "released")
            ),
            blocked_on=_ids(item.get("blocked_on", []), "blocked_on"),
        )
    except ModelError as exc:
        raise ModelError(f"step-result payload: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ModelError(
            f"step-result payload has an invalid section: {exc!r}"
        ) from exc


# ---------------------------------------------------------------------------
# History rows (snapshot logs and checkpoint deltas)
# ---------------------------------------------------------------------------
#
# Every list that grows with history — a scheduler's result and
# execution logs, a sharded engine's global results, the deletions — is
# written as positional rows, not as the self-describing dicts above: a
# history entry is written once per step and read back only by a
# restore, so the field names would be most of the bytes.  The dict
# codecs stay what the wire, the WAL and live-state sections use.
#
# A step row is ``[tag, txn, payload?]``; a result row is ``[step_row]``
# when accepted with every other field empty, else ``[step_row, code,
# arcs, aborted, committed, released_rows, blocked_on]`` with trailing
# empty fields trimmed (DESIGN.md §2.7 prints the table); a deletion row
# is ``[tick, txn, ...]``, one per deleting sweep.

_ROW_TAGS = {
    Begin: "b",
    BeginDeclared: "d",
    Read: "r",
    Write: "w",
    WriteItem: "i",
    Finish: "f",
}
#: Row length per step tag.
_ROW_ARITY = {"b": 2, "f": 2, "r": 3, "i": 3, "w": 3, "d": 3}


def history_step_to_row(step: Step) -> list:
    """Encode one step as a history row (``["r", txn, entity]``, ...)."""
    kind = type(step)
    if kind is Read or kind is WriteItem:
        return [_ROW_TAGS[kind], step.txn, step.entity]
    if kind is Begin or kind is Finish:
        return [_ROW_TAGS[kind], step.txn]
    if kind is Write:
        return ["w", step.txn, sorted(step.entities)]
    if kind is BeginDeclared:
        return [
            "d",
            step.txn,
            {e: m.name for e, m in sorted(step.declared.items())},
        ]
    raise ModelError(f"cannot encode step kind {kind.__name__}")


def history_step_from_row(row) -> Step:
    """Inverse of :func:`history_step_to_row`; any other shape — not a
    list, an unknown tag, the wrong length for its tag, a non-string id —
    raises :class:`ModelError`."""
    if type(row) is not list or not row:
        raise ModelError(f"history step row must be a non-empty list, got {row!r}")
    tag = row[0]
    arity = _ROW_ARITY.get(tag) if type(tag) is str else None
    if arity is None:
        raise ModelError(f"history step row has an unknown tag {tag!r}")
    if len(row) != arity:
        raise ModelError(
            f"history step row {row!r} has {len(row)} fields; tag {tag!r} "
            f"takes {arity}"
        )
    txn = _id(row[1], "txn")
    if tag == "r":
        return Read(txn, _id(row[2], "entity"))
    if tag == "b":
        return Begin(txn)
    if tag == "w":
        return Write(txn, frozenset(_ids(row[2], "entities")))
    if tag == "i":
        return WriteItem(txn, _id(row[2], "entity"))
    if tag == "f":
        return Finish(txn)
    return BeginDeclared(txn, _declared(row[2]))


#: The longest result row: step, code and the five list fields.
_RESULT_ROW_MAX = 7


def history_result_to_row(result) -> list:
    """Encode a :class:`~repro.scheduler.events.StepResult` as a history
    row: ``[step_row]`` for a plain acceptance, else the step row, the
    decision code and the five list fields with trailing empties trimmed."""
    step = history_step_to_row(result.step)
    row = [
        step,
        _DECISION_CODES[result.decision],
        [list(arc) for arc in result.arcs_added],
        list(result.aborted),
        list(result.committed),
        [history_step_to_row(s) for s in result.released],
        list(result.blocked_on),
    ]
    while len(row) > 2 and not row[-1]:
        row.pop()
    if len(row) == 2 and row[1] == "a":
        return [step]
    return row


def history_result_from_row(row):
    """Inverse of :func:`history_result_to_row`.

    Only the canonical encoding decodes: a row that is not a list, is
    longer than seven fields, carries an unknown decision code or a
    mistyped field, or ends in a field the encoder would have trimmed
    raises :class:`ModelError` — a short row is never silently read as
    an acceptance.
    """
    if type(row) is not list or not 1 <= len(row) <= _RESULT_ROW_MAX:
        raise ModelError(
            f"history result row must be a list of 1 to {_RESULT_ROW_MAX} "
            f"fields, got {row!r}"
        )
    step = history_step_from_row(row[0])
    if len(row) == 1:
        return StepResult(step, Decision.ACCEPTED)
    code = row[1]
    decision = _DECISIONS.get(code) if type(code) is str else None
    if decision is None:
        raise ModelError(f"history result row has an unknown decision code {code!r}")
    if not row[-1] or (len(row) == 2 and decision is Decision.ACCEPTED):
        raise ModelError(
            f"history result row {row!r} is not trimmed (an empty trailing "
            "field, or a plain acceptance spelled out)"
        )
    fields = row[2:] + [[]] * (_RESULT_ROW_MAX - len(row))
    arcs, aborted, committed, released, blocked_on = fields
    return StepResult(
        step,
        decision,
        arcs_added=_arcs(arcs, "arcs"),
        aborted=_ids(aborted, "aborted"),
        committed=_ids(committed, "committed"),
        released=tuple(
            history_step_from_row(s) for s in _list(released, "released")
        ),
        blocked_on=_ids(blocked_on, "blocked_on"),
    )


def history_deletions_to_rows(txns, tick_of) -> list:
    """Encode a deletion-order tail as ``[tick, txn, ...]`` rows: one row
    per run of deletions at one tick, i.e. one per deleting sweep."""
    rows: list = []
    for txn in txns:
        tick = tick_of[txn]
        if rows and rows[-1][0] == tick:
            rows[-1].append(txn)
        else:
            rows.append([tick, txn])
    return rows


def history_deletions_from_rows(rows) -> List[tuple]:
    """Inverse of :func:`history_deletions_to_rows`, as ``(tick, txn)``
    pairs; a row that is not ``[int, id, ...]`` raises ModelError."""
    pairs = []
    for row in _list(rows, "deletion rows"):
        if type(row) is not list or len(row) < 2 or type(row[0]) is not int:
            raise ModelError(
                f"history deletion row must be [tick, txn, ...], got {row!r}"
            )
        pairs.extend((row[0], txn) for txn in _ids(row[1:], "deleted ids"))
    return pairs


# -- field checks shared by the dict and row decoders --------------------------


def _id(value, what: str) -> str:
    if type(value) is not str:
        raise ModelError(f"{what} must be a string id, got {value!r}")
    return value


def _list(value, what: str) -> list:
    if type(value) is not list:
        raise ModelError(f"{what} must be a list, got {value!r}")
    return value


def _ids(value, what: str) -> tuple:
    for item in _list(value, what):
        if type(item) is not str:
            raise ModelError(f"{what} must hold string ids, got {item!r}")
    return tuple(value)


def _arcs(value, what: str) -> tuple:
    arcs = []
    for arc in _list(value, what):
        if type(arc) is not list or len(arc) != 2:
            raise ModelError(f"{what} must hold [tail, head] pairs, got {arc!r}")
        arcs.append((_id(arc[0], what), _id(arc[1], what)))
    return tuple(arcs)


def _declared(value) -> Dict[str, AccessMode]:
    if type(value) is not dict:
        raise ModelError(f"declared must be an object, got {value!r}")
    declared = {}
    for entity, mode in value.items():
        if type(entity) is not str:
            raise ModelError(f"declared entity must be a string, got {entity!r}")
        if type(mode) is not str or mode not in AccessMode.__members__:
            raise ModelError(f"declared mode of {entity!r} is invalid: {mode!r}")
        declared[entity] = AccessMode[mode]
    return declared


# ---------------------------------------------------------------------------
# Write-ahead-log records
# ---------------------------------------------------------------------------

#: Version stamp carried by every WAL record (see :mod:`repro.durability`).
WAL_RECORD_FORMAT = 1

#: Control operations a WAL may record besides fed steps (state mutations
#: the durable engine exposes outside the per-step loop).
_WAL_CONTROL_OPS = frozenset({"sweep", "flush", "flush_pending"})


def wal_record_to_line(seq: int, step=None, *, control: str = None) -> str:
    """Encode one WAL record as a compact single-line JSON document.

    A record is either a fed step (``step=...``) or a control operation
    (``control="sweep" | "flush" | "flush_pending"``) — exactly one of the
    two.  Lines never contain raw newlines (compact separators, ASCII-safe
    ``json.dumps``), so one line on disk is one record and a torn tail is
    detectable as an unparsable final line.

    The encoding is ``json.dumps(record, separators=(",", ":"),
    sort_keys=True)``.  The WAL append sits on every feed, where dumping
    a freshly built dict costs ~5µs and a per-kind f-string ~1µs, so the
    five per-step kinds are written out by hand — same key order, ids
    escaped by ``json.dumps`` — and everything else takes the generic
    path; a parity test pins the bytes.
    """
    if (step is None) == (control is None):
        raise ModelError(
            "a WAL record encodes exactly one of a step or a control op"
        )
    if step is None:
        if control not in _WAL_CONTROL_OPS:
            raise ModelError(
                f"unknown WAL control op {control!r}; known: "
                f"{', '.join(sorted(_WAL_CONTROL_OPS))}"
            )
        record = {"format": WAL_RECORD_FORMAT, "seq": seq, "control": control}
        return json.dumps(record, separators=(",", ":"), sort_keys=True)
    kind = type(step)
    quote = json.dumps
    head = f'{{"format":{WAL_RECORD_FORMAT},"seq":{seq},"step":'
    if kind is Read:
        return (
            f'{head}{{"entity":{quote(step.entity)},"kind":"read",'
            f'"txn":{quote(step.txn)}}}}}'
        )
    if kind is Write:
        entities = ",".join(quote(e) for e in sorted(step.entities))
        return (
            f'{head}{{"entities":[{entities}],"kind":"write",'
            f'"txn":{quote(step.txn)}}}}}'
        )
    if kind is WriteItem:
        return (
            f'{head}{{"entity":{quote(step.entity)},"kind":"write_item",'
            f'"txn":{quote(step.txn)}}}}}'
        )
    if kind is Begin:
        return f'{head}{{"kind":"begin","txn":{quote(step.txn)}}}}}'
    if kind is Finish:
        return f'{head}{{"kind":"finish","txn":{quote(step.txn)}}}}}'
    record = {"format": WAL_RECORD_FORMAT, "seq": seq, "step": step_to_dict(step)}
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


def wal_record_from_line(line: str):
    """Decode and strictly validate one WAL line.

    Returns ``(seq, step_or_None, control_or_None)``.  Any malformation —
    invalid JSON, wrong format stamp, bad sequence number, missing or
    mangled payload — raises :class:`ModelError` naming the problem; the
    *caller* (recovery) decides whether the failing record is a tolerable
    torn tail or log corruption.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ModelError(f"WAL record is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ModelError(
            f"WAL record must be a JSON object, got {type(record).__name__}"
        )
    if record.get("format") != WAL_RECORD_FORMAT:
        raise ModelError(
            f"unsupported WAL record format {record.get('format')!r}"
        )
    seq = _require_section(record, "seq", "WAL record")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        raise ModelError(f"WAL record seq must be a positive integer, got {seq!r}")
    has_step = "step" in record
    has_control = "control" in record
    if has_step == has_control:
        raise ModelError(
            "WAL record must carry exactly one of 'step' or 'control'"
        )
    if has_step:
        return seq, step_from_dict(record["step"]), None
    control = record["control"]
    if control not in _WAL_CONTROL_OPS:
        raise ModelError(f"unknown WAL control op {control!r}")
    return seq, None, control


# ---------------------------------------------------------------------------
# Wire messages (the serving layer's line/JSON protocol)
# ---------------------------------------------------------------------------

#: Version stamp carried by every wire message (see :mod:`repro.server`).
WIRE_FORMAT = 1


def wire_message_to_line(payload: Dict[str, Any]) -> str:
    """Encode one wire message as a compact single-line JSON document.

    The serving protocol is newline-delimited JSON: one line, one message.
    Compact separators and ASCII-safe :func:`json.dumps` guarantee the
    encoded text never contains a raw newline; key-sorting makes encoded
    messages canonical (byte-identical for equal payloads), which the
    serving equivalence tests diff on.  The ``format`` stamp is added
    here so callers never forget it.
    """
    if not isinstance(payload, dict):
        raise ModelError(
            f"wire message must be a JSON object, got {type(payload).__name__}"
        )
    record = dict(payload)
    record.setdefault("format", WIRE_FORMAT)
    try:
        return json.dumps(record, separators=(",", ":"), sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"wire message is not JSON-serializable: {exc}") from exc


def wire_message_from_line(line: str) -> Dict[str, Any]:
    """Decode and validate one wire line into a message dict.

    Raises :class:`ModelError` on invalid JSON, a non-object payload, or
    an unsupported ``format`` stamp — the server turns these into
    structured ``bad_request`` error responses rather than dropping the
    connection.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ModelError(f"wire message is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ModelError(
            f"wire message must be a JSON object, got {type(record).__name__}"
        )
    fmt = record.get("format", WIRE_FORMAT)
    if fmt != WIRE_FORMAT:
        raise ModelError(f"unsupported wire message format {fmt!r}")
    return record


def engine_snapshot_to_json(payload: Dict[str, Any], indent: int = 2) -> str:
    """Stable JSON text for an engine or sharded-engine snapshot.

    Key-sorted so that bit-exact snapshots are byte-identical texts — the
    property the checkpoint round-trip tests diff on.
    """
    return json.dumps(payload, indent=indent, sort_keys=True)


def engine_snapshot_from_json(text: str) -> Dict[str, Any]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(
            f"engine snapshot JSON is truncated or not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ModelError("engine snapshot JSON must decode to an object")
    return payload


def restore_engine(
    payload: Dict[str, Any], *, history: Optional[List[Dict[str, Any]]] = None
):
    """Rebuild a live engine from any snapshot payload.

    Dispatches on the payload's format stamp: sharded-engine snapshots
    (``kind == "sharded-engine"``) rebuild a
    :class:`~repro.engine.ShardedEngine`, anything else goes through
    :class:`~repro.engine.Engine.restore` (which validates its own format
    version).

    *history* is the one way back from a ``snapshot(include_logs=False)``
    core: the ordered ``history_since`` tails covering it, spliced into
    *payload* in place by that engine class's ``splice_history``.
    """
    from repro.engine import SHARDED_SNAPSHOT_KIND, Engine, ShardedEngine

    sharded = isinstance(payload, dict) and payload.get("kind") == SHARDED_SNAPSHOT_KIND
    engine_class = ShardedEngine if sharded else Engine
    if history is not None:
        try:
            engine_class.splice_history(payload, history)
        except (KeyError, TypeError) as exc:
            raise SnapshotError(f"malformed snapshot core: {exc!r}") from exc
    return engine_class.restore(payload)


def currency_to_dict(tracker) -> Dict[str, Any]:
    """Encode a :class:`~repro.tracking.CurrencyTracker`."""
    return {
        "last_writer": dict(sorted(tracker.last_writer.items())),
        "readers_since_write": {
            entity: sorted(readers)
            for entity, readers in sorted(tracker.readers_since_write.items())
        },
    }


def currency_from_dict(payload: Dict[str, Any]):
    """Inverse of :func:`currency_to_dict`.

    Only the two per-entity rows are serialized; the tracker rebuilds
    its per-transaction holdings from them, and the restoring scheduler
    re-enters its graph's nodes (``SchedulerBase.restore_state``).
    """
    from repro.tracking import CurrencyTracker

    return CurrencyTracker(
        last_writer=dict(payload.get("last_writer", {})),
        readers_since_write={
            entity: set(readers)
            for entity, readers in payload.get(
                "readers_since_write", {}
            ).items()
        },
    )


# Imported last: repro.scheduler's package imports this module (through
# scheduler/base.py), so a top-level import would be circular whichever
# of the two loads first; the decision codes of history rows need it.
from repro.scheduler.events import Decision, StepResult  # noqa: E402

_DECISION_CODES = {
    Decision.ACCEPTED: "a",
    Decision.REJECTED: "r",
    Decision.DELAYED: "d",
    Decision.IGNORED: "i",
}
_DECISIONS = {code: decision for decision, code in _DECISION_CODES.items()}
