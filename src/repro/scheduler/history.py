"""One engine's history log: every append-only record, kept once.

The paper deletes a completed transaction down to its id; what can still
be said about it — what was decided, when it was accepted and deleted —
is read off this log.  Each scheduler owns one (an engine records its
sweeps' deletions there), and so does a sharded engine's router.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import SnapshotError
from repro.io import (
    history_deletions_from_rows,
    history_deletions_to_rows,
    history_result_from_row,
    history_result_to_row,
    history_step_from_row,
    history_step_to_row,
)
from repro.model.steps import Begin, BeginDeclared, Step, TxnId
from repro.scheduler.events import Decision, StepResult

__all__ = ["HistoryLog", "MARKERS"]

#: The length a history-free core records in place of each list.
MARKERS = {
    "results": "log_len", "executed": "executed_len", "deleted": "deleted_ids_len"
}


class HistoryLog:
    """Every list that grows with steps fed rather than with live state.

    * ``results`` — one :class:`StepResult` per step processed; their
      steps are the input schedule (a step whose processing raised was
      refused and left no entry);
    * ``executed`` — a delaying scheduler's execution order, else ``None``;
    * ``deleted`` — deletion order.

    Two indexes are kept beside them as entries are recorded, and rebuilt
    from the rows on restore: ``accepted_at``, each transaction's 1-based
    position of the result that accepted its BEGIN, and ``deleted_at``,
    each deleted id's deletion tick (also the id-reuse tombstone set).
    """

    def __init__(self, *, delays: bool = False) -> None:
        self.results: List[StepResult] = []
        self.executed: Optional[List[Step]] = [] if delays else None
        self.deleted: List[TxnId] = []
        self.accepted_at: Dict[TxnId, int] = {}
        self.deleted_at: Dict[TxnId, int] = {}

    def record_result(self, result: StepResult) -> None:
        self.results.append(result)
        if result.decision is Decision.ACCEPTED and isinstance(
            result.step, (Begin, BeginDeclared)
        ):
            self.accepted_at.setdefault(result.step.txn, len(self.results))

    def record_deletion(self, tick: int, txn: TxnId) -> None:
        self.deleted.append(txn)
        self.deleted_at[txn] = tick

    # -- the history protocol ------------------------------------------------------

    def marks(self) -> Dict[str, int]:
        """Each list's length: plain data, valid for any log holding the
        same history (a restored copy, a replica)."""
        marks = {"results": len(self.results), "deleted": len(self.deleted)}
        if self.executed is not None:
            marks["executed"] = len(self.executed)
        return marks

    def since(self, marks: Dict[str, Any]) -> Dict[str, list]:
        """Each list's tail past *marks*, as rows.  Read-only: a caller
        whose write of a tail failed asks again with the same marks."""
        delta = {
            "results": [
                history_result_to_row(r) for r in self.results[marks["results"]:]
            ],
            "deleted": history_deletions_to_rows(
                self.deleted[marks["deleted"]:], self.deleted_at
            ),
        }
        if self.executed is not None:
            delta["executed"] = [
                history_step_to_row(s) for s in self.executed[marks["executed"]:]
            ]
        return delta

    def write(self, section: Dict[str, Any], *, include_logs: bool) -> None:
        """Put the log into a snapshot *section*: every list as rows, or
        (a history-free core) each list's length under its marker."""
        marks = self.marks()
        if include_logs:
            section.update(self.since(dict.fromkeys(marks, 0)))
        else:
            section.update((MARKERS[key], n) for key, n in marks.items())

    @classmethod
    def from_rows(cls, section: Dict[str, Any], *, delays: bool = False):
        """Inverse of ``write(section, include_logs=True)``."""
        log = cls(delays=delays)
        for row in section["results"]:
            log.record_result(history_result_from_row(row))
        if delays:
            log.executed = [history_step_from_row(r) for r in section["executed"]]
        for tick, txn in history_deletions_from_rows(section["deleted"]):
            log.record_deletion(tick, txn)
        return log

    @staticmethod
    def keys_of(section: Dict[str, Any]) -> List[str]:
        """The lists a core *section* needs back, as its markers say."""
        return [key for key, marker in MARKERS.items() if marker in section]

    @staticmethod
    def splice(section, deltas, layout, *, shard: Optional[int] = None) -> None:
        """Inverse of ``write(section, include_logs=False)``: each list,
        concatenated over the ordered *deltas* (from a sharded delta's
        ``shard_<key>`` lists at *shard*), checked against its marker and
        put back as rows.  A delta whose keys are not *layout* or that
        holds the wrong type, and a length the core's marker disagrees
        with, raise :class:`SnapshotError`."""
        prefix = "" if shard is None else "shard_"
        chains: Dict[str, list] = {key: [] for key in HistoryLog.keys_of(section)}
        for index, delta in enumerate(deltas):
            try:
                if set(delta) != layout:
                    raise KeyError(sorted(layout ^ set(delta)))
                for key, chain in chains.items():
                    rows = delta[prefix + key]
                    chain.extend(rows if shard is None else rows[shard])
            except (KeyError, IndexError, TypeError) as exc:
                raise SnapshotError(
                    f"history delta {index + 1} of {len(deltas)} is "
                    f"malformed: {exc!r}"
                ) from exc
        for key, rows in chains.items():
            expected = section.pop(MARKERS[key])
            # A deletion row is [tick, txn, ...]; the marker counts txns.
            found = sum(len(r) - 1 for r in rows) if key == "deleted" else len(rows)
            if expected != found:
                raise SnapshotError(
                    f"core expects {expected} {key} entries but the history "
                    f"reconstructs {found}"
                )
            section[key] = rows
