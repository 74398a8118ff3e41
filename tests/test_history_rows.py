"""History as rows: the one codec every serialized history list uses.

A scheduler's result and execution logs and a sharded engine's global
results are written — in full snapshots and in checkpoint deltas alike —
as positional rows (``repro.io.history_step_to_row`` /
``history_result_to_row``), not as the self-describing dicts the wire
and the WAL use.  Pinned here:

* the codec round-trips every step kind and every ``StepResult`` field
  shape (hypothesis), and every result the five schedulers really
  produce, one loop or four shards;
* the decoders — rows and the dict codecs both — refuse what they do
  not produce: a malformed row in a checkpoint delta is a
  ``RecoveryError`` naming the checkpoint seq from ``recover()`` and
  from a cold ``WalFollower.poll()``, a malformed served step is a
  ``bad_request``, and nothing is ever read as a shorter, different
  value;
* no scheduler's history-free core grows with history;
* the dict codecs are not applied to any history list.
"""

from __future__ import annotations

import ast
import asyncio
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import DurableEngine, recover
from repro.engine import build_engine
from repro.errors import ModelError, RecoveryError
from repro.io import (
    history_result_from_row,
    history_result_to_row,
    history_step_from_row,
    history_step_to_row,
    step_from_dict,
    step_result_from_dict,
    wire_message_from_line,
    wire_message_to_line,
)
from repro.model.status import AccessMode
from repro.model.steps import Begin, BeginDeclared, Finish, Read, Write, WriteItem
from repro.replication import WalFollower
from repro.scheduler.events import Decision, StepResult
from repro.server import ReproServer
from repro.workloads.generator import (
    WorkloadConfig,
    basic_stream,
    multiwrite_stream,
    predeclared_stream,
)

#: (scheduler, canonical policy, stream factory) — all five schedulers.
CASES = [
    ("conflict-graph", "eager-c1", basic_stream),
    ("certifier", "noncurrent", basic_stream),
    ("strict-2pl", "lemma1", basic_stream),
    ("multiwrite", "eager-c3", multiwrite_stream),
    ("predeclared", "eager-c4", predeclared_stream),
]

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

ids = st.text(max_size=6)
id_tuples = st.lists(ids, max_size=3).map(tuple)
steps = st.one_of(
    st.builds(Begin, ids),
    st.builds(
        BeginDeclared,
        ids,
        st.dictionaries(ids, st.sampled_from(list(AccessMode)), max_size=3),
    ),
    st.builds(Read, ids, ids),
    st.builds(Write, ids, st.frozensets(ids, max_size=3)),
    st.builds(WriteItem, ids, ids),
    st.builds(Finish, ids),
)
results = st.builds(
    StepResult,
    step=steps,
    decision=st.sampled_from(list(Decision)),
    arcs_added=st.lists(st.tuples(ids, ids), max_size=3).map(tuple),
    aborted=id_tuples,
    committed=id_tuples,
    released=st.lists(steps, max_size=2).map(tuple),
    blocked_on=id_tuples,
)


def _through_json(row):
    return json.loads(json.dumps(row))


@settings(max_examples=300, deadline=None)
@given(steps)
def test_every_step_kind_round_trips(step):
    row = _through_json(history_step_to_row(step))
    assert history_step_from_row(row) == step
    assert history_step_to_row(history_step_from_row(row)) == row


@settings(max_examples=400, deadline=None)
@given(results)
def test_every_result_shape_round_trips(result):
    row = _through_json(history_result_to_row(result))
    assert history_result_from_row(row) == result
    # One spelling per value: decoding accepts only what encoding emits.
    assert history_result_to_row(history_result_from_row(row)) == row
    plain = result.decision is Decision.ACCEPTED and not any((
        result.arcs_added, result.aborted, result.committed,
        result.released, result.blocked_on,
    ))
    assert (len(row) == 1) == plain


def _stream(streamer, seed=7):
    return list(streamer(WorkloadConfig(
        n_transactions=60, n_entities=12, multiprogramming=6,
        write_fraction=0.5, max_accesses=3, zipf_s=0.4, seed=seed,
        partitions=4, cross_fraction=0.25,
    )))


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("scheduler,policy,streamer", CASES)
def test_real_results_of_every_scheduler_round_trip(
    scheduler, policy, streamer, shards
):
    engine = build_engine(
        scheduler=scheduler, policy=policy, sweep_interval=4, shards=shards
    )
    engine.feed_batch(_stream(streamer), flush=True)
    loops = [engine] if shards == 1 else list(engine.shards)
    seen = list(engine.history.results) if shards > 1 else []
    logged_steps = []
    for loop in loops:
        seen.extend(loop.scheduler.results)
        logged_steps.extend(loop.scheduler.input_schedule)
        logged_steps.extend(loop.scheduler.executed_schedule())
    decisions = set()
    for result in seen:
        decisions.add(result.decision)
        row = _through_json(history_result_to_row(result))
        assert history_result_from_row(row) == result
    for step in logged_steps:
        assert history_step_from_row(_through_json(history_step_to_row(step))) == step
    assert Decision.ACCEPTED in decisions and len(decisions) > 1


# ---------------------------------------------------------------------------
# Strict decoders
# ---------------------------------------------------------------------------

#: Malformed rows: (name, which log the row is planted in, the row).
BAD_ROWS = [
    ("step row of the wrong arity", "input", ["r", "T1"]),
    ("step row with an unknown tag", "input", ["z", "T1"]),
    ("step row that is not a list", "input", "r"),
    ("a dict-codec entry", "input", {"kind": "begin", "txn": "T1"}),
    ("step row with a non-string id", "input", ["b", 5]),
    ("write whose entities are a string", "input", ["w", "T1", "xy"]),
    ("declared map with a bad mode", "input", ["d", "T1", {"x": "READ!"}]),
    ("result row of the wrong arity", "results", [["b", "T1"], "a", [], [], [], [], [], []]),
    ("empty result row", "results", []),
    ("result row that is not a list", "results", ["b", "T1"]),
    ("result row with a bad decision code", "results", [["b", "T1"], "q"]),
    ("result row with a non-string code", "results", [["b", "T1"], 1]),
    ("untrimmed plain acceptance", "results", [["b", "T1"], "a"]),
    ("untrimmed empty trailing field", "results", [["b", "T1"], "r", []]),
    ("arc that is not a pair", "results", [["r", "T1", "x"], "a", [["a"]]]),
    ("three-element arc", "results", [["r", "T1", "x"], "a", [["a", "b", "c"]]]),
    ("non-string aborted id", "results", [["w", "T1", []], "r", [], [1]]),
    ("null committed id", "results", [["w", "T1", []], "a", [], [], [None]]),
    ("blocked_on as a string", "results", [["r", "T1", "x"], "d", [], [], [], [], "ab"]),
]


@pytest.mark.parametrize(
    "name,log,row", BAD_ROWS, ids=[entry[0] for entry in BAD_ROWS]
)
def test_malformed_rows_are_named_model_errors(name, log, row):
    decode = history_step_from_row if log == "input" else history_result_from_row
    with pytest.raises(ModelError):
        decode(row)


def _crashed(wal):
    durable = DurableEngine(
        scheduler="conflict-graph", policy="eager-c1", wal_dir=wal,
        checkpoint_interval=8,
    )
    durable.feed_many(_stream(basic_stream)[:40])
    durable.simulate_crash()
    return sorted((wal / "checkpoints").iterdir())


@pytest.mark.parametrize(
    "name,log,row", BAD_ROWS, ids=[entry[0] for entry in BAD_ROWS]
)
def test_a_malformed_row_in_a_delta_aborts_every_reader(tmp_path, name, log, row):
    wal = tmp_path / "wal"
    checkpoints = _crashed(wal)
    assert len(checkpoints) >= 3
    payload = json.loads(checkpoints[1].read_text())
    if log == "input":  # a step row lives inside a result row
        log, row = "results", [row]
    payload["delta"][log][0] = row
    checkpoints[1].write_text(json.dumps(payload))
    latest_seq = json.loads(checkpoints[-1].read_text())["seq"]
    expected = f"checkpoint seq {latest_seq} failed to restore"
    with pytest.raises(RecoveryError, match=expected):
        recover(wal)
    with pytest.raises(RecoveryError, match=expected):
        WalFollower(wal).poll()


#: Dict payloads the decoders used to accept (a string for a list read as
#: its characters, an int id, a three-element arc).
BAD_STEP_DICTS = [
    {"kind": "write", "txn": "T", "entities": "xy"},
    {"kind": "read", "txn": 5, "entity": "x"},
    {"kind": "read", "txn": "T", "entity": ["x"]},
    {"kind": "begin_declared", "txn": "T", "declared": {"x": 1}},
]
_BEGIN = {"kind": "begin", "txn": "T"}
BAD_RESULT_DICTS = [
    {"step": _BEGIN, "decision": "accepted", "aborted": [1]},
    {"step": _BEGIN, "decision": "accepted", "committed": [None]},
    {"step": _BEGIN, "decision": "delayed", "blocked_on": "ab"},
    {"step": _BEGIN, "decision": "accepted", "arcs_added": [["a", "b", "c"]]},
    {"step": _BEGIN, "decision": "accepted", "arcs_added": [["a"]]},
    {"step": _BEGIN, "decision": "accepted", "released": _BEGIN},
]


@pytest.mark.parametrize("item", BAD_STEP_DICTS)
def test_step_dicts_are_as_strict_as_rows(item):
    with pytest.raises(ModelError):
        step_from_dict(item)


@pytest.mark.parametrize("item", BAD_RESULT_DICTS)
def test_result_dicts_are_as_strict_as_rows(item):
    with pytest.raises(ModelError):
        step_result_from_dict(item)


def test_a_served_malformed_step_is_a_bad_request():
    async def _run():
        server = ReproServer()
        host, port = await server.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            requests = [{"op": "create", "tenant": "t"}]
            requests += [
                {"op": "feed", "tenant": "t", "step": item}
                for item in BAD_STEP_DICTS
            ]
            requests += [
                {"op": "feed_batch", "tenant": "t", "steps": [_BEGIN, item]}
                for item in BAD_STEP_DICTS
            ]
            responses = []
            for request in requests:
                writer.write(wire_message_to_line(request).encode() + b"\n")
                await writer.drain()
                line = (await reader.readline()).decode()
                responses.append(wire_message_from_line(line))
            writer.close()
            await writer.wait_closed()
            assert responses[0]["ok"]
            for response in responses[1:]:
                assert not response["ok"]
                assert response["error"]["code"] == "bad_request"
            # Nothing reached the engine, not even the batch's good BEGIN.
            assert server._tenants["t"].engine.step_index == 0
        finally:
            await server.close()

    asyncio.run(_run())


# ---------------------------------------------------------------------------
# Cores stay O(live state)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler,policy,streamer", CASES)
def test_no_core_grows_with_history(scheduler, policy, streamer):
    """The core after 2N steps is within a small constant of the core
    after N: the execution order, commit order, retired queues and the
    certification times of deleted transactions are history or gone,
    not live state.  (The abort tombstones stay: one short id per
    aborted transaction, which the id-reuse rule consults.)"""
    stream = list(streamer(WorkloadConfig(
        n_transactions=1200, n_entities=14, multiprogramming=5,
        write_fraction=0.5, max_accesses=3, seed=7,
    )))
    engine = build_engine(scheduler=scheduler, policy=policy, sweep_interval=4)
    half = len(stream) // 2
    sizes = []
    for count, step in enumerate(stream, start=1):
        try:
            engine.feed(step)
        except ModelError:
            pass
        if count in (half, 2 * half):
            core = engine.snapshot(include_logs=False)
            sizes.append(len(json.dumps(core, separators=(",", ":"))))
    history = len(json.dumps(engine.snapshot()["scheduler_state"]["results"]))
    growth = sizes[1] - sizes[0]
    assert growth < 2048, (sizes, history)
    assert history > 20 * 2048  # a history-sized core could not hide


# ---------------------------------------------------------------------------
# One codec for history
# ---------------------------------------------------------------------------

DICT_CODECS = {
    "step_to_dict", "step_from_dict",
    "step_result_to_dict", "step_result_from_dict",
}
HISTORY_METHODS = {
    "snapshot_state", "restore_state", "history_marks", "history_since",
    "splice_history", "_install_history",
}


def _names(node):
    return {
        sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)
    }


def test_no_history_list_goes_through_the_dict_codecs():
    base = ast.parse((SRC / "scheduler" / "base.py").read_text())
    assert not DICT_CODECS & _names(base)
    engine = ast.parse((SRC / "engine.py").read_text())
    # A result is history wherever it is written; a step dict survives
    # only for the deferred BEGINs, which are live state.
    assert not {"step_result_to_dict", "step_result_from_dict"} & _names(engine)
    methods = [
        node for node in ast.walk(engine)
        if isinstance(node, ast.FunctionDef) and node.name in HISTORY_METHODS
    ]
    assert {m.name for m in methods} >= HISTORY_METHODS - {
        "snapshot_state", "restore_state",
    }
    for method in methods:
        assert not DICT_CODECS & _names(method), method.name
