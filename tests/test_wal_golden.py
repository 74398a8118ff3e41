"""The on-disk format did not move: golden ``wal_dir`` digests.

Every lockstep suite compares two engines built by the *same* tree, so a
change that moves the checkpoint or WAL bytes on both sides passes them
all.  This test pins the bytes themselves: one fixed recipe that visits
every writer path — cadence checkpoints, an explicit ``sweep()``, a
``feed_batch(flush=True)``, ``flush_pending()``, a crash, ``recover()``,
more writes on the resumed chain, a closing checkpoint — is hashed file
by file and compared against digests computed at the commit that froze
the format: the one that kept one history log per engine (checkpoint,
snapshot and sharded-snapshot format 3: each step recorded once, as a
result row, and deletions as ``[tick, txn, ...]`` rows), whose parent
is f38cc97.  Format 2 (history as rows, whose parent is bfca36d) wrote
every step twice, once as an input row.

A digest that changes means old directories no longer recover
byte-identically: bump the format constants and regenerate the table in
the same change, never one without the other.  The WAL itself — segments
and manifest — has its own table, pinned at bfca36d (format 1 of every
file) and unchanged by the move to rows: only checkpoint files moved.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.durability import LOCK_NAME, DurableEngine, recover
from repro.errors import RecoveryError
from repro.workloads.generator import (
    WorkloadConfig,
    basic_stream,
    multiwrite_stream,
    predeclared_stream,
)

#: scheduler -> (canonical policy, stream factory): all five schedulers.
CASES = {
    "conflict-graph": ("eager-c1", basic_stream),
    "certifier": ("noncurrent", basic_stream),
    "strict-2pl": ("lemma1", basic_stream),
    "multiwrite": ("eager-c3", multiwrite_stream),
    "predeclared": ("eager-c4", predeclared_stream),
}

#: (scheduler, shards) -> sha256 over every file in the directory as the
#: crash left it (WAL tail on disk) and as the closing checkpoint left it
#: (tail truncated, full delta chain).
GOLDEN = {
    ("certifier", 1): (
        "e9a0512e556551c8590e35a15f0403a82637f0be2f71ff0e93c5439d59f82174",
        "6b5be0ba28cdd06c0b02ca914fc70eff3885cd2f5e5229acf5fd928a4817ce80",
    ),
    ("certifier", 4): (
        "44c7a88ecba31ef4769b67424f991d4d5fca65111cafd72aeff0f18c74f7b159",
        "d1d34d7403002ae5517d138b46560aaf6d5018d7e30f5cd4993d8e21652ad2cb",
    ),
    ("conflict-graph", 1): (
        "3992fdd2efb72f3a665b9e1327e7c359a5b8ec87ce25a78b1e007c24057cdf6b",
        "c40d48c95783d0fb179a13b3e21723e7a811adc773722b4fdba76146d6eaa046",
    ),
    ("conflict-graph", 4): (
        "d5f26525591692597ad8236e70f1d5f023e6491f4b83dbf1b487842ea59fe720",
        "236b493b5745f25b55d3f47a1179610218d159198f5a9d838f900636ae0c1542",
    ),
    ("multiwrite", 1): (
        "3f7141dce982dda93a415609da07196e96b4cd0f890a4e8f311a21ee07d0e4a6",
        "93a22e00e25b6a85f0f1d5e8605f59b6ce01667ad9e2ac4c20b6e96daa5e6466",
    ),
    ("multiwrite", 4): (
        "f6c0fba8d8fea165a5fc05773b8337acbfff4370952d636da6c3fb0ecc6090e2",
        "a7619b069936aa326739f6457e5dd994f0d052dfb8a99d0b12fd69ede9238676",
    ),
    ("predeclared", 1): (
        "8c4af8c62b81581817a97876f16da2de3c6b68f42d3feb871f364fe28d0e9534",
        "30b1f5b1732adf3d3ff2a12e33c29e580c82637c42d37391f5866e85afc26b65",
    ),
    ("predeclared", 4): (
        "cc5f1808c35db78b9bc83d2e927d3c958f98dc5f1295c62bbb3592871e8635bd",
        "ce455cfb82c7243c2061b177fa44907a66b265199827e3fd88b2f4818826a8ca",
    ),
    ("strict-2pl", 1): (
        "49d01a3a748eebc1e38c51120e63a570af2af185e3a95028f4b43c05d67d0c0a",
        "2a2e6717062a1e47d5b9a19bed31619f47854106476f0e69a4c56a54473faea7",
    ),
    ("strict-2pl", 4): (
        "6e7104f1187d4389120b941f13982d18727bdc0e3afa141b3ee303787235a3f5",
        "ea2eda870d67100c2f552a049a49a81177ba0002520a7851ab6b7db6396c33d5",
    ),
}

#: The same two moments, hashed over the log only (segments and manifest,
#: no checkpoints): the bytes every release since bfca36d has written.
LOG_GOLDEN = {
    ("certifier", 1): (
        "8b19346376e30602d3b0168c2f022a61855ecc1e75b055a9a6007af5e419f33a",
        "2476fa15eeea02a58681554ef480c89ec589ef5a5b09ef08bf3ad89199be3d55",
    ),
    ("certifier", 4): (
        "c62d9c3733a1d0608898aeb4406fd30ae46d148216118b14e772e1941dfdc23c",
        "d23085f672f35e0954d9cea117952b53758d8a02972ec2968faf001480a8c470",
    ),
    ("conflict-graph", 1): (
        "54835f9125f229a785bf3ed458399007cf3a34110f3a4c719646cd9427b57e25",
        "087129b2ad618fd32b6f13798fd0c6865b5cd9119afb213811cef844520b7538",
    ),
    ("conflict-graph", 4): (
        "89a639a91046d9574e997739d744d1e905be5c3356bd62643435b44b4b16ab03",
        "c1bb2837fc2ccab0d54237a67570f8608f63ef0c9a4823efa2a263b334b4b0d1",
    ),
    ("multiwrite", 1): (
        "566ecb7b11a4b960c4168d5e8909e45eb57c7e6c158b009037ded3544214f290",
        "49ec170ca88e750b825bbdf595decdc08a5a139f94b6b16822ab146408093c8f",
    ),
    ("multiwrite", 4): (
        "a5db063bf7e37a37c1ea24acd005466cb4cdce0bcacf5086c9a51bb7ed164923",
        "24368dab161a16a63799fed67d28e32a92a30897c4b122df93d7b627952bcd83",
    ),
    ("predeclared", 1): (
        "2301625a984cf5849c480e4ba95232e60cbb897e902beda1824ed58466b00d4d",
        "17bb31768bcaf3fb27445c5dd9c0b0d5320daf968321469e1710ba97e1c21fcc",
    ),
    ("predeclared", 4): (
        "911ed93f73d3533ee54815b6d38290a9edd109bc8457d2099adb8ac4922eeb87",
        "eda672ffbad9de945f1d5ff0e31df40c3efa2de699945cbd6a545d599a3d275c",
    ),
    ("strict-2pl", 1): (
        "3beee7dbf30a267e5020e49af574e64a54c022e951131835dc2bc5bfe71fd4b3",
        "be1cc51e6cc3437c1399d3b36ec8c679626163c60aad01aef1de88594ee34e67",
    ),
    ("strict-2pl", 4): (
        "23228b6d6dfa884176e4306031e57ee258ebf8ada746c2fbdb8efbf9e4daebb7",
        "676aee7881800317e963c3cd0a7296713e14eb4f15547e03bcb74906dc5ef3ac",
    ),
}


def _recipe(wal, scheduler, shards, digest=None):
    """Run the recipe in *wal*; returns the (crashed, closed) digests
    (of the whole directory unless another *digest* is given)."""
    digest = digest or wal_dir_digest
    policy, streamer = CASES[scheduler]
    stream = list(streamer(WorkloadConfig(
        n_transactions=60, n_entities=14, multiprogramming=5,
        write_fraction=0.5, max_accesses=3, zipf_s=0.4, seed=1986,
        partitions=4, cross_fraction=0.25,
    )))
    a, b, c = (len(stream) * k // 4 for k in (1, 2, 3))
    # The cadences are coprime, so checkpoints land at every phase of the
    # sweep cycle: between two sweeps, right after one, right before one.
    durable = DurableEngine(
        scheduler=scheduler, policy=policy, sweep_interval=4, wal_dir=wal,
        shards=shards, checkpoint_interval=7,
    )
    durable.feed_many(stream[:a])
    durable.sweep()
    durable.feed_batch(stream[a:b], flush=True)
    if shards > 1:
        # A monolith's flush_pending() is a logged no-op the frozen
        # parent could not write (it raised), so only the sharded rows
        # carry the control record.
        durable.flush_pending()
    durable.feed_many(stream[b:c])
    durable.simulate_crash()
    crashed = digest(wal)
    resumed = recover(wal)
    resumed.feed_many(stream[c:])
    resumed.close(checkpoint=True)
    return crashed, digest(wal)


def wal_dir_digest(wal, *, skip=()) -> str:
    """One digest over names and bytes of everything but ``LOCK`` (which
    records the writer's PID) and the top-level entries named in *skip*."""
    digest = hashlib.sha256()
    for path in sorted(p for p in wal.rglob("*") if p.is_file()):
        relative = path.relative_to(wal)
        if path.name == LOCK_NAME or relative.parts[0] in skip:
            continue
        digest.update(str(relative).encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def log_digest(wal) -> str:
    return wal_dir_digest(wal, skip=("checkpoints",))


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("scheduler", sorted(CASES))
def test_wal_dir_bytes_match_the_frozen_format(tmp_path, scheduler, shards):
    assert _recipe(tmp_path / "wal", scheduler, shards) == GOLDEN[scheduler, shards]


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("scheduler", sorted(CASES))
def test_the_log_bytes_did_not_move(tmp_path, scheduler, shards):
    digests = _recipe(tmp_path / "wal", scheduler, shards, digest=log_digest)
    assert digests == LOG_GOLDEN[scheduler, shards]


@pytest.mark.parametrize("shards", [1, 4])
def test_a_format_1_directory_is_refused(tmp_path, shards):
    """No format-1 loader is kept: a chain whose checkpoints carry the old
    stamp is refused by the stamp check, and so is an old engine core
    inside a current checkpoint."""
    wal = tmp_path / "wal"
    _recipe(wal, "conflict-graph", shards)
    checkpoints = sorted((wal / "checkpoints").iterdir())
    latest = checkpoints[-1]
    current = latest.read_text()

    def rewrite(edit):
        payload = json.loads(current)
        edit(payload)
        latest.write_text(json.dumps(payload))

    rewrite(lambda payload: payload.update(format=1))
    with pytest.raises(RecoveryError, match="unsupported format stamp"):
        recover(wal)
    rewrite(lambda payload: payload["core"].update(format=1))
    with pytest.raises(RecoveryError, match="unsupported .*format"):
        recover(wal)
    latest.write_text(current)
    recover(wal).close()
