"""The on-disk format did not move: golden ``wal_dir`` digests.

Every lockstep suite compares two engines built by the *same* tree, so a
change that moves the checkpoint or WAL bytes on both sides passes them
all.  This test pins the bytes themselves: one fixed recipe that visits
every writer path — cadence checkpoints, an explicit ``sweep()``, a
``feed_batch(flush=True)``, ``flush_pending()``, a crash, ``recover()``,
more writes on the resumed chain, a closing checkpoint — is hashed file
by file and compared against digests computed at the commit that froze
the format (81953b8, the parent of the history-protocol refactor).

A digest that changes means old directories no longer recover
byte-identically: bump the format constants and regenerate the table in
the same change, never one without the other.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.durability import LOCK_NAME, DurableEngine, recover
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
        "b9884d7adc98ff0ba99de94b1d451f7dc76f8d44cea93f42cdb3f14d5319ed0a",
        "e0c08cb955805b02e5caad61a02e3f7ba240965bcb4d34f92b63013248df990f",
    ),
    ("certifier", 4): (
        "f79df4e9b3ef49486f2adc734cd65ec2f7c8305882f977fc69b5b317fe263be6",
        "5f906729c043e67b942ca187317c13859b28c63c83f0694ea14b990a99cbaa71",
    ),
    ("conflict-graph", 1): (
        "808007c7bfaeb1da7d153ed69b47a1be67a244abf56e31d22fe4e5b0db81c149",
        "38f5b90b366e7a498a8f578a5d5f42801f462d4efd13351ca8f7d764903bf181",
    ),
    ("conflict-graph", 4): (
        "092a15b05b8382b31cddf4ce17f9315e61fbb7a5a195fbc0ae1a2cce82f006b6",
        "219908ede82805b96a894bc9246e5b710b7bc80f41794560b2c13f92fa838f96",
    ),
    ("multiwrite", 1): (
        "217032fd19826b17d15816cf404d1e851ba9797dd2da9c2015c8c252093c98c9",
        "bb5a5691957c99438e0499cbdcce086c78617cd97d2b7ed8318e4344d20396f4",
    ),
    ("multiwrite", 4): (
        "ef9bdccec7d6d6dc760adb4898c11b414a55b9a25169a681eb33f9969bd95062",
        "5e634ed385f3b65e300c55d22025c8070e3994541b15a2d521ec41127a0fb657",
    ),
    ("predeclared", 1): (
        "a37c9438529acdf076c76ee2b3559d3af6f17a45b4737a3695da6acad04316d4",
        "8ac1f0bba851a29b1eb2d736ad1496a966ff6b9f627358b78358c8b8c698533d",
    ),
    ("predeclared", 4): (
        "419a61e1a999f0cf0300d6454e85cc4ace1162aa765807786f0948933795e084",
        "c1213beaa94af8559d0cc45c7bbfd1a9db85dafdf53c7204b717f3da9518a68c",
    ),
    ("strict-2pl", 1): (
        "febdc8361fb73893128f1850c7a70c7ceb7c836fa251ae9d6f3af05df13f9d29",
        "7d7e2d786c21fb4c71a56c68abf7879eb4aebdb0b06627fbfb9fa8d330cdb886",
    ),
    ("strict-2pl", 4): (
        "81d89455d8e8cc715c33cc95cdc913c0da2b5e5472697140ddf37cd356e9d76e",
        "1f2e81ccb8c0825fe6e90cdae4fcf72f9e480e0c05104528c5341a037ae734f1",
    ),
}


def _recipe(wal, scheduler, shards):
    """Run the recipe in *wal*; returns the (crashed, closed) digests."""
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
    crashed = wal_dir_digest(wal)
    resumed = recover(wal)
    resumed.feed_many(stream[c:])
    resumed.close(checkpoint=True)
    return crashed, wal_dir_digest(wal)


def wal_dir_digest(wal) -> str:
    """One digest over names and bytes of everything but ``LOCK`` (which
    records the writer's PID)."""
    digest = hashlib.sha256()
    for path in sorted(p for p in wal.rglob("*") if p.is_file()):
        if path.name == LOCK_NAME:
            continue
        digest.update(str(path.relative_to(wal)).encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("scheduler", sorted(CASES))
def test_wal_dir_bytes_match_the_frozen_format(tmp_path, scheduler, shards):
    assert _recipe(tmp_path / "wal", scheduler, shards) == GOLDEN[scheduler, shards]
