"""One tenant's lifecycle, driven with no socket.

:mod:`repro.tenant` owns everything about one hosted engine; this suite
pins its state machine from the outside:

* every (role × state × event) pair of :data:`repro.tenant.TRANSITIONS`
  — where it lands and which counters it must and must not move — and
  every pair that is *absent* from the table (it must raise and move
  nothing);
* what each state permits, read off :data:`repro.tenant.PERMITS`, the
  table the code itself consults;
* the two loops written in terms of those transitions: a writer's
  bounded heal loop and a replica's unbounded tail loop, including the
  two regressions this module was split out to fix — a failed promotion
  that stranded a healthy replica in ``degraded``, and a failed follower
  rebuild that was skipped instead of retried.

CI must-run guard (with the serving equivalence suites): this module may
never be skipped.  No pytest-asyncio in the image: ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import random
import time

import pytest

from repro.durability import open_durable
from repro.engine import build_engine
from repro.errors import (
    NotPrimaryError,
    RequestRejectedError,
    TenantDegradedError,
)
from repro.faults import FaultPlan, FaultSpec, FaultyIO
from repro.model.steps import Begin, Read, Write
from repro.replication import WalFollower
from repro.tenant import PERMITS, TRANSITIONS, Tenant

CONFIG = {"scheduler": "conflict-graph", "policy": "eager-c1"}
EVENTS = ("fail", "attempt", "recover", "exhaust", "promote")
COUNTERS = ("demotions", "recoveries", "recover_attempts", "promotions",
            "recovery_exhausted")

#: How to reach each state from a fresh (serving) tenant.  A replica is
#: never ``recovering``: its rebuild is inline, so nobody could see it.
PATHS = {
    ("primary", "serving"): (),
    ("primary", "degraded"): ("fail",),
    ("primary", "recovering"): ("fail", "attempt"),
    ("replica", "serving"): (),
    ("replica", "degraded"): ("fail",),
}

#: The suite's own copy of the lifecycle table: (role, state, event) ->
#: (next state, the counters that move and by how much).  Everything not
#: named must stay put.
EXPECTED = {
    ("primary", "serving", "fail"): ("degraded", {"demotions": 1}),
    ("primary", "degraded", "attempt"): ("recovering", {"recover_attempts": 1}),
    ("primary", "recovering", "fail"): ("degraded", {}),
    ("primary", "recovering", "recover"): ("serving", {"recoveries": 1}),
    ("primary", "degraded", "exhaust"): ("degraded", {"recovery_exhausted": 1}),
    ("replica", "serving", "fail"): ("degraded", {"demotions": 1}),
    ("replica", "degraded", "fail"): ("degraded", {}),
    ("replica", "degraded", "recover"): ("serving", {"recoveries": 1}),
    ("replica", "serving", "promote"): ("serving", {"promotions": 1}),
    ("replica", "degraded", "promote"): (
        "serving", {"promotions": 1, "recoveries": 1}
    ),
}


def _steps(n_txns: int, prefix: str = "T"):
    out = []
    for i in range(n_txns):
        txn = f"{prefix}{i}"
        out += [Begin(txn), Read(txn, f"e{i % 3}"), Write(txn, {f"e{i % 3}"})]
    return out


class _StubFollower:
    """Enough of a follower to *be* a replica; the table tests never
    poll it."""

    wal_seq = 0
    closed = False

    def __init__(self):
        self.engine = build_engine(**CONFIG)

    def close(self):
        self.closed = True


def _tenant(engine=None, *, io=None, **overrides) -> Tenant:
    options = dict(
        max_queue_depth=64, yield_every=8, recover_max_attempts=3,
        recover_backoff=0.01, recover_backoff_cap=0.04,
        replica_poll_interval=0.002, io=io, rng=random.Random(7),
    )
    options.update(overrides)
    return Tenant("t", engine, **options)


def _in_state(role: str, state: str) -> Tenant:
    if role == "replica":
        tenant = _tenant(
            replica_of="/nowhere",
            follower_factory=lambda wal_dir, io=None: _StubFollower(),
        )
    else:
        tenant = _tenant(build_engine(**CONFIG))
    for event in PATHS[role, state]:
        tenant._transition(event, OSError("setup"))
    assert (tenant.role, tenant.state) == (role, state)
    return tenant


def _crashed_primary(wal_dir, n_txns: int = 6) -> None:
    engine = build_engine(wal_dir=str(wal_dir), **CONFIG)
    for step in _steps(n_txns):
        engine.feed(step)
    engine.simulate_crash()


async def _until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.002)


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


class TestTransitionTable:
    def test_suite_and_code_cover_the_same_pairs(self):
        coded = {
            (role, state, event)
            for role, table in TRANSITIONS.items()
            for state, event in table
        }
        assert coded == set(EXPECTED)
        assert set(PERMITS) == {"serving", "degraded", "recovering"}
        assert set().union(*PERMITS.values()) == {"write", "wal_seq", "checkpoint"}

    def test_a_replica_skips_recovering_and_the_budget(self):
        table = TRANSITIONS["replica"]
        assert "recovering" not in {s for s, _ in table} | set(table.values())
        assert not {"attempt", "exhaust"} & {event for _, event in table}
        assert "promote" not in {event for _, event in TRANSITIONS["primary"]}

    @pytest.mark.parametrize("event", EVENTS)
    @pytest.mark.parametrize("role,state", sorted(PATHS))
    def test_every_state_event_pair(self, role, state, event):
        tenant = _in_state(role, state)
        before = {name: getattr(tenant, name) for name in COUNTERS}
        downtime, demoted_at = tenant.downtime_seconds, tenant.demoted_at
        last_error = tenant.last_error
        expected = EXPECTED.get((role, state, event))
        if expected is None:
            with pytest.raises(KeyError):
                tenant._transition(event, OSError("boom"))
            assert tenant.state == state and tenant.role == role
            assert {n: getattr(tenant, n) for n in COUNTERS} == before
            assert tenant.last_error == last_error
            assert (tenant.downtime_seconds, tenant.demoted_at) == (
                downtime, demoted_at
            )
            return
        after_state, moves = expected
        cause = OSError("boom") if event == "fail" else None
        tenant._transition(event, cause)
        assert tenant.state == after_state
        for name in COUNTERS:
            assert getattr(tenant, name) == before[name] + moves.get(name, 0), name
        assert tenant.role == ("primary" if event == "promote" else role)
        # last_error: only a failure records why, and nothing clears it.
        if event == "fail":
            assert tenant.last_error == "OSError: boom"
        else:
            assert tenant.last_error == last_error
        # The outage clock runs exactly while the tenant is not serving.
        if after_state == "serving":
            assert tenant.demoted_at is None
            assert tenant.downtime_seconds >= downtime
            if state != "serving":
                assert tenant.downtime_seconds > downtime
        else:
            assert tenant.demoted_at is not None
            assert tenant.downtime_seconds == downtime
            if state != "serving":  # inside one outage the clock is not restarted
                assert tenant.demoted_at == demoted_at

    def test_one_outage_is_one_demotion_however_many_attempts_fail(self):
        for role, retry in (("primary", ("attempt", "fail")),
                            ("replica", ("fail",))):
            tenant = _in_state(role, "degraded")
            opened = tenant.demoted_at
            for _ in range(5):
                for event in retry:
                    tenant._transition(event, OSError("again"))
            assert tenant.demotions == 1 and tenant.recoveries == 0
            assert tenant.demoted_at == opened
            for event in ("attempt", "recover") if role == "primary" else ("recover",):
                tenant._transition(event)
            assert (tenant.demotions, tenant.recoveries) == (1, 1)
            assert tenant.downtime_seconds > 0


# ---------------------------------------------------------------------------
# What each state permits
# ---------------------------------------------------------------------------


class TestPermits:
    @pytest.mark.parametrize("state", sorted(PERMITS))
    def test_a_primary_is_held_to_the_table(self, tmp_path, state):
        permits = PERMITS[state]

        async def _run() -> None:
            engine = build_engine(
                wal_dir=str(tmp_path / "wal"), checkpoint_interval=1000,
                **CONFIG,
            )
            tenant = _tenant(engine, wal_dir=str(tmp_path / "wal"))
            await tenant.submit(_steps(2))
            for event in PATHS["primary", state]:
                tenant._transition(event, OSError("held here by the test"))
            # Reads: always.
            assert tenant.engine.audit("T0").as_dict()["status"] != "unknown"
            info = tenant.info()
            assert info["state"] == state
            # wal_seq: only when it is ground truth.
            assert (info["wal_seq"] == 6) is ("wal_seq" in permits)
            assert (info["wal_seq"] is None) is ("wal_seq" not in permits)
            # Writes: only on a serving primary.
            if "write" in permits:
                assert len(await tenant.submit(_steps(1, "W"))) == 3
                assert await tenant.submit_control("sweep") is not None
            else:
                for attempt in (tenant.submit(_steps(1, "W")),
                                tenant.submit_control("sweep")):
                    with pytest.raises(TenantDegradedError) as err:
                        await attempt
                    assert err.value.retry_after > 0
            # close(): checkpoints only when serving.
            seq, checkpointed = engine.seq, engine.last_checkpoint_seq
            assert checkpointed < seq
            await tenant.close()
            assert (engine.last_checkpoint_seq == seq) is (
                "checkpoint" in permits
            )
            assert tenant.closed

        asyncio.run(_run())

    @pytest.mark.parametrize("state", ["serving", "degraded"])
    def test_a_replica_reads_in_every_state_and_never_writes(
        self, tmp_path, state
    ):
        _crashed_primary(tmp_path / "wal")

        async def _run() -> None:
            tenant = _tenant(replica_of=str(tmp_path / "wal"))
            tenant.follower.poll()
            for event in PATHS["replica", state]:
                tenant._transition(event, OSError("held here by the test"))
            assert tenant.engine.audit("T0").as_dict()["status"] != "unknown"
            assert tenant.guard_read(0)["lag_seq"] == 0
            info = tenant.info()
            # The replica watermark is always what reads reflect.
            assert info["wal_seq"] == 18 and info["state"] == state
            assert not info["recovery_exhausted"]
            with pytest.raises(NotPrimaryError) as err:
                await tenant.submit(_steps(1, "W"))
            assert err.value.primary_wal_dir == str(tmp_path / "wal")
            await tenant.close()

        asyncio.run(_run())


# ---------------------------------------------------------------------------
# A writer's outage
# ---------------------------------------------------------------------------


class TestWriterHeals:
    def test_one_outage_one_demotion_across_failed_attempts(self, tmp_path):
        async def _run() -> None:
            io = FaultyIO(FaultPlan([
                FaultSpec("server.worker", 2, "crash"),
                FaultSpec("recover.start", 1, "io_error"),
                FaultSpec("recover.start", 2, "io_error"),
            ]))
            wal = str(tmp_path / "wal")
            tenant = _tenant(
                open_durable(wal, io=io, **CONFIG), wal_dir=wal,
                io=io, recover_max_attempts=10,
            )
            await tenant.submit(_steps(2))
            owner = tenant._task
            assert owner.get_name() == "repro-tenant-t"
            with pytest.raises(TenantDegradedError):
                await tenant.submit(_steps(1, "X"))
            # The worker handed the one task slot to the heal loop.
            assert tenant._task is not owner
            assert tenant._task.get_name() == "repro-heal-t"
            assert tenant.info()["wal_seq"] is None
            assert tenant.engine.audit("T0").as_dict()["status"] != "unknown"
            await _until(lambda: tenant.state == "serving")
            info = tenant.info()
            assert info["demotions"] == 1 and info["recoveries"] == 1
            assert info["recover_attempts"] == 3
            assert info["downtime_seconds"] > 0
            assert info["wal_seq"] == 6
            assert tenant._task.get_name() == "repro-tenant-t"
            assert len(await tenant.submit(_steps(1, "X"))) == 3
            await tenant.close()

        asyncio.run(_run())

    def test_a_spent_budget_is_terminal_and_calls_the_hook_once(self, tmp_path):
        async def _run() -> None:
            io = FaultyIO(FaultPlan(
                [FaultSpec("server.worker", 1, "crash")]
                + [FaultSpec("recover.start", i, "io_error") for i in range(1, 9)]
            ))
            wal = str(tmp_path / "wal")
            exhausted = []
            tenant = _tenant(
                open_durable(wal, io=io, **CONFIG), wal_dir=wal,
                io=io, on_exhausted=exhausted.append,
            )
            with pytest.raises(TenantDegradedError):
                await tenant.submit(_steps(1))
            await _until(lambda: tenant.recovery_exhausted)
            assert exhausted == [tenant]
            info = tenant.info()
            assert info["state"] == "degraded"
            assert info["recover_attempts"] == 3  # the budget, exactly
            assert (info["demotions"], info["recoveries"]) == (1, 0)
            assert tenant._task is None
            with pytest.raises(TenantDegradedError) as err:
                await tenant.submit(_steps(1))
            assert err.value.exhausted
            await tenant.close()

        asyncio.run(_run())

    def test_without_a_log_there_is_nothing_to_replay(self):
        async def _run() -> None:
            io = FaultyIO(FaultPlan([FaultSpec("server.worker", 1, "crash")]))
            exhausted = []
            tenant = _tenant(
                build_engine(**CONFIG), io=io, on_exhausted=exhausted.append
            )
            with pytest.raises(TenantDegradedError):
                await tenant.submit(_steps(1))
            assert tenant.recovery_exhausted and tenant.state == "degraded"
            assert tenant.recover_attempts == 0 and tenant._task is None
            assert exhausted == []  # no wal_dir a replica could take over
            await tenant.close()

        asyncio.run(_run())


# ---------------------------------------------------------------------------
# A replica's outage
# ---------------------------------------------------------------------------


class TestReplicaRecovers:
    def test_failed_promotion_does_not_strand_a_healthy_replica(self, tmp_path):
        """Regression: only the tail's *failure* arm ever wrote
        ``serving`` back, so after one failed promotion a replica tailed
        cleanly forever while reporting ``degraded, demotions: 0``."""
        _crashed_primary(tmp_path / "wal")

        async def _run() -> None:
            io = FaultyIO(FaultPlan([FaultSpec("promote.seal", 1, "io_error")]))
            tenant = _tenant(replica_of=str(tmp_path / "wal"), io=io)
            tenant.start()
            await _until(lambda: tenant.follower.polls >= 2)
            with pytest.raises(RequestRejectedError) as err:
                await tenant.promote()
            assert err.value.code == "promotion_failed"
            assert tenant.info()["state"] == "degraded"
            assert tenant.engine.audit("T0").as_dict()["status"] != "unknown"
            # The next clean polls are on a rebuilt follower, serving.
            await _until(
                lambda: tenant.state == "serving" and tenant.follower.polls >= 2
            )
            assert tenant.engine.audit("T0").as_dict()["status"] != "unknown"
            info = tenant.info()
            assert (info["demotions"], info["recoveries"]) == (1, 1)
            assert info["role"] == "replica" and info["wal_seq"] == 18
            assert "InjectedIOError" in info["last_error"]
            promoted = await tenant.promote()
            assert promoted["promoted"] and promoted["wal_seq"] == 18
            info = tenant.info()
            assert info["role"] == "primary" and info["state"] == "serving"
            assert (info["demotions"], info["recoveries"]) == (1, 1)
            assert len(await tenant.submit(_steps(1, "W"))) == 3
            await tenant.close()

        asyncio.run(_run())

    def test_failed_rebuild_is_retried_not_skipped(self, tmp_path):
        """Regression: a rebuild that raised once sent the tail back to
        ``poll()`` on the very follower whose failure asked for the
        rebuild — never rebuilt, never ``serving`` again."""
        _crashed_primary(tmp_path / "wal")
        built = []

        def factory(wal_dir, *, io=None):
            if len(built) == 1:
                built.append(None)
                raise OSError("rebuild failed once")
            built.append(WalFollower(wal_dir, io=io))
            return built[-1]

        async def _run() -> None:
            io = FaultyIO(FaultPlan([FaultSpec("follower.read", 3, "io_error")]))
            tenant = _tenant(
                replica_of=str(tmp_path / "wal"), io=io,
                follower_factory=factory,
            )
            suspect = tenant.follower
            tenant.start()
            await _until(lambda: tenant.state != "serving")
            opened = time.monotonic()
            assert suspect.polls == 2  # the third poll is the one that failed
            await _until(lambda: tenant.state == "serving")
            outage = time.monotonic() - opened
            await _until(lambda: tenant.follower.polls >= 2)
            assert len(built) == 3 and built[1] is None  # rebuilt twice
            assert tenant.follower is built[2]
            assert suspect.polls == 2  # never touched again
            info = tenant.info()
            assert (info["demotions"], info["recoveries"]) == (1, 1)
            assert info["recover_attempts"] == 0 and not info["recovery_exhausted"]
            # Both pauses — before the failed rebuild and before the good
            # one — are inside the one outage (jitter is at least x0.5).
            assert info["downtime_seconds"] >= 0.9 * (0.005 + 0.01)
            assert info["downtime_seconds"] <= outage + 0.05
            await tenant.close()

        asyncio.run(_run())

    def test_primary_alive_is_no_failure_of_the_replica(self, tmp_path):
        wal = str(tmp_path / "wal")
        primary = build_engine(wal_dir=wal, **CONFIG)
        for step in _steps(2):
            primary.feed(step)
        built = []

        def factory(wal_dir, *, io=None):
            built.append(WalFollower(wal_dir, io=io))
            return built[-1]

        async def _run() -> None:
            tenant = _tenant(replica_of=wal, follower_factory=factory)
            tenant.start()
            await _until(lambda: tenant.follower.polls >= 1)
            with pytest.raises(RequestRejectedError) as err:
                await tenant.promote()
            assert err.value.code == "primary_alive"
            polls = tenant.follower.polls
            await _until(lambda: tenant.follower.polls > polls)
            info = tenant.info()
            assert info["state"] == "serving" and info["last_error"] is None
            assert (info["demotions"], info["recoveries"]) == (0, 0)
            assert len(built) == 1  # the same follower resumed: no rebuild
            await tenant.close()

        try:
            asyncio.run(_run())
        finally:
            primary.close()

    def test_concurrent_promotions_promote_once(self, tmp_path):
        _crashed_primary(tmp_path / "wal")

        async def _run() -> None:
            tenant = _tenant(replica_of=str(tmp_path / "wal"))
            tenant.start()
            await _until(lambda: tenant.follower.polls >= 1)
            answers = await asyncio.gather(tenant.promote(), tenant.promote())
            assert sorted(a["promoted"] for a in answers) == [False, True]
            assert tenant.promotions == 1 and tenant.role == "primary"
            assert len(await tenant.submit(_steps(1, "W"))) == 3
            await tenant.close()

        asyncio.run(_run())
