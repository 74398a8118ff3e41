"""Unit tests for strict 2PL and the optimistic certifier."""

from __future__ import annotations

import pytest

from repro.analysis.serializability import is_conflict_serializable
from repro.errors import SchedulerError
from repro.model.steps import Begin, Read, Write
from repro.scheduler.certifier import Certifier
from repro.scheduler.events import Decision
from repro.scheduler.locking import StrictTwoPhaseLocking


def run_2pl(steps):
    scheduler = StrictTwoPhaseLocking()
    return scheduler, scheduler.feed_many(steps)


def run_cert(steps):
    scheduler = Certifier()
    return scheduler, scheduler.feed_many(steps)


class TestLockingBasics:
    def test_shared_locks_coexist(self):
        scheduler, results = run_2pl(
            [Begin("T1"), Read("T1", "x"), Begin("T2"), Read("T2", "x")]
        )
        assert all(r.decision is Decision.ACCEPTED for r in results)

    def test_exclusive_blocks_reader(self):
        # T1 takes exclusive x at its final write... writes release at
        # commit, so use the reverse: reader blocks writer.
        scheduler, results = run_2pl(
            [Begin("T1"), Read("T1", "x"), Begin("T2"), Write("T2", {"x"})]
        )
        assert results[-1].decision is Decision.DELAYED
        assert results[-1].blocked_on == ("T1",)

    def test_commit_releases_and_drains(self):
        scheduler, results = run_2pl(
            [
                Begin("T1"),
                Read("T1", "x"),
                Begin("T2"),
                Write("T2", {"x"}),  # blocked on T1
                Write("T1", set()),  # T1 commits; T2's write released
            ]
        )
        assert [str(s) for s in results[-1].released] == ["w{x}(T2)"]
        assert set(results[-1].committed) == {"T1", "T2"}

    def test_closed_at_commit(self):
        scheduler, _ = run_2pl([Begin("T1"), Read("T1", "x"), Write("T1", set())])
        assert scheduler.retained_transactions() == frozenset()
        assert scheduler.committed_transactions() == ("T1",)

    def test_upgrade_own_shared_lock(self):
        scheduler, results = run_2pl(
            [Begin("T1"), Read("T1", "x"), Write("T1", {"x"})]
        )
        assert results[-1].decision is Decision.ACCEPTED

    def test_upgrade_blocked_by_other_sharer(self):
        scheduler, results = run_2pl(
            [
                Begin("T1"),
                Read("T1", "x"),
                Begin("T2"),
                Read("T2", "x"),
                Write("T1", {"x"}),
            ]
        )
        assert results[-1].decision is Decision.DELAYED


class TestLockingDeadlock:
    def test_two_transaction_deadlock_aborts_requester(self):
        scheduler, results = run_2pl(
            [
                Begin("T1"),
                Read("T1", "x"),
                Begin("T2"),
                Read("T2", "y"),
                Write("T1", {"y"}),  # T1 waits for T2
                Write("T2", {"x"}),  # T2 waits for T1: deadlock
            ]
        )
        assert results[-1].decision is Decision.REJECTED
        assert "T2" in results[-1].aborted
        # T2's abort released y: T1's parked write drains and commits.
        assert "T1" in scheduler.committed_transactions()

    def test_accepted_schedule_is_csr(self):
        scheduler, _ = run_2pl(
            [
                Begin("T1"),
                Read("T1", "x"),
                Begin("T2"),
                Read("T2", "y"),
                Write("T1", {"y"}),
                Write("T2", {"x"}),
            ]
        )
        accepted = scheduler.accepted_subschedule()
        assert is_conflict_serializable(accepted)

    def test_steps_of_deadlock_victim_ignored(self):
        scheduler, results = run_2pl(
            [
                Begin("T1"),
                Read("T1", "x"),
                Begin("T2"),
                Read("T2", "y"),
                Write("T1", {"y"}),
                Write("T2", {"x"}),  # T2 aborted
                Read("T2", "z"),
            ]
        )
        assert results[-1].decision is Decision.IGNORED


class TestCertifier:
    def test_nonconflicting_certifications(self):
        scheduler, results = run_cert(
            [
                Begin("T1"),
                Read("T1", "x"),
                Write("T1", {"y"}),
                Begin("T2"),
                Read("T2", "x"),
                Write("T2", {"z"}),
            ]
        )
        assert all(r.decision is Decision.ACCEPTED for r in results)
        assert len(scheduler.graph) == 2

    def test_stale_read_aborts(self):
        scheduler, results = run_cert(
            [
                Begin("T1"),
                Read("T1", "x"),  # reads pre-image of T2's write
                Begin("T2"),
                Read("T2", "x"),
                Write("T2", {"x"}),  # certified
                Write("T1", {"x"}),  # T1: read before T2 wrote, writes after
            ]
        )
        assert results[-1].decision is Decision.REJECTED
        assert results[-1].aborted == ("T1",)

    def test_read_only_transaction_certifies(self):
        scheduler, results = run_cert(
            [
                Begin("T1"),
                Read("T1", "x"),
                Begin("T2"),
                Read("T2", "x"),
                Write("T2", {"x"}),
                Write("T1", set()),  # read x before the overwrite: T1 -> T2
            ]
        )
        assert results[-1].decision is Decision.ACCEPTED
        assert scheduler.graph.has_arc("T1", "T2")

    def test_arcs_respect_read_times(self):
        scheduler, _ = run_cert(
            [
                Begin("T2"),
                Read("T2", "x"),
                Write("T2", {"x"}),
                Begin("T1"),
                Read("T1", "x"),  # reads T2's installed value
                Write("T1", set()),
            ]
        )
        assert scheduler.graph.has_arc("T2", "T1")

    def test_accepted_schedule_csr(self):
        scheduler, _ = run_cert(
            [
                Begin("T1"),
                Read("T1", "x"),
                Begin("T2"),
                Read("T2", "x"),
                Write("T2", {"x"}),
                Write("T1", {"x"}),
            ]
        )
        accepted = scheduler.accepted_subschedule()
        assert is_conflict_serializable(accepted)

    def test_noncurrent_deletion_offer(self):
        scheduler, _ = run_cert(
            [
                Begin("T1"),
                Read("T1", "a"),
                Write("T1", {"b"}),
                Begin("T2"),
                Read("T2", "b"),
                Write("T2", {"a", "b"}),
            ]
        )
        # T1's accesses (a, b) are both overwritten by T2: noncurrent.
        assert scheduler.deletable_noncurrent() == frozenset({"T1"})

    def test_unknown_transaction_read(self):
        scheduler = Certifier()
        with pytest.raises(SchedulerError):
            scheduler.feed(Read("T9", "x"))

    def test_a_refused_step_is_not_in_the_accepted_subschedule(self):
        """A step whose processing raises is refused: it appears in no
        history list, so no view projected from one shows it."""
        steps = [Begin("T1"), Read("T1", "x"), Write("T1", {"x"})]
        scheduler, _ = run_cert(steps)
        with pytest.raises(SchedulerError):
            scheduler.feed(Read("T1", "y"))  # T1 already completed
        accepted = scheduler.accepted_subschedule()
        assert [str(step) for step in accepted] == [str(step) for step in steps]
        assert Read("T1", "y") not in scheduler.input_schedule
