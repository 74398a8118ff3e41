"""Soak tests: long streams, every scheduler, audited end to end.

These are the closest thing to a production burn-in: several hundred
transactions with hotspot skew, mid-run policy GC, and full offline audits
at the end.  They also pin the headline systems claim — bounded graphs
under the C1 policy versus linear growth without it.
"""

from __future__ import annotations

import pytest

from repro.analysis.runner import run_with_policy
from repro.core.bounds import irreducible_bound
from repro.engine import Engine
from repro.core.policies import (
    EagerC1Policy,
    EagerC4Policy,
    Lemma1Policy,
    NeverDeletePolicy,
    NoncurrentPolicy,
)
from repro.scheduler.certifier import Certifier
from repro.scheduler.conflict import ConflictGraphScheduler
from repro.scheduler.locking import StrictTwoPhaseLocking
from repro.scheduler.multiwrite import MultiwriteScheduler
from repro.scheduler.predeclared import PredeclaredScheduler
from repro.workloads.banking import BankingConfig, banking_stream
from repro.workloads.generator import (
    WorkloadConfig,
    basic_stream,
    multiwrite_stream,
    predeclared_stream,
)

LONG = WorkloadConfig(
    n_transactions=300,
    n_entities=12,
    multiprogramming=6,
    write_fraction=0.45,
    zipf_s=0.8,
    seed=777,
)


class TestLongBasicStreams:
    def test_eager_c1_bounded_by_ae(self):
        metrics = run_with_policy(
            ConflictGraphScheduler(), basic_stream(LONG), EagerC1Policy(),
            audit_csr=True,
        )
        bound = irreducible_bound(LONG.multiprogramming, LONG.n_entities)
        assert metrics.peak_retained_completed <= bound
        assert metrics.deleted_transactions > 200

    def test_never_grows_linearly(self):
        metrics = run_with_policy(
            ConflictGraphScheduler(), basic_stream(LONG), NeverDeletePolicy(),
            audit_csr=True,
        )
        committed = metrics.committed_transactions
        assert metrics.peak_retained_completed == committed > 200

    @pytest.mark.parametrize(
        "policy_factory", [Lemma1Policy, NoncurrentPolicy],
        ids=["lemma1", "noncurrent"],
    )
    def test_sufficient_policies_audited(self, policy_factory):
        metrics = run_with_policy(
            ConflictGraphScheduler(), basic_stream(LONG), policy_factory(),
            audit_csr=True,
        )
        assert metrics.deleted_transactions > 100

    def test_locking_and_certifier_soak(self):
        for scheduler in (StrictTwoPhaseLocking(), Certifier()):
            metrics = run_with_policy(scheduler, basic_stream(LONG), audit_csr=True)
            assert metrics.committed_transactions > 150

    def test_banking_soak(self):
        config = BankingConfig(
            n_accounts=20, n_transfers=200, audit_every=20, audit_span=12,
            multiprogramming=8, seed=5,
        )
        metrics = run_with_policy(
            ConflictGraphScheduler(), banking_stream(config), EagerC1Policy(),
            audit_csr=True,
        )
        assert metrics.peak_retained_completed <= irreducible_bound(8, 20)


class TestLongVariantStreams:
    def test_multiwrite_soak(self):
        config = WorkloadConfig(
            n_transactions=150, n_entities=10, multiprogramming=4,
            write_fraction=0.5, zipf_s=0.6, seed=31,
        )
        metrics = run_with_policy(
            MultiwriteScheduler(), multiwrite_stream(config), audit_csr=True
        )
        assert metrics.committed_transactions > 100

    def test_predeclared_soak_with_gc(self):
        config = WorkloadConfig(
            n_transactions=150, n_entities=10, multiprogramming=4,
            write_fraction=0.5, zipf_s=0.6, seed=32,
        )
        metrics = run_with_policy(
            PredeclaredScheduler(), predeclared_stream(config), EagerC4Policy(),
            audit_csr=True,
        )
        assert metrics.aborted_transactions == 0  # delays, never aborts
        assert metrics.deleted_transactions >= 140

    def test_adopted_parts_soak_with_verification(self):
        gc = Engine.from_parts(
            ConflictGraphScheduler(), EagerC1Policy(), verify_c2=True
        )
        gc.feed_many(basic_stream(LONG))
        assert gc.stats.deletions > 200
        assert gc.stats.peak_retained_completed <= irreducible_bound(
            LONG.multiprogramming, LONG.n_entities
        )
