"""Seeded step streams for the ledger workloads.

The library's :func:`repro.model.schedule.interleave` rescans every
transaction queue on every step, which makes stream generation quadratic
(6.6k steps took 1.7 s and 26k steps 20.6 s on the sizing box).  The
ledger needs streams of 10^4..10^5 steps inside its set-up budget, so it
interleaves the *same public specs* (``banking_specs``/``basic_specs``)
with the linear-time windowed interleaver below.  Finding for a later
``src`` issue: ``interleave`` is O(transactions x steps).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.model.steps import Step
from repro.workloads import BankingConfig, banking_specs

__all__ = ["interleave_windowed", "banking_steps"]


def interleave_windowed(
    specs: Sequence[object],
    seed: int = 0,
    max_concurrent: Optional[int] = None,
) -> List[Step]:
    """Interleave the specs' step sequences in time linear in the output.

    Same contract as :func:`repro.model.schedule.interleave`: every
    transaction's own steps keep their order, a BEGIN is withheld while
    ``max_concurrent`` others are in flight, and each output step is a
    uniform (seeded) choice among the admissible transactions.  The one
    difference is what "admissible" admits for unstarted transactions:
    only the *next* spec in list order may begin (a window over the spec
    list), where the library admits any unstarted spec — that difference
    is what makes the choice O(1) instead of a scan.
    """
    rng = random.Random(seed)
    pending = iter(specs)
    upcoming = next(pending, None)
    in_flight: List[List[object]] = []  # [steps, next position]
    out: List[Step] = []
    while in_flight or upcoming is not None:
        flying = len(in_flight)
        may_begin = upcoming is not None and (
            max_concurrent is None or flying < max_concurrent
        )
        pick = rng.randrange(flying + 1 if may_begin else flying)
        if pick == flying:
            steps = upcoming.steps()  # type: ignore[attr-defined]
            out.append(steps[0])
            if len(steps) > 1:
                in_flight.append([steps, 1])
            upcoming = next(pending, None)
            continue
        entry = in_flight[pick]
        steps, position = entry
        out.append(steps[position])  # type: ignore[index]
        if position + 1 == len(steps):  # type: ignore[arg-type]
            in_flight[pick] = in_flight[-1]
            in_flight.pop()
        else:
            entry[1] = position + 1
    return out


def banking_steps(
    *,
    seed: int,
    n_steps: int,
    n_accounts: int,
    multiprogramming: int = 8,
    zipf_s: float = 0.3,
    partitions: int = 1,
    cross_fraction: float = 0.0,
) -> List[Step]:
    """Exactly *n_steps* steps of the banking workload, no audits.

    A transfer is four steps and a deposit three, so ``n_steps // 3 + 1``
    transactions always cover the request; the stream is cut at
    *n_steps*, which leaves at most ``multiprogramming`` transactions
    unfinished at the very end (they stay active, as in any live system).
    """
    config = BankingConfig(
        n_accounts=n_accounts,
        n_transfers=n_steps // 3 + 1,
        audit_every=0,
        zipf_s=zipf_s,
        multiprogramming=multiprogramming,
        seed=seed,
        partitions=partitions,
        cross_fraction=cross_fraction,
    )
    steps = interleave_windowed(
        banking_specs(config),
        seed=seed + 2,
        max_concurrent=multiprogramming,
    )
    return steps[:n_steps]
