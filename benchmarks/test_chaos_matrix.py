"""Chaos matrix: seeded campaigns across all three fault families.

The CI matrix fans one family per job — daemon-edge crashes, network
faults, gray slowdowns — each swept over three seeds on the resilient
stack.  Two invariants per cell:

* values always converge to the fault-free run (asserted inside
  :func:`~repro.bench.figures.run_fault_soak` at 1e-9);
* the recovery overhead is bounded: never meaningfully negative, never
  more than ``MAX_OVERHEAD_FACTOR`` times the clean runtime — a
  recovery path that triples the job is a failed recovery.

Select one family with ``-k`` (``-k crash`` / ``-k net`` /
``-k slowdown`` / ``-k link_slow``), as the CI matrix does.  The
``link_slow`` family needs concrete links to inflate, so its campaigns
run over a two-rack topology; every other family keeps the historical
flat interconnect.
"""

import pytest

from repro.bench import print_table, run_fault_soak
from repro.fault import (CRASH, LINK_FLAKY, LINK_SLOW, NET_DROP, NET_DUP,
                         SLOWDOWN, SYNC_FAIL)

SEEDS = (11, 23, 47)
FAMILIES = {
    "crash": (CRASH,),
    "net": (NET_DROP, NET_DUP, SYNC_FAIL),
    "slowdown": (SLOWDOWN,),
    "link_slow": (LINK_SLOW, LINK_FLAKY),
}
#: Link faults ride concrete uplinks: those campaigns get a topology.
TOPOLOGIES = {"link_slow": "rack:2x1"}
RATE = 0.3
MAX_ITER = 6

#: Recovered campaigns may cost extra time but never multiples of the
#: job: overhead <= (factor - 1) * clean runtime.
MAX_OVERHEAD_FACTOR = 3.0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_chaos_matrix(once, family):
    kinds = FAMILIES[family]

    def sweep():
        rows = []
        for seed in SEEDS:
            for row in run_fault_soak(rates=(0.0, RATE), seed=seed,
                                      kinds=kinds, max_iter=MAX_ITER,
                                      topology=TOPOLOGIES.get(family)):
                rows.append((seed,) + row)
        return rows

    rows = once(sweep)
    print_table(
        ["seed", "rate", "injected", "sim ms", "overhead ms",
         "retransmits", "net wasted ms", "rollbacks"],
        [(seed, r, n, round(t, 1), round(o, 2), x, round(w, 2), rb)
         for seed, r, n, t, o, x, w, rb in rows],
        title=f"Chaos matrix: {family} family, seeds {SEEDS}")

    injected_total = 0
    for seed in SEEDS:
        cell = {r[1]: r for r in rows if r[0] == seed}
        clean_ms = cell[0.0][3]
        faulted = cell[RATE]
        injected_total += faulted[2]
        overhead = faulted[4]
        assert overhead >= -1e-6, (
            f"seed {seed}: negative overhead {overhead}")
        assert overhead <= (MAX_OVERHEAD_FACTOR - 1.0) * clean_ms, (
            f"seed {seed}: recovery overhead {overhead:.1f} ms exceeds "
            f"{MAX_OVERHEAD_FACTOR}x the clean {clean_ms:.1f} ms run")
    # across three seeds the family must actually fire
    assert injected_total > 0
