"""Fault-tolerance overhead on the Fig. 8 configuration.

The protection has to be cheap enough to leave on: with periodic
checkpointing and host degradation enabled (``RESILIENT``) a fault-free
run must stay within 10% of the unprotected (``FULL``) simulated total,
and the results must be identical.  A run without a stall plan arms no
heartbeat monitor, so the entire cost is the periodic vertex-table
snapshots.
"""

from repro.bench import print_table, run_fault_overhead

OVERHEAD_BUDGET = 0.10


def test_fault_overhead_under_budget(once):
    rows = once(run_fault_overhead)
    print_table(["algorithm", "variant", "sim ms", "overhead"],
                [(a, v, round(ms, 1), f"{ov:.2%}") for a, v, ms, ov in rows],
                title="Fault tolerance: fault-free overhead (Fig. 8 config)")
    resilient = [r for r in rows if r[1] == "resilient"]
    assert len(resilient) == 3                 # all three workloads
    for alg, _, _, overhead in resilient:
        assert 0.0 <= overhead < OVERHEAD_BUDGET, (
            f"{alg}: fault-tolerance overhead {overhead:.2%} exceeds "
            f"the {OVERHEAD_BUDGET:.0%} budget")
