"""Observability for the fault subsystem: one aggregated report per run.

Pulls together what the injector scheduled, what the agents survived,
and what the engine had to roll back, so a single object answers "what
happened to this job, fault-wise".
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List


@dataclass
class FaultReport:
    """Aggregated fault/recovery counters for one middleware's lifetime."""

    faults_injected: int = 0
    injected_by_kind: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    recovered_passes: int = 0
    daemon_respawns: int = 0
    heartbeat_verdicts: int = 0
    rollbacks: int = 0
    wasted_ms: float = 0.0
    degraded_nodes: List[int] = field(default_factory=list)
    # network-transport layer (repro.cluster.network)
    retransmits: int = 0
    dup_drops: int = 0
    collective_fallbacks: int = 0
    partition_verdicts: int = 0
    net_wasted_ms: float = 0.0
    rebalance_events: int = 0
    rebalance_ms: float = 0.0
    # gray-failure layer (repro.fault.straggler)
    straggler_verdicts: int = 0
    straggler_recoveries: int = 0
    speculative_wins: int = 0
    speculative_losses: int = 0
    speculative_wasted_ms: float = 0.0
    coeff_updates: int = 0
    online_rebalances: int = 0
    # link-level gray failures (topology-aware transport + detector)
    link_verdicts: int = 0
    link_recoveries: int = 0
    link_slow_ms: float = 0.0

    @property
    def clean(self) -> bool:
        """True when nothing fault-related happened at all.

        Passive observation (heartbeats, coefficient estimation) never
        dirties a run; any *response* — a retry, a verdict, a respawn,
        a rollback, a rebalance, a speculation — does.
        """
        return (self.faults_injected == 0 and self.retries == 0
                and self.rollbacks == 0 and not self.degraded_nodes
                and self.retransmits == 0 and self.dup_drops == 0
                and self.collective_fallbacks == 0
                and self.partition_verdicts == 0
                and self.heartbeat_verdicts == 0
                and self.daemon_respawns == 0
                and self.rebalance_events == 0
                and self.straggler_verdicts == 0
                and self.speculative_wins + self.speculative_losses == 0
                and self.online_rebalances == 0
                and self.link_verdicts == 0
                and self.link_slow_ms == 0.0)

    def summary(self) -> str:
        if self.clean:
            return "fault report: clean run (no faults, no recoveries)"
        kinds = ", ".join(f"{k}={n}" for k, n in
                          sorted(self.injected_by_kind.items()))
        degraded = (", degraded nodes " +
                    str(self.degraded_nodes) if self.degraded_nodes else "")
        net = ""
        if (self.retransmits or self.dup_drops
                or self.collective_fallbacks or self.partition_verdicts):
            net = (f", net: {self.retransmits} retransmits, "
                   f"{self.dup_drops} dup drops, "
                   f"{self.collective_fallbacks} collective fallbacks, "
                   f"{self.partition_verdicts} partition verdicts "
                   f"({self.net_wasted_ms:.1f} ms wasted)")
        rebalance = (f", {self.rebalance_events} rebalances "
                     f"({self.rebalance_ms:.1f} ms)"
                     if self.rebalance_events else "")
        gray = ""
        if (self.straggler_verdicts or self.speculative_wins
                or self.speculative_losses or self.online_rebalances):
            gray = (f", gray: {self.straggler_verdicts} straggler "
                    f"verdicts ({self.straggler_recoveries} recovered), "
                    f"speculation {self.speculative_wins}W/"
                    f"{self.speculative_losses}L "
                    f"({self.speculative_wasted_ms:.1f} ms wasted), "
                    f"{self.online_rebalances} online rebalances "
                    f"from {self.coeff_updates} coefficient updates")
        links = ""
        if self.link_verdicts or self.link_slow_ms:
            links = (f", links: {self.link_verdicts} slow-uplink "
                     f"verdicts ({self.link_recoveries} recovered, "
                     f"{self.link_slow_ms:.1f} ms inflated)")
        return (f"fault report: {self.faults_injected} injected "
                f"({kinds or 'none'}), {self.retries} retries, "
                f"{self.recovered_passes} recovered passes, "
                f"{self.daemon_respawns} respawns, "
                f"{self.rollbacks} rollbacks "
                f"({self.wasted_ms:.1f} ms wasted){net}{rebalance}{gray}"
                f"{links}{degraded}")


def _shared_fields(result) -> List[str]:
    """The :class:`FaultReport` fields ``result`` (a
    :class:`~repro.engines.base.RunResult`) has too: the one name set
    both records are filled through, each from the other."""
    return [f.name for f in fields(FaultReport)
            if f.name in result.__dataclass_fields__]


def fault_report(middleware, result=None) -> FaultReport:
    """Build a :class:`FaultReport` from a middleware's run totals (its
    transport, straggler detector, injector and agents: the one place
    they are read) and optionally the
    :class:`~repro.engines.base.RunResult` whose engine-written counts
    (rollbacks, rebalances, coefficient updates) fill the rest."""
    totals = {name: getattr(middleware.transport, name) for name in (
        "retransmits", "dup_drops", "collective_fallbacks",
        "partition_verdicts", "net_wasted_ms", "link_slow_ms")}
    detector = middleware.straggler
    if detector is not None:
        totals.update({name: getattr(detector, name) for name in (
            "speculative_wins", "speculative_losses",
            "speculative_wasted_ms", "link_verdicts", "link_recoveries")},
            straggler_verdicts=len(detector.verdicts),
            straggler_recoveries=detector.recoveries)
    injector = middleware.injector
    if injector is not None:
        totals.update(faults_injected=injector.injected,
                      injected_by_kind=dict(injector.injected_by_kind))
    agents = middleware.agents.values()
    for name in ("retries", "recovered_passes", "heartbeat_verdicts"):
        totals[name] = sum(getattr(agent, name) for agent in agents)
    totals["daemon_respawns"] = sum(daemon.respawns for agent in agents
                                    for daemon in agent.daemons)
    totals["degraded_nodes"] = middleware.degraded_nodes()
    if result is not None:
        for name in _shared_fields(result):
            totals.setdefault(name, getattr(result, name))
    return FaultReport(**totals)
