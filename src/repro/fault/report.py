"""Observability for the fault subsystem: one aggregated report per run.

Pulls together what the injector scheduled, what the agents survived,
and what the engine had to roll back, so a single object answers "what
happened to this job, fault-wise".
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def fault_report(middleware, result=None) -> FaultReport:
    """Build a :class:`FaultReport` from a middleware (and optionally the
    :class:`~repro.engines.base.RunResult` that carries rollback info)."""
    report = FaultReport()
    injector = getattr(middleware, "injector", None)
    if injector is not None:
        report.faults_injected = injector.injected
        report.injected_by_kind = dict(injector.injected_by_kind)
    for node_id in sorted(middleware.agents):
        agent = middleware.agents[node_id]
        report.retries += agent.retries
        report.recovered_passes += agent.recovered_passes
        report.heartbeat_verdicts += agent.heartbeat_verdicts
        for daemon in agent.daemons:
            report.daemon_respawns += daemon.respawns
        if agent.degraded:
            report.degraded_nodes.append(node_id)
    transport = middleware.transport
    report.retransmits = transport.retransmits
    report.dup_drops = transport.dup_drops
    report.collective_fallbacks = transport.collective_fallbacks
    report.partition_verdicts = transport.partition_verdicts
    report.net_wasted_ms = transport.net_wasted_ms
    report.link_slow_ms = transport.link_slow_ms
    detector = getattr(middleware, "straggler", None)
    if detector is not None:
        report.straggler_verdicts = len(detector.verdicts)
        report.straggler_recoveries = detector.recoveries
        report.speculative_wins = detector.speculative_wins
        report.speculative_losses = detector.speculative_losses
        report.speculative_wasted_ms = detector.speculative_wasted_ms
        report.link_verdicts = detector.link_verdicts
        report.link_recoveries = detector.link_recoveries
    if result is not None:
        report.rollbacks = getattr(result, "rollbacks", 0)
        report.wasted_ms = getattr(result, "wasted_ms", 0.0)
        report.rebalance_events = getattr(result, "rebalance_events", 0)
        report.rebalance_ms = getattr(result, "rebalance_ms", 0.0)
        report.coeff_updates = getattr(result, "coeff_updates", 0)
        report.online_rebalances = getattr(result, "online_rebalances", 0)
    return report
