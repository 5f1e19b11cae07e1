"""Inter-node network: link parameters and resilient transport.

Global synchronization between iterations (§III-B) pays a network cost
that grows with the number of distributed nodes — the effect behind the
"downhill trend" of the middleware cost ratio in Fig. 14, where the
distributed system side gradually dominates total time.

:class:`NetworkModel` holds the three alpha-beta parameters of that
cost — a per-hop latency, a per-byte bandwidth term, and a per-node
coordination term (scheduler/barrier bookkeeping on the upper system's
master).  It prices nothing itself: every collective is priced by a
:class:`~repro.cluster.topology.Topology` built over it, and the
uniform interconnect is the one-rack topology.

:class:`ResilientTransport` prices what surviving armed network
faults costs on top of the topology: a lost fragment is retransmitted
point-to-point after an ack timeout with exponential backoff (bounded
by the retry policy's attempt budget), a duplicate pays its wire time
and is dropped, a failed collective round falls back to point-to-point
retransmission, and a node that outlives the whole retransmission
budget earns a :class:`~repro.errors.NodeUnreachable` verdict.  Every
middleware syncs through one; with no faults armed, every call returns
exactly the topology's cost — the fault-free path pays zero overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.config import check_cost, check_count
from ..errors import NodeUnreachable, SimulationError
from ..fault.retry import RetryPolicy


@dataclass(frozen=True)
class NetworkModel:
    """Alpha-beta(-gamma) parameters of the cluster interconnect; a
    :class:`~repro.cluster.topology.Topology` prices every collective on
    them."""

    latency_ms: float = 0.08           # one hop
    ms_per_byte: float = 0.0000100     # bandwidth scaled with the data
    coord_ms_per_node: float = 0.35    # barrier bookkeeping per participant

    def __post_init__(self) -> None:
        for name in ("latency_ms", "ms_per_byte", "coord_ms_per_node"):
            check_cost(name, getattr(self, name), error=SimulationError)


#: Default cluster interconnect (10GbE-ish, scaled).
DEFAULT_NETWORK = NetworkModel()


class ResilientTransport:
    """Ack/retransmit pricing layer over a
    :class:`~repro.cluster.topology.Topology`.

    Drop-in for the topology at the engine's call sites: it exposes the
    same ``sync_ms`` / ``broadcast_ms`` signatures and returns simulated
    costs, but consumes armed network faults
    (:data:`repro.fault.inject.NETWORK_KINDS`) while doing so:

    * an armed **delay** extends the barrier by the straggler's lateness;
    * an armed **dup** re-delivers a fragment the receiver already
      has — the duplicate crosses the wire (cost) and is dropped (no
      semantic effect; counted in ``dup_drops``);
    * an armed **drop** loses a fragment; after ``ack_timeout_ms`` the
      sender backs off and retransmits it point-to-point;
    * an armed **sync_fail** fails the whole collective round, which is
      retried as point-to-point transfers (the wasted round is charged);
    * an armed **partition** makes a node ignore every retransmission;
      when the policy's attempt budget is spent the transport raises
      :class:`~repro.errors.NodeUnreachable`.

    A fragment that a dup, drop or partition sends again crosses the
    sending node's own uplink path (:meth:`Topology.fragment_ms`), so a
    cross-rack node pays its uplink on every resend.  Faults are
    one-shot: armed events are consumed by the next collective, so a
    superstep re-executed after a rollback runs clean.
    All extra simulated time (anything beyond the topology's cost) is
    accumulated in ``net_wasted_ms`` over the transport's lifetime and
    in ``step_wasted_ms`` since the engine last zeroed it (before each
    superstep attempt).
    """

    def __init__(self, topology, policy: Optional[RetryPolicy] = None,
                 ack_timeout_ms: float = 1.0) -> None:
        self.ack_timeout_ms = check_cost("ack_timeout_ms", ack_timeout_ms,
                                         positive=True, error=SimulationError)
        #: the :class:`~repro.cluster.topology.Topology` fragments ride;
        #: link gray-faults are armed per node on its uplinks
        self.topology = topology
        self.policy = policy if policy is not None else RetryPolicy()
        # armed one-shot faults (consumed by the next collective)
        self._drops: List[int] = []
        self._delays: List[Tuple[int, float]] = []
        self._dups: List[int] = []
        self._sync_fails = 0
        self._partitions: List[int] = []
        # armed link gray-faults: node -> [factor, passes_left, flaky, tick]
        # — multi-pass (a slow uplink stays slow), unlike the one-shot
        # delivery faults above; never corrupts values, only time.
        self._slow_links: Dict[int, List] = {}
        self._link_observer = None
        # lifetime counters
        self.retransmits = 0
        self.dup_drops = 0
        self.collective_fallbacks = 0
        self.partition_verdicts = 0
        self.net_wasted_ms = 0.0
        #: wasted ms since the engine last zeroed it (per superstep)
        self.step_wasted_ms = 0.0
        self.link_inflations = 0
        self.link_slow_ms = 0.0

    # -- fault arming (FaultInjector network events) -----------------------

    def arm_drop(self, node_id: int) -> None:
        self._drops.append(int(node_id))

    def arm_delay(self, node_id: int, delay_ms: float) -> None:
        self._delays.append((int(node_id), float(delay_ms)))

    def arm_dup(self, node_id: int) -> None:
        self._dups.append(int(node_id))

    def arm_sync_fail(self) -> None:
        self._sync_fails += 1

    def arm_partition(self, node_id: int) -> None:
        self._partitions.append(int(node_id))

    def arm_link_slow(self, node_id: int, factor: float = 4.0,
                      passes: int = 2) -> None:
        """Inflate ``node_id``'s uplink fragments ``factor``x for the
        next ``passes`` collective rounds.  Values are never corrupted — a
        slow link is a pure duration gray-failure."""
        if check_cost("link slow factor", factor,
                      error=SimulationError) < 1.0:
            raise SimulationError(f"link slow factor must be >= 1, "
                                  f"got {factor}")
        check_count("link slow passes", passes, 1, error=SimulationError)
        self._slow_links[int(node_id)] = [float(factor), int(passes),
                                          False, 0]

    def arm_link_flaky(self, node_id: int, factor: float = 4.0,
                       passes: int = 2) -> None:
        """Like :meth:`arm_link_slow` but intermittent: the inflation
        fires on alternating collective rounds (the hardest gray failure to
        flag — the EWMA detector has to average through the flapping)."""
        self.arm_link_slow(node_id, factor, passes)
        self._slow_links[int(node_id)][2] = True

    def set_link_observer(self, observer) -> None:
        """Wire a per-link observer (the :class:`StragglerDetector`):
        when the topology's uplink paths differ, every collective
        reports each node's observed vs healthy fragment time through
        ``observe_link``."""
        self._link_observer = observer

    @property
    def faults_armed(self) -> int:
        """Network events waiting for the next collective."""
        return (len(self._drops) + len(self._delays) + len(self._dups)
                + self._sync_fails + len(self._partitions))

    # -- collective rounds --------------------------------------------------

    def sync_ms(self, num_nodes: int, total_bytes: int,
                bytes_by_node=None) -> float:
        """Global synchronization, priced with the armed faults."""
        base = self.topology.sync_ms(num_nodes, total_bytes,
                                     bytes_by_node=bytes_by_node)
        cost = self._collective(base, num_nodes, total_bytes)
        return cost + self._link_pass(num_nodes, total_bytes, bytes_by_node)

    def broadcast_ms(self, num_nodes: int, nbytes: int) -> float:
        """Global broadcast, priced with the armed faults."""
        base = self.topology.broadcast_ms(num_nodes, nbytes)
        return self._collective(base, num_nodes, nbytes)

    def _link_pass(self, num_nodes: int, total_bytes: int,
                   bytes_by_node=None) -> float:
        """Charge armed link gray-faults and feed the per-link observer.

        Each node's fragment has a *healthy* wire time over its uplink
        path; an armed slow link inflates it and the barrier eats the
        difference.  When the topology's uplink paths differ, every
        collective also reports observed/healthy per link to the
        observer, so the EWMA detector sees clean links too and its
        median reference stays honest; on uniform uplinks there is no
        link to tell apart and nothing is reported.  With no faults
        armed and nothing to observe the pass is free and returns
        exactly ``0.0``.
        """
        differ = self.topology.uplinks_differ
        observe = self._link_observer is not None and differ
        if not self._slow_links and not observe:
            return 0.0
        # fused timeline: one vectorized healthy-time array for the
        # whole collective (elementwise over the topology's precomputed
        # uplink arrays, bit-identical to per-fragment fragment_ms);
        # only the faulted links split back to per-fragment handling.
        # Uniform uplinks price every fragment at the even share, as
        # the uniform collective prices every byte alike.
        per_node = self.topology.node_bytes(
            total_bytes, bytes_by_node if differ else None)
        healthy_arr = self.topology.fragment_ms_many(per_node)
        # tick the armed gray-faults in ascending node order — the same
        # order (and thus float accumulation) as the per-node loop; an
        # entry outside this collective stays armed untouched
        factors: Dict[int, float] = {}
        for node in sorted(self._slow_links):
            if not 0 <= node < num_nodes:
                continue
            state = self._slow_links[node]
            f, left, flaky, tick = state
            state[3] = tick + 1
            factors[node] = f if (not flaky or tick % 2 == 0) else 1.0
            state[1] = left - 1
            if state[1] <= 0:
                del self._slow_links[node]
        extra = 0.0
        if observe:
            # observer wired: every link reports observed vs healthy so
            # the EWMA median reference sees clean links too
            for node in range(num_nodes):
                healthy = float(healthy_arr[node])
                factor = factors.get(node, 1.0)
                observed = healthy * factor
                if factor > 1.0:
                    self.link_inflations += 1
                    extra += observed - healthy
                if healthy > 0:
                    self._link_observer.observe_link(node, observed, healthy)
        else:
            # no observer: only the faulted links need per-fragment work
            for node, factor in factors.items():
                healthy = float(healthy_arr[node])
                if factor > 1.0:
                    self.link_inflations += 1
                    extra += healthy * factor - healthy
        if extra > 0.0:
            self._waste(extra)
            self.link_slow_ms += extra
        return extra

    def _collective(self, base: float, num_nodes: int,
                    total_bytes: int) -> float:
        """One collective round: charge ``base`` plus whatever the armed
        faults cost to survive.  Raises :class:`NodeUnreachable` when a
        partitioned node outlives the retransmission budget."""
        if not self.faults_armed:
            return base
        fragment = int(math.ceil(total_bytes / max(num_nodes, 1)))
        extra = 0.0

        # stragglers: the barrier pays the latest fragment
        delays, self._delays = self._delays, []
        if delays:
            extra += max(ms for _, ms in delays)

        # duplicates: the copy crosses the wire, the receiver drops it
        dups, self._dups = self._dups, []
        for node in dups:
            extra += self.topology.fragment_ms(node, fragment)
            self.dup_drops += 1

        # drops: ack timeout, backoff, point-to-point retransmit
        drops, self._drops = self._drops, []
        for node in drops:
            extra += self.ack_timeout_ms + self.policy.backoff_ms(1)
            extra += self.topology.fragment_ms(node, fragment)
            self.retransmits += 1

        # whole-round failure: the collective is wasted, fall back to
        # point-to-point retransmission of every fragment
        if self._sync_fails:
            rounds, self._sync_fails = self._sync_fails, 0
            for _ in range(rounds):
                extra += self.topology.p2p_fallback_ms(num_nodes,
                                                        total_bytes)
                self.collective_fallbacks += 1
                self.retransmits += num_nodes

        # partition: every retransmission misses its ack deadline
        if self._partitions:
            node = self._partitions.pop(0)
            clock = base + extra
            attempts = self.policy.max_attempts
            for attempt in range(1, attempts + 1):
                clock += self.ack_timeout_ms + self.policy.backoff_ms(attempt)
                clock += self.topology.fragment_ms(node, fragment)
                self.retransmits += 1
            self.partition_verdicts += 1
            self._waste(clock)
            raise NodeUnreachable(
                f"node {node}: no ack after {attempts} retransmission "
                f"attempt(s) ({clock:.3f} ms burned)",
                node_id=node, wasted_ms=clock,
            )

        self._waste(extra)
        return base + extra

    def _waste(self, ms: float) -> None:
        """Book ``ms`` of recovery time on both waste counters."""
        self.net_wasted_ms += ms
        self.step_wasted_ms += ms
