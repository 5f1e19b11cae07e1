"""Deterministic fault injection: plans, events, and the injector.

The subsystem's fault model covers the failure shapes a daemon-agent
deployment actually sees (§IV-C keeps daemons alive precisely because
accelerator contexts are fragile):

* ``crash``   — the daemon's device context dies mid-kernel
  (:class:`~repro.errors.DeviceFailure`); optionally recurring, so
  retries can be exhausted and checkpoint recovery exercised;
* ``hang``    — the daemon goes silent for a while without crashing; the
  heartbeat monitor must notice the missed beats;
* ``shm``     — the daemon's System V segment is corrupted; the agent's
  integrity check catches it before data is consumed;
* ``drop``    — a control message between agent and daemon is lost; the
  protocol stalls and the watchdog converts the stall into a verdict;
* ``delay``   — a control message is delivered late (transient; no
  recovery needed, only latency).

A second family targets the *cluster network* — the sync collectives
behind synchronization caching/skipping (§III-B) and the partition
exchanges behind workload balancing (§III-C):

* ``net_drop``       — one node's collective fragment is lost; the
  resilient transport retransmits it point-to-point after an ack
  timeout;
* ``net_delay``      — a fragment arrives late; the barrier pays the
  straggler (latency only);
* ``net_dup``        — a fragment is delivered twice; sequence numbers
  dedupe it (idempotent delivery);
* ``sync_fail``      — a whole collective round fails and falls back to
  point-to-point retransmission;
* ``node_partition`` — a node is unreachable; the retransmission budget
  is exhausted and the engine takes the rollback + degradation path.

A third family models *gray failures* — daemons that keep heartbeating
but run slow (thermal throttling, contended PCIe, shm pressure).  They
never raise anything; detecting and responding to them is the straggler
layer's job (:mod:`repro.fault.straggler`):

* ``slowdown``       — the daemon's compute coefficient is inflated by
  ``factor`` for the next ``passes`` edge passes;
* ``shm_slow``       — the pair's transfer (download/upload) bandwidth
  cost is inflated instead;
* ``flaky_slowdown`` — intermittent: the compute inflation applies only
  on every other pass, the hardest shape to flag without patience.

The same gray shape exists on the network edge when a rack
:class:`~repro.cluster.topology.Topology` is wired in:

* ``link_slow``  — a node's uplink fragments pay ``factor``x wire time
  for ``passes`` collectives (values never corrupted);
* ``link_flaky`` — the uplink inflation fires on alternating
  collectives only.

Plans are *data*: a tuple of :class:`FaultEvent` keyed by superstep, so
a run with a given plan is exactly reproducible.  :meth:`FaultPlan.random`
derives a plan from a seed deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.config import check_cost, check_count
from ..errors import FaultPlanError

# Fault kinds (the vocabulary of FaultEvent.kind).
CRASH = "crash"
HANG = "hang"
SHM_CORRUPTION = "shm"
MESSAGE_DROP = "drop"
MESSAGE_DELAY = "delay"

#: Daemon-agent edge kinds (the original fault model).
KINDS = (CRASH, HANG, SHM_CORRUPTION, MESSAGE_DROP, MESSAGE_DELAY)

# Inter-node network kinds (repro.cluster.network.ResilientTransport).
NET_DROP = "net_drop"              # a collective fragment is lost
NET_DELAY = "net_delay"            # a fragment arrives late (straggler)
NET_DUP = "net_dup"                # a fragment is delivered twice
SYNC_FAIL = "sync_fail"            # a whole collective round fails
NODE_PARTITION = "node_partition"  # a node is unreachable for the round

#: Kinds that target the cluster interconnect instead of a daemon pair;
#: they arm on the resilient transport, not on an agent.
NETWORK_KINDS = (NET_DROP, NET_DELAY, NET_DUP, SYNC_FAIL, NODE_PARTITION)

# Gray-failure kinds (repro.fault.straggler): the daemon stays alive and
# keeps heartbeating, it just gets slow.
SLOWDOWN = "slowdown"              # compute coefficient inflated
SHM_SLOW = "shm_slow"              # transfer bandwidth cost inflated
FLAKY_SLOWDOWN = "flaky_slowdown"  # intermittent compute inflation

#: Kinds that degrade a pair's speed without breaking anything; they
#: need neither the monitor nor the transport to fire.
GRAY_KINDS = (SLOWDOWN, SHM_SLOW, FLAKY_SLOWDOWN)

# Link-level gray failures (repro.cluster.network.ResilientTransport over
# a Topology): the node's *uplink* stays up but runs slow — fragments pay
# inflated wire time for `passes` collectives, values are never corrupted.
LINK_SLOW = "link_slow"            # uplink fragments inflated every pass
LINK_FLAKY = "link_flaky"          # intermittent uplink inflation

#: Gray kinds on the network edge; like NETWORK_KINDS they arm on the
#: resilient transport, but they inflate durations instead of breaking
#: delivery, and they persist for `passes` collectives.
LINK_KINDS = (LINK_SLOW, LINK_FLAKY)

#: Every kind that arms on the resilient transport.
TRANSPORT_KINDS = NETWORK_KINDS + LINK_KINDS

ALL_KINDS = KINDS + NETWORK_KINDS + GRAY_KINDS + LINK_KINDS

#: Kinds that manifest as a protocol stall and therefore need the
#: heartbeat monitor (and the pipelined protocol) to be detected at all.
STALL_KINDS = (HANG, MESSAGE_DROP)

#: Channel directions a drop/delay event may target.
TO_AGENT = "to_agent"
TO_DAEMON = "to_daemon"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``superstep`` is the engine iteration at which the event is armed;
    the fault fires during that superstep's processing.  ``repeat``
    applies to crashes only: the total number of times the device fault
    re-fires (it is re-armed on every daemon respawn until spent), which
    is how a plan exhausts a retry policy deterministically.
    """

    kind: str
    superstep: int
    node_id: int = 0
    daemon_index: int = 0
    after_kernels: int = 0          # crash: fire after N successful kernels
    repeat: int = 1                 # crash: total firings (>=1)
    duration_ms: float = 100.0      # hang/delay length
    direction: str = TO_AGENT       # drop/delay: which control channel
    region: str = "areas"           # shm: region to corrupt
    factor: float = 4.0             # gray: cost inflation multiplier
    passes: int = 2                 # gray: edge passes the inflation lasts

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{ALL_KINDS}"
            )
        for name in ("superstep", "node_id", "daemon_index", "after_kernels"):
            check_count(name, getattr(self, name), 0, error=FaultPlanError)
        check_count("repeat", self.repeat, 1, error=FaultPlanError)
        check_cost("duration_ms", self.duration_ms, error=FaultPlanError)
        if self.direction not in (TO_AGENT, TO_DAEMON):
            raise FaultPlanError(
                f"direction must be {TO_AGENT!r}/{TO_DAEMON!r}, "
                f"got {self.direction!r}"
            )
        if self.kind in GRAY_KINDS or self.kind in LINK_KINDS:
            if check_cost("gray fault factor", self.factor,
                          error=FaultPlanError) < 1.0:
                raise FaultPlanError(
                    f"gray fault factor must be >= 1 (a slowdown), "
                    f"got {self.factor}"
                )
            check_count("gray fault passes", self.passes, 1,
                        error=FaultPlanError)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, reproducible schedule of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        if not all(isinstance(e, FaultEvent) for e in self.events):
            raise FaultPlanError("FaultPlan.events must hold FaultEvent items")

    @property
    def requires_monitor(self) -> bool:
        """True if any event can only be *detected* via heartbeats."""
        return any(e.kind in STALL_KINDS for e in self.events)

    # -- convenience constructors ------------------------------------------

    @classmethod
    def single(cls, kind: str, superstep: int, **kw) -> "FaultPlan":
        """A plan with exactly one event."""
        return cls(events=(FaultEvent(kind=kind, superstep=superstep, **kw),))

    @classmethod
    def random(cls, seed: int, *, supersteps: int, num_nodes: int,
               daemons_per_node: int = 1, rate: float = 0.1,
               kinds: Sequence[str] = KINDS,
               hang_ms: float = 100.0, delay_ms: float = 5.0,
               slow_factor: float = 4.0, slow_passes: int = 2,
               ) -> "FaultPlan":
        """Derive a plan deterministically from ``seed``.

        Each (superstep, node, daemon) slot independently draws a fault
        with probability ``rate``; the kind is drawn uniformly from
        ``kinds`` — which may mix daemon-edge kinds (:data:`KINDS`),
        network kinds (:data:`NETWORK_KINDS`) and gray kinds
        (:data:`GRAY_KINDS`, parameterized by ``slow_factor`` /
        ``slow_passes``).  The same seed always yields the same plan.
        """
        if not 0.0 <= rate <= 1.0:
            raise FaultPlanError(f"rate must be in [0, 1], got {rate}")
        if supersteps < 0 or num_nodes < 1 or daemons_per_node < 1:
            raise FaultPlanError(
                f"bad plan shape: supersteps={supersteps}, "
                f"nodes={num_nodes}, daemons={daemons_per_node}"
            )
        unknown = sorted(set(kinds) - set(ALL_KINDS))
        if unknown:
            raise FaultPlanError(
                f"unknown fault kind(s): {', '.join(unknown)}; valid "
                f"kinds: {', '.join(sorted(ALL_KINDS))}")
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        for step in range(supersteps):
            for node in range(num_nodes):
                for daemon in range(daemons_per_node):
                    if rng.random() >= rate:
                        continue
                    kind = kinds[int(rng.integers(len(kinds)))]
                    events.append(FaultEvent(
                        kind=kind, superstep=step, node_id=node,
                        daemon_index=(0 if kind in TRANSPORT_KINDS
                                      else daemon),
                        after_kernels=int(rng.integers(4)),
                        duration_ms=(hang_ms if kind == HANG else delay_ms),
                        direction=(TO_AGENT if rng.random() < 0.5
                                   else TO_DAEMON),
                        factor=slow_factor, passes=slow_passes,
                    ))
        return cls(events=tuple(events))


class FaultInjector:
    """Arms a plan's events on the live middleware, superstep by superstep.

    Events are one-shot: once armed for a superstep they are consumed, so
    a superstep re-executed after a checkpoint rollback does not re-inject
    the same fault (the run converges instead of looping).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._pending: Dict[int, List[FaultEvent]] = {}
        for event in plan.events:
            self._pending.setdefault(event.superstep, []).append(event)
        self.injected = 0
        self.injected_by_kind: Dict[str, int] = {}
        self.log: List[FaultEvent] = []

    def validate_against(self, agents: Dict[int, "object"]) -> None:
        """Fail fast if the plan targets nodes/daemons that do not exist."""
        for event in self.plan.events:
            if event.node_id not in agents:
                raise FaultPlanError(
                    f"fault plan targets unknown node {event.node_id}"
                )
            if event.kind in TRANSPORT_KINDS:
                continue
            agent = agents[event.node_id]
            if event.daemon_index >= len(agent.daemons):
                raise FaultPlanError(
                    f"fault plan targets daemon #{event.daemon_index} on "
                    f"node {event.node_id}, which has only "
                    f"{len(agent.daemons)} daemon(s)"
                )

    def arm(self, superstep: int, agents: Dict[int, "object"],
            transport: "object") -> int:
        """Arm every event scheduled for ``superstep`` on the agents'
        daemons or the middleware's transport; returns the count."""
        events = self._pending.pop(superstep, [])
        for event in events:
            if event.kind in TRANSPORT_KINDS:
                self._arm_network(event, transport)
                self.injected += 1
                self.injected_by_kind[event.kind] = (
                    self.injected_by_kind.get(event.kind, 0) + 1)
                self.log.append(event)
                continue
            agent = agents[event.node_id]
            daemon = agent.daemons[event.daemon_index]
            if event.kind == CRASH:
                daemon.accelerator.inject_failure(event.after_kernels)
                daemon.pending_crashes = event.repeat - 1
                daemon.crash_after_kernels = event.after_kernels
            elif event.kind == HANG:
                daemon.pending_hang_ms = event.duration_ms
            elif event.kind == SHM_CORRUPTION:
                daemon.segment.corrupt(event.region)
            elif event.kind == MESSAGE_DROP:
                channel = (daemon.to_agent if event.direction == TO_AGENT
                           else daemon.to_daemon)
                channel.arm_drop()
            elif event.kind == MESSAGE_DELAY:
                channel = (daemon.to_agent if event.direction == TO_AGENT
                           else daemon.to_daemon)
                channel.arm_delay(event.duration_ms)
            elif event.kind == SLOWDOWN:
                daemon.arm_slowdown(event.factor, event.passes)
            elif event.kind == FLAKY_SLOWDOWN:
                daemon.arm_slowdown(event.factor, event.passes, flaky=True)
            elif event.kind == SHM_SLOW:
                daemon.arm_transfer_slowdown(event.factor, event.passes)
            self.injected += 1
            self.injected_by_kind[event.kind] = (
                self.injected_by_kind.get(event.kind, 0) + 1)
            self.log.append(event)
        return len(events)

    @staticmethod
    def _arm_network(event: FaultEvent, transport: "object") -> None:
        """Arm one network event on the resilient transport."""
        if event.kind == NET_DROP:
            transport.arm_drop(event.node_id)
        elif event.kind == NET_DELAY:
            transport.arm_delay(event.node_id, event.duration_ms)
        elif event.kind == NET_DUP:
            transport.arm_dup(event.node_id)
        elif event.kind == SYNC_FAIL:
            transport.arm_sync_fail()
        elif event.kind == NODE_PARTITION:
            transport.arm_partition(event.node_id)
        elif event.kind == LINK_SLOW:
            transport.arm_link_slow(event.node_id, event.factor,
                                    event.passes)
        elif event.kind == LINK_FLAKY:
            transport.arm_link_flaky(event.node_id, event.factor,
                                     event.passes)
