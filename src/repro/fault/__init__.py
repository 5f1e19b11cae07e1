"""Fault-tolerance subsystem: injection, detection, retry, and recovery.

Four layers, wired through the middleware stack:

* **injection** (:mod:`~repro.fault.inject`) — deterministic, seedable
  fault plans (daemon crash, hang, shm corruption, message drop/delay)
  armed superstep by superstep via ``MiddlewareConfig.fault_plan``;
* **detection** (:mod:`~repro.fault.monitor`) — per-daemon heartbeats
  with busy leases on the simulated clock; a watchdog process turns
  silence into :class:`~repro.errors.DaemonDead` verdicts;
* **retry** (:mod:`~repro.fault.retry`) — exponential backoff for
  transient faults, daemon respawn re-attaching shared memory;
* **recovery** (:mod:`~repro.fault.checkpoint`) — periodic vertex-table
  checkpoints (full or incremental deltas) so engines roll back to the
  last consistent superstep, with graceful degradation to the host
  (CPU) path when a node's accelerators are exhausted;
* **network** (:mod:`~repro.cluster.network`) — the resilient transport
  every middleware syncs through prices the inter-node fault kinds
  (``net_drop`` / ``net_delay`` / ``net_dup`` / ``sync_fail`` /
  ``node_partition``): ack timeouts, retransmission and p2p fallback,
  and a :class:`~repro.errors.NodeUnreachable` verdict for a partitioned
  node that escalates to rollback, degradation and Lemma-2 rebalancing;
* **gray failures** (:mod:`~repro.fault.straggler`) — EWMA straggler
  detection for pairs that heartbeat but run slow (``slowdown`` /
  ``shm_slow`` / ``flaky_slowdown``), answered by speculative block
  re-execution and online Lemma-2 re-estimation instead of verdicts.
"""

from .checkpoint import Checkpoint, CheckpointDelta, CheckpointStore
from .inject import (
    ALL_KINDS,
    CRASH,
    FLAKY_SLOWDOWN,
    GRAY_KINDS,
    HANG,
    KINDS,
    LINK_FLAKY,
    LINK_KINDS,
    LINK_SLOW,
    MESSAGE_DELAY,
    MESSAGE_DROP,
    NET_DELAY,
    NET_DROP,
    NET_DUP,
    NETWORK_KINDS,
    NODE_PARTITION,
    SHM_CORRUPTION,
    SHM_SLOW,
    SLOWDOWN,
    STALL_KINDS,
    SYNC_FAIL,
    TO_AGENT,
    TO_DAEMON,
    TRANSPORT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from .monitor import HeartbeatMonitor
from .report import FaultReport, fault_report
from .retry import RetryPolicy
from .straggler import PHASES, StragglerDetector

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "HeartbeatMonitor",
    "RetryPolicy",
    "Checkpoint",
    "CheckpointDelta",
    "CheckpointStore",
    "FaultReport",
    "fault_report",
    "CRASH",
    "HANG",
    "SHM_CORRUPTION",
    "MESSAGE_DROP",
    "MESSAGE_DELAY",
    "NET_DROP",
    "NET_DELAY",
    "NET_DUP",
    "SYNC_FAIL",
    "NODE_PARTITION",
    "SLOWDOWN",
    "SHM_SLOW",
    "FLAKY_SLOWDOWN",
    "LINK_SLOW",
    "LINK_FLAKY",
    "KINDS",
    "NETWORK_KINDS",
    "GRAY_KINDS",
    "LINK_KINDS",
    "TRANSPORT_KINDS",
    "ALL_KINDS",
    "STALL_KINDS",
    "TO_AGENT",
    "TO_DAEMON",
    "StragglerDetector",
    "PHASES",
]
