"""Rack topology: the one cost model of the cluster interconnect.

Every collective a cluster runs is priced here.  Nodes are grouped into
racks, every ``(src, dst)`` pair resolves to a :class:`LinkModel`
(intra-rack or cross-rack default, individually overridable) carrying
the alpha-beta parameters of a
:class:`~repro.cluster.network.NetworkModel`, and every collective
pays a rack-aggregated tree cost:

* stage 1 — every node ships its fragment to its rack leader; racks
  reduce in parallel, so the stage costs the *slowest* rack;
* stage 2 — each non-root rack leader ships the rack's aggregate over
  its uplink to the root leader (node 0's rack); uplinks share the
  spine, so the stage costs the *sum*;
* the usual per-node coordination term from the base model.

The uniform interconnect is the one-rack topology (``"flat:N"``, and
what a cluster built without a topology gets): ``ceil(log2 N)`` latency
hops, the full payload crossing the wire once, plus per-node
coordination — the flat alpha-beta collective.  Only a topology whose
uplink paths differ (:attr:`Topology.uplinks_differ`) turns on the
link-aware behaviours: per-link observation in the resilient transport
and the wire slope in online Lemma-2 re-estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import check_cost
from ..errors import SimulationError
from .network import DEFAULT_NETWORK, NetworkModel

#: A cross-rack link not pinned by a ``;link=`` clause costs this
#: multiple of the intra-rack latency...
DEFAULT_CROSS_LATENCY_FACTOR = 4.0
#: ...and this multiple of the intra-rack cost/byte.
DEFAULT_CROSS_BYTE_FACTOR = 4.0


@dataclass(frozen=True)
class LinkModel:
    """One directed link: a latency and a per-byte bandwidth cost."""

    latency_ms: float
    ms_per_byte: float

    def __post_init__(self) -> None:
        check_cost("link latency_ms", self.latency_ms, error=SimulationError)
        check_cost("link ms_per_byte", self.ms_per_byte,
                   error=SimulationError)


class Topology:
    """Nodes grouped into racks with per-link alpha-beta costs.

    ``racks`` — node ids grouped by rack; together they must cover
    ``0..n-1`` exactly once.  ``base`` supplies the coordination term
    and the intra-rack link parameters; a cross-rack link costs the
    intra-rack one times the ``DEFAULT_CROSS_*`` factors; ``overrides``
    pins individual directed ``(src, dst)`` pairs.

    Node 0 is the collective root (the upper system's master).  Each
    rack's leader is its lowest node id; fragments ride member->leader
    intra-rack links, then leader->root cross-rack uplinks.  A leader's
    own fragment still crosses its local bus at the intra-rack rate, so
    the one-rack case charges the full payload once — the flat
    alpha-beta collective.
    """

    def __init__(self, racks: Sequence[Sequence[int]], *,
                 base: Optional[NetworkModel] = None,
                 overrides: Optional[Dict[Tuple[int, int], LinkModel]] = None
                 ) -> None:
        if not racks or any(not rack for rack in racks):
            raise SimulationError("every rack needs at least one node")
        self.racks: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(int(n) for n in rack) for rack in racks)
        seen = [n for rack in self.racks for n in rack]
        if sorted(seen) != list(range(len(seen))):
            raise SimulationError(
                f"racks must cover node ids 0..{len(seen) - 1} exactly "
                f"once, got {sorted(seen)}")
        self.base = base if base is not None else DEFAULT_NETWORK
        self.intra = LinkModel(self.base.latency_ms, self.base.ms_per_byte)
        self.cross = LinkModel(
            self.intra.latency_ms * DEFAULT_CROSS_LATENCY_FACTOR,
            self.intra.ms_per_byte * DEFAULT_CROSS_BYTE_FACTOR)
        self.overrides: Dict[Tuple[int, int], LinkModel] = dict(
            overrides or {})
        self.num_nodes = len(seen)
        self._rack_of: List[int] = [0] * self.num_nodes
        self._leader: List[int] = []
        for r, rack in enumerate(self.racks):
            self._leader.append(min(rack))
            for n in rack:
                self._rack_of[n] = r
        for (src, dst) in self.overrides:
            for end in (src, dst):
                if not 0 <= end < self.num_nodes:
                    raise SimulationError(
                        f"link override ({src}, {dst}) names unknown "
                        f"node {end}")
        self.root = 0
        self._root_rack = self._rack_of[self.root]
        # fused uplink timelines: links are fixed at construction, so
        # every node's full uplink path collapses to one precomputed
        # (latency, ms/byte) pair and the payload-free tree-latency term
        # is a constant — each collective reads these instead of re-walking
        # the link tables.  The scalars keep the exact summation the
        # per-node methods used, so the arrays are bit-identical inputs.
        self._uplink_latency: List[float] = [
            sum(leg.latency_ms for leg in self.uplink_legs(n))
            for n in range(self.num_nodes)]
        self._uplink_mspb: List[float] = [
            sum(leg.ms_per_byte for leg in self.uplink_legs(n))
            for n in range(self.num_nodes)]
        self._uplink_latency_arr = np.array(self._uplink_latency,
                                            dtype=np.float64)
        self._uplink_mspb_arr = np.array(self._uplink_mspb,
                                         dtype=np.float64)
        #: do some nodes' uplink paths cost more than others'?  Only
        #: then is there a link to observe or to shift load off.
        self.uplinks_differ = (len(set(self._uplink_latency)) > 1
                               or len(set(self._uplink_mspb)) > 1)
        self._latency_term_ms = self._latency_term()

    @property
    def num_racks(self) -> int:
        return len(self.racks)

    def rack_of(self, node: int) -> int:
        if not 0 <= node < self.num_nodes:
            raise SimulationError(f"unknown node {node}")
        return self._rack_of[node]

    def leader_of(self, node: int) -> int:
        return self._leader[self.rack_of(node)]

    def link(self, src: int, dst: int) -> LinkModel:
        """The directed link ``src -> dst``: an explicit override if one
        is pinned, else the intra/cross default by rack membership.
        ``src == dst`` is the node's local bus (intra-rack rate)."""
        override = self.overrides.get((int(src), int(dst)))
        if override is not None:
            return override
        if self.rack_of(src) == self.rack_of(dst):
            return self.intra
        return self.cross

    # -- uplink paths --------------------------------------------------------

    def uplink_legs(self, node: int) -> List[LinkModel]:
        """The links node ``node``'s fragment crosses toward the root:
        its member->leader hop (the local bus for a leader), then the
        rack's leader->root uplink when the rack is not the root's."""
        leader = self.leader_of(node)
        legs = [self.link(node, leader)]
        if self.rack_of(node) != self._root_rack:
            legs.append(self.link(leader, self._leader[self._root_rack]))
        return legs

    def path_ms_per_byte(self, node: int) -> float:
        """Per-byte cost of the node's full uplink path — the quantity
        Lemma-2 shares fold in via ``balance.network_coefficients``."""
        if not 0 <= node < self.num_nodes:
            raise SimulationError(f"unknown node {node}")
        return self._uplink_mspb[node]

    def fragment_ms(self, node: int, nbytes: int) -> float:
        """Healthy wire time for one ``nbytes`` fragment from ``node``
        to the root — the baseline that link gray-faults inflate and
        the per-link EWMA detector observes."""
        if nbytes < 0:
            raise SimulationError(f"negative fragment size {nbytes}")
        if not 0 <= node < self.num_nodes:
            raise SimulationError(f"unknown node {node}")
        return (self._uplink_latency[node]
                + nbytes * self._uplink_mspb[node])

    def fragment_ms_many(self, per_node_bytes: Sequence[float]) -> np.ndarray:
        """Healthy wire times for one fragment per node, in one shot.

        Vectorized over the precomputed uplink arrays; purely
        elementwise (no reductions), so every entry is bit-identical to
        calling :meth:`fragment_ms` node by node — the fused collective
        timeline and the per-fragment path agree to the last ulp.  The
        sizes come from :meth:`node_bytes` of a payload
        :meth:`sync_ms` already checked.
        """
        arr = np.asarray(per_node_bytes, dtype=np.float64)
        return self._uplink_latency_arr + arr * self._uplink_mspb_arr

    def node_bytes(self, total_bytes: int,
                   bytes_by_node: Optional[Sequence[float]] = None
                   ) -> List[float]:
        """Split ``total_bytes`` across nodes: proportionally to the
        ``bytes_by_node`` weights when given (zero-sum weights fall back
        to uniform), uniform otherwise.  Callers pass what
        :meth:`sync_ms` already checked."""
        n = self.num_nodes
        if bytes_by_node is not None:
            weights = [float(w) for w in bytes_by_node]
            total_w = sum(weights)
            if total_w > 0:
                return [w / total_w * total_bytes for w in weights]
        return [total_bytes / n] * n

    # -- latency/bandwidth aggregates ---------------------------------------

    def _intra_latency_max(self) -> float:
        worst = 0.0
        found = False
        for r, rack in enumerate(self.racks):
            leader = self._leader[r]
            for n in rack:
                if n == leader:
                    continue
                worst = max(worst, self.link(n, leader).latency_ms)
                found = True
        return worst if found else self.intra.latency_ms

    def _cross_latency_max(self) -> float:
        root_leader = self._leader[self._root_rack]
        worst = 0.0
        for r in range(self.num_racks):
            if r == self._root_rack:
                continue
            worst = max(worst,
                        self.link(self._leader[r], root_leader).latency_ms)
        return worst

    def _latency_term(self) -> float:
        """Tree latency: in-rack reductions run in parallel and cost
        ``ceil(log2)`` of the biggest rack; the rack layer adds
        ``ceil(log2)`` of the rack count over the worst uplink."""
        biggest = max(len(rack) for rack in self.racks)
        intra_hops = math.ceil(math.log2(biggest)) if biggest > 1 else 0
        cross_hops = (math.ceil(math.log2(self.num_racks))
                      if self.num_racks > 1 else 0)
        return (self._intra_latency_max() * intra_hops
                + self._cross_latency_max() * cross_hops)

    def _max_intra_mspb(self) -> float:
        worst = self.intra.ms_per_byte
        for r, rack in enumerate(self.racks):
            leader = self._leader[r]
            for n in rack:
                worst = max(worst, self.link(n, leader).ms_per_byte)
        return worst

    def _max_cross_mspb(self) -> float:
        root_leader = self._leader[self._root_rack]
        worst = 0.0
        for r in range(self.num_racks):
            if r == self._root_rack:
                continue
            worst = max(worst,
                        self.link(self._leader[r], root_leader).ms_per_byte)
        return worst

    def _reduction_bandwidth_ms(self, total_bytes: float,
                                weights: Optional[Sequence[float]]) -> float:
        """Stage 1 (slowest rack's in-rack gather, leaders pay their
        local bus) plus stage 2 (every non-root rack's aggregate over
        its shared-spine uplink).

        Rack payloads are carved out of ``total_bytes`` as weight
        ratios, and a rack whose members share one per-byte rate is
        charged on its aggregate — so the one-rack default charges
        ``total_bytes * ms_per_byte`` bit-exactly whatever the weights,
        not a re-sum of float fragments.
        """
        total_w = (float(self.num_nodes) if weights is None
                   else sum(float(w) for w in weights))
        if total_w <= 0:
            weights, total_w = None, float(self.num_nodes)

        def w(node: int) -> float:
            return 1.0 if weights is None else float(weights[node])

        root_leader = self._leader[self._root_rack]
        stage1 = 0.0
        stage2 = 0.0
        for r, rack in enumerate(self.racks):
            leader = self._leader[r]
            rates = {self.link(n, leader).ms_per_byte for n in rack}
            rack_bytes = total_bytes * (sum(w(n) for n in rack) / total_w)
            if len(rates) == 1:
                gather = rack_bytes * next(iter(rates))
            else:
                gather = sum(
                    total_bytes * (w(n) / total_w)
                    * self.link(n, leader).ms_per_byte for n in rack)
            stage1 = max(stage1, gather)
            if r != self._root_rack:
                stage2 += rack_bytes * self.link(leader,
                                                 root_leader).ms_per_byte
        return stage1 + stage2

    # -- collective costs ----------------------------------------------------

    def _check(self, num_nodes: int, nbytes: int) -> None:
        if num_nodes != self.num_nodes:
            raise SimulationError(
                f"topology spans {self.num_nodes} nodes, collective asked "
                f"for {num_nodes}")
        if nbytes < 0:
            raise SimulationError(f"negative payload {nbytes}")

    def sync_ms(self, num_nodes: int, total_bytes: int,
                bytes_by_node: Optional[Sequence[float]] = None) -> float:
        """Global synchronization over the rack tree.  ``bytes_by_node``
        weights attribute the payload to its producing nodes so heavy
        partitions behind a bad uplink cost what they should; without
        weights the payload splits uniformly."""
        self._check(num_nodes, total_bytes)
        if bytes_by_node is not None and len(bytes_by_node) != num_nodes:
            raise SimulationError(
                f"bytes_by_node has {len(bytes_by_node)} entries for "
                f"{num_nodes} nodes")
        if bytes_by_node is not None and min(bytes_by_node) < 0:
            raise SimulationError("bytes_by_node weights must be >= 0")
        return (self._latency_term_ms
                + self._reduction_bandwidth_ms(total_bytes, bytes_by_node)
                + self.base.coord_ms_per_node * num_nodes)

    def broadcast_ms(self, num_nodes: int, nbytes: int) -> float:
        """Broadcast down the same tree: the payload crosses the worst
        uplink once (racks fan out in parallel) and the worst in-rack
        link once."""
        self._check(num_nodes, nbytes)
        per_byte = self._max_intra_mspb()
        if self.num_racks > 1:
            per_byte += self._max_cross_mspb()
        return self._latency_term_ms + nbytes * per_byte

    def p2p_fallback_ms(self, num_nodes: int, total_bytes: int) -> float:
        """Point-to-point fallback: the root exchanges with every node in
        turn over its full uplink path — one path latency per node and
        every fragment paying its per-byte path cost."""
        self._check(num_nodes, total_bytes)
        lats = self._uplink_latency
        rates = self._uplink_mspb
        latency = (lats[0] * num_nodes if len(set(lats)) == 1
                   else sum(lats))
        if len(set(rates)) == 1:
            wire = total_bytes * rates[0]
        else:
            per_node = self.node_bytes(total_bytes)
            wire = sum(per_node[n] * rates[n]
                       for n in range(self.num_nodes))
        return latency + wire + self.base.coord_ms_per_node * num_nodes

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def parse_spec(spec: str) -> List[List[int]]:
        """Parse a topology spec string into rack groups.

        ``"rack:RxN"`` — R racks of N nodes each, ids assigned in order
        (rack r holds nodes ``r*N .. r*N+N-1``); ``"flat:N"`` — one rack
        of N nodes (the uniform interconnect).  Trailing ``;link=...``
        override clauses (see :meth:`parse_link_overrides`) are ignored
        here — this method only resolves the rack shape.
        """
        head, sep, tail = str(spec).split(";")[0].partition(":")
        if not sep or head not in ("rack", "flat"):
            raise SimulationError(
                f"malformed topology spec {spec!r} "
                "(want 'rack:RxN' or 'flat:N')")
        if head == "flat":
            if not tail.isdigit() or int(tail) < 1:
                raise SimulationError(
                    f"malformed topology spec {spec!r} (want 'flat:N', "
                    "N >= 1)")
            return [list(range(int(tail)))]
        racks_s, sep, per_s = tail.partition("x")
        if (not sep or not racks_s.isdigit() or not per_s.isdigit()
                or int(racks_s) < 1 or int(per_s) < 1):
            raise SimulationError(
                f"malformed topology spec {spec!r} (want 'rack:RxN', "
                "R, N >= 1)")
        racks, per = int(racks_s), int(per_s)
        return [list(range(r * per, (r + 1) * per)) for r in range(racks)]

    @staticmethod
    def parse_link_overrides(spec: str) -> Dict[Tuple[int, int], LinkModel]:
        """Parse the per-link override clauses of a topology spec.

        After the rack shape, a spec may pin individual directed links
        with ``;link=SRC-DST:LATENCY_MS:MS_PER_BYTE`` clauses::

            rack:2x2;link=2-0:5.0:0.02;link=3-2:0.1:0.001

        gives the ``2 -> 0`` uplink a 5 ms latency at 0.02 ms/byte and
        the in-rack ``3 -> 2`` hop its own parameters, while every other
        link keeps the intra/cross defaults.  Clauses are plain data, so
        the full spec string stays recordable verbatim in trace JSON.
        """
        overrides: Dict[Tuple[int, int], LinkModel] = {}
        for clause in str(spec).split(";")[1:]:
            if not clause.startswith("link="):
                raise SimulationError(
                    f"malformed topology clause {clause!r} in {spec!r} "
                    "(want 'link=SRC-DST:LATENCY_MS:MS_PER_BYTE')")
            body = clause[len("link="):]
            ends_s, sep, costs_s = body.partition(":")
            src_s, dash, dst_s = ends_s.partition("-")
            lat_s, colon, mspb_s = costs_s.partition(":")
            if (not sep or not dash or not colon
                    or not src_s.isdigit() or not dst_s.isdigit()):
                raise SimulationError(
                    f"malformed link override {clause!r} in {spec!r} "
                    "(want 'link=SRC-DST:LATENCY_MS:MS_PER_BYTE')")
            try:
                link = LinkModel(float(lat_s), float(mspb_s))
            except (ValueError, SimulationError) as err:
                raise SimulationError(
                    f"malformed link override {clause!r} in {spec!r}: "
                    f"{err}") from None
            key = (int(src_s), int(dst_s))
            if key in overrides:
                raise SimulationError(
                    f"duplicate link override for {key} in {spec!r}")
            overrides[key] = link
        return overrides

    @classmethod
    def from_spec(cls, spec: str, *, base: Optional[NetworkModel] = None
                  ) -> "Topology":
        """Build from a spec string; its ``;link=...`` clauses become
        the link overrides."""
        return cls(cls.parse_spec(spec), base=base,
                   overrides=cls.parse_link_overrides(spec))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        sizes = "+".join(str(len(r)) for r in self.racks)
        return f"Topology({self.num_racks} racks: {sizes})"
