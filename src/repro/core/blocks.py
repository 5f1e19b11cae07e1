"""Triplet blocks and the pipeline-shuffle buffer areas (§II-B, §III-A).

The middleware's unit of work is the **edge triplet** — "an edge and its
source and destination vertices" — grouped into fixed-size blocks.  The
pipeline shuffle (Eq. 1-2) is a statement about what blocks *cost*, so a
block here carries the counts the cost model reads and no triplet data:
the pass's values come from one ``msg_gen`` + ``msg_merge`` over the
agent's triplets, never from the blocks.  The pipeline keeps three equal
memory areas (*n*, *c*, *u* — new, computing, uploading) and rotates
*pointers* between them instead of copying data; :class:`AreaSet`
implements that rotation and the tests verify no copy ever happens
(object identity is preserved across rotations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from ..errors import MiddlewareError
from .template import AlgorithmTemplate


@dataclass
class TripletBlock:
    """What one fixed-size batch of edge triplets costs a daemon.

    ``num_entities`` triplets go down and through the kernel;
    ``fetched_entities`` of their source vertices missed the agent's
    cache and are downloaded first; ``merged_size`` entries — what the
    block-local MSGMerge would produce — come back up.
    """

    index: int                   # position within the iteration's blocks
    num_entities: int
    merged_size: int
    fetched_entities: int = 0    # unique src vertices fetched (cache misses)

    def __post_init__(self) -> None:
        # merged_size comes from the algorithm author's template
        if not 0 <= self.merged_size <= self.num_entities:
            raise MiddlewareError(
                f"block {self.index}: merged_size {self.merged_size} for "
                f"{self.num_entities} triplets (a merge yields at most one "
                f"entry per message)"
            )


class BlockArea:
    """One of the three pipeline memory chunks (n-, c-, or u-block slot).

    Lives in the daemon's shared-memory segment; holds at most one
    :class:`TripletBlock` going *in* (``block``) and one computed block
    coming *out* (``result``).
    """

    __slots__ = ("label", "block", "result")

    def __init__(self, label: str) -> None:
        self.label = label
        self.block: Optional[TripletBlock] = None
        self.result: Optional[TripletBlock] = None

    @property
    def empty(self) -> bool:
        return self.block is None and self.result is None

    def clear(self) -> None:
        self.block = None
        self.result = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "empty" if self.empty else (
            f"block#{self.block.index}" if self.block is not None
            else "result")
        return f"BlockArea({self.label!r}, {state})"


class AreaSet:
    """The rotating n/c/u pointer triple of the pipeline shuffle.

    ``rotate()`` performs the paper's pointer rotation n → c → u → n:
    the freshly downloaded block becomes the computing block, the computed
    block becomes the uploading block, and the drained uploading area is
    recycled for the next download.  No data moves.
    """

    def __init__(self) -> None:
        self._areas = [BlockArea("area0"), BlockArea("area1"),
                       BlockArea("area2")]
        # role indices into _areas
        self._n, self._c, self._u = 0, 1, 2
        self.rotations = 0

    @property
    def n(self) -> BlockArea:
        """Area receiving new data from the upper system."""
        return self._areas[self._n]

    @property
    def c(self) -> BlockArea:
        """Area the daemon is computing on."""
        return self._areas[self._c]

    @property
    def u(self) -> BlockArea:
        """Area being uploaded back to the upper system."""
        return self._areas[self._u]

    def rotate(self) -> None:
        """Pointer rotation n → c → u → n (in-situ, no copies)."""
        self._n, self._c, self._u = self._u, self._n, self._c
        self.rotations += 1

    def areas(self) -> List[BlockArea]:
        return list(self._areas)


def build_blocks(dst_ids: np.ndarray, messages: np.ndarray,
                 block_size: int, algorithm: AlgorithmTemplate
                 ) -> Iterator[TripletBlock]:
    """Split an iteration's triplets into fixed-size blocks.

    Block ``i`` covers triplets ``[i * block_size, (i + 1) * block_size)``
    and is sized by ``algorithm.merged_size`` over that slice (numpy
    views, nothing copied).
    """
    if block_size < 1:
        raise MiddlewareError(f"block_size must be >= 1, got {block_size}")
    for index, lo in enumerate(range(0, dst_ids.size, block_size)):
        dst = dst_ids[lo:lo + block_size]
        yield TripletBlock(
            index=index,
            num_entities=int(dst.size),
            merged_size=algorithm.merged_size(
                dst, messages[lo:lo + block_size]),
        )
