"""The per-block loop ``Agent._build_blocks`` ran until its cache
bookkeeping moved to once per pass: two ``distinct_ids`` sorts and four
cache calls per block.  Kept verbatim as the oracle the pass-level
accounting must match block for block.
"""

from typing import List

import numpy as np

from repro.core.blocks import TripletBlock, build_blocks
from repro.graph import distinct_ids


def reference_build_blocks(self, daemon, algorithm, src_ids: np.ndarray,
                           dst_ids: np.ndarray, msgs: np.ndarray,
                           hits_misses: List[int], ascending: bool = True
                           ) -> List[TripletBlock]:
    """Slice triplets into blocks, tagging cache-miss fetch volumes.
    (``ascending`` is ignored: the loop sorts every block itself.)"""
    block_size = self._block_size_for(daemon, int(src_ids.size))
    blocks = list(build_blocks(dst_ids, msgs, block_size, algorithm))
    for block in blocks:
        lo = block.index * block_size
        src = src_ids[lo:lo + block_size]
        if self.cache is None:
            # no cache: each block still builds its paired vertex
            # block, fetching each distinct source vertex once per
            # block (§II-B)
            block.fetched_entities = int(distinct_ids(src).size)
            hits_misses[1] += block.fetched_entities
            continue
        in_cache = self.cache.contains_many(src)
        self.cache.touch(distinct_ids(src[in_cache]))
        miss_ids = distinct_ids(src[~in_cache])
        block.fetched_entities = int(miss_ids.size)
        hits_misses[0] += int(in_cache.sum())
        hits_misses[1] += int(miss_ids.size)
        self.cache.insert_many(miss_ids)
    return blocks
