"""Differential test: pass-level block accounting against the per-block
loop it replaced (``reference_blocks.py``).

``Agent._build_blocks`` reads every block's distinct sources off one
sweep over the pass, then settles the cache in three calls when the
pass's new vertices fit its vacancy and walks the blocks in order when
they do not.  Driven through ``edge_pass`` over random triplets —
ascending and shuffled sources, fixed and adaptive block sizes, no
cache, an unbounded one, a tiny evicting one and one full of dirty
entries, cold and warm, one to three daemons with unequal shares — it
must give the loop's blocks, pass results and cache state.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accel import make_cpu_accelerator, make_gpu
from repro.algorithms import ConnectedComponents, LabelPropagation
from repro.cluster import NATIVE_RUNTIME, DistributedNode
from repro.core.agent import Agent
from repro.core.config import MiddlewareConfig
from repro.ipc import ShmRegistry

from .reference_blocks import reference_build_blocks
from .test_property_cache import table


def recording(build):
    """``build``, recording each slice's blocks on the agent."""
    def wrapped(self, *args):
        blocks = build(self, *args)
        self.seen.append([(b.index, b.num_entities, b.merged_size,
                           b.fetched_entities) for b in blocks])
        return blocks
    return wrapped


class PassAgent(Agent):
    _build_blocks = recording(Agent._build_blocks)


class LoopAgent(Agent):
    _build_blocks = recording(reference_build_blocks)


#: a V100 and a slower Xeon: mixing them gives unequal daemon shares
DEVICES = (make_gpu, make_cpu_accelerator)


def make(cls, case):
    n, cache, capacity, prefill, devices, block_size, _, _ = case
    if cache == "none":
        config = MiddlewareConfig(sync_cache=False, lazy_upload=False,
                                  sync_skip=False, block_size=block_size)
    else:
        config = MiddlewareConfig(cache_capacity=capacity,
                                  block_size=block_size)
    node = DistributedNode(0, NATIVE_RUNTIME, [
        DEVICES[kind](i) for i, kind in enumerate(devices)])
    agent = cls(node, ShmRegistry(), config)
    agent.seen = []
    agent.connect()
    if prefill != "cold":
        # a warm start: the first ``capacity`` (or n) ids resident, a
        # generation old; "dirty" fills a tiny cache with pinned entries
        held = np.arange(min(capacity or n, n), dtype=np.int64)
        agent.cache.insert_many(held, dirty=prefill == "dirty")
        agent.cache.tick()
    return agent


def observe(agent, result):
    cache = agent.cache
    state = None if cache is None else (
        table(cache), len(cache), cache.hits, cache.evictions,
        cache.writebacks)
    return (agent.seen, result.cache_hits, result.cache_misses,
            result.blocks, result.entities, result.elapsed_ms,
            result.breakdown, result.cache_evictions,
            result.cache_writebacks, result.partial.ids.tobytes(),
            result.partial.data.tobytes(), state)


def ids(raw, n):
    """Vertex ids below ``n``, one per byte of ``raw``."""
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64) % n


@st.composite
def passes(draw, n):
    """One to 120 edges and up to six dirty and six dropped ids, each
    pass drawn as two byte strings (drawing every id apart made data
    generation most of this test's time)."""
    head = draw(st.binary(min_size=3, max_size=3))
    ends = ids(draw(st.binary(min_size=2, max_size=240)), n)
    src, dst = ends[0:-1:2], ends[1::2]
    if head[0] & 1:  # the order every in-tree caller passes
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
    marks = ids(draw(st.binary(max_size=12)), n)
    return (src, dst, marks[:head[1] % 7], marks[head[1] % 7:][:head[2] % 7])


@st.composite
def cases(draw):
    """A shape read off eight bytes, then one to three passes."""
    head = draw(st.binary(min_size=8, max_size=8))
    n = 2 + head[0] % 39
    cache = ("none", "unbounded", "tiny")[head[1] % 3]
    capacity = 1 + head[2] % n if cache == "tiny" else None
    prefill = ("cold" if cache == "none" else
               ("cold", "clean", "dirty")[head[3] % 3])
    devices = tuple(head[5] >> bit & 1 for bit in range(1 + head[4] % 3))
    block_size = 1 + head[7] % 130 if head[6] & 1 else None
    return (n, cache, capacity, prefill, devices, block_size,
            head[6] & 2 == 2, draw(st.lists(passes(n), min_size=1,
                                            max_size=3)))


def shape(n, cache, capacity, prefill, src, block_size, lp=False,
          devices=(0,)):
    dst = np.roll(src, 1)
    none = np.empty(0, dtype=np.int64)
    return (n, cache, capacity, prefill, devices, block_size, lp,
            [(np.asarray(src, dtype=np.int64), dst, none, none)])


# a cold tiny cache whose vacancy the pass's new vertices fill exactly,
# and one vertex more; sources straddle every block edge
FITS_EXACTLY = shape(8, "tiny", 4, "cold", [0, 0, 1, 1, 2, 2, 3, 3], 3)
ONE_TOO_MANY = shape(8, "tiny", 4, "cold", [0, 0, 1, 2, 2, 3, 3, 4], 3)
# shuffled sources, a vertex recurring across non-adjacent blocks
SHUFFLED = shape(6, "unbounded", None, "cold", [3, 1, 3, 0, 1, 3, 5], 2)
# a cache full of pinned dirty entries, three daemons
ALL_DIRTY = shape(10, "tiny", 3, "dirty", [0, 1, 4, 4, 5, 6, 6, 9], 2,
                  devices=(0, 1, 0))


@settings(max_examples=200, deadline=None)
@given(case=cases())
@example(case=FITS_EXACTLY)
@example(case=ONE_TOO_MANY)
@example(case=SHUFFLED)
@example(case=ALL_DIRTY)
def test_pass_accounting_equals_the_block_loop(case):
    n, *_, lp, steps = case
    algorithm = LabelPropagation() if lp else ConnectedComponents()
    values = np.arange(n, dtype=np.float64)
    fast, loop = make(PassAgent, case), make(LoopAgent, case)
    for src, dst, dirty, dropped in steps:
        weights = np.ones(src.size)
        outcomes = []
        for agent in (fast, loop):
            result = agent.edge_pass(src, dst, weights, values, algorithm)
            outcomes.append(observe(agent, result))
            agent.seen = []
            agent.note_master_updates(dirty)
            agent.invalidate_cache(dropped)
        assert outcomes[0] == outcomes[1]


class CallCounting:
    """A cache wrapper counting the calls a pass makes."""

    def __init__(self, cache):
        self.cache, self.calls = cache, []

    def __getattr__(self, name):
        attr = getattr(self.cache, name)
        if name in ("contains_many", "insert_many", "touch"):
            self.calls.append(name)
        return attr

    def __len__(self):
        return len(self.cache)


def test_a_pass_that_fits_settles_the_cache_in_three_calls():
    agent = make(PassAgent, shape(64, "unbounded", None, "cold", [], 4))
    agent.cache = counting = CallCounting(agent.cache)
    src = np.repeat(np.arange(32), 3)
    agent.edge_pass(src, src[::-1].copy(), np.ones(src.size),
                    np.arange(64.0), ConnectedComponents())
    assert len(agent.seen[0]) == 24
    assert counting.calls == ["contains_many", "insert_many", "touch"]


def test_a_pass_that_can_evict_walks_its_blocks():
    agent = make(PassAgent, shape(64, "tiny", 8, "cold", [], 4))
    agent.cache = counting = CallCounting(agent.cache)
    src = np.repeat(np.arange(32), 3)
    agent.edge_pass(src, src[::-1].copy(), np.ones(src.size),
                    np.arange(64.0), ConnectedComponents())
    # the plan's one probe, then three calls per block
    assert counting.calls.count("contains_many") == 1 + 24
    assert agent.cache.evictions > 0
