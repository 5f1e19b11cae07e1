"""Row moves are data movement: every algorithm's ``msg_gen`` and
``msg_apply`` must give the plain-indexing forms' bytes exactly.

The hot paths gather and scatter rows with ``np.take`` / ``np.compress``
(several times a 2-D fancy or boolean row index on numpy 2.4) and fold
SSSP's per-row "any column improved" over columns.  Below, each
algorithm's methods as written with ``values[ids]``-style indexing;
random graphs, widths 1..4 and empty batches must agree byte for byte
(``tobytes()``, with dtype and shape).  The engine's ``_take`` is held
to its boolean-index form the same way.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ALGORITHMS
from repro.core.template import MessageSet
from repro.engines.base import _take
from repro.graph import Graph


def old_msg_gen(alg, src, w, values):
    return {
        "sssp-bf": lambda: values[src] + w[:, None],
        "kcore": lambda: values[src][:, 1][:, None],
        "pagerank": lambda: (values[src] * alg._inv_outdeg[src])[:, None],
        "bfs": lambda: (values[src] + 1.0)[:, None],
        "cc": lambda: values[src][:, None],
        "widest-path": lambda: np.minimum(values[src], w)[:, None],
        "lp": lambda: np.column_stack([values[src],
                                       np.ones_like(values[src])]),
    }[alg.name]()


def old_sssp_apply(values, merged):
    new_values = values.copy()
    if merged.size == 0:
        return new_values, np.empty(0, dtype=np.int64)
    old_rows = new_values[merged.ids]
    improved = merged.data < old_rows
    new_values[merged.ids] = np.where(improved, merged.data, old_rows)
    return new_values, merged.ids[improved.any(axis=1)]


def old_kcore_apply(alg, values, merged):
    new_values = values.copy()
    if merged.size == 0:
        return new_values, np.empty(0, dtype=np.int64)
    ids, dec = merged.ids, merged.data[:, 0]
    affected_sel = (values[ids, 1] == 0.0) & (dec > 0)
    affected = ids[affected_sel]
    new_values[affected, 0] -= dec[affected_sel]
    newly_removed = affected[new_values[affected, 0] < alg.k]
    new_values[newly_removed, 1] = 1.0
    return new_values, affected


def old_relax_apply(values, merged, better_than):
    """BFS, CC and widest path: adopt strictly better scalar values."""
    new_values = values.copy()
    if merged.size == 0:
        return new_values, np.empty(0, dtype=np.int64)
    better = better_than(merged.data[:, 0], new_values[merged.ids])
    changed = merged.ids[better]
    new_values[changed] = merged.data[better, 0]
    return new_values, changed


def old_pagerank_apply(alg, values, merged):
    incoming = np.zeros_like(values)
    if merged.size:
        incoming[merged.ids] = merged.data[:, 0]
    new_values = (1.0 - alg.damping) + alg.damping * incoming
    delta = np.abs(new_values - values)
    return new_values, np.nonzero(delta > alg.tolerance)[0].astype(np.int64)


def old_lp_apply(values, merged):
    new_values = values.copy()
    if merged.size == 0:
        return new_values, np.empty(0, dtype=np.int64)
    ids, labels, counts = merged.ids, merged.data[:, 0], merged.data[:, 1]
    order = np.lexsort((labels, -counts, ids))
    sorted_ids = ids[order]
    first = np.ones(sorted_ids.size, dtype=bool)
    first[1:] = sorted_ids[1:] != sorted_ids[:-1]
    winner_ids = sorted_ids[first]
    winner_labels = labels[order][first]
    changed_mask = new_values[winner_ids] != winner_labels
    new_values[winner_ids] = winner_labels
    return new_values, winner_ids[changed_mask]


def old_msg_apply(alg, values, merged):
    return {
        "sssp-bf": lambda: old_sssp_apply(values, merged),
        "kcore": lambda: old_kcore_apply(alg, values, merged),
        "bfs": lambda: old_relax_apply(values, merged, np.less),
        "cc": lambda: old_relax_apply(values, merged, np.less),
        "widest-path": lambda: old_relax_apply(values, merged, np.greater),
        "pagerank": lambda: old_pagerank_apply(alg, values, merged),
        "lp": lambda: old_lp_apply(values, merged),
    }[alg.name]()


def build(name, width):
    params = {"sssp-bf": {"sources": tuple(range(width))},
              "kcore": {"k": 2}}.get(name, {})
    return ALGORITHMS[name](**params)


POOL = np.array([0.0, -0.0, 1.0, 2.0, 3.5, 5.0, np.inf, np.nan])


def as_bytes(*arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(ALGORITHMS)), width=st.integers(1, 4),
       n=st.integers(4, 30), m=st.integers(0, 60),
       seed=st.integers(0, 2**32 - 1))
def test_row_moves_equal_the_indexing_forms(name, width, n, m, seed):
    rng = np.random.default_rng(seed)
    src = np.sort(rng.integers(0, n, m))
    dst = rng.integers(0, n, m)
    w = rng.uniform(1.0, 10.0, m)
    alg = build(name, width)
    values = alg.init_state(Graph.from_edges(n, src, dst, w)).values
    # a mid-run state: some entries drawn afresh (signed zeros and NaN
    # included), some left at their initial inf/0/ids
    fresh = rng.choice(POOL, values.shape)
    values = np.where(rng.random(values.shape) < 0.5, values, fresh)
    with np.errstate(invalid="ignore"):  # inf - inf is part of the test
        msgs = alg.msg_gen(src, dst, w, values)
        assert as_bytes(msgs) == as_bytes(old_msg_gen(alg, src, w, values))
        for merged in (alg.msg_merge(dst, msgs), alg.empty_messages()):
            assert (as_bytes(*alg.msg_apply(values, merged))
                    == as_bytes(*old_msg_apply(alg, values, merged)))


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 4), size=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
def test_take_equals_the_boolean_row_index(width, size, seed):
    rng = np.random.default_rng(seed)
    messages = MessageSet(np.sort(rng.integers(0, 100, size)),
                          rng.random((size, width)))
    mask = rng.random(size) < rng.random()
    taken = _take(messages, mask)
    assert as_bytes(taken.ids, taken.data) == as_bytes(
        messages.ids[mask], messages.data[mask])
