"""Every run balances its books, or is refused by name.

A derandomised property over cluster specs (node count, rack shape,
``;link=`` clauses, a bandwidth override), fault plans, middleware
switches, algorithms and engines.  A drawn case may be spoilt at one
site: a hostile cost (NaN, ±inf, negative) in the bandwidth override,
a link clause or a fault event, or a link clause naming a node the
cluster lacks.  A spoilt case must be refused at construction with a
named error, before any run prices anything with it.  Every other case
builds and runs, and the engine's own conservation check
(``engines.base._check_books``: finite stats, ``total_ms`` equal to
its parts in run order, rebalance charges, transport sums, the
breakdown) holds, or the run ends in a named fault error.

A second property feeds the Lemma-2 helpers of ``core.balance``
(``network_coefficients``, ``link_adjusted_coefficients``,
``estimate_coefficients``) the same way: finite shares out, or a
``MiddlewareError``; an ``@example`` per input guard pins each one.
Last, a hand-kept run, spoilt one identity at a time, shows that each
broken identity is refused by name.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import ALGORITHMS
from repro.core import GXPlug, MiddlewareConfig, StragglerConfig
from repro.core.balance import (balancing_factors, estimate_coefficients,
                                link_adjusted_coefficients,
                                network_coefficients)
from repro.core.config import ClusterSpec
from repro.engines import ENGINES, IterationStats, RunResult
from repro.engines.base import _check_books, _Run
from repro.errors import (EngineError, FaultError, FaultPlanError,
                          MiddlewareError, SimulationError)
from repro.fault import FaultPlan
from repro.fault.inject import (CRASH, HANG, LINK_SLOW, NET_DELAY, NET_DROP,
                                NET_DUP, NODE_PARTITION, SLOWDOWN, SYNC_FAIL,
                                FaultEvent)
from repro.graph import rmat

GRAPH = rmat(40, 160, seed=7)
#: the hostile values every cost site must refuse
BAD = (float("nan"), float("inf"), float("-inf"), -1.0)
costs = st.sampled_from((0.0, 1e-5, 2e-3, 0.5))
KINDS = (CRASH, HANG, NET_DROP, NET_DUP, NET_DELAY, SYNC_FAIL,
         NODE_PARTITION, SLOWDOWN, LINK_SLOW)
#: the cost a fault event of each kind carries
EVENT_COST = {HANG: "duration_ms", NET_DELAY: "duration_ms",
              SLOWDOWN: "factor", LINK_SLOW: "factor"}


@st.composite
def runs(draw):
    """A run's inputs, spoilt at one drawn site (``refused``) or not."""
    nodes = draw(st.integers(1, 4))
    racks = draw(st.sampled_from(
        [r for r in range(1, nodes + 1) if nodes % r == 0]))
    links = draw(st.lists(
        st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1),
                  costs, costs),
        max_size=2, unique_by=lambda link: link[:2]))
    ms_per_byte = draw(st.one_of(st.none(), costs))
    events = [dict(kind=kind, superstep=draw(st.integers(0, 3)),
                   node_id=draw(st.integers(0, nodes - 1)))
              for kind in draw(st.lists(st.sampled_from(KINDS), max_size=2))]
    for event in events:
        if event["kind"] in EVENT_COST:
            event[EVENT_COST[event["kind"]]] = draw(
                st.sampled_from((2.0, 6.0)))
    spoil = draw(st.sampled_from(
        (None, None, None, "ms_per_byte", "link", "link-end", "event")))
    if spoil == "ms_per_byte":
        ms_per_byte = draw(st.sampled_from(BAD))
    elif spoil == "link":
        src, dst, latency, rate = draw(st.sampled_from(links or [
            (0, 0, 0.0, 0.0)]))
        links = [link for link in links if link[:2] != (src, dst)] + [
            (src, dst, draw(st.sampled_from(BAD)), rate)
            if draw(st.booleans()) else
            (src, dst, latency, draw(st.sampled_from(BAD)))]
    elif spoil == "link-end":
        links = [link for link in links if link[:2] != (nodes, 0)] + [
            (nodes, 0, 0.1, 1e-5)]
    elif spoil == "event":
        event = dict(kind=draw(st.sampled_from(sorted(EVENT_COST))),
                     superstep=1, node_id=0)
        event[EVENT_COST[event["kind"]]] = draw(st.sampled_from(BAD))
        events.append(event)
    shape = (f"flat:{nodes}" if racks == 1
             else f"rack:{racks}x{nodes // racks}")
    straggler = draw(st.booleans())
    config = dict(
        checkpoint_interval=draw(st.sampled_from((0, 2))),
        degrade_to_host=True,
        rebalance_on_degrade=draw(st.booleans()),
        straggler=StragglerConfig(enabled=straggler,
                                  reestimate=straggler and draw(
                                      st.booleans())))
    algorithm = draw(st.sampled_from(
        ("pagerank", "sssp-bf", "cc", "bfs", "lp", "widest-path")))
    engines = ("powergraph", "graphx") + (
        ("async",) if ALGORITHMS[algorithm]().monotone else ())
    return dict(nodes=nodes, topology=shape + "".join(
                    f";link={s}-{d}:{lat!r}:{rate!r}"
                    for s, d, lat, rate in links),
                ms_per_byte=ms_per_byte, events=events, config=config,
                algorithm=algorithm, engine=draw(st.sampled_from(engines)),
                refused=spoil is not None)


def build(case):
    spec = ClusterSpec(nodes=case["nodes"], topology=case["topology"],
                       ms_per_byte=case["ms_per_byte"])
    plan = FaultPlan(events=tuple(FaultEvent(**e) for e in case["events"]))
    return spec, MiddlewareConfig(fault_plan=plan, **case["config"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(runs())
def test_a_run_balances_its_books_or_is_refused_by_name(case):
    if case["refused"]:
        try:
            build(case)
        except (MiddlewareError, SimulationError, FaultPlanError) as exc:
            assert "must be" in str(exc) or "outside" in str(exc), exc
        else:
            raise AssertionError(f"hostile input built: {case}")
        return
    spec, config = build(case)
    cluster = spec.build()
    plug = GXPlug(cluster, config)
    engine = ENGINES[case["engine"]].build(GRAPH, cluster, middleware=plug)
    try:
        result = engine.run(ALGORITHMS[case["algorithm"]](),
                            max_iterations=6)
    except FaultError:
        return  # a named fault the run could not survive
    # the engine balanced its books before returning them
    assert math.isfinite(result.total_ms) and result.total_ms > 0
    assert result.iterations == (result.stats[-1].index + 1
                                 if result.stats else 0)


#: each ``@example`` reaches one input guard of the Lemma-2 helpers
@settings(max_examples=60, deadline=None, derandomize=True)
@given(compute=st.lists(st.sampled_from((0.5, 2.0, 0.0, float("nan"))),
                        max_size=4),
       network=st.lists(st.sampled_from((0.0, 0.1, -0.1)), max_size=4),
       inflation=st.sampled_from((1.0, 3.0, 0.5)),
       bytes_per_entity=st.sampled_from((0.0, 16.0) + BAD),
       alpha=st.sampled_from((0.5, 1.0, 0.0, 1.5)),
       observed=st.integers(0, 5))
@example(compute=[1.0, 2.0], network=[0.1], inflation=1.0,
         bytes_per_entity=-1.0, alpha=0.5, observed=0)   # bytes_per_entity
@example(compute=[1.0, 2.0], network=[0.1], inflation=1.0,
         bytes_per_entity=8.0, alpha=0.5, observed=0)    # shape mismatch
@example(compute=[0.0, 2.0], network=[0.1, 0.1], inflation=1.0,
         bytes_per_entity=8.0, alpha=0.5, observed=0)    # c_j <= 0, twice
@example(compute=[1.0, 2.0], network=[0.1, -0.1], inflation=1.0,
         bytes_per_entity=8.0, alpha=0.5, observed=0)    # negative wire
@example(compute=[1.0, 2.0], network=[0.1, 0.1], inflation=0.5,
         bytes_per_entity=8.0, alpha=0.5, observed=0)    # inflation < 1
@example(compute=[], network=[], inflation=1.0,
         bytes_per_entity=8.0, alpha=0.5, observed=0)    # no nodes
@example(compute=[1.0, 2.0], network=[0.1, 0.1], inflation=1.0,
         bytes_per_entity=8.0, alpha=1.5, observed=0)    # alpha
@example(compute=[1.0, 2.0], network=[0.1, 0.1], inflation=1.0,
         bytes_per_entity=8.0, alpha=0.5, observed=5)    # unknown node
def test_lemma2_inputs_give_finite_shares_or_are_refused(
        compute, network, inflation, bytes_per_entity, alpha, observed):
    nodes = max(len(compute), 1)
    topology = ClusterSpec(nodes=nodes).build().topology
    calls = {
        "wire": lambda: network_coefficients(topology, bytes_per_entity),
        "adjusted": lambda: link_adjusted_coefficients(
            compute, network, [inflation] * len(network)),
        "estimate": lambda: estimate_coefficients(
            {observed: (10, 5.0)}, compute, alpha=alpha),
    }
    for name, call in calls.items():
        try:
            out = call()
        except MiddlewareError:
            continue
        assert np.isfinite(out).all(), (name, out)
        if name != "wire" and out.size:
            shares = balancing_factors(out)
            assert np.isfinite(shares).all()
            assert abs(shares.sum() - 1.0) < 1e-9


def balanced_run():
    """A hand-kept run whose books balance: set-up, one superstep with a
    resend, and a rebalance charge after it."""
    st = IterationStats(0, compute_ms=2.0, apply_ms=1.0, sync_ms=0.5,
                        retransmits=1, net_wasted_ms=0.25)
    result = RunResult(
        values=np.zeros(1), iterations=1, total_ms=5.25, setup_ms=1.0,
        converged=True, stats=[st], breakdown={
            "setup": 1.0, "middleware": 2.0, "device": 1.0, "engine": 1.25},
        engine_name="e", algorithm_name="a", rebalance_ms=0.75,
        retransmits=1, net_wasted_ms=0.25)
    run = _Run(None, result, np.zeros(1, dtype=bool), width=1,
               use_async=False, use_lazy=False, detector=None,
               wall_start=0.0)
    run.book = [st, ("rebalance", 0.75)]
    return run


@pytest.mark.parametrize("spoil,named", [
    (lambda run: setattr(run.result, "total_ms", 5.25 + 1e-12),
     r"total_ms is 5.25000000000\d+ after a rebalance after superstep 0"),
    (lambda run: run.book.pop(), r"total_ms is 5.25 after superstep 0"),
    (lambda run: setattr(run.result, "rebalance_ms", 0.0),
     r"rebalance_ms is 0.0 .*its parts 0.75"),
    (lambda run: run.result.breakdown.pop("engine"),
     r"breakdown is 4.0 .*its parts 5.25"),
    (lambda run: setattr(run.result, "retransmits", 2),
     r"retransmits is 2 .*its parts 1"),
    (lambda run: setattr(run.result.stats[0], "sync_ms", float("nan")),
     r"superstep 0 sync_ms must be a finite number, got nan"),
    (lambda run: setattr(run.result.stats[0], "apply_ms", -1.0),
     r"superstep 0 apply_ms must be >= 0, got -1.0"),
], ids=["total", "charge-left-out", "rebalance", "breakdown", "transport",
        "nan-stat", "negative-stat"])
def test_an_unbalanced_book_is_refused_by_name(spoil, named):
    """Each identity ``_check_books`` keeps fails with an EngineError
    naming its field and where the book stood; the hand-kept run
    balances before it is spoilt."""
    run = balanced_run()
    _check_books(run)
    spoil(run)
    with pytest.raises(EngineError, match=named):
        _check_books(run)
