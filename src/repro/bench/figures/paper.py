"""The paper's evaluation: Table I and Figs. 8-15.

Each ``run_*`` function builds the paper's experimental setup from scratch
(cluster, partitioning, middleware config), executes it on the simulated
substrate, and returns structured rows; the ``benchmarks/`` suite prints
them and asserts the paper's qualitative shapes (who wins, by what factor,
where crossovers and OOMs fall).

All returned times are simulated milliseconds and fully deterministic.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...algorithms import PageRank, paper_workloads
from ...baselines import GunrockSystem, LuxSystem, distributed_gpu_fits
from ...cluster import (NATIVE_RUNTIME, make_cluster,
                        make_heterogeneous_cluster)
from ...core import (FULL, GXPlug, MiddlewareConfig, balancing_factors,
                     optimal_makespan)
from ...core.pipeline import PAPER_FIG15_COEFFICIENTS
from ...engines import PowerGraphEngine
from ...errors import DeviceMemoryError
from ...graph import (DATASETS, clustering_partition, hash_partition,
                      load_dataset, load_synthetic_clustered,
                      load_synthetic_uniform)
from ..reporting import print_table
from .common import ENGINES, Figure, _run, algorithm_factories


def _sssp():
    """§V-A's SSSP-BF (4 simultaneous sources), a fresh instance."""
    return paper_workloads()["sssp-bf"]


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------

def run_table1() -> List[Tuple]:
    """Dataset inventory: paper sizes and the synthetic twins' sizes."""
    rows = []
    for name, spec in DATASETS.items():
        twin = load_dataset(name)
        rows.append((name, spec.paper_vertices, spec.paper_edges, spec.kind,
                     twin.num_vertices, twin.num_edges,
                     round(twin.average_degree(), 2)))
    return rows


# ---------------------------------------------------------------------------
# Fig. 8 — engine x accelerator speedups
# ---------------------------------------------------------------------------

def run_fig8(datasets: Sequence[str] = ("orkut",),
             num_nodes: int = 4) -> List[Tuple]:
    """Rows: (dataset, engine, algorithm, variant, total_ms, speedup).

    Variants: bare engine, CPU+engine, GPU+engine — the Fig. 8 bars.
    """
    rows = []
    for ds in datasets:
        graph = load_dataset(ds)
        for engine_name, (engine_cls, runtime) in ENGINES.items():
            for alg_name, (factory, cap) in algorithm_factories().items():
                base = _run(engine_cls, graph,
                            make_cluster(num_nodes, runtime=runtime),
                            factory(), cap)
                cpu_cluster = make_cluster(num_nodes,
                                           cpu_accels_per_node=1,
                                           runtime=runtime)
                cpu = _run(engine_cls, graph, cpu_cluster, factory(), cap,
                           config=FULL)
                gpu_cluster = make_cluster(num_nodes, gpus_per_node=1,
                                           runtime=runtime)
                gpu = _run(engine_cls, graph, gpu_cluster, factory(), cap,
                           config=FULL)
                assert np.allclose(base.values, gpu.values, equal_nan=True)
                rows.append((ds, engine_name, alg_name, "none",
                             base.total_ms, 1.0))
                rows.append((ds, engine_name, alg_name, "cpu+",
                             cpu.total_ms, base.total_ms / cpu.total_ms))
                rows.append((ds, engine_name, alg_name, "gpu+",
                             gpu.total_ms, base.total_ms / gpu.total_ms))
    return rows


# ---------------------------------------------------------------------------
# Fig. 9 — scalability vs Gunrock / Lux
# ---------------------------------------------------------------------------

def _gxplug_run_ms(graph, num_gpus: int, algorithm, max_iter) -> float:
    """PowerGraph+GX-Plug with ``num_gpus`` nodes of one GPU each."""
    cluster = make_cluster(num_gpus, gpus_per_node=1,
                           runtime=NATIVE_RUNTIME)
    plug = GXPlug(cluster, FULL)
    engine = PowerGraphEngine.build(graph, cluster, middleware=plug)
    return engine.run(algorithm, max_iterations=max_iter).total_ms


def run_fig9a(dataset: str = "orkut",
              gpu_counts: Sequence[int] = (1, 2, 3, 4)) -> List[Tuple]:
    """Rows: (system, gpus, total_ms | None).  Orkut PageRank."""
    graph = load_dataset(dataset)
    rows = []
    for g in gpu_counts:
        rows.append(("gx-plug", g,
                     _gxplug_run_ms(graph, g, PageRank(), 10)))
        try:
            lux = LuxSystem(graph, num_gpus=g).run(PageRank(),
                                                   max_iterations=10)
            rows.append(("lux", g, lux.total_ms))
        except DeviceMemoryError:
            rows.append(("lux", g, None))
        if g == 1:
            try:
                gr = GunrockSystem(graph).run(PageRank(), max_iterations=10)
                rows.append(("gunrock", g, gr.total_ms))
            except DeviceMemoryError:
                rows.append(("gunrock", g, None))
    return rows


def run_fig9b(datasets: Sequence[str] = ("twitter", "uk-2007-02"),
              gpu_counts: Sequence[int] = (2, 3, 4)) -> List[Tuple]:
    """Rows: (dataset, system, gpus, total_ms | None).

    SSSP-BF on the two large twins — the regime where the paper credits
    GX-Plug's synchronization optimizations ("e.g., synchronization
    skipping, which may become more critical for the scalability on
    large datasets").  Gunrock overflows outright; UK-2007 stops fitting
    every distributed system at 4 GPUs.
    """
    rows = []
    for ds in datasets:
        graph = load_dataset(ds)
        gunrock = GunrockSystem(graph)
        rows.append((ds, "gunrock", 1,
                     None if not gunrock.fits() else
                     gunrock.run(_sssp()).total_ms))
        for g in gpu_counts:
            if distributed_gpu_fits(graph, g):
                rows.append((ds, "gx-plug", g,
                             _gxplug_run_ms(graph, g, _sssp(), None)))
                lux = LuxSystem(graph, num_gpus=g)
                rows.append((ds, "lux", g, lux.run(_sssp()).total_ms))
            else:
                rows.append((ds, "gx-plug", g, None))
                rows.append((ds, "lux", g, None))
    return rows


def run_fig9c(dataset: str = "orkut",
              gpu_counts: Sequence[int] = (1, 2, 3, 4)) -> List[Tuple]:
    """Rows: (algorithm, gpus, total_ms).  GX-Plug across workloads."""
    graph = load_dataset(dataset)
    rows = []
    for alg_name, (factory, cap) in algorithm_factories().items():
        for g in gpu_counts:
            rows.append((alg_name, g,
                         _gxplug_run_ms(graph, g, factory(), cap)))
    return rows


MIXES_9D = (
    ("1cpu", [["cpu"], ["cpu"]]),
    ("1gpu", [["gpu"], ["gpu"]]),
    ("1gpu+1cpu", [["gpu", "cpu"], ["gpu", "cpu"]]),
    ("2gpu", [["gpu", "gpu"], ["gpu", "gpu"]]),
    ("2gpu+1cpu", [["gpu", "gpu", "cpu"], ["gpu", "gpu", "cpu"]]),
)


def run_fig9d(dataset: str = "orkut") -> List[Tuple]:
    """Rows: (mix, capacity_factor, total_ms).  Mixing accelerators."""
    graph = load_dataset(dataset)
    rows = []
    for label, spec in MIXES_9D:
        cluster = make_heterogeneous_cluster(spec, runtime=NATIVE_RUNTIME)
        plug = GXPlug(cluster, FULL)
        engine = PowerGraphEngine.build(graph, cluster, middleware=plug)
        res = engine.run(PageRank(), max_iterations=10)
        capacity = sum(cluster.capacity_factors())
        rows.append((label, capacity, res.total_ms))
    return rows


# ---------------------------------------------------------------------------
# Fig. 10 — pipeline shuffle
# ---------------------------------------------------------------------------

FIXED_BLOCK_SIZE = 1024  # the non-adaptive "Pipeline" setting


def run_fig10(dataset: str = "orkut", num_nodes: int = 2) -> List[Tuple]:
    """Rows: (algorithm, variant, total_ms).

    Variants: pipeline* (Lemma-1 optimal block size), pipeline (fixed
    block size), without (the 5-step sequential flow with its two extra
    agent<->daemon copies).  Caching stays on, as in the full system.
    """
    graph = load_dataset(dataset)
    cached = dict(sync_cache=True, lazy_upload=True, sync_skip=False)
    variants = {
        "pipeline*": MiddlewareConfig(pipeline=True, block_size=None,
                                      **cached),
        "pipeline": MiddlewareConfig(pipeline=True,
                                     block_size=FIXED_BLOCK_SIZE,
                                     **cached),
        "without": MiddlewareConfig(pipeline=False,
                                    block_size=FIXED_BLOCK_SIZE,
                                    **cached),
    }
    rows = []
    for alg_name, (factory, cap) in algorithm_factories().items():
        for label, config in variants.items():
            cluster = make_cluster(num_nodes, gpus_per_node=1,
                                   runtime=NATIVE_RUNTIME)
            res = _run(PowerGraphEngine, graph, cluster, factory(), cap,
                       config=config)
            rows.append((alg_name, label, res.total_ms))
    return rows


# ---------------------------------------------------------------------------
# Fig. 11 — synchronization caching & skipping
# ---------------------------------------------------------------------------

def _fig11_graphs():
    return {
        "synthetic": load_synthetic_uniform(),
        "real": load_dataset("orkut"),
    }


def run_fig11a(num_nodes: int = 4) -> List[Tuple]:
    """Rows: (engine, dataset, cache, total_ms, steady_ms, hit_rate).

    SSSP-BF with caching+lazy-upload toggled.  ``steady_ms`` is the
    per-iteration cost once the cache is warm (mean of the iterations
    after the first), the regime the paper's long cluster runs measure.
    """
    rows = []
    for ds_name, graph in _fig11_graphs().items():
        for engine_name, (engine_cls, runtime) in ENGINES.items():
            for cache_on in (False, True):
                config = MiddlewareConfig(
                    sync_cache=cache_on, lazy_upload=cache_on,
                    sync_skip=False)
                cluster = make_cluster(num_nodes, gpus_per_node=1,
                                       runtime=runtime)
                res = _run(engine_cls, graph, cluster,
                           _sssp(), None,
                           config=config)
                hits = sum(s.cache_hits for s in res.stats)
                misses = sum(s.cache_misses for s in res.stats)
                rate = hits / (hits + misses) if hits + misses else 0.0
                warm = [s.total_ms for s in res.stats[1:] if s.active_edges]
                steady = sum(warm) / len(warm) if warm else 0.0
                rows.append((engine_name, ds_name,
                             "on" if cache_on else "off",
                             res.total_ms, steady, rate))
    return rows


def run_fig11b(num_nodes: int = 4) -> List[Tuple]:
    """Rows: (dataset, iters_no_skip, iters_with_skip, decrease).

    SSSP-BF; the paper "count[s] the number of iterations skipped ...
    and compare[s] the result with the number of iterations when
    synchronization skipping mechanism is disabled".  Real graphs use the
    locality-preserving clustering partitioner (the paper's 'better
    partitioning results that trigger synchronization skipping'); the
    synthetic uniform graph uses a hash partition.
    """
    cases = {
        "synthetic": (load_synthetic_uniform(),
                      lambda g: hash_partition(g, num_nodes)),
        "real-wrn": (load_dataset("wrn"),
                     lambda g: clustering_partition(g, num_nodes, seed=3)),
        "real-clustered": (load_synthetic_clustered(16, 200),
                           lambda g: clustering_partition(g, num_nodes,
                                                          seed=3)),
    }
    rows = []
    for label, (graph, parter) in cases.items():
        iters = {}
        for skip in (False, True):
            cluster = make_cluster(num_nodes, gpus_per_node=1,
                                   runtime=NATIVE_RUNTIME)
            config = FULL if skip else MiddlewareConfig(sync_skip=False)
            plug = GXPlug(cluster, config)
            engine = PowerGraphEngine(parter(graph), cluster,
                                      middleware=plug)
            res = engine.run(_sssp())
            iters[skip] = res.iterations
        decrease = 1.0 - iters[True] / iters[False] if iters[False] else 0.0
        rows.append((label, iters[False], iters[True], decrease))
    return rows


# ---------------------------------------------------------------------------
# Fig. 12 — workload balancing
# ---------------------------------------------------------------------------

def run_fig12a(dataset: str = "orkut") -> List[Tuple]:
    """Case 1 (fixed hardware, tuned partitioning).

    Two nodes — 1 GPU + 1 CPU vs 3 GPU + 1 CPU; rows:
    (strategy, total_ms) for even/balanced plus the model's optimum
    estimate of the dominant compute term.
    """
    graph = load_dataset(dataset)
    spec = [["gpu", "cpu"], ["gpu", "gpu", "gpu", "cpu"]]

    def run_with(shares):
        cluster = make_heterogeneous_cluster(spec, runtime=NATIVE_RUNTIME)
        plug = GXPlug(cluster, FULL)
        engine = PowerGraphEngine.build(graph, cluster, middleware=plug,
                                        shares=shares)
        return engine.run(PageRank(), max_iterations=10)

    even = run_with([0.5, 0.5])
    probe_cluster = make_heterogeneous_cluster(spec, runtime=NATIVE_RUNTIME)
    # compute-bound regime (warm caches): c_j ~ 1 / aggregate capacity
    coeffs = [1.0 / node.capacity_factor() for node in probe_cluster.nodes]
    balanced = run_with(balancing_factors(coeffs).tolist())
    # theoretical optimum: Lemma-2 compute makespan per iteration plus the
    # measured non-compute portion of the balanced run
    d_total = graph.num_edges
    per_iter_opt = optimal_makespan(d_total, coeffs)
    non_compute = sum(s.sync_ms + s.apply_ms for s in balanced.stats)
    theoretical = (balanced.setup_ms + non_compute
                   + per_iter_opt * balanced.iterations)
    return [("not-balanced", even.total_ms),
            ("balanced", balanced.total_ms),
            ("theoretical", theoretical)]


def run_fig12b(dataset: str = "orkut",
               load_splits: Sequence[Tuple[float, float]] = (
                   (0.5, 0.5), (0.6, 0.4), (0.7, 0.3), (0.8, 0.2))
               ) -> List[Tuple]:
    """Case 2 (fixed partitioning, tuned hardware).

    Rows: (split, variant, gpus_per_node, total_ms).  "not balanced" keeps
    1 GPU per node; "balanced" allocates GPUs per Lemma 3.
    """
    from ...core import accelerators_for_load
    from ...accel import V100

    graph = load_dataset(dataset)
    rows = []
    for split in load_splits:
        # fixed hardware: 1 GPU each
        cluster = make_cluster(2, gpus_per_node=1, runtime=NATIVE_RUNTIME)
        plug = GXPlug(cluster, FULL)
        engine = PowerGraphEngine.build(graph, cluster, middleware=plug,
                                        shares=list(split))
        not_bal = engine.run(PageRank(), max_iterations=10)
        rows.append((split, "not-balanced", (1, 1), not_bal.total_ms))

        # Lemma 3: give the heavy node proportionally more GPUs
        loads = [split[0] * graph.num_edges, split[1] * graph.num_edges]
        unit = V100.capacity_factor()
        counts = accelerators_for_load(loads, max_factor=4 * unit,
                                       unit_factor=unit)
        spec = [["gpu"] * max(1, c) for c in counts]
        bal_cluster = make_heterogeneous_cluster(spec,
                                                 runtime=NATIVE_RUNTIME)
        bal_plug = GXPlug(bal_cluster, FULL)
        bal_engine = PowerGraphEngine.build(graph, bal_cluster,
                                            middleware=bal_plug,
                                            shares=list(split))
        bal = bal_engine.run(PageRank(), max_iterations=10)
        rows.append((split, "balanced", tuple(max(1, c) for c in counts),
                     bal.total_ms))
    return rows


# ---------------------------------------------------------------------------
# Fig. 13 — runtime isolation
# ---------------------------------------------------------------------------

def run_fig13(iterations: int = 11, dataset: str = "orkut") -> List[Tuple]:
    """Rows: (variant, total_ms, device_inits).

    Daemon-agent (init once) vs direct GPU call (re-init per request).
    """
    graph = load_dataset(dataset)
    rows = []
    for label, isolated in (("daemon-agent", True), ("direct-call", False)):
        cluster = make_cluster(1, gpus_per_node=1, runtime=NATIVE_RUNTIME)
        config = MiddlewareConfig(runtime_isolation=isolated,
                                  sync_cache=False, lazy_upload=False,
                                  sync_skip=False)
        plug = GXPlug(cluster, config)
        engine = PowerGraphEngine.build(graph, cluster, middleware=plug)
        res = engine.run(PageRank(), max_iterations=iterations)
        inits = sum(d.accelerator.init_count
                    for a in plug.agents.values() for d in a.daemons)
        rows.append((label, res.total_ms, inits))
    return rows


# ---------------------------------------------------------------------------
# Fig. 14 — middleware cost ratio
# ---------------------------------------------------------------------------

def run_fig14(node_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
              dataset: str = "orkut",
              engines: Sequence[str] = ("powergraph", "graphx")
              ) -> List[Tuple]:
    """Rows: (engine, algorithm, nodes, middleware_ratio)."""
    graph = load_dataset(dataset)
    rows = []
    for engine_name in engines:
        engine_cls, runtime = ENGINES[engine_name]
        for alg_name, (factory, cap) in algorithm_factories().items():
            for n in node_counts:
                cluster = make_cluster(n, gpus_per_node=1, runtime=runtime)
                plug = GXPlug(cluster, FULL)
                engine = engine_cls.build(graph, cluster, middleware=plug)
                res = engine.run(factory(), max_iterations=cap)
                rows.append((engine_name, alg_name, n,
                             res.middleware_ratio))
    return rows


# ---------------------------------------------------------------------------
# Fig. 15 — block size selection
# ---------------------------------------------------------------------------

def run_fig15(dataset: str = "orkut",
              s_values: Sequence[int] = (1, 2, 5, 10, 20, 50, 100, 200,
                                         500, 1000)) -> Dict[str, Dict]:
    """Measured-vs-estimated pipeline time over the block count s.

    For each workload: sweep s on a single agent-daemon pair with the
    iteration the paper uses (first iteration for PR/LP, the peak-work
    iteration for SSSP), measure the mechanism's makespan, and compare
    with the Eq. 1 estimate and the estimated s_opt.
    """
    from ...core.agent import Agent
    from ...ipc.shm import ShmRegistry
    from ...cluster import DistributedNode
    from ...accel import make_gpu

    graph = load_dataset(dataset)
    out: Dict[str, Dict] = {}
    for alg_name, (factory, cap) in algorithm_factories().items():
        algorithm = factory()
        state = algorithm.init_state(graph)
        values, active = state.values, state.active
        if alg_name == "sssp-bf":
            # use the heaviest iteration's frontier (the paper uses the
            # 6th iteration, "since the computation workload is the
            # maximum during the entire execution")
            best_active = active
            best_work = int(active[graph.src].sum())
            for _ in range(8):
                sel = active[graph.src]
                if not sel.any():
                    break
                msgs = algorithm.msg_gen(graph.src[sel], graph.dst[sel],
                                         graph.weights[sel], values)
                merged = algorithm.msg_merge(graph.dst[sel], msgs)
                values, changed = algorithm.msg_apply(values, merged)
                active = algorithm.next_active(graph, changed,
                                               graph.num_vertices)
                work = int(active[graph.src].sum())
                if work > best_work:
                    best_active, best_work = active.copy(), work
            active = best_active
        sel = active[graph.src]
        src, dst, w = graph.src[sel], graph.dst[sel], graph.weights[sel]
        d = int(src.size)

        # warm-cache steady state: the pipeline's stage slopes are then
        # exactly the effective Eq. 2 coefficients, so the measured curve
        # is directly comparable to the Eq. 1 estimate
        measured = []
        coeffs = None
        for s in s_values:
            if s > d:
                continue
            block = max(1, math.ceil(d / s))
            node = DistributedNode(0, NATIVE_RUNTIME, [make_gpu()])
            agent = Agent(node, ShmRegistry(), MiddlewareConfig(
                block_size=block, sync_cache=True, lazy_upload=True,
                sync_skip=False))
            agent.connect()
            agent.edge_pass(src, dst, w, values, algorithm)  # warm cache
            res = agent.edge_pass(src, dst, w, values, algorithm)
            measured.append((s, res.elapsed_ms))
            if coeffs is None:
                coeffs = agent.coefficients_for(agent.daemons[0])

        estimated = [(s, coeffs.total_time(d, s)) for s, _ in measured]
        s_opt = coeffs.choose_num_blocks(d)
        out[alg_name] = {
            "d": d,
            "measured": measured,
            "estimated": estimated,
            "s_opt": s_opt,
            "t_opt_estimate": coeffs.total_time(d, s_opt),
        }
    return out


def paper_fig15_analysis(d: int = 635_000_000) -> List[Tuple]:
    """s_opt for the paper's own coefficient sets (footnote 6)."""
    rows = []
    for name, coeffs in PAPER_FIG15_COEFFICIENTS.items():
        b_opt, t_min = coeffs.lemma1_optimal(d)
        rows.append((name, coeffs.k1, coeffs.k2, coeffs.k3, coeffs.a,
                     round(b_opt), round(d / b_opt, 1)))
    return rows



def _print_fig15(figure: Figure, out: Dict[str, Dict]) -> None:
    """Fig. 15's result is one measured-vs-estimated table per workload."""
    for alg, data in out.items():
        rows = [(s, round(m, 1), round(dict(data["estimated"])[s], 1))
                for s, m in data["measured"]]
        print_table(figure.headers, rows,
                    title=f"{figure.title} — {alg} (estimated s_opt="
                          f"{data['s_opt']})")


FIGURES = (
    Figure("table1", run_table1,
           ("dataset", "paper |V|", "paper |E|", "type",
            "twin |V|", "twin |E|", "twin deg"),
           "Table I datasets (paper vs twins)", {}),
    Figure("fig8", run_fig8,
           ("dataset", "engine", "algorithm", "variant", "sim ms",
            "speedup"),
           "fig8", dict(num_nodes=2)),
    Figure("fig9a", run_fig9a, ("system", "gpus", "sim ms"),
           "fig9a", dict(gpu_counts=(1, 2))),
    Figure("fig9b", run_fig9b, ("dataset", "system", "gpus", "sim ms"),
           "fig9b", dict(datasets=("twitter",), gpu_counts=(2, 3))),
    Figure("fig9c", run_fig9c, ("algorithm", "gpus", "sim ms"),
           "fig9c", dict(gpu_counts=(1, 2))),
    Figure("fig9d", run_fig9d, ("mix", "capacity", "sim ms"),
           "fig9d", {}),
    Figure("fig10", run_fig10, ("algorithm", "variant", "sim ms"),
           "fig10", dict(num_nodes=2)),
    Figure("fig11a", run_fig11a,
           ("engine", "dataset", "cache", "total ms", "steady ms",
            "hit rate"),
           "fig11a", dict(num_nodes=2)),
    Figure("fig11b", run_fig11b,
           ("dataset", "iters no-skip", "iters skip", "decrease"),
           "fig11b", dict(num_nodes=2)),
    Figure("fig12a", run_fig12a, ("strategy", "sim ms"), "fig12a", {}),
    Figure("fig12b", run_fig12b, ("split", "variant", "gpus", "sim ms"),
           "fig12b", dict(load_splits=((0.5, 0.5), (0.7, 0.3)))),
    Figure("fig13", run_fig13, ("variant", "sim ms", "inits"),
           "fig13", dict(iterations=3)),
    Figure("fig14", run_fig14, ("engine", "algorithm", "nodes", "ratio"),
           "fig14", dict(node_counts=(1, 2), engines=("powergraph",))),
    Figure("fig15", run_fig15, ("s", "measured ms", "estimated ms"),
           "Fig. 15", dict(s_values=(1, 5, 20)), render=_print_fig15),
)

__all__ = [fig.run.__name__ for fig in FIGURES] + ["paper_fig15_analysis"]
