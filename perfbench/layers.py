"""Which public functions of which layer the traced run wraps.

A layer is a module of the program; its spans carry the module's name.
:func:`install` patches the wrappers in from outside and returns the
function that takes them out again.  Only public names are wrapped:
spans inside the program are a later change.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Iterable, List, Tuple

from .trace import OP, StepperProxy, Tracer

_Patch = Tuple[Any, str, Any]   # (owner, attribute, original)


class _Installer:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.patches: List[_Patch] = []

    def replace(self, owner: Any, attr: str, new: Any, old: Any) -> None:
        self.patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def method(self, cls: type, attr: str, name: str, **hooks) -> None:
        """Wrap ``cls.attr`` where ``cls`` itself defines it."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            new = classmethod(self.tracer.wrap(name, raw.__func__, **hooks))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.tracer.wrap(name, raw.__func__, **hooks))
        else:
            new = self.tracer.wrap(name, raw, **hooks)
        self.replace(cls, attr, new, raw)

    def methods(self, cls: type, attrs: str, name: str, **hooks) -> None:
        for attr in attrs.split():
            self.method(cls, attr, name, **hooks)

    def function(self, module: str, attr: str, name: str, **hooks) -> None:
        """Wrap a module-level function, including every ``from x
        import f`` alias already bound in a loaded ``repro`` module."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = self.tracer.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, wrapped, original)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self.patches):
            setattr(owner, attr, old)
        self.patches.clear()


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer, *, server: bool = False) -> Callable[[], None]:
    """Wrap every layer's public functions; returns ``uninstall``.

    ``server=True`` (the launcher subprocess) adds the wire layer's
    server side; the benchmark process leaves it out so client-side
    frame encoding is not booked to the server.
    """
    import repro.algorithms  # noqa: F401 - registers the templates
    from repro.cluster.network import NetworkModel, ResilientTransport
    from repro.cluster.topology import Topology
    from repro.core.agent import Agent
    from repro.core.config import ClusterSpec
    from repro.core.daemon import Daemon
    from repro.core.middleware import GXPlug
    from repro.core.sync_cache import LRUVertexCache
    from repro.core.template import AlgorithmTemplate
    from repro.engines.base import IterativeEngine, StepEvent
    from repro.fault.checkpoint import CheckpointStore
    from repro.graph.mutations import MutationBatch
    from repro.ipc.scheduler import Scheduler
    from repro.serve.cache import ResultCache
    from repro.serve.journal import JobJournal
    from repro.serve.queue import AdmissionControl, JobQueue
    from repro.serve.scheduler import FairShareScheduler
    from repro.serve.service import GraphService
    from repro.serve.store import GraphStore
    from repro.serve.wire import GraphServiceServer

    ins = _Installer(tracer)

    # graph
    ins.function("repro.graph.generators", "rmat", "graph.generate")
    for fn in ("partition", "hash_partition", "range_partition",
               "clustering_partition", "greedy_vertex_cut"):
        ins.function("repro.graph.partition", fn, "graph.partition")
    ins.method(MutationBatch, "apply", "graph.mutation_apply")

    def warm_refused(t, rec, args, result):
        if result is None and getattr(args[0], "incremental", None):
            t.count("serve.service.warm_refused")
    ins.function("repro.graph.mutations", "plan_warm_start",
                 "graph.plan_warm_start", after=warm_refused)

    # algorithms: every template subclass that defines the method
    def edges_in(t, rec, args, result):
        t.count("algorithms.edges_in", len(args[1]))
    for cls in [AlgorithmTemplate, *_subclasses(AlgorithmTemplate)]:
        ins.methods(cls, "msg_gen msg_gen_local", "algorithms.msg_gen",
                    after=edges_in)
        ins.method(cls, "msg_merge", "algorithms.msg_merge")
        ins.method(cls, "msg_apply", "algorithms.msg_apply")
        ins.method(cls, "combine_many", "algorithms.combine_many")

    # core
    ins.method(Agent, "edge_pass", "core.agent.edge_pass")
    ins.method(Agent, "connect", "core.agent.connect")
    ins.methods(Agent, "refresh_cache flush_cache settle_dirty "
                       "invalidate_cache", "core.agent.cache_maint")
    ins.method(Daemon, "compute_block", "core.daemon.compute_block")
    ins.method(LRUVertexCache, "__init__", "core.sync_cache.init")
    ins.method(LRUVertexCache, "lookup_many", "core.sync_cache.lookup_many")

    def evictions_before(t, args):
        t.local.evictions = args[0].evictions

    def evictions_after(t, rec, args, result):
        t.count("core.sync_cache.evictions",
                args[0].evictions - t.local.evictions)
    ins.method(LRUVertexCache, "insert_many", "core.sync_cache.insert_many",
               before=evictions_before, after=evictions_after)
    ins.method(LRUVertexCache, "take_dirty", "core.sync_cache.take_dirty")
    ins.method(LRUVertexCache, "invalidate_many",
               "core.sync_cache.invalidate_many")
    ins.method(GXPlug, "__init__", "core.middleware.construct")

    # ipc, cluster
    for cls in [Scheduler, *_subclasses(Scheduler)]:
        ins.method(cls, "run", "ipc.scheduler.run")
    ins.method(ClusterSpec, "build", "cluster.build")
    for cls in (NetworkModel, Topology, ResilientTransport):
        ins.methods(cls, "sync_ms broadcast_ms p2p_fallback_ms",
                    "cluster.collective")

    # engines: construction, whole runs, and every resumption of a
    # stepwise run (where a served job's engine time is spent)
    def superstep(t, rec, args, result):
        if isinstance(result, StepEvent) and result.kind == "superstep":
            t.count("engines.supersteps")

    def stepwise(raw):
        def run_stepwise(self, *args, **kwargs):
            return StepperProxy(raw(self, *args, **kwargs), tracer,
                                "engines.step", after=superstep)
        return run_stepwise
    for cls in [IterativeEngine, *_subclasses(IterativeEngine)]:
        ins.methods(cls, "__init__ build", "engines.construct")
        ins.method(cls, "run", "engines.run")
        raw = cls.__dict__.get("run_stepwise")
        if raw is not None:
            ins.replace(cls, "run_stepwise", stepwise(raw), raw)
    ins.method(CheckpointStore, "save", "fault.checkpoint.save")

    # serve
    ins.method(JobJournal, "append", "serve.journal.append")
    ins.methods(JobJournal, "save_checkpoint save_result save_mutation",
                "serve.journal.sidecar")
    ins.methods(JobJournal, "load_checkpoint load_result load_mutation",
                "serve.journal.replay")
    for fn in ("read_journal", "replay_journal"):
        ins.function("repro.serve.journal", fn, "serve.journal.replay")
    ins.method(GraphStore, "snapshot", "serve.store.snapshot")
    ins.method(GraphStore, "build_engine", "serve.store.build_engine")
    ins.method(GraphStore, "mutate", "serve.store.mutate")

    def job_admitted(t, rec, args, result):
        if result is not None:
            t.op = result.job_id

    def depth(t, rec, args, result):
        t.counts["serve.queue.depth_max"] = max(
            t.counts.get("serve.queue.depth_max", 0), len(args[0]))
    ins.method(JobQueue, "pop_admissible", "serve.queue.admit",
               after=job_admitted)
    ins.method(JobQueue, "push", "serve.queue.admit", after=depth)
    ins.methods(AdmissionControl, "overload_reason deadline_reason "
                                  "check_feasible", "serve.queue.admit")

    def job_picked(t, rec, args, result):
        if result is not None:
            t.op = result.job.job_id
    ins.method(FairShareScheduler, "pick", "serve.scheduler.pick",
               after=job_picked)
    ins.method(ResultCache, "get", "serve.cache.get")
    ins.methods(ResultCache, "put put_entry", "serve.cache.put")

    def job_submitted(t, rec, args, result):
        rec[OP] = result.job_id

    def no_job(t, *_):
        t.op = None
    ins.method(GraphService, "submit", "serve.service.submit",
               before=no_job, after=job_submitted)
    # cleared again afterwards: frames answered between two steps
    # belong to no job
    ins.method(GraphService, "step", "serve.service.step", before=no_job,
               after=no_job)
    ins.method(GraphService, "mutate", "serve.service.mutate",
               before=no_job)
    ins.method(GraphService, "recover", "serve.service.recover")
    if server:
        def sent(t, rec, args, result):
            t.count("serve.wire.bytes_out", len(result))
        ins.function("repro.serve.wire", "validate_frame",
                     "serve.wire.validate")
        ins.function("repro.serve.wire", "encode_frame",
                     "serve.wire.encode", after=sent)
        ins.method(GraphServiceServer, "serve_forever", "serve.wire.serve")
    return ins.uninstall


# -- counters the program already publishes --------------------------------------------------


def run_result_counters(results: Iterable[Any]) -> Dict[str, float]:
    """Sum what ``RunResult``/``IterationStats`` publish over ``results``
    into per-layer metric names."""
    c: Dict[str, float] = {
        "engines.sim_ms": 0.0, "engines.skipped_iterations": 0,
        "engines.edges": 0,
        "ipc.scheduler.events": 0, "ipc.scheduler.batches": 0,
        "ipc.scheduler.heap_peak": 0, "cluster.retransmits": 0,
        "core.sync_cache.hits": 0, "core.sync_cache.misses": 0,
    }
    for phase in ("gen", "merge", "apply", "sync", "cache"):
        c[f"engines.phase.{phase}_s"] = 0.0
    for r in results:
        c["engines.sim_ms"] += r.total_ms
        c["engines.skipped_iterations"] += r.skipped_iterations
        c["ipc.scheduler.events"] += r.sched_events
        c["ipc.scheduler.batches"] += r.sched_batches
        c["ipc.scheduler.heap_peak"] = max(c["ipc.scheduler.heap_peak"],
                                           r.sched_heap_peak)
        c["cluster.retransmits"] += r.retransmits
        for phase, seconds in r.wall_s.items():
            c[f"engines.phase.{phase}_s"] += seconds
        for s in r.stats:
            c["engines.edges"] += s.active_edges * max(s.local_iterations, 1)
            c["core.sync_cache.hits"] += s.cache_hits
            c["core.sync_cache.misses"] += s.cache_misses
    return c


def merge_counters(parts: Iterable[Dict[str, float]],
                   peaks: Iterable[str] = ("ipc.scheduler.heap_peak",
                                           "serve.queue.depth_max",
                                           "serve.store.retained_bytes")
                   ) -> Dict[str, float]:
    """Add counter dicts; names in ``peaks`` take the maximum."""
    peaks = set(peaks)
    out: Dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if key in peaks:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out
