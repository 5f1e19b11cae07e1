"""The benchmark's server launcher: one ``GraphServiceServer`` in a
subprocess.

    python3 -m perfbench.server_main <config.json>

The config names the graphs to generate (from the run's seed), the
journal, whether to start fresh or ``GraphService.recover`` it, and an
optional ``crash_after_steps``.  The launcher prints one JSON line with
the bound port, serves until drained or crashed, then writes a dump:
the counters the program publishes, its peak RSS and — in a traced run
— the spans its wrappers recorded.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter
from typing import Any, Dict

from . import ensure_repro

#: exit code of a launcher whose server died by ``crash_after_steps``
CRASHED = 17


def published_counters(service, server) -> Dict[str, float]:
    """Per-layer numbers read off the program's own counters."""
    from repro.engines.base import RunResult
    from .layers import run_result_counters
    jobs = service.jobs()
    c = run_result_counters(j.result for j in jobs
                            if isinstance(j.result, RunResult))
    metrics = service.metrics()
    wire = server.wire_stats()
    cache, store, queue = (metrics["cache"], metrics["store"],
                           metrics["queue"])
    c.update({
        "serve.wire.frames_in": wire["frames_in"],
        "serve.wire.frames_out": wire["frames_out"],
        "serve.wire.bad_frames": wire["bad_frames"],
        "serve.store.partition_hits": store["partition_hits"],
        "serve.store.partition_builds": store["partition_builds"],
        "serve.store.partition_deltas": store["partition_deltas"],
        "serve.store.retained_bytes": store["retained_bytes"],
        "serve.queue.defers": queue["deferrals"],
        "serve.queue.sheds": queue["sheds"],
        "serve.scheduler.slices": sum(j.slices for j in jobs),
        "serve.cache.hits": cache["hits"],
        "serve.cache.misses": cache["misses"],
        "serve.cache.evictions": cache["evictions"],
        "serve.cache.invalidated": cache["invalidations"],
        "serve.service.warm_starts": metrics["warm_starts"],
        "serve.service.coalesced": metrics["coalesced"],
        "serve.service.retries": metrics["retries"],
        "serve.service.steps": server.steps_taken,
        "serve.journal.appends": (service.journal.records_written
                                  if service.journal is not None else 0),
    })
    return c


def main(argv) -> int:
    with open(argv[0], "r", encoding="utf-8") as fh:
        cfg: Dict[str, Any] = json.load(fh)
    ensure_repro()
    from .inputs import make_graph
    from .measure import peak_rss_mb
    tracer = None
    if cfg["trace"]:
        from .layers import install
        from .trace import Tracer
        tracer = Tracer(cfg["proc"])
        install(tracer, server=True)

    from repro.api import ClusterSpec, GraphService
    from repro.serve.wire import GraphServiceServer
    graphs = {key: make_graph(cfg["seed"], key, v, e)
              for key, v, e in cfg["graphs"]}
    if cfg["recover"]:
        service = GraphService.recover(cfg["journal"], graphs=graphs)
    else:
        service = GraphService(
            ClusterSpec(nodes=cfg["nodes"], gpus_per_node=1),
            journal=cfg["journal"], max_running=cfg["max_running"],
            cache_entries=cfg["cache_entries"])
        for key, graph in graphs.items():
            service.load_graph(key, graph)
    server = GraphServiceServer(
        service, crash_after_steps=cfg["crash_after_steps"])
    print(json.dumps({"port": server.address[1]}), flush=True)

    started = perf_counter()
    server.serve_forever()
    ended = perf_counter()
    crashed = (server.crash_after_steps is not None
               and server.steps_taken >= server.crash_after_steps)
    dump = {
        "proc": cfg["proc"], "wall": [started, ended], "crashed": crashed,
        "rss_mb": peak_rss_mb(),
        "published": published_counters(service, server),
        "spans": tracer.spans if tracer is not None else [],
        "counts": tracer.counts if tracer is not None else {},
    }
    with open(cfg["dump"], "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
    return CRASHED if crashed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
