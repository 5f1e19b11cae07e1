"""Command line: ``python3 -m perfbench run|all|compare``."""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import ROOT, ensure_repro, measure
from .spec import load_manifest, sizes


def default_out(workload: str, seed: int, trace: bool) -> str:
    return os.path.join(ROOT, "perfbench", "out",
                        f"{workload}-seed{seed}-t{int(trace)}")


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool, out_dir: Optional[str]) -> dict:
    """Run one workload and report it; returns the result object."""
    manifest = load_manifest()
    size = sizes(workload, quick, seconds, manifest.run_seconds)
    ensure_repro()
    import repro.api  # noqa: F401 - fail here when the program is absent
    from . import batch, serve
    from .layers import install
    from .report import finish
    from .trace import Tracer

    out_dir = out_dir or default_out(workload, seed, trace)
    os.makedirs(out_dir, exist_ok=True)
    measure.reset_peak_rss()
    guard = measure.quiet_guard()
    env = measure.environment(seed, guard)
    tracer = uninstall = None
    if trace:
        tracer = Tracer("bench")
        uninstall = install(tracer)
    try:
        if workload.startswith("batch-"):
            outcome = batch.run(workload, size, seed, tracer)
        else:
            outcome = serve.run(workload, size, seed, tracer, out_dir)
    finally:
        if uninstall is not None:
            uninstall()
    return finish(outcome, manifest, workload=workload, seed=seed,
                  trace=trace, quick=quick, out_dir=out_dir, env=env)


def main(argv: Optional[List[str]] = None) -> int:
    manifest = load_manifest()
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float,
                       default=float(manifest.run_seconds),
                       help="sizes the operation schedule: the counts in "
                            "spec.py are for run_seconds and scale with "
                            "this")
        p.add_argument("--quick", action="store_true",
                       help="small inputs and few operations")
        p.add_argument("--out", default=None,
                       help="directory for env/metrics/trace json")

    p_run = sub.add_parser("run", help="run one workload")
    p_run.add_argument("--workload", required=True,
                       choices=manifest.workloads)
    p_run.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                       choices=(0, 1))
    common(p_run)
    p_all = sub.add_parser(
        "all", help="every workload untraced, then every workload traced")
    common(p_all)
    p_cmp = sub.add_parser(
        "compare", help="compare two directories of runs")
    p_cmp.add_argument("runs_a")
    p_cmp.add_argument("runs_b")
    args = parser.parse_args(argv)

    if args.command == "compare":
        from .compare import main as compare_main
        return compare_main(args.runs_a, args.runs_b, manifest)
    if args.command == "run":
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.quick, args.out)
        return 0 if result["correct"] else 1
    ok = True
    for trace in (False, True):
        for workload in manifest.workloads:
            out = (os.path.join(args.out, f"{workload}-seed{args.seed}"
                                          f"-t{int(trace)}")
                   if args.out else None)
            ok &= run_one(workload, args.seed, args.seconds, trace,
                          args.quick, out)["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
