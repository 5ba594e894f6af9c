#!/usr/bin/env python
"""Profile the simulation hot path over a scaled-down operator mix.

Runs the six-operator mixed workload under adaptive routing inside
cProfile and prints the top entries by *cumulative* time — the view that
shows where a query's wall clock actually goes (kernel dispatch, gather,
cache probes, storage round trips) rather than just the leaf functions.

This is the tool that motivated the hot-path overhaul: before it, the
profile was dominated by generator trampolines and per-event allocation
in ``repro.sim``; after, by the numpy work the simulation actually models.
Re-run it after touching the kernel, ``gather_nodes`` or the cache to see
what the change did.

Run:  python examples/profile_hotpath.py
(REPRO_BENCH_SCALE scales the graph; the default 0.15 keeps one pass
under ~10 seconds on a laptop.)
"""

import cProfile
import pstats
from dataclasses import replace

from repro.bench import bench_scale
from repro.bench.adaptive import SUBMIT_BATCH
from repro.bench.experiments import scheme_config
from repro.bench.harness import get_context
from repro.bench.operator_mix import operator_mix_workload
from repro.core import GraphService

#: How many rows of the cumulative profile to print.
TOP = 25


def serve_mix(ctx, queries) -> int:
    config = replace(scheme_config("adaptive"), submit_batch=SUBMIT_BATCH)
    with GraphService.open(ctx.graph, config, assets=ctx.assets) as service:
        with service.session() as session:
            session.stream(queries)
            report = session.report()
        events = service.env.events_processed
    print(f"  {len(report.records)} queries, {events:,} kernel events, "
          f"mean response {report.mean_response_time() * 1e6:.1f} us")
    return events


def main() -> None:
    scale = bench_scale(default=0.15)
    print(f"Building context at scale {scale} ...")
    ctx = get_context("webgraph", scale=scale)
    queries = operator_mix_workload(ctx)
    print(f"Profiling the six-operator mix ({len(queries)} queries) ...")

    profiler = cProfile.Profile()
    profiler.enable()
    serve_mix(ctx, queries)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(TOP)
    print("Reading the profile: Environment.run + Process._resume are the "
          "kernel; gather_nodes/RoundTrip are storage round trips; "
          "ProcessorCache.get_many is the probe path. If a new entry "
          "crowds these out, that is the next optimisation target.")


if __name__ == "__main__":
    main()
