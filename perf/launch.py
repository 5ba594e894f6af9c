"""One launch of one workload: set-up, reps, checks — in this process.

``run.py`` starts every launch as a fresh, single-threaded subprocess so
set-up time and peak RSS are those of a cold start; the launch prints one
JSON object on its last line. Modes:

* ``setup``   — set-up only (a ``setup_s`` sample);
* ``measure`` — set-up, one untimed warm-up rep, then timed reps;
* ``trace``   — set-up with the wrappers installed (asset builds), one
  untraced rep, one traced rep.

A rep is ``GraphService.open`` -> drive the whole input ->
``session.report()`` -> aggregate -> close, on a fresh service: modelled
caches start empty every rep.

``--draws K`` generates K inputs (seeds ``s``, ``s + 1000``, ...) and the
timed reps cycle through them, at least once each. The ledger uses one
draw, so every rep of a launch repeats exactly; the driver uses three, so
the medians it reports average over input draws as well as machine noise.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy

from repro.core import GraphAssets, GraphService
from repro.datasets import load_dataset
from repro.sim import Environment

import check
import metrics
import spans
import workloads
from workloads import Inputs, Workload

#: ``perf/``-local copy of the kernel microbenchmark program: timeout
#: chains (the gather/serve shape) plus process-spawn/``all_of`` fan-outs.
MICRO_RUNS = 3
MICRO_CHAINS = 16
MICRO_CHAIN_STEPS = 10_000
MICRO_FANOUTS = 16
MICRO_FANOUT_ROUNDS = 40
MICRO_FANOUT_WIDTH = 4
MICRO_FANOUT_CHAIN = 20


def micro_events_per_s() -> float:
    """p50 events/s of the micro program on the default kernel."""
    rates = []
    for _ in range(MICRO_RUNS):
        env = Environment()

        def chain(steps, env=env):
            for _ in range(steps):
                yield env.timeout(1.0)

        def fanout(env=env, chain=chain):
            for _ in range(MICRO_FANOUT_ROUNDS):
                yield env.all_of([
                    env.process(chain(MICRO_FANOUT_CHAIN))
                    for _ in range(MICRO_FANOUT_WIDTH)
                ])

        roots = [env.process(chain(MICRO_CHAIN_STEPS))
                 for _ in range(MICRO_CHAINS)]
        roots += [env.process(fanout()) for _ in range(MICRO_FANOUTS)]
        done = env.all_of(roots)
        start = time.perf_counter()
        env.run(until=done)
        rates.append(env.events_processed / (time.perf_counter() - start))
    return statistics.median(rates)


class Rep:
    """Outcome of one rep: everything the launch reports about it. The
    service is read here, outside the clock, and not kept."""

    def __init__(self, workload, inputs, wall, report, service, aggregated,
                 copy_s):
        self.wall = wall
        self.copy_s = copy_s
        self.report = report
        self.digest = metrics.sim_digest(report)
        self.sim = {k: v for k, v in aggregated.items()
                    if not k.startswith("_")}
        self.block = check.conservation(
            report, service, inputs.num_queries, inputs.num_updates,
            movers_write=workload.mutates_graph)
        self.ops = self.block["completed"] + self.block["updates_applied"]
        self.layers_sim = metrics.sim_layers(
            report, service, aggregated,
            inputs.num_queries + inputs.num_updates)


def run_rep(workload: Workload, graph, assets, inputs: Inputs,
            tracer: Optional[spans.Tracer] = None,
            overload: bool = False) -> Rep:
    copy_s = 0.0
    if workload.mutates_graph:
        # Fresh copy + assets, prepared before the clock starts.
        start = time.perf_counter()
        graph = graph.copy()
        copy_s = time.perf_counter() - start
        assets = GraphAssets(graph)
        assets.record_sizes  # noqa: B018 - force the lazy build
    config = workload.config(inputs)
    gc.collect()
    start = time.perf_counter()
    with GraphService.open(graph, config, assets=assets) as service:
        if workload.chaos is not None:
            service.topology.schedule(workload.chaos(inputs))
        with service.session() as session:
            workload.drive(session, inputs, overload)
            report = session.report()
            if tracer is not None:
                with tracer.span(spans.AGGREGATE):
                    aggregated = metrics.aggregate(
                        report, workload.loop == "open")
            else:
                aggregated = metrics.aggregate(report, workload.loop == "open")
    wall = time.perf_counter() - start
    return Rep(workload, inputs, wall, report, service, aggregated, copy_s)


def launch(args) -> Dict[str, object]:
    workload = workloads.BY_NAME[args.workload]
    tracer = spans.Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()

    # -- set-up (cold): dataset, assets, inputs, one open/close ------------
    parts: Dict[str, float] = {}
    clock = time.perf_counter

    mark = clock()
    graph = load_dataset(
        workloads.DATASET,
        scale=workloads.SMOKE_SCALE if args.smoke else workloads.FULL_SCALE,
        seed=workloads.GRAPH_SEED,
    )
    parts["datasets.load_s"] = clock() - mark
    mark = clock()
    assets = GraphAssets(graph)
    parts["core.assets.csr_build_s"] = clock() - mark
    mark = clock()
    assets.record_sizes  # noqa: B018 - force the lazy build
    parts["core.assets.record_sizes_s"] = clock() - mark
    mark = clock()
    draws = [
        workload.generate(
            graph, assets.csr_both, args.seed + draw * workloads.DRAW_STRIDE,
            workloads.SMOKE_SHRINK if args.smoke else 1)
        for draw in range(args.draws)
    ]
    parts["workloads.generate_s"] = clock() - mark
    GraphService.open(graph, workload.config(draws[0]), assets=assets).close()
    setup_s = time.monotonic() - args.t0
    parts["core.assets.landmark_index_s"] = (
        tracer.seconds(spans.LANDMARK_INDEX) if tracer else 0.0)
    parts["core.assets.embedding_s"] = (
        tracer.seconds(spans.EMBEDDING) if tracer else 0.0)

    out: Dict[str, object] = {
        "workload": workload.name,
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": setup_s,
        "env": {
            "kernel": Environment().kernel,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    if args.mode == "setup":
        return out

    # -- reps ----------------------------------------------------------------
    #: Per draw: its latest rep, and the digest of every rep it ran.
    latest: Dict[int, Rep] = {}
    digests: Dict[int, List[str]] = {draw: [] for draw in range(args.draws)}
    #: Timed reps as (draw, ops, wall); the reps themselves are not kept.
    timed: List[Tuple[int, int, float]] = []

    def rep(draw: int, traced: bool = False) -> Rep:
        latest.pop(draw, None)  # free the previous rep before the next runs
        done = run_rep(workload, graph, assets, draws[draw],
                       tracer if traced else None)
        latest[draw] = done
        digests[draw].append(done.digest)
        return done

    def timed_rep(draw: int) -> None:
        done = rep(draw)
        timed.append((draw, done.ops, done.wall))

    if tracer is not None:
        tracer.uninstall()
        # The untraced twin gives the end-to-end wall the traced rep's
        # overhead is measured against.
        timed_rep(0)
        tracer.install()
        tracer.reset(raw=True)
        rep(0, traced=True)
        tracer.uninstall()
    else:
        rep(0)  # untimed warm-up
        began = clock()
        while True:
            timed_rep(len(timed) % args.draws)
            if args.reps is not None:
                if len(timed) >= args.reps:
                    break
            elif (len(timed) >= args.draws
                  and clock() - began >= args.seconds):
                break

    # -- checks (outside every clock) ----------------------------------------
    checks = []
    for draw, inputs in enumerate(draws):
        block = dict(latest[draw].block, digests=digests[draw])
        if workload.mutates_graph:
            block.update({"oracle_checked": 0, "oracle_mismatches": 0})
        else:
            block.update(check.oracle_mismatches(
                graph, latest[draw].report, inputs.queries))
        checks.append(block)

    # Simulated values are exact per draw; across a run's draws the
    # median is reported (one draw: the value itself).
    sim = {
        key: statistics.median(latest[draw].sim[key] for draw in latest)
        for key in latest[0].sim
    }
    if args.overload and draws[0].overload_items is not None:
        over = run_rep(workload, graph, assets, draws[0], overload=True)
        sim["sim_overload_slo_miss_share"] = over.sim["sim_slo_miss_share"]
    last = latest[0]
    layers_sim = last.layers_sim

    out.update({
        "setup_parts": parts,
        "rep_draws": [draw for draw, _, _ in timed],
        "rep_ops": [ops for _, ops, _ in timed],
        "rep_walls": [wall for _, _, wall in timed],
        "sim": sim,
        "sim_digest": last.digest,
        "checks": checks,
        "layers_sim": layers_sim,
    })
    if tracer is not None:
        host = metrics.host_layers(
            tracer, parts,
            traced_wall=last.wall,
            untraced_wall=timed[0][2],
            events=int(layers_sim["sim.events"]),
            queries=last.block["completed"],
            updates=last.block["updates_applied"],
            micro_events_per_s=micro_events_per_s(),
            copy_s=last.copy_s,
        )
        for name in metrics.TRACE_COUNTS:
            layers_sim[name] = host.pop(name)
        out["layers_host"] = host
        out["traced_wall_s"] = last.wall
        if args.trace_out:
            with open(args.trace_out, "w") as handle:
                json.dump(tracer.chrome_trace(), handle)
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--reps", type=int, help="timed reps (fixed count)")
    group.add_argument("--seconds", type=float,
                       help="run timed reps until this much time has passed")
    parser.add_argument("--draws", type=int, default=1,
                        help="inputs drawn from the seed; reps cycle them")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--overload", action="store_true",
                        help="add the untimed overload pass (slo_open)")
    parser.add_argument("--trace-out", help="write raw spans here")
    args = parser.parse_args(argv)
    if args.mode == "measure" and args.reps is None and args.seconds is None:
        parser.error("measure needs --reps or --seconds")
    result = launch(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
