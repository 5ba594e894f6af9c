"""fig_repartition: dynamic placement vs static placement (new figure).

Every placement in the paper's system is static: records live where the
murmur hash put them, forever. This experiment drives the dynamic
placement subsystem (:mod:`repro.core.placement`) with the workload it
exists for — a *shifting* hotspot, skewed enough that a handful of
records dominate storage traffic and mobile enough that no fixed
placement stays right — and compares:

* ``static`` rows — each routing scheme with the placement subsystem
  disabled (``placement=None``): exactly the pre-subsystem cluster;
* ``dynamic`` — the *empirically best* static routing of this run plus a
  tuned :class:`~repro.core.placement.PlacementConfig`, so the dynamic
  row is "add placement to the best static configuration" and any win is
  attributable to placement alone;
* ``dynamic:aggressive`` — the ablation: same routing, but a near-zero
  heat threshold, full fan-out replication, an oversized byte budget and
  an 8x faster planning loop. Its migration traffic shares the storage
  write pipelines with live queries, so over-rebalancing is *measurably
  worse* than the tuned loop — the cost side of the subsystem, made
  visible.

The serve is open-loop (Poisson arrivals at :data:`LOAD` x calibrated
capacity), because placement pays off in *queueing*: the server holding
a hot record saturates and every fetch behind it waits. Sojourn time
(arrival to completion) is therefore the headline metric. Processor
caches are deliberately starved (:data:`REPART_CACHE_BYTES`, a few dozen
records): with §4.1-sized caches the hot ball becomes cache-resident
after one warm-up pass and the storage tier only ever sees balanced
background traffic — there is nothing left for *any* placement to fix
(the regime Fig 9 maps out). The interesting production regime is the
opposite one — working set far larger than cache — and a tiny cache is
how the scaled-down analogue reaches it, the same trick
:mod:`repro.bench.updates` uses, taken further.

Placement cadence (``interval_s`` / ``half_life_s``) is derived from the
calibrated run length, so the control loop runs the same number of
rounds per hotspot phase at smoke scale and full scale — the CI gate in
``benchmarks/test_repartition.py`` holds at both.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import (
    GraphService,
    PlacementConfig,
    QueryIdAllocator,
    WorkloadReport,
    query_ids_from,
    run_workload,
)
from ..core.queries import Query
from ..workloads import poisson_arrivals, shifting_hotspot_stream
from .experiments import scheme_config
from .harness import emit, get_context

#: Offered load as a fraction of calibrated closed-loop capacity: high
#: enough that the hot server's queue dominates sojourn, low enough that
#: the run is stable for every scheme.
LOAD = 0.9

#: Per-processor cache, deliberately starved (see module docstring).
REPART_CACHE_BYTES = 4 << 10

#: Shifting-hotspot shape: each phase concentrates `HOT_FRACTION` of its
#: queries on a fresh radius-2 ball, power-law skewed within the ball.
NUM_PHASES = 6
QUERIES_PER_PHASE = 250
HOTSPOT = dict(
    radius=2,
    hops=2,
    hot_fraction=0.9,
    skew=1.2,
    seed=41,
)

#: Tuned planning rounds per hotspot phase. 8 rounds give the manager a
#: fresh look (and a chance to re-place) well within each phase's life.
ROUNDS_PER_PHASE = 8

#: Static routing schemes compared (the dynamic row rides the best one).
STATIC_ROUTINGS = ("hash", "embed", "adaptive")


def repartition_workload(ctx) -> List[Query]:
    """The shifting-hotspot query population (deterministic, scoped ids)."""
    with query_ids_from(QueryIdAllocator(start=6_000_000)):
        return list(shifting_hotspot_stream(
            ctx.graph,
            num_phases=NUM_PHASES,
            queries_per_phase=QUERIES_PER_PHASE,
            csr=ctx.assets.csr_both,
            **HOTSPOT,
        ))


def calibrate_capacity(ctx, queries: List[Query],
                       cache_bytes: int) -> float:
    """Closed-loop throughput of the workload under ``next_ready`` — the
    capacity the open-loop arrival rate is a fraction of, so ``LOAD``
    means the same thing at every graph scale."""
    return run_workload(
        ctx.graph,
        queries,
        scheme_config("next_ready", cache_capacity_bytes=cache_bytes),
        assets=ctx.assets,
    ).throughput()


def tuned_placement(phase_s: float) -> PlacementConfig:
    """The placement loop the `dynamic` row runs: react within a phase,
    replicate only the genuinely hot head, bounded copy budget.

    Replication is the load-bearing move here: murmur hashing keeps
    *long-run* per-server load balanced, but Poisson bursts leave one
    server's pipeline deep at any given instant, and a second copy of
    each hot record lets read-any route around it (join-shortest-queue,
    per request). Migration stays armed but rarely fires against an
    already-balanced hash — the tests and ``examples/hot_replication.py``
    exercise it directly."""
    return PlacementConfig(
        interval_s=phase_s / ROUNDS_PER_PHASE,
        half_life_s=phase_s / 4,
        heat_threshold=6.0,
        replicate_threshold=6.0,
        replicas=2,
        top_k=16,
        round_byte_budget=32 << 10,
        migrate_margin=0.5,
        release_fraction=0.1,
    )


def aggressive_placement(phase_s: float) -> PlacementConfig:
    """The ablation: everything is hot, replicate everywhere, plan 8x as
    often, practically unbounded budget, hair-trigger release — the
    copies' pipeline time is pure contention with live queries."""
    return PlacementConfig(
        interval_s=phase_s / (ROUNDS_PER_PHASE * 8),
        half_life_s=phase_s / 4,
        heat_threshold=0.05,
        replicate_threshold=0.1,
        replicas=4,
        top_k=512,
        round_byte_budget=16 << 20,
        migrate_margin=0.0,
        release_fraction=0.9,
    )


def _serve(ctx, routing: str, placement: Optional[PlacementConfig],
           queries: List[Query], rate: float,
           cache_bytes: int) -> WorkloadReport:
    """One open-loop serve of the workload at ``rate`` qps."""
    arrivals = poisson_arrivals(queries, rate=rate, tenant="clients",
                                seed=43)
    config = scheme_config(routing, cache_capacity_bytes=cache_bytes,
                           placement=placement)
    with GraphService.open(ctx.graph, config, assets=ctx.assets) as service:
        with service.session() as session:
            session.serve(arrivals)
            return session.report()


def _point(label: str, routing: str, report: WorkloadReport) -> Dict[str, object]:
    placement = report.placement or {}
    return {
        "label": label,
        "routing": routing,
        "mean_sojourn_ms": report.mean_sojourn_time() * 1e3,
        "p99_sojourn_ms": report.percentile_sojourn_time(99) * 1e3,
        "mean_response_ms": report.mean_response_time() * 1e3,
        "cache_hit_rate": report.cache_hit_rate(),
        "storage_imbalance": report.storage_request_imbalance(),
        "migrations": int(placement.get("migrations", 0)),
        "replications": int(placement.get("replications", 0)),
        "releases": int(placement.get("releases", 0)),
        "migration_bytes": report.migration_bytes(),
        "active_placements": int(placement.get("active_placements", 0)),
        "per_server": report.per_server_stats(),
    }


def fig_repartition(
    dataset: str = "webgraph", scale: Optional[float] = None,
) -> Dict[str, object]:
    """Shifting-hotspot serve: static placements vs the dynamic loop."""
    ctx = get_context(dataset, scale=scale)
    cache_bytes = REPART_CACHE_BYTES
    queries = repartition_workload(ctx)
    capacity = calibrate_capacity(ctx, queries, cache_bytes)
    rate = capacity * LOAD
    # Expected arrival span of one hotspot phase — the clock the placement
    # loop's cadence and decay are derived from.
    phase_s = (len(queries) / rate) / NUM_PHASES

    results: Dict[str, Dict[str, object]] = {}
    for routing in STATIC_ROUTINGS:
        report = _serve(ctx, routing, None, queries, rate, cache_bytes)
        results[f"static:{routing}"] = _point(
            f"static:{routing}", routing, report
        )

    best_static = min(
        (results[f"static:{r}"] for r in STATIC_ROUTINGS),
        key=lambda p: p["mean_sojourn_ms"],
    )
    routing = str(best_static["routing"])

    for label, cfg in (
        ("dynamic", tuned_placement(phase_s)),
        ("dynamic:aggressive", aggressive_placement(phase_s)),
    ):
        report = _serve(ctx, routing, cfg, queries, rate, cache_bytes)
        results[label] = _point(label, routing, report)

    rows: List[List[object]] = []
    for point in results.values():
        rows.append([
            point["label"],
            point["routing"],
            round(point["mean_sojourn_ms"], 4),
            round(point["p99_sojourn_ms"], 4),
            round(point["mean_response_ms"], 4),
            round(point["cache_hit_rate"], 4),
            round(point["storage_imbalance"], 3),
            point["migrations"],
            point["replications"],
            point["migration_bytes"] >> 10,
            point["active_placements"],
        ])

    emit(
        "Fig repartition: dynamic placement vs static under a shifting "
        f"hotspot ({round(capacity)} qps capacity, {LOAD}x offered, "
        f"cache {cache_bytes >> 10} KiB/processor)",
        ["placement", "routing", "mean sojourn (ms)", "p99 sojourn (ms)",
         "mean resp (ms)", "hit rate", "imbalance", "migrations",
         "replications", "copied KiB", "active"],
        rows,
        "fig_repartition",
    )
    return {
        "capacity_qps": capacity,
        "offered_qps": rate,
        "cache_bytes": cache_bytes,
        "phase_s": phase_s,
        "best_static": str(best_static["label"]),
        "rows": rows,
        "results": results,
    }
