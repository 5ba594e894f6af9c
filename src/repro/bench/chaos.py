"""fig_chaos: elasticity under a deterministic fault/join schedule.

The paper's cluster is static: membership is fixed before the first
query and nothing ever fails. This experiment drives the elastic
topology layer (:mod:`repro.core.topology`) with the workload that
stresses every part of it — hotspot queries interleaved with graph
churn (:func:`~repro.workloads.churn_stream`), served open-loop at
:data:`LOAD` x calibrated capacity — while a scripted chaos schedule
kills a storage server, revives it, and joins a cold processor:

* ``baseline`` — no topology layer at all (``topology=None``): the
  static cluster every other benchmark runs, under the same arrivals.
* ``chaos:failover`` — the full elastic stack: queries that hit the
  dead server back off and retry, the repair loop re-homes its records
  onto live servers (directory-redirected reads take over mid-outage),
  the revived server gets its records failed back, and the late joiner
  takes a bounded share of the hash slots with a cold cache.
* ``chaos:no_failover`` — the ablation: same schedule, same retry
  knobs, but no repair and no directory. A query whose key lives on the
  dead server has nowhere else to go — it stalls until the scheduled
  recovery, so the worst serve window cliff-dives while the failover
  run degrades in proportion to the lost capacity.

Caches are starved (:data:`CHAOS_CACHE_BYTES`) for the same reason as
``fig_repartition``: failover is a storage-tier story, and §4.1-sized
caches would absorb the hot set before the outage begins.

The schedule is expressed in fractions of the expected serve span, so
the outage covers the same share of the run at smoke scale and full
scale — the CI gate in ``benchmarks/test_chaos.py`` holds at both.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import (
    ChaosEvent,
    GraphAssets,
    GraphService,
    QueryIdAllocator,
    TopologyConfig,
    WorkloadReport,
    query_ids_from,
    run_workload,
)
from ..workloads import churn_stream, poisson_arrivals
from .experiments import scheme_config
from .harness import emit, get_context

#: Offered load as a fraction of calibrated closed-loop capacity: low
#: enough that the 3-of-4-servers regime stays stable under failover,
#: high enough that losing a server without failover visibly stalls.
LOAD = 0.7

#: Per-processor cache, deliberately starved (see module docstring).
CHAOS_CACHE_BYTES = 8 << 10

#: Every scenario routes with the scheme whose rebalance story the
#: topology layer implements (bounded slot movement on join/leave).
ROUTING = "hash"

#: Churn shape (same knobs as fig10's live-update churn, sized down).
CHAOS_CHURN = dict(
    num_hotspots=16,
    rounds=3,
    queries_per_visit=10,
    radius=2,
    hops=2,
    update_every=5,
    updates_per_burst=3,
    new_node_prob=0.5,
    remove_prob=0.2,
    attach_degree=3,
    query_new_prob=0.35,
    seed=29,
)

#: Chaos schedule, as fractions of the expected serve span: one storage
#: server dies early, revives mid-run, and a cold processor joins late.
FAIL_AT, RECOVER_AT, JOIN_AT = 0.20, 0.45, 0.60
CHAOS_SERVER = 0

#: Serve windows the worst-window p99 is taken over: fine enough that
#: the outage dominates a few windows instead of averaging away.
NUM_WINDOWS = 16

#: Retry budget: generous on purpose. With failover a retry usually
#: lands after a few repair rounds; without it the same knobs make the
#: query ride out the whole outage — the ablation measures *stall*, not
#: an error path.
RETRIES = dict(
    retry_limit=4096,
    retry_backoff_s=20.0e-6,
    retry_backoff_cap_s=500.0e-6,
)


def chaos_workload(graph, csr=None) -> List[object]:
    """The mixed query/update stream (deterministic, scoped ids)."""
    with query_ids_from(QueryIdAllocator(start=8_000_000)):
        return list(churn_stream(graph, csr=csr, **CHAOS_CHURN))


def _num_queries(items: List[object]) -> int:
    return sum(1 for item in items if hasattr(item, "query_id"))


def calibrate_capacity(ctx) -> float:
    """Closed-loop query throughput of the churn stream under
    ``next_ready`` on a pristine copy — the capacity anchor for
    :data:`LOAD` at every graph scale."""
    graph = ctx.graph.copy()
    assets = GraphAssets(graph)
    config = scheme_config(
        "next_ready", cache_capacity_bytes=CHAOS_CACHE_BYTES
    )
    items = chaos_workload(graph, csr=assets.csr_both)
    return run_workload(graph, items, config, assets=assets).throughput()


def failover_topology(outage_s: float) -> TopologyConfig:
    """The elastic stack under test: many *small* repair rounds.

    Repair legs share the storage servers' FIFO write pipelines with
    query reads, so one big round (say 256 KiB) parks multi-hundred-us
    legs in front of live traffic and the worst serve window inherits
    that head-of-line blocking. A 2 KiB budget at a tight cadence moves
    less bulk data during the outage — the linear scan simply resumes
    where it left off each round — while the demand wave still re-homes
    the keys readers are actually blocked on within a round or two.
    """
    return TopologyConfig(
        failover=True,
        replication=1,
        repair_interval_s=max(outage_s / 800.0, 1e-5),
        repair_byte_budget=2 << 10,
        **RETRIES,
    )


def no_failover_topology() -> TopologyConfig:
    """The ablation: identical retry knobs, no repair, no directory."""
    return TopologyConfig(failover=False, **RETRIES)


def _serve(ctx, topology: Optional[TopologyConfig], rate: float,
           schedule: Optional[List[ChaosEvent]]):
    """One open-loop serve on a fresh graph copy; returns
    (report, topology snapshot or None)."""
    graph = ctx.graph.copy()
    assets = GraphAssets(graph)
    items = chaos_workload(graph, csr=assets.csr_both)
    arrivals = poisson_arrivals(items, rate=rate, tenant="clients",
                                seed=31)
    # Stealing is off: an idle low-id processor would otherwise grab
    # most dispatches (the cluster runs well under capacity between
    # bursts), hiding exactly what this figure measures — who *owns*
    # each key as membership changes, and what the joiner's cold cache
    # costs while it earns its share.
    config = scheme_config(
        ROUTING,
        cache_capacity_bytes=CHAOS_CACHE_BYTES,
        steal=False,
        topology=topology,
    )
    with GraphService.open(graph, config, assets=assets) as service:
        if service.topology is not None:
            service.topology.schedule(schedule or [])
        with service.session() as session:
            session.serve(arrivals)
            report = session.report()
        snapshot = (
            service.topology.snapshot()
            if service.topology is not None else None
        )
    return report, snapshot


def _worst_window_p99_ms(report: WorkloadReport) -> float:
    worst = 0.0
    for window in report.windows(NUM_WINDOWS):
        if window.records:
            worst = max(worst, window.percentile_sojourn_time(99))
    return worst * 1e3


def _point(label: str, report: WorkloadReport,
           snapshot: Optional[Dict[str, object]]) -> Dict[str, object]:
    summary = report.summary()
    recoveries = report.recovery_times_s()
    snapshot = snapshot or {}
    warmup = snapshot.get("warmup", [])
    return {
        "label": label,
        "completed": len(report.records),
        "throughput_qps": report.throughput(),
        "mean_sojourn_ms": report.mean_sojourn_time() * 1e3,
        "p99_sojourn_ms": report.percentile_sojourn_time(99) * 1e3,
        "worst_window_p99_ms": _worst_window_p99_ms(report),
        "downtime_s": float(summary.get("storage_downtime_s", 0.0)),
        "recovery_s": max(recoveries) if recoveries else 0.0,
        "storage_retries": int(snapshot.get("storage_retries", 0)),
        "repair_records": int(snapshot.get("repair_records", 0)),
        "repair_bytes": int(snapshot.get("repair_bytes", 0)),
        "failbacks": int(snapshot.get("failbacks", 0)),
        "demand_repairs": int(snapshot.get("demand_repairs", 0)),
        "write_failures": int(snapshot.get("write_failures", 0)),
        "moved_entries": int(snapshot.get("moved_entries", 0)),
        "failover_keys_left": int(snapshot.get("failover_keys", 0)),
        "suspect_writes_left": int(snapshot.get("suspect_writes", 0)),
        "joiner_queries": sum(
            int(w["queries_executed"]) for w in warmup
        ),
        "epoch": int(snapshot.get("epoch", 0)),
    }


def fig_chaos(
    dataset: str = "webgraph", scale: Optional[float] = None,
) -> Dict[str, object]:
    """Open-loop churn serve across a kill/recover/join schedule."""
    ctx = get_context(dataset, scale=scale)
    capacity = calibrate_capacity(ctx)
    rate = capacity * LOAD
    items = chaos_workload(ctx.graph.copy())
    span_s = len(items) / rate
    outage_s = (RECOVER_AT - FAIL_AT) * span_s
    schedule = [
        ChaosEvent(at=FAIL_AT * span_s, action="fail_server",
                   target=CHAOS_SERVER),
        ChaosEvent(at=RECOVER_AT * span_s, action="recover_server",
                   target=CHAOS_SERVER),
        ChaosEvent(at=JOIN_AT * span_s, action="add_processor"),
    ]

    results: Dict[str, Dict[str, object]] = {}
    for label, topology, events in (
        ("baseline", None, None),
        ("chaos:failover", failover_topology(outage_s), schedule),
        ("chaos:no_failover", no_failover_topology(), schedule),
    ):
        report, snapshot = _serve(ctx, topology, rate, events)
        results[label] = _point(label, report, snapshot)

    rows: List[List[object]] = []
    for point in results.values():
        rows.append([
            point["label"],
            point["completed"],
            round(point["throughput_qps"], 1),
            round(point["mean_sojourn_ms"], 4),
            round(point["p99_sojourn_ms"], 4),
            round(point["worst_window_p99_ms"], 4),
            round(point["downtime_s"] * 1e3, 3),
            round(point["recovery_s"] * 1e3, 3),
            point["storage_retries"],
            point["repair_records"],
            point["repair_bytes"] >> 10,
            point["demand_repairs"],
            point["failbacks"],
            point["moved_entries"],
            point["joiner_queries"],
        ])

    emit(
        "Fig chaos: failover vs no-failover under a kill/recover/join "
        f"schedule ({round(capacity)} qps capacity, {LOAD}x offered, "
        f"outage {round(outage_s * 1e3, 2)} ms, cache "
        f"{CHAOS_CACHE_BYTES >> 10} KiB/processor)",
        ["scenario", "completed", "qps", "mean sojourn (ms)",
         "p99 sojourn (ms)", "worst-window p99 (ms)", "downtime (ms)",
         "recovery (ms)", "retries", "repaired", "repair KiB",
         "demand", "failbacks", "moved slots", "joiner queries"],
        rows,
        "fig_chaos",
    )
    return {
        "capacity_qps": capacity,
        "offered_qps": rate,
        "span_s": span_s,
        "outage_s": outage_s,
        "num_queries": _num_queries(items),
        "rows": rows,
        "results": results,
    }
