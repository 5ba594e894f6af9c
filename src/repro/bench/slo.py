"""SLO under overload: an offered-load sweep past saturation (new figure).

Every other experiment in this package measures a *closed-loop* run —
offered load can never exceed capacity, so overload is unobservable. This
one drives the open-loop serving path (:mod:`repro.workloads.open_loop` +
:meth:`~repro.core.service.QuerySession.serve`) through a sweep of
offered-load multipliers around calibrated capacity, for two front-door
configurations:

* ``fifo`` — ``next_ready`` routing, no admission control: every arrival
  queues unboundedly in the router, the naive production deployment;
* ``adaptive+admission`` — adaptive routing behind the per-tenant
  admission / DRR / load-shedding layer of :mod:`repro.core.admission`.

Two tenants share the cluster: ``interactive`` (zipfian point lookups
and short walks — the latency-sensitive tier) and ``analytics`` (PPR and
batched reachability — the heavy tier admission control sheds first).
Capacity is calibrated per graph scale by a closed-loop run of the same
mixture, so the sweep's multipliers mean the same thing at smoke scale
and full scale.

The headline SLO metric is worst-tenant p99 *sojourn* time (arrival to
completion): under overload the collapse is queueing delay, which
response time deliberately excludes. The expected shape — and the CI
gate in ``benchmarks/test_slo_overload.py`` — is that FIFO's p99
degrades super-linearly past saturation while admission + adaptive
routing holds p99 flat by converting the excess into shed/rejected
work (visible as delivery ratio < 1), keeping goodput near capacity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core import (
    AdmissionConfig,
    GraphService,
    QueryIdAllocator,
    WorkloadReport,
    query_ids_from,
    run_workload,
)
from ..core.queries import Query
from ..workloads import (
    interleave,
    k_reach_stream,
    merge_arrivals,
    poisson_arrivals,
    ppr_stream,
    zipfian_stream,
)
from .experiments import scheme_config
from .harness import emit, get_context

#: Offered load as a fraction of calibrated capacity. 0.9 is the highest
#: pre-saturation point (what the SLO gate reads); 1.2 and 1.5 are past
#: saturation, where the two front doors diverge.
LOAD_POINTS = (0.25, 0.5, 0.75, 0.9, 1.2, 1.5)

#: Per-tenant query volume per load point (fixed: a sweep replays the
#: same workload faster or slower, so higher load = shorter run).
NUM_INTERACTIVE = 1050
NUM_ANALYTICS = 450

#: The admission layer under test. Queue limits bound worst-case sojourn
#: (a query can wait behind at most ~limit peers plus the shallow router
#: depth), which is what keeps p99 flat where FIFO's grows with backlog.
SLO_ADMISSION = AdmissionConfig(tenant_queue_limit=32)

#: (label, routing, admission) front-door configurations compared.
SLO_CONFIGS: Tuple[Tuple[str, str, Optional[AdmissionConfig]], ...] = (
    ("fifo", "next_ready", None),
    ("adaptive+admission", "adaptive", SLO_ADMISSION),
)


def slo_workload(ctx) -> Tuple[List[Query], List[Query]]:
    """The two tenants' query populations (deterministic, scoped ids)."""
    graph, csr = ctx.graph, ctx.assets.csr_both
    with query_ids_from(QueryIdAllocator(start=5_000_000)):
        interactive = list(zipfian_stream(
            graph, num_queries=NUM_INTERACTIVE, hops=1,
            mix=("aggregation", "walk"), skew=1.2, seed=13, csr=csr,
        ))
        analytics = list(interleave([
            ppr_stream(graph, num_queries=NUM_ANALYTICS // 2, walks=4,
                       steps=4, seed=17, csr=csr),
            k_reach_stream(graph, num_queries=NUM_ANALYTICS // 2,
                           num_sources=4, hops=2, seed=19, csr=csr),
        ], seed=23))
    return interactive, analytics


def calibrate_capacity(ctx, interactive: List[Query],
                       analytics: List[Query]) -> float:
    """Closed-loop throughput of the mixture under ``next_ready`` — the
    cluster's service capacity for exactly this traffic shape, so the
    sweep multipliers stay meaningful across graph scales."""
    queries = list(interleave([interactive, analytics], seed=29))
    return run_workload(
        ctx.graph, queries, scheme_config("next_ready"), assets=ctx.assets,
    ).throughput()


def _serve_at_load(
    ctx,
    routing: str,
    admission: Optional[AdmissionConfig],
    interactive: List[Query],
    analytics: List[Query],
    rate: float,
) -> WorkloadReport:
    """One open-loop serve of the two-tenant mixture at ``rate`` qps."""
    total = len(interactive) + len(analytics)
    arrivals = merge_arrivals(
        poisson_arrivals(interactive, rate=rate * len(interactive) / total,
                         tenant="interactive", seed=31),
        poisson_arrivals(analytics, rate=rate * len(analytics) / total,
                         tenant="analytics", seed=37),
    )
    with GraphService.open(
        ctx.graph, scheme_config(routing), assets=ctx.assets,
    ) as service:
        with service.session() as session:
            session.serve(arrivals, admission=admission)
            return session.report()


def fig_slo_overload(
    dataset: str = "webgraph", scale: Optional[float] = None,
) -> Dict[str, object]:
    """Offered-load sweep: worst-tenant p99 sojourn vs load, per config."""
    ctx = get_context(dataset, scale=scale)
    interactive, analytics = slo_workload(ctx)
    capacity = calibrate_capacity(ctx, interactive, analytics)

    rows: List[List[object]] = []
    results: Dict[str, Dict[str, float]] = {}
    for label, routing, admission in SLO_CONFIGS:
        for multiplier in LOAD_POINTS:
            report = _serve_at_load(
                ctx, routing, admission, interactive, analytics,
                rate=capacity * multiplier,
            )
            per_tenant = report.per_tenant_stats()
            worst_p99 = max(t["p99_sojourn_ms"] for t in per_tenant.values())
            worst_p999 = max(t["p999_sojourn_ms"] for t in per_tenant.values())
            stats = report.admission
            point = {
                "offered_qps": report.offered_load(),
                "goodput_qps": report.goodput(),
                "delivery_ratio": (
                    stats.delivery_ratio() if stats is not None else 1.0
                ),
                "worst_p99_ms": worst_p99,
                "worst_p999_ms": worst_p999,
                "shed": stats.shed if stats is not None else 0,
                "rejected": stats.rejected if stats is not None else 0,
                "time_in_overload_s": report.time_in_overload(),
                "per_tenant": per_tenant,
            }
            results[f"{label}@{multiplier}"] = point
            rows.append([
                label,
                multiplier,
                round(point["offered_qps"]),
                round(point["goodput_qps"]),
                round(point["delivery_ratio"], 3),
                round(worst_p99, 3),
                round(worst_p999, 3),
                point["shed"],
                point["rejected"],
                round(point["time_in_overload_s"], 4),
            ])

    emit(
        "SLO under overload: offered-load sweep at "
        f"{round(capacity)} qps calibrated capacity "
        "(worst-tenant sojourn percentiles in ms)",
        ["config", "load", "offered", "goodput", "delivered",
         "p99", "p999", "shed", "rejected", "overload s"],
        rows,
        "fig_slo_overload",
    )
    return {
        "capacity_qps": capacity,
        "load_points": list(LOAD_POINTS),
        "rows": rows,
        "results": results,
    }
