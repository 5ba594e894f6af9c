"""Adaptive-routing experiment: a mixed workload with no single best scheme.

The paper evaluates each routing scheme on a homogeneous hotspot workload.
Production query streams are mixtures: deep traversals around hotspots,
uniform point lookups, and repeat-heavy random walks, interleaved. Each
component favours a *different* static scheme (embed's topology locality,
hash's repeat locality, near-zero decision cost), so a fixed choice leaves
performance behind. This experiment shows ``routing="adaptive"`` matching
or beating the best static scheme on the mixture by re-ranking arms
per query class from the live routing feedback.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from ..core import GraphService
from ..core.queries import Query
from ..workloads import hotspot_stream, uniform_stream, zipfian_stream
from .experiments import scheme_config
from .harness import ExperimentContext, emit, get_context

#: The schemes compared on the mixture (no_cache is out of the running).
MIXED_SCHEMES = ("next_ready", "hash", "landmark", "embed", "adaptive")

#: Every scheme submits in identical waves so the comparison isolates the
#: routing policy: adaptive *needs* pipelined submission (feedback must
#: reach it while queries remain), and giving the static schemes a
#: different submission mode would confound the load term of Eq. 3/7.
SUBMIT_BATCH = 128


def mixed_workload(
    ctx: ExperimentContext,
    num_hotspots: int = 80,
    queries_per_hotspot: int = 10,
    num_points: int = 600,
    num_walks: int = 3600,
    seed: int = 11,
) -> List[Query]:
    """Interleaved mixture: hotspot reachability + point lookups + walks.

    Hotspot groups stay contiguous (the paper's arrival model) while the
    point lookups and walks are shuffled between them, emulating a mixed
    stream hitting one router. The stream is walk-dominated — the
    production shape for social/recommendation traffic — which is exactly
    where one static scheme cannot serve everyone: repeat-heavy zipfian
    walks want hash's deterministic placement while the expensive
    traversals want topology-aware routing.
    """
    graph, csr = ctx.graph, ctx.assets.csr_both
    traversals = list(hotspot_stream(
        graph,
        num_hotspots=num_hotspots,
        queries_per_hotspot=queries_per_hotspot,
        radius=2,
        hops=3,
        mix=("reachability",),
        seed=seed,
        csr=csr,
    ))
    points = list(uniform_stream(
        graph, num_queries=num_points, hops=1, mix=("aggregation",),
        seed=seed + 1, csr=csr,
    ))
    walks = list(zipfian_stream(
        graph, num_queries=num_walks, hops=4, skew=2.0, mix=("walk",),
        seed=seed + 2, csr=csr,
    ))
    # Blocks: one per hotspot group, one per point/walk query.
    blocks: List[List[Query]] = [
        traversals[i : i + queries_per_hotspot]
        for i in range(0, len(traversals), queries_per_hotspot)
    ]
    blocks.extend([q] for q in points)
    blocks.extend([q] for q in walks)
    rng = np.random.default_rng(seed + 3)
    order = rng.permutation(len(blocks))
    return [query for idx in order for query in blocks[idx]]


def adaptive_routing_mixed(
    dataset: str = "webgraph", scale: Optional[float] = None,
) -> Dict[str, object]:
    """Mean/per-class response of every scheme on the mixed workload."""
    ctx = get_context(dataset, scale=scale)
    queries = mixed_workload(ctx)
    rows: List[List[object]] = []
    per_arm: Dict[str, int] = {}
    snapshot: Dict[str, object] = {}
    for routing in MIXED_SCHEMES:
        # Session API, cold service per scheme: identical to the old
        # one-shot runs (one session from cold caches), but routed through
        # the public serving path so this benchmark exercises it.
        with GraphService.open(
            ctx.graph,
            replace(scheme_config(routing), submit_batch=SUBMIT_BATCH),
            assets=ctx.assets,
        ) as service:
            with service.session() as session:
                session.stream(queries)
                report = session.report()
            if routing == "adaptive":
                snapshot = service.strategy.snapshot()
        classes = report.per_class_stats()
        rows.append([
            routing,
            round(report.mean_response_time() * 1e6, 2),
            round(report.percentile_response_time(95) * 1e6, 2),
            round(classes.get("point", {}).get("mean_response_ms", 0.0) * 1e3, 2),
            round(classes.get("walk", {}).get("mean_response_ms", 0.0) * 1e3, 2),
            round(
                classes.get("traversal", {}).get("mean_response_ms", 0.0) * 1e3,
                2,
            ),
            round(report.cache_hit_rate(), 3),
            report.stolen_count(),
        ])
        if routing == "adaptive":
            per_arm = report.per_arm_counts()
    emit(
        "Adaptive routing on a mixed workload (response times in µs)",
        ["routing", "mean", "p95", "point", "walk", "traversal",
         "hit rate", "stolen"],
        rows,
        "adaptive_routing_mixed",
    )
    emit(
        "Adaptive routing: per-arm decisions on the mixed workload",
        ["arm", "queries"],
        sorted(per_arm.items()),
        "adaptive_routing_arms",
    )
    return {"response": rows, "per_arm": per_arm, "snapshot": snapshot}
