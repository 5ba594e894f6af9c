"""Correctness and failure accounting for the perf ledger.

Two halves. Inside a launch, :func:`oracle_mismatches` and
:func:`conservation` check the program's *outputs* against a centralized
evaluation and its own counters. On a result file, :func:`check_result`
re-derives every workload's ``failed_ops`` from the recorded counts and
refuses a file whose numbers do not add up::

    python perf/check.py perf/out/result.json     # non-zero exit on any problem
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

ORACLE_SAMPLE = 200
ORACLE_OPERATORS = ("aggregation", "reachability", "k_reach")


def _expected(graph, query, operator: str):
    from repro.graph import (
        bidirectional_reachability,
        k_hop_neighborhood,
        neighbor_aggregation,
    )

    if operator == "aggregation":
        return neighbor_aggregation(graph, query.node, query.hops,
                                    label=query.label)
    if operator == "reachability":
        return bidirectional_reachability(graph, query.node, query.target,
                                          query.hops)
    return sum(
        1 for source in query.all_sources()
        if source == query.target
        or query.target in k_hop_neighborhood(graph, source, query.hops,
                                              direction="out")
    )


def oracle_mismatches(graph, report, queries: Dict[int, object]) -> Dict[str, int]:
    """Compare a fixed, evenly strided sample of completed aggregation /
    reachability / k_reach answers with ``repro.graph.traversal`` run on
    the whole graph. Only meaningful where the graph does not mutate."""
    eligible = [r for r in report.records if r.operator in ORACLE_OPERATORS]
    stride = max(1, len(eligible) // ORACLE_SAMPLE)
    sample = eligible[::stride][:ORACLE_SAMPLE]
    mismatches = sum(
        1 for record in sample
        if record.stats.result != _expected(
            graph, queries[record.query_id], record.operator)
    )
    return {"oracle_checked": len(sample), "oracle_mismatches": mismatches}


def conservation(report, service, num_queries: int, num_updates: int,
                 movers_write: bool) -> Dict[str, object]:
    """The counts the failure accounting is built from (conservation
    ``offered = completed + shed + rejected`` is checked on them by
    :func:`check_block`), plus the violations only the live objects show."""
    admission = report.admission
    offered = report.offered() if admission is not None else num_queries
    shed = admission.shed if admission is not None else 0
    rejected = admission.rejected if admission is not None else 0
    completed = len(report.records)
    applied = service.updates.updates_applied
    problems: List[str] = []
    if offered != num_queries:
        problems.append(f"offered {offered} != generated {num_queries}")
    if not movers_write:
        # QueryStats excludes the anchor record's fetch (Eq. 8 does not
        # count the query node), so the per-query totals bound the
        # servers' from below instead of matching them.
        servers = service.tier.servers
        fetched = report.total_bytes_fetched()
        served = sum(s.bytes_served for s in servers)
        requests = sum(r.stats.storage_requests for r in report.records)
        if fetched > served:
            problems.append(f"bytes fetched {fetched} > served {served}")
        if requests > sum(s.requests_served for s in servers):
            problems.append("per-query storage requests exceed served")
        if any(s.bytes_written for s in servers):
            problems.append("storage writes on a read-only workload")
    return {
        "offered": offered,
        "completed": completed,
        "shed": shed,
        "rejected": rejected,
        "updates_emitted": num_updates,
        "updates_applied": applied,
        "problems": problems,
    }


def failed_ops(block: Dict[str, object]) -> int:
    """``(offered - completed) + (emitted - applied) + oracle mismatches``;
    every attempted op when two reps of the same input disagree."""
    if len(set(block["digests"])) > 1:
        return attempted_ops(block)
    return (
        block["offered"] - block["completed"]
        + block["updates_emitted"] - block["updates_applied"]
        + block["oracle_mismatches"]
    )


def attempted_ops(block: Dict[str, object]) -> int:
    return block["offered"] + block["updates_emitted"]


def refused_ops(block: Dict[str, object]) -> int:
    """Arrivals the admission layer shed or rejected on purpose."""
    return block["shed"] + block["rejected"]


def check_block(name: str, block: Dict[str, object]) -> List[str]:
    """Problems of one workload's check block (empty when sound)."""
    problems = [f"{name}: {p}" for p in block["problems"]]
    if len(set(block["digests"])) > 1:
        problems.append(f"{name}: simulated results changed between reps")
    if block["oracle_mismatches"]:
        problems.append(
            f"{name}: {block['oracle_mismatches']} of "
            f"{block['oracle_checked']} sampled answers differ from the oracle")
    lost = failed_ops(block) - refused_ops(block) - block["oracle_mismatches"]
    if lost and len(set(block["digests"])) == 1:
        problems.append(f"{name}: {lost} ops neither completed nor refused")
    return problems


def check_result(result: Dict[str, object]) -> List[str]:
    """Problems of a whole result file: every workload's block must be
    sound and agree with the stated attempted/failed totals."""
    problems: List[str] = []
    for name, entry in sorted(result["sim"].items()):
        if "check" not in entry:
            continue  # a --trace-only point carries no end-to-end part
        block = entry["check"]
        problems += check_block(name, block)
        if entry["sim_digest"] not in block["digests"]:
            problems.append(f"{name}: sim_digest is not one of its reps'")
        for key, derive in (("attempted_ops", attempted_ops),
                            ("failed_ops", failed_ops),
                            ("refused_ops", refused_ops)):
            if entry[key] != derive(block):
                problems.append(
                    f"{name}: {key} {entry[key]} != {derive(block)} "
                    "derived from its counts")
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python perf/check.py RESULT.json", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        problems = check_result(json.load(handle))
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print("ok: outputs correct, accounting conserves")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
