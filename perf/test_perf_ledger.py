"""Tier-1 self-test of the perf ledger (smoke scale, < 15 s).

Runs ``run.py --smoke`` twice (side by side; smoke runs measure nothing
worth protecting) plus one smoke-scale driver invocation, then checks
the contract the ledger makes with later PRs: names, units, bounds,
determinism of the simulated block, trace attribution, patch hygiene
and that ``check.py`` refuses a result whose numbers do not add up.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
if str(PERF) not in sys.path:
    sys.path.insert(0, str(PERF))

import check  # noqa: E402
import compare  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w.name for w in workloads.WORKLOADS]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    paths = [out / "a.json", out / "b.json"]
    procs = [
        subprocess.Popen(
            [sys.executable, str(PERF / "run.py"), "--smoke", "--out", str(p)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        for p in paths
    ]
    outputs = [proc.communicate(timeout=120)[0] for proc in procs]
    for proc, output in zip(procs, outputs, strict=True):
        assert proc.returncode == 0, output
    return paths, [json.loads(p.read_text()) for p in paths], outputs


def test_benchmark_json_is_the_manifest():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == metrics.manifest(manifest["run_seconds"])
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in manifest["workloads"]] == WORKLOADS
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    entries = manifest["end_to_end"] + manifest["per_layer"]
    names = [e["name"] for e in entries] + WORKLOADS
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(e["unit"]) for e in entries)
    assert all(e["better"] in ("lower", "higher") for e in entries)
    assert all(0 < e["bound"] <= 0.25 for e in manifest["end_to_end"])
    assert "setup_s" in {e["name"] for e in manifest["end_to_end"]}
    # The issue's ten end-to-end and 92 per-layer names, each exactly once.
    assert len(metrics.LEDGER_END_TO_END) == 10
    assert len(metrics.PER_LAYER) == 92
    assert {e["name"] for e in entries} == (
        {m[0] for m in metrics.LEDGER_END_TO_END}
        | {m[0] for m in metrics.PER_LAYER})


def test_every_metric_is_reported_exactly_once(smoke):
    _, (result, _), (printed, _) = smoke
    per_layer = {name for name, _, _ in metrics.PER_LAYER}
    sections = printed.split("\n== ")[1:]
    assert [s.split("\n", 1)[0] for s in sections] == WORKLOADS
    for name, section in zip(WORKLOADS, sections, strict=True):
        sim, host = result["sim"][name], result["host"][name]
        assert not set(sim["per_layer"]) & set(host["per_layer"])
        assert set(sim["per_layer"]) | set(host["per_layer"]) == per_layer
        expected = {m[0] for m in metrics.LEDGER_END_TO_END
                    if metrics.applies(m[0], name)}
        assert set(sim["end_to_end"]) | set(host["end_to_end"]) == expected
        lines = [line.split()[0] for line in section.splitlines()[2:]
                 if line.startswith("  ")]
        assert sorted(lines) == sorted(expected | per_layer)
        assert sim["attempted_ops"] > 0
        assert sim["failed_ops"] == sim["refused_ops"]
    assert list(result)[-1] == "claim" and result["claim"] is None


def test_simulated_block_repeats_exactly(smoke):
    _, (a, b), _ = smoke
    assert a["sim"] == b["sim"]
    assert json.dumps(a["sim"], sort_keys=True) == json.dumps(
        b["sim"], sort_keys=True)


def test_trace_attributes_the_wall(smoke):
    _, (result, _), _ = smoke
    for name in WORKLOADS:
        layers = result["host"][name]["per_layer"]
        assert layers["perf.attributed_share"] >= 0.9
        assert layers["perf.trace_overhead_share"] > -0.5
    churn = result["host"]["churn_failover"]["per_layer"]
    assert churn["core.assets.apply_graph_updates_s"] > 0
    assert result["host"]["point_cold"]["per_layer"][
        "core.assets.apply_graph_updates_s"] == 0


def _patch_targets():
    from repro.core import (
        AdmissionController, GraphAssets, GraphService, LiveUpdateManager,
        PlacementManager, ProcessorCache, QuerySession, Router,
    )
    from repro.core import processor, routing
    from repro.core.operators import sampling, traversals, walks
    from repro.sim import Environment
    from repro.storage import StorageTier

    owners = [
        (Environment, ("run",)),
        (GraphService, ("open",)),
        (QuerySession, ("stream", "serve", "report")),
        (Router, ("submit", "on_ack")),
        (AdmissionController, ("offer", "pump")),
        (ProcessorCache, ("get_many", "put_many", "invalidate_many")),
        (StorageTier, ("multiput_process",)),
        (LiveUpdateManager, ("apply", "apply_process")),
        (GraphAssets, ("apply_graph_updates", "landmark_index", "embedding")),
        (PlacementManager, ("plan",)),
        (processor, ("execute_query",)),
        (traversals, ("gather_nodes",)),
        (walks, ("gather_nodes",)),
        (sampling, ("gather_nodes",)),
        (routing.RoutingStrategy, ("on_feedback",)),
        (routing.HashRouting, ("choose",)),
        (routing.NextReadyRouting, ("choose",)),
        (routing.LandmarkRouting, ("choose",)),
        (routing.EmbedRouting, ("choose",)),
        (routing.AdaptiveRouting, ("choose", "on_feedback")),
    ]
    return {(owner.__name__, name): vars(owner)[name]
            for owner, names in owners for name in names}


def test_tracer_restores_every_patched_attribute():
    before = _patch_targets()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _patch_targets()
        assert all(during[key] is not before[key] for key in before)
    finally:
        tracer.uninstall()
    after = _patch_targets()
    assert all(after[key] is before[key] for key in before)


def test_check_refuses_a_corrupted_result(smoke, tmp_path):
    (path, _), (result, _), _ = smoke
    assert check.main([str(path)]) == 0
    for corrupt in (
        lambda r: r["sim"]["slo_open"]["check"].__setitem__(
            "completed", r["sim"]["slo_open"]["check"]["completed"] - 1),
        lambda r: r["sim"]["mix_closed"]["check"]["digests"].append("0" * 64),
        lambda r: r["sim"]["point_cold"].__setitem__("failed_ops", 7),
        lambda r: r["sim"]["mix_closed"]["check"].__setitem__(
            "oracle_mismatches", 1),
    ):
        broken = copy.deepcopy(result)
        corrupt(broken)
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(broken))
        assert check.main([str(bad)]) == 1


def test_compare_agrees_with_itself_and_flags_a_regression(smoke, tmp_path):
    (path_a, _), (result, other), _ = smoke
    rows, problems = compare.compare(result, result)
    assert not problems
    assert {row[2] for row in rows} <= {"identical", "within-bound"}
    assert compare.main([str(path_a), str(path_a)]) == 0
    # Two smoke runs side by side: host numbers are noise at this scale,
    # every exact row must still be identical.
    rows, problems = compare.compare(result, other)
    assert not problems
    assert {row[2] for row in rows
            if row[1] not in compare.HOST_BOUNDS} == {"identical"}
    slower = copy.deepcopy(result)
    rate = slower["host"]["mix_closed"]["end_to_end"]["host_ops_per_s"]
    for key in ("median", "q1", "q3"):
        rate[key] *= 0.5
    changed = slower["sim"]["point_cold"]["end_to_end"]
    changed["sim_mean_response_us"] *= 1.0001
    bad = tmp_path / "slower.json"
    bad.write_text(json.dumps(slower))
    assert compare.main([str(path_a), str(bad)]) == 1
    verdicts = {(row[0], row[1]): row[2]
                for row in compare.compare(result, slower)[0]}
    assert verdicts["mix_closed", "host_ops_per_s"] == "regressed"
    assert verdicts["point_cold", "sim_mean_response_us"] == "regressed"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_line_has_the_contract_shape(trace):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--workload",
         "slo_open", "--seed", "5", "--seconds", "0.2", "--trace", trace],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stdout
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    wanted = manifest["per_layer" if trace == "1" else "end_to_end"]
    assert list(line["metrics"]) == [e["name"] for e in wanted]
    for entry in wanted:
        value = line["metrics"][entry["name"]]
        assert value["unit"] == entry["unit"]
        assert isinstance(value["value"], (int, float))
        if trace == "0":
            assert value["value"] > 0
