"""Compare two ledger result files: ``python perf/compare.py A.json B.json``.

A is the baseline (parent commit, or the first of two runs of one
commit), B the candidate. One row per (metric, workload), never a
combined score:

* simulated metrics, counts and ``sim_digest`` compare **exactly**
  (1e-9 relative): any difference is *simulated results changed*, not
  noise, and is reported as ``improved`` or ``regressed`` by direction;
* host metrics compare medians against the ledger's fixed-seed bound
  (:data:`HOST_BOUNDS`): ``regressed`` when B is worse by more than the
  bound, ``improved`` when better by more than the bound, else
  ``within-bound`` — or ``unresolved`` when either side's own quartile
  spread is wider than the bound, so the run cannot tell.

Exit status is non-zero on any regression, on a higher
``failed_ops / attempted_ops``, or when the two files are not comparable.
A changed ``sim_digest`` alone is printed, loudly, but does not fail: the
metric rows say whether the change was for the better.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
EXACT_RTOL = 1e-9

#: Regression bounds of the host metrics when both files hold the same
#: seed, so only machine noise separates them. (``BENCHMARK.json`` bounds
#: the driver's runs, whose inputs change with the seed: they are wider.)
HOST_BOUNDS = {"setup_s": 0.10, "host_ops_per_s": 0.07, "peak_rss_mb": 0.05}
#: ``churn_failover`` reps are the noisiest (allocation-heavy CSR splices).
WORKLOAD_HOST_BOUNDS = {("churn_failover", "host_ops_per_s"): 0.10}


def _manifest() -> Dict[str, Dict[str, object]]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry
            for entry in manifest["end_to_end"] + manifest["per_layer"]}


def exact_verdict(a: float, b: float, better: str) -> str:
    if a == b or abs(b - a) <= EXACT_RTOL * max(abs(a), abs(b)):
        return "identical"
    worse = b > a if better == "lower" else b < a
    return "regressed" if worse else "improved"


def host_verdict(a: Dict[str, float], b: Dict[str, float], better: str,
                 bound: float) -> str:
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if spread > bound:
        return "unresolved"
    worse = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        worse = -worse
    if worse > bound:
        return "regressed"
    return "improved" if worse < -bound else "within-bound"


def compare(a: Dict[str, object], b: Dict[str, object]
            ) -> Tuple[List[Tuple[str, str, str, str]], List[str]]:
    """Rows ``(workload, metric, verdict, detail)`` and fatal problems."""
    manifest = _manifest()
    rows: List[Tuple[str, str, str, str]] = []
    problems: List[str] = []
    if (a["seed"], a["smoke"]) != (b["seed"], b["smoke"]):
        problems.append("the two files differ in seed or scale: not comparable")
    for workload in sorted(set(a["sim"]) | set(b["sim"])):
        if workload not in a["sim"] or workload not in b["sim"]:
            problems.append(f"{workload}: missing from one file")
            continue
        sim_a, sim_b = a["sim"][workload], b["sim"][workload]
        if "check" in sim_a and "check" in sim_b:
            same = sim_a["sim_digest"] == sim_b["sim_digest"]
            rows.append((workload, "sim_digest",
                         "identical" if same else "changed",
                         "" if same else "simulated results changed"))
            share_a = sim_a["failed_ops"] / sim_a["attempted_ops"]
            share_b = sim_b["failed_ops"] / sim_b["attempted_ops"]
            rows.append((workload, "failed_ops/attempted_ops",
                         "regressed" if share_b > share_a else "identical"
                         if share_b == share_a else "improved",
                         f"{share_a:.6f} -> {share_b:.6f}"))
        for part in ("end_to_end", "per_layer"):
            values_a, values_b = sim_a.get(part, {}), sim_b.get(part, {})
            for metric in sorted(set(values_a) & set(values_b)):
                verdict = exact_verdict(values_a[metric], values_b[metric],
                                        manifest[metric]["better"])
                rows.append((workload, metric, verdict,
                             "" if verdict == "identical" else
                             f"{values_a[metric]!r} -> {values_b[metric]!r} "
                             "(simulated results changed)"))
        host_a = a["host"][workload].get("end_to_end", {})
        host_b = b["host"][workload].get("end_to_end", {})
        for metric in sorted(set(host_a) & set(host_b)):
            bound = WORKLOAD_HOST_BOUNDS.get((workload, metric),
                                             HOST_BOUNDS[metric])
            verdict = host_verdict(host_a[metric], host_b[metric],
                                   manifest[metric]["better"], bound)
            rows.append((
                workload, metric, verdict,
                f"{host_a[metric]['median']:.4f} -> "
                f"{host_b[metric]['median']:.4f} "
                f"(bound {bound:.0%}, n {host_a[metric]['n']}"
                f"/{host_b[metric]['n']})"))
    return rows, problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python perf/compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    rows, problems = compare(a, b)
    for workload, metric, verdict, detail in rows:
        if verdict != "identical":
            print(f"{workload:16s} {metric:48s} {verdict:13s} {detail}")
    identical = sum(1 for row in rows if row[2] == "identical")
    print(f"{identical} of {len(rows)} rows identical (exact comparison)")
    for problem in problems:
        print(f"FAIL {problem}")
    bad = [row for row in rows if row[2] == "regressed"]
    return 1 if bad or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
