"""The perf ledger's one command.

Ledger (what people run)::

    python perf/run.py [--seed 17]     # four workloads, every end-to-end metric
    python perf/run.py --trace         # one traced rep each: per-layer metrics
    python perf/run.py --smoke         # scale 0.05, inputs / 10, both parts

Both parts land in one result file (``--out``, default
``perf/out/result.json``): a deterministic ``sim`` block and a ``host``
block, per workload. A run replaces only the part it measured, so
``run.py && run.py --trace`` yields one complete trajectory point.

Driver (what ``BENCHMARK.json`` names)::

    python3 perf/run.py --workload W --seed N --seconds T --trace 0|1

prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit status is non-zero on any correctness
problem, and when there is no program next to ``perf/`` to measure.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT = PERF / "out"

#: Ledger protocol: launches per workload and timed reps per launch.
LAUNCH_ROUNDS = 3
TIMED_REPS = 2
#: Driver protocol: set-up samples per run (one full launch + the rest
#: set-up only), so ``setup_s`` is a median like every other host metric;
#: and inputs drawn per run, which the timed reps cycle through, so the
#: medians average over input draws as well as machine noise.
DRIVER_SETUPS = 3
DRIVER_DRAWS = 3

CLEARED = ("REPRO_KERNEL", "REPRO_SANITIZE", "REPRO_BENCH_SCALE",
           "REPRO_BENCH_RESULTS")
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED}
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(workload: str, seed: int, mode: str, *extra: str) -> Dict[str, object]:
    """Run one launch to completion in a fresh subprocess."""
    command = [
        sys.executable, str(PERF / "launch.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--t0", repr(time.monotonic()), *extra,
    ]
    done = subprocess.run(command, env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"launch {workload}/{mode} failed "
                         f"(exit {done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def acquire_lock():
    """One measuring ``run.py`` at a time: two would share the cores."""
    OUT.mkdir(exist_ok=True)
    handle = open(OUT / "run.lock", "w")
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        handle.close()
        raise SystemExit(
            "another perf/run.py holds perf/out/run.lock; refusing to "
            "measure beside it") from None
    handle.write(f"{os.getpid()}\n")
    handle.flush()
    return handle


def stats(samples: List[float]) -> Dict[str, object]:
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def ops_per_s(launch: Dict[str, object]) -> List[float]:
    return [ops / wall for ops, wall
            in zip(launch["rep_ops"], launch["rep_walls"], strict=True)]


# -- driver mode ----------------------------------------------------------------
def driver(args) -> int:
    import check
    import metrics

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    smoke = ["--smoke"] if args.smoke else []
    draws = ["--draws", str(DRIVER_DRAWS)]
    lock = None if args.smoke else acquire_lock()
    try:
        if args.trace:
            extra = ["--overload"] if args.workload == "slo_open" else []
            main = spawn(args.workload, args.seed, "trace", *smoke, *extra)
            values = dict(main["layers_sim"], **main["layers_host"],
                          **main["sim"], peak_rss_mb=main["peak_rss_mb"])
            values.setdefault("sim_overload_slo_miss_share", 0.0)
            wanted = manifest["per_layer"]
        else:
            main = spawn(args.workload, args.seed, "measure", *smoke, *draws,
                         "--seconds", str(args.seconds))
            setups = [main["setup_s"]] + [
                spawn(args.workload, args.seed, "setup", *smoke,
                      *draws)["setup_s"]
                for _ in range(DRIVER_SETUPS - 1)
            ]
            values = dict(main["sim"])
            values.update({
                "setup_s": statistics.median(setups),
                "host_ops_per_s": statistics.median(ops_per_s(main)),
            })
            wanted = manifest["end_to_end"]
    finally:
        if lock is not None:
            lock.close()
    blocks = main["checks"]
    problems = [
        problem for draw, block in enumerate(blocks)
        for problem in check.check_block(f"{args.workload}[draw {draw}]", block)
    ]
    for problem in problems:
        print(f"FAIL {problem}")
    # Arrivals the admission layer refuses on purpose are not failures of
    # the program; they count against the SLO (sim_slo_miss_share).
    timed = [blocks[draw] for draw in main["rep_draws"]]
    units = metrics.units()
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(check.attempted_ops(b) for b in timed),
        "failed": sum(check.failed_ops(b) - check.refused_ops(b)
                      for b in timed),
        "metrics": {
            entry["name"]: {"value": values[entry["name"]],
                            "unit": units[entry["name"]]}
            for entry in wanted
        },
    }))
    return 1 if problems else 0


# -- ledger mode ------------------------------------------------------------------
def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() or "unknown"


def load_result(path: Path, seed: int, smoke: bool) -> Dict[str, object]:
    """The result file to update: the existing one when it holds the same
    seed and scale (so a plain run and a ``--trace`` run accumulate into
    one point), else a fresh one."""
    if path.exists():
        existing = json.loads(path.read_text())
        if existing.get("seed") == seed and existing.get("smoke") == smoke:
            return existing
    return {"schema": 1, "seed": seed, "smoke": smoke, "sim": {}, "host": {}}


def ledger(args) -> int:
    import check
    import metrics
    import workloads

    names = [w.name for w in workloads.WORKLOADS]
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    smoke = ["--smoke"] if args.smoke else []
    lock = None if args.smoke else acquire_lock()
    measured: Dict[str, List[Dict[str, object]]] = {n: [] for n in names}
    traced: Dict[str, Dict[str, object]] = {}
    try:
        if args.smoke or args.trace:
            print("launch order: " + " ".join(f"{n}/trace" for n in names))
            for name in names:
                extra = ["--trace-out",
                         str(out_path.with_suffix(f".trace.{name}.json"))]
                if name == "slo_open":
                    extra.append("--overload")
                traced[name] = spawn(name, args.seed, "trace", *smoke, *extra)
        else:
            # Round-robin, so machine drift hits all four workloads alike.
            order = [(r, n) for r in range(LAUNCH_ROUNDS) for n in names]
            print("launch order: " + " ".join(f"{n}#{r}" for r, n in order))
            for round_, name in order:
                extra = ["--reps", str(TIMED_REPS)]
                if name == "slo_open" and round_ == 0:
                    extra.append("--overload")
                measured[name].append(
                    spawn(name, args.seed, "measure", *extra))
    finally:
        if lock is not None:
            lock.close()

    result = load_result(out_path, args.seed, args.smoke)
    problems: List[str] = []
    for name in names:
        sim = result["sim"].setdefault(name, {"per_layer": {}})
        host = result["host"].setdefault(name, {"per_layer": {}})
        # End-to-end numbers always come from untraced reps: the measure
        # launches, or under --smoke the traced launch's untraced twin.
        launches = measured[name] or ([traced[name]] if args.smoke else [])
        if launches:
            first = launches[0]
            block = dict(first["checks"][0])
            block["digests"] = [
                d for l in launches for d in l["checks"][0]["digests"]]
            for other in launches[1:]:
                same = {k: first["sim"][k] for k in other["sim"]}
                if other["sim"] != same or other["checks"][0]["problems"]:
                    block["problems"] = block["problems"] + [
                        "a later launch disagrees with the first"]
            sim.update({
                "attempted_ops": check.attempted_ops(block),
                "failed_ops": check.failed_ops(block),
                "refused_ops": check.refused_ops(block),
                "sim_digest": first["sim_digest"],
                "check": block,
                "end_to_end": {k: v for k, v in sorted(first["sim"].items())
                               if metrics.applies(k, name)},
            })
            sim["per_layer"].update(first["layers_sim"])
            host["end_to_end"] = {
                "setup_s": stats([l["setup_s"] for l in launches]),
                "host_ops_per_s": stats(
                    [rate for l in launches for rate in ops_per_s(l)]),
                "peak_rss_mb": stats([l["peak_rss_mb"] for l in launches]),
            }
            problems += check.check_block(name, block)
        if name in traced:
            sim["per_layer"].update(traced[name]["layers_sim"])
            host["per_layer"] = dict(
                sorted(traced[name]["layers_host"].items()))
            if not args.smoke:
                problems += check.check_block(name, traced[name]["checks"][0])
        sim["per_layer"] = dict(sorted(sim["per_layer"].items()))

    any_launch = (measured[names[0]] or [traced[names[0]]])[0]
    result["host"]["env"] = dict(
        any_launch["env"], nproc=os.cpu_count(), git_sha=git_sha())
    # Deterministic payload first, run metadata after, the claim last:
    # defining the benchmark claims no gain.
    result = {
        "schema": result["schema"], "seed": result["seed"],
        "smoke": result["smoke"],
        "sim": dict(sorted(result["sim"].items())),
        "host": dict(sorted(result["host"].items())),
        "claim": None,
    }
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    report(result, names, metrics.units())
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"result file: {out_path}")
    return 1 if problems else 0


def report(result: Dict[str, object], names: List[str],
           units: Dict[str, str]) -> None:
    """Print every metric by name with its unit, one workload at a time."""
    print(f"seed {result['seed']}; modelled caches start empty every rep; "
          "open-loop arrivals are injected at simulated timestamps, so "
          "generator lateness is 0 s by construction")
    for name in names:
        sim, host = result["sim"][name], result["host"][name]
        print(f"\n== {name}")
        if "check" in sim:
            print(f"  attempted_ops {sim['attempted_ops']}  failed_ops "
                  f"{sim['failed_ops']} (of which refused by admission "
                  f"{sim['refused_ops']})  sim_digest {sim['sim_digest']}")
        for metric, s in host.get("end_to_end", {}).items():
            print(f"  {metric:44s} {s['median']:14.4f} {units[metric]:6s} "
                  f"[q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n {s['n']}]")
        for metric, value in sim.get("end_to_end", {}).items():
            print(f"  {metric:44s} {value:14.4f} {units[metric]}")
        layers = dict(sim["per_layer"], **host["per_layer"])
        for metric in sorted(layers):
            print(f"  {metric:44s} {layers[metric]:14.4f} {units[metric]}")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=str(OUT / "result.json"))
    parser.add_argument("--workload", help="driver mode: run this workload")
    parser.add_argument("--seconds", type=float,
                        help="driver mode: how long to measure")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is not None:
        if args.seconds is None:
            parser.error("--workload needs --seconds")
        return driver(args)
    return ledger(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
