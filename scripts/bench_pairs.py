#!/usr/bin/env python3
"""Paired runs of the benchmark on two checkouts, written as one BENCH file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \
        [--workloads prove check oracle] [--pairs 10] [--seed0 2001] [--trace]

Each DIR is a checkout with src/ and perfbench/.  Pair k runs both sides on
seed seed0 + k, the parent first on even k and the change first on odd k.
A run is `python3 perfbench/run.py --workload W --seed S --seconds T` in the
side's own directory, with T the change's BENCHMARK.json run_seconds, so
every pass starts a fresh worker interpreter with cold caches.  With
--trace, three traced runs per side and workload, on seeds seed0 + k for
k = 0, 1, 2 and with the side that runs first alternating as above, add the
per-layer metrics: every traced value, each side's median and the ratio of
the medians.

For each end-to-end metric the file holds every run, each side's median and
quartiles (statistics.quantiles, exclusive method), the pairs the change
won, and whether the change passes the gain rule: it wins at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile distance.  The file is rewritten after every run.

An existing --out is resumed: each workload continues after the pairs it
holds.  Every run records the src digest its side printed, and a traced
series records both; if one of them differs from the digest of the
checkout now given for that side, the file holds another tree's runs, and
the script names the side and exits with code 2 without running anything.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

TRACED_RUNS = 3


def bench_run(checkout, workload, seed, seconds, trace=False):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each side its own src/
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    src = re.search(r"src=([0-9a-f]+)", proc.stdout)
    return {"seed": seed, "src": src.group(1) if src else None, "run_s": round(elapsed, 1),
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def src_digest(checkout):
    """The src digest perfbench/run.py prints in checkout, by that checkout's
    own tree_digest, so that it matches what the runs recorded."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_run", os.path.join(checkout, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.tree_digest(os.path.join(checkout, "src"))[:12]


def foreign_run(workloads, digests):
    """(workload, side, recorded digest) of the first recorded run, or
    traced series, whose side's digest is not digests[side]; else None."""
    for workload, entry in workloads.items():
        series = [{side: pair[side]["src"] for side in digests} for pair in entry["runs"]]
        if "trace" in entry:
            series.append(entry["trace"].get("src", {}))
        for recorded in series:
            for side, digest in digests.items():
                if recorded.get(side) != digest:
                    return workload, side, recorded.get(side)
    return None


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs, better):
    """Per end-to-end metric: both sides' spread, pair wins and the gain rule."""
    out = {}
    for name in runs[0]["parent"]["metrics"]:
        par = [r["parent"]["metrics"][name] for r in runs]
        chg = [r["change"]["metrics"][name] for r in runs]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        ps, cs = spread(par), spread(chg)
        out[name] = {
            "parent": {**ps, "runs": par}, "change": {**cs, "runs": chg},
            "change_over_parent": cs["median"] / ps["median"] if ps["median"] else None,
            "pairs_won_by_change": wins, "pairs": len(runs),
            "gain_rule_met": (wins >= 0.9 * len(runs)
                              and sign * (cs["median"] - ps["median"]) > ps["q3"] - ps["q1"]),
        }
    return out


def layer(name, traced):
    """One per-layer metric over the traced runs: every value, each side's
    median, and the change's median over the parent's."""
    out = {}
    for side, runs in traced.items():
        values = [m[name] for m in runs if name in m]
        out[side] = statistics.median(values) if values else None
        out[f"{side}_runs"] = values
    par, chg = out["parent"], out["change"]
    out["change_over_parent"] = chg / par if par and chg is not None else None
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="+", default=["prove", "check", "oracle"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=2001)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds}",
        # cpus_available is what verify-all's default worker count is read from.
        "machine": {"cpus": os.cpu_count(),
                    "cpus_available": (len(os.sched_getaffinity(0))
                                       if hasattr(os, "sched_getaffinity") else None),
                    "python": platform.python_version(), "platform": platform.platform()},
        "repeats": f"{args.pairs} pairs per workload, order alternating; one run per side "
                   "per pair, each run the mean of its passes",
        "caches": "cold: every pass is a fresh worker interpreter",
        "workloads": {},
    }
    sides = {"parent": args.parent, "change": args.change}
    digests = {side: src_digest(path) for side, path in sides.items()}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc["workloads"] = json.load(fh).get("workloads", {})
        foreign = foreign_run(doc["workloads"], digests)
        if foreign is not None:
            workload, side, src = foreign
            print(f"bench_pairs: {args.out} holds {workload} runs of another {side} tree "
                  f"(src={src}; the {side} checkout has src={digests[side]}); "
                  "give a fresh --out", file=sys.stderr)
            return 2

    def save():
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    for workload in args.workloads:
        entry = doc["workloads"].setdefault(workload, {"runs": []})
        for k in range(len(entry["runs"]), args.pairs):
            seed = args.seed0 + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"order": list(order)}
            for side in order:
                pair[side] = bench_run(sides[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: "
                      f"{pair[side]['metrics'].get('wall_s', 0):.2f} s", flush=True)
            entry["runs"].append(pair)
            entry["summary"] = summarize(entry["runs"], better)
            save()
        if args.trace and "trace" not in entry:
            traced = {"parent": [], "change": []}
            for k in range(TRACED_RUNS):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    run = bench_run(sides[side], workload, args.seed0 + k, seconds, trace=True)
                    traced[side].append(run["metrics"])
                    print(f"{workload} seed {args.seed0 + k} {side}: traced", flush=True)
            entry["trace"] = {
                "seeds": [args.seed0 + k for k in range(TRACED_RUNS)], "src": digests,
                "layers": {name: layer(name, traced) for name in traced["parent"][0]},
            }
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
