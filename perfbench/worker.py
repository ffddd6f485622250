"""One benchmark pass, run in a fresh interpreter so every cache starts cold.

Usage: python3 perfbench/worker.py SPEC.json   (with src/ on PYTHONPATH)

The worker imports cubeiso, prints "ready" (the parent times set-up up to
that line), runs the spec's workload, and writes its result as JSON to the
spec's "result" path.  Only the workload's calls into cubeiso are timed;
reference checks run after the timed region, with tracing switched off.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import re
import resource
import statistics
import sys
import time
from fractions import Fraction

from cubeiso import claims, cli, gauss, oracle
from cubeiso.bounds import BOUND_IDS
from cubeiso.interval import Interval, normal_cdf, normal_quantile

import tracer as tracing

perf = time.perf_counter


# ---------------------------------------------------------------------------
# Workloads: each returns (timed seconds, details for the parent)
# ---------------------------------------------------------------------------

def run_prove(spec):
    argv = ["verify-all", "--emit", spec["emit_dir"], "--summary-json", spec["summary"]]
    if spec.get("threads"):
        argv += ["--threads", str(spec["threads"])]
    with open(spec["log"], "w") as log, contextlib.redirect_stdout(log):
        t0 = perf()
        rc = cli.main(argv)
        wall = perf() - t0
    units = [[c.claim_id, r.run_tag] for c in claims.registry() for r in c.runs]
    return wall, {"rc": rc, "units": units}


def run_check(spec):
    outcomes = []
    t_all = perf()
    for item in spec["inputs"]:
        t0 = perf()
        with open(item["path"], "rb") as fh:
            data = fh.read()
        try:
            report = claims.verify_certificate_bytes(data)
            outcome, detail = ("accepted" if report.ok else "rejected"), ""
        except (ValueError, KeyError) as exc:
            outcome, detail = "rejected", type(exc).__name__
        except Exception as exc:  # a crash is counted as a failed op, not hidden
            outcome, detail = "crashed", f"{type(exc).__name__}: {exc}"
        outcomes.append({"outcome": outcome, "detail": detail, "s": perf() - t0})
    return perf() - t_all, {"outcomes": outcomes}


def run_oracle(spec):
    results = []
    t_all = perf()
    for op in spec["ops"]:
        buf = io.StringIO()
        t0 = perf()
        try:
            with contextlib.redirect_stdout(buf):
                rc, detail = cli.main(op["argv"]), ""
        except Exception as exc:  # counted as a failed op
            rc, detail = None, f"{type(exc).__name__}: {exc}"
        results.append({"rc": rc, "detail": detail, "stdout": buf.getvalue(),
                        "s": perf() - t0})
    return perf() - t_all, {"results": results}


WORKLOADS = {"prove": run_prove, "check": run_check, "oracle": run_oracle}


# ---------------------------------------------------------------------------
# Reference checks for the oracle workload (criteria 4, 6 and 7)
# ---------------------------------------------------------------------------

def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def oracle_reference_ok(op, result):
    """Whether one oracle call's output passes its reference check."""
    if result["rc"] != 0:
        return False
    kind, p = op["kind"], op.get("params", {})
    if kind == "poincare":
        found = re.search(r"; (\d+) subsets below 1", result["stdout"])
        return found is not None and int(found.group(1)) == 0
    rows = _rows(op["out"])
    if kind == "plot-data":
        if len(rows) != p["rows"] or len(rows[0]) != p["cols"]:
            return False
        if not all(math.isfinite(float(v)) for row in rows for v in row.values()):
            return False
        # The bounds figure carries the envelope at beta 1/2, depth 8.
        return p.get("envelope") is None or envelope_ok(
            [float(row["envelope"]) for row in rows], **p["envelope"])
    if kind == "profile":
        n = p["n"]
        want = [0] + [oracle.hart_profile(k, n) for k in range(1, (1 << n) + 1)]
        return len(rows) == len(want) and all(
            Fraction(row["value"]) == w for row, w in zip(rows, want))
    if kind == "envelope":
        return envelope_ok([float(row["value"]) for row in rows], p["beta"], p["depth"])
    raise ValueError(f"unknown oracle op kind {kind!r}")


def envelope_ok(values, beta, depth):
    """Criterion 7: the envelope is within 1e-3 of hart_profile at beta = 1,
    and within 5e-4 of J on [1/2, 1] at beta = 1/2."""
    size = 1 << depth
    if len(values) != size + 1:
        return False
    if beta == 1.0:
        worst = max(abs(values[k] - (float(oracle.hart_profile(k, depth)) if k else 0.0))
                    for k in range(size + 1))
        return worst <= 1e-3
    worst = max(abs(values[k] - gauss.j_point(k / size).mid)
                for k in range(size // 2, size + 1))
    return worst <= 5e-4


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def micro_loop(seed, chunks=5):
    """Seeded per-op costs of the interval kernel and the Gaussian layer.

    Each op's operands are split into chunks that are timed round-robin
    across the ops, and the median chunk is reported, so that a burst of
    machine noise moves one chunk rather than one op.  Points are fresh
    random floats, so J and J' corners miss the point caches.
    """
    rng = random.Random(seed)
    n = 20000
    ivs = []
    for _ in range(2 * n):
        lo = rng.uniform(-2.0, 2.0)
        ivs.append(Interval(lo, lo + rng.uniform(0.0, 1.0)))
    singles = [(a,) for a in ivs[:n]]
    pos = [(Interval(a, a + rng.uniform(0.0, 0.5)),)
           for a in (rng.uniform(0.05, 4.0) for _ in range(n))]
    expo = Interval(0.7)
    lo_dom = gauss.profile_constants().domain_lo.hi
    cases = [
        ("interval.mul_ns", lambda a, b: a * b, list(zip(ivs[:n], ivs[n:])), 1e9),
        ("interval.add_ns", lambda a, b: a + b, list(zip(ivs[:n], ivs[n:])), 1e9),
        ("interval.exp_ns", lambda a: a.exp(), singles, 1e9),
        ("interval.log_ns", lambda a: a.log(), pos, 1e9),
        ("interval.ipow_ns", lambda a: a.ipow(3), singles, 1e9),
        ("interval.pow_ns", lambda a: a.pow(expo), pos, 1e9),
        ("interval.normal_cdf_us", normal_cdf,
         [(Interval(rng.uniform(-4.0, 4.0)),) for _ in range(300)], 1e6),
        ("interval.normal_quantile_us", normal_quantile,
         [(Interval(rng.uniform(0.01, 0.99)),) for _ in range(150)], 1e6),
        ("gauss.j_corner_cold_us", lambda x: (gauss.j_point(x), gauss.jprime_point(x)),
         [(rng.uniform(lo_dom, 0.999),) for _ in range(100)], 1e6),
    ]
    samples = {name: [] for name, *_ in cases}
    for k in range(chunks):
        for name, fn, operands, scale in cases:
            part = operands[k::chunks]
            t0 = perf()
            for args in part:
                fn(*args)
            samples[name].append((perf() - t0) / len(part) * scale)
    return {name: statistics.median(v) for name, v in samples.items()}


def layer_names():
    """Every per-layer metric name, built from cubeiso's claim registry and
    bound ids, so that a renamed claim or bound renames its metrics."""
    reg = claims.registry()
    names = [f"interval.{op}_ns" for op in ("mul", "add", "exp", "log", "ipow", "pow")]
    names += ["interval.normal_cdf_us", "interval.normal_quantile_us",
              "gauss.profile_constants_s", "gauss.j_corner_cold_us",
              "gauss.normal_quantile.calls", "gauss.normal_quantile.self_s",
              "gauss.normal_quantile.endpoints", "gauss.normal_quantile.endpoints_distinct",
              "gauss.j_point.calls", "gauss.j_point.distinct",
              "gauss.jprime_point.calls", "gauss.jprime_point.distinct"]
    for b in BOUND_IDS:
        names += [f"bounds.{b}.evals", f"bounds.{b}.self_s", f"bounds.{b}.evals_per_s"]
    names += ["partition.evaluations", "partition.self_s", "partition.emit_s"]
    names += [f"partition.accepted_at_depth.{d}"
              for d in range(max(c.max_depth for c in reg) + 1)]
    names += ["partition.load_s", "partition.verify_self_s", "partition.verify_us_per_rect"]
    names += [f"claims.run_claim.{c.claim_id}.s" for c in reg]
    names += [f"claims.check.{c.claim_id}.s" for c in reg]
    names += ["claims.cert_rects", "claims.ref_margins_met",
              "funcs.run_scalar_checks_s", "funcs.b.calls", "funcs.b.self_s",
              "oracle.envelope_approx.s", "oracle.profile_bruteforce.s",
              "oracle.poincare_exhaustive.s", "oracle.envelope_approx.scans",
              "trace.overhead_s"]
    return names


def layer_metrics(summary):
    """Per-layer metrics from the span summary of Tracer.summarize()."""
    def spans(name):
        return summary.get(name, {"durations": [], "cpus": [], "selfs": [], "attrs": []})

    m = {}
    nq = spans("gauss.normal_quantile")
    ends = [e for e in nq["attrs"] if e is not None]
    points = [e[0] for e in ends] + [e[1] for e in ends if e[1] != e[0]]
    m["gauss.profile_constants_s"] = sum(spans("gauss.profile_constants")["durations"][:1])
    m["gauss.normal_quantile.calls"] = len(nq["attrs"])
    m["gauss.normal_quantile.self_s"] = sum(nq["selfs"])
    m["gauss.normal_quantile.endpoints"] = len(points)
    m["gauss.normal_quantile.endpoints_distinct"] = len(set(points))
    for fn in ("j_point", "jprime_point"):
        attrs = spans(f"gauss.{fn}")["attrs"]
        m[f"gauss.{fn}.calls"] = len(attrs)
        m[f"gauss.{fn}.distinct"] = len(set(attrs))

    ev = spans("bounds.eval_bound_fn")
    for fn_id in BOUND_IDS:
        picked = [i for i, a in enumerate(ev["attrs"]) if a == fn_id]
        cpu = sum(ev["cpus"][i] for i in picked)
        m[f"bounds.{fn_id}.evals"] = len(picked)
        m[f"bounds.{fn_id}.self_s"] = sum(ev["selfs"][i] for i in picked)
        m[f"bounds.{fn_id}.evals_per_s"] = len(picked) / cpu if cpu > 0 else 0.0

    part = spans("partition.partition")
    m["partition.evaluations"] = sum(part["attrs"])
    m["partition.self_s"] = sum(part["selfs"])
    m["partition.emit_s"] = sum(spans("partition.emit")["durations"])
    ver = spans("partition.verify_certificate")
    rects = sum(ver["attrs"])
    m["partition.load_s"] = sum(spans("partition.load")["durations"])
    m["partition.verify_self_s"] = sum(ver["selfs"])
    m["partition.verify_us_per_rect"] = sum(ver["selfs"]) / rects * 1e6 if rects else 0.0

    rc = spans("claims.run_claim")
    for claim in claims.registry():
        m[f"claims.run_claim.{claim.claim_id}.s"] = sum(
            d for d, a in zip(rc["durations"], rc["attrs"]) if a == claim.claim_id)

    m["funcs.run_scalar_checks_s"] = sum(spans("funcs.run_scalar_checks")["durations"])
    m["funcs.b.calls"] = len(spans("funcs.b")["attrs"])
    m["funcs.b.self_s"] = sum(spans("funcs.b")["selfs"])
    for fn in ("envelope_approx", "profile_bruteforce", "poincare_exhaustive"):
        m[f"oracle.{fn}.s"] = sum(spans(f"oracle.{fn}")["durations"])
    m["oracle.envelope_approx.scans"] = sum(spans("oracle.envelope_approx")["attrs"])
    return m


# ---------------------------------------------------------------------------

def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    print("ready", flush=True)
    if spec["workload"] == "setup":
        return 0
    # Nothing else is read from the pipe, so nothing more may be written to it.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    tracer = None
    if spec.get("trace"):
        tracer = tracing.Tracer()
        tracing.install(tracer)
    wall, details = WORKLOADS[spec["workload"]](spec)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"wall_s": wall, "peak_rss_mb": rss_mb, **details}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spec["spans"], f"workload={spec['workload']} seed={spec['seed']}")
        out["layers"] = layer_metrics(tracer.summarize())
        out["layers"].update(micro_loop(spec["seed"]))
        out["layer_names"] = layer_names()
    if spec["workload"] == "oracle":
        out["reference_ok"] = [oracle_reference_ok(op, res)
                               for op, res in zip(spec["ops"], details["results"])]
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
