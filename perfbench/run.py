"""Benchmark for cubeiso: three user workloads, each in fresh processes.

    python3 perfbench/run.py --workload {prove,check,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.  The
benchmark repeats passes of the workload while the next pass is expected to
end within S seconds (always at least one pass).  Each pass prepares its
inputs from the seed, starts a fresh worker interpreter (perfbench/worker.py)
and waits for it; the time up to the worker's "ready" line is set-up, the
workload's own calls are timed inside the worker, and wall_s is the mean over
the passes.  Set-up is repeated at least SETUP_REPEATS times and reported as
a median.  With --trace 1 a traced pass gives the per-layer
metrics; trace.overhead_s is its time minus that of an untraced pass made
right after it (see NOTES.md for when the recorded untraced times are used
instead).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Every output is checked (see NOTES.md); the
exit code is 0 only when all of them are correct.  Run-time files go to
perfbench/.state/, which git ignores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
STATE = os.path.join(BENCH_DIR, ".state")
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 170
# A traced run adds an untraced pass only if the run, with that pass taken
# as TRACE_PASS_FACTOR times the traced one, ends within TRACE_BUDGET_S.
TRACE_BUDGET_S = 150
TRACE_PASS_FACTOR = 1.3
# Tampered and malformed copies are made of the smallest certificates, so
# that they add little time and little seed-to-seed spread.
TAMPER_POOL = 4
BETA0 = Fraction(32805, 65536)


class BenchError(Exception):
    """The benchmark could not run or an output was wrong."""


# ---------------------------------------------------------------------------
# Files, digests, worker processes
# ---------------------------------------------------------------------------

def tree_digest(root, names=None):
    """sha256 over the relative names and bytes of the files under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if names is not None and rel not in names:
                continue
            h.update(rel.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def start_worker(spec, run_dir):
    """Start a worker on spec and wait for its "ready" line.

    Returns (process, seconds from start to ready).
    """
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    err = open(os.path.join(run_dir, "worker.stderr"), "wb")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path],
        stdout=subprocess.PIPE, stderr=err, env=env)
    err.close()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != b"ready":
        stop(proc)
        raise BenchError(f"worker did not start: {tail(run_dir)}")
    return proc, ready


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def tail(run_dir):
    with open(os.path.join(run_dir, "worker.stderr"), "rb") as fh:
        return fh.read()[-2000:].decode(errors="replace")


def finish_worker(proc, spec, run_dir):
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker still running after {WORKER_TIMEOUT_S} s") from None
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {tail(run_dir)}")
    if spec["workload"] == "setup":
        return None
    with open(spec["result"]) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Certificates (parsed here, independently of the program)
# ---------------------------------------------------------------------------

def dyadic(token):
    num, _, exp = token.partition(":")
    return Fraction(int(num), 1 << int(exp))


def token(fr):
    exp = fr.denominator.bit_length() - 1
    return f"{fr.numerator}:{exp}"


def text_rects(data):
    """(header tokens, rect token lists) of a text certificate."""
    lines = data.decode().splitlines()
    return lines[0].split(), [ln.split() for ln in lines[1:] if ln.strip()]


def accepted_depths(text_certs):
    """{depth: accepted rects}, read from the side lengths of the rects."""
    counts = {}
    for data in text_certs:
        head, rects = text_rects(data)
        side = dyadic(head[8]) - dyadic(head[7])
        for r in rects:
            depth = (side / (dyadic(r[1]) - dyadic(r[0]))).numerator.bit_length() - 1
            counts[depth] = counts.get(depth, 0) + 1
    return counts


def load_json(path):
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def check_digest(src_digest, digest, what):
    """Byte identity: every run of the same source must emit the same bytes."""
    path = os.path.join(STATE, "digests.json")
    known = load_json(path)
    seen = known.setdefault(src_digest, digest)
    if seen != digest:
        raise BenchError(f"{what}: certificate bytes differ from an earlier run of "
                         f"the same source ({digest[:12]} != {seen[:12]})")
    with open(path, "w") as fh:
        json.dump(known, fh, indent=1)


# ---------------------------------------------------------------------------
# Workload: prove
# ---------------------------------------------------------------------------

def prove_spec(run_dir, seed, ctx):
    # The registry is fixed, so prove records the seed but does not use it.
    fresh_dir(os.path.join(run_dir, "certs"))
    return {"workload": "prove", "seed": seed,
            "emit_dir": os.path.join(run_dir, "certs"),
            "summary": os.path.join(run_dir, "summary.json"),
            "log": os.path.join(run_dir, "cli.log")}


def prove_judge(spec, res, ctx):
    with open(spec["summary"]) as fh:
        summary = json.load(fh)
    claims_ok = {c["id"]: c["ok"] for c in summary["claims"]}
    failed = 0
    texts = []
    for claim_id, tag in res["units"]:
        path = os.path.join(spec["emit_dir"], f"{claim_id}.{tag}.cert")
        if claims_ok.get(claim_id) and os.path.exists(path) and os.path.exists(path + ".json"):
            with open(path, "rb") as fh:
                texts.append(fh.read())
        else:
            failed += 1
    failed += sum(not c["ok"] for c in summary["scalar_checks"])
    attempted = len(res["units"]) + len(summary["scalar_checks"])
    correct = res["rc"] == 0 and summary["ok"] is True and failed == 0
    check_digest(ctx["src_digest"], tree_digest(spec["emit_dir"]),
                 f"prove --threads {spec.get('threads', 'default')}")
    layers = {
        "claims.cert_rects": sum(c["rects"] for c in summary["claims"]),
        "claims.ref_margins_met": sum(c["reference_margin_met"] is True
                                      for c in summary["claims"]),
    }
    for d, n in accepted_depths(texts).items():
        layers[f"partition.accepted_at_depth.{d}"] = n
    return correct, attempted, failed, layers


# ---------------------------------------------------------------------------
# Workload: check
# ---------------------------------------------------------------------------

def emitted_certificates(ctx):
    """Every registered certificate, emitted by the code under test.

    A prove pass with one worker thread emits them once per source digest
    into .state/certs-<digest>/, and its digest is checked against the one
    recorded for this source, so byte identity is checked across worker
    counts.  Emitting is what prove measures, so later check runs reuse the
    files, re-hashing them against the recorded digest.
    """
    cert_dir = os.path.join(STATE, "certs-" + ctx["src_digest"][:16])
    complete = cert_dir + ".complete"
    if os.path.exists(complete):
        check_digest(ctx["src_digest"], tree_digest(cert_dir), "check (kept certificates)")
    else:
        run_dir = fresh_dir(os.path.join(STATE, "run", "emit"))
        spec = {"workload": "prove", "seed": 0, "threads": 1, "emit_dir": fresh_dir(cert_dir),
                "summary": os.path.join(run_dir, "summary.json"),
                "log": os.path.join(run_dir, "cli.log"),
                "result": os.path.join(run_dir, "result.json")}
        t0 = time.perf_counter()
        proc, _ = start_worker(spec, run_dir)
        if not prove_judge(spec, finish_worker(proc, spec, run_dir), ctx)[0]:
            raise BenchError("emitting the certificates for check failed")
        print(f"perfbench: emitted certificates in {time.perf_counter() - t0:.1f} s "
              f"(kept for this source digest)")
        open(complete, "w").close()
    names = sorted(n for n in os.listdir(cert_dir) if n.endswith(".cert"))
    return cert_dir, names


def _tamper_text(data, kind, rng):
    head, rects = text_rects(data)
    i = rng.randrange(len(rects))
    if kind == "drop":
        del rects[i]
    elif kind == "duplicate":
        rects.insert(i, list(rects[i]))
    elif kind == "shift":
        lo, hi = dyadic(rects[i][0]), dyadic(rects[i][1])
        w = hi - lo
        if hi + w > dyadic(head[8]):
            w = -w
        rects[i][0], rects[i][1] = token(lo + w), token(hi + w)
    elif kind == "wrong_beta":
        beta = Fraction(head[3]) + Fraction(1, 1 << 20)  # matches no registered run
        head[3] = f"{beta.numerator}/{beta.denominator}"
    elif kind == "rect_1d":
        rects[i] = rects[i][:2]
    elif kind == "beta_zero_den":
        head[3] = head[3].split("/")[0] + "/0"
    return (" ".join(head) + "\n" + "".join(" ".join(r) + "\n" for r in rects)).encode()


def _json_payload(text):
    """The JSON certificate payload of a (possibly tampered) text certificate."""
    head, rects = text_rects(text)

    def pair(t):
        num, _, exp = t.partition(":")
        return [int(num), int(exp)]

    def corners(tokens):
        ds = [pair(t) for t in tokens]
        return ds[0::2] + ds[1::2]

    beta = head[3].split("/")
    c = head[5].split("/")
    return {"beta": [int(beta[0]), int(beta[1])], "c": [int(c[0]), int(c[1])],
            "claim": head[1], "domain": corners(head[7:]),
            "rects": [corners(r) for r in rects]}


def _json_bytes(payload):
    return (json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n").encode()


def check_spec(run_dir, seed, ctx):
    """Every registered certificate in a seeded format and order, plus
    tampered copies and the three malformed inputs that ROADMAP lists."""
    cert_dir, names = ctx["certs"]
    rng = random.Random(seed)
    in_dir = fresh_dir(os.path.join(run_dir, "inputs"))
    inputs = []
    texts = {}
    for name in names:
        with open(os.path.join(cert_dir, name), "rb") as fh:
            texts[name] = fh.read()
        fmt = rng.choice(("text", "json"))
        path = os.path.join(cert_dir, name + (".json" if fmt == "json" else ""))
        inputs.append({"path": path, "kind": "valid", "claim": name.split(".")[0]})
    # A text certificate is a header line plus one line per rect; a 2-D
    # header has 11 tokens.
    rects = {n: texts[n].count(b"\n") - 1 for n in names}
    by_size = sorted((n for n in names if rects[n] >= 2), key=lambda n: (rects[n], n))
    small = by_size[:TAMPER_POOL]
    small_2d = [n for n in by_size
                if len(texts[n].split(b"\n", 1)[0].split()) == 11][:TAMPER_POOL]
    plan = [("drop", small, None), ("duplicate", small, None), ("shift", small, None),
            ("wrong_beta", small, None), ("rect_1d", small_2d, "text"),
            ("beta_zero_den", small, "text"), ("rects_not_list", small, "json")]
    for kind, pool, fmt in plan:
        name = rng.choice(pool)
        fmt = fmt or rng.choice(("text", "json"))
        if kind == "rects_not_list":
            data = _json_bytes({**_json_payload(texts[name]), "rects": 5})
        else:
            data = _tamper_text(texts[name], kind, rng)
            if fmt == "json":
                data = _json_bytes(_json_payload(data))
        path = os.path.join(in_dir, f"{kind}.{name}.{fmt}")
        with open(path, "wb") as fh:
            fh.write(data)
        kind_class = "malformed" if kind in ("rect_1d", "beta_zero_den", "rects_not_list") else "tampered"
        inputs.append({"path": path, "kind": kind_class, "claim": name.split(".")[0]})
    rng.shuffle(inputs)
    return {"workload": "check", "seed": seed, "inputs": inputs}


def check_judge(spec, res, ctx):
    correct, failed = True, 0
    for item, out in zip(spec["inputs"], res["outcomes"]):
        want = "accepted" if item["kind"] == "valid" else "rejected"
        if out["outcome"] == "crashed":
            failed += 1
            print(f"perfbench: check crashed on {item['kind']} "
                  f"{os.path.basename(item['path'])}: {out['detail']}")
            correct = correct and item["kind"] != "valid"
        elif out["outcome"] != want:
            failed += 1
            correct = False
            print(f"perfbench: WRONG VERDICT {out['outcome']} on {item['kind']} "
                  f"{os.path.basename(item['path'])}")
    layers = {}
    for item, out in zip(spec["inputs"], res["outcomes"]):
        if item["kind"] == "valid":
            key = f"claims.check.{item['claim']}.s"
            layers[key] = layers.get(key, 0.0) + out["s"]
    return correct, len(spec["inputs"]), failed, layers


# ---------------------------------------------------------------------------
# Workload: oracle
# ---------------------------------------------------------------------------

def oracle_spec(run_dir, seed, ctx):
    """The three plot-data figures and the reference configurations of
    criteria 4, 6 and 7, in seeded order.  Costs do not depend on the seed.

    The bounds figure computes the envelope at beta 1/2, depth 8, the most
    costly call here, and writes it to its CSV; criterion 7 is checked on
    that column rather than by computing the same envelope a second time.
    """
    out_dir = fresh_dir(os.path.join(run_dir, "out"))
    rng = random.Random(seed)
    ops = []

    def add(kind, argv, params, out=None):
        if out is not None:
            argv = argv + ["--out", os.path.join(out_dir, out)]
        ops.append({"kind": kind, "argv": argv, "params": params,
                    "out": os.path.join(out_dir, out) if out else None})

    for fig, rows, cols in (("bounds", 257, 6), ("failure", 129, 3), ("envelopes", 65, 52)):
        params = {"rows": rows, "cols": cols}
        if fig == "bounds":
            params["envelope"] = {"beta": 0.5, "depth": 8}
        add("plot-data", ["plot-data", "--figure", fig], params, f"{fig}.csv")
    for n in range(1, 5):
        add("profile", ["oracle-profile", "--n", str(n), "--beta", "1"], {"n": n}, f"profile{n}.csv")
        add("poincare", ["poincare", "--n", str(n), "--p", repr(2 * float(BETA0))], {"n": n})
    add("envelope", ["envelope", "--beta", "1.0", "--depth", "6"],
        {"beta": 1.0, "depth": 6}, "envelope.csv")
    rng.shuffle(ops)
    return {"workload": "oracle", "seed": seed, "ops": ops}


def oracle_judge(spec, res, ctx):
    failed = 0
    for op, out, ok in zip(spec["ops"], res["results"], res["reference_ok"]):
        if not ok:
            failed += 1
            print(f"perfbench: oracle call {' '.join(op['argv'][:3])} failed its "
                  f"reference check {out['detail']}")
    return failed == 0, len(spec["ops"]), failed, {}


# ---------------------------------------------------------------------------

WORKLOADS = {
    "prove": (prove_spec, prove_judge),
    "check": (check_spec, check_judge),
    "oracle": (oracle_spec, oracle_judge),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops": "count"}


def layer_unit(name):
    if name.endswith("_ns"):
        return "ns"
    if name.endswith(("_us", "_per_rect")):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def one_pass(workload, seed, ctx, trace=False, setup_only=False):
    """Set up and run one pass; returns (set-up seconds, judged result).

    With setup_only the worker stops at ready and the result is None.
    """
    make_spec, judge = WORKLOADS[workload]
    run_dir = os.path.join(STATE, "run", workload)
    os.makedirs(run_dir, exist_ok=True)
    t0 = time.perf_counter()
    spec = make_spec(run_dir, seed, ctx)
    spec["result"] = os.path.join(run_dir, "result.json")
    if setup_only:
        spec["workload"] = "setup"
    elif trace:
        os.makedirs(os.path.join(STATE, "trace"), exist_ok=True)
        spec["trace"] = True
        spec["spans"] = os.path.join(STATE, "trace", f"{workload}.seed{seed}.spans.csv.gz")
    prepare = time.perf_counter() - t0
    proc, ready = start_worker(spec, run_dir)
    res = finish_worker(proc, spec, run_dir)
    if setup_only:
        return prepare + ready, None
    correct, attempted, failed, layers = judge(spec, res, ctx)
    return prepare + ready, {"res": res, "correct": correct, "attempted": attempted,
                             "failed": failed, "layers": layers}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "cubeiso", "__init__.py")):
        print("perfbench: src/cubeiso not found; run from the root of a cubeiso checkout",
              file=sys.stderr)
        return 2
    os.makedirs(STATE, exist_ok=True)
    ctx = {"src_digest": tree_digest("src")}
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} src={ctx['src_digest'][:12]}")
    # Untraced pass times of this workload and source, kept across runs: the
    # fallback for trace.overhead_s when no untraced pass fits a traced run.
    history_path = os.path.join(STATE, "untraced_walls.json")
    history = load_json(history_path)
    key = f"{args.workload} {ctx['src_digest']}"
    t_run = time.perf_counter()
    setups, passes, traced = [], [], None
    try:
        if args.workload == "check":
            ctx["certs"] = emitted_certificates(ctx)
        if args.trace:
            traced = one_pass(args.workload, args.seed, ctx, trace=True)[1]
            elapsed = time.perf_counter() - t_run
            if elapsed + TRACE_PASS_FACTOR * traced["res"]["wall_s"] <= TRACE_BUDGET_S:
                passes.append(one_pass(args.workload, args.seed, ctx)[1])
        else:
            # Another pass is made only if, at the median pass time so far,
            # it ends within --seconds.
            t_start = time.perf_counter()
            pass_times = []
            while not passes or (time.perf_counter() - t_start
                                 + statistics.median(pass_times) <= args.seconds):
                t_pass = time.perf_counter()
                setup, p = one_pass(args.workload, args.seed, ctx)
                pass_times.append(time.perf_counter() - t_pass)
                setups.append(setup)
                passes.append(p)
            while len(setups) < SETUP_REPEATS:
                setups.append(one_pass(args.workload, args.seed, ctx, setup_only=True)[0])
        if passes:
            history[key] = (history.get(key, []) + [p["res"]["wall_s"] for p in passes])[-50:]
            with open(history_path, "w") as fh:
                json.dump(history, fh, indent=1)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    runs = ([traced] if traced else []) + passes
    correct = all(p["correct"] for p in runs)
    attempted = runs[0]["attempted"]
    failed = max(p["failed"] for p in runs)
    print(f"perfbench: wall_s of {len(runs)} pass(es) "
          f"{[round(p['res']['wall_s'], 3) for p in runs]}"
          f"{' (first traced)' if traced else ''}, setup_s {[round(s, 3) for s in setups]}, "
          f"ops {attempted}, failed {failed}")
    if args.trace:
        if passes:
            untraced, source = passes[0]["res"]["wall_s"], "the untraced pass after it"
        elif history.get(key):
            untraced, source = statistics.median(history[key]), "recorded untraced passes"
        else:
            untraced, source = traced["res"]["wall_s"], None
        print(f"perfbench: trace.overhead_s against {source or 'nothing (reported as 0)'}")
        layers = {**traced["res"]["layers"], **traced["layers"],
                  "trace.overhead_s": traced["res"]["wall_s"] - untraced}
        names = traced["res"]["layer_names"]
        unknown = sorted(set(layers) - set(names))
        if unknown:
            print(f"perfbench: metrics missing from the worker's names: {unknown}",
                  file=sys.stderr)
            return 1
        metrics = {k: {"value": layers.get(k, 0), "unit": layer_unit(k)} for k in names}
    else:
        # A pass already averages the machine's second-to-second noise, and
        # there are at most a few, so their mean is steadier than their median.
        values = {"wall_s": statistics.mean(p["res"]["wall_s"] for p in passes),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(p["res"]["peak_rss_mb"] for p in passes),
                  "ops": attempted}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
