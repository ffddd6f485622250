#!/usr/bin/env python3
"""Check that two checkouts emit the same certificate and oracle bytes.

    python3 scripts/same_bytes.py --parent DIR --change DIR

Each DIR is a checkout with src/.  Both run `verify-all --emit OUT
--summary-json OUT/summary.json` with their own src/ at --threads 1, at the
default worker count and at --threads 4.  At each worker count every
emitted file is compared byte for byte, as cmp does.  Each file that
differs or exists on one side only is printed, and so is a differing exit
code.  A differing certificate (.cert or .cert.json) is printed with its
rect count on each side, and a differing summary.json with the claims whose
rects, margin or reference_margin_met differ, so the rect and margin table
of a declared certificate change can be read off the output.

Then each checkout runs the oracle commands of ORACLE_COMMANDS once, and
their stdout (the CSV where a command writes one) and exit codes are
compared.  Each output that differs is printed, and when both sides read as
CSV rows of the same shape, so are the number of differing cells and the
largest absolute and relative change among the numeric ones.  The exit code
is 1 on any difference and 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile

WORKER_ARGS = {"--threads 1": ["--threads", "1"], "default": [], "--threads 4": ["--threads", "4"]}
ORACLE_COMMANDS = [
    *(["plot-data", "--figure", f] for f in ("bounds", "failure", "envelopes")),
    *(["oracle-profile", "--n", str(n), "--beta", b] for b in ("1", "0.5") for n in range(1, 5)),
    *(["poincare", "--n", str(n), "--p", p] for n in range(1, 5) for p in ("1.00113", "2")),
    *(["poincare", "--n", str(n), "--p", "8"] for n in range(2, 5)),  # the listed p with violations
    ["envelope", "--beta", "1", "--depth", "6"],
    ["envelope", "--beta", "0.75", "--depth", "8"],  # a general-beta pow at the refined size 8,193
]


def cli(checkout: str, argv: list[str], stdout=subprocess.DEVNULL):
    """The CLI of checkout's own src/ run on argv."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(checkout), "src")}
    return subprocess.run([sys.executable, "-m", "cubeiso.cli", *argv], cwd=checkout, env=env,
                          stdout=stdout)


def emit(checkout: str, extra: list[str], out: str) -> int:
    """verify-all of checkout into the directory out; its exit code."""
    os.makedirs(out)
    argv = ["verify-all", "--emit", out, "--summary-json", os.path.join(out, "summary.json")]
    return cli(checkout, [*argv, *extra]).returncode


def oracle_outputs(checkout: str) -> list[tuple[int, bytes]]:
    """The exit code and stdout of each of ORACLE_COMMANDS in checkout."""
    procs = (cli(checkout, argv, stdout=subprocess.PIPE) for argv in ORACLE_COMMANDS)
    return [(p.returncode, p.stdout) for p in procs]


def read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def rect_count(name: str, data: bytes | None) -> int | None:
    """The rects in a certificate's bytes: a text file's lines after its
    header line, a JSON file's "rects" list; None for a missing file."""
    if data is None:
        return None
    if name.endswith(".json"):
        return len(json.loads(data)["rects"])
    return len(data.splitlines()) - 1


def summary_changes(parent: bytes | None, change: bytes | None) -> list[str]:
    """One line per claim whose rects, margin or reference_margin_met differ
    between two summary.json files."""
    def claims(data):
        return {c["id"]: c for c in json.loads(data)["claims"]} if data else {}

    p, c = claims(parent), claims(change)
    out = []
    for cid in dict.fromkeys([*p, *c]):
        old, new = p.get(cid, {}), c.get(cid, {})
        diffs = [f"{k} {old.get(k)} -> {new.get(k)}"
                 for k in ("rects", "margin", "reference_margin_met") if old.get(k) != new.get(k)]
        if diffs:
            out.append(f"{cid}: {', '.join(diffs)}")
    return out


def cell_changes(parent: bytes, change: bytes) -> list[str]:
    """The differing cells of two outputs read as CSV: their number and the
    largest absolute and relative change among the cells that are numbers
    on both sides, relative to the parent's value (inf where it is 0)."""
    p, c = (list(csv.reader(io.StringIO(d.decode("utf-8", "replace")))) for d in (parent, change))
    if len(p) != len(c) or any(len(a) != len(b) for a, b in zip(p, c)):
        return ["rows or columns differ"]
    cells = [(x, y) for a, b in zip(p, c) for x, y in zip(a, b) if x != y]
    changes = []
    for x, y in cells:
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            continue
        d = abs(fy - fx)
        changes.append((d, d / abs(fx) if fx else float("inf")))
    if not changes:
        return [f"{len(cells)} cells differ, none of them numbers on both sides"]
    largest_abs, largest_rel = (max(col) for col in zip(*changes))
    return [f"{len(cells)} cells differ ({len(changes)} numeric): largest absolute change "
            f"{largest_abs:.3g}, largest relative change {largest_rel:.3g}"]


def difference(name: str, parent: bytes | None, change: bytes | None) -> list[str]:
    """What differs in the file name, beyond its bytes."""
    if name == "summary.json":
        return summary_changes(parent, change)
    if name.endswith((".cert", ".cert.json")):
        return [f"rects {rect_count(name, parent)} -> {rect_count(name, change)}"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    args = ap.parse_args()
    same = True
    for label, extra in WORKER_ARGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            outs = {side: os.path.join(tmp, side) for side in ("parent", "change")}
            codes = {side: emit(getattr(args, side), extra, out) for side, out in outs.items()}
            names = sorted(set(os.listdir(outs["parent"])) | set(os.listdir(outs["change"])))
            differ = {}
            for n in names:
                p, c = (read(os.path.join(outs[side], n)) for side in ("parent", "change"))
                if p != c:
                    differ[n] = difference(n, p, c)
        for n, details in differ.items():
            print(f"{label}: {n} differs")
            for line in details:
                print(f"{label}:   {line}")
        if codes["parent"] != codes["change"]:
            print(f"{label}: exit code {codes['parent']} at the parent, {codes['change']} with the change")
        same = same and not differ and codes["parent"] == codes["change"]
        print(f"{label}: {len(names) - len(differ)} of {len(names)} files identical, "
              f"exit codes {codes['parent']} and {codes['change']}")
    outputs = zip(oracle_outputs(args.parent), oracle_outputs(args.change))
    differ = [(" ".join(argv), p, c) for argv, (p, c) in zip(ORACLE_COMMANDS, outputs) if p != c]
    for command, (p_code, p_out), (c_code, c_out) in differ:
        print(f"oracle: {command} differs")
        if p_code != c_code:
            print(f"oracle:   exit code {p_code} at the parent, {c_code} with the change")
        if p_out != c_out:
            for line in cell_changes(p_out, c_out):
                print(f"oracle:   {line}")
    same = same and not differ
    print(f"oracle: {len(ORACLE_COMMANDS) - len(differ)} of {len(ORACLE_COMMANDS)} "
          f"outputs identical")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
