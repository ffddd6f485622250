#!/usr/bin/env python3
"""Check that two checkouts emit the same certificate bytes.

    python3 scripts/same_bytes.py --parent DIR --change DIR

Each DIR is a checkout with src/.  Both run `verify-all --emit OUT
--summary-json OUT/summary.json` with their own src/ at --threads 1, at the
default worker count and at --threads 4.  At each worker count every
emitted file is compared byte for byte, as cmp does.  Each file that
differs or exists on one side only is printed, and so is a differing exit
code.  The exit code is 1 on any difference and 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

WORKER_ARGS = {"--threads 1": ["--threads", "1"], "default": [], "--threads 4": ["--threads", "4"]}


def emit(checkout: str, extra: list[str], out: str) -> int:
    """verify-all of checkout into the directory out; its exit code."""
    os.makedirs(out)
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(checkout), "src")}
    cmd = [sys.executable, "-m", "cubeiso.cli", "verify-all", "--emit", out,
           "--summary-json", os.path.join(out, "summary.json"), *extra]
    return subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.DEVNULL).returncode


def read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


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
            differ = [n for n in names
                      if read(os.path.join(outs["parent"], n)) != read(os.path.join(outs["change"], n))]
        for n in differ:
            print(f"{label}: {n} differs")
        if codes["parent"] != codes["change"]:
            print(f"{label}: exit code {codes['parent']} at the parent, {codes['change']} with the change")
        same = same and not differ and codes["parent"] == codes["change"]
        print(f"{label}: {len(names) - len(differ)} of {len(names)} files identical, "
              f"exit codes {codes['parent']} and {codes['change']}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
