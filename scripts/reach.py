#!/usr/bin/env python3
"""List the public functions and methods of src/cubeiso that no command enters.

    python3 scripts/reach.py

A sys.setprofile hook is started before cubeiso is imported, so that code
run at import counts.  Then, through cli.main and in this process, the
script runs verify-all --threads 1 --emit DIR, a verify that fails at
--max-depth 0, a certify, every command of same_bytes.ORACLE_COMMANDS, and
check-cert on every file the first and the third emitted.  Their output is
discarded; an exit code other than the expected one is printed.

Then it prints each module-level function and each class method of
src/cubeiso whose name has no leading _ and whose code no call entered,
unless ALLOWLIST names it with its reason.  An ALLOWLIST entry that a
command does enter, or that names nothing, is printed too.  The exit code
is 1 if anything was printed, and 0 otherwise.

The children that claims.ForkWorkers forks are not traced.  verify-all runs
at --threads 1 so that its units run in this process; an envelope solve
that splits its scans across processes scans some chunks here, through the
same functions.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

ALLOWLIST = {
    "interval.Interval.min": "criterion 9 audits it beside Interval.max, which bounds reach",
    "interval.normal_cdf": "perfbench/worker.py times it; it leaves with that benchmark op",
    "oracle.hart_profile": "perfbench/worker.py checks the oracle-profile output against it",
}

FAILING_CLAIM = "g_J_1"  # unprovable on its root box
CERTIFY_CLAIM = "g_JL"

entered = set()


def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


def public_code() -> dict[str, object]:
    """The code object of every module-level function and class method of
    cubeiso without a leading _, by module.name or module.Class.name."""
    import cubeiso

    out = {}
    for info in pkgutil.iter_modules(cubeiso.__path__):
        mod = importlib.import_module(f"cubeiso.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            obj = inspect.unwrap(obj) if callable(obj) else obj
            if inspect.isfunction(obj):
                out[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for mname, attr in vars(obj).items():
                    if mname.startswith("_"):
                        continue
                    if isinstance(attr, (staticmethod, classmethod)):
                        attr = attr.__func__
                    elif isinstance(attr, property):
                        attr = attr.fget
                    if inspect.isfunction(attr):
                        out[f"{info.name}.{name}.{mname}"] = inspect.unwrap(attr).__code__
    return out


def run_commands() -> list[str]:
    """Run every command under the hook; a line per unexpected exit code."""
    from same_bytes import ORACLE_COMMANDS

    from cubeiso import cli

    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        emitted, certified = os.path.join(tmp, "emit"), os.path.join(tmp, "certify")
        runs = [(["verify-all", "--threads", "1", "--emit", emitted], 0),
                (["verify", "--claim", FAILING_CLAIM, "--max-depth", "0"], 1),
                (["certify", "--claim", CERTIFY_CLAIM, "--out-dir", certified], 0),
                *((argv, None) for argv in ORACLE_COMMANDS)]
        for argv, want in runs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if want is not None and code != want:
                problems.append(f"exit code {code}, not {want}: {' '.join(argv)}")
        for folder in (emitted, certified):
            for name in sorted(os.listdir(folder)):
                argv = ["check-cert", os.path.join(folder, name)]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    problems.append(f"exit code {code}, not 0: check-cert {name}")
    return problems


def main() -> int:
    sys.setprofile(record)
    try:
        problems = run_commands()
    finally:
        sys.setprofile(None)
    codes = public_code()
    for name in sorted(codes):
        if codes[name] not in entered and name not in ALLOWLIST:
            problems.append(f"not entered: {name}")
    for name, reason in ALLOWLIST.items():
        if name not in codes:
            problems.append(f"allowlisted but not found: {name}")
        elif codes[name] in entered:
            problems.append(f"allowlisted but entered: {name} ({reason})")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
