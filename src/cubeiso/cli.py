"""Command-line front end.

Subcommands:
  verify-all      run every registered claim plus the scalar-check suite
  verify          run one claim by id
  certify         run one claim and always emit its certificates
  check-cert      independently re-verify a certificate file
  oracle-profile  brute-force isoperimetric profile for small n
  envelope        envelope approximation on a dyadic grid, as CSV
  poincare        exhaustive Poincare comparison for small n
  plot-data       CSV data series behind the bound-comparison, failure and
                  envelope-family figures

Exit codes: 0 success, 1 verification failure or a path that cannot be read,
written or created, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

from . import claims as claims_mod
from . import funcs
from .interval import Interval

F = Fraction

CERT_DIR_ENV = "CUBEISO_CERT_DIR"  # certify's directory where --out-dir is not given
ENVELOPES_DEPTH = 6  # the grid of plot-data's envelopes figure


def _cmd_verify_all(args) -> int:
    reports = claims_mod.run_all(
        max_depth=args.max_depth, emit_dir=args.emit, threads=args.threads,
    )
    print(claims_mod.summary_table(reports))
    scal_ok, checks = funcs.run_scalar_checks()
    n_pass = sum(c.passed for c in checks)
    print(f"scalar checks: {n_pass}/{len(checks)} passed")
    for c in checks:
        if not c.passed:
            print(f"  FAIL {c.check_id}: {c.value!r} vs {c.threshold} ({c.direction})")
    ok = all(r.ok for r in reports) and scal_ok
    if args.summary_json:
        payload = {
            "claims": [
                {
                    "id": r.claim_id,
                    "ok": r.ok,
                    "margin": r.margin if math.isfinite(r.margin) else None,
                    "rects": r.rect_count,
                    "reference_margin_met": r.reference_margin_met,
                }
                for r in reports
            ],
            "scalar_checks": [{"id": c.check_id, "ok": c.passed} for c in checks],
            "ok": ok,
        }
        with open(args.summary_json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    try:
        report = claims_mod.run_claim(args.claim, max_depth=args.max_depth, emit_dir=args.emit)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(claims_mod.summary_table([report]))
    for rr in report.runs:
        status = "ok" if rr.ok else "FAIL"
        print(f"  run {rr.run_tag}: {status} rects={rr.rect_count} margin={rr.margin:.3e}")
        if rr.failure_box is not None:
            print(f"    deepest unprovable box: {' '.join(rr.failure_box.tokens())}"
                  f", bound {rr.failure_bound!r}")
        if rr.certificate_path:
            print(f"    certificate: {rr.certificate_path}")
    return 0 if report.ok else 1


def _cmd_certify(args) -> int:
    out_dir = args.out_dir or os.environ.get(CERT_DIR_ENV) or "certificates"
    args.emit = out_dir
    return _cmd_verify(args)


def _cmd_check_cert(args) -> int:
    try:
        with open(args.file, "rb") as fh:
            data = fh.read()
        report = claims_mod.verify_certificate_bytes(data)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if report.ok:
        print(f"ok: {args.file}: tiling exact, every rectangle provably positive "
              f"(min bound {report.min_bound:.3e})")
        return 0
    print(f"FAIL: tiling_ok={report.tiling_ok} positivity_ok={report.positivity_ok}")
    for line in report.failures[:50]:
        print(f"  {line}")
    if len(report.failures) > 50:
        print(f"  ... and {len(report.failures) - 50} more")
    return 1


def _cmd_oracle_profile(args) -> int:
    from . import oracle

    points = oracle.profile_bruteforce(args.n, args.beta)
    rows = [("k", "x", "value", "argmin_mask")]
    for k, p in enumerate(points):
        rows.append((k, str(p.x), repr(p.value), p.argmin))
    _write_rows(args.out, rows)
    return 0


def _cmd_envelope(args) -> int:
    from . import oracle

    if args.refine is not None and args.depth + args.refine > oracle.MAX_INTERNAL_DEPTH:
        args.usage_error(f"--depth plus --refine exceeds {oracle.MAX_INTERNAL_DEPTH}")
    env = oracle.envelope_approx(args.beta, args.depth, refine=args.refine)
    rows = [("x", "value")]
    grid = env.grid()
    for x, v in zip(grid, env.values):
        rows.append((repr(float(x)), repr(float(v))))
    _write_rows(args.out, rows)
    print(f"envelope beta={args.beta} depth={args.depth}: "
          f"{env.iterations} scans, residual {env.residual:.2e}", file=sys.stderr)
    return 0


def _cmd_poincare(args) -> int:
    import numpy as np

    from . import oracle

    lhs_p, rhs_p = oracle.poincare_exhaustive(args.n, args.p)[1:-1].T  # proper subsets
    base = lhs_p / rhs_p  # NaN where both underflow to 0, and never the worst
    # relative, so that the count holds where the p-th powers are tiny
    violations = np.count_nonzero(lhs_p < rhs_p * (1.0 - 2.0**-40))
    # The ratio is base^(1/p) with Python's pow, as numpy's may round
    # otherwise, and the worst is the first least one.  A base whose power
    # can round onto the least power lies within p 2^-50 of the least base.
    cut = np.nanmin(base) * (1.0 + args.p * 2.0**-50)
    worst_ratio = math.inf
    worst_mask = None
    for i in np.flatnonzero(base <= cut):
        ratio = float(base[i]) ** (1.0 / args.p)
        if ratio < worst_ratio:
            worst_ratio = ratio
            worst_mask = int(i) + 1
    print(f"n={args.n} p={args.p}: min ||grad f||_p / ||f - Ef||_p = {worst_ratio:.12f} "
          f"at mask {worst_mask}; {violations} subsets below 1")
    return 0 if math.isfinite(worst_ratio) and worst_ratio >= args.threshold else 1


def _grid(depth: int) -> list[float]:
    n = 1 << depth
    return [k / n for k in range(n + 1)]


def _cmd_plot_data(args) -> int:
    from . import oracle

    if args.figure == "bounds":
        env = oracle.envelope_approx(0.5, 8)
        rows = [("x", "scaled_glued_bound", "talagrand", "bobkov_goetze", "bim", "envelope")]
        c0 = float(funcs.C0)
        for k, x in enumerate(_grid(8)):
            xi = Interval(x)
            bmid = funcs.b(xi, funcs.BC_HALF).mid * c0
            q = x * (1 - x)
            rows.append((
                repr(x), repr(bmid),
                repr(math.sqrt(2) * q),
                repr(math.sqrt(3) * q),
                repr(2 * math.sqrt(2 ** 1.5 - 2) * q),
                repr(float(env.values[k])),
            ))
    elif args.figure == "failure":
        good = funcs.BC_BETA0
        bad = funcs.beta_consts(funcs.BetaParams(F(1, 2) + F(36, 65536)))
        half = Interval(0.5)
        rows = [("y", "g_beta_37", "g_beta_36")]
        for y in _grid(8):
            if y < 0.5:
                continue
            yi = Interval(y)
            rows.append((
                repr(y),
                repr(funcs.G_of_b(half, yi, good).mid),
                repr(funcs.G_of_b(half, yi, bad).mid),
            ))
    elif args.figure == "envelopes":
        betas = [0.5 + 0.01 * i for i in range(51)]
        grids = [oracle.envelope_approx(b, ENVELOPES_DEPTH, refine=args.refine) for b in betas]
        header = ["x"] + [f"beta_{b:.2f}" for b in betas]
        rows = [tuple(header)]
        for k, x in enumerate(_grid(ENVELOPES_DEPTH)):
            rows.append(tuple([repr(x)] + [repr(float(g.values[k])) for g in grids]))
    else:  # pragma: no cover - argparse restricts choices
        return 2
    _write_rows(args.out, rows)
    return 0


def _write_rows(path, rows) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)


def _ranged(convert, low=-math.inf, high=math.inf, *, low_open=False):
    """An argparse type: convert(text), which must be finite and lie in
    [low, high], or in (low, high] with low_open; any other value is a usage
    error."""
    left = "(" if low_open or low == -math.inf else "["
    right = "]" if high < math.inf else ")"

    def parse(text):
        value = convert(text)
        # comparing with inf, not math.isfinite, keeps huge ints a usage error
        if (-math.inf < value < math.inf and (low < value if low_open else low <= value)
                and value <= high):
            return value
        raise argparse.ArgumentTypeError(f"{text} is outside {left}{low}, {high}{right}")

    parse.__name__ = convert.__name__  # argparse's "invalid int value" names it
    return parse


def _cube_dimension(text: str) -> int:
    """--n of the exhaustive oracle commands, 1..oracle.MAX_N_EXHAUSTIVE.
    oracle is imported here, when the argument is given, because it needs
    numpy."""
    from .oracle import MAX_N_EXHAUSTIVE

    return _ranged(int, 1, MAX_N_EXHAUSTIVE)(text)


def _exponent(text: str) -> float:
    """--beta of oracle-profile and --p of poincare, in (0, oracle.MAX_EXPONENT]."""
    from .oracle import MAX_EXPONENT

    return _ranged(float, 0.0, MAX_EXPONENT, low_open=True)(text)


def _envelopes_refine(text: str) -> int:
    """--refine of plot-data, which refines the depth-6 envelopes figure up
    to oracle.MAX_INTERNAL_DEPTH."""
    from .oracle import MAX_INTERNAL_DEPTH

    return _ranged(int, 0, MAX_INTERNAL_DEPTH - ENVELOPES_DEPTH)(text)


_cube_dimension.__name__ = "int"
_exponent.__name__ = "float"
_envelopes_refine.__name__ = "int"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cubeiso", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-all", help="prove every claim and scalar check")
    p.add_argument("--max-depth", type=_ranged(int, 0), default=None)
    p.add_argument("--emit", default=None, help="directory for certificates")
    p.add_argument("--threads", type=_ranged(int, 1), default=None,
                   help="worker processes for the 19 (claim, run) units (default: "
                        "the CPUs available, at most 19; 1 runs in-process)")
    p.add_argument("--summary-json", default=None)
    p.set_defaults(func=_cmd_verify_all)

    p = sub.add_parser("verify", help="prove a single claim")
    p.add_argument("--claim", required=True)
    p.add_argument("--max-depth", type=_ranged(int, 0), default=None)
    p.add_argument("--emit", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("certify", help="prove a claim and emit certificates")
    p.add_argument("--claim", required=True)
    p.add_argument("--max-depth", type=_ranged(int, 0), default=None)
    p.add_argument("--out-dir", default=None,
                   help=f"certificate directory (default ${CERT_DIR_ENV} or ./certificates)")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("check-cert", help="re-verify a certificate file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_cert)

    p = sub.add_parser("oracle-profile", help="brute-force profile for small n")
    p.add_argument("--n", type=_cube_dimension, required=True)
    p.add_argument("--beta", type=_exponent, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle_profile)

    p = sub.add_parser("envelope", help="envelope approximation as CSV")
    # the solver's all-ones start lies above the envelope only for beta <= 1
    p.add_argument("--beta", type=_ranged(float, 0.0, 1.0, low_open=True), required=True)
    p.add_argument("--depth", type=_ranged(int, 0, 10), required=True)  # envelope_approx's cap
    p.add_argument("--refine", type=_ranged(int, 0), default=None,
                   help="levels of internal refinement; --depth plus --refine is at "
                        "most 13 (default: min(5, 13 - depth))")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_envelope, usage_error=p.error)

    p = sub.add_parser("poincare", help="exhaustive Poincare comparison")
    p.add_argument("--n", type=_cube_dimension, required=True)
    p.add_argument("--p", type=_exponent, required=True)
    p.add_argument("--threshold", type=_ranged(float), default=1.0)
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("plot-data", help="CSV series behind the figures")
    p.add_argument("--figure", choices=["bounds", "failure", "envelopes"], required=True)
    p.add_argument("--refine", type=_envelopes_refine, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_plot_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout closed early.  Point stdout at the null device
        # so that the interpreter's final flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # a path that cannot be read, written or created
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
