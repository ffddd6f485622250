#!/usr/bin/env python3
"""Mutation check: every mutant in MUTANTS must fail the tests named with it.

    python3 scripts/mutants.py [NAME ...]

A row of MUTANTS is (name, file, old text, new text, test ids).  For each
row, or each row named on the command line, the script copies src/, tests/
and pyproject.toml of this checkout to a temporary directory, replaces the
old text by the new one in the file there, and runs pytest on the test ids
with a fixed hypothesis seed.  The old text must occur exactly once, or the
row is an error.  A mutant is killed when a test fails and survives when
all pass; a pytest that cannot run the tests is an error.  Before the
mutants, each row's tests must pass on an unmutated copy; that run's time,
times TIMEOUT_FACTOR, bounds the mutant's pytest.  A mutant whose pytest
outlives the bound, a hang say, is killed with every process it started
and counts as "killed (timeout)".

One line per mutant and a summary are printed.  The exit code is 1 if a
mutant survived or a row is an error, and 0 otherwise.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_FACTOR = 10
INTERVAL = "src/cubeiso/interval.py"
T = "tests/test_interval.py::"
FIXED = T + "test_arithmetic_matches_references_on_fixed_operands"
IPOW = T + "test_ipow_matches_directed_powers"
ADD = T + "test_add_sub_match_directed_sums"
TIE = T + "test_mul_rounds_every_tied_extremal_product"
BIG = T + "test_rationals_beyond_the_float_range_are_one_sided"
RULE = T + "test_only_a_zero_factor_or_dividend_is_exact"
GAUSS = "src/cubeiso/gauss.py"
J_RANGE = ["tests/test_gauss.py::test_j_range_contains_derivatives",
           "tests/test_gauss.py::test_enclosure_straddling_peak"]
PARTITION = "src/cubeiso/partition.py"
ORACLE = "src/cubeiso/oracle.py"
O = "tests/test_oracle.py::"
CLI = "src/cubeiso/cli.py"
CS = "tests/test_cdf_series.py::"
DEEP = CS + "test_deep_tail_brackets_are_narrow"
C = "tests/test_cli.py::"
P = "tests/test_partition.py::"
CLAIMS = "src/cubeiso/claims.py"
TC = "tests/test_claims.py::"

MUTANTS = [
    # The kernel's rounding rule.
    ("hull: an underflow seen in one corner only", INTERVAL,
     """    under = ((ac == 0.0 and a != 0.0 and c != 0.0) or (ad == 0.0 and a != 0.0 and d != 0.0)
             or (bc == 0.0 and b != 0.0 and c != 0.0) or (bd == 0.0 and b != 0.0 and d != 0.0))""",
     "    under = bd == 0.0 and b != 0.0 and d != 0.0", [TIE, FIXED]),
    ("hull: a zero-factor corner steps its end", INTERVAL,
     """    under = ((ac == 0.0 and a != 0.0 and c != 0.0) or (ad == 0.0 and a != 0.0 and d != 0.0)
             or (bc == 0.0 and b != 0.0 and c != 0.0) or (bd == 0.0 and b != 0.0 and d != 0.0))""",
     "    under = True", [FIXED, RULE]),
    ("pow_mag: a zero factor steps the power", INTERVAL,
     "r = p if r == 0.0 else _nextafter(p, toward)", "r = _nextafter(p, toward)", [IPOW, RULE]),
    ("ipow: even lower end stepped up", INTERVAL,
     "out.lo = max(_pow_mag(m.lo, n, -_INF), 0.0)", "out.lo = max(_pow_mag(m.lo, n, _INF), 0.0)",
     [IPOW]),
    ("ipow: odd lower end stepped up", INTERVAL,
     "max(_pow_mag(lo, n, -_INF), 0.0)", "max(_pow_mag(lo, n, _INF), 0.0)", [IPOW]),
    ("ipow: an odd power of a base >= 0 that underflowed goes below 0", INTERVAL,
     "max(_pow_mag(lo, n, -_INF), 0.0)", "_pow_mag(lo, n, -_INF)",
     [T + "test_ipow_contains_exact_powers"]),
    ("ipow: odd upper end stepped down", INTERVAL,
     "else _pow_mag(hi, n, _INF)", "else _pow_mag(hi, n, -_INF)",
     [T + "test_ipow_contains_exact_powers"]),
    ("ipow: a negative power that underflowed onto 0 left Invalid", INTERVAL,
     "            return (ONE / self).ipow(-n)  # |x|**-n underflowed onto 0",
     "            return out", [T + "test_ipow_contains_exact_powers"]),
    # The one-sign fast paths of × and ÷.
    ("mul: wrong extreme corner", INTERVAL,
     "                corners = b, c, a, d\n        elif b < 0.0:",
     "                corners = a, c, b, d\n        elif b < 0.0:", [FIXED]),
    ("mul: one-sign lower end not stepped", INTERVAL,
     "lo = _nextafter(p * q, -_INF)", "lo = p * q", [FIXED, RULE]),
    ("mul: one-sign upper end not stepped", INTERVAL,
     "out.hi = _nextafter(r * s, _INF)", "out.hi = r * s", [FIXED, RULE]),
    ("mul: no clamp at 0 for positive factors", INTERVAL,
     """            if lo < 0.0 < min(p, q):  # x, y > 0: an underflowed x*y stops at 0
                lo = 0.0
""", "", [FIXED]),
    ("div: wrong extreme corner", INTERVAL,
     "            if 0.0 < a:\n                corners = b, d, a, c",
     "            if 0.0 < a:\n                corners = a, d, b, c", [FIXED]),
    ("div: one-sign ends not stepped", INTERVAL,
     "out.lo = _nextafter(p / q, -_INF)\n            out.hi = _nextafter(r / s, _INF)",
     "out.lo = p / q\n            out.hi = r / s", [FIXED, RULE]),
    # The inline 2Sum of + and −.
    ("add: 2Sum error sign flipped", INTERVAL,
     "elo = (a - (lo - v)) + (c - v)", "elo = -((a - (lo - v)) + (c - v))", [FIXED, ADD]),
    ("sub: 2Sum error sign flipped", INTERVAL,
     "ehi = (b - (hi - w)) + (-c - w)", "ehi = -((b - (hi - w)) + (-c - w))", [FIXED, ADD]),
    ("sum_up: a NaN 2Sum error always steps the end", INTERVAL,
     """    if math.isfinite(s) and Fraction(s) >= Fraction(x) + Fraction(y):
        return s
    return _nextafter(s, _INF)""", "    return _nextafter(s, _INF)", [ADD]),
    ("sum_down: a NaN 2Sum error always steps the end", INTERVAL,
     """    if math.isfinite(s) and Fraction(s) <= Fraction(x) + Fraction(y):
        return s
    return _nextafter(s, -_INF)""", "    return _nextafter(s, -_INF)", [ADD]),
    ("hash: Invalid hashed by its NaN ends", INTERVAL,
     "return hash((lo, self.hi)) if lo == lo else 0", "return hash((lo, self.hi))",
     [T + "test_every_invalid_hashes_alike"]),
    # Rationals beyond the float range.
    ("from_fraction: overflow not caught", INTERVAL,
     "        try:\n            f = float(fr)\n        except OverflowError:",
     "        if True:\n            f = float(fr)\n        else:", [BIG]),
    ("coerce: a large int taken as a float", INTERVAL,
     "(isinstance(x, int) and -(2**53) <= x <= 2**53)", "isinstance(x, int)", [BIG]),
    # The Gaussian cdf series and the quantile bracket.
    ("cdf series: no truncation term", INTERVAL,
     "a_next * _pow_float(x, k) * _SLACK + _TINY)", "_TINY)",
     [CS + "test_series_error_terms_exact", CS + "test_series_error_terms_at_edges"]),
    ("quantile: a bracket accepted uncertified", INTERVAL,
     "if _cdf_point(a).hi < lo and _cdf_point(b).lo > hi:",
     "if _cdf_point(a).lo < lo and _cdf_point(b).hi > hi:",
     [CS + "test_quantile_brackets_contain_the_quantile", DEEP]),
    ("quantile: the low end of an interval bracket accepted uncertified", INTERVAL,
     "_cdf_point(a).hi < lo and", "_cdf_point(a).lo < lo and",
     [CS + "test_interval_quantile_brackets_hold_both_end_quantiles", DEEP]),
    ("quantile: the mirror of p above 1/2 not negated", INTERVAL,
     "return Interval(-b, -a)", "return Interval(a, b)",
     [CS + "test_interval_quantile_brackets_hold_both_end_quantiles",
      T + "test_quantile_above_half_is_the_mirrored_bracket"]),
    ("quantile: the seed takes 1/q of a subnormal q", INTERVAL,
     "        q = max(q, _MIN_NORMAL)  # 1/q is finite\n", "",
     [CS + "test_quantile_of_a_subnormal_p_is_a_bracket_or_invalid"]),
    ("quantile: the seed drops its erfc branch", INTERVAL,
     "    deep = p < _ERFC_CUT\n", "    deep = False\n", [DEEP]),
    ("quantile: a point p above 1/2 not mirrored", INTERVAL,
     "        if p.lo >= 0.5:  # 1 - p is exact on [1/2, 1]",
     "        if p.lo >= 0.5 and p.lo < p.hi:",
     [T + "test_quantile_above_half_is_the_mirrored_bracket"]),
    # The range rule for J and its derivatives.
    ("j_range: straddle upper end without the peak", GAUSS,
     "min(va.lo, vb.lo), _jk_peak(k).hi", "min(va.lo, vb.lo), max(va.hi, vb.hi)", J_RANGE),
    ("j_range: odd k ruled like even k", GAUSS,
     "if k % 2 == 1 or xlo > x0.hi:", "if xlo > x0.hi:", J_RANGE),
    ("j_range: peak taken at J' = 1", GAUSS,
     "_JK_OF[k](ZERO, j_peak)", "_JK_OF[k](ONE, j_peak)", J_RANGE),
    # The bounds' interval gradients and midpoints.
    ("Grad: product-rule sign flipped", "src/cubeiso/bounds.py",
     "self.dy * o.v + self.v * o.dy", "self.dy * o.v - self.v * o.dy",
     ["tests/test_grad.py::test_grad_operations_enclose_mpmath"]),
    ("bounds: midpoint without its 1/2", "src/cubeiso/bounds.py",
     "    return (x + y) * HALF\n", "    return x + y\n",
     ["tests/test_bounds.py::test_bound_is_true_lower_bound"]),
    ("bounds: g_QJ1 midpoint rounded to nearest", "src/cubeiso/bounds.py",
     "    m = _mid(x, y)\n    jm = gauss.j_range(0, m.lo, m.hi)",
     "    m = Interval(0.5 * (x.lo + y.lo), 0.5 * (x.hi + y.hi))\n"
     "    jm = gauss.j_range(0, m.lo, m.hi)",
     ["tests/test_bounds.py::test_derived_coordinates_are_enclosed_on_the_deepest_leaves[g_QJ_1]"]),
    # The oracle's table of h and |A|.
    ("oracle: h table without the last direction", ORACLE,
     "    for i in range(n):\n        h += member", "    for i in range(n - 1):\n        h += member",
     [O + "test_tables_match_the_definitional_loop"]),
    ("oracle: set sizes counted on the boundary only", ORACLE,
     "member.sum(axis=0, dtype=np.int8)", "(h > 0).sum(axis=0, dtype=np.int8)",
     [O + "test_tables_match_the_definitional_loop"]),
    # The envelope policy scan by offset.
    ("envelope scan: the last tied offset binds", ORACLE,
     "np.less(c1, cur, out=less)", "np.less_equal(c1, cur, out=less)",
     [O + "test_envelope_scan_matches_the_per_point_reference"]),
    ("envelope scan: the merge keeps the lower chunk's offset on a tie", ORACLE,
     "less = (chunk_best < best) | ((chunk_best == best) & (chunk_r < r_best))",
     "less = chunk_best < best",
     [O + "test_envelope_scan_matches_the_per_point_reference"]),
    ("envelope scan: a chunk starts one offset late", ORACLE,
     "1 + j, chunks)", "2 + j, chunks)",
     [O + "test_envelope_scan_matches_the_per_point_reference"]),
    ("envelope scan: a chunk strides one offset too far", ORACLE,
     "1 + j, chunks)", "1 + j, chunks + 1)",
     [O + "test_envelope_scan_matches_the_per_point_reference"]),
    # The fork helper of verify-all and the envelope scan.
    ("fork workers: results merged in arrival order", CLAIMS,
     "return [got[i][1] for i in range(len(tasks))]", "return [v for _, v in got.values()]",
     [TC + "test_fork_workers_merge_in_task_order"]),
    ("fork workers: a child drops its last task", CLAIMS,
     "pickle.dumps(done, pickle.HIGHEST_PROTOCOL)", "pickle.dumps(done[:-1], pickle.HIGHEST_PROTOCOL)",
     [TC + "test_fork_workers_merge_in_task_order"]),
    ("fork workers: a child sends an exception unchecked", CLAIMS,
     "v if ok else _portable(v)", "v",
     [TC + "test_an_exception_a_child_cannot_pickle_becomes_a_runtime_error"]),
    ("fork workers: children left alive by an exception", CLAIMS,
     "self._close(kill=exc_type is not None)", "self._close(kill=False)",
     [TC + "test_an_interrupt_in_the_caller_kills_every_child"]),
    ("fork workers: a child keeps its own request end", CLAIMS,
     "for fd in (req_w, res_r, self._index_w):", "for fd in (res_r, self._index_w):",
     [O + "test_pooled_envelope_equals_the_serial_one"]),
    ("run_all: several workers take the units in registry order", CLAIMS,
     "        if workers.workers > 1:\n", "        if False:\n",
     [TC + "test_several_workers_take_the_long_units_first"]),
    # The poincare command's verdict.
    ("poincare: violations counted with an absolute slack", CLI,
     "lhs_p < rhs_p * (1.0 - 2.0**-40)", "lhs_p < rhs_p - 1e-15",
     [C + "test_poincare_counts_violations_where_the_powers_are_tiny"]),
    ("poincare: a pass without a finite ratio", CLI,
     "math.isfinite(worst_ratio) and worst_ratio >= args.threshold", "worst_ratio >= args.threshold",
     [C + "test_poincare_without_a_finite_ratio_fails"]),
    # The certificate parser and the tiling check.
    ("parser: a rect of another dimension accepted", PARTITION,
     "size = (2 * dom.n,)", "size = (2, 4)",
     [P + "test_both_formats_share_one_token_rule[rect_of_other_dimension-text]",
      P + "test_both_formats_share_one_token_rule[rect_of_other_dimension-json]"]),
    ("tiling: the equality index holds only the first rect", PARTITION,
     "    for i in idx:\n        equal.setdefault", "    for i in idx[:1]:\n        equal.setdefault",
     [P + "test_verify_roundtrip_and_tampering"]),
    ("tiling: the equality index names the last of equal rects", PARTITION,
     "equal.setdefault(boxes[i], i)", "equal[boxes[i]] = i",
     [P + "test_tiling_check_matches_rational_reference"]),
    ("tiling: two child boxes routed in swapped order", PARTITION,
     "(((a, m), (m, b)) for", "(((m, b), (a, m)) for",
     [P + "test_verify_roundtrip_and_tampering"]),
    ("tiling: gaps not reported", PARTITION,
     'problems.append(f"gap: no rect covers {show(box)}")', "pass",
     [P + "test_verify_roundtrip_and_tampering"]),
    ("tiling: the walk never stops", PARTITION,
     """        if len(problems) >= MAX_TILING_PROBLEMS:
            problems.append(f"tiling check stopped after {len(problems)} problems")
            break
""", "", [P + "test_many_deep_rects_stop_the_walk"]),
    ("tiling: no containment check at the root", PARTITION,
     "inside = [all(a <= x and y <= b for (a, b), (x, y) in zip(root, r)) for r in boxes]",
     "inside = [True for r in boxes]",
     [P + "test_rect_outside_domain_is_reported_and_kept_out_of_the_walk"]),
]


def copy_checkout(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def run_tests(checkout: str, tests: list[str], timeout: float | None = None) -> int | None:
    """pytest's exit code on tests in checkout, or None if it outlived timeout
    seconds; then it and every process it started are killed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the copy's own src/
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    proc = subprocess.Popen(cmd, cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # its own process group, from start_new_session
        proc.wait()
        return None


def main(argv: list[str]) -> int:
    rows = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}")
        return 1
    t0 = time.perf_counter()
    timeouts = {}  # each row's tests: TIMEOUT_FACTOR times their unmutated run
    with tempfile.TemporaryDirectory() as tmp:
        copy_checkout(tmp)
        for tests in dict.fromkeys(tuple(m[4]) for m in rows):
            t1 = time.perf_counter()
            if run_tests(tmp, list(tests)) != 0:
                print(f"the named tests fail on the unmutated checkout: {' '.join(tests)}")
                return 1
            timeouts[tests] = TIMEOUT_FACTOR * (time.perf_counter() - t1)
    outcomes = {"killed": 0, "killed (timeout)": 0, "survived": 0, "error": 0}
    for name, path, old, new, tests in rows:
        t1 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            copy_checkout(tmp)
            target = os.path.join(tmp, path)
            with open(target) as fh:
                text = fh.read()
            if text.count(old) != 1:
                outcome = f"error: old text found {text.count(old)} times in {path}"
            else:
                with open(target, "w") as fh:
                    fh.write(text.replace(old, new))
                code = run_tests(tmp, tests, timeouts[tuple(tests)])
                outcome = {0: "survived", 1: "killed", None: "killed (timeout)"}.get(
                    code, f"error: pytest exit {code}")
        outcomes[outcome.split(":")[0]] += 1
        print(f"{outcome:9s} {time.perf_counter() - t1:5.1f} s  {name}", flush=True)
    killed = outcomes["killed"] + outcomes["killed (timeout)"]
    print(f"{len(rows)} mutants: {killed} killed ({outcomes['killed (timeout)']} by timeout), "
          f"{outcomes['survived']} survived, {outcomes['error']} errors, "
          f"in {time.perf_counter() - t0:.0f} s")
    return 0 if killed == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
