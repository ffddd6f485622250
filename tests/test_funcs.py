"""L, Q, b, the two-point functionals, and the scalar checks."""

import math
from fractions import Fraction as F

import mpmath as mp
import pytest

import _reference as ref
from conftest import scale
from cubeiso.funcs import (
    BC_BETA0,
    BC_HALF,
    BETA0_DYADIC,
    BETA1,
    BetaParams,
    L,
    Q,
    R,
    b,
    beta_consts,
    G1,
    G2,
    G_of_b,
    run_scalar_checks,
)
from cubeiso.interval import HALF, Interval


def test_beta_consts_is_one_object_per_parameter_set():
    """The bounds memos key on BetaConsts identity, so no number of other
    parameter sets may evict one."""
    first = beta_consts(BetaParams(F(1, 2), F(1, 1009)))
    for k in range(2, 66):
        beta_consts(BetaParams(F(1, 2), F(k, 1009)))
    assert beta_consts(BetaParams(F(1, 2), F(1, 1009))) is first


def test_beta_params_validation():
    with pytest.raises(ValueError):
        BetaParams(F(1, 4))
    with pytest.raises(ValueError):
        BetaParams(F(1, 2), F(2))
    assert BetaParams(BETA1).tag().startswith("beta")


def test_L_at_half_and_quarter():
    out = L(Interval(0.5), BC_BETA0, 0)
    assert ref.contains(out, F(1, 2)) and ref.width(out) < 1e-14  # log2(2) = 1
    out = L(Interval(0.25), BC_HALF, 0)
    true = mp.mpf(1) / 4 * mp.sqrt(2)
    assert mp.mpf(out.lo) <= true <= mp.mpf(out.hi)


def test_L_boundary_values():
    assert L(Interval(0.0), BC_HALF, 0) == Interval(0.0)
    full = L(Interval(0.0, 1.0), BC_HALF, 0)
    assert full.lo == 0.0 and full.hi < 0.55
    assert not L(Interval(-0.1, 0.5), BC_HALF, 0).valid
    assert not L(Interval(0.0, 0.5), BC_HALF, 1).valid  # derivatives need (0,1)


def test_L_second_derivative_threshold():
    # the same quantity the scalar suite checks: L''_{1/2}(1/4) <= -2.7
    out = L(Interval(0.25), BC_HALF, 2)
    assert out.hi < -2.7


def test_Q_special_values(rng):
    for params in (BetaParams(F(1, 2)), BetaParams(BETA0_DYADIC), BetaParams(F(1))):
        bc = beta_consts(params)
        half = Q(Interval(0.5), bc, 0)
        assert ref.contains(half, F(1, 2)) and ref.width(half) < 1e-13
        quarter = Q(Interval(0.25), bc, 0)
        true = mp.mpf(2) ** (ref.mpf_(params.beta) - 2)
        assert mp.mpf(quarter.lo) <= true <= mp.mpf(quarter.hi)
        assert ref.contains(Q(Interval(0.0), bc, 0), F(0))
        assert ref.contains(Q(Interval(1.0), bc, 0), F(0))


def test_LQ_derivatives_match_finite_differences(rng):
    step = mp.mpf(10) ** -6
    for _ in range(scale(300, 60)):
        x = rng.uniform(0.05, 0.45)
        beta = rng.choice([F(1, 2), BETA0_DYADIC, F(3, 4)])
        bc = beta_consts(BetaParams(beta))
        xm = mp.mpf(x)
        fd = (ref.L(xm + step, beta) - ref.L(xm - step, beta)) / (2 * step)
        out = L(Interval(x), bc, 1)
        assert abs(float(fd) - out.mid) <= 1e-5 * max(1.0, abs(out.mid))
        fd2 = (ref.L(xm + step, beta) - 2 * ref.L(xm, beta) + ref.L(xm - step, beta)) / step ** 2
        out2 = L(Interval(x), bc, 2)
        assert abs(float(fd2) - out2.mid) <= 1e-4 * max(1.0, abs(out2.mid))
        fdq = (ref.Q(xm + step, beta) - ref.Q(xm - step, beta)) / (2 * step)
        outq = Q(Interval(x), bc, 1)
        assert abs(float(fdq) - outq.mid) <= 1e-5 * max(1.0, abs(outq.mid))
        fdq2 = (ref.Q(xm + step, beta) - 2 * ref.Q(xm, beta) + ref.Q(xm - step, beta)) / step ** 2
        outq2 = Q(Interval(x), bc, 2)
        assert abs(float(fdq2) - outq2.mid) <= 1e-4 * max(1.0, abs(outq2.mid))


def test_L_Q_ordering_on_grid():
    """L >= Q on [0, 1/4] and L <= Q on [1/4, 1/2], depth-8 grid."""
    for beta in (F(1, 2), BETA0_DYADIC):
        for k in range(1, 129):
            x = k / 256.0
            lv = ref.L(x, beta)
            qv = ref.Q(x, beta)
            if x <= 0.25:
                assert lv >= qv - mp.mpf(1e-25)
            if x >= 0.25:
                assert lv <= qv + mp.mpf(1e-25)


def test_alpha_constants():
    assert BC_HALF.alpha0.lo > 0.0  # 2^2.5 - 5 > 0
    assert BC_HALF.alpha1.lo > 0.0  # beta < log2(3/2)
    assert beta_consts(BetaParams(F(1))).alpha1.hi < 0.0  # 3 - 4 < 0


def test_two_pow_m2beta0_encloses_reference():
    """The 2^(-2 beta0) that g_P1, g_P2 and g_P3 read from BC_BETA0."""
    got = BC_BETA0.two_pow_m2beta
    true = mp.power(2, -2 * mp.mpf(BETA0_DYADIC.numerator) / BETA0_DYADIC.denominator)
    assert mp.mpf(got.lo) <= true <= mp.mpf(got.hi)
    assert ref.width(got) <= 1e-15


def test_b_continuity_at_breakpoints():
    for params in (BetaParams(F(1, 2)), BetaParams(BETA0_DYADIC)):
        bc = beta_consts(params)
        quarter = b(Interval(0.25), bc)
        true = ref.L(F(1, 4), params.beta)
        assert mp.mpf(quarter.lo) <= true <= mp.mpf(quarter.hi)
        half = b(Interval(0.5), bc)
        assert ref.contains(half, F(1, 2))
        one = b(Interval(1.0), bc)
        assert ref.contains(one, F(0))


def test_b_straddling_hull(rng):
    bc = BC_BETA0
    for _ in range(40):
        a = rng.uniform(0.2, 0.3)
        c = rng.uniform(0.45, 0.6)
        hull = b(Interval(a, c), bc)
        for t in (a, c, 0.25, 0.5, (a + c) / 2):
            if a <= t <= c:
                true = ref.b_glued(t, BETA0_DYADIC)
                assert mp.mpf(hull.lo) - mp.mpf(1e-12) <= true <= mp.mpf(hull.hi) + mp.mpf(1e-12)


def test_G_vanishes_on_diagonal():
    bc = BC_BETA0
    x = Interval(0.3)
    bx = b(x, bc)
    g1 = G1(x, x, bx, bx, bx, bc)
    assert g1.valid and ref.contains(g1, F(0)) and ref.width(g1) < 1e-12


def test_G_of_b_below_diagonal_is_G2():
    """y < x: G_of_b is G2 exactly.  At beta = 1/2, 1/beta = 2 is an integer
    power, so an unguarded G1 would be finite there and would win the max."""
    bc = BC_HALF
    x, y = Interval(0.7), Interval(0.3)
    bx, by, bmid = b(x, bc), b(y, bc), b((x + y) * HALF, bc)
    g2 = G2(x, y, bx, by, bmid, bc)
    got = G_of_b(x, y, bc)
    assert (got.lo, got.hi) == (g2.lo, g2.hi)
    g1 = G1(x, y, bx, by, bmid, bc)
    assert g1.valid and g1.lo > g2.hi


def test_G_branch_selection(rng):
    """G = G1 iff y - x <= B(y) (checked on the mp oracle)."""
    for _ in range(scale(300, 80)):
        beta = rng.choice([F(1, 2), BETA0_DYADIC, F(3, 4)])
        x = rng.uniform(0.0, 0.7)
        y = rng.uniform(x + 1e-6, 1.0)
        by = ref.b_glued(y, beta)
        if by <= 0:
            continue
        bx = ref.b_glued(x, beta)
        bm = ref.b_glued((x + y) / 2, beta)
        g1 = ref.G1(x, y, bx, by, bm, beta)
        g2 = ref.G2(x, y, bx, by, bm, beta)
        if mp.mpf(y) - mp.mpf(x) <= by - mp.mpf(1e-20):
            assert g1 >= g2 - mp.mpf(1e-20)
        elif mp.mpf(y) - mp.mpf(x) >= by + mp.mpf(1e-20):
            assert g2 >= g1 - mp.mpf(1e-20)


def test_failure_curve_sign_change():
    """The half-line curve is nonnegative at the dyadic beta0 but dips
    negative one dyadic step below it."""
    good = beta_consts(BetaParams(F(1, 2) + F(37, 65536)))
    bad = beta_consts(BetaParams(F(1, 2) + F(36, 65536)))
    half = Interval(0.5)
    min_bad = math.inf
    for k in range(129):
        y = 0.5 + k / 256.0
        g_good = G_of_b(half, Interval(y), good)
        g_bad = G_of_b(half, Interval(y), bad)
        assert g_good.hi > -1e-12  # never provably negative
        min_bad = min(min_bad, g_bad.hi)
    assert min_bad < 0.0  # provably negative somewhere


def test_scalar_suite_all_pass_and_fast(constants):
    import time

    t0 = time.perf_counter()
    ok, checks = run_scalar_checks()
    elapsed = time.perf_counter() - t0
    assert ok, [c.check_id for c in checks if not c.passed]
    assert len(checks) == 23
    assert elapsed < 1.0


def test_scalar_check_ids_unique():
    _, checks = run_scalar_checks()
    ids = [c.check_id for c in checks]
    assert len(set(ids)) == len(ids)


def test_R_matches_Q_over_y(rng):
    for _ in range(50):
        y = rng.uniform(0.05, 0.95)
        bc = BC_BETA0
        rv = R(Interval(y), bc, 0)
        qv = Q(Interval(y), bc, 0) / Interval(y)
        assert rv.lo <= qv.hi + 1e-12 and qv.lo <= rv.hi + 1e-12
