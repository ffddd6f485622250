"""High-precision reference implementations (mpmath) used as test oracles.

Everything here is independent of the package's interval code paths: the
Gaussian profile goes through mpmath's erfinv/exp, the comparison functions
are written directly from their defining formulas, and w0 is obtained by
mpmath root finding.  mul_four_products, div_eight_quotients and
ipow_directed are frozen copies of the per-operand rounding rule, which
rounds every endpoint product or quotient outward on its own, exact only
with a zero factor or dividend (an infinite factor or dividend keeps its
infinite result, as a step at +-inf would), plus three rules of their own:
a quotient with an inf/inf corner is Invalid, and a product of nonnegative
factors and an even power have a lower end of at least 0.  add_directed
and sub_directed round the exact Fraction sum of each pair of ends in its
direction, with the kernel's conventions for inf - inf and overflow.  They take from the kernel only
the Interval type and its INVALID and ONE values, and Interval's ×, ÷, ipow,
+ and − must give their ends bit for bit (×: up to the sign of a zero
end).  One exception is
built from the interval kernel: cdf_series_interval, the Gaussian cdf series
evaluated with one interval operation per term, which the float Horner
evaluation must never be wider than.  check_tiling_fractions is a general
tiling check in exact rational arithmetic (containment, area sum, overlap
sweep) that every tiling the certificate check accepts must pass.
is_tree_cell_fractions says with a Fraction per endpoint whether a rect is a
node of the domain's halving tree: the certificate check must name exactly
the rects it rejects, and accept a tiling exactly when every rect is such a
node and check_tiling_fractions passes it.  g_J1_bound_per_box,
g_LJQ2_bound_per_box and g_QJ1_bound_per_box are three bounds as they were
before their one-axis factors were memoized: every factor evaluated per box,
with the q_range and qprime_range memos bypassed.  The memoized bounds must
return their bits.  envelope_scan_per_point is the oracle's envelope policy
scan as one argmin over the offsets r of each grid point, whose caps, binding
offsets and forms the scan by offset must return bit for bit.  width and
contains measure and test an interval for the tests' asserts.
boundary_counts is the definitional loop over one subset that the oracle's
h table must match; sqrt_moment_lower_bound, mf_values and bobkov_check
state the paper's small-set bound and Bobkov's two-point inequality for
B = L_{1/2} on the cube, which the oracle's moments and random functions
must satisfy.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import mpmath as mp
import numpy as np

from cubeiso import bounds, gauss
from cubeiso.funcs import BetaConsts, L as L_interval
from cubeiso.interval import (
    HALF,
    INV_SQRT_TWO_PI,
    INVALID,
    ONE,
    TWO,
    ZERO,
    Interval,
)

mp.mp.dps = 40

F = Fraction

SQRT2 = mp.sqrt(2)
LN2 = mp.log(2)


def mpf_(x):
    """mpf from float, int, str or Fraction."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def phi(t):
    return mp.exp(-t * t / 2) / mp.sqrt(2 * mp.pi)


def Phi(t):
    return mp.ncdf(t)


def Phi_inv(p):
    return SQRT2 * mp.erfinv(2 * mpf_(p) - 1)


def gauss_I(x):
    x = mpf_(x)
    if x == 0 or x == 1:
        return mpf_(0)
    return phi(Phi_inv(x))


@lru_cache(maxsize=1)
def w0():
    return mp.findroot(
        lambda w: SQRT2 * w * gauss_I(1 / (2 * w)) - mpf_(1) / 2, mpf_("0.8955")
    )


def J(x):
    u = (1 - mpf_(x)) / w0()
    return SQRT2 * w0() * gauss_I(u)


def Jp(x):
    u = (1 - mpf_(x)) / w0()
    return SQRT2 * Phi_inv(u)


def x0():
    return 1 - w0() / 2


def L(x, beta):
    x = mpf_(x)
    if x == 0 or x == 1:
        return mpf_(0)
    return x * (mp.log(1 / x) / LN2) ** mpf_(beta)


def L2(x, beta):
    """L'' from the displayed formula."""
    x, b = mpf_(x), mpf_(beta)
    lg = mp.log(1 / x)
    return -b * LN2 ** (-b) / x * lg ** (b - 2) * (1 - b + lg)


def Q(x, beta):
    x, b = mpf_(x), mpf_(beta)
    return mpf_(F(2, 3)) * x * (1 - x) * (2 ** (b + 2) - 3 + 4 * (3 - 2 ** (b + 1)) * x)


def Qp(x, beta):
    x, b = mpf_(x), mpf_(beta)
    a0 = 2 ** (2 + b) - 5
    a1 = 3 - 2 ** (1 + b)
    return mpf_(2) / 3 * (2 ** (2 + b) - 3) - 4 * a0 * x - 8 * a1 * x * x


def alphas(beta):
    b = mpf_(beta)
    return 2 ** (2 + b) - 5, 3 - 2 ** (1 + b)


def b_glued(x, beta):
    x = mpf_(x)
    if x <= mpf_(F(1, 4)):
        return L(x, beta)
    if x <= mpf_(F(1, 2)):
        return Q(x, beta)
    return J(x)


def G1(x, y, bx, by, bmid, beta):
    b = mpf_(beta)
    return ((mpf_(y) - mpf_(x)) ** (1 / b) + by ** (1 / b)) ** b + bx - 2 * bmid


def G2(x, y, bx, by, bmid, beta):
    b = mpf_(beta)
    return (mpf_(y) - mpf_(x)) + (2 ** b - 1) * by + bx - 2 * bmid


def G_of_b(x, y, beta):
    bx = b_glued(x, beta)
    by = b_glued(y, beta)
    bm = b_glued((mpf_(x) + mpf_(y)) / 2, beta)
    g2 = G2(x, y, bx, by, bm, beta)
    if y > x:
        return max(G1(x, y, bx, by, bm, beta), g2)
    return g2


# ---------------------------------------------------------------------------
# Point targets for the bound functions: target(point) >= bound(box) whenever
# the point lies in the box.
# ---------------------------------------------------------------------------

def target_g_JL(x, beta):
    return 2 / J(x) + L2(1 - mpf_(x), beta)


def target_g_J1(x, h, beta, c):
    """G1_beta[c J](x, x+h) / h^(1/beta) for h > 0."""
    b, c = mpf_(beta), mpf_(c)
    x, h = mpf_(x), mpf_(h)
    y = x + h
    val = ((h ** (1 / b) + (c * J(y)) ** (1 / b)) ** b
           + c * J(x) - 2 * c * J(x + h / 2))
    return val / h ** (1 / b)


def target_g_J2(x, y):
    return (mpf_(y) - mpf_(x)) ** 2 + J(y) ** 2 - (2 * J((mpf_(x) + mpf_(y)) / 2) - J(x)) ** 2


def target_g_Q1(h, y, beta):
    b = mpf_(beta)
    h, y = mpf_(h), mpf_(y)
    a0, a1 = alphas(beta)
    q = Q(y, beta)
    out = b * q ** (1 - 1 / b) - (a0 - 2 * a1 * h + 4 * a1 * y) * h ** (2 - 1 / b)
    return out - mpf_(1) / 2 * b * (1 - b) * q ** (1 - 2 / b) * h ** (1 / b)


def target_g_Q2(h, y, beta):
    b = mpf_(beta)
    h, y = mpf_(h), mpf_(y)
    a0, a1 = alphas(beta)
    q = Q(y, beta)
    lin = 2 * a0 + 8 * a1 * y
    out = -12 * a1 * h ** 2 + lin * h
    out -= 6 * (3 - 1 / b) * a1 * q ** (1 / b) * h ** (2 - 1 / b)
    out += (2 - 1 / b) * lin * q ** (1 / b) * h ** (1 - 1 / b)
    return out


def target_g_LJQ1(x, y, beta):
    bx = L(x, beta)
    by = J(y)
    bm = Q((mpf_(x) + mpf_(y)) / 2, beta)
    return max(G1(x, y, bx, by, bm, beta), G2(x, y, bx, by, bm, beta))


def target_g_LJQ2(y, beta):
    b = mpf_(beta)
    y = mpf_(y)
    return (y - F(1, 16) + (2 ** b - 1) * J(y) + L(F(1, 16), beta)
            - 2 * Q(F(1, 32) + y / 2, beta))


def target_g_QJQ(x, y, beta):
    x, y = mpf_(x), mpf_(y)
    m = (x + y) / 2
    return (y - x) + J(y) * Jp(y) - (2 * Q(m, beta) - Q(x, beta)) * Qp(m, beta)


def target_g_QJ1(x, y, beta, c):
    b, c = mpf_(beta), mpf_(c)
    x, y = mpf_(x), mpf_(y)
    m = (x + y) / 2
    return ((y - x) ** (1 / b - 1)
            + c ** (1 / b) * (2 * J(m) - Q(x, beta)) ** (1 / b - 1)
            * (Jp(m) - Qp(x, beta)))


def target_g_QJ2(x, y):
    x, y = mpf_(x), mpf_(y)
    m = (x + y) / 2
    return mp.sqrt((y - x) ** 2 + J(y) ** 2) + Q(x, F(1, 2)) - 2 * J(m)


BETA0_DYADIC = F(1, 2) + F(37, 65536)


def target_g_P2(x):
    x = mpf_(x)
    pref = 2 ** (-2 * mpf_(BETA0_DYADIC))
    return pref * (L(x, F(1, 2)) + J(1 - x)) - 2 * x * (1 - x)


def target_g_P3(x, beta):
    """The Poincare derivative comparison at one beta in [1/2, beta0]."""
    x, b = mpf_(x), mpf_(beta)
    return (-(2 ** (-2 * b)) * Qp(x, beta) + 2 ** (-2 * b) * Jp(1 - x)
            + 2 * b * x ** (2 * b - 1) * (1 - x) - x ** (2 * b)
            + (1 - x) ** (2 * b) - 2 * b * x * (1 - x) ** (2 * b - 1))


def target_g_tail_low(v, beta):
    v, b = mpf_(v), mpf_(beta)
    u = mpf_(10) ** v
    c1 = LN2 ** (-b)
    c2 = c1 * mp.log(1 / w0()) ** b
    return 2 - (mp.log(u) + mp.log(4 * mp.pi)) / u - c1 * u ** (b - mpf_(1) / 2) - c2 / mp.sqrt(u)


def target_g_tail_high(v):
    v = mpf_(v)
    u = mpf_(10) ** v
    return (2 - mpf_("1.21") * u ** mpf_("0.00057")
            - mpf_("0.4") / mp.sqrt(u) - 880 / u)


# ---------------------------------------------------------------------------
# Interval products, quotients and integer powers with every corner rounded
# outward on its own
# ---------------------------------------------------------------------------

_MAX = sys.float_info.max


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _mul_exact(a: float, b: float, p: float) -> bool:
    """True only if the float product p == a*b is provably exact: a zero factor."""
    return a == 0.0 or b == 0.0


def _mul_down(a: float, b: float) -> float:
    p = a * b
    if p != p:  # 0 * inf
        return 0.0 if (a == 0.0 or b == 0.0) else p
    if math.isinf(p):
        if math.isinf(a) or math.isinf(b):
            return p
        return _MAX if p > 0 else p
    if _mul_exact(a, b, p):
        return p
    return _down(p)


def _mul_up(a: float, b: float) -> float:
    p = a * b
    if p != p:
        return 0.0 if (a == 0.0 or b == 0.0) else p
    if math.isinf(p):
        if math.isinf(a) or math.isinf(b):
            return p
        return p if p > 0 else -_MAX
    if _mul_exact(a, b, p):
        return p
    return _up(p)


def _div_exact(a: float, b: float, q: float) -> bool:
    """True only if the float quotient q == a/b is provably exact: a zero dividend."""
    return a == 0.0


def _div_down(a: float, b: float) -> float:
    q = a / b
    if q != q:
        return q
    if math.isinf(q):
        if math.isinf(a):
            return q
        return _MAX if q > 0 else q
    if _div_exact(a, b, q):
        return q
    return _down(q)


def _div_up(a: float, b: float) -> float:
    q = a / b
    if q != q:
        return q
    if math.isinf(q):
        if math.isinf(a):
            return q
        return q if q > 0 else -_MAX
    if _div_exact(a, b, q):
        return q
    return _up(q)


def _pow_mag_down(v: float, n: int) -> float:
    """Directed v**n for v >= 0, rounding down."""
    r = v
    for _ in range(n - 1):
        r = _mul_down(r, v)
    return r


def _pow_mag_up(v: float, n: int) -> float:
    r = v
    for _ in range(n - 1):
        r = _mul_up(r, v)
    return r


def mul_four_products(x: Interval, y: Interval) -> Interval:
    """The interval product as min/max over all four directed products; the
    lower end is at least 0 when both factors are."""
    if not (x.valid and y.valid):
        return INVALID
    a, b, c, d = x.lo, x.hi, y.lo, y.hi
    lo = min(_mul_down(a, c), _mul_down(a, d), _mul_down(b, c), _mul_down(b, d))
    if a >= 0.0 and c >= 0.0 and lo < 0.0:
        lo = 0.0  # an underflowed product of nonnegative factors
    hi = max(_mul_up(a, c), _mul_up(a, d), _mul_up(b, c), _mul_up(b, d))
    return Interval(lo, hi)


def div_eight_quotients(x: Interval, y: Interval) -> Interval:
    """The interval quotient as min/max over all eight directed quotients;
    Invalid when a corner is inf/inf."""
    if not (x.valid and y.valid):
        return INVALID
    if y.lo <= 0.0 <= y.hi:
        return INVALID
    a, b, c, d = x.lo, x.hi, y.lo, y.hi
    if any(math.isinf(p) and math.isinf(q) for p in (a, b) for q in (c, d)):
        return INVALID  # inf / inf, whatever the corner order
    lo = min(_div_down(a, c), _div_down(a, d), _div_down(b, c), _div_down(b, d))
    hi = max(_div_up(a, c), _div_up(a, d), _div_up(b, c), _div_up(b, d))
    return Interval(lo, hi)


def ipow_directed(x: Interval, n: int) -> Interval:
    """x**n by repeated directed multiplication of the end magnitudes, and
    1 / x**-n through div_eight_quotients for n < 0, or (1 / x)**-n where
    x holds no 0 but x**-n has an end at 0."""
    if not x.valid:
        return INVALID
    if n == 0:
        return ONE
    if n < 0:
        out = div_eight_quotients(ONE, ipow_directed(x, -n))
        if out.valid or x.lo <= 0.0 <= x.hi:
            return out
        return ipow_directed(div_eight_quotients(ONE, x), -n)  # x**-n underflowed onto 0
    if n == 1:
        return x
    if n % 2 == 0:
        m = abs(x)  # x**n >= 0: an underflowed lower end stops at 0
        return Interval(max(_pow_mag_down(m.lo, n), 0.0), _pow_mag_up(m.hi, n))
    lo, hi = x.lo, x.hi
    rlo = -_pow_mag_up(-lo, n) if lo < 0.0 else max(_pow_mag_down(lo, n), 0.0)  # x >= 0: stops at 0
    rhi = -_pow_mag_down(-hi, n) if hi < 0.0 else _pow_mag_up(hi, n)
    return Interval(rlo, rhi)


def _sum_directed(a: float, b: float, down: bool) -> float:
    """a + b rounded down (or up) from the exact rational sum.  With an
    infinite term the sum is that infinity, and inf + -inf is -inf down and
    +inf up.  A sum beyond the float range rounds to +-MAX or +-inf by
    direction.  An exact zero has the sign of the float sum."""
    if math.isinf(a) or math.isinf(b):
        toward = -math.inf if down else math.inf
        return toward if toward in (a, b) else a + b
    s = Fraction(a) + Fraction(b)
    if s == 0:
        return a + b
    if s > _MAX:
        return _MAX if down else math.inf
    if s < -_MAX:
        return -math.inf if down else -_MAX
    f = float(s)
    if Fraction(f) == s:
        return f
    if down:
        return f if Fraction(f) < s else _down(f)
    return f if Fraction(f) > s else _up(f)


def add_directed(x: Interval, y: Interval) -> Interval:
    """[x.lo + y.lo rounded down, x.hi + y.hi rounded up]."""
    if not (x.valid and y.valid):
        return INVALID
    return Interval(_sum_directed(x.lo, y.lo, True), _sum_directed(x.hi, y.hi, False))


def sub_directed(x: Interval, y: Interval) -> Interval:
    """[x.lo - y.hi rounded down, x.hi - y.lo rounded up]."""
    if not (x.valid and y.valid):
        return INVALID
    return Interval(_sum_directed(x.lo, -y.hi, True), _sum_directed(x.hi, -y.lo, False))


def series_coefficient(n: int) -> Fraction:
    """a_n = 1 / (n! 2^n (2n+1)), so Phi(t) = 1/2 + (2 pi)^(-1/2) sum (-1)^n a_n t^(2n+1)."""
    return Fraction(1, math.factorial(n) * 2**n * (2 * n + 1))


def series_terms(t: float) -> int:
    """The number N of series terms the cdf uses at |t| <= 4.5."""
    a = abs(t)
    return 28 if a <= 2.0 else 44 if a <= 3.2 else 64


_SERIES_COEFFS = [Interval.from_fraction(series_coefficient(n)) for n in range(66)]


def cdf_series_interval(t: float) -> Interval:
    """Phi(t) for 0 < |t| <= 4.5 with an interval operation per series term
    and the first omitted term as truncation bound, clamped to [0, 1]."""
    ti = Interval(t)
    u = ti.ipow(2)
    n_terms = series_terms(t)
    acc = ZERO
    power = ti
    for n in range(n_terms + 1):
        term = power * _SERIES_COEFFS[n]
        acc = acc + term if n % 2 == 0 else acc - term
        power = power * u
    rem = abs(power * _SERIES_COEFFS[n_terms + 1])
    acc = acc + Interval(-rem.hi, rem.hi)
    res = HALF + INV_SQRT_TWO_PI * acc
    return Interval(max(res.lo, 0.0), min(res.hi, 1.0))


def _fr(d) -> Fraction:
    return Fraction(d.num, 1 << d.exp)


def check_tiling_fractions(domain, rects) -> list[str]:
    """The tiling check with a Fraction per endpoint: containment, area sum,
    then a sweep by first coordinate reporting overlapping pairs."""
    def area(r):
        out = Fraction(1)
        for a, b in zip(r.lo, r.hi):
            out *= _fr(b) - _fr(a)
        return out

    problems = []
    total = Fraction(0)
    for i, r in enumerate(rects):
        if not all(_fr(a) <= _fr(oa) and _fr(ob) <= _fr(b)
                   for a, b, oa, ob in zip(domain.lo, domain.hi, r.lo, r.hi)):
            problems.append(f"rect {i} not inside domain")
        total += area(r)
    if total != area(domain):
        problems.append(f"area mismatch: sum {total} != domain {area(domain)}")
    order = sorted(range(len(rects)), key=lambda i: (_fr(rects[i].lo[0]), _fr(rects[i].lo[-1])))
    active: list[int] = []
    for idx in order:
        r = rects[idx]
        active = [j for j in active if _fr(rects[j].hi[0]) > _fr(r.lo[0])]
        for j in active:
            o = rects[j]
            if all(_fr(a) < _fr(ob) and _fr(oa) < _fr(b)
                   for a, b, oa, ob in zip(r.lo, r.hi, o.lo, o.hi)):
                problems.append(f"rects {j} and {idx} overlap")
        active.append(idx)
    return problems


def is_tree_cell_fractions(domain, r) -> bool:
    """Whether r is a node of the domain's halving tree, with a Fraction per
    endpoint: the domain's side over r's side is one power of two 2**k in
    every dimension, and r's low end lies a whole number of r's sides, from
    0 to 2**k - 1, above the domain's."""
    sides = [_fr(b) - _fr(a) for a, b in zip(r.lo, r.hi)]
    ratios = {(_fr(hi) - _fr(lo)) / side for lo, hi, side in zip(domain.lo, domain.hi, sides)}
    offsets = [(_fr(a) - _fr(lo)) / side for lo, a, side in zip(domain.lo, r.lo, sides)]
    if len(ratios) != 1:
        return False
    ratio = ratios.pop()
    return (ratio.denominator == 1 and bin(ratio.numerator).count("1") == 1
            and all(x.denominator == 1 and 0 <= x < ratio for x in offsets))


# ---------------------------------------------------------------------------
# Bounds evaluated per box, without the one-axis memos of cubeiso.bounds
# ---------------------------------------------------------------------------

_q_range = bounds.q_range.__wrapped__
_qprime_range = bounds.qprime_range.__wrapped__


def g_J1_bound_per_box(x: Interval, h: Interval, bc: BetaConsts) -> Interval:
    xh = x + h
    j_xh = gauss.j_range(0, xh.lo, xh.hi)
    j_x = gauss.j_range(0, x.lo, x.hi)
    if not (j_xh.valid and j_x.valid):
        return INVALID

    e = bc.k_minus_inv_beta
    c = bc.c
    out = bc.beta * bc.c_pow_1m1b * j_xh.pow(e(1))
    out = out - (HALF * bc.beta * (ONE - bc.beta) * bc.c_pow_1m2b
                 * j_xh.pow(bc.one_minus_2ib) * h.pow(bc.inv_beta))
    out = out - c * HALF * (ONE / j_x) * h.pow(e(2))
    out = out + c * (Interval(0.125) * gauss.j_range(3, x.lo, x.hi) * h.pow(e(3))
                     + Interval(2.0**-7) * gauss.j_range(5, x.lo, x.hi) * h.pow(e(5)))
    out = out + bounds.J1_C4 * c * gauss.j_range(4, x.lo, x.hi) * h.pow(e(4))
    rem = c * gauss.j_range(6, x.lo, xh.hi) * h.pow(e(6))
    out = out + bounds.J1_C6_XI1 * rem
    out = out - bounds.J1_C6_XI2 * rem
    return out


def g_LJQ2_bound_per_box(y: Interval, beta: Interval, _bc_unused: BetaConsts) -> Interval:
    bc = BetaConsts(beta, ONE)
    jy = gauss.j_range(0, y.lo, y.hi)
    if not jy.valid:
        return INVALID
    lx = L_interval(Interval(0.0625), bc, 0)
    m = (Interval(0.0625) + y) * HALF
    qm = _q_range(m.lo, m.hi, bc)
    return y - Interval(0.0625) + jy * bc.two_pow_beta_m1 + (lx - qm * TWO)


def g_QJ1_bound_per_box(x: Interval, y: Interval, bc: BetaConsts) -> Interval:
    m = (x + y) * HALF
    jm = gauss.j_range(0, m.lo, m.hi)
    if not jm.valid:
        return INVALID
    e = bc.inv_beta - ONE
    a_iv = TWO * jm - _q_range(x.lo, x.hi, bc)
    if a_iv.lo <= 0.0:
        return INVALID
    a_pow = a_iv.pow(e)
    out = (y - x).pow(e)
    out = out + bc.c_pow_inv_beta * a_pow * gauss.j_range(1, m.lo, m.hi)
    out = out - bc.c_pow_inv_beta * a_pow * _qprime_range(x.lo, x.hi, bc)
    return out


# ---------------------------------------------------------------------------
# The envelope policy scan, one grid point at a time
# ---------------------------------------------------------------------------

def envelope_scan_per_point(b_vals, beta: float, dx_all, dxp_all):
    """oracle._envelope_scan by its definition: for each interior m, the caps
    of every offset r <= min(m, size-1-m) as arrays, then an argmin over r."""
    size = b_vals.size
    two_b_m1 = 2.0 ** beta - 1.0
    bp = b_vals ** (1.0 / beta)
    caps = np.zeros(size)
    r_best = np.zeros(size, dtype=np.int64)
    form1 = np.zeros(size, dtype=bool)
    for m in range(1, size - 1):
        rmax = min(m, size - 1 - m)
        bx = b_vals[m - rmax:m][::-1]
        by = b_vals[m + 1:m + rmax + 1]
        c1 = (dxp_all[:rmax] + bp[m + 1:m + rmax + 1]) ** beta + bx
        c2 = dx_all[:rmax] + two_b_m1 * by + bx
        both = np.maximum(c1, c2)
        k = int(np.argmin(both))
        caps[m] = 0.5 * both[k]
        r_best[m] = k + 1
        form1[m] = c1[k] >= c2[k]
    return caps, r_best, form1


# ---------------------------------------------------------------------------
# Interval width and membership
# ---------------------------------------------------------------------------

def width(iv: Interval) -> float:
    """iv.hi - iv.lo rounded up, by the kernel's directed subtraction."""
    return (iv - Interval(iv.lo, math.inf)).hi


def contains(iv: Interval, x) -> bool:
    """Whether x lies in iv, compared exactly for a Fraction x; False for
    Invalid."""
    if not iv.valid:
        return False
    if isinstance(x, Fraction):
        return Fraction(iv.lo) <= x <= Fraction(iv.hi)
    return iv.lo <= x <= iv.hi


# ---------------------------------------------------------------------------
# Hamming-cube definitions, one subset or function at a time
# ---------------------------------------------------------------------------

def boundary_counts(n: int, mask: int) -> list[int]:
    """h_A(x) for every vertex x of {0,1}^n (0 for x outside A), where
    vertex v is in A when bit v of mask is set."""
    nverts = 1 << n
    out = [0] * nverts
    for v in range(nverts):
        if (mask >> v) & 1:
            h = 0
            for i in range(n):
                if not (mask >> (v ^ (1 << i))) & 1:
                    h += 1
            out[v] = h
    return out


def sqrt_moment_lower_bound(meas: float) -> float:
    """|A| sqrt(log2(1/|A|) + 1) - |A|, the sharp small-set comparison."""
    if meas <= 0.0:
        return 0.0
    return meas * math.sqrt(math.log2(1.0 / meas) + 1.0) - meas


def mf_values(f: Sequence[float], n: int) -> list[float]:
    """M f(x) = sqrt(sum_i (f(x) - f(x xor e_i))_+^2)."""
    nverts = 1 << n
    if len(f) != nverts:
        raise ValueError("f must assign a value to every vertex")
    out = []
    for v in range(nverts):
        acc = 0.0
        for i in range(n):
            d = f[v] - f[v ^ (1 << i)]
            if d > 0:
                acc += d * d
        out.append(math.sqrt(acc))
    return out


def bobkov_check(f: Sequence[float], n: int) -> tuple[float, float]:
    """(B(E f), E sqrt(B(f)^2 + (Mf)^2)) for B = L_{1/2}; values in [0, 1/2].

    The inequality lhs <= rhs is the two-point induction conclusion; with
    f = (1/2) 1_A it specializes to E sqrt(h_A) >= |A| sqrt(log2(1/|A|)+1) - |A|.
    """
    if any(not 0.0 <= v <= 0.5 for v in f):
        raise ValueError("f must take values in [0, 1/2]")

    def ell(t: float) -> float:
        return 0.0 if t <= 0.0 else t * math.sqrt(math.log2(1.0 / t))

    nverts = 1 << n
    mean = sum(f) / nverts
    mf = mf_values(f, n)
    rhs = sum(math.sqrt(ell(v) ** 2 + m * m) for v, m in zip(f, mf)) / nverts
    return ell(mean), rhs
