"""Tight lower bounds for the partitioned positivity claims.

Each function g_* takes the coordinate ranges of an axis-aligned box and
returns an interval whose .lo endpoint is a certified lower bound for the
target quantity over the whole box.  The displayed corner formulas are
realized by plugging range-tight enclosures of the atoms (Q, L, J, J', |J'|)
into the formula and evaluating in interval arithmetic: the lower end of the
result then coincides with the intended corner combination wherever the atom
is monotone, and remains sound where it is not.

Conventions:
  * every bound is evaluated with the conservative straddle rules of the J
    enclosures; a box whose position relative to x0 cannot be certified gets
    the weaker branch;
  * Q is concave on [0, 3/4] for the exponents used here, which q_range
    certifies from the sign of Q'' before using endpoint/centered forms
    (a plain interval evaluation is the fallback);
  * Invalid results are treated by the partitioner as "not provably
    positive", i.e. subdivide.

Variable layouts (all boxes are [lo1, hi1] x [lo2, hi2]):
  g_JL     x in [1/2, 2047/2048]                       (1-d)
  g_J1     (x, h) in [1/2, 5/8] x [0, 3/16]
  g_J2     (x, y) in [1/2, 9/16] x [11/16, 1]
  g_Q1     (h, y) in [0, 1/4] x [1/4, 1/2]
  g_Q2     (h, y) in [1/4, 1/2]^2
  g_LJQ1   (x, y) in [1/16, 1/4] x [1/2, 3/4]
  g_LJQ2   (y, beta) in [1/2, 3/4] x [1/2, 1]
  g_QJQ    (x, y) in [1/4, 1/2] x [1/2, 3/4]
  g_QJ1    (x, y) in [1/4, 1/2] x [1/2, 5/8]
  g_QJ2    (x, y) in [1/4, 1/2] x [5/8, 1]
  g_P2     x in [1/64, 1/4]                            (1-d)
  g_P3     x in [1/4, 1/2]                             (1-d)
  g_tail   v = log10(u); "low" on [27/32, 25/8], "high" on [25/8, 381]
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import gauss
from .funcs import (
    BETA0_DYADIC,
    TWO_POW_M2BETA0,
    BetaConsts,
    BetaParams,
    L,
    Q,
    beta_consts,
)
from .interval import (
    HALF,
    INVALID,
    LOG10,
    ONE,
    PI,
    TWO,
    Interval,
)

F = Fraction

BOUND_IDS = (
    "g_JL", "g_J1", "g_J2", "g_Q1", "g_Q2", "g_LJQ1", "g_LJQ2",
    "g_QJQ", "g_QJ1", "g_QJ2", "g_P2", "g_P3", "g_tail",
)


@dataclass(frozen=True)
class BoundFn:
    """A bound function id plus its parameters; evaluation is pure."""

    fn_id: str
    params: BetaParams
    variant: str = ""

    def __post_init__(self):
        if self.fn_id not in BOUND_IDS:
            raise ValueError(f"unknown bound id {self.fn_id!r}")

    @property
    def arity(self) -> int:
        return 1 if self.fn_id in ("g_JL", "g_P2", "g_P3", "g_tail") else 2


# ---------------------------------------------------------------------------
# Range-tight atoms
# ---------------------------------------------------------------------------

def q_range(a: float, b: float, bc: BetaConsts) -> Interval:
    """Range enclosure of Q over [a, b], exploiting certified concavity."""
    if a == b:
        return Q(Interval(a), bc, 0)
    x = Interval(a, b)
    if Q(x, bc, 2).hi < 0.0:
        qa = Q(Interval(a), bc, 0)
        qb = Q(Interval(b), bc, 0)
        lo = min(qa.lo, qb.lo)
        qp = Q(x, bc, 1)
        if qp.lo >= 0.0:
            hi = qb.hi
        elif qp.hi <= 0.0:
            hi = qa.hi
        else:
            m = 0.5 * (a + b)
            centered = Q(Interval(m), bc, 0) + qp * Interval(a - m, b - m)
            hi = centered.hi
        return Interval(lo, hi)
    return Q(x, bc, 0)


def qprime_range(a: float, b: float, bc: BetaConsts) -> Interval:
    """Range enclosure of Q' over [a, b] (Q' decreases where Q'' < 0)."""
    if a == b:
        return Q(Interval(a), bc, 1)
    x = Interval(a, b)
    if Q(x, bc, 2).hi < 0.0:
        return Interval(Q(Interval(b), bc, 1).lo, Q(Interval(a), bc, 1).hi)
    return Q(x, bc, 1)


def l_range(a: float, b: float, bc: BetaConsts) -> Interval:
    """Range enclosure of L over [a, b]; endpoint form on the increasing part."""
    if a == b:
        return L(Interval(a), bc, 0)
    if b <= 0.3678:  # log(1/x) > 1 >= beta there, so L is increasing
        return Interval(L(Interval(a), bc, 0).lo, L(Interval(b), bc, 0).hi)
    return L(Interval(a, b), bc, 0)


def _jj_prime_range(a: float, b: float) -> Interval:
    """Range of J*J' over [a, b]; decreasing whenever sup |J'|^2 < 2."""
    ja = gauss.j_point(a) * gauss.jprime_point(a)
    jb = gauss.j_point(b) * gauss.jprime_point(b)
    if a == b:
        return ja
    aj = gauss.absjprime_enclosure(a, b)
    if (aj.ipow(2) - TWO).hi < 0.0:  # (J J')' = J'^2 - 2 < 0
        return Interval(jb.lo, ja.hi)
    return (gauss.j_enclosure(a, b) * gauss.jprime_enclosure(a, b)).hull(ja).hull(jb)


def _ten_pow(t: Interval) -> Interval:
    return (t * LOG10).exp()


# ---------------------------------------------------------------------------
# The thirteen bounds
# ---------------------------------------------------------------------------

def g_JL_bound(x: Interval, bc: BetaConsts) -> Interval:
    """Lower bound for -d^2/dx^2 [J(x) - L_beta(1-x)] on [1/2, 2047/2048]."""
    jr = gauss.j_enclosure(x.lo, x.hi)
    s = ONE - x  # exact at dyadic endpoints
    lg = -s.log()
    term = (bc.beta * bc.log2_pow_mbeta * (ONE / s)
            * (ONE - bc.beta + lg) * lg.pow(bc.beta - TWO))
    return TWO / jr - term


def g_J1_bound(x: Interval, h: Interval, bc: BetaConsts) -> Interval:
    """Near-diagonal J-case bound (sixth-order expansion with remainder)."""
    xh_lo = x.lo + h.lo
    xh_hi = x.hi + h.hi
    j_xh = gauss.j_enclosure(xh_lo, xh_hi)
    j_x = gauss.j_enclosure(x.lo, x.hi)
    if not (j_xh.valid and j_x.valid):
        return INVALID
    a_x = gauss.absjprime_enclosure(x.lo, x.hi)
    j_xi1 = gauss.j_enclosure(x.lo, xh_hi)
    a_xi1 = gauss.absjprime_enclosure(x.lo, xh_hi)
    mid_hi = x.hi + 0.5 * h.hi
    j_xi2 = gauss.j_enclosure(x.lo, mid_hi)
    a_xi2 = gauss.absjprime_enclosure(x.lo, mid_hi)

    e = bc.k_minus_inv_beta
    c = bc.c
    out = bc.beta * bc.c_pow_1m1b * j_xh.pow(e(1))
    out = out - (HALF * bc.beta * (ONE - bc.beta) * bc.c_pow_1m2b
                 * j_xh.pow(bc.one_minus_2ib) * h.pow(bc.inv_beta))
    out = out - c * HALF * (ONE / j_x) * h.pow(e(2))
    out = out + c * (Interval(0.125) * gauss.j3_lower(x.lo, x.hi) * h.pow(e(3))
                     + Interval(2.0**-7) * gauss.j5_lower(x.lo, x.hi) * h.pow(e(5)))
    out = out + Interval.from_fraction(F(7, 192)) * c * gauss.j4_of(a_x, j_x) * h.pow(e(4))
    h6 = h.pow(e(6))
    out = out + Interval.from_fraction(F(1, 720)) * c * gauss.j6_of(a_xi1, j_xi1) * h6
    out = out - Interval.from_fraction(F(1, 23040)) * c * gauss.j6_of(a_xi2, j_xi2) * h6
    return out


def g_J2_bound(x: Interval, y: Interval, bc: BetaConsts) -> Interval:
    """(y-x)^2 + J(y)^2 - (2 J((x+y)/2) - J(x))^2."""
    jy = gauss.j_enclosure(y.lo, y.hi)
    jm = gauss.j_enclosure(0.5 * (x.lo + y.lo), 0.5 * (x.hi + y.hi))
    jx = gauss.j_enclosure(x.lo, x.hi)
    if not (jy.valid and jm.valid and jx.valid):
        return INVALID
    return (y - x).ipow(2) + jy.ipow(2) - (TWO * jm - jx).ipow(2)


def g_Q1_bound(h: Interval, y: Interval, bc: BetaConsts) -> Interval:
    """Near-diagonal Q-case bound in the variables (h, y)."""
    qy = q_range(y.lo, y.hi, bc)
    if qy.lo <= 0.0:
        return INVALID
    e = bc.k_minus_inv_beta
    out = bc.beta * qy.pow(e(1))
    out = out - (bc.alpha0 - TWO * bc.alpha1 * h + Interval(4.0) * bc.alpha1 * y) * h.pow(e(2))
    out = out - (HALF * bc.beta * (ONE - bc.beta) * qy.pow(bc.one_minus_2ib)
                 * h.pow(bc.inv_beta))
    return out


def g_Q2_bound(h: Interval, y: Interval, bc: BetaConsts) -> Interval:
    """-d/dh of the fractional polynomial p_{y,beta}(h) on [1/4, 1/2]^2."""
    qy = q_range(y.lo, y.hi, bc)
    if qy.lo <= 0.0:
        return INVALID
    e = bc.k_minus_inv_beta
    qy_ib = qy.pow(bc.inv_beta)
    lin = TWO * bc.alpha0 + Interval(8.0) * bc.alpha1 * y
    out = -(Interval(12.0) * bc.alpha1 * h.ipow(2)) + lin * h
    out = out - (Interval(6.0) * e(3) * bc.alpha1 * qy_ib * h.pow(e(2)))
    out = out + (TWO - bc.inv_beta) * lin * qy_ib * h.pow(e(1))
    return out


def g_LJQ1_bound(x: Interval, y: Interval, bc: BetaConsts) -> Interval:
    """max(G1, G2) form with B = b_beta on [1/16, 1/4] x [1/2, 3/4]."""
    jy = gauss.j_enclosure(y.lo, y.hi)
    if not jy.valid:
        return INVALID
    d = y - x
    lead1 = (d.pow(bc.inv_beta) + jy.pow(bc.inv_beta)).pow(bc.beta)
    lead2 = d + bc.two_pow_beta_m1 * jy
    lead = lead1.max(lead2) if lead1.valid else lead2
    lx = l_range(x.lo, x.hi, bc)
    qm = q_range(0.5 * (x.lo + y.lo), 0.5 * (x.hi + y.hi), bc)
    return lead + lx - TWO * qm


def g_LJQ2_bound(y: Interval, beta: Interval, _bc_unused: BetaConsts) -> Interval:
    """The x = 1/16 edge of the L/J/Q case, partitioned jointly in (y, beta)."""
    bc = BetaConsts(beta, ONE)
    jy = gauss.j_enclosure(y.lo, y.hi)
    if not jy.valid:
        return INVALID
    lx = L(Interval(0.0625), bc, 0)
    qm = q_range(0.03125 + 0.5 * y.lo, 0.03125 + 0.5 * y.hi, bc)
    return y - Interval(0.0625) + bc.two_pow_beta_m1 * jy + lx - TWO * qm


def g_QJQ_bound(x: Interval, y: Interval, bc: BetaConsts) -> Interval:
    """(y-x) + J(y) J'(y) - (2 Q((x+y)/2) - Q(x)) Q'((x+y)/2)."""
    jj = _jj_prime_range(y.lo, y.hi)
    if not jj.valid:
        return INVALID
    m_lo = 0.5 * (x.lo + y.lo)
    m_hi = 0.5 * (x.hi + y.hi)
    a_iv = TWO * q_range(m_lo, m_hi, bc) - q_range(x.lo, x.hi, bc)
    b_iv = qprime_range(m_lo, m_hi, bc)
    return (y - x) + jj - a_iv * b_iv


def g_QJ1_bound(x: Interval, y: Interval, bc: BetaConsts) -> Interval:
    """-beta d/dx of the Q/J cross quantity, near the diagonal."""
    m_lo = 0.5 * (x.lo + y.lo)
    m_hi = 0.5 * (x.hi + y.hi)
    jm = gauss.j_enclosure(m_lo, m_hi)
    if not jm.valid:
        return INVALID
    e = bc.inv_beta - ONE
    a_iv = TWO * jm - q_range(x.lo, x.hi, bc)
    if a_iv.lo <= 0.0:
        return INVALID
    a_pow = a_iv.pow(e)
    out = (y - x).pow(e)
    if m_hi < gauss.profile_constants().x0.lo:
        out = out + bc.c_pow_inv_beta * a_pow * gauss.jprime_enclosure(m_lo, m_hi)
    else:
        out = out - bc.c_pow_inv_beta * a_pow * gauss.absjprime_enclosure(m_lo, m_hi)
    out = out - bc.c_pow_inv_beta * a_pow * qprime_range(x.lo, x.hi, bc)
    return out


def g_QJ2_bound(x: Interval, y: Interval, bc: BetaConsts) -> Interval:
    """((y-x)^2 + J(y)^2)^(1/2) + Q_{1/2}(x) - 2 J((x+y)/2)."""
    jy = gauss.j_enclosure(y.lo, y.hi)
    jm = gauss.j_enclosure(0.5 * (x.lo + y.lo), 0.5 * (x.hi + y.hi))
    if not (jy.valid and jm.valid):
        return INVALID
    qx = q_range(x.lo, x.hi, bc)
    return ((y - x).ipow(2) + jy.ipow(2)).sqrt() + qx - TWO * jm


def g_P2_bound(x: Interval, bc: BetaConsts) -> Interval:
    """2^(-2 beta0) (L_{1/2}(x) + J(1-x)) - 2 x (1-x) on [1/64, 1/4]."""
    jx = gauss.j_enclosure(1.0 - x.hi, 1.0 - x.lo)
    if not jx.valid:
        return INVALID
    lx = l_range(x.lo, x.hi, beta_consts(BetaParams(F(1, 2))))
    return TWO_POW_M2BETA0 * (lx + jx) - TWO * x * (ONE - x)


def g_P3_bound(x: Interval, bc: BetaConsts) -> Interval:
    """Negated x-derivative of the Poincare comparison on [1/4, 1/2]."""
    arg_lo = 1.0 - x.hi
    arg_hi = 1.0 - x.lo
    qp = qprime_range(x.lo, x.hi, beta_consts(BetaParams(F(1, 2))))
    out = -(HALF * qp)
    if arg_hi < gauss.profile_constants().x0.lo:
        out = out + TWO_POW_M2BETA0 * gauss.jprime_enclosure(arg_lo, arg_hi)
    else:
        out = out - HALF * gauss.absjprime_enclosure(arg_lo, arg_hi)
    b0 = Interval.from_fraction(BETA0_DYADIC)
    e1 = Interval.from_fraction(2 * BETA0_DYADIC - 1)
    e2 = Interval.from_fraction(2 * BETA0_DYADIC)
    out = out + x.pow(e1) * (ONE - x)
    out = out - x
    out = out + (ONE - x).pow(e2)
    out = out - TWO * b0 * x
    return out


LOG_4PI = (Interval(4.0) * PI).log()


def tail_side_conditions() -> list[tuple[str, bool]]:
    """Certified dominations that let the displayed tail polynomial stand in
    for the exact tail comparison on the high range (u >= 10^(25/8))."""
    bc0 = beta_consts(BetaParams(BETA0_DYADIC))
    c1 = bc0.log2_pow_mbeta
    c2 = c1 * (ONE / gauss.profile_constants().w0).log().pow(Interval.from_fraction(BETA0_DYADIC))
    checks = [
        ("tail_c1_le_1.21", c1.hi < 1.21),
        ("tail_exponent", BETA0_DYADIC - F(1, 2) <= F(57, 100000)),
        ("tail_c2_le_0.4", c2.hi < 0.4),
        ("tail_log_le_880", (Interval(381.0) * LOG10 + LOG_4PI).hi < 880.0),
    ]
    return checks


def g_tail_low_bound(v: Interval, bc: BetaConsts) -> Interval:
    """Exact tail comparison divided by u, in v = log10(u), for u <= 10^(25/8):

    2 - (v log10 + log(4 pi)) 10^-v - c1 10^((beta0-1/2) v) - c2 10^(-v/2)
    """
    c1 = bc.log2_pow_mbeta
    w0 = gauss.profile_constants().w0
    c2 = c1 * (ONE / w0).log().pow(bc.beta)
    out = TWO - (v * LOG10 + LOG_4PI) * _ten_pow(-v)
    out = out - c1 * _ten_pow((bc.beta - HALF) * v)
    out = out - c2 * _ten_pow(-(v * HALF))
    return out


def g_tail_high_bound(v: Interval, bc: BetaConsts) -> Interval:
    """The displayed tail polynomial divided by u, in v = log10(u):

    2 - 1.21 * 10^(0.00057 v) - 0.4 * 10^(-v/2) - 880 * 10^(-v)
    """
    out = TWO - Interval.from_fraction(F(121, 100)) * _ten_pow(Interval.from_fraction(F(57, 100000)) * v)
    out = out - Interval.from_fraction(F(2, 5)) * _ten_pow(-(v * HALF))
    out = out - Interval(880.0) * _ten_pow(-v)
    return out


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_DISPATCH_2D = {
    "g_J1": g_J1_bound,
    "g_J2": g_J2_bound,
    "g_Q1": g_Q1_bound,
    "g_Q2": g_Q2_bound,
    "g_LJQ1": g_LJQ1_bound,
    "g_LJQ2": g_LJQ2_bound,
    "g_QJQ": g_QJQ_bound,
    "g_QJ1": g_QJ1_bound,
    "g_QJ2": g_QJ2_bound,
}

_DISPATCH_1D = {
    "g_JL": g_JL_bound,
    "g_P2": g_P2_bound,
    "g_P3": g_P3_bound,
}


def eval_bound_fn(bf: BoundFn, box: tuple[tuple[float, float], ...]) -> Interval:
    """Certified lower-bound interval for the bound function over the box.

    box is ((lo1, hi1),) for 1-d claims and ((lo1, hi1), (lo2, hi2)) for 2-d.
    """
    bc = beta_consts(bf.params)
    if bf.fn_id == "g_tail":
        v = Interval(box[0][0], box[0][1])
        if bf.variant == "low":
            return g_tail_low_bound(v, bc)
        return g_tail_high_bound(v, bc)
    if bf.fn_id in _DISPATCH_1D:
        return _DISPATCH_1D[bf.fn_id](Interval(box[0][0], box[0][1]), bc)
    fn = _DISPATCH_2D[bf.fn_id]
    return fn(Interval(box[0][0], box[0][1]), Interval(box[1][0], box[1][1]), bc)
