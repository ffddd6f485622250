"""Tight lower bounds for the partitioned positivity claims.

Each function g_* takes the coordinate ranges of an axis-aligned box and
returns an interval whose .lo endpoint is a certified lower bound for the
target quantity over the whole box.  The displayed corner formulas are
realized by plugging range-tight enclosures of the atoms (Q, L, J, J') into
the formula and evaluating in interval arithmetic: the lower end of the
result then coincides with the intended corner combination wherever the atom
is monotone, and remains sound where it is not.

Mean-value form (Moore, Kearfott & Cloud, Introduction to Interval Analysis,
SIAM 2009, 6.1).  In g_J2, g_QJ2, g_QJQ and g_LJQ1, x and y occur several
times, so the naive enclosure stays wide until the box is tiny (the
dependency problem).  Each of the four is written once, as a formula whose
variables may be Intervals or Grads.  A Grad is a forward-mode interval
gradient: an enclosure of the value over the box B and enclosures of the
partials dx, dy over B.  Each atom returns its range enclosure as the value
and applies the chain rule with its derivative enclosure over the argument's
range: J with J' (j_range), Q with Q' (qprime_range), Q' with Q''
(Q(., 2)), L with L' (L(., 1)), and J J' with J'^2 - 2 (from J'' = -2/J).
_mean_value runs the formula at the centre c of B on point Intervals and
over B on Grads; the value over B is the naive enclosure.  By the mean-value
theorem, f(B) lies in f(c) + dx (X - cx) + dy (Y - cy), evaluated with
outward rounding, and the bound is its intersection with the naive
enclosure.  An Invalid naive value gives Invalid.  Where no derivative
enclosure exists (J' at y = 1, sqrt or a fractional power of a range that
reaches 0), the naive enclosure stands alone.  g_LJQ1 takes the form of G1
and G2 separately, then their max; G1 and G2 are funcs.G1 and funcs.G2, the
formulas G_of_b evaluates, and g_LJQ2 is funcs.G2 on its edge x = 1/16.  The
other nine bounds are naive.

Memoized factors.  A partition visits few distinct intervals on each axis
(g_J1 at beta0: 2,897 boxes over 85 x-intervals and 653 h-intervals), so
the factors that depend on one axis alone are computed once per axis
interval with functools.cache, the mechanism of the gauss and interval
memos: q_range and qprime_range; g_J1's x-only, h-only and x+h factors
(_j1_x_factors, _j1_h_factors, _j1_xh_factors); and g_LJQ2's per-beta
BetaConsts and L(1/16) (_ljq2_beta).  Each memo is keyed on the interval's
float endpoints and, where the factor depends on beta or c, on the
BetaConsts object; BetaConsts hashes by identity, and beta_consts returns
one object per parameter set.  g_LJQ2 calls q_range uncached, as its
BetaConsts changes with every beta interval.  A memo holds the very
Interval the per-box evaluation computed, by the same operations in the
same left-to-right order, so every bound returns the same bits with or
without it.

Dispatch.  eval_bound_fn looks a BoundFn's (fn_id, variant) up in one
table, _BOUNDS, and calls the bound with one Interval per side of the box
and the BetaConsts of the parameters, a lookup in beta_consts' memo on a
hash that BetaParams takes once; the runs of a shared beta hold funcs' one
params object for it, so the lookup finds its key by identity.  BoundFn
accepts only the pairs in that table; BOUND_IDS lists its fn_ids in table
order.

Conventions:
  * a coordinate derived from the box (x + h, (x + y)/2, (1/16 + y)/2 and
    1 - x) is an Interval of the outward-rounded operators; gauss.j_range,
    q_range, qprime_range, l_range and the g_J1 memos read only its ends,
    which contain its range on any dyadic tiling, not only where it is exact;
  * J and its derivatives come from gauss.j_range, on every box, also
    where J' changes sign (g_QJ1 and g_P3 take the signed J');
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

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import gauss
from .funcs import (
    BC_BETA0,
    BC_HALF,
    BETA0_DYADIC,
    L_INCREASING_BELOW,
    BetaConsts,
    BetaParams,
    G1,
    G2,
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
    ZERO,
    Interval,
    strictly_less,
)

F = Fraction


@dataclass(frozen=True)
class BoundFn:
    """A bound function id plus its parameters; evaluation is pure."""

    fn_id: str
    params: BetaParams
    variant: str = ""

    def __post_init__(self):
        if (self.fn_id, self.variant) not in _BOUNDS:
            raise ValueError(f"unknown bound {self.fn_id!r} with variant {self.variant!r}")


# ---------------------------------------------------------------------------
# Range-tight atoms
# ---------------------------------------------------------------------------

@functools.cache
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
            m = Interval(0.5 * (a + b))
            centered = Q(m, bc, 0) + qp * (x - m)
            hi = centered.hi
        return Interval(lo, hi)
    return Q(x, bc, 0)


@functools.cache
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
    if b <= L_INCREASING_BELOW:
        return Interval(L(Interval(a), bc, 0).lo, L(Interval(b), bc, 0).hi)
    return L(Interval(a, b), bc, 0)


def _jj_slope(a: float, b: float) -> Interval:
    """(J J')' = J'^2 + J J'' = J'^2 - 2 over [a, b] (J'' = -2/J)."""
    return gauss.j_range(1, a, b).ipow(2) - TWO


def _jj_prime_range(a: float, b: float) -> Interval:
    """Range of J*J' over [a, b]; decreasing where the slope is < 0."""
    ja = gauss.j_point(a) * gauss.jprime_point(a)
    jb = gauss.j_point(b) * gauss.jprime_point(b)
    if a == b:
        return ja
    if _jj_slope(a, b).hi < 0.0:
        return Interval(jb.lo, ja.hi)
    return (gauss.j_range(0, a, b) * gauss.j_range(1, a, b)).hull(ja).hull(jb)


def _ten_pow(t: Interval) -> Interval:
    return (t * LOG10).exp()


# ---------------------------------------------------------------------------
# Forward-mode interval gradients and the mean-value form
# ---------------------------------------------------------------------------

class Grad:
    """A function of the box variables (x, y): an enclosure v of its values
    over the box, and enclosures dx, dy of its partial derivatives there.

    Interval operators do not know Grad, so a Grad must be the left operand
    of every operation that mixes the two.  An Invalid dx, dy means that no
    derivative enclosure is known; it absorbs further arithmetic like Invalid
    does.
    """

    __slots__ = ("v", "dx", "dy")

    def __init__(self, v: Interval, dx: Interval, dy: Interval):
        self.v = v
        self.dx = dx
        self.dy = dy

    def chain(self, v: Interval, d: Interval) -> "Grad":
        """phi(self), given v enclosing phi and d enclosing phi' over self.v."""
        return Grad(v, d * self.dx, d * self.dy)

    def __add__(self, other) -> "Grad":
        o = _lift(other)
        return Grad(self.v + o.v, self.dx + o.dx, self.dy + o.dy)

    def __sub__(self, other) -> "Grad":
        o = _lift(other)
        return Grad(self.v - o.v, self.dx - o.dx, self.dy - o.dy)

    def __mul__(self, other) -> "Grad":
        o = _lift(other)
        return Grad(self.v * o.v, self.dx * o.v + self.v * o.dx, self.dy * o.v + self.v * o.dy)

    def ipow(self, n: int) -> "Grad":
        return self.pow(Interval(float(n)))

    def pow(self, p: Interval) -> "Grad":
        """self**p for a constant p; a non-integer p needs self.v.lo > 0 for
        a derivative enclosure."""
        if p.lo == p.hi and p.lo.is_integer():
            d = p * self.v.ipow(int(p.lo) - 1)
        elif self.v.lo > 0.0:
            d = p * self.v.pow(p - ONE)
        else:
            d = INVALID
        return self.chain(self.v.pow(p), d)

    def sqrt(self) -> "Grad":
        r = self.v.sqrt()
        return self.chain(r, HALF / r if self.v.lo > 0.0 else INVALID)


def _lift(u) -> Grad:
    """A Grad as is; an Interval with a zero gradient."""
    return u if isinstance(u, Grad) else Grad(u, ZERO, ZERO)


def _atom(t, value, deriv):
    """A range-tight atom at t, an Interval or a Grad.

    value(a, b) and deriv(a, b) enclose the atom and its derivative over
    [a, b].  An Interval t gets value(t.lo, t.hi); a Grad t gets the same
    value over t.v and the chain rule with deriv over t.v.
    """
    if not isinstance(t, Grad):
        return value(t.lo, t.hi)
    a, b = t.v.lo, t.v.hi
    return t.chain(value(a, b), deriv(a, b))


def _J(t):
    return _atom(t, lambda a, b: gauss.j_range(0, a, b), lambda a, b: gauss.j_range(1, a, b))


def _JJprime(t):
    return _atom(t, _jj_prime_range, _jj_slope)


def _Q(t, bc: BetaConsts):
    return _atom(t, lambda a, b: q_range(a, b, bc), lambda a, b: qprime_range(a, b, bc))


def _Qprime(t, bc: BetaConsts):
    return _atom(t, lambda a, b: qprime_range(a, b, bc), lambda a, b: Q(Interval(a, b), bc, 2))


def _L(t, bc: BetaConsts):
    return _atom(t, lambda a, b: l_range(a, b, bc), lambda a, b: L(Interval(a, b), bc, 1))


def _mid(x, y):
    return (x + y) * HALF


def _mean_value(formula, x: Interval, y: Interval, bc: BetaConsts):
    """naive ∩ (f(c) + ∂x f(B) (X - cx) + ∂y f(B) (Y - cy)) over the box
    B = X x Y with centre c, for each part the formula returns.

    The formula runs twice: at c on point Intervals, and over B on Grad
    variables, whose values are the naive enclosure.  A part with an Invalid
    naive value is Invalid; one without a gradient enclosure, or without a
    value at c, keeps the naive value.
    """
    cx, cy = Interval(x.mid), Interval(y.mid)
    at_c = formula(cx, cy, bc)
    over = formula(Grad(x, ONE, ZERO), Grad(y, ZERO, ONE), bc)
    ex, ey = x - cx, y - cy

    def form(fc: Interval, g: Grad) -> Interval:
        naive = g.v
        if not naive.valid:
            return INVALID
        mv = fc + g.dx * ex + g.dy * ey
        if not mv.valid:
            return naive
        return Interval(max(naive.lo, mv.lo), min(naive.hi, mv.hi))

    if isinstance(over, tuple):
        return tuple(map(form, at_c, over))
    return form(at_c, over)


# ---------------------------------------------------------------------------
# The thirteen bounds
# ---------------------------------------------------------------------------

def g_JL_bound(x: Interval, bc: BetaConsts) -> Interval:
    """Lower bound for -d^2/dx^2 [J(x) - L_beta(1-x)] = 2/J(x) + L''(1-x) on
    [1/2, 2047/2048]."""
    return TWO / gauss.j_range(0, x.lo, x.hi) + L(ONE - x, bc, 2)


# Taylor coefficients of g_J1, converted once rather than per box.
J1_C4 = Interval.from_fraction(F(7, 192))
J1_C6_XI1 = Interval.from_fraction(F(1, 720))
J1_C6_XI2 = Interval.from_fraction(F(1, 23040))


@functools.cache
def _j1_x_factors(xlo: float, xhi: float, bc: BetaConsts):
    """g_J1's factors in x alone over [xlo, xhi]:
    (c/2 J(x)^-1, J3(x)/8, J5(x)/2^7, 7/192 c J4(x)), or None where J(x) has
    no enclosure."""
    j_x = gauss.j_range(0, xlo, xhi)
    if not j_x.valid:
        return None
    c = bc.c
    return (c * HALF * (ONE / j_x),
            Interval(0.125) * gauss.j_range(3, xlo, xhi),
            Interval(2.0**-7) * gauss.j_range(5, xlo, xhi),
            J1_C4 * c * gauss.j_range(4, xlo, xhi))


@functools.cache
def _j1_h_factors(hlo: float, hhi: float, bc: BetaConsts) -> tuple[Interval, ...]:
    """g_J1's powers of h over [hlo, hhi]: h^(1/beta), then h^(k - 1/beta)
    for k = 2..6."""
    h = Interval(hlo, hhi)
    e = bc.k_minus_inv_beta
    return (h.pow(bc.inv_beta),) + tuple(h.pow(e(k)) for k in range(2, 7))


@functools.cache
def _j1_xh_factors(lo: float, hi: float, bc: BetaConsts):
    """g_J1's factors in x+h over [lo, hi]: (beta c^(1-1/beta) J^(1-1/beta),
    beta (1-beta)/2 c^(1-2/beta) J^(1-2/beta)), or None where J(x+h) has no
    enclosure."""
    j_xh = gauss.j_range(0, lo, hi)
    if not j_xh.valid:
        return None
    return (bc.beta * bc.c_pow_1m1b * j_xh.pow(bc.k_minus_inv_beta(1)),
            HALF * bc.beta * (ONE - bc.beta) * bc.c_pow_1m2b * j_xh.pow(bc.one_minus_2ib))


def g_J1_bound(x: Interval, h: Interval, bc: BetaConsts) -> Interval:
    """Near-diagonal J-case bound (sixth-order expansion with remainder).

    With e_k = k - 1/beta, J^(k) enclosed by gauss.j_range over x for
    k = 0, 3, 4, 5, and for k = 6 over [x, x+h], which holds both xi1 in
    [x, x+h] and xi2 in [x, x+h/2]:

        beta c^e_1 J(x+h)^e_1                                  _j1_xh_factors
      - beta (1-beta)/2 c^(1-2/beta) J(x+h)^(1-2/beta) h^(1/beta)
      - c/2 J(x)^-1 h^e_2                                      _j1_x_factors
      + c (J3(x)/8 h^e_3 + J5(x)/2^7 h^e_5)                    _j1_x_factors
      + 7/192 c J4(x) h^e_4                                    _j1_x_factors
      + 1/720 c J6(xi1) h^e_6 - 1/23040 c J6(xi2) h^e_6        per box

    The powers of h come from _j1_h_factors.  Each factor is evaluated as
    written, left to right, so the memos change no bit of the result.  The
    two remainders share the product c J6 h^e_6 but stay separate terms:
    xi1 and xi2 differ, so 1/720 - 1/23040 is not a coefficient of J6.
    """
    xh = x + h
    at_xh = _j1_xh_factors(xh.lo, xh.hi, bc)
    at_x = _j1_x_factors(x.lo, x.hi, bc)
    if at_xh is None or at_x is None:
        return INVALID
    lead, frac = at_xh
    inv_j, d3, d5, d4 = at_x
    h_ib, h2, h3, h4, h5, h6 = _j1_h_factors(h.lo, h.hi, bc)

    c = bc.c
    out = lead - frac * h_ib
    out = out - inv_j * h2
    out = out + c * (d3 * h3 + d5 * h5)
    out = out + d4 * h4
    rem = c * gauss.j_range(6, x.lo, xh.hi) * h6
    out = out + J1_C6_XI1 * rem
    out = out - J1_C6_XI2 * rem
    return out


def _g_J2(x, y, bc: BetaConsts):
    """(y-x)^2 + J(y)^2 - (2 J((x+y)/2) - J(x))^2."""
    return (y - x).ipow(2) + _J(y).ipow(2) - (_J(_mid(x, y)) * TWO - _J(x)).ipow(2)


def g_J2_bound(x: Interval, y: Interval, bc: BetaConsts) -> Interval:
    return _mean_value(_g_J2, x, y, bc)


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


def _g_LJQ1(x, y, bc: BetaConsts):
    """(G1, G2) with B = b_beta = (L(x), J(y), Q((x+y)/2)) on
    [1/16, 1/4] x [1/2, 3/4]."""
    bx, by, bmid = _L(x, bc), _J(y), _Q(_mid(x, y), bc)
    return G1(x, y, bx, by, bmid, bc), G2(x, y, bx, by, bmid, bc)


def g_LJQ1_bound(x: Interval, y: Interval, bc: BetaConsts) -> Interval:
    """max(G1, G2); G2 alone where G1 has no enclosure."""
    g1, g2 = _mean_value(_g_LJQ1, x, y, bc)
    return g1.max(g2) if g1.valid else g2


@functools.cache
def _ljq2_beta(beta_lo: float, beta_hi: float) -> tuple[BetaConsts, Interval]:
    """g_LJQ2's per-beta factors: the BetaConsts of beta in [beta_lo, beta_hi]
    (c = 1), and L(1/16) for that beta."""
    bc = BetaConsts(Interval(beta_lo, beta_hi), ONE)
    return bc, L(Interval(0.0625), bc, 0)


def g_LJQ2_bound(y: Interval, beta: Interval, _bc_unused: BetaConsts) -> Interval:
    """G2 on the x = 1/16 edge of the L/J/Q case, partitioned jointly in
    (y, beta)."""
    bc, lx = _ljq2_beta(beta.lo, beta.hi)
    jy = gauss.j_range(0, y.lo, y.hi)
    if not jy.valid:
        return INVALID
    x = Interval(0.0625)
    m = _mid(x, y)
    # Uncached: every beta interval has its own BetaConsts, so a q_range
    # memo entry made here would never be read again.
    qm = q_range.__wrapped__(m.lo, m.hi, bc)
    return G2(x, y, lx, jy, qm, bc)


def _g_QJQ(x, y, bc: BetaConsts):
    """(y-x) + J(y) J'(y) - (2 Q((x+y)/2) - Q(x)) Q'((x+y)/2)."""
    m = _mid(x, y)
    return (y - x) + _JJprime(y) - (_Q(m, bc) * TWO - _Q(x, bc)) * _Qprime(m, bc)


def g_QJQ_bound(x: Interval, y: Interval, bc: BetaConsts) -> Interval:
    return _mean_value(_g_QJQ, x, y, bc)


def g_QJ1_bound(x: Interval, y: Interval, bc: BetaConsts) -> Interval:
    """-beta d/dx of the Q/J cross quantity, near the diagonal."""
    m = _mid(x, y)
    jm = gauss.j_range(0, m.lo, m.hi)
    if not jm.valid:
        return INVALID
    e = bc.inv_beta - ONE
    a_iv = TWO * jm - q_range(x.lo, x.hi, bc)
    if a_iv.lo <= 0.0:
        return INVALID
    a_pow = a_iv.pow(e)
    out = (y - x).pow(e)
    out = out + bc.c_pow_inv_beta * a_pow * gauss.j_range(1, m.lo, m.hi)
    out = out - bc.c_pow_inv_beta * a_pow * qprime_range(x.lo, x.hi, bc)
    return out


def _g_QJ2(x, y, bc: BetaConsts):
    """((y-x)^2 + J(y)^2)^(1/2) + Q_{1/2}(x) - 2 J((x+y)/2)."""
    return ((y - x).ipow(2) + _J(y).ipow(2)).sqrt() + _Q(x, bc) - _J(_mid(x, y)) * TWO


def g_QJ2_bound(x: Interval, y: Interval, bc: BetaConsts) -> Interval:
    return _mean_value(_g_QJ2, x, y, bc)


def g_P2_bound(x: Interval, bc: BetaConsts) -> Interval:
    """2^(-2 beta) (L_{1/2}(x) + J(1-x)) - 2 x (1-x) on [1/64, 1/4]."""
    u = ONE - x
    jx = gauss.j_range(0, u.lo, u.hi)
    if not jx.valid:
        return INVALID
    lx = l_range(x.lo, x.hi, BC_HALF)
    return bc.two_pow_m2beta * (lx + jx) - TWO * x * u


P3_B0 = Interval.from_fraction(BETA0_DYADIC)
P3_E1 = Interval.from_fraction(2 * BETA0_DYADIC - 1)
P3_E2 = Interval.from_fraction(2 * BETA0_DYADIC)
P3_TWO_POW_M2B0 = BC_BETA0.two_pow_m2beta


def g_P3_bound(x: Interval, bc: BetaConsts) -> Interval:
    """Negated x-derivative of the Poincare comparison on [1/4, 1/2].

    One bound for every beta in [1/2, beta0], not for bc's beta alone: its
    constants sit at the ends of that range (2^(-2 beta0), x^(2 beta0 - 1),
    u^(2 beta0), 2 beta0 x, (1/2) Q'_{1/2}), and tests/test_bounds.py checks
    it against the target at beta sampled across the range.  The beta of a g_P_3
    certificate therefore names the registered run, not the only beta the
    bound holds for; reading beta from bc would lose that uniformity."""
    u = ONE - x
    out = -(HALF * qprime_range(x.lo, x.hi, BC_HALF))
    out = out + P3_TWO_POW_M2B0 * gauss.j_range(1, u.lo, u.hi)
    out = out + x.pow(P3_E1) * u
    out = out - x
    out = out + u.pow(P3_E2)
    out = out - TWO * P3_B0 * x
    return out


LOG_4PI = (Interval(4.0) * PI).log()

# The coefficients of the displayed tail polynomial, exactly.
TAIL_C1 = F(121, 100)
TAIL_EXPONENT = F(57, 100000)
TAIL_C2 = F(2, 5)
TAIL_C3 = F(880)
TAIL_INTERVALS = tuple(map(Interval.from_fraction, (TAIL_C1, TAIL_EXPONENT, TAIL_C2, TAIL_C3)))


def _tail_c2(bc: BetaConsts) -> Interval:
    """c2 = c1 log(1/w0)^beta, with c1 = log(2)^-beta."""
    w0 = gauss.profile_constants().w0
    return bc.log2_pow_mbeta * (ONE / w0).log().pow(bc.beta)


def tail_side_conditions(params: BetaParams) -> list[tuple[str, bool]]:
    """Certified dominations that let the displayed tail polynomial stand in
    for the exact tail comparison on the high range (u >= 10^(25/8)), at the
    params of the g_tail runs."""
    bc = beta_consts(params)
    return [
        ("tail_c1_le_1.21", strictly_less(bc.log2_pow_mbeta, TAIL_C1)),
        ("tail_exponent", params.beta - F(1, 2) <= TAIL_EXPONENT),
        ("tail_c2_le_0.4", strictly_less(_tail_c2(bc), TAIL_C2)),
        ("tail_log_le_880", strictly_less(Interval(381.0) * LOG10 + LOG_4PI, TAIL_C3)),
    ]


def g_tail_low_bound(v: Interval, bc: BetaConsts) -> Interval:
    """Exact tail comparison divided by u, in v = log10(u), for u <= 10^(25/8):

    2 - (v log10 + log(4 pi)) 10^-v - c1 10^((beta0-1/2) v) - c2 10^(-v/2)
    """
    out = TWO - (v * LOG10 + LOG_4PI) * _ten_pow(-v)
    out = out - bc.log2_pow_mbeta * _ten_pow((bc.beta - HALF) * v)
    out = out - _tail_c2(bc) * _ten_pow(-(v * HALF))
    return out


def g_tail_high_bound(v: Interval, bc: BetaConsts) -> Interval:
    """The displayed tail polynomial divided by u, in v = log10(u):

    2 - 1.21 * 10^(0.00057 v) - 0.4 * 10^(-v/2) - 880 * 10^(-v)
    """
    c1, e, c2, c3 = TAIL_INTERVALS
    out = TWO - c1 * _ten_pow(e * v)
    out = out - c2 * _ten_pow(-(v * HALF))
    out = out - c3 * _ten_pow(-v)
    return out


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# (fn_id, variant) -> the bound over one Interval per side of the box and the
# BetaConsts of the parameters.
_BOUNDS = {
    ("g_JL", ""): g_JL_bound,
    ("g_J1", ""): g_J1_bound,
    ("g_J2", ""): g_J2_bound,
    ("g_Q1", ""): g_Q1_bound,
    ("g_Q2", ""): g_Q2_bound,
    ("g_LJQ1", ""): g_LJQ1_bound,
    ("g_LJQ2", ""): g_LJQ2_bound,
    ("g_QJQ", ""): g_QJQ_bound,
    ("g_QJ1", ""): g_QJ1_bound,
    ("g_QJ2", ""): g_QJ2_bound,
    ("g_P2", ""): g_P2_bound,
    ("g_P3", ""): g_P3_bound,
    ("g_tail", "low"): g_tail_low_bound,
    ("g_tail", "high"): g_tail_high_bound,
}

BOUND_IDS = tuple(dict.fromkeys(fn_id for fn_id, _ in _BOUNDS))


def eval_bound_fn(bf: BoundFn, box: tuple[tuple[float, float], ...]) -> Interval:
    """Certified lower-bound interval for the bound function over the box.

    box is ((lo1, hi1),) for 1-d claims and ((lo1, hi1), (lo2, hi2)) for 2-d;
    a box of the other dimension raises TypeError.
    """
    return _BOUNDS[bf.fn_id, bf.variant](*[Interval(lo, hi) for lo, hi in box],
                                         beta_consts(bf.params))
