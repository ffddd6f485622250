"""The comparison functions of the two-point inequalities.

    L_beta(x) = x * (log2(1/x))**beta
    Q_beta(x) = (2/3) x (1-x) (2^(beta+2) - 3 + 4 (3 - 2^(beta+1)) x)
    b_beta    = L_beta on [0,1/4], Q_beta on [1/4,1/2], J on [1/2,1]

together with their displayed derivatives, the constants

    alpha0 = 2^(2+beta) - 5   (> 0 for beta >= 1/2)
    alpha1 = 3 - 2^(1+beta)   (> 0 iff beta < log2(3/2))

and the two-point functionals

    G1[B](x,y) = ((y-x)^(1/beta) + B(y)^(1/beta))^beta + B(x) - 2 B((x+y)/2)
    G2[B](x,y) = y - x + (2^beta - 1) B(y) + B(x) - 2 B((x+y)/2)
    G = max(G1, G2).

G1 and G2 are written here only: their arguments may be Intervals or the
forward-mode gradients of bounds.Grad, so the bounds' mean-value forms run
the same formula as G_of_b and the scalar checks.

Everything is interval arithmetic; beta is normally an exact dyadic or
rational carried by BetaParams, but the evaluators also accept an interval
beta (needed once, for beta = log2(3/2) in a scalar check).

scalar_checks() returns the one-shot interval evaluations proved by single
function calls rather than by partitioning; each clears a fixed rational
threshold on a fixed side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import functools

from . import gauss
from .interval import (
    HALF,
    INVALID,
    LOG2,
    ONE,
    SQRT2,
    TWO,
    Interval,
    strictly_greater,
    strictly_less,
)

F = Fraction

BETA_HALF = F(1, 2)
BETA0_DYADIC = F(1, 2) + F(37, 65536)   # dyadic stand-in, slightly below 0.50057
BETA1 = F(1, 2) + F(31, 1024)
C0 = F(997, 1000)

TWO_THIRDS = Interval.from_fraction(F(2, 3))


@dataclass(frozen=True)
class BetaParams:
    """An exact exponent beta in [1/2, 1] and scaling constant c.

    The hash is taken once, in __post_init__: eval_bound_fn looks up
    beta_consts(params) on every box, and hashing two Fractions each time
    costs more than the lookup."""

    beta: Fraction
    c: Fraction = F(1)

    def __post_init__(self):
        if not (F(1, 2) <= self.beta <= 1):
            raise ValueError(f"beta={self.beta} outside [1/2, 1]")
        if not (0 < self.c <= 1):
            raise ValueError(f"c={self.c} outside (0, 1]")
        object.__setattr__(self, "_hash", hash((self.beta, self.c)))

    def __hash__(self) -> int:
        return self._hash

    def tag(self) -> str:
        b = self.beta
        c = self.c
        return f"beta{b.numerator}-{b.denominator}_c{c.numerator}-{c.denominator}"


class BetaConsts:
    """Derived interval constants for one (beta, c); cached for exact params."""

    __slots__ = (
        "beta", "c", "inv_beta", "one_minus_2ib", "two_pow_beta", "two_pow_m2beta",
        "two_pow_beta_m1", "alpha0", "alpha1", "log2_pow_mbeta",
        "c_pow_inv_beta", "c_pow_1m1b", "c_pow_1m2b", "_k_minus_inv_beta",
        "q_a", "q_b", "q1_c0", "q1_c1", "q1_c2", "q2_c1",
    )

    def __init__(self, beta: Interval, c: Interval, beta_exact: Fraction | None = None):
        self.beta = beta
        self.c = c
        if beta_exact is not None:
            self.inv_beta = Interval.from_fraction(1 / beta_exact)
            self.one_minus_2ib = Interval.from_fraction(1 - 2 / beta_exact)
            self.two_pow_m2beta = TWO.pow(Interval.from_fraction(-2 * beta_exact))
            self._k_minus_inv_beta = tuple(
                Interval.from_fraction(F(k) - 1 / beta_exact) for k in range(7)
            )
        else:
            self.inv_beta = ONE / beta
            self.one_minus_2ib = ONE - TWO * self.inv_beta
            self.two_pow_m2beta = TWO.pow(-(TWO * beta))
            self._k_minus_inv_beta = tuple(
                Interval(float(k)) - self.inv_beta for k in range(7)
            )
        self.two_pow_beta = TWO.pow(beta)
        self.two_pow_beta_m1 = self.two_pow_beta - ONE
        self.alpha0 = Interval(4.0) * self.two_pow_beta - Interval(5.0)
        self.alpha1 = Interval(3.0) - TWO * self.two_pow_beta
        self.log2_pow_mbeta = LOG2.pow(-beta)
        # Q(x) = (2/3) x (1-x) (q_a + q_b x) and its derivative coefficients
        self.q_a = Interval(4.0) * self.two_pow_beta - Interval(3.0)
        self.q_b = Interval(4.0) * self.alpha1
        self.q1_c0 = TWO_THIRDS * self.q_a
        self.q1_c1 = Interval(4.0) * self.alpha0
        self.q1_c2 = Interval(8.0) * self.alpha1
        self.q2_c1 = Interval(16.0) * self.alpha1
        # c = 1 needs no case: log gives [0, 0], so every power is [1, 1]
        self.c_pow_inv_beta = c.pow(self.inv_beta)
        self.c_pow_1m1b = c.pow(self._k_minus_inv_beta[1])
        self.c_pow_1m2b = c.pow(self.one_minus_2ib)

    def k_minus_inv_beta(self, k: int) -> Interval:
        return self._k_minus_inv_beta[k]


@functools.cache
def beta_consts(params: BetaParams) -> BetaConsts:
    return BetaConsts(
        Interval.from_fraction(params.beta),
        Interval.from_fraction(params.c),
        beta_exact=params.beta,
    )


# One params object per shared beta: the beta_consts memo is keyed by these,
# so every lookup finds its key by identity, without BetaParams.__eq__.
HALF_PARAMS = BetaParams(BETA_HALF)
BETA0_PARAMS = BetaParams(BETA0_DYADIC)
BC_HALF = beta_consts(HALF_PARAMS)
BC_BETA0 = beta_consts(BETA0_PARAMS)


# ---------------------------------------------------------------------------
# L_beta
# ---------------------------------------------------------------------------

def _log_recip(x: Interval) -> Interval:
    return -x.log()


# L increases on [0, e^-beta], and e^-beta >= e^-1 > 0.3678 for beta <= 1.
L_INCREASING_BELOW = 0.3678


def L(x: Interval, bc: BetaConsts, order: int = 0) -> Interval:
    """L_beta and its first two derivatives.

    Order 0 is defined on [0, 1] with L(0) = L(1) = 0 handled exactly;
    derivatives require x inside (0, 1).
    """
    if not x.valid:
        return INVALID
    if order == 0:
        if x.lo < 0.0 or x.hi > 1.0:
            return INVALID
        if x.lo == 0.0:
            if x.hi == 0.0:
                return Interval(0.0)
            upper = L(Interval(x.hi), bc, 0)
            # L increases up to exp(-beta); past it, cap with the peak value
            if x.hi > L_INCREASING_BELOW:
                peak = (-bc.beta).exp() * (bc.beta / LOG2).pow(bc.beta)
                return Interval(0.0, max(upper.hi, peak.hi))
            return Interval(0.0, upper.hi)
        t = _log_recip(x) / LOG2
        return x * t.pow(bc.beta)
    if x.lo <= 0.0 or x.hi >= 1.0:
        return INVALID
    lg = _log_recip(x)
    if order == 1:
        return bc.log2_pow_mbeta * lg.pow(bc.beta - ONE) * (lg - bc.beta)
    if order == 2:
        return -(bc.beta * bc.log2_pow_mbeta * (ONE / x)
                 * (ONE - bc.beta + lg) * lg.pow(bc.beta - TWO))
    raise ValueError(f"unsupported L derivative order {order}")


# ---------------------------------------------------------------------------
# Q_beta and R_beta = Q_beta(y)/y
# ---------------------------------------------------------------------------

def Q(x: Interval, bc: BetaConsts, order: int = 0) -> Interval:
    """Q_beta and its first two derivatives, from the displayed formulas
    with their per-beta coefficients taken from BetaConsts."""
    if not x.valid:
        return INVALID
    if order == 0:
        return TWO_THIRDS * x * (ONE - x) * (bc.q_a + bc.q_b * x)
    if order == 1:
        return bc.q1_c0 - bc.q1_c1 * x - bc.q1_c2 * x.ipow(2)
    if order == 2:
        return -bc.q1_c1 - bc.q2_c1 * x
    raise ValueError(f"unsupported Q derivative order {order}")


def R(y: Interval, bc: BetaConsts, order: int = 0) -> Interval:
    """R_beta(y) = (2/3)(1-y)(2^(beta+2) - 3 + 4(3 - 2^(beta+1)) y) and
    its derivatives (R''' = 0)."""
    A, B = bc.q_a, bc.q_b
    if order == 0:
        return TWO_THIRDS * (ONE - y) * (A + B * y)
    if order == 1:
        return TWO_THIRDS * (B - A - TWO * B * y)
    if order == 2:
        return -(Interval.from_fraction(F(4, 3)) * B)
    raise ValueError(f"unsupported R derivative order {order}")


# ---------------------------------------------------------------------------
# The glued candidate b_beta
# ---------------------------------------------------------------------------

_QUARTER = 0.25
_HALF_F = 0.5


def b(x: Interval, bc: BetaConsts) -> Interval:
    """Piecewise L/Q/J enclosure; boxes straddling a breakpoint take hulls."""
    if not x.valid or x.lo < 0.0 or x.hi > 1.0:
        return INVALID
    parts: list[Interval] = []
    if x.lo <= _QUARTER:
        parts.append(L(Interval(x.lo, min(x.hi, _QUARTER)), bc, 0))
    if x.lo <= _HALF_F and x.hi >= _QUARTER:
        parts.append(Q(Interval(max(x.lo, _QUARTER), min(x.hi, _HALF_F)), bc, 0))
    if x.hi >= _HALF_F:
        parts.append(gauss.j_range(0, max(x.lo, _HALF_F), x.hi))
    out = parts[0]
    for p in parts[1:]:
        out = out.hull(p)
    return out


# ---------------------------------------------------------------------------
# Two-point functionals
# ---------------------------------------------------------------------------

def G1(x, y, bx, by, bmid, bc: BetaConsts):
    """((y-x)^(1/beta) + B(y)^(1/beta))^beta + (B(x) - 2 B(mid)), for given
    values B(x), B(y), B(mid) of Intervals or Grads (a Grad stays left)."""
    return ((y - x).pow(bc.inv_beta) + by.pow(bc.inv_beta)).pow(bc.beta) + (bx - bmid * TWO)


def G2(x, y, bx, by, bmid, bc: BetaConsts):
    """(y-x) + (2^beta - 1) B(y) + (B(x) - 2 B(mid)); arguments as for G1."""
    return (y - x) + by * bc.two_pow_beta_m1 + (bx - bmid * TWO)


def G_of_b(x: Interval, y: Interval, bc: BetaConsts) -> Interval:
    """G_beta[b_beta](x, y) = max(G1, G2) with B = b_beta; G2 alone unless
    y - x and B(y) are provably >= 0."""
    mid = (x + y) * HALF
    bx, by, bmid = b(x, bc), b(y, bc), b(mid, bc)
    g2 = G2(x, y, bx, by, bmid, bc)
    d = y - x
    if not (d.valid and d.lo >= 0.0 and by.valid and by.lo >= 0.0):
        return g2
    g1 = G1(x, y, bx, by, bmid, bc)
    return g1.max(g2) if g1.valid else g2


# ---------------------------------------------------------------------------
# Scalar checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarCheck:
    check_id: str
    value: Interval
    threshold: Fraction
    direction: str          # "above": value.lo must exceed; "below": value.hi must undercut
    description: str

    @property
    def passed(self) -> bool:
        if self.direction == "above":
            return strictly_greater(self.value, self.threshold)
        return strictly_less(self.value, self.threshold)


def _f_LJQ_half(y: Interval, order: int) -> Interval:
    """The first (order 1) or second (order 2) y-derivative of
    f(y) = y + (sqrt2 - 1) J(y) - 2 Q_{1/2}(y/2)."""
    half_y = y * HALF
    if order == 1:
        jp = gauss.j_range(1, y.lo, y.hi)
        return ONE + (SQRT2 - ONE) * jp - Q(half_y, BC_HALF, 1)
    # f'' = -2 (sqrt2 - 1) / J - (1/2) Q''(y/2)
    j = gauss.j_range(0, y.lo, y.hi)
    return -(TWO * (SQRT2 - ONE) / j) - HALF * Q(half_y, BC_HALF, 2)


def _f_Q_drop(y: Interval, bc: BetaConsts, order: int) -> Interval:
    """The first (order 1) or second (order 2) derivative of
    f0(y) = y R(y)^(1/beta - 1) R'(y).

    f1 = R^(1/beta-1), f2 = y R'; f0 = f1 f2.
    """
    e1 = bc.inv_beta - ONE
    r = R(y, bc, 0)
    r1 = R(y, bc, 1)
    r2 = R(y, bc, 2)
    f1 = r.pow(e1)
    f2 = y * r1
    f1p = e1 * r.pow(e1 - ONE) * r1
    f2p = r1 + y * r2
    if order == 1:
        return f1p * f2 + f1 * f2p
    f1pp = (e1 * (e1 - ONE) * r.pow(e1 - TWO) * r1.ipow(2)
            + e1 * r.pow(e1 - ONE) * r2)
    f2pp = TWO * r2
    return f1pp * f2 + TWO * f1p * f2p + f1 * f2pp


def _g_LJ(x: Interval, y: Interval) -> Interval:
    """G2 at beta = 1/2 with B = (L_{1/2}, J, J) at (x, y, (x+y)/2)."""
    mid = (x + y) * HALF
    return G2(x, y, L(x, BC_HALF, 0), gauss.j_range(0, y.lo, y.hi),
              gauss.j_range(0, mid.lo, mid.hi), BC_HALF)


def _dxx_g_LJ(x: Interval, y: Interval) -> Interval:
    """L''_{1/2}(x) + 1/J((x+y)/2)."""
    mid = (x + y) * HALF
    return L(x, BC_HALF, 2) + ONE / gauss.j_range(0, mid.lo, mid.hi)


def _p_cubic(x: Interval, beta: Fraction) -> Interval:
    """The cubic factor of the diagonal case of the Q/J cross inequality:

    p(x) = (18 - 3*2^(3+b) + 2^(3+2b)) x^3 + (2^(5+b) - 3*2^(2+2b) - 21) x^2
         + (8 + 3*2^(1+2b) - 7*2^(1+b)) x + 2 - 2^(2b).
    """
    bi = Interval.from_fraction(beta)
    p2b = TWO.pow(TWO * bi)
    pb = TWO.pow(bi)
    a3 = Interval(18.0) - Interval(3.0) * Interval(8.0) * pb + Interval(8.0) * p2b
    a2 = Interval(32.0) * pb - Interval(3.0) * Interval(4.0) * p2b - Interval(21.0)
    a1 = Interval(8.0) + Interval(3.0) * TWO * p2b - Interval(7.0) * TWO * pb
    a0 = TWO - p2b
    return ((a3 * x + a2) * x + a1) * x + a0


def _g_P1(x: Interval, bc: BetaConsts) -> Interval:
    """2^(-2 beta) (sqrt(log2(1/x)) + sqrt(log(w0/x))) - 2."""
    w0 = gauss.profile_constants().w0
    lg2 = (-x.log()) / LOG2
    return bc.two_pow_m2beta * (lg2.sqrt() + (w0 / x).log().sqrt()) - TWO


def _quartic_factor_f(x: Interval, beta: Interval) -> Interval:
    """f_beta(x) = -(3-b)(2-b)(1-b) + (1-b-2 log(1/x)) log(1/x)^2
                 + 2 (2-b)(1-b) log(1/x)   (the 4th-derivative factor of L)."""
    lg = -x.log()
    t3 = Interval(3.0) - beta
    t2 = TWO - beta
    t1 = ONE - beta
    return (-(t3 * t2 * t1) + (t1 - TWO * lg) * lg.ipow(2) + TWO * t2 * t1 * lg)


def scalar_checks() -> list[ScalarCheck]:
    """All one-shot interval evaluations, with their thresholds and sides."""
    from . import bounds  # local import; bounds depends on this module

    q = Interval(0.25)
    half = Interval(0.5)
    out: list[ScalarCheck] = []

    def add(check_id, value, threshold, direction, description):
        out.append(ScalarCheck(check_id, value, threshold, direction, description))

    add("g_LJQ_11a", _f_LJQ_half(Interval(9 / 16), 2), F(1, 20), "above",
        "second derivative of the L/J/Q edge function at 9/16")
    add("g_LJQ_11b", _f_LJQ_half(Interval.from_fraction(F(4, 5)), 2), F(-3, 10), "below",
        "second derivative of the L/J/Q edge function at 4/5")
    add("g_LJQ_13a", _f_LJQ_half(Interval(9 / 16), 1), F(1, 20), "above",
        "first derivative of the L/J/Q edge function at 9/16")
    add("g_LJQ_13b", _f_LJQ_half(Interval(15 / 16), 1), F(-1, 10), "below",
        "first derivative of the L/J/Q edge function at 15/16")
    add("Q_fb1_half", _f_Q_drop(q, BC_HALF, 2), F(16, 5), "above",
        "f0'' at 1/4 for beta = 1/2")
    add("Q_fb1_beta0", _f_Q_drop(q, BC_BETA0, 2), F(16, 5), "above",
        "f0'' at 1/4 for the dyadic beta0")
    add("Q_fb2_half", _f_Q_drop(half, BC_HALF, 1), F(-3, 5), "below",
        "f0' at 1/2 for beta = 1/2")
    add("Q_fb2_beta0", _f_Q_drop(half, BC_BETA0, 1), F(-3, 5), "below",
        "f0' at 1/2 for the dyadic beta0")
    ljq3 = (TWO * Interval(0.75) - ONE + (SQRT2 - ONE) * gauss.j_range(0, 0.75, 0.75)
            + L(q, BC_HALF, 0) - ONE)
    add("LJQ_II_3", ljq3, F(1, 100), "above",
        "anti-diagonal L/J/Q edge value at y = 3/4")
    add("g_LJ_1", L(q, BC_HALF, 2), F(-27, 10), "below",
        "L'' at 1/4 for beta = 1/2")
    add("g_LJ_2", _dxx_g_LJ(q, ONE), F(-7, 10), "below",
        "second x-derivative of the L/J bound at (1/4, 1)")
    add("g_LJ_3", _g_LJ(q, ONE), F(1, 10), "above",
        "L/J bound value at (1/4, 1)")
    add("g_LJ_4", _g_LJ(q, Interval(0.75)), F(1, 50), "above",
        "L/J bound value at (1/4, 3/4)")
    add("p_quarter_half", _p_cubic(q, BETA_HALF), F(1, 10000), "above",
        "diagonal cubic factor at 1/4 for beta = 1/2")
    add("p_quarter_beta1", _p_cubic(q, BETA1), F(1, 10000), "above",
        "diagonal cubic factor at 1/4 for beta1")
    add("g_P_1", _g_P1(Interval(1 / 64), BC_BETA0), F(1, 5), "above",
        "small-x Poincare comparison at 1/64")
    add("L4_factor_at_half", _quartic_factor_f(half, ONE), F(-3, 5), "below",
        "fourth-derivative factor of L at 1/2, beta = 1")
    add("LQ_prime_quarter",
        L(q, BC_HALF, 1) - Q(q, BC_HALF, 1), F(-3, 25), "below",
        "L' - Q' at 1/4 for beta = 1/2")
    beta_log32 = Interval.from_fraction(F(3, 2)).log() / LOG2
    bc_log32 = BetaConsts(beta_log32, ONE)
    add("LQ_dd_half_log32",
        L(half, bc_log32, 2) - Q(half, bc_log32, 2), F(13, 10), "above",
        "L'' - Q'' at 1/2 for beta = log2(3/2)")
    add("LQ_dd_quarter",
        L(q, BC_HALF, 2) - Q(q, BC_HALF, 2), F(1, 2), "above",
        "L'' - Q'' at 1/4 for beta = 1/2")
    s = Interval.from_fraction(F(1, 2048))
    add("JL_gap_endpoint",
        gauss.j_point(2047 / 2048) - L(s, BC_BETA0, 0), F(1, 10000), "above",
        "gap between J and the reflected L at 2047/2048")
    add("g_Q_1_y14a",
        bounds.g_Q1_bound(q, Interval(0.25, 0.375), BC_HALF), F(1, 100), "above",
        "near-diagonal Q bound at h = 1/4, y in [1/4, 3/8]")
    add("g_Q_1_y14b",
        bounds.g_Q1_bound(q, Interval(0.375, 0.5), BC_HALF), F(1, 1000), "above",
        "near-diagonal Q bound at h = 1/4, y in [3/8, 1/2]")
    return out


def run_scalar_checks() -> tuple[bool, list[ScalarCheck]]:
    checks = scalar_checks()
    return all(c.passed for c in checks), checks
