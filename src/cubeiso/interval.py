"""Self-contained interval arithmetic with outward rounding.

Endpoints are IEEE-754 doubles.  Every operation satisfies the containment
contract: if x in [a.lo, a.hi] and y in [b.lo, b.hi], then the exact real
result op(x, y) lies in the returned interval.  Undefined operations (log of
a non-positive interval, division by an interval containing zero, a quotient
with an inf/inf corner, ...) return the designated Invalid value, which
absorbs all further arithmetic.

Outward rounding is realized by post-hoc next-representable stepping rather
than FPU rounding-mode control, so the module is pure Python and
thread-safe.  Additions and subtractions recover the exact rounding error of
each end with one 2Sum step (Ogita, Rump & Oishi, SIAM J. Sci. Comput.
26, 2005) and only widen when the float result is inexact.  A NaN error
comes from an infinite or overflowed sum, which steps its end, so a true
+-inf stays and an overflow becomes +-MAX, as directed rounding gives; or
from a finite sum whose error term overflowed (MAX + -4.7e307 rounds up,
and the float sum minus -4.7e307 exceeds MAX), which is compared with the
exact sum as fractions.  This is the one
directed sum in the module: the cdf series uses it too.  Products,
quotients and integer powers share one rule (Moore, Kearfott & Cloud,
Introduction to Interval Analysis, SIAM 2009, ch. 2): take the float result
at each corner, take the min and max, and step each end one float outward.
The one exact corner is a zero factor or dividend, whose result is 0 (0 *
inf included), so an end at 0 stays when every corner that gives 0 has a
zero operand.  A float result is the nearest float to the exact one, so the
stepped end lies beyond it and at most one float beyond the outward-rounded
exact end (Rump, Zimmermann, Boldo & Melquiond, "Computing predecessor and
successor in rounding to nearest", BIT 49, 2009).  A step at +-inf changes
nothing, so an infinite factor or dividend keeps its infinite end, and
nextafter(+-inf, -+inf) = +-MAX makes an end that overflowed the largest
float, as directed rounding does.  When each factor, or the dividend, has
both ends nonzero and of one sign, the signs name the corners that give the
ends (Moore, Kearfott & Cloud), and only those two are computed.  Operands
with a zero or a straddling end, and quotients by an infinite divisor, take
all four corners.  An integer power applies the rule at each step of its
repeated multiplication of the end magnitudes, so each of its n - 1 steps
may add a float: x**n measured up to 2n - 3 floats beyond the
outward-rounded exact end.  A negative power is 1 / x**-n, or (1/x)**-n
where x holds no 0 but x**-n underflowed onto 0.  A product of nonnegative
factors and an even power keep a lower end of at least 0, where stepping an
underflowed 0.0 down would give -2^-1074.  Library
transcendentals (exp, log) are assumed correct to <= 1 ulp and are widened
by 2 ulp on each side; this assumption is exercised empirically by the
randomized containment suite against a high-precision oracle.

The Gaussian cdf at a float 0 < |t| <= 4.5 is 1/2 + (2 pi)^(-1/2) t P(t^2),
with P(x) = int_0^1 exp(-x s^2/2) ds evaluated as a Maclaurin polynomial in
float Horner, not with interval operations.  Its error is enclosed by the
sum of four rigorous bounds (derived above _SERIES_CUT): Horner rounding, by
a running bound accumulated alongside the Horner value (Higham, Alg. 5.1,
made rigorous); coefficient rounding, u times the polynomial with absolute
coefficients; argument rounding of t*t, through |P'| <= 1/6; and truncation,
by the first omitted term.  Only the final assembly of the cdf uses interval
operations.

The quantile of p, a point or not, is one certified bracket, memoized per
(p.lo, p.hi): an end below Phi^-1(p.lo) and one above Phi^-1(p.hi), each
seeded on its own and both widened until the cdf enclosures decide them.
Phi^-1 is increasing, so that bracket encloses the quantile over all of p
(Moore, Kearfott & Cloud, ch. 6); a p at or above 1/2 is mirrored to 1 - p,
which is exact there, so p and 1 - p share one bracket.  The seed is float
Newton, never trusted; deep in the tail it runs on erfc, which resolves a p
that 1 + erf cannot.

Endpoints may be -inf (lower) or +inf (upper) to express one-sided bounds.
Comparison against scalars is a partial order: ``strictly_greater(a, t)``
returning False proves nothing.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Union

_INF = math.inf
_MAX = sys.float_info.max
_MIN_NORMAL = sys.float_info.min
_nextafter = math.nextafter
_new = object.__new__

ScalarLike = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# Directed-rounding scalar helpers
# ---------------------------------------------------------------------------

def _up(x: float) -> float:
    return _nextafter(x, _INF)


def _down(x: float) -> float:
    return _nextafter(x, -_INF)


def _sum_down(s: float, x: float, y: float) -> float:
    """x + y rounded down from its float sum s, where s's 2Sum error is NaN."""
    if math.isfinite(s) and Fraction(s) <= Fraction(x) + Fraction(y):
        return s
    return _nextafter(s, -_INF)


def _sum_up(s: float, x: float, y: float) -> float:
    """x + y rounded up from its float sum s, where s's 2Sum error is NaN."""
    if math.isfinite(s) and Fraction(s) >= Fraction(x) + Fraction(y):
        return s
    return _nextafter(s, _INF)


def _hull(a: float, b: float, c: float, d: float,
          ac: float, ad: float, bc: float, bd: float) -> "Interval":
    """The outward-rounded hull of the float corner results ac = a op c, ad,
    bc and bd of a product or a quotient.  A corner with a zero operand is
    exact (a divisor end is never 0 here) and gives 0, so a nonzero end
    always moves one float outward, and an end at 0 moves when a corner of
    nonzero operands gave 0 too: it underflowed."""
    lo = min(ac, ad, bc, bd)
    hi = max(ac, ad, bc, bd)
    under = ((ac == 0.0 and a != 0.0 and c != 0.0) or (ad == 0.0 and a != 0.0 and d != 0.0)
             or (bc == 0.0 and b != 0.0 and c != 0.0) or (bd == 0.0 and b != 0.0 and d != 0.0))
    out = _new(Interval)
    out.lo = lo if lo == 0.0 and not under else _nextafter(lo, -_INF)
    out.hi = hi if hi == 0.0 and not under else _nextafter(hi, _INF)
    return out


def _pow_mag(v: float, n: int, toward: float) -> float:
    """v**n for v >= 0 by repeated multiplication, each product moved one
    float toward -inf or +inf unless a factor is 0: the base, or a power
    below 2^-1074 that an earlier step moved down to 0."""
    r = v
    for _ in range(n - 1):
        p = r * v
        r = p if r == 0.0 else _nextafter(p, toward)
    return r


# ---------------------------------------------------------------------------
# The Interval type
# ---------------------------------------------------------------------------

class Interval:
    """A closed interval [lo, hi] of extended reals, or Invalid (NaN ends).

    The constructor checks its ends.  The arithmetic operators and the
    elementary functions build their results with _new and two slot stores,
    as their ends are well formed by construction.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if lo != lo or hi != hi:
            lo = hi = math.nan
        elif lo > hi or lo == _INF or hi == -_INF:
            raise ValueError(f"malformed interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors ------------------------------------------------------

    @staticmethod
    def invalid() -> "Interval":
        return Interval(math.nan)

    @staticmethod
    def from_fraction(fr: ScalarLike) -> "Interval":
        """Width-minimal interval containing an exact rational."""
        fr = Fraction(fr)
        try:
            f = float(fr)
        except OverflowError:  # beyond the float range
            return Interval(_MAX, _INF) if fr > 0 else Interval(-_INF, -_MAX)
        ff = Fraction(f)
        if ff == fr:
            return Interval(f)
        if ff < fr:
            return Interval(f, _up(f))
        return Interval(_down(f), f)

    # -- predicates ---------------------------------------------------------

    @property
    def valid(self) -> bool:
        return self.lo == self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __repr__(self) -> str:
        if not self.valid:
            return "Interval.invalid()"
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        if not self.valid or not other.valid:
            return (not self.valid) and (not other.valid)
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        lo = self.lo
        return hash((lo, self.hi)) if lo == lo else 0  # every Invalid is equal

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Interval":
        if other.__class__ is not Interval:
            other = _coerce(other)
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        lo = a + c
        hi = b + d
        # 2Sum: elo and ehi are the exact rounding errors of lo and hi.  A NaN
        # error takes the exact test of _sum_down or _sum_up.
        v = lo - a
        w = hi - b
        elo = (a - (lo - v)) + (c - v)
        ehi = (b - (hi - w)) + (d - w)
        out = _new(Interval)
        out.lo = lo if elo >= 0.0 else _nextafter(lo, -_INF) if elo == elo else _sum_down(lo, a, c)
        out.hi = hi if ehi <= 0.0 else _nextafter(hi, _INF) if ehi == ehi else _sum_up(hi, b, d)
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        if other.__class__ is not Interval:
            other = _coerce(other)
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        lo = a - d
        hi = b - c
        # 2Sum of a + (-d) and b + (-c), as in __add__
        v = lo - a
        w = hi - b
        elo = (a - (lo - v)) + (-d - v)
        ehi = (b - (hi - w)) + (-c - w)
        out = _new(Interval)
        out.lo = lo if elo >= 0.0 else _nextafter(lo, -_INF) if elo == elo else _sum_down(lo, a, -d)
        out.hi = hi if ehi <= 0.0 else _nextafter(hi, _INF) if ehi == ehi else _sum_up(hi, b, -c)
        return out

    def __rsub__(self, other) -> "Interval":
        return _coerce(other).__sub__(self)

    def __neg__(self) -> "Interval":
        out = _new(Interval)  # exact; NaN ends stay NaN
        out.lo = -self.hi
        out.hi = -self.lo
        return out

    def __mul__(self, other) -> "Interval":
        if other.__class__ is not Interval:
            other = _coerce(other)
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        # Factors of one sign each: p*q is the lowest corner, r*s the highest.
        # Both ends step; an infinite end lies in one of them and stays.
        corners = None
        if 0.0 < a:
            if 0.0 < c:
                corners = a, c, b, d
            elif d < 0.0:
                corners = b, c, a, d
        elif b < 0.0:
            if 0.0 < c:
                corners = a, d, b, c
            elif d < 0.0:
                corners = b, d, a, c
        if corners is not None:
            p, q, r, s = corners
            lo = _nextafter(p * q, -_INF)
            if lo < 0.0 < min(p, q):  # x, y > 0: an underflowed x*y stops at 0
                lo = 0.0
            out = _new(Interval)
            out.lo = lo
            out.hi = _nextafter(r * s, _INF)
            return out
        if a != a or c != c:
            return INVALID
        ac, ad, bc, bd = a * c, a * d, b * c, b * d
        if ac != ac or ad != ad or bc != bc or bd != bd:
            # 0 * inf: the factor 0 is exact, so the product is 0
            ac, ad, bc, bd = (0.0 if p != p else p for p in (ac, ad, bc, bd))
        out = _hull(a, b, c, d, ac, ad, bc, bd)
        if out.lo < 0.0 <= min(a, c):  # x, y >= 0: an underflowed x*y stops at 0
            out.lo = 0.0
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        if other.__class__ is not Interval:
            other = _coerce(other)
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        # A dividend of one sign by a finite divisor of one sign: p/q is the
        # lowest corner, r/s the highest.  Both ends step; an infinite end of
        # the dividend lies in one of them and stays.
        corners = None
        if 0.0 < c and d < _INF:
            if 0.0 < a:
                corners = a, d, b, c
            elif b < 0.0:
                corners = a, c, b, d
        elif d < 0.0 and -_INF < c:
            if 0.0 < a:
                corners = b, d, a, c
            elif b < 0.0:
                corners = b, c, a, d
        if corners is not None:
            p, q, r, s = corners
            out = _new(Interval)
            out.lo = _nextafter(p / q, -_INF)
            out.hi = _nextafter(r / s, _INF)
            return out
        if not (self.valid and other.valid):
            return INVALID
        if c <= 0.0 <= d:
            return INVALID
        ac, ad, bc, bd = a / c, a / d, b / c, b / d
        if ac != ac or ad != ad or bc != bc or bd != bd:  # inf / inf
            return INVALID
        return _hull(a, b, c, d, ac, ad, bc, bd)

    def __rtruediv__(self, other) -> "Interval":
        return _coerce(other).__truediv__(self)

    def __abs__(self) -> "Interval":
        if not self.valid:
            return INVALID
        a, b = self.lo, self.hi
        if a >= 0.0:
            return self
        if b <= 0.0:
            return -self
        return Interval(0.0, max(-a, b))

    def min(self, other) -> "Interval":
        other = _coerce(other)
        if not (self.valid and other.valid):
            return INVALID
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max(self, other) -> "Interval":
        other = _coerce(other)
        if not (self.valid and other.valid):
            return INVALID
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def hull(self, other: "Interval") -> "Interval":
        if not (self.valid and other.valid):
            return INVALID
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    # -- elementary functions ------------------------------------------------

    def sqrt(self) -> "Interval":
        if not self.valid or self.lo < 0.0:
            return INVALID
        out = _new(Interval)
        out.lo = 0.0 if self.lo == 0.0 else max(0.0, _down(math.sqrt(self.lo)))
        out.hi = self.hi if math.isinf(self.hi) else _up(math.sqrt(self.hi))
        return out

    def exp(self) -> "Interval":
        if not self.valid:
            return INVALID
        if self.lo == -_INF:
            lo = 0.0
        elif self.lo == 0.0:
            lo = 1.0
        else:
            try:
                lo = max(0.0, _down(_down(math.exp(self.lo))))
            except OverflowError:
                lo = _MAX
        if self.hi == _INF:
            hi = _INF
        elif self.hi == 0.0:
            hi = 1.0
        else:
            try:
                hi = _up(_up(math.exp(self.hi)))
            except OverflowError:
                hi = _INF
        out = _new(Interval)
        out.lo = lo
        out.hi = hi
        return out

    def log(self) -> "Interval":
        if not self.valid or self.lo <= 0.0:
            return INVALID
        out = _new(Interval)
        out.lo = 0.0 if self.lo == 1.0 else _down(_down(math.log(self.lo)))
        if self.hi == 1.0:
            out.hi = 0.0
        else:
            out.hi = _INF if math.isinf(self.hi) else _up(_up(math.log(self.hi)))
        return out

    def ipow(self, n: int) -> "Interval":
        """Integer power, tight on the dependency x**n (not x*x*...*x)."""
        if not self.valid:
            return INVALID
        if n == 0:
            return ONE
        if n < 0:
            out = ONE / self.ipow(-n)
            if out.valid or self.lo <= 0.0 <= self.hi:
                return out
            return (ONE / self).ipow(-n)  # |x|**-n underflowed onto 0
        if n == 1:
            return self
        out = _new(Interval)
        if n % 2 == 0:
            m = abs(self)  # x**n >= 0, also where the lower end underflows
            out.lo = max(_pow_mag(m.lo, n, -_INF), 0.0)
            out.hi = _pow_mag(m.hi, n, _INF)
            return out
        lo, hi = self.lo, self.hi
        # x >= 0: an underflowed x**n stops at 0, as x*y does
        out.lo = -_pow_mag(-lo, n, _INF) if lo < 0.0 else max(_pow_mag(lo, n, -_INF), 0.0)
        out.hi = -_pow_mag(-hi, n, -_INF) if hi < 0.0 else _pow_mag(hi, n, _INF)
        return out

    def pow(self, p) -> "Interval":
        """Real power x**p, for p an Interval or anything _coerce takes.

        Non-integer exponents require lo >= 0.  0**p is 0 for p > 0; the
        degenerate exponent [0,0] yields [1,1] (the convention used by the
        tight-lower-bound formulas, where h**0 arises as a limit).
        """
        p = _coerce(p)
        if not (self.valid and p.valid):
            return INVALID
        if p.lo == p.hi:
            if p.lo == 0.0:
                return ONE
            if float(p.lo).is_integer() and abs(p.lo) <= 128:
                return self.ipow(int(p.lo))
        if self.lo < 0.0:
            return INVALID
        if self.lo == 0.0:
            if p.lo > 0.0:
                if self.hi == 0.0:
                    return ZERO
                if self.hi == _INF:
                    return Interval(0.0, _INF)
                tip = Interval(self.hi)._pow_pos(p)
                if not tip.valid:
                    return INVALID
                return Interval(0.0, tip.hi)
            return INVALID
        return self._pow_pos(p)

    def _pow_pos(self, p: "Interval") -> "Interval":
        return (p * self.log()).exp()


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    if isinstance(x, float) or (isinstance(x, int) and -(2**53) <= x <= 2**53):
        x = float(x)
        if not -_INF < x < _INF:
            return Interval(x)  # checked: NaN is Invalid, an infinite point is refused
        out = _new(Interval)
        out.lo = out.hi = x
        return out
    if isinstance(x, (int, Fraction)):  # an int beyond 2^53 may not be a float
        return Interval.from_fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as an interval")


INVALID = Interval.invalid()
ZERO = Interval(0.0)
ONE = Interval(1.0)
HALF = Interval(0.5)
TWO = Interval(2.0)

PI = Interval(_down(math.pi), _up(math.pi))
LOG2 = TWO.log()
LOG10 = Interval(10.0).log()
SQRT2 = TWO.sqrt()
SQRT_TWO_PI = (TWO * PI).sqrt()
INV_SQRT_TWO_PI = ONE / SQRT_TWO_PI


def strictly_greater(a: Interval, t: ScalarLike) -> bool:
    """True only if every x in a exceeds t.  False proves nothing."""
    if not a.valid:
        return False
    if isinstance(t, Fraction):
        return Fraction(a.lo) > t
    return a.lo > t


def strictly_less(a: Interval, t: ScalarLike) -> bool:
    if not a.valid:
        return False
    if isinstance(t, Fraction):
        return Fraction(a.hi) < t
    return a.hi < t


# ---------------------------------------------------------------------------
# Gaussian density, distribution and quantile with certified enclosures
# ---------------------------------------------------------------------------
#
# For 0 < |t| <= _SERIES_CUT, Phi(t) = 1/2 + (2 pi)^(-1/2) t P(t^2) with
#
#     P(x) = int_0^1 exp(-x s^2 / 2) ds = sum_n (-1)^n a_n x^n,
#     a_n = 1 / (n! 2^n (2n + 1)).
#
# The partial sum P_N (N = 28, 44, 64 for |t| <= 2, 3.2, 4.5) is evaluated in
# float Horner at x = fl(t*t) with coefficients c_n = fl(a_n), giving y with
# |P(t^2) - y| <= E, E the sum of four bounds (u = 2^-53, round to nearest):
#
# 1. Horner rounding.  z_i = fl(x y_{i+1}) and y_i = fl(z_i + c_i) each err
#    by at most u/(1-u) times the computed result, and an error made at step
#    i reaches y_0 multiplied by x^i, so |y - sum (-1)^n c_n x^n| <=
#    u/(1-u) mu with mu = sum_i x^i (|z_i| + |y_i|), accumulated by Horner
#    alongside y (Higham, Accuracy and Stability of Numerical Algorithms,
#    Alg. 5.1, without its first-order truncation).
# 2. Coefficient rounding.  |c_n - a_n| <= u c_n, so the coefficients move
#    the sum by at most u sum c_n x^n, a second Horner over |c_n|.
# 3. Argument rounding.  |t^2 - x| <= u x + 2^-1074 (t*t may underflow),
#    and |P'(x)| = int_0^1 (s^2/2) exp(-x s^2/2) ds <= 1/6 for x >= 0.
# 4. Truncation.  For n > N the terms a_n x^n decrease (x <= 2 (N + 2)), so
#    the alternating tail is at most the first omitted term a_{N+1} x^{N+1}.
#
# Each bound is itself computed in round to nearest from nonnegative floats
# in at most 200 operations, which loses less than a relative 2^-45; the
# factor 1 + 2^-40 on each absorbs that and the three roundings of their
# sum.  Gradual underflow in the multiplications costs at most
# 2^-1075 sum_i max(1, x)^i < 2^-790 absolutely, which the 2^-780 added to
# each bound absorbs.  The final Phi = 1/2 + (2 pi)^(-1/2) t [y - E, y + E]
# takes a few outward-rounded interval operations.
#
# For |t| > _SERIES_CUT the Mills-ratio asymptotic expansion gives
# two-sided bounds (partial sums ending on a positive term overestimate,
# on a negative term underestimate).

_SERIES_CUT = 4.5
_U = 2.0**-53
_SLACK = 1.0 + 2.0**-40
_TINY = 2.0**-780
_K_HORNER = _U / (1.0 - _U) * _SLACK
_K_COEFF = _U * _SLACK
_K_ARG = _U / 6.0 * _SLACK


def _horner_table(n_terms: int) -> tuple:
    """Horner data for N terms: the pairs (c_n, |c_n|) for n = N-1 down to 0,
    c_N, a float >= a_{N+1}, and N + 1."""
    a = [Fraction(1, math.factorial(n) * 2**n * (2 * n + 1)) for n in range(n_terms + 2)]
    c = [float(v) if n % 2 == 0 else -float(v) for n, v in enumerate(a)]
    return (tuple((c[n], abs(c[n])) for n in range(n_terms - 1, -1, -1)), c[n_terms],
            Interval.from_fraction(a[n_terms + 1]).hi, n_terms + 1)


_HORNER = {n: _horner_table(n) for n in (28, 44, 64)}


def _pow_float(x: float, k: int) -> float:
    """x**k by repeated squaring; relative rounding error below (1+u)**(2k)."""
    r = 1.0
    while k:
        if k & 1:
            r *= x
        x *= x
        k >>= 1
    return r


def _series_terms(t: float) -> tuple[float, float, float, float, float]:
    """y ~ P(t*t) and the four bounds on |P(t*t) - y|: Horner rounding,
    coefficient rounding, argument rounding and truncation."""
    a = abs(t)
    pairs, y, a_next, k = _HORNER[28 if a <= 2.0 else 44 if a <= 3.2 else 64]
    x = t * t
    mu = 0.0
    s = abs(y)
    for c, abs_c in pairs:
        z = x * y
        y = z + c
        mu = x * mu + abs(z) + abs(y)
        s = x * s + abs_c
    return (y, mu * _K_HORNER + _TINY, s * _K_COEFF + _TINY, x * _K_ARG + _TINY,
            a_next * _pow_float(x, k) * _SLACK + _TINY)


def _cdf_series(t: float) -> Interval:
    """Phi at a float 0 < |t| <= _SERIES_CUT, via the series."""
    y, e_horner, e_coeff, e_arg, e_trunc = _series_terms(t)
    e = e_horner + e_coeff + e_arg + e_trunc
    return HALF + INV_SQRT_TWO_PI * (Interval(t) * (Interval(y) + Interval(-e, e)))


def _upper_tail(z: Interval) -> Interval:
    """1 - Phi(z) for z >= _SERIES_CUT, by the alternating asymptotic series."""
    iz2 = ONE / z.ipow(2)
    # partial sums: ... + 105/z^8 is an upper bound, ... - 945/z^10 a lower one
    acc_hi = ((((Interval(105.0) * iz2 - 15.0) * iz2 + 3.0) * iz2 - 1.0) * iz2) + 1.0
    acc_lo = acc_hi - Interval(945.0) * iz2.ipow(5)
    out = normal_pdf(z) / z * Interval(max(acc_lo.lo, 0.0), acc_hi.hi)
    return Interval(max(out.lo, 0.0), out.hi)


def _cdf_point(t: float) -> Interval:
    if t == 0.0:
        return HALF
    a = abs(t)
    if a <= _SERIES_CUT:
        res = _cdf_series(t)
        return Interval(max(res.lo, 0.0), min(res.hi, 1.0))
    tail = _upper_tail(Interval(a))
    if t < 0.0:
        return tail
    res = ONE - tail
    return Interval(res.lo, min(res.hi, 1.0))


def normal_pdf(t: Interval) -> Interval:
    """Certified enclosure of (2*pi)**(-1/2) * exp(-t^2/2)."""
    if not t.valid:
        return INVALID
    return INV_SQRT_TWO_PI * (-(t.ipow(2)) * HALF).exp()


def normal_cdf(t: Interval) -> Interval:
    if not t.valid:
        return INVALID
    lo = 0.0 if t.lo == -_INF else _cdf_point(t.lo).lo
    hi = 1.0 if t.hi == _INF else _cdf_point(t.hi).hi
    return Interval(max(lo, 0.0), min(hi, 1.0))


class QuantileError(ValueError):
    """Raised when no bracket can be certified; normal_quantile turns it
    into Invalid."""


# Below this p the seed's Newton runs on 0.5 erfc(-t/sqrt(2)), because
# 0.5 (1 + erf(t/sqrt(2))) cannot resolve such p.  It lies below the least p
# any command reaches, 5.45e-4 (g_JL at x = 2047/2048), so every bracket a
# command takes keeps the erf seed.
_ERFC_CUT = 2.0**-20


def _quantile_seed(p: float) -> float:
    # Newton on the float cdf; only used as a seed, never trusted.
    if p < 0.02 or p > 0.98:
        q = min(p, 1.0 - p)
        q = max(q, _MIN_NORMAL)  # 1/q is finite
        t = math.sqrt(max(2.0 * math.log(1.0 / q) - math.log(2.0 * math.pi), 1e-8))
        t = math.copysign(t, p - 0.5)
    else:
        t = 0.0
    deep = p < _ERFC_CUT
    for _ in range(80):
        if deep:
            f = 0.5 * math.erfc(-t / math.sqrt(2.0)) - p
        else:
            f = 0.5 * (1.0 + math.erf(t / math.sqrt(2.0))) - p
        d = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        if d <= 0.0:
            break
        step = f / d
        step = max(min(step, 1.0), -1.0)
        t -= step
        if abs(step) < 1e-15 * max(1.0, abs(t)):
            break
    return t


@functools.cache
def _bracket(lo: float, hi: float) -> tuple[float, float]:
    """Certified bracket [a, b] with Phi(a) < lo and Phi(b) > hi, so that
    it holds Phi^-1 of every p in [lo, hi]: each end seeded by
    _quantile_seed and stepped outward by a distance that grows 8-fold until
    the cdf enclosures decide both.  Memoized per (lo, hi), so that I, J and
    J' at one corner share it; each worker process has its own memo."""
    ta = _quantile_seed(lo)
    tb = ta if hi == lo else _quantile_seed(hi)
    delta = max(4e-16 * max(1.0, abs(ta), abs(tb)), 2e-16)
    for _ in range(64):
        a = ta - delta
        b = tb + delta
        if _cdf_point(a).hi < lo and _cdf_point(b).lo > hi:
            return a, b
        delta *= 8.0
    raise QuantileError(f"cannot bracket quantile over p in [{lo!r}, {hi!r}]")


def normal_quantile(p: Interval) -> Interval:
    """Certified enclosure of Phi^{-1}(p) for p strictly inside (0, 1): the
    _bracket of [p.lo, p.hi], or for p.lo >= 1/2 that of [1 - p.hi, 1 - p.lo]
    negated.  A point p is the interval [p, p]: its bracket is as wide as the
    cdf enclosures need to decide it, not refined further."""
    if not p.valid or p.lo <= 0.0 or p.hi >= 1.0:
        return INVALID
    try:
        if p.lo >= 0.5:  # 1 - p is exact on [1/2, 1]
            a, b = _bracket(1.0 - p.hi, 1.0 - p.lo)
            return Interval(-b, -a)
        return Interval(*_bracket(p.lo, p.hi))
    except QuantileError:
        return INVALID
