"""Certified enclosures for the Gaussian isoperimetric profile.

The profile is I(x) = phi(PhiInv(x)) with phi the standard normal density
and Phi its distribution function; it is symmetric about 1/2, increasing on
[0, 1/2], and satisfies I(0) = I(1) = 0 and I * I'' = -1.

The rescaled reflected profile

    J_w(x) = sqrt(2) * w * I((1 - x) / w)

solves J'' J = -2 with J_w(1) = 0.  The distinguished width w0 is the value
normalizing J_{w0}(1/2) = 1/2; it is computed once by certified bisection
(each midpoint decided with 39 enclosure widths to spare, see _bisect_w0) and
carried as an interval constant everywhere (never as a point approximation),
so that all comparisons against the maximum point x0 = 1 - w0/2 can be made
conservatively.  J is increasing left of x0 and decreasing right of it, and
its peak value is exactly J(x0) = sqrt(2) * w0 * (2*pi)**(-1/2).

Derivatives are evaluated in closed form: J'(x) = sqrt(2) * PhiInv(u) with
u = (1 - x)/w0 (from I' = -PhiInv), and the higher derivatives are algebraic
in (J, J'):

    J''  = -2/J                      J''' = 2 J' J^-2
    J4   = -4 (1 + J'^2) J^-3        J5   = 4 J' (7 + 3 J'^2) J^-4
    J6   = -8 (7 + 23 J'^2 + 6 J'^4) J^-5
    J7   = 8 J' (127 + 163 J'^2 + 30 J'^4) J^-6

These identities live here and only here, as j3_of .. j6_of of (J', J)
enclosures; J7 serves only for its sign.  As J > 0, each J^(k+1) has one
sign or that of J', which is > 0 left of x0 and < 0 right of it:

    k          0     1     3     4     5     6
    J^(k+1)    J'    < 0   < 0   J'    < 0   J'

So by the monotonicity test (Moore, Kearfott & Cloud, Introduction to
Interval Analysis, SIAM 2009, ch. 6), j_range encloses J^(k) over [a, b] by
one rule on its end values v(a), v(b): [v(b).lo, v(a).hi] for odd k and for
even k right of x0, [v(a).lo, v(b).hi] for even k left of x0, and
[min(v(a).lo, v(b).lo), peak.hi] for even k on a box not certified to lie
on one side, the peak J^(k)(x0) being the identity at J' = 0 and J(x0).

J, J' and J^(k) at float points and the profile constants are memoized here
with functools.cache, the mechanism the interval module uses for the
quantile brackets beneath I, J and J'; the partition engine re-visits
corners heavily.  At a float x, u = (1 - x)/w0 is about 1e-12 wide, and J
and J' there share the one certified bracket that normal_quantile gives any
argument, a point or not: for u >= 1/2, I takes it at 1 - u and
normal_quantile mirrors the u of J' to the same key.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .interval import (
    HALF,
    INV_SQRT_TWO_PI,
    INVALID,
    ONE,
    SQRT2,
    TWO,
    ZERO,
    Interval,
    normal_pdf,
    normal_quantile,
)

W0_BRACKET = (0.895, 0.896)
W0_WIDTH_TARGET = 2.0**-40  # well below the required 2^-30


@dataclass(frozen=True)
class ProfileConstants:
    """Interval constants depending on w0, computed once per process."""

    w0: Interval
    x0: Interval          # 1 - w0/2, the maximum point of J
    sqrt2_w0: Interval    # sqrt(2) * w0, the J prefactor
    j_peak: Interval      # J(x0) = sqrt(2) * w0 / sqrt(2*pi)
    domain_lo: Interval   # 1 - w0, left end of J's natural domain


# ---------------------------------------------------------------------------
# Gaussian isoperimetric profile I
# ---------------------------------------------------------------------------

def gauss_profile(x: Interval) -> Interval:
    """Enclosure of I over x, exploiting symmetry and monotonicity.  An x at
    or above 1/2 is mirrored to 1 - x (exact there); an x on one side of 1/2
    then gets I = phi(PhiInv(x)) at one quantile bracket, the bracket that J'
    takes at the same x, and I(0) = I(1) = 0 exactly.  Across 1/2, I lies
    between the lesser of its end values and the peak I(1/2)."""
    if not x.valid or x.lo < 0.0 or x.hi > 1.0:
        return INVALID
    a, b = x.lo, x.hi
    if a < 0.5 < b:
        lo = min(gauss_profile(Interval(a)).lo, gauss_profile(Interval(b)).lo)
        return Interval(max(lo, 0.0), INV_SQRT_TWO_PI.hi)
    if a >= 0.5:
        a, b = 1.0 - b, 1.0 - a  # exact on [1/2, 1]
    if a > 0.0:
        return normal_pdf(normal_quantile(Interval(a, b)))
    return Interval(0.0) if b == 0.0 else Interval(0.0, gauss_profile(Interval(b)).hi)


# ---------------------------------------------------------------------------
# w0 and x0
# ---------------------------------------------------------------------------

def _jw_at_half_minus_half(w: float) -> Interval:
    """sqrt(2) * w * I(1/(2w)) - 1/2, the bisection residual (increasing in w)."""
    wi = Interval(w)
    u = HALF / wi
    return SQRT2 * wi * gauss_profile(u) - HALF


def _bisect_w0() -> Interval:
    """w0 by certified bisection on W0_BRACKET.  An undecided midpoint is an
    ArithmeticError, and none occurs: the residual enclosures of the 31
    midpoints are about 1.3e-15 wide, and the nearest to 0, at the 30th,
    is [5.71e-14, 5.85e-14], 39 widths away."""
    lo, hi = W0_BRACKET
    flo = _jw_at_half_minus_half(lo)
    fhi = _jw_at_half_minus_half(hi)
    if not (flo.hi < 0.0 < fhi.lo):
        raise ArithmeticError("cannot certify the w0 bracket signs")
    while hi - lo > W0_WIDTH_TARGET:
        m = 0.5 * (lo + hi)
        fm = _jw_at_half_minus_half(m)
        if fm.hi < 0.0:
            lo = m
        elif fm.lo > 0.0:
            hi = m
        else:
            raise ArithmeticError(f"w0 bisection stalled at width {hi - lo!r}")
    return Interval(lo, hi)


@functools.cache
def profile_constants() -> ProfileConstants:
    w0 = _bisect_w0()
    sqrt2_w0 = SQRT2 * w0
    return ProfileConstants(
        w0=w0,
        x0=ONE - w0 * HALF,
        sqrt2_w0=sqrt2_w0,
        j_peak=sqrt2_w0 * INV_SQRT_TWO_PI,
        domain_lo=ONE - w0,
    )


# ---------------------------------------------------------------------------
# J and its derivatives
# ---------------------------------------------------------------------------

def _u_of(x: Interval) -> Interval:
    """(1 - x)/w0, Invalid outside J's natural domain."""
    u = (ONE - x) / profile_constants().w0
    if not u.valid or u.lo < 0.0 or u.hi > 1.0:
        return INVALID
    return u


@functools.cache
def j_point(x: float) -> Interval:
    u = _u_of(Interval(x))
    return INVALID if not u.valid else profile_constants().sqrt2_w0 * gauss_profile(u)


@functools.cache
def jprime_point(x: float) -> Interval:
    u = _u_of(Interval(x))
    if not u.valid or u.lo <= 0.0 or u.hi >= 1.0:
        return INVALID
    return SQRT2 * normal_quantile(u)


def j3_of(jp: Interval, j: Interval) -> Interval:
    """J''' = 2 J' J^-2 from enclosures of J' and J."""
    return TWO * jp * j.ipow(-2)


def j4_of(jp: Interval, j: Interval) -> Interval:
    """J^(4) = -4 (1 + J'^2) J^-3 from enclosures of J' and J."""
    return -(Interval(4.0) * (ONE + jp.ipow(2)) * j.ipow(-3))


def j5_of(jp: Interval, j: Interval) -> Interval:
    """J^(5) = 4 J' (7 + 3 J'^2) J^-4 from enclosures of J' and J."""
    return Interval(4.0) * jp * (Interval(7.0) + Interval(3.0) * jp.ipow(2)) * j.ipow(-4)


def j6_of(jp: Interval, j: Interval) -> Interval:
    """J^(6) = -8 (7 + 23 J'^2 + 6 J'^4) J^-5 from enclosures of J' and J."""
    return -(Interval(8.0) * (Interval(7.0) + Interval(23.0) * jp.ipow(2)
                              + Interval(6.0) * jp.ipow(4)) * j.ipow(-5))


_JK_OF = {3: j3_of, 4: j4_of, 5: j5_of, 6: j6_of}


@functools.cache
def jk_point(k: int, x: float) -> Interval:
    """J^(k) at a float point; k = 0 is j_point, as J(1) = 0 while J'(1) is Invalid."""
    if k == 0:
        return j_point(x)
    if k == 1:
        return jprime_point(x)
    return _JK_OF[k](jprime_point(x), j_point(x))


@functools.cache
def _jk_peak(k: int) -> Interval:
    """J^(k)(x0) for even k: the identity at J' = 0 and the exact peak J(x0)."""
    j_peak = profile_constants().j_peak
    return j_peak if k == 0 else _JK_OF[k](ZERO, j_peak)


def j_range(k: int, xlo: float, xhi: float) -> Interval:
    """Range enclosure of J^(k) over [xlo, xhi], k in {0, 1, 3, 4, 5, 6}, by
    the monotonicity rule of the module docstring."""
    va = jk_point(k, xlo)
    vb = jk_point(k, xhi)
    if not (va.valid and vb.valid):
        return INVALID
    x0 = profile_constants().x0
    out = object.__new__(Interval)  # both ends come from valid enclosures
    if k % 2 == 1 or xlo > x0.hi:
        out.lo, out.hi = vb.lo, va.hi
    elif xhi < x0.lo:
        out.lo, out.hi = va.lo, vb.hi
    else:
        out.lo, out.hi = min(va.lo, vb.lo), _jk_peak(k).hi
    return out
