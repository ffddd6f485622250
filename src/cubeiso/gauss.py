"""Certified enclosures for the Gaussian isoperimetric profile.

The profile is I(x) = phi(PhiInv(x)) with phi the standard normal density
and Phi its distribution function; it is symmetric about 1/2, increasing on
[0, 1/2], and satisfies I(0) = I(1) = 0 and I * I'' = -1.

The rescaled reflected profile

    J_w(x) = sqrt(2) * w * I((1 - x) / w)

solves J'' J = -2 with J_w(1) = 0.  The distinguished width w0 is the value
normalizing J_{w0}(1/2) = 1/2; it is computed once by certified bisection and
carried as an interval constant everywhere (never as a point approximation),
so that all comparisons against the maximum point x0 = 1 - w0/2 can be made
conservatively.  J is increasing left of x0 and decreasing right of it, which
yields the endpoint-based enclosures below; a box straddling x0 takes the
exact peak value J(x0) = sqrt(2) * w0 * (2*pi)**(-1/2) as its upper bound.

Derivatives are evaluated in closed form: J'(x) = sqrt(2) * PhiInv(u) with
u = (1 - x)/w0 (from I' = -PhiInv), and the higher derivatives are algebraic
in (J, J'):

    J''  = -2/J                      J''' = 2 J' J^-2
    J4   = -4 (1 + J'^2) J^-3        J5   = 4 J' (7 + 3 J'^2) J^-4
    J6   = -8 (7 + 23 J'^2 + 6 J'^4) J^-5

J and J' at dyadic coordinates are memoized here, and the quantile brackets
beneath I, J and J' in the interval module; the partition engine re-visits
corners heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .interval import (
    HALF,
    INV_SQRT_TWO_PI,
    INVALID,
    ONE,
    PI,
    TWO,
    Interval,
    normal_pdf,
    normal_quantile,
)

SQRT2 = TWO.sqrt()

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


@dataclass(frozen=True)
class JDerivativeBundle:
    """Enclosures of J and its derivatives over a rectangle [xlo, xhi]."""

    j: Interval
    jprime: Interval
    absjprime: Interval
    j3: Interval
    j4: Interval
    j5: Interval
    j6: Interval


# ---------------------------------------------------------------------------
# Gaussian isoperimetric profile I
# ---------------------------------------------------------------------------

def _profile_point(t: float) -> Interval:
    """I at a float point in [0, 1]."""
    if t == 0.0 or t == 1.0:
        return Interval(0.0)
    if t == 0.5:
        return INV_SQRT_TWO_PI
    s = 1.0 - t if t > 0.5 else t  # exact for t in [1/2, 1]
    q = normal_quantile(Interval(s, s))
    return INVALID if not q.valid else normal_pdf(q)


def gauss_profile(x: Interval) -> Interval:
    """Enclosure of I over x, exploiting symmetry and monotonicity."""
    if not x.valid or x.lo < 0.0 or x.hi > 1.0:
        return INVALID
    a, b = x.lo, x.hi
    if b <= 0.5:
        return Interval(_profile_point(a).lo, _profile_point(b).hi)
    if a >= 0.5:
        return Interval(_profile_point(b).lo, _profile_point(a).hi)
    lo = min(_profile_point(a).lo, _profile_point(b).lo)
    return Interval(max(lo, 0.0), INV_SQRT_TWO_PI.hi)


# ---------------------------------------------------------------------------
# w0 and x0
# ---------------------------------------------------------------------------

def _jw_at_half_minus_half(w: float) -> Interval:
    """sqrt(2) * w * I(1/(2w)) - 1/2, the bisection residual (increasing in w)."""
    wi = Interval(w)
    u = HALF / wi
    return SQRT2 * wi * gauss_profile(u) - HALF


def _bisect_w0() -> Interval:
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
            # sign not certifiable at the midpoint; probe off-center once
            m2 = lo + 0.46875 * (hi - lo)
            fm2 = _jw_at_half_minus_half(m2)
            if fm2.hi < 0.0:
                lo = m2
            elif fm2.lo > 0.0:
                hi = m2
            else:
                raise ArithmeticError(
                    f"w0 bisection stalled at width {hi - lo!r}"
                )
    return Interval(lo, hi)


_CONSTANTS: ProfileConstants | None = None


def profile_constants() -> ProfileConstants:
    global _CONSTANTS
    if _CONSTANTS is None:
        w0 = _bisect_w0()
        x0 = ONE - w0 * HALF
        sqrt2_w0 = SQRT2 * w0
        _CONSTANTS = ProfileConstants(
            w0=w0,
            x0=x0,
            sqrt2_w0=sqrt2_w0,
            j_peak=sqrt2_w0 * INV_SQRT_TWO_PI,
            domain_lo=ONE - w0,
        )
    return _CONSTANTS


def compute_w0() -> Interval:
    return profile_constants().w0


def compute_x0() -> Interval:
    return profile_constants().x0


# ---------------------------------------------------------------------------
# J and its derivatives
# ---------------------------------------------------------------------------

_J_CACHE: dict[float, Interval] = {}
_JPRIME_CACHE: dict[float, Interval] = {}


def _u_of(x: Interval) -> Interval:
    """(1 - x)/w0, Invalid outside J's natural domain."""
    u = (ONE - x) / profile_constants().w0
    if not u.valid or u.lo < 0.0 or u.hi > 1.0:
        return INVALID
    return u


def j_value(x: Interval) -> Interval:
    """Enclosure of J over an interval inside [1 - w0, 1]."""
    if not x.valid:
        return INVALID
    if x.lo == x.hi:
        return j_point(x.lo)
    return j_enclosure(x.lo, x.hi)


def j_point(x: float) -> Interval:
    cached = _J_CACHE.get(x)
    if cached is not None:
        return cached
    c = profile_constants()
    u = _u_of(Interval(x))
    res = INVALID if not u.valid else c.sqrt2_w0 * gauss_profile(u)
    _J_CACHE[x] = res
    return res


def jprime_point(x: float) -> Interval:
    cached = _JPRIME_CACHE.get(x)
    if cached is not None:
        return cached
    u = _u_of(Interval(x))
    if not u.valid or u.lo <= 0.0 or u.hi >= 1.0:
        res = INVALID
    else:
        res = SQRT2 * normal_quantile(u)
    _JPRIME_CACHE[x] = res
    return res


def j_enclosure(xlo: float, xhi: float) -> Interval:
    """[min J, max J] over [xlo, xhi]; straddling x0 caps at the exact peak."""
    c = profile_constants()
    jl = j_point(xlo)
    jr = j_point(xhi)
    if not (jl.valid and jr.valid):
        return INVALID
    lo = max(min(jl.lo, jr.lo), 0.0)
    if xhi < c.x0.lo:
        hi = jr.hi
    elif xlo > c.x0.hi:
        hi = jl.hi
    else:
        hi = c.j_peak.hi
    return Interval(lo, hi)


def jprime_enclosure(xlo: float, xhi: float) -> Interval:
    """J' is strictly decreasing, so the enclosure is endpoint-based."""
    jl = jprime_point(xlo)
    jr = jprime_point(xhi)
    if not (jl.valid and jr.valid):
        return INVALID
    return Interval(jr.lo, jl.hi)


def absjprime_enclosure(xlo: float, xhi: float) -> Interval:
    """|J'| over the box; the lower end is 0 unless the box avoids x0 provably."""
    c = profile_constants()
    jl = jprime_point(xlo)
    jr = jprime_point(xhi)
    if not (jl.valid and jr.valid):
        return INVALID
    hi = max(abs(jl).hi, abs(jr).hi)
    if xhi < c.x0.lo:
        lo = max(jr.lo, 0.0)
    elif xlo > c.x0.hi:
        lo = max(-jl.hi, 0.0)
    else:
        lo = 0.0
    return Interval(min(lo, hi), hi)


def j3_lower(xlo: float, xhi: float) -> Interval:
    """Tight lower bound for J''' = 2 J' J^-2; .lo is the certified bound."""
    c = profile_constants()
    if xhi < c.x0.lo:
        jp = jprime_point(xhi)
        j = j_point(xhi)
        return TWO * jp * j.ipow(-2)
    aj = absjprime_enclosure(xlo, xhi)
    jen = j_enclosure(xlo, xhi)
    return -(TWO * aj * jen.ipow(-2))


def j5_lower(xlo: float, xhi: float) -> Interval:
    """Tight lower bound for J^(5) = 4 J' (7 + 3 J'^2) J^-4."""
    c = profile_constants()
    if xhi < c.x0.lo:
        jp = jprime_point(xhi)
        j = j_point(xhi)
        return Interval(4.0) * jp * (Interval(7.0) + Interval(3.0) * jp.ipow(2)) * j.ipow(-4)
    aj = absjprime_enclosure(xlo, xhi)
    jen = j_enclosure(xlo, xhi)
    return -(Interval(4.0) * aj * (Interval(7.0) + Interval(3.0) * aj.ipow(2)) * jen.ipow(-4))


def j_derivative_bundle(xlo: float, xhi: float) -> JDerivativeBundle:
    """Generic enclosures of J, J', |J'| and derivatives 3..6 on the box."""
    j = j_enclosure(xlo, xhi)
    jp = jprime_enclosure(xlo, xhi)
    aj = absjprime_enclosure(xlo, xhi)
    inv2 = j.ipow(-2)
    inv3 = j.ipow(-3)
    inv4 = j.ipow(-4)
    inv5 = j.ipow(-5)
    aj2 = aj.ipow(2)
    j3 = TWO * jp * inv2
    j4 = -(Interval(4.0) * (ONE + aj2) * inv3)
    j5 = Interval(4.0) * jp * (Interval(7.0) + Interval(3.0) * aj2) * inv4
    j6 = -(Interval(8.0) * (Interval(7.0) + Interval(23.0) * aj2 + Interval(6.0) * aj.ipow(4)) * inv5)
    return JDerivativeBundle(j=j, jprime=jp, absjprime=aj, j3=j3, j4=j4, j5=j5, j6=j6)


# ---------------------------------------------------------------------------
# Asymptotic lower bounds near the endpoints
# ---------------------------------------------------------------------------

_SIXTY_FOURTH = 1.0 / 64.0
_FIFTH = Fraction(1, 5)
LOG_2_SQRT_PI = (TWO * PI.sqrt()).log()  # log(2*pi^(1/2))


def j_lower_near_one(s: Interval) -> Interval:
    """Certified lower bound for J(1 - s): s * sqrt(log(w0/s)), s in (0, 1/64]."""
    if not s.valid or s.lo <= 0.0 or s.hi > _SIXTY_FOURTH:
        return INVALID
    w0 = profile_constants().w0
    return s * (w0 / s).log().sqrt()


def asymptotic_epsilon(s: Interval) -> Interval:
    """The deficit eps with J(1-s) >= 2 s sqrt(log(w0/s)) (1 - eps)."""
    if not s.valid or s.lo <= 0.0:
        return INVALID
    w0 = profile_constants().w0
    lg = (w0 / s).log()
    return HALF * lg.log() / lg + LOG_2_SQRT_PI / lg


def profile_lower_small(x: Interval) -> Interval:
    """Lower bound for I(x) on (0, 1/5]:

    sqrt(2) x sqrt(log(1/x)) (1 - (1/2) loglog(1/x)/log(1/x) - log(2 sqrt(pi))/log(1/x)).
    """
    if not x.valid or x.lo <= 0.0 or Fraction(x.hi) > _FIFTH:
        return INVALID
    lg = (ONE / x).log()
    corr = ONE - HALF * lg.log() / lg - LOG_2_SQRT_PI / lg
    return SQRT2 * x * lg.sqrt() * corr
