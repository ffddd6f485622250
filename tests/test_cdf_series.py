"""The float Horner evaluation of the Gaussian cdf series and its error bound.

Phi(t) = 1/2 + (2 pi)^(-1/2) t P(t^2) for |t| <= 4.5, where P is evaluated in
float Horner and enclosed by the sum of four bounds.  Each bound is checked
here on its own, in exact rational arithmetic: the error it covers must not
exceed the bound's formula, and the float value the code uses must not fall
below that formula.  A containment check against mpmath alone would miss a
dropped or halved term, because the bounds are far from tight.
"""

import math
from fractions import Fraction as F

import mpmath as mp
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from cubeiso.interval import (
    Interval,
    _cdf_point,
    _series_terms,
    normal_quantile,
)

mp.mp.dps = 40

U = F(1, 2**53)
# gradual underflow in the Horner and power products, propagated through at
# most 64 steps with |x| <= 20.25, stays below this absolute amount
UNDERFLOW = F(1, 2**790)
SMALLEST = F(1, 2**1074)

_EDGES = [5e-324, 1e-160, 2.0, 3.2, 4.5]
_EDGES += [math.nextafter(t, d) for t in (2.0, 3.2) for d in (0.0, math.inf)]
_EDGES += [-t for t in _EDGES]


def _horner(t):
    """The float Horner steps as the code performs them: (x, y, [(z_i, y_i)])."""
    n = ref.series_terms(t)
    c = [float(ref.series_coefficient(k)) * (-1) ** k for k in range(n + 1)]
    x = t * t
    y = c[n]
    steps = []
    for k in range(n - 1, -1, -1):
        z = x * y
        y = z + c[k]
        steps.append((z, y))
    return x, y, steps


def _poly(coeffs, x):
    acc = F(0)
    for co in reversed(coeffs):
        acc = acc * x + co
    return acc


def _check_series_bounds(t):
    y, e_horner, e_coeff, e_arg, e_trunc = _series_terms(t)
    x, y_ref, steps = _horner(t)
    assert y == y_ref
    n = ref.series_terms(t)
    X = F(x)
    a = [ref.series_coefficient(k) for k in range(n + 41)]
    signed = [(-1) ** k * a[k] for k in range(n + 1)]
    rounded = [F(float(v)) for v in signed]

    # 1. Horner rounding: |y - P_N^c(x)| <= u/(1-u) sum_i x^i (|z_i| + |y_i|)
    mu = _poly([F(abs(z)) + F(abs(yi)) for z, yi in reversed(steps)], X)
    b_horner = U / (1 - U) * mu + UNDERFLOW
    assert abs(F(y) - _poly(rounded, X)) <= b_horner <= F(e_horner)

    # 2. Coefficient rounding: |P_N^c(x) - P_N(x)| <= u sum |c_n| x^n
    b_coeff = U * _poly([abs(v) for v in rounded], X) + UNDERFLOW
    assert abs(_poly(rounded, X) - _poly(signed, X)) <= b_coeff <= F(e_coeff)

    # 3. Argument rounding: |t^2 - x| <= u x + 2^-1074 and |P'| <= 1/6, here
    #    on the partial sum with 40 terms past N
    T2 = F(t) ** 2
    assert abs(T2 - X) <= U * X + SMALLEST
    b_arg = (U * X + SMALLEST) / 6
    longer = [(-1) ** k * a[k] for k in range(n + 40)]
    assert abs(_poly(longer, T2) - _poly(longer, X)) <= abs(T2 - X) / 6
    assert b_arg <= F(e_arg)

    # 4. Truncation: the alternating tail past N is at most a_{N+1} x^{N+1};
    #    its next 40 terms plus the first term after them stay below it
    b_trunc = a[n + 1] * X ** (n + 1)
    tail = _poly([F(0)] * (n + 1) + [(-1) ** k * a[k] for k in range(n + 1, n + 40)], X)
    assert abs(tail) + a[n + 40] * X ** (n + 40) <= b_trunc <= F(e_trunc)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-4.5, max_value=4.5).filter(lambda t: t != 0.0))
def test_series_error_terms_exact(t):
    _check_series_bounds(t)


def test_series_error_terms_at_edges():
    for t in _EDGES:
        _check_series_bounds(t)


def test_series_no_wider_than_interval_reference(rng):
    points = [rng.uniform(-4.5, 4.5) for _ in range(2000)] + _EDGES
    for t in points:
        got = _cdf_point(t)
        want = ref.cdf_series_interval(t)
        true = mp.ncdf(mp.mpf(t))
        assert mp.mpf(got.lo) <= true <= mp.mpf(got.hi)
        assert mp.mpf(want.lo) <= true <= mp.mpf(want.hi)
        assert got.hi - got.lo <= want.hi - want.lo


_GRID = [1e-3 + k * (1.0 - 2e-3) / 200 for k in range(201)]


def test_quantile_brackets_contain_the_quantile():
    """Each point bracket contains the quantile, by mpmath."""
    for p in _GRID + [1e-5, 1e-8]:
        q = normal_quantile(Interval(p))
        assert q.lo <= _mp_quantile(p) <= q.hi, p


def _mp_quantile(p):
    if p < 1e-10:  # far in the tail, where 2p - 1 loses p at this precision
        return mp.findroot(lambda t: mp.log(mp.ncdf(t)) - mp.log(p), -mp.sqrt(-2 * mp.log(p)))
    return mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)


def test_interval_quantile_brackets_hold_both_end_quantiles():
    """normal_quantile of a non-point p is one bracket that holds the
    quantiles of both ends, by mpmath: p on the grid and in both tails, out
    to where the float seed is off by far more than its first step, from 1
    ulp wide to 1e-12 p wide, the width of the u of J and J'.  Each end is
    certified by the cdf enclosure, for p above 1/2 at the mirrored 1 - p."""
    for p in _GRID + [1e-5, 1e-8, 1.0 - 1e-5, 1.0 - 1e-8, 1e-20, 1e-100]:
        for hi in (math.nextafter(p, 1.0), p * (1 + 1e-15), p * (1 + 1e-12)):
            q = normal_quantile(Interval(p, hi))
            assert q.valid and q.lo <= _mp_quantile(p) and _mp_quantile(hi) <= q.hi, (p, hi)
            lo, up, a, b = (p, hi, q.lo, q.hi) if p < 0.5 else (1 - hi, 1 - p, -q.hi, -q.lo)
            assert _cdf_point(a).hi < lo and _cdf_point(b).lo > up, (p, hi)


def test_quantile_of_a_subnormal_p_is_a_bracket_or_invalid():
    """A subnormal p, whose 1/p overflows, gives a bracket that contains the
    quantile, or Invalid where no cdf enclosure falls below p; never an
    exception."""
    brackets = 0
    for p in (5e-324, 1e-323, 1.5e-323, 1e-320, 1e-315, 1e-310, 5e-309):
        q = normal_quantile(Interval(p))
        if q.valid:
            true = mp.findroot(lambda t: mp.log(mp.ncdf(t)) - mp.log(p), -38)
            assert q.lo <= true <= q.hi, p
            brackets += 1
    assert brackets >= 5 and normal_quantile(Interval(1e-310)).valid


def test_quantile_bracket_in_series_tail():
    # t = -4.26: the series enclosure is tight enough to bracket within 1e-7
    assert ref.width(normal_quantile(Interval(1e-5))) <= 1e-7


# p deep in the tail, where 1 + erf(t/sqrt(2)) no longer resolves p, and a
# width bound for its bracket: five times the width that bisecting the point
# bracket on the same cdf enclosures reaches.
_DEEP_WIDTH = {1e-14: 2e-6, 1e-16: 2.2e-6, 1e-20: 2.8e-7, 1e-100: 8e-11, 1e-300: 2.3e-12}


def test_deep_tail_brackets_are_narrow():
    """Points and intervals p [1, 1 + 1e-12] deep in the tail get brackets
    that hold their quantiles, by mpmath, within _DEEP_WIDTH and 1e-6."""
    for p, width in _DEEP_WIDTH.items():
        hi = p * (1 + 1e-12)
        for lo_p, hi_p in ((p, p), (p, hi)):
            q = normal_quantile(Interval(lo_p, hi_p))
            assert q.lo <= _mp_quantile(lo_p) and _mp_quantile(hi_p) <= q.hi, (p, hi_p)
            assert ref.width(q) <= min(width, 1e-6), (p, hi_p, ref.width(q))
