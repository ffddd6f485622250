"""Interval arithmetic: containment soundness, exactness, extended semantics."""

import math
import sys
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference as ref
from cubeiso import gauss
from cubeiso.interval import (
    INVALID,
    SQRT2,
    Interval,
    _bracket,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    strictly_greater,
    strictly_less,
)

mp.mp.dps = 40

finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
positive = st.floats(min_value=1e-12, max_value=1e12)


def ivs(a, b):
    return Interval(min(a, b), max(a, b))


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def test_additive_identity_is_exact():
    out = Interval(0.0) + Interval(-3.25, 7.5)
    assert out.lo == -3.25 and out.hi == 7.5


def test_small_integer_product_steps_both_ends():
    """A product of small integers is exact in floats, but only a zero
    factor makes a corner exact: both ends step one float outward."""
    out = Interval(1, 2) * Interval(-3, -1)
    assert out.lo == math.nextafter(-6.0, -math.inf) and out.hi == math.nextafter(-1.0, 0.0)


def test_only_a_zero_factor_or_dividend_is_exact():
    """The product rule: a zero factor or dividend gives an exact 0 end, and
    every other end steps one float outward, also where the float result is
    exact, as 2 * 3, scaling by a power of two and 1 * x are."""
    up, down = (lambda v: math.nextafter(v, math.inf)), (lambda v: math.nextafter(v, -math.inf))
    assert Interval(2.0) * Interval(3.0) == Interval(down(6.0), up(6.0))
    assert Interval(3.0) * Interval(0.5) == Interval(down(1.5), up(1.5))
    assert Interval(3.0) / Interval(2.0) == Interval(down(1.5), up(1.5))
    assert Interval(0.0, 2.0) * Interval(3.0) == Interval(0.0, up(6.0))
    assert Interval(-2.0, 0.0) * Interval(-3.0, 3.0) == Interval(down(-6.0), up(6.0))
    assert Interval(0.0, 1.0) * Interval(-3.0, -2.0) == Interval(down(-3.0), 0.0)
    assert Interval(0.0) * Interval(-math.inf, math.inf) == Interval(0.0)
    assert Interval(0.0, 2.0) / Interval(4.0) == Interval(0.0, up(0.5))
    assert Interval(-2.0, 0.0) / Interval(-4.0, -2.0) == Interval(0.0, up(1.0))
    assert Interval(0.0, 1.0).ipow(2) == Interval(0.0, up(1.0))
    assert Interval(0.0).ipow(3) == Interval(0.0)


def test_division_by_zero_straddle_is_invalid():
    assert not (Interval(1, 2) / Interval(-1, 1)).valid
    assert not (Interval(1, 2) / Interval(0, 0)).valid


def test_invalid_absorbs_everything():
    assert not (INVALID + Interval(1)).valid
    assert not (Interval(1) * INVALID).valid
    assert not abs(INVALID).valid
    assert not INVALID.sqrt().valid


def test_comparison_is_partial_order():
    assert strictly_greater(Interval(0.3, 0.4), F(1, 5))
    assert not strictly_greater(Interval(0.1, 0.4), F(1, 5))  # unproven, not <=
    assert not strictly_greater(INVALID, 0)
    assert strictly_less(Interval(0.1, 0.15), F(1, 5))


def test_infinite_endpoints():
    big = Interval(1e308, math.inf)
    out = big * Interval(2.0)
    assert out.hi == math.inf and out.lo >= 1e308
    assert (Interval(0.0) * big) == Interval(0.0)
    with pytest.raises(ValueError):
        Interval(math.inf, math.inf)


@pytest.mark.parametrize("op", [
    lambda s: Interval(2.0) * s, lambda s: s * Interval(2.0), lambda s: Interval(1.0) + s,
    lambda s: Interval(1.0) - s, lambda s: s - Interval(1.0), lambda s: Interval(1.0) / s,
    lambda s: s / Interval(1.0), lambda s: Interval(2.0).pow(s), lambda s: Interval(1.0).max(s),
], ids=["mul", "rmul", "add", "sub", "rsub", "div", "rdiv", "pow", "max"])
def test_infinite_scalar_operand_is_refused_like_the_constructor(op):
    """An operator refuses an infinite scalar as Interval(inf) does, rather
    than build the point [inf, inf]; a NaN scalar is Invalid."""
    for s in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="malformed interval"):
            op(s)
    assert not op(math.nan).valid


def test_arith_operators_cover_all_kinds():
    a, b = Interval(1, 2), Interval(3, 4)
    assert (a + b).lo == 4.0
    assert (a - b).hi == -1.0
    assert (a * b).lo == math.nextafter(3.0, 0.0)
    assert (a / b).hi <= 2.0 / 3.0 + 1e-15
    assert -a == Interval(-2, -1)
    assert a.min(b) == a
    assert a.max(b) == b
    assert abs(Interval(-2, 1)) == Interval(0, 2)


# ---------------------------------------------------------------------------
# Elementary functions
# ---------------------------------------------------------------------------

def test_log_one_is_exact_zero():
    out = Interval(1.0).log()
    assert out.lo == 0.0 and out.hi == 0.0


def test_sqrt_two_tight():
    out = Interval(2.0).sqrt()
    true = mp.sqrt(2)
    assert mp.mpf(out.lo) <= true <= mp.mpf(out.hi)
    assert ref.width(out) <= 2 * math.ulp(1.5)


def test_sqrt2_constant_is_shared():
    """SQRT2 has one definition; gauss and funcs use that same enclosure."""
    from cubeiso import funcs, gauss

    assert gauss.SQRT2 is SQRT2 and funcs.SQRT2 is SQRT2
    assert mp.mpf(SQRT2.lo) <= mp.sqrt(2) <= mp.mpf(SQRT2.hi)
    assert ref.width(SQRT2) <= 2 * math.ulp(1.5)


def test_log_requires_positive():
    assert not Interval(0.0, 1.0).log().valid
    assert not Interval(-1.0, 1.0).log().valid


def test_sqrt_requires_nonnegative():
    assert Interval(0.0, 4.0).sqrt().lo == 0.0
    assert not Interval(-1e-30, 1.0).sqrt().valid


def test_one_to_any_power_is_tight():
    beta = F(32805, 65536)
    out = Interval(1.0).pow(Interval.from_fraction(beta))
    assert ref.contains(out, 1.0) and ref.width(out) <= 4 * math.ulp(1.0)


def test_pow_zero_exponent_convention():
    assert Interval(0.0, 0.25).pow(Interval(0.0)) == Interval(1.0)


def test_pow_rejects_negative_base_for_fractional_exponent():
    assert not Interval(-0.5, 1.0).pow(Interval(0.5)).valid


def test_pow_zero_base_positive_exponent():
    out = Interval(0.0, 0.5).pow(Interval(1.5))
    assert out.lo == 0.0
    assert out.hi >= 0.5 ** 1.5


def test_integer_power_straddle_is_tight():
    """The even power of a straddle is [0, max end**2], not x*x: the lower
    end is the exact 0 of a zero base, the upper one float above 4."""
    out = Interval(-1.0, 2.0).ipow(2)
    assert out.lo == 0.0 and out.hi == math.nextafter(4.0, math.inf)


def test_even_power_that_underflows_stays_nonnegative():
    """x**2 of a tiny x underflows to an inexact 0.0; the lower end stays at 0,
    so the square has a square root."""
    for x in (Interval(1e-200), Interval(-1e-200, -1e-201)):
        sq = x.ipow(2)
        assert sq.lo == 0.0 and sq.hi == math.ulp(0.0)
        assert sq.sqrt().valid
    assert Interval(1e-100).ipow(4).lo == 0.0


def test_inf_over_inf_is_invalid_in_every_corner_order():
    unbounded = (Interval(1.0, math.inf), Interval(-math.inf, -1.0), Interval(-math.inf, math.inf))
    for x in unbounded:
        for y in unbounded[:2]:
            assert not (x / y).valid
    assert (Interval(1.0, math.inf) / Interval(1.0, 2.0)).hi == math.inf


@settings(max_examples=150, deadline=None)
@given(finite, finite, finite, finite)
def test_containment_add_mul(a, b, c, d):
    x = ivs(a, b)
    y = ivs(c, d)
    for px in (x.lo, x.hi, 0.5 * (x.lo + x.hi)):
        for py in (y.lo, y.hi):
            s = F(px) + F(py)
            out = x + y
            assert F(out.lo) <= s <= F(out.hi)
            pr = F(px) * F(py)
            out = x * y
            assert F(out.lo) <= pr <= F(out.hi)


# Endpoints that make products exact, tied, subnormal or overflowing.
_signs = st.sampled_from((1.0, -1.0))
_endpoints = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 3.0)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-sys.float_info.min, max_value=sys.float_info.min),
    st.integers(-(2**26) - 4, 2**26 + 4).map(float),
    st.builds(lambda e, s: s * math.ldexp(1.0, e), st.integers(-1074, 1023), _signs),
    st.builds(lambda m, s: s * m, st.floats(min_value=1e150, max_value=sys.float_info.max), _signs),
)


@st.composite
def _mul_operands(draw):
    lo = draw(_endpoints)
    shape = draw(st.sampled_from(("point", "adjacent", "pair", "lo_inf", "hi_inf", "entire", "invalid")))
    if shape == "invalid":
        return INVALID
    if shape == "entire":
        return Interval(-math.inf, math.inf)
    hi = lo
    if shape == "adjacent":
        for _ in range(draw(st.integers(1, 3))):
            hi = math.nextafter(hi, math.inf)
    elif shape == "pair":
        lo, hi = sorted((lo, draw(_endpoints)))
    elif shape == "lo_inf":
        lo = -math.inf
    elif shape == "hi_inf":
        hi = math.inf
    return Interval(lo, hi)


@settings(max_examples=3000, deadline=None)
@given(_mul_operands(), _mul_operands())
def test_mul_matches_four_product_rule(x, y):
    got, want = x * y, ref.mul_four_products(x, y)
    assert got.valid == want.valid
    if want.valid:
        assert got.lo == want.lo and got.hi == want.hi


@settings(max_examples=2000, deadline=None)
@given(_mul_operands(), _mul_operands())
@example(Interval(-4.67125136329806e307, -4.671251363298059e307), Interval(-sys.float_info.max, 0.0))
@example(Interval(-4.67125136329806e307, -4.671251363298059e307), Interval(0.0, sys.float_info.max))
@example(Interval(4.671251363298059e307, 4.67125136329806e307), Interval(-sys.float_info.max, 0.0))
@example(Interval(4.671251363298059e307, 4.67125136329806e307), Interval(0.0, sys.float_info.max))
def test_add_sub_match_directed_sums(x, y):
    """On the examples -4.671251363298059e307 + MAX is a finite float sum
    rounded up whose 2Sum error term overflows, and its negation one
    rounded down: the sum is still tight."""
    assert _same_ends(x + y, ref.add_directed(x, y))
    assert _same_ends(x - y, ref.sub_directed(x, y))


_MAX = sys.float_info.max
_TINY = math.ulp(0.0)
# Each sign class, as points and as wider intervals, with zero, -0.0,
# power-of-two, small-integer, subnormal, MAX and infinite ends.
# [-1e-200, 0] * [1e-200, 1] has the exact corner 0 * 1e-200 tied with the
# inexact -1e-200 * 1e-200, which underflows to the same 0.
_FIXED_OPERANDS = (
    Interval(0.3, 0.7), Interval(-2.3, -1.1), Interval(0.1), Interval(-0.1),
    Interval(1.0, math.nextafter(1.0, math.inf)), Interval(-3.0, math.nextafter(-3.0, 0.0)),
    Interval(1.0, 3.0), Interval(-6.0, -2.0), Interval(3.0), Interval(-0.25), Interval(0.5, 0.75),
    Interval(0.0), Interval(-0.0), Interval(-0.0, 0.0), Interval(0.0, 2.0), Interval(-1.5, -0.0),
    Interval(-0.3, 0.7), Interval(-1e-200, 0.0), Interval(1e-200), Interval(1e-200, 1.0),
    Interval(_TINY), Interval(1e-310, 1e-300), Interval(-1e-200, -_TINY),
    Interval(sys.float_info.min, math.nextafter(sys.float_info.min, 1.0)), Interval(1.0 - 2.0**-53, 1.0),
    Interval(_MAX), Interval(-_MAX, -1.0), Interval(1e300, _MAX),
    Interval(1.0, math.inf), Interval(-math.inf, -2.0), Interval(_MAX, math.inf),
    Interval(0.0, math.inf), Interval(-math.inf, 0.0), Interval(-math.inf, math.inf), INVALID,
)


def test_arithmetic_matches_references_on_fixed_operands():
    """Every pair of _FIXED_OPERANDS, so that every path of ×, ÷, + and −
    runs on each tier-1 run: both extreme corners inexact, an exact one, a
    point factor, the four-corner path, the clamp at 0, and the 2Sum test
    with finite, infinite and overflowed sums."""
    for x in _FIXED_OPERANDS:
        for y in _FIXED_OPERANDS:
            # == ignores the sign of a zero end, as test_mul_matches_four_product_rule does
            assert x * y == ref.mul_four_products(x, y), (x, y)
            assert _same_ends(x / y, ref.div_eight_quotients(x, y)), (x, y)
            assert _same_ends(x + y, ref.add_directed(x, y)), (x, y)
            assert _same_ends(x - y, ref.sub_directed(x, y)), (x, y)


def test_results_rounded_onto_the_least_normal_float_are_not_exact():
    """2^-1022 (1 - 2^-53) lies half a subnormal step below the least normal
    float and rounds up onto it, also as (2^-1021 - 2^-1074) / 2: a factor or
    divisor that is a power of two does not make such a result exact."""
    m = sys.float_info.min
    below_one, below_2m = 1.0 - 2.0**-53, math.nextafter(2.0 * m, 0.0)
    for s in (1, -1):
        cases = ((Interval(s * m) * Interval(below_one), s * F(m) * F(below_one)),
                 (Interval(below_one) * Interval(s * m), s * F(m) * F(below_one)),
                 (Interval(s * below_2m) * Interval(0.5), s * F(below_2m) / 2),
                 (Interval(s * below_2m) / Interval(2.0), s * F(below_2m) / 2),
                 (Interval(m, math.nextafter(m, 1.0)) * Interval(s * below_one), s * F(m) * F(below_one)))
        for out, exact in cases:
            assert F(out.lo) <= exact <= F(out.hi), (out, exact)


def test_every_invalid_hashes_alike():
    """Arithmetic on Invalid gives new intervals with NaN ends; they equal
    INVALID, so they must hash like it, or memo lookups miss."""
    for bad in (-INVALID, INVALID + 1.0, Interval(2.0) - INVALID, INVALID * Interval(0.3, 0.7),
                Interval(math.nan)):
        assert bad == INVALID and hash(bad) == hash(INVALID)


def test_rationals_beyond_the_float_range_are_one_sided():
    """A rational or int beyond the float range is [MAX, inf] or [-inf, -MAX],
    also where an operator coerces it."""
    for big in (10**400, F(10**400, 3)):
        assert Interval.from_fraction(big) == Interval(_MAX, math.inf)
        assert Interval.from_fraction(-big) == Interval(-math.inf, -_MAX)
    # 1 * [MAX, inf]: the finite end steps one float down, the infinite one stays
    assert Interval(1.0) * 10**400 == Interval(math.nextafter(_MAX, 0.0), math.inf)
    assert Interval(1.0) * -(10**400) == Interval(-math.inf, -math.nextafter(_MAX, 0.0))
    assert Interval(1.0) - 10**400 == Interval(-math.inf, math.nextafter(-_MAX, 0.0))
    assert Interval(0.0) + (2**53 + 1) == Interval(2.0**53, 2.0**53 + 2)  # above 2^53: not a float


def test_mul_rounds_every_tied_extremal_product():
    # 0 * 1e-200 is exact, -1e-200 * 1e-200 underflows to the same 0 and is
    # not: the upper end must step above zero, as rounding all four does.
    x, y = Interval(-1e-200, 0.0), Interval(1e-200, 1.0)
    out = x * y
    assert out == ref.mul_four_products(x, y)
    assert out.lo == math.nextafter(-1e-200, -math.inf) and out.hi == math.ulp(0.0)


def test_product_of_nonnegative_factors_that_underflows_stays_nonnegative():
    """1e-200 * 1e-200 underflows to an inexact 0.0; with both factors >= 0
    the lower end stays at 0, so the product has a square root."""
    sq = Interval(1e-200) * Interval(1e-200)
    assert sq.lo == 0.0 and sq.hi == math.ulp(0.0)
    assert sq.sqrt().valid
    for x, y in ((Interval(1e-200), Interval(1e-200, 1.0)),
                 (Interval(0.0, 1e-200), Interval(1e-200, 1.0))):
        out = x * y
        assert out == ref.mul_four_products(x, y)
        assert out.lo == 0.0 and out.hi == math.nextafter(1e-200, 1.0)


def _same_float(u, v):
    """u and v are the same float, the sign of zero included, or both NaN."""
    if u != u or v != v:
        return u != u and v != v
    return u == v and math.copysign(1.0, u) == math.copysign(1.0, v)


def _same_ends(got, want):
    return _same_float(got.lo, want.lo) and _same_float(got.hi, want.hi)


@settings(max_examples=3000, deadline=None)
@given(_mul_operands(), _mul_operands())
@example(Interval(-6.64029171237925e-309, 0.0), Interval(896006670135614.0))
def test_div_matches_eight_quotient_rule(x, y):
    """Ends compared with ==, as in the x test: where an exact 0.0 ties with
    an inexact corner stepped up to -0.0, the reference's max keeps the
    first zero and _hull the exact one.  On the example the reference gives
    [-1e-323, -0.0] and the kernel [-1e-323, 0.0]."""
    got, want = x / y, ref.div_eight_quotients(x, y)
    assert got.valid == want.valid
    if want.valid:
        assert got.lo == want.lo and got.hi == want.hi


@settings(max_examples=3000, deadline=None)
@given(_mul_operands())
@example(Interval(1.3039564191549774e-81))
def test_ipow_matches_directed_powers(x):
    """On the example the lower end of x**4 steps down onto 0, and x**5 is
    that 0 times x: a zero factor, so exact."""
    for n in range(-3, 6):
        got, want = x.ipow(n), ref.ipow_directed(x, n)
        assert _same_float(got.lo, want.lo) and _same_float(got.hi, want.hi), n


@settings(max_examples=3000, deadline=None)
@given(_mul_operands().filter(lambda x: x.valid and -math.inf < x.lo and x.hi < math.inf))
@example(Interval(5.245601649158839e-308))
@example(Interval(2.7e-309))
def test_ipow_contains_exact_powers(x):
    """x**n holds the exact Fraction power of each end, and 0 where an even
    power's base straddles 0; a negative power of a base holding 0 is
    Invalid; a positive power of a base x >= 0 stays >= 0.  Unlike the test above,
    this needs no copy of the kernel's rounding rule.  On the first example
    x**2 and x**3 underflow onto 0, and x**-2 and x**-3 are [MAX, inf]; on
    the second, x**3 is [0, 5e-324], as x*x*x is."""
    for n in range(-3, 9):
        got = x.ipow(n)
        if n < 0 and x.lo <= 0.0 <= x.hi:
            assert not got.valid, n
            continue
        exact = [F(x.lo) ** n, F(x.hi) ** n]
        if n > 0 and n % 2 == 0 and x.lo < 0.0 < x.hi:
            exact.append(F(0))
        assert all(got.lo <= e <= got.hi for e in exact), n
        assert n < 0 or x.lo < 0.0 or got.lo >= 0.0, n


@settings(max_examples=3000, deadline=None)
@given(_endpoints, _endpoints, _endpoints, _endpoints)
def test_div_contains_exact_corner_quotients(a, b, c, d):
    x, y = ivs(a, b), ivs(c, d)
    if y.lo <= 0.0 <= y.hi:
        assert not (x / y).valid
        return
    out = x / y
    for p in (x.lo, x.hi):
        for q in (y.lo, y.hi):
            exact = F(p) / F(q)
            assert out.lo == -math.inf or F(out.lo) <= exact
            assert out.hi == math.inf or exact <= F(out.hi)


@settings(max_examples=150, deadline=None)
@given(positive, positive)
def test_containment_log_exp(a, b):
    x = ivs(a, b)
    lg = x.log()
    for p in (x.lo, x.hi):
        assert mp.mpf(lg.lo) <= mp.log(mp.mpf(p)) <= mp.mpf(lg.hi)
    y = ivs(math.log(a), math.log(b))
    ex = y.exp()
    for p in (y.lo, y.hi):
        assert mp.mpf(ex.lo) <= mp.exp(mp.mpf(p)) <= mp.mpf(ex.hi)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-8, max_value=8), st.floats(min_value=1e-6, max_value=2.0))
def test_monotone_width_under_subdivision(center, width):
    x = Interval(center - width, center + width)
    m = x.mid
    left = Interval(x.lo, m)
    right = Interval(m, x.hi)
    whole = x.exp()
    union_hi = max(left.exp().hi, right.exp().hi)
    union_lo = min(left.exp().lo, right.exp().lo)
    assert whole.lo <= union_lo and union_hi <= whole.hi


# ---------------------------------------------------------------------------
# Gaussian enclosures
# ---------------------------------------------------------------------------

def test_cdf_at_zero_is_half():
    out = normal_cdf(Interval(0.0))
    assert ref.contains(out, F(1, 2)) and ref.width(out) <= 4 * math.ulp(0.5)


def test_pdf_at_zero():
    out = normal_pdf(Interval(0.0))
    true = 1 / mp.sqrt(2 * mp.pi)
    assert mp.mpf(out.lo) <= true <= mp.mpf(out.hi)
    assert ref.width(out) < 1e-15


def test_quantile_median():
    out = normal_quantile(Interval(0.5))
    assert ref.contains(out, 0.0) and ref.width(out) <= 2.0 ** -46


def test_quantile_domain():
    assert not normal_quantile(Interval(0.0, 0.5)).valid
    assert not normal_quantile(Interval(0.5, 1.0)).valid
    assert not normal_quantile(INVALID).valid


def test_quantile_above_half_is_the_mirrored_bracket():
    """A point p > 1/2 gets the bracket of 1 - p (exact there), negated."""
    for p in (0.5 + 2.0**-30, 0.7, 0.975, 0.99999, 1.0 - 1e-12):
        q, m = normal_quantile(Interval(p)), normal_quantile(Interval(1.0 - p))
        assert (q.lo, q.hi) == (-m.hi, -m.lo), p


def test_quantile_memo_matches_fresh_bracket():
    for p in (0.3, 1e-5, 0.5 + 2.0**-30, 0.99999):
        s = p if p < 0.5 else 1.0 - p
        fresh = _bracket.__wrapped__(s, s)
        q = normal_quantile(Interval(p))
        assert (q.lo, q.hi) == (fresh if p < 0.5 else (-fresh[1], -fresh[0]))
        assert _bracket(s, s) == fresh
        assert _bracket(s, s) is _bracket(s, s)  # served from the memo
    # the J and J' point memos beside it
    for point in (gauss.j_point, gauss.jprime_point):
        for x in (0.2, 0.5, 0.55 + 2.0**-30, 0.999):
            fresh = point.__wrapped__(x)
            assert fresh.valid
            assert (point(x).lo, point(x).hi) == (fresh.lo, fresh.hi)
            assert point(x) is point(x)  # served from the memo


def test_gaussian_identities(rng):
    for _ in range(200):
        t = rng.uniform(-3.0, 3.0)
        csum = normal_cdf(Interval(t)) + normal_cdf(Interval(-t))
        assert ref.contains(csum, F(1))
        p = normal_cdf(Interval(t))
        q = normal_quantile(p)
        assert q.valid and q.lo <= t <= q.hi


def test_cdf_containment_vs_reference(rng):
    for _ in range(300):
        t = rng.uniform(-8.0, 8.0)
        out = normal_cdf(Interval(t))
        true = mp.ncdf(mp.mpf(t))
        assert mp.mpf(out.lo) <= true <= mp.mpf(out.hi)
