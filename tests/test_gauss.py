"""Gaussian profile, w0/x0, and J enclosures against the mpmath oracle."""

import math
from fractions import Fraction as F

import mpmath as mp

import _reference as ref
from conftest import scale
from cubeiso import gauss, interval
from cubeiso.interval import Interval, TWO


def test_w0_enclosure(constants):
    w0 = constants.w0
    assert 0.895 <= w0.lo and w0.hi <= 0.896
    assert ref.width(w0) <= 2.0 ** -30
    assert mp.mpf(w0.lo) <= ref.w0() <= mp.mpf(w0.hi)


def test_x0_enclosure(constants):
    x0 = constants.x0
    assert 0.552 <= x0.lo and x0.hi <= 0.553
    assert mp.mpf(x0.lo) <= ref.x0() <= mp.mpf(x0.hi)


def test_profile_endpoints_and_peak():
    assert gauss.gauss_profile(Interval(0.0)) == Interval(0.0)
    assert gauss.gauss_profile(Interval(1.0)) == Interval(0.0)
    mid = gauss.gauss_profile(Interval(0.5))
    true = 1 / mp.sqrt(2 * mp.pi)
    assert mp.mpf(mid.lo) <= true <= mp.mpf(mid.hi)


def test_profile_symmetry(rng):
    for _ in range(60):
        x = rng.uniform(0.001, 0.999)
        a = gauss.gauss_profile(Interval(x))
        b = gauss.gauss_profile(Interval(1.0 - x))
        # both enclose the same true value
        true = ref.gauss_I(x)
        assert mp.mpf(a.lo) <= true <= mp.mpf(a.hi)
        assert mp.mpf(b.lo) - 1e-13 <= true <= mp.mpf(b.hi) + 1e-13


def test_profile_domain():
    assert not gauss.gauss_profile(Interval(-0.1, 0.5)).valid
    assert not gauss.gauss_profile(Interval(0.5, 1.1)).valid


def test_j_at_half_and_one(constants):
    jh = gauss.j_point(0.5)
    assert ref.contains(jh, F(1, 2))
    assert gauss.j_point(1.0) == Interval(0.0)
    # defining equation J_{w0}(1/2) = 1/2 at the interval w0
    assert ref.width(jh) < 1e-11


def test_j_against_reference(rng):
    lo_dom = float(gauss.profile_constants().domain_lo.hi) + 1e-6
    for _ in range(80):
        x = rng.uniform(lo_dom, 1.0)
        j = gauss.j_point(x)
        true = ref.J(x)
        assert j.valid and mp.mpf(j.lo) <= true <= mp.mpf(j.hi)
        if x < 1.0 - 1e-9:
            jp = gauss.jprime_point(x)
            truep = ref.Jp(x)
            assert jp.valid and mp.mpf(jp.lo) <= truep <= mp.mpf(jp.hi)


def test_j_and_jprime_contain_reference_at_fixed_corners(constants):
    """J and J' at x = 1/2, on either side of x0 and near 1, where J' is
    far in the Gaussian tail."""
    for x in (0.5, constants.x0.lo - 2.0**-20, constants.x0.hi + 2.0**-20, 1.0 - 2.0**-20):
        j, jp = gauss.j_point(x), gauss.jprime_point(x)
        assert j.valid and mp.mpf(j.lo) <= ref.J(x) <= mp.mpf(j.hi), x
        assert jp.valid and mp.mpf(jp.lo) <= ref.Jp(x) <= mp.mpf(jp.hi), x


def test_cold_j_corner_takes_one_quantile_bracket(rng, constants, monkeypatch):
    """J and J' at a cold corner share one unbisected quantile bracket: at
    most 3 cdf enclosures per corner on average, on [1/2, 13/16]."""
    calls = []
    cdf_point = interval._cdf_point

    def counted(t):
        calls.append(t)
        return cdf_point(t)

    monkeypatch.setattr(interval, "_cdf_point", counted)
    xs = [rng.uniform(0.5, 0.8125) for _ in range(300)]  # fresh points: every memo misses
    for x in xs:
        gauss.j_point(x)
        gauss.jprime_point(x)
    assert len(calls) <= 3 * len(xs)


def test_j_outside_domain_invalid():
    assert not gauss.j_point(0.05).valid
    assert not gauss.j_point(1.5).valid


def test_enclosure_straddling_peak(constants):
    e = gauss.j_range(0, 0.5, 0.5625)
    assert e.hi == constants.j_peak.hi
    jp = gauss.j_range(1, 0.5, 0.5625)
    assert jp.lo < 0.0 < jp.hi


def test_j_second_derivative_identity(rng):
    """Finite differences of the mp oracle J fall in the enclosure of -2/J."""
    n = scale(1000, 150)
    step = mp.mpf(10) ** -5
    for _ in range(n):
        x = rng.uniform(0.52, 0.98)
        xm = mp.mpf(x)
        fd2 = (ref.J(xm + step) - 2 * ref.J(xm) + ref.J(xm - step)) / step ** 2
        alg = TWO / gauss.j_point(x)
        # J'' * J = -2  <=>  J'' = -2/J
        assert abs(float(fd2) + alg.mid) <= 1e-6 * max(1.0, abs(alg.mid))


def test_jprime_matches_finite_differences(rng):
    step = mp.mpf(10) ** -6
    for _ in range(scale(200, 60)):
        x = rng.uniform(0.45, 0.98)
        fd = (ref.J(mp.mpf(x) + step) - ref.J(mp.mpf(x) - step)) / (2 * step)
        jp = gauss.jprime_point(x)
        assert abs(float(fd) - jp.mid) <= 1e-5 * max(1.0, abs(jp.mid))


def test_j_monotone_around_x0(constants):
    """Increasing left of x0, decreasing right of it, on a depth-8 grid."""
    xs = [0.5 + k / 256 for k in range(0, 129)]
    lo = constants.x0.lo
    hi = constants.x0.hi
    for a, b in zip(xs, xs[1:]):
        if b < lo:
            assert gauss.j_point(a).lo < gauss.j_point(b).hi
        if a > hi:
            assert gauss.j_point(b).lo < gauss.j_point(a).hi


def test_derivative_bundle_signs():
    """Signs of J''' .. J^(6) on [0.6, 0.7], right of x0, from the identities
    at the box's signed J' and J enclosures."""
    jp = gauss.j_range(1, 0.6, 0.7)
    j = gauss.j_range(0, 0.6, 0.7)
    assert j.lo > 0.0
    assert gauss.j4_of(jp, j).hi < 0.0  # J^(4) < 0 on (1/2, 1)
    assert gauss.j6_of(jp, j).hi < 0.0
    # J''' and J^(5) are negative right of x0
    assert gauss.j3_of(jp, j).hi < 0.0
    assert gauss.j5_of(jp, j).hi < 0.0


def _x0_boxes(rng, x0):
    """Boxes left of x0, right of it and straddling it."""
    for _ in range(8):
        a = rng.uniform(0.45, x0.lo - 0.02)
        yield "left", a, a + rng.uniform(1e-6, 0.02)
        a = rng.uniform(x0.hi + 1e-9, 0.97)
        yield "right", a, a + rng.uniform(1e-6, 0.02)
        yield "straddle", rng.uniform(x0.lo - 0.02, x0.lo), rng.uniform(x0.hi, x0.hi + 0.02)


def test_j_range_contains_derivatives(rng, constants):
    """j_range(k) against mpmath derivatives of the oracle J, for every k: at
    both ends of and inside boxes left of x0, right of it and straddling it,
    and at x0 itself, where the even orders peak, on the straddling boxes."""
    x0 = ref.x0()
    for side, a, b in _x0_boxes(rng, constants.x0):
        ranges = {k: gauss.j_range(k, a, b) for k in (0, 1, 3, 4, 5, 6)}
        assert ranges[4].hi < 0.0 and ranges[6].hi < 0.0  # J^(4), J^(6) < 0 on (1/2, 1)
        if side == "left":
            assert ranges[3].lo > 0.0 and ranges[5].lo > 0.0
        if side == "right":  # J''' and J^(5) are negative right of x0
            assert ranges[3].hi < 0.0 and ranges[5].hi < 0.0
        xs = [mp.mpf(a), mp.mpf(b), mp.mpf(rng.uniform(a, b))]
        if side == "straddle":
            xs.append(x0)
        for x in xs:
            for k, dk in enumerate(mp.diffs(ref.J, x, 6)):
                if k in ranges:
                    assert mp.mpf(ranges[k].lo) <= dk <= mp.mpf(ranges[k].hi), (side, k)


def test_j7_identity():
    """J^(7) = 8 J' J^-6 (127 + 163 J'^2 + 30 J'^4), whose sign (that of J')
    makes J^(6) peak at x0, against mpmath derivatives of the oracle J."""
    for x in ("0.52", "0.6", "0.7", "0.9"):
        j, jp, _, _, _, _, _, j7 = mp.diffs(ref.J, mp.mpf(x), 7)
        identity = 8 * jp * j**-6 * (127 + 163 * jp**2 + 30 * jp**4)
        assert abs(j7 - identity) <= mp.mpf(10) ** -25 * abs(identity), x
