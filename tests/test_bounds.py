"""Every g_* bound is a true lower bound of its target, and tight.

For random boxes inside each claim domain and random points inside each box,
the high-precision point value of the target function must dominate the
box lower bound.  For shrinking boxes around a fixed interior point the
bound must approach the point value.  g_J1 must prove its claim without
reading J' at the midpoints x + h/2.  On the deepest dyadic leaves, J must
be enclosed over a range that contains each derived coordinate's range.
"""

import math
from fractions import Fraction as F

import mpmath as mp
import pytest

import _reference as ref
from conftest import scale
from cubeiso import bounds, gauss
from cubeiso.bounds import BOUND_IDS, BoundFn, eval_bound_fn
from cubeiso.claims import claim_by_id
from cubeiso.funcs import BETA0_DYADIC, BETA1, C0, BetaParams
from cubeiso.partition import Dyadic, DyadicRect, partition

HALF = BetaParams(F(1, 2))
BETA0 = BetaParams(BETA0_DYADIC)
HALF_C0 = BetaParams(F(1, 2), C0)
BETA1P = BetaParams(BETA1)


def _rand_box(rng, lo, hi, min_w=1e-6):
    w = (hi - lo) * math.exp(rng.uniform(math.log(1e-4), 0.0))
    w = max(w, min_w)
    a = rng.uniform(lo, hi - w)
    return a, a + w


# (fn_id, params, domain, target(point_coords) -> mp value)
CASES = [
    ("g_JL", BETA0, [(0.5, 2047 / 2048)],
     lambda p: ref.target_g_JL(p[0], BETA0_DYADIC)),
    ("g_J1", BETA0, [(0.5, 0.625), (1e-4, 3 / 16)],
     lambda p: ref.target_g_J1(p[0], p[1], BETA0_DYADIC, 1)),
    ("g_J1", HALF_C0, [(0.5, 0.625), (1e-4, 3 / 16)],
     lambda p: ref.target_g_J1(p[0], p[1], F(1, 2), C0)),
    ("g_J2", HALF, [(0.5, 9 / 16), (11 / 16, 1.0)],
     lambda p: ref.target_g_J2(p[0], p[1])),
    ("g_Q1", BETA0, [(0.0, 0.25), (0.25, 0.5)],
     lambda p: ref.target_g_Q1(p[0], p[1], BETA0_DYADIC)),
    ("g_Q1", HALF, [(1e-6, 0.25), (0.25, 0.5)],
     lambda p: ref.target_g_Q1(p[0], p[1], F(1, 2))),
    ("g_Q2", HALF, [(0.25, 0.5), (0.25, 0.5)],
     lambda p: ref.target_g_Q2(p[0], p[1], F(1, 2))),
    ("g_Q2", BETA0, [(0.25, 0.5), (0.25, 0.5)],
     lambda p: ref.target_g_Q2(p[0], p[1], BETA0_DYADIC)),
    ("g_LJQ1", BETA0, [(1 / 16, 0.25), (0.5, 0.75)],
     lambda p: ref.target_g_LJQ1(p[0], p[1], BETA0_DYADIC)),
    ("g_LJQ1", HALF, [(1 / 16, 0.25), (0.5, 0.75)],
     lambda p: ref.target_g_LJQ1(p[0], p[1], F(1, 2))),
    ("g_LJQ2", HALF, [(0.5, 0.75), (0.5, 1.0)],
     lambda p: ref.target_g_LJQ2(p[0], p[1])),
    ("g_QJQ", HALF, [(0.25, 0.5), (0.5, 0.75)],
     lambda p: ref.target_g_QJQ(p[0], p[1], F(1, 2))),
    ("g_QJQ", BETA1P, [(0.25, 0.5), (0.5, 0.75)],
     lambda p: ref.target_g_QJQ(p[0], p[1], BETA1)),
    ("g_QJ1", BETA0, [(0.25, 0.5), (0.5, 0.625)],
     lambda p: ref.target_g_QJ1(p[0], p[1], BETA0_DYADIC, 1)),
    ("g_QJ1", HALF_C0, [(0.25, 0.5), (0.5, 0.625)],
     lambda p: ref.target_g_QJ1(p[0], p[1], F(1, 2), C0)),
    ("g_QJ2", HALF, [(0.25, 0.5), (0.625, 1.0)],
     lambda p: ref.target_g_QJ2(p[0], p[1])),
    ("g_P2", BETA0, [(1 / 64, 0.25)],
     lambda p: ref.target_g_P2(p[0])),
    ("g_P3", BETA0, [(0.25, 0.5)],
     None),  # quantified over beta; handled separately
]


def _check_case(fn_id, params, domain, target, rng, n_boxes, n_points, variant=""):
    bf = BoundFn(fn_id, params, variant=variant)
    worst = math.inf
    for _ in range(n_boxes):
        box = tuple(_rand_box(rng, lo, hi) for lo, hi in domain)
        bound = eval_bound_fn(bf, box)
        if not bound.valid:
            continue
        for _ in range(n_points):
            point = tuple(rng.uniform(a, b) for a, b in box)
            tv = float(target(point))
            fuzz = 1e-11 * max(1.0, abs(tv), abs(bound.lo))
            assert tv >= bound.lo - fuzz, (fn_id, params, box, point, tv, bound.lo)
            worst = min(worst, tv - bound.lo)
    return worst


@pytest.mark.parametrize("fn_id,params,domain,target",
                         [c for c in CASES if c[3] is not None],
                         ids=lambda v: str(v)[:24])
def test_bound_is_true_lower_bound(fn_id, params, domain, target, rng):
    n_boxes = scale(400, 50)
    n_points = scale(100, 4)
    _check_case(fn_id, params, domain, target, rng, n_boxes, n_points)


def test_g_P3_lower_bounds_all_beta(rng):
    """g_P3 is quantified over beta in [1/2, beta0]; sample beta too."""
    bf = BoundFn("g_P3", BETA0)
    for _ in range(scale(300, 40)):
        box = (_rand_box(rng, 0.25, 0.5),)
        bound = eval_bound_fn(bf, box)
        if not bound.valid:
            continue
        for _ in range(scale(20, 4)):
            x = rng.uniform(*box[0])
            beta = F(1, 2) + F(rng.randrange(0, 38), 65536)
            tv = float(ref.target_g_P3(x, beta))
            assert tv >= bound.lo - 1e-11 * max(1.0, abs(tv))


def test_g_tail_lower_bounds(rng):
    low = BoundFn("g_tail", BETA0, variant="low")
    high = BoundFn("g_tail", BETA0, variant="high")
    for _ in range(scale(300, 60)):
        box = (_rand_box(rng, 27 / 32, 25 / 8),)
        bound = eval_bound_fn(low, box)
        v = rng.uniform(*box[0])
        tv = float(ref.target_g_tail_low(v, BETA0_DYADIC))
        assert bound.valid and tv >= bound.lo - 1e-11 * max(1.0, abs(tv))
    for _ in range(scale(300, 60)):
        box = (_rand_box(rng, 25 / 8, 381.0),)
        bound = eval_bound_fn(high, box)
        v = rng.uniform(*box[0])
        tv = float(ref.target_g_tail_high(v))
        assert bound.valid and tv >= bound.lo - 1e-11 * max(1.0, abs(tv))


# (point, params, variant, width exponent, target); the width at which a
# 1e-6 gap is reached depends on how many corner evaluations the displayed
# formula mixes, so the exponent varies between 20 and 24.
TIGHTNESS_POINTS = {
    "g_JL": ((0.512,), BETA0, "", 24, lambda p: ref.target_g_JL(p[0], BETA0_DYADIC)),
    "g_J2": ((0.55625, 0.71875), HALF, "", 20, lambda p: ref.target_g_J2(p[0], p[1])),
    "g_Q1": ((0.11, 0.37), BETA0, "", 22, lambda p: ref.target_g_Q1(p[0], p[1], BETA0_DYADIC)),
    "g_Q2": ((0.3, 0.4), HALF, "", 22, lambda p: ref.target_g_Q2(p[0], p[1], F(1, 2))),
    "g_LJQ1": ((0.11, 0.61), HALF, "", 22, lambda p: ref.target_g_LJQ1(p[0], p[1], F(1, 2))),
    "g_LJQ2": ((0.6, 0.77), HALF, "", 22, lambda p: ref.target_g_LJQ2(p[0], p[1])),
    "g_QJQ": ((0.3, 0.6), BETA1P, "", 22, lambda p: ref.target_g_QJQ(p[0], p[1], BETA1)),
    "g_QJ1": ((0.3, 0.55), BETA0, "", 24, lambda p: ref.target_g_QJ1(p[0], p[1], BETA0_DYADIC, 1)),
    "g_QJ2": ((0.3, 0.8), HALF, "", 22, lambda p: ref.target_g_QJ2(p[0], p[1])),
    "g_P2": ((0.09,), BETA0, "", 22, lambda p: ref.target_g_P2(p[0])),
    "g_tail_low": ((1.7,), BETA0, "low", 20, lambda p: ref.target_g_tail_low(p[0], BETA0_DYADIC)),
    "g_tail_high": ((9.0,), BETA0, "high", 20, lambda p: ref.target_g_tail_high(p[0])),
}


@pytest.mark.parametrize("name", sorted(TIGHTNESS_POINTS))
def test_bound_tightness(name):
    """Shrinking boxes converge to the point value within 1e-6."""
    point, params, variant, wexp, target = TIGHTNESS_POINTS[name]
    fn_id = "g_tail" if name.startswith("g_tail") else name
    bf = BoundFn(fn_id, params, variant=variant)
    w = 2.0 ** -wexp
    box = tuple((p - w / 2, p + w / 2) for p in point)
    bound = eval_bound_fn(bf, box)
    tv = float(target(point))
    span = max(1.0, abs(tv))
    assert bound.valid
    assert tv >= bound.lo - 1e-11 * span
    assert tv - bound.lo <= 1e-6 * span


def test_g_J1_tightness_is_cauchy():
    """g_J1 keeps remainder terms over [x, x+h] even at point boxes, so test
    convergence of the bound itself plus domination by the target."""
    bf = BoundFn("g_J1", BETA0)
    p = (0.53, 0.1)
    vals = []
    for w in (2.0 ** -16, 2.0 ** -22, 2.0 ** -26, 2.0 ** -30):
        box = tuple((c - w / 2, c + w / 2) for c in p)
        vals.append(eval_bound_fn(bf, box).lo)
    assert abs(vals[-1] - vals[-2]) <= 1e-6
    tv = float(ref.target_g_J1(p[0], p[1], BETA0_DYADIC, 1))
    assert tv >= vals[-1] - 1e-11


def test_g_J1_at_beta0_reads_jprime_at_few_points():
    """g_J1 encloses J6 at xi1 in [x, x+h] and at xi2 in [x, x+h/2] by one
    range over [x, x+h], so proving g_J_1 at beta0 from cold memos never
    reads J' at x + h/2: it reads 952 distinct points, where a second range
    over [x, x+h/2] read 1,749."""
    for memo in (gauss.j_point, gauss.jprime_point, gauss.jk_point,
                 bounds._j1_x_factors, bounds._j1_h_factors, bounds._j1_xh_factors):
        memo.cache_clear()
    run = claim_by_id("g_J_1").runs[0]
    assert run.fn.params == BETA0
    _, failure, _ = partition(run.evaluate, run.domain)
    assert failure is None
    assert gauss.jprime_point.cache_info().currsize <= 1000


# Leaves of the registered domains' dyadic trees that DyadicRect.children()
# cannot halve (a child would need a numerator of 2^53), on which a derived
# coordinate rounded to nearest is not outward: 1 - x has zero width (g_P_2,
# g_P_3), x + h rounds down (g_J_1) and (x + y)/2 rounds inward (g_QJ_1).
# Each maps the exact box sides to the exact range of every coordinate
# gauss.j_range sees, by derivative order.
DEEP_LEAVES = {
    "g_P_2": ("1:6 4503599627370511:58",
              lambda x: {0: [(1 - x[1], 1 - x[0])]}),
    "g_P_3": ("9007199254740991:54 1:1",
              lambda x: {1: [(1 - x[1], 1 - x[0])]}),
    "g_J_1": ("1:1 4503599627370497:53 0:0 3:54",
              lambda x, h: {0: [x, (x[0] + h[0], x[1] + h[1])], 3: [x], 4: [x], 5: [x],
                            6: [(x[0], x[1] + h[1])]}),
    "g_QJ_1": ("2012212929385313:52 1006106464692657:51 663630780048683:50 5309046240389465:53",
               lambda x, y: {k: [((x[0] + y[0]) / 2, (x[1] + y[1]) / 2)] for k in (0, 1)}),
}


def _exact_sides(rect):
    return [(F(a.num, 2**a.exp), F(b.num, 2**b.exp)) for a, b in zip(rect.lo, rect.hi)]


@pytest.mark.parametrize("claim_id", sorted(DEEP_LEAVES))
def test_derived_coordinates_are_enclosed_on_the_deepest_leaves(claim_id, monkeypatch):
    """Every [a, b] that gauss.j_range receives contains the exact range
    of a coordinate at its order, and every coordinate's range is
    contained in some [a, b] at its order."""
    tokens, coordinates = DEEP_LEAVES[claim_id]
    ends = [Dyadic(*map(int, t.split(":"))) for t in tokens.split()]
    leaf = DyadicRect(tuple(ends[0::2]), tuple(ends[1::2]))
    with pytest.raises(ValueError):  # no child is representable
        list(leaf.children())
    sides = _exact_sides(leaf)
    expected = coordinates(*sides)
    calls = []
    j_range = gauss.j_range

    def recording(k, a, b):
        calls.append((k, F(a), F(b)))
        return j_range(k, a, b)

    monkeypatch.setattr(gauss, "j_range", recording)
    for run in claim_by_id(claim_id).runs:
        for memo in (bounds._j1_x_factors, bounds._j1_h_factors, bounds._j1_xh_factors):
            memo.cache_clear()
        box = run.domain
        while box != leaf:  # the leaf is a node of the domain's tree
            box = next(c for c in box.children() if all(
                lo <= x and y <= hi for (lo, hi), (x, y) in zip(_exact_sides(c), sides)))
        calls.clear()
        run.evaluate(leaf.float_box())
        assert {k for k, _, _ in calls} == set(expected), run.run_tag
        for k, a, b in calls:
            assert any(a <= lo and hi <= b for lo, hi in expected[k]), (run.run_tag, k, a, b)
        for k, ranges in expected.items():
            for lo, hi in ranges:
                assert any(a <= lo and hi <= b for kk, a, b in calls if kk == k), \
                    (run.run_tag, k, lo, hi)


def test_g_J2_root_box_requires_subdivision():
    bf = BoundFn("g_J2", HALF)
    root = ((0.5, 9 / 16), (11 / 16, 1.0))
    out = eval_bound_fn(bf, root)
    assert not (out.valid and out.lo > 0.0)


@pytest.mark.parametrize("fn_id, variant", [
    ("g_nope", ""), ("g_tail", "mid"), ("g_tail", ""), ("g_JL", "low"),
])
def test_unknown_bound_id_rejected(fn_id, variant):
    with pytest.raises(ValueError):
        BoundFn(fn_id, HALF, variant=variant)


def test_bound_ids():
    assert BOUND_IDS == (
        "g_JL", "g_J1", "g_J2", "g_Q1", "g_Q2", "g_LJQ1", "g_LJQ2",
        "g_QJQ", "g_QJ1", "g_QJ2", "g_P2", "g_P3", "g_tail",
    )
