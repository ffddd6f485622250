"""The one-axis memos of cubeiso.bounds change no bit of any bound.

g_J1, g_LJQ2 and g_QJ1 take factors that depend on one axis alone from
functools.cache memos keyed on the interval's floats and the BetaConsts.
Their (lo, hi) must equal, bit for bit, the per-box evaluation kept in
_reference on every box the partitioner visits down to depth 8 in each
registered run, and on boxes with a zero endpoint or straddling x0.  Each
run is checked once after the runs before it and once after the runs after
it, with every memo left warm, so a memo whose key misses the BetaConsts or
an endpoint returns another run's factor and fails.
"""

import pytest

import _reference as ref
from cubeiso import bounds, gauss
from cubeiso.claims import claim_by_id, run_claim
from cubeiso.funcs import beta_consts
from cubeiso.interval import Interval

PER_BOX = {
    "g_J1": ref.g_J1_bound_per_box,
    "g_LJQ2": ref.g_LJQ2_bound_per_box,
    "g_QJ1": ref.g_QJ1_bound_per_box,
}
MEMOIZED = {
    "g_J1": bounds.g_J1_bound,
    "g_LJQ2": bounds.g_LJQ2_bound,
    "g_QJ1": bounds.g_QJ1_bound,
}
MEMOS = [f for f in vars(bounds).values()
         if hasattr(f, "cache_clear") and f.__module__ == bounds.__name__]
DEPTH = 8


def _bits(iv: Interval):
    """(lo, hi) as floats' reprs, so that -0.0, 0.0 and NaN compare exactly."""
    return repr(iv.lo), repr(iv.hi)


def _visited(fn, bc, domain, max_depth):
    """(box, per-box bits) for every box the partitioner evaluates down to
    max_depth, in its order; an unprovable box at max_depth ends its branch
    instead of the run."""
    out = []

    def recurse(rect, depth):
        (a, b), (c, d) = rect.float_box()
        val = fn(Interval(a, b), Interval(c, d), bc)
        out.append((((a, b), (c, d)), _bits(val)))
        if (val.valid and val.lo > 0.0) or depth >= max_depth:
            return
        for child in rect.children():
            recurse(child, depth + 1)

    recurse(domain, 0)
    return out


def _edge_boxes(fn_id, domain):
    """Hand-picked boxes: zero endpoints and boxes straddling x0."""
    x0 = gauss.profile_constants().x0
    below, above = x0.lo - 2.0**-9, x0.hi + 2.0**-9
    (a, b), (c, d) = domain.float_box()
    if fn_id == "g_J1":
        return [((a, b), (0.0, 0.0)), ((a, a), (0.0, 2.0**-10)),
                ((below, above), (0.0, 2.0**-8)), ((below, above), (2.0**-8, 2.0**-7)),
                ((0.5, 0.5625), (0.0, 0.0625))]
    if fn_id == "g_QJ1":
        # m = (x + y)/2 straddles x0 near x + y = 1.104
        return [((0.4375, 0.5), (0.5625, 0.625)), ((a, a), (c, c)), ((a, b), (c, d))]
    return [((below, above), (c, c)), ((below, above), (c, d)), ((a, b), (d, d))]


@pytest.fixture(scope="module")
def runs():
    """(name, memoized bound, bc, [(box, per-box bits)]) per run."""
    out = []
    for claim_id in ("g_J_1", "g_LJQ_2", "g_QJ_1"):
        for run in claim_by_id(claim_id).runs:
            fn_id = run.fn.fn_id
            bc = beta_consts(run.fn.params)
            boxes = _visited(PER_BOX[fn_id], bc, run.domain, DEPTH)
            for box in _edge_boxes(fn_id, run.domain):
                (p, q), (r, s) = box
                boxes.append((box, _bits(PER_BOX[fn_id](Interval(p, q), Interval(r, s), bc))))
            out.append((f"{claim_id}.{run.run_tag}", MEMOIZED[fn_id], bc, boxes))
    return out


def test_the_boxes_cover_zero_endpoints_and_x0(runs):
    x0 = gauss.profile_constants().x0
    j1 = [box for name, _, _, boxes in runs if name.startswith("g_J_1") for box, _ in boxes]
    assert any(h[0] == 0.0 for _, h in j1)
    assert any(x[0] < x0.lo and x0.hi < x[1] for x, _ in j1)
    qj1 = [box for name, _, _, boxes in runs if name.startswith("g_QJ_1") for box, _ in boxes]
    assert any(x[0] + y[0] < 2 * x0.lo and 2 * x0.hi < x[1] + y[1] for x, y in qj1)
    assert sum(len(boxes) for *_, boxes in runs) > 3000


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_memoized_bounds_match_per_box_bits(runs, order):
    for memo in MEMOS:
        memo.cache_clear()
    mismatches = []
    for name, fn, bc, boxes in (runs if order == "forward" else runs[::-1]):
        for ((a, b), (c, d)), expected in boxes:
            got = _bits(fn(Interval(a, b), Interval(c, d), bc))
            if got != expected:
                mismatches.append((name, (a, b), (c, d), got, expected))
    assert not mismatches, f"{len(mismatches)} boxes differ, first: {mismatches[:3]}"


def test_g_LJQ2_leaves_the_q_range_memo_alone():
    """g_LJQ2 makes a BetaConsts per beta interval, so a q_range entry it
    made would never be read again: it calls q_range uncached."""
    before = bounds.q_range.cache_info().currsize
    assert run_claim("g_LJQ_2").ok
    assert bounds.q_range.cache_info().currsize == before
