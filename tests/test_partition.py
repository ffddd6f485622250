"""Dyadic geometry, the partition engine, and certificate round trips."""

import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from cubeiso import claims
from cubeiso.interval import Interval
from cubeiso.partition import (
    MAX_TILING_PROBLEMS,
    Certificate,
    CertificateParseError,
    Dyadic,
    DyadicRect,
    _check_tiling,
    dyadic_mid,
    emit,
    load,
    partition,
    verify_certificate,
)


def test_dyadic_normalization_and_roundtrip():
    d = Dyadic(6, 3)
    assert (d.num, d.exp) == (3, 2)
    assert F(d.value) == F(3, 4)
    assert d.value == 0.75
    assert str(d) == "3:2"
    with pytest.raises(ValueError):
        Dyadic.from_fraction(F(1, 3))


def test_dyadic_normalization_takes_one_shift():
    # a zero numerator or a huge exponent is normalized without a loop per unit
    assert Dyadic(0, 10**18) == Dyadic(0, 0)
    with pytest.raises(ValueError):
        Dyadic(1 << 40, 10**18)
    assert (Dyadic(-12, 5).num, Dyadic(-12, 5).exp) == (-3, 3)
    assert (Dyadic(40, 2).num, Dyadic(40, 2).exp) == (10, 0)


def test_dyadic_midpoint_exact():
    a = Dyadic.from_fraction(F(1, 2))
    b = Dyadic.from_fraction(F(2047, 2048))
    m = dyadic_mid(a, b)
    assert F(m.value) == (F(1, 2) + F(2047, 2048)) / 2


def test_children_order_is_deterministic():
    r = DyadicRect.build((F(0), F(1)), (F(0), F(1)))
    kids = list(r.children())
    assert len(kids) == 4
    # dimension-1 low half first, then dimension-2
    assert [(F(k.lo[0].value), F(k.lo[1].value)) for k in kids] == [
        (F(0), F(0)), (F(0), F(1, 2)), (F(1, 2), F(0)), (F(1, 2), F(1, 2)),
    ]


def _affine_bound(slope, offset):
    def evaluate(box):
        (a, b), = box
        lo = min(slope * a, slope * b) + offset
        hi = max(slope * a, slope * b) + offset
        return Interval(lo, hi)
    return evaluate


def test_globally_positive_function_single_rect():
    dom = DyadicRect.build((F(0), F(1)))
    rects, fail, margin = partition(_affine_bound(1.0, 1.0), dom, 5)
    assert fail is None and len(rects) == 1 and margin == 1.0


def test_boundary_zero_fails_at_every_depth():
    dom = DyadicRect.build((F(0), F(1)))
    for depth in (0, 3, 6):
        rects, fail, _ = partition(_affine_bound(1.0, 0.0), dom, depth)
        assert rects is None and fail is not None
        assert F(fail.deepest_box.lo[0].value) == 0
        assert fail.depth == depth


def test_monotone_refinement():
    """Increasing maxDepth never turns success into failure."""
    dom = DyadicRect.build((F(0), F(1)))

    def loose_constant(box):
        # a tight lower bound for f = 0.1 whose slack decays with box width
        (a, b), = box
        return Interval(0.1 - 10.0 * (b - a), 0.1)

    statuses = []
    for depth in range(0, 12):
        rects, fail, _ = partition(loose_constant, dom, depth)
        statuses.append(fail is None)
    assert statuses[0] is False  # the root box is not provable
    first_ok = statuses.index(True)
    assert all(statuses[first_ok:])


def test_monotone_refinement_on_real_claim():
    claim = claims.claim_by_id("g_Q_2")
    ok_depths = []
    for depth in (1, 2, 3, 4):
        rep = claims.run_claim(claim, max_depth=depth)
        ok_depths.append(rep.ok)
    first_ok = ok_depths.index(True)
    assert all(ok_depths[first_ok:])


def _sample_certificate() -> Certificate:
    from cubeiso.bounds import eval_bound_fn

    claim = claims.claim_by_id("g_Q_2")
    run = claim.runs[0]
    rects, fail, _ = partition(
        lambda box: eval_bound_fn(run.fn, box), run.domain, 12,
    )
    assert fail is None
    return Certificate("g_Q_2", run.fn.params.beta, run.fn.params.c, run.domain, rects)


@pytest.fixture(scope="module")
def sample_cert():
    return _sample_certificate()


def test_emit_load_roundtrip_text_and_json(sample_cert):
    for fmt in ("text", "json"):
        data = emit(sample_cert, fmt)
        back = load(data)
        assert back.claim_id == sample_cert.claim_id
        assert back.beta == sample_cert.beta and back.c == sample_cert.c
        assert back.domain == sample_cert.domain
        assert back.rects == sample_cert.rects
        # byte-stable reserialization
        assert emit(back, fmt) == data


def test_certificate_bytes_deterministic(sample_cert):
    again = _sample_certificate()
    assert emit(again, "text") == emit(sample_cert, "text")
    assert emit(again, "json") == emit(sample_cert, "json")


def test_parse_error_names_offset_and_field():
    data = b"claim g_Q_2 beta 1/2 c 1/1 domain 1:2 1:1 1:2 1:1\n0.25:0 nonsense\n"
    with pytest.raises(CertificateParseError) as err:
        load(data)
    assert "byte" in str(err.value) and "field" in str(err.value)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_parse_error_offset_counts_bytes(sample_cert, newline):
    """The offset is the byte offset of the bad rect's line, whatever ends
    the lines and however many bytes a character takes."""
    lines = emit(sample_cert, "text").splitlines()
    lines[0] = lines[0].replace(b"g_Q_2", "g_Q_\u00e9".encode())  # a two-byte character
    lines[3] = b"1:2 3:3 7 1:1"
    data = newline.join(lines) + newline
    with pytest.raises(CertificateParseError) as err:
        load(data)
    assert err.value.offset == data.index(b"1:2 3:3 7 1:1")
    assert err.value.fieldname == "rect 2"


_DOMAIN = "[[1,2],[1,2],[1,1],[1,1]]"


def _text(beta="1/2", domain="1:2 1:1 1:2 1:1", rect="1:2 1:1 1:2 1:1"):
    """A g_Q_2 text certificate whose one rect is the whole domain."""
    return f"claim g_Q_2 beta {beta} c 1/1 domain {domain}\n{rect}\n".encode()


def _json(beta="[1,2]", claim='"g_Q_2"', domain=_DOMAIN, rect=_DOMAIN):
    return (f'{{"beta":{beta},"c":[1,1],"claim":{claim},'
            f'"domain":{domain},"rects":[{rect}]}}\n').encode()


def test_wellformed_text_and_json_load():
    """The unbroken certificates that the malformed cases below start from."""
    for data in (_text(), _json()):
        cert = load(data)
        assert cert.beta == F(1, 2) and cert.rects == [cert.domain]


_MALFORMED = {
    "beta_three_integers": (_text(beta="1/2/99"), _json(beta="[1,2,99]")),
    "beta_bool": (_text(beta="true/2"), _json(beta="[true,2]")),
    "beta_plus_sign": (_text(beta="+1/2"), _json(beta='["+1",2]')),
    "beta_underscore": (_text(beta="1_0/20"), _json(beta='["1_0",20]')),
    "beta_float": (_text(beta="0.5/1"), _json(beta="[0.5,1]")),
    "dyadic_plus_sign": (_text(rect="+1:2 1:1 1:2 1:1"),
                         _json(rect='[["+1",2],[1,2],[1,1],[1,1]]')),
    "dyadic_bool": (_text(rect="true:1 1:1 1:2 1:1"), _json(rect="[[true,1],[1,2],[1,1],[1,1]]")),
    "dyadic_not_a_pair": (_text(rect="7 1:1 1:2 1:1"), _json(rect="[7,[1,2],[1,1],[1,1]]")),
    "dyadic_three_integers": (_text(rect="1:2:3 1:1 1:2 1:1"),
                              _json(rect="[[1,2,3],[1,2],[1,1],[1,1]]")),
    "domain_three_dyadics": (_text(domain="1:2 1:1 1:2"), _json(domain="[[1,2],[1,2],[1,1]]")),
    "rect_of_other_dimension": (_text(rect="1:2 1:1"), _json(rect="[[1,2],[1,1]]")),
}


@pytest.mark.parametrize("data", [
    pytest.param(data, id=f"{name}-{fmt}")
    for name, pair in _MALFORMED.items() for fmt, data in zip(("text", "json"), pair)
] + [pytest.param(_json(claim="5"), id="claim_not_a_string-json")])
def test_both_formats_share_one_token_rule(data):
    """A field that breaks a token rule is a parse error in either format."""
    with pytest.raises(CertificateParseError):
        load(data)


def test_deeply_nested_json_is_a_parse_error():
    with pytest.raises(CertificateParseError):
        load(b'{"claim":' + b"[" * 100_000 + b"]" * 100_000 + b"}")


def test_one_load_shares_one_dyadic_per_corner(sample_cert):
    """Within one load, equal corners are one Dyadic object; a grid point is
    the corner of up to four rects."""
    for fmt in ("text", "json"):
        cert = load(emit(sample_cert, fmt))
        by_value = {}
        for r in (cert.domain, *cert.rects):
            for d in r.lo + r.hi:
                assert by_value.setdefault(d, d) is d
        assert len(by_value) < 4 * len(cert.rects)


@pytest.mark.parametrize("exp", [0, 12, 1060])
def test_float_box_is_the_exact_double_of_each_corner(exp):
    lo, hi = Dyadic(-(2**52) - 1, exp), Dyadic(2**52 + 3, exp)
    rect = DyadicRect((lo, Dyadic(1, exp)), (hi, Dyadic(5, exp)))
    assert rect.float_box() == ((math.ldexp(-(2**52) - 1, -exp), math.ldexp(2**52 + 3, -exp)),
                                (math.ldexp(1, -exp), math.ldexp(5, -exp)))
    assert F(lo.value) == F(-(2**52) - 1, 2**exp)


_HEAD = b"claim g_Q_2 beta 1/2 c 1/1 domain 1:2 1:1 1:2 1:1\n"
_RECT = b"[[1,2],[1,2],[3,3],[3,3]]"


def _json_rects(*rects):
    return (b'{"beta":[1,2],"c":[1,1],"claim":"g_Q_2","domain":' + _DOMAIN.encode()
            + b',"rects":[' + b",".join(rects) + b"]}\n")


@pytest.mark.parametrize("data,message", [
    (_HEAD + b"1:2 3:3 1:2 3:3\n3:3 1:1 1:2 3:3\n1:2 3:3 3:3 1:4000\n",
     "malformed rect 2: dyadic 1/2^4000 not exactly representable (byte 82, field rect 2)"),
    (_HEAD + b"1:2 3:3 1:2 3:3\n3:3 3:3 1:2 3:3\n",
     "malformed rect 1: degenerate side [3:3, 3:3] (byte 66, field rect 1)"),
    (_json_rects(_RECT, b"[[true,2],[1,2],[3,3],[3,3]]"),
     "malformed rect 1: expected a pair of integers (byte 0, field rect 1)"),
    (_json_rects(_RECT, b"[[1,2],[1,2],[3.0,3],[3,3]]"),
     "malformed rect 1: expected a pair of integers (byte 0, field rect 1)"),
], ids=["exponent_too_large", "degenerate_side", "json_bool_equal_to_a_token",
        "json_float_equal_to_a_token"])
def test_malformed_tokens_beside_shared_corners_keep_their_error(data, message):
    """Corners shared within a load change no error text or offset: a JSON
    true or 3.0 equals a pair already read as a dict key, and must still be
    refused."""
    with pytest.raises(CertificateParseError) as err:
        load(data)
    assert str(err.value) == message


def _exact_area(r: DyadicRect) -> F:
    return math.prod(F(b.value) - F(a.value) for a, b in zip(r.lo, r.hi))


def test_tiling_area_is_exact(sample_cert):
    total = sum(_exact_area(r) for r in sample_cert.rects)
    assert total == _exact_area(sample_cert.domain)


def _moved(r: DyadicRect, dim: int, side: str, delta: F) -> DyadicRect:
    """r with its low or high side (or both) in dimension dim moved by delta."""
    lo, hi = list(r.lo), list(r.hi)
    for ends in ([lo] if side == "lo" else [hi] if side == "hi" else [lo, hi]):
        ends[dim] = Dyadic.from_fraction(F(ends[dim].value) + delta)
    return DyadicRect(tuple(lo), tuple(hi))


def _mutated(data, domain: DyadicRect, rects: list[DyadicRect]) -> list[DyadicRect]:
    """rects after one to three drawn mutations; one that would leave the
    representable dyadics or make a side degenerate is skipped."""
    rects = list(rects)
    step = F(1, 1 << max(d.exp for r in rects for d in r.lo + r.hi))
    kinds = ["drop", "duplicate", "nudge", "split", "outside", "shuffle"]
    for kind in data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if not rects:
            break
        i = data.draw(st.integers(0, len(rects) - 1))
        dim = data.draw(st.integers(0, domain.n - 1))
        try:
            if kind == "drop":
                del rects[i]
            elif kind == "duplicate":
                rects.insert(data.draw(st.integers(0, len(rects))), rects[i])
            elif kind == "nudge":  # one corner, one grid step
                side = data.draw(st.sampled_from(["lo", "hi"]))
                rects[i] = _moved(rects[i], dim, side, data.draw(st.sampled_from([step, -step])))
            elif kind == "split":
                rects[i:i + 1] = list(rects[i].children())
            elif kind == "outside":  # by the domain's width: just outside it
                width = F(domain.hi[dim].value) - F(domain.lo[dim].value)
                shift = data.draw(st.sampled_from([width, -width]))
                rects[i] = _moved(rects[i], dim, "both", shift)
            else:
                rects = data.draw(st.permutations(rects))
        except ValueError:
            pass
    return rects


@st.composite
def _tilings(draw):
    """A domain with negative or positive corners, coarse or very fine
    exponents per dimension, tiled by a random dyadic quadtree of depth 1 to 3."""
    n = draw(st.integers(1, 2))
    lo, hi = [], []
    for _ in range(n):
        exp = draw(st.one_of(st.integers(0, 6), st.integers(1050, 1055)))
        a, width = draw(st.integers(-8, 8)), draw(st.integers(1, 8))
        lo.append(Dyadic(a, exp))
        hi.append(Dyadic(a + width, exp))
    domain = DyadicRect(tuple(lo), tuple(hi))
    rects: list[DyadicRect] = []

    def tile(r, depth):
        if depth == 0 or depth < 3 and draw(st.booleans()):
            for child in r.children():
                tile(child, depth + 1)
        else:
            rects.append(r)

    tile(domain, 0)
    return domain, rects


@settings(max_examples=300, deadline=None)
@given(_tilings(), st.data())
def test_tiling_check_matches_rational_reference(tiling, data):
    domain, rects = tiling
    assert _check_tiling(domain, data.draw(st.permutations(rects))) == []
    rects = _mutated(data, domain, rects)
    problems = _check_tiling(domain, rects)
    assert problems == ref.check_dyadic_tree_fractions(domain, rects)
    if not problems:  # soundness: an accepted certificate tiles its domain exactly
        assert ref.check_tiling_fractions(domain, rects) == []


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_tiling_check_matches_reference_on_sample_certificate(sample_cert, data):
    domain = sample_cert.domain
    assert _check_tiling(domain, sample_cert.rects) == []
    rects = _mutated(data, domain, sample_cert.rects)
    problems = _check_tiling(domain, rects)
    assert problems == ref.check_dyadic_tree_fractions(domain, rects)
    if not problems:
        assert ref.check_tiling_fractions(domain, rects) == []


@pytest.mark.parametrize("domain, cut", [((F(0), F(1)), F(1, 4)), ((F(0), F(3)), F(1))],
                         ids=["unit_at_quarter", "odd_width_at_one"])
def test_exact_tiling_off_the_dyadic_tree_is_rejected(domain, cut):
    """Two rects tile the domain exactly, but they are not the children of
    one halving: the check accepts only the leaves of a dyadic subdivision."""
    dom = DyadicRect.build(domain)
    rects = [DyadicRect.build((domain[0], cut)), DyadicRect.build((cut, domain[1]))]
    assert ref.check_tiling_fractions(dom, rects) == []
    problems = _check_tiling(dom, rects)
    assert problems and problems == ref.check_dyadic_tree_fractions(dom, rects)


def test_rect_outside_domain_is_reported_and_kept_out_of_the_walk():
    dom = DyadicRect.build((F(0), F(1)), (F(0), F(1)))
    outside = DyadicRect.build((F(1), F(3, 2)), (F(0), F(1, 2)))
    assert _check_tiling(dom, [*dom.children(), outside]) == ["rect 4 not inside domain"]


@pytest.mark.parametrize("n", [1, 2])
def test_tiny_rect_is_rejected_without_recursion(n):
    """One 2^-1000-wide rect in the unit box: the walk goes 1000 boxes deep,
    then reports the 2^n - 1 empty children of each box on the way back up
    until it holds MAX_TILING_PROBLEMS of them."""
    dom = DyadicRect.build(*[(F(0), F(1))] * n)
    tiny = DyadicRect.build(*[(F(0), F(1, 2**1000))] * n)
    t0 = time.perf_counter()
    problems = _check_tiling(dom, [tiny])
    assert time.perf_counter() - t0 < 5.0
    assert problems[0] == "gap: no rect covers " + " ".join(["0:0 1:1000"] * (n - 1) + ["1:1000 1:999"])
    assert all(p.startswith("gap: ") for p in problems[:-1])
    assert problems[MAX_TILING_PROBLEMS:] == [
        f"tiling check stopped after {MAX_TILING_PROBLEMS} problems"]


def test_many_deep_rects_stop_the_walk():
    """200 rects of side 2^-1000 near the origin of the unit square, whose
    paths split about 52 halvings above them: a full walk reports 31,382
    empty siblings, but the walk stops after MAX_TILING_PROBLEMS."""
    rng = random.Random(19)
    dom = DyadicRect.build((F(0), F(1)), (F(0), F(1)))
    corners = {(rng.randrange(2**52), rng.randrange(2**52)) for _ in range(200)}
    rects = [DyadicRect.build(*[(F(k, 2**1000), F(k + 1, 2**1000)) for k in corner])
             for corner in corners]
    t0 = time.perf_counter()
    problems = _check_tiling(dom, rects)
    assert time.perf_counter() - t0 < 5.0
    assert 0 < len(problems) <= MAX_TILING_PROBLEMS + 1
    assert problems[-1] == f"tiling check stopped after {MAX_TILING_PROBLEMS} problems"


def test_verify_roundtrip_and_tampering(sample_cert):
    from cubeiso.bounds import eval_bound_fn
    claim = claims.claim_by_id("g_Q_2")
    run = claim.runs[0]

    def evaluate(box):
        return eval_bound_fn(run.fn, box)

    report = verify_certificate(sample_cert, evaluate)
    assert report.ok and report.min_bound > 0

    # deleting a rect breaks the tiling
    broken = Certificate(
        sample_cert.claim_id, sample_cert.beta, sample_cert.c,
        sample_cert.domain, sample_cert.rects[1:],
    )
    rep = verify_certificate(broken, evaluate)
    assert not rep.ok and not rep.tiling_ok

    # a single rect covering the whole domain tiles exactly but cannot be
    # proven positive (the root box needs subdivision)
    flat = Certificate(
        sample_cert.claim_id, sample_cert.beta, sample_cert.c,
        sample_cert.domain, [sample_cert.domain],
    )
    rep = verify_certificate(flat, evaluate)
    assert rep.tiling_ok and not rep.positivity_ok and not rep.ok


def test_overlapping_rects_detected(sample_cert):
    from cubeiso.bounds import eval_bound_fn
    claim = claims.claim_by_id("g_Q_2")
    run = claim.runs[0]
    dup = Certificate(
        sample_cert.claim_id, sample_cert.beta, sample_cert.c,
        sample_cert.domain, sample_cert.rects + [sample_cert.rects[0]],
    )
    rep = verify_certificate(dup, lambda box: eval_bound_fn(run.fn, box))
    assert not rep.tiling_ok
    assert any("overlap" in msg for msg in rep.failures)
