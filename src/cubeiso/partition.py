"""Recursive dyadic partitioning and admissible-partition certificates.

A rectangle is subdivided into 2^n congruent children by bisecting every
coordinate at its midpoint; a box is accepted once its bound evaluates to a
provably positive interval, and the recursion fails when an unprovable box
reaches maxDepth.  The leaf order is deterministic: children are visited
lexicographically, dimension 1 low half before high half, then dimension 2,
so identical inputs produce identical certificates.

All endpoints are exact dyadic rationals (num / 2**exp with num < 2**53),
which are exactly representable as doubles; midpoints of dyadics are dyadic,
so the geometry is exact and certificates serialize losslessly as
(numerator, exponent) pairs, never as decimal floats.

Certificate verification is independent of the construction path: it
re-checks the exact tiling of the domain and re-evaluates the bound on every
rectangle, trusting nothing from the file beyond the claim identity.  The
tiling check maps every endpoint once to an integer on the finest grid of
the certificate (num << (E - exp), with E its largest exponent) and does
containment, the area sum and the overlap sweep in integer arithmetic.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .interval import Interval

F = Fraction

MAX_DEPTH_DEFAULT = 12


# ---------------------------------------------------------------------------
# Dyadic rationals and rectangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dyadic:
    """num / 2**exp in lowest terms with exp >= 0 and |num| < 2**53."""

    num: int
    exp: int

    def __post_init__(self):
        num, exp = self.num, self.exp
        if exp < 0:
            raise ValueError("negative exponent")
        if num == 0:
            exp = 0
        else:
            shift = min(exp, (num & -num).bit_length() - 1)  # trailing zeros of num
            num >>= shift
            exp -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)
        if abs(self.num) >= 2**53 or self.exp > 1060:
            raise ValueError(f"dyadic {self.num}/2^{self.exp} not exactly representable")

    @staticmethod
    def from_fraction(fr: Fraction | int) -> "Dyadic":
        fr = F(fr)
        den = fr.denominator
        exp = den.bit_length() - 1
        if den != 1 << exp:
            raise ValueError(f"{fr} is not dyadic")
        return Dyadic(fr.numerator, exp)

    def to_float(self) -> float:
        return math.ldexp(self.num, -self.exp)

    def __str__(self) -> str:
        return f"{self.num}:{self.exp}"

    @staticmethod
    def parse(token: str) -> "Dyadic":
        num_s, _, exp_s = token.partition(":")
        if not exp_s:
            raise ValueError(f"malformed dyadic token {token!r}")
        return Dyadic(int(num_s), int(exp_s))


def dyadic_mid(a: Dyadic, b: Dyadic) -> Dyadic:
    e = max(a.exp, b.exp) + 1
    num = a.num * (1 << (e - a.exp)) + b.num * (1 << (e - b.exp))
    if num % 2:
        raise ArithmeticError("midpoint not representable")  # cannot happen
    return Dyadic(num // 2, e)


@dataclass(frozen=True)
class DyadicRect:
    """Axis-aligned box with dyadic corners, n = 1 or 2 dimensions."""

    lo: tuple[Dyadic, ...]
    hi: tuple[Dyadic, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or len(self.lo) not in (1, 2):
            raise ValueError("rectangles must be 1- or 2-dimensional")
        for a, b in zip(self.lo, self.hi):
            # every Dyadic is exactly a double, so the float order is exact
            if not a.to_float() < b.to_float():
                raise ValueError(f"degenerate side [{a}, {b}]")

    @staticmethod
    def build(*sides: tuple[Fraction | int, Fraction | int]) -> "DyadicRect":
        lo = tuple(Dyadic.from_fraction(s[0]) for s in sides)
        hi = tuple(Dyadic.from_fraction(s[1]) for s in sides)
        return DyadicRect(lo, hi)

    @property
    def n(self) -> int:
        return len(self.lo)

    def float_box(self) -> tuple[tuple[float, float], ...]:
        return tuple((a.to_float(), b.to_float()) for a, b in zip(self.lo, self.hi))

    def children(self) -> Iterator["DyadicRect"]:
        """2^n congruent children, dimension-1 low half first."""
        halves = []
        for a, b in zip(self.lo, self.hi):
            m = dyadic_mid(a, b)
            halves.append(((a, m), (m, b)))
        for sides in itertools.product(*halves):
            yield DyadicRect(tuple(lo for lo, _ in sides), tuple(hi for _, hi in sides))

    def tokens(self) -> list[str]:
        out = []
        for a, b in zip(self.lo, self.hi):
            out.append(str(a))
            out.append(str(b))
        return out


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

@dataclass
class PartitionStats:
    evaluations: int = 0


@dataclass(frozen=True)
class Failure:
    deepest_box: DyadicRect
    depth: int


@dataclass
class Certificate:
    claim_id: str
    beta: Fraction
    c: Fraction
    domain: DyadicRect
    rects: list[DyadicRect]


BoundEvaluator = Callable[[tuple[tuple[float, float], ...]], Interval]


def partition(
    evaluate: BoundEvaluator,
    domain: DyadicRect,
    max_depth: int = MAX_DEPTH_DEFAULT,
    stats: Optional[PartitionStats] = None,
) -> tuple[Optional[list[DyadicRect]], Optional[Failure], float]:
    """Depth-first recursive dyadic partitioning.

    Returns (rects, failure, margin): on success failure is None and margin
    is the smallest accepted lower bound; on failure rects is None and the
    failing deepest box is reported.
    """
    rects: list[DyadicRect] = []
    margin = math.inf

    def recurse(box: DyadicRect, depth: int) -> Optional[Failure]:
        nonlocal margin
        if stats is not None:
            stats.evaluations += 1
        val = evaluate(box.float_box())
        if val.valid and val.lo > 0.0:
            rects.append(box)
            margin = min(margin, val.lo)
            return None
        if depth >= max_depth:
            return Failure(deepest_box=box, depth=depth)
        for child in box.children():
            fail = recurse(child, depth + 1)
            if fail is not None:
                return fail
        return None

    fail = recurse(domain, 0)
    if fail is not None:
        return None, fail, math.inf
    return rects, None, margin


# ---------------------------------------------------------------------------
# Certificate serialization
# ---------------------------------------------------------------------------

def emit_text(cert: Certificate) -> bytes:
    """Line-oriented UTF-8 format; endpoints as num:exp pairs."""
    header = (
        f"claim {cert.claim_id}"
        f" beta {cert.beta.numerator}/{cert.beta.denominator}"
        f" c {cert.c.numerator}/{cert.c.denominator}"
        f" domain {' '.join(cert.domain.tokens())}"
    )
    lines = [header]
    for r in cert.rects:
        lines.append(" ".join(r.tokens()))
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_json(cert: Certificate) -> bytes:
    payload = {
        "claim": cert.claim_id,
        "beta": [cert.beta.numerator, cert.beta.denominator],
        "c": [cert.c.numerator, cert.c.denominator],
        "domain": [[d.num, d.exp] for d in cert.domain.lo + cert.domain.hi],
        "rects": [[[d.num, d.exp] for d in r.lo + r.hi] for r in cert.rects],
    }
    return (json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n").encode("utf-8")


def emit(cert: Certificate, fmt: str = "text") -> bytes:
    if fmt == "text":
        return emit_text(cert)
    if fmt == "json":
        return emit_json(cert)
    raise ValueError(f"unknown certificate format {fmt!r}")


class CertificateParseError(ValueError):
    def __init__(self, message: str, offset: int, fieldname: str):
        super().__init__(f"{message} (byte {offset}, field {fieldname})")
        self.offset = offset
        self.fieldname = fieldname


def _rect_from_tokens(tokens: list[str], offset: int) -> DyadicRect:
    if len(tokens) not in (2, 4):
        raise CertificateParseError("expected 2 or 4 dyadics", offset, "rect")
    try:
        ds = [Dyadic.parse(t) for t in tokens]
    except ValueError as exc:
        raise CertificateParseError(str(exc), offset, "dyadic") from None
    if len(ds) == 2:
        return DyadicRect((ds[0],), (ds[1],))
    return DyadicRect((ds[0], ds[2]), (ds[1], ds[3]))


def _json_dyadic(pair) -> Dyadic:
    num, exp = pair
    if not (isinstance(num, int) and isinstance(exp, int)):
        raise TypeError(f"dyadic {pair!r} is not a pair of integers")
    return Dyadic(num, exp)


def _load_json(data: bytes) -> Certificate:
    try:
        payload = json.loads(data.decode("utf-8"))
        ds = [_json_dyadic(pair) for pair in payload["domain"]]
        raw_rects = [[_json_dyadic(pair) for pair in raw] for raw in payload["rects"]]
        claim_id = payload["claim"]
        beta = F(payload["beta"][0], payload["beta"][1])
        cc = F(payload["c"][0], payload["c"][1])
    except (TypeError, KeyError, IndexError, ValueError, ZeroDivisionError) as exc:
        raise CertificateParseError(f"malformed JSON certificate: {exc}", 0, "json") from None
    k = len(ds) // 2
    domain = DyadicRect(tuple(ds[:k]), tuple(ds[k:]))
    rects = []
    for i, rs in enumerate(raw_rects):
        if len(rs) != len(ds):
            raise CertificateParseError(
                f"rect {i} has {len(rs)} dyadics, the domain {len(ds)}", 0, "rects")
        rects.append(DyadicRect(tuple(rs[:k]), tuple(rs[k:])))
    return Certificate(claim_id=claim_id, beta=beta, c=cc, domain=domain, rects=rects)


def load(data: bytes) -> Certificate:
    """Parse either the text or the JSON certificate format.

    A malformed file raises CertificateParseError, or another ValueError
    (a degenerate rectangle, bytes that are not UTF-8).  Every rect of the
    result has the domain's dimension.
    """
    if data[:1] == b"{":
        return _load_json(data)
    text = data.decode("utf-8")
    lines = text.splitlines()
    if not lines:
        raise CertificateParseError("empty certificate", 0, "header")
    head = lines[0].split()
    if len(head) < 7 or head[0] != "claim" or head[2] != "beta" or head[4] != "c" or head[6] != "domain":
        raise CertificateParseError("malformed header", 0, "header")
    claim_id = head[1]
    try:
        bn, bd = head[3].split("/")
        cn, cd = head[5].split("/")
        beta = F(int(bn), int(bd))
        cc = F(int(cn), int(cd))
    except (ValueError, ZeroDivisionError):
        raise CertificateParseError("malformed rational", 0, "beta/c") from None
    domain = _rect_from_tokens(head[7:], 0)
    rects = []
    offset = len(lines[0]) + 1
    for line in lines[1:]:
        if line.strip():
            rect = _rect_from_tokens(line.split(), offset)
            if rect.n != domain.n:
                raise CertificateParseError(
                    f"{rect.n}-D rect in a {domain.n}-D domain", offset, "rect")
            rects.append(rect)
        offset += len(line) + 1
    return Certificate(claim_id=claim_id, beta=beta, c=cc, domain=domain, rects=rects)


# ---------------------------------------------------------------------------
# Independent verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    ok: bool
    tiling_ok: bool
    positivity_ok: bool
    min_bound: float
    failures: list[str] = field(default_factory=list)


def _check_tiling(domain: DyadicRect, rects: list[DyadicRect]) -> list[str]:
    """Exact integer check: rects are inside the domain, interiors are
    pairwise disjoint, and areas sum to the domain area.

    Every endpoint num / 2**exp becomes num << (e - exp) on the grid of step
    2**-e, e the largest exponent present, so all comparisons and areas are
    exact integer operations.
    """
    e = max(d.exp for r in (domain, *rects) for d in r.lo + r.hi)

    def grid(r: DyadicRect) -> tuple[list[int], list[int]]:
        return ([d.num << (e - d.exp) for d in r.lo], [d.num << (e - d.exp) for d in r.hi])

    dlo, dhi = grid(domain)
    boxes = [grid(r) for r in rects]
    problems = []
    total = 0
    for i, (lo, hi) in enumerate(boxes):
        if not all(a <= x and y <= b for a, b, x, y in zip(dlo, dhi, lo, hi)):
            problems.append(f"rect {i} not inside domain")
        total += math.prod(y - x for x, y in zip(lo, hi))
    domain_area = math.prod(b - a for a, b in zip(dlo, dhi))
    if total != domain_area:
        scale = 1 << (e * domain.n)
        problems.append(f"area mismatch: sum {F(total, scale)} != domain {F(domain_area, scale)}")
    # sweep by first coordinate to keep the overlap test near-linear
    order = sorted(range(len(boxes)), key=lambda i: (boxes[i][0][0], boxes[i][0][-1]))
    active: list[int] = []
    for idx in order:
        lo, hi = boxes[idx]
        active = [j for j in active if boxes[j][1][0] > lo[0]]
        for j in active:
            olo, ohi = boxes[j]
            if all(a < ob and oa < b for a, b, oa, ob in zip(lo, hi, olo, ohi)):
                problems.append(f"rects {j} and {idx} overlap")
        active.append(idx)
    return problems


def verify_certificate(
    cert: Certificate,
    evaluate: BoundEvaluator,
) -> VerificationReport:
    """Re-check tiling exactly and positivity on every rect."""
    tiling_problems = _check_tiling(cert.domain, cert.rects)
    pos_problems = []
    min_bound = math.inf
    for i, r in enumerate(cert.rects):
        val = evaluate(r.float_box())
        if not val.valid or not val.lo > 0.0:
            pos_problems.append(f"rect {i} not provably positive: {val!r}")
        else:
            min_bound = min(min_bound, val.lo)
    ok = not tiling_problems and not pos_problems
    return VerificationReport(
        ok=ok,
        tiling_ok=not tiling_problems,
        positivity_ok=not pos_problems,
        min_bound=min_bound if pos_problems == [] and cert.rects else math.nan,
        failures=tiling_problems + pos_problems,
    )
