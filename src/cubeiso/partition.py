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

Certificate verification trusts nothing from the file beyond the claim
identity.  It re-evaluates the bound on every rectangle and checks exactly
that the rectangles are the leaves of a dyadic subdivision of the domain:
each is a cell of the domain's halving tree, no cell repeats or lies under
another, and every child of an ancestor of a cell is a cell or such an
ancestor.  A rectangle that is no cell, such as one outside the domain or
one across a halving, and a repeated or nested cell get a line each; all
empty cells share one line.  So [0, 1] cut at 1/4 is rejected, and the
problems are at most one more than the rectangles.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .interval import Interval

F = Fraction

MAX_DEPTH_DEFAULT = 12


# ---------------------------------------------------------------------------
# Dyadic rationals and rectangles
# ---------------------------------------------------------------------------

class Dyadic:
    """num / 2**exp in lowest terms with exp >= 0 and |num| < 2**53, and
    value, the double ldexp(num, -exp) that equals it exactly.

    Equal and hashed by (num, exp), and not to be changed once built.  A
    __slots__ class rather than a frozen dataclass, so that the parser,
    which builds up to four per rect, skips the dataclass's
    object.__setattr__ stores."""

    __slots__ = ("num", "exp", "value")

    def __init__(self, num: int, exp: int):
        if exp < 0:
            raise ValueError("negative exponent")
        if num == 0:
            exp = 0
        else:
            shift = min(exp, (num & -num).bit_length() - 1)  # trailing zeros of num
            num >>= shift
            exp -= shift
        if abs(num) >= 2**53 or exp > 1060:
            raise ValueError(f"dyadic {num}/2^{exp} not exactly representable")
        self.num = num
        self.exp = exp
        self.value = math.ldexp(num, -exp)

    def __eq__(self, other):
        if type(other) is not Dyadic:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self):
        return hash((self.num, self.exp))

    def __repr__(self) -> str:
        return f"Dyadic(num={self.num}, exp={self.exp})"

    @staticmethod
    def from_fraction(fr: Fraction | int) -> "Dyadic":
        fr = F(fr)
        den = fr.denominator
        exp = den.bit_length() - 1
        if den != 1 << exp:
            raise ValueError(f"{fr} is not dyadic")
        return Dyadic(fr.numerator, exp)

    def __str__(self) -> str:
        return f"{self.num}:{self.exp}"


def dyadic_mid(a: Dyadic, b: Dyadic) -> Dyadic:
    """(a + b)/2: the sum on the finer grid 2^-e, halved by one more bit."""
    e = max(a.exp, b.exp)
    return Dyadic((a.num << (e - a.exp)) + (b.num << (e - b.exp)), e + 1)


class DyadicRect:
    """Axis-aligned box with dyadic corners, n = 1 or 2 dimensions; equal
    and hashed by value, a __slots__ class like Dyadic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: tuple[Dyadic, ...], hi: tuple[Dyadic, ...]):
        if len(lo) != len(hi) or len(lo) not in (1, 2):
            raise ValueError("rectangles must be 1- or 2-dimensional")
        for a, b in zip(lo, hi):
            # every Dyadic is exactly a double, so the float order is exact
            if not a.value < b.value:
                raise ValueError(f"degenerate side [{a}, {b}]")
        self.lo = lo
        self.hi = hi

    def __eq__(self, other):
        if type(other) is not DyadicRect:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"DyadicRect(lo={self.lo!r}, hi={self.hi!r})"

    @staticmethod
    def build(*sides: tuple[Fraction | int, Fraction | int]) -> "DyadicRect":
        lo = tuple(Dyadic.from_fraction(s[0]) for s in sides)
        hi = tuple(Dyadic.from_fraction(s[1]) for s in sides)
        return DyadicRect(lo, hi)

    @property
    def n(self) -> int:
        return len(self.lo)

    def float_box(self) -> tuple[tuple[float, float], ...]:
        return tuple((a.value, b.value) for a, b in zip(self.lo, self.hi))

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
    bound: Interval  # the bound's interval on deepest_box, not provably positive


@dataclass
class Certificate:
    claim_id: str
    beta: Fraction
    c: Fraction
    domain: DyadicRect
    rects: list[DyadicRect]


BoundEvaluator = Callable[[tuple[tuple[float, float], ...]], Interval]


def accepted(val: Interval) -> bool:
    """Whether a box's bound proves it positive: the prover's and the checker's test."""
    return val.valid and val.lo > 0.0


def partition(
    evaluate: BoundEvaluator,
    domain: DyadicRect,
    max_depth: int = MAX_DEPTH_DEFAULT,
    stats: Optional[PartitionStats] = None,
) -> tuple[Optional[list[DyadicRect]], Optional[Failure], float]:
    """Depth-first recursive dyadic partitioning.

    Returns (rects, failure, margin): on success failure is None and margin
    is the smallest accepted lower bound; on failure rects is None and the
    failing deepest box is reported with its bound interval.
    """
    rects: list[DyadicRect] = []
    margin = math.inf

    def recurse(box: DyadicRect, depth: int) -> Optional[Failure]:
        nonlocal margin
        if stats is not None:
            stats.evaluations += 1
        val = evaluate(box.float_box())
        if accepted(val):
            rects.append(box)
            margin = min(margin, val.lo)
            return None
        if depth >= max_depth:
            return Failure(deepest_box=box, depth=depth, bound=val)
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


# The integer rule of each format: a text token -?[0-9]+, or a JSON integer (not a bool).
_IS_INTEGER = {"text": re.compile(r"-?[0-9]+").fullmatch, "json": lambda v: type(v) is int}


def _pair(pair, is_integer: Callable) -> tuple[int, int]:
    if type(pair) is not list or len(pair) != 2 or not all(map(is_integer, pair)):
        raise ValueError("expected a pair of integers")
    return int(pair[0]), int(pair[1])


def _rect(pairs, is_integer: Callable, dyadics: dict, sizes=(2, 4)) -> DyadicRect:
    """A rect from [numerator, exponent] pairs, the low corner first.  A pair
    that passes is_integer is looked up in dyadics, and its Dyadic is added
    there if it is new, so equal tokens share one Dyadic."""
    if type(pairs) is not list or len(pairs) not in sizes:
        raise ValueError(f"expected {' or '.join(map(str, sizes))} dyadics")
    ds = []
    for p in pairs:
        if type(p) is not list or len(p) != 2 or not (is_integer(p[0]) and is_integer(p[1])):
            raise ValueError("expected a pair of integers")
        key = (p[0], p[1])
        d = dyadics.get(key)
        if d is None:
            d = dyadics[key] = Dyadic(int(p[0]), int(p[1]))
        ds.append(d)
    k = len(ds) // 2
    return DyadicRect(tuple(ds[:k]), tuple(ds[k:]))


def _parsed(fieldname: str, offset: int, build: Callable):
    try:
        return build()
    except (ValueError, ZeroDivisionError) as exc:
        raise CertificateParseError(f"malformed {fieldname}: {exc}", offset, fieldname) from None


def _certificate(fmt: str, claim, beta, c, domain, rects: list, offset: Callable) -> Certificate:
    """A certificate from the fields of either format, read with that
    format's integer rule: beta and c as [numerator, denominator] pairs, the
    domain as in _rect, and the rects as a list of such pairs, each rect in
    the domain's dimension.  offset(i) is the byte offset of rect i, asked
    for only when rect i is malformed.  A grid point is a corner of up to
    four rects, and all of them share its one Dyadic."""
    is_integer = _IS_INTEGER[fmt]
    dyadics = {}
    if type(claim) is not str:
        raise CertificateParseError("malformed claim: not a string", 0, "claim")
    dom = _parsed("domain", 0, lambda: _rect(domain, is_integer, dyadics))
    cert = Certificate(
        claim_id=claim,
        beta=_parsed("beta", 0, lambda: F(*_pair(beta, is_integer))),
        c=_parsed("c", 0, lambda: F(*_pair(c, is_integer))),
        domain=dom,
        rects=[],
    )
    size = (2 * dom.n,)
    try:
        for r in rects:
            cert.rects.append(_rect(r, is_integer, dyadics, size))
    except ValueError as exc:
        i = len(cert.rects)
        raise CertificateParseError(f"malformed rect {i}: {exc}", offset(i), f"rect {i}") from None
    return cert


def load(data: bytes) -> Certificate:
    """Parse either the text or the JSON certificate format, both through
    _certificate.  A malformed file raises CertificateParseError, or
    UnicodeDecodeError for text that is not UTF-8.  A text line gives each
    dimension's low and high end in turn."""
    if data[:1] == b"{":
        try:
            payload = json.loads(data.decode("utf-8"))
            claim, beta, c, domain = (payload[k] for k in ("claim", "beta", "c", "domain"))
            if type(payload["rects"]) is not list:
                raise ValueError("rects is not a list")
        except (ValueError, KeyError, RecursionError) as exc:
            raise CertificateParseError(f"malformed JSON certificate: {exc}", 0, "json") from None
        return _certificate("json", claim, beta, c, domain, payload["rects"], lambda i: 0)
    lines = data.decode("utf-8").splitlines(keepends=True)
    head = lines[0].split() if lines else []
    if head[0:7:2] != ["claim", "beta", "c", "domain"]:
        raise CertificateParseError("malformed header", 0, "header")

    def corners(tokens):
        return [t.split(":") for t in tokens[0::2] + tokens[1::2]]

    def offset(i):
        # the byte offset where each line ends is where the next line starts
        ends = itertools.accumulate(len(line.encode("utf-8")) for line in lines)
        return [end for end, line in zip(ends, lines[1:]) if line.strip()][i]

    rects = [corners(tokens) for tokens in map(str.split, lines[1:]) if tokens]
    return _certificate("text", head[1], head[3].split("/"), head[5].split("/"),
                        corners(head[7:]), rects, offset)


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


def _cell(domain: DyadicRect, r: DyadicRect) -> Optional[tuple[int, tuple[int, ...]]]:
    """(k, index) if r is the depth-k cell of the domain's halving tree: each
    side is the domain's / 2**k, one k in every dimension d, and r's low end
    lies index[d] sides above the domain's, 0 <= index[d] < 2**k; else None.
    Exact, on the integers of the grid of r's and the domain's finest step."""
    e = max(d.exp for d in domain.lo + domain.hi + r.lo + r.hi)
    ratios, index = set(), []
    for ends in zip(domain.lo, domain.hi, r.lo, r.hi):
        lo, hi, a, b = (d.num << (e - d.exp) for d in ends)
        (ratio, rest), (j, off) = divmod(hi - lo, b - a), divmod(a - lo, b - a)
        if rest or off or not 0 <= j < ratio:
            return None
        ratios.add(ratio)
        index.append(j)
    k = max(ratios).bit_length() - 1
    return (k, tuple(index)) if ratios == {1 << k} else None


def _check_tiling(domain: DyadicRect, rects: list[DyadicRect]) -> list[str]:
    """Exact check that the rects, in any order, are the leaves of a dyadic
    subdivision of the domain: all are cells, none repeats or lies under
    another, each child of a cell's ancestor is a cell or an ancestor.  A line
    per non-cell, per repeated or nested cell, and one for all empty cells."""
    problems, cells, above = [], {}, {}
    for i, r in enumerate(rects):
        cell = _cell(domain, r)
        if cell is None:
            problems.append(f"rect {i} is not a cell of the domain's dyadic subdivision")
        elif cells.setdefault(cell, i) != i:
            problems.append(f"rects {cells[cell]} and {i} overlap")
    for (k, index), i in cells.items():
        while k:  # up to the first ancestor recorded, whose own are recorded too
            k, index = k - 1, tuple(j >> 1 for j in index)
            if (k, index) in above:
                break
            above[k, index] = i
    problems += [f"rects {i} and {above[c]} overlap" for c, i in cells.items() if c in above]
    nodes = [(0, (0,) * domain.n)]  # the root, then each child of an ancestor
    nodes += [(k + 1, child) for k, index in above
              for child in itertools.product(*((2 * j, 2 * j + 1) for j in index))]
    gaps = [node for node in nodes if node not in cells and node not in above]
    if gaps:
        k, index = min(gaps)
        ends = (F(lo.value) + (F(hi.value) - F(lo.value)) * t / 2**k
                for lo, hi, j in zip(domain.lo, domain.hi, index) for t in (j, j + 1))
        problems.append(f"gap: {len(gaps)} empty cells, the least at "
                        + " ".join(f"{x.numerator}:{x.denominator.bit_length() - 1}" for x in ends))
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
        if not accepted(val):
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
