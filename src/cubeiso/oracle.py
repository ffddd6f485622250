"""Exhaustive Hamming-cube ground truth.

Everything here is independent of the interval machinery: plain integer and
floating-point arithmetic over explicitly enumerated subsets of {0,1}^n,
used to cross-validate the certified bounds at desk scale.

A subset A of {0,1}^n is a bitmask over the 2^n vertices.  h_A(x) counts the
edges from a member vertex x to the complement (0 off A), E f is the uniform
average 2^-n sum f(x), and the beta-moment is E h_A^beta with 0^beta := 0.

Exhaustive sweeps (all 2^(2^n) subsets, n <= 4) are vectorized with numpy
over one table of h and |A| per n.

envelope_approx solves the two-point cap system on a grid of size points,
at most 2^MAX_INTERNAL_DEPTH + 1, by Howard policy iteration.  Each policy
scan makes one contiguous numpy pass per offset r = 1 .. (size-1)/2,
size^2/4 cap evaluations in all, and where offsets tie it takes the least
binding r.  From _SPLIT_MIN_SIZE points on, the offsets are dealt into one
interleaved chunk per CPU this process may run on (claims.worker_count, the
rule of verify-all): chunk j of k takes r = 1+j, 1+j+k, ...  The calling
process and the children of one claims.ForkWorkers, which live for the
whole solve, take the chunks of each scan; forking anew for every scan was
measured 6-9% slower on plot-data --figure bounds.  The chunks' minima are
merged with ties going to the least r, so the caps, offsets and forms are
those of the serial scan bit for bit, whatever the number of chunks.
Without os.fork the scans stay serial.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

F = Fraction

MAX_N_EXHAUSTIVE = 4
# The largest beta or p the oracle commands take: up to it, for every
# n <= MAX_N_EXHAUSTIVE, the least term of the deviation power,
# (2^-n)^p (1 - 2^-n), is a normal float, and n^beta is finite.
MAX_EXPONENT = math.floor((1 - sys.float_info.min_exp + math.log2(1 - 2.0 ** -MAX_N_EXHAUSTIVE))
                          / MAX_N_EXHAUSTIVE)


# ---------------------------------------------------------------------------
# Hart's exact edge-isoperimetric profile
# ---------------------------------------------------------------------------

def hart_profile(k: int, n: int) -> Fraction:
    """Exact minimum of E h_A over |A| = k 2^-n:

    x (n - (2/k) sum_{j=1}^{k-1} s(j)),  s(j) the binary digit sum of j.
    """
    if not 0 < k <= (1 << n):
        raise ValueError(f"k={k} outside 1..2^{n}")
    s = sum(j.bit_count() for j in range(1, k))
    return F(k * n - 2 * s, 1 << n)


# ---------------------------------------------------------------------------
# Exhaustive profiles
# ---------------------------------------------------------------------------

@lru_cache(maxsize=MAX_N_EXHAUSTIVE)
def _cube_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """h_A(x) for every mask A (row) and vertex x (column), dtype uint8, and
    |A| 2^n for every mask, dtype int8."""
    if n > MAX_N_EXHAUSTIVE:
        raise ValueError(f"exhaustive enumeration capped at n={MAX_N_EXHAUSTIVE}")
    verts = np.arange(1 << n)
    masks = np.arange(1 << verts.size, dtype=np.uint32)
    # vertex-major, so that each neighbour gather below moves whole rows
    member = np.array([(masks >> v) & 1 == 1 for v in range(verts.size)])
    h = np.zeros(member.shape, dtype=np.uint8)
    for i in range(n):
        h += member & ~member[verts ^ (1 << i)]
    return np.ascontiguousarray(h.T), member.sum(axis=0, dtype=np.int8)


def all_beta_moments(n: int, beta: float) -> np.ndarray:
    """E h_A^beta for every mask, as float64; exact at beta = 1, where it
    sums at most 2^n small integers and divides by 2^n."""
    powtab = np.array([0.0] + [float(k) ** beta for k in range(1, n + 1)])
    h, _ = _cube_tables(n)
    # 4096 rows at a time, so that the float copy of h stays at 512 KB
    sums = [powtab[h[i:i + 4096]].sum(axis=1) for i in range(0, len(h), 4096)]
    return np.concatenate(sums) / (1 << n)


@dataclass(frozen=True)
class ProfilePoint:
    x: Fraction
    value: float
    argmin: int  # the first mask attaining value


def profile_bruteforce(n: int, beta: float) -> list[ProfilePoint]:
    """Minimum of E h_A^beta over all A with |A| = k 2^-n, for k = 0..2^n,
    with the first mask attaining it."""
    vals = all_beta_moments(n, beta)
    _, pops = _cube_tables(n)
    points = []
    for k in range((1 << n) + 1):
        sel = np.flatnonzero(pops == k)
        arg = int(sel[np.argmin(vals[sel])])
        points.append(ProfilePoint(x=F(k, 1 << n), value=float(vals[arg]), argmin=arg))
    return points


# ---------------------------------------------------------------------------
# Envelope approximation
# ---------------------------------------------------------------------------

@dataclass
class EnvelopeGrid:
    beta: float
    depth: int
    values: np.ndarray  # B at k 2^-depth, k = 0..2^depth
    iterations: int
    residual: float

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, (1 << self.depth) + 1)


MAX_INTERNAL_DEPTH = 13  # of the solver's grid: 8,193 points, a scan of 16.8M cap evaluations
_MAX_OUTER = 80  # policy scans at most; beta = 1/2 takes 28 at depth 13, 36 at 11
_TOL = 1e-10  # a solve stops once no interior B differs from its cap by this much
# The least grid size whose scans are split across processes.  On a 2-CPU
# x86-64 machine, starting a 1-worker pool and running the first scan took
# 20-45 ms; a scan then took 11 ms serial and 10-13 ms split at 2,049
# points, 30-40 ms and 20-25 ms at 4,097 (37 and 38 ms in the 2 of 6 probes
# whose second CPU was busy) and 105 ms and 60 ms at 8,193.  A solve makes
# 2 to 36 scans.
_SPLIT_MIN_SIZE = 4097


def _cap_forms(dxp, dx, bx, by, byp, beta: float, two_b_m1: float):
    """The two forms of the cap at x <= y, each twice the cap it gives:
    (dxp + byp)^b + bx and dx + (2^b - 1) by + bx, for dx = y - x,
    dxp = dx^(1/b), bx = B(x), by = B(y) and byp = B(y)^(1/b)."""
    return (dxp + byp) ** beta + bx, dx + two_b_m1 * by + bx


def _scan_offsets(b_vals: np.ndarray, beta: float, dx_all: np.ndarray, dxp_all: np.ndarray,
                  r_lo: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Twice the least cap at every grid index over the offsets r = r_lo,
    r_lo + step, ... up to (size-1)/2, inf where none reaches, and the
    least offset attaining it (0 where none reaches).

    One pass per offset r over the points m in [r, size-1-r] it reaches,
    where B[m+r] and B[m-r] are the slices b[2r:] and b[:size-2r].  B[m-r]
    is added after the max, which rounds alike, as round-to-nearest is
    monotone; a strict < in increasing r keeps the least binding r, as an
    argmin over r would.  B must be finite and >= 0, as the policy solve
    keeps it: with a NaN, the running minimum would not be argmin's.
    """
    size = b_vals.size
    bp = b_vals ** (1.0 / beta)
    tb = (2.0 ** beta - 1.0) * b_vals
    best = np.full(size, np.inf)
    r_best = np.zeros(size, dtype=np.int64)
    buf1, buf2, below = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    for r in range(r_lo, (size - 1) // 2 + 1, step):
        n = size - 2 * r
        c1, c2, less, cur = buf1[:n], buf2[:n], below[:n], best[r:size - r]
        np.add(bp[2 * r:], dxp_all[r - 1], out=c1)
        c1 **= beta
        np.add(tb[2 * r:], dx_all[r - 1], out=c2)
        np.maximum(c1, c2, out=c1)
        c1 += b_vals[:n]
        np.less(c1, cur, out=less)
        np.minimum(cur, c1, out=cur)
        np.copyto(r_best[r:size - r], r, where=less)
    return best, r_best


def _envelope_scan(b_vals: np.ndarray, beta: float, dx_all: np.ndarray, dxp_all: np.ndarray,
                   chunks: int, pool=None):
    """For every interior grid index m, the smallest admissible cap

        min over r of (1/2) max( ((2rh)^(1/b) + B[m+r]^(1/b))^b + B[m-r],
                                 2rh + (2^b - 1) B[m+r] + B[m-r] )

    together with the least binding offset r and whether the first form
    binds there (c1 >= c2, so a tie goes to the first form).

    The offsets r = 1 .. (size-1)/2, size^2/4 cap evaluations in all, are
    dealt into interleaved chunks: chunk j of chunks takes r = 1+j,
    1+j+chunks, ..., so that every chunk does about the same work.  With a
    pool, a claims.ForkWorkers, its processes share out the chunks;
    without one they run here in turn.  The policy solve passes one chunk
    per worker of its pool.  Chunk 0's minimum is merged with chunk 1's,
    then chunk 2's, and so on: a chunk's minimum replaces the running one
    where it is less, or equal with a lesser r, since a lower chunk need
    not hold the lower offsets.
    The result is bit-identical for every chunk count: each cap is computed
    by the same operations, a minimum is exact, and ties go to the least r.
    """
    size = b_vals.size
    scans = [(b_vals, beta, dx_all, dxp_all, 1 + j, chunks) for j in range(chunks)]
    results = pool.map(scans) if pool is not None else [_scan_offsets(*args) for args in scans]
    best, r_best = results[0]
    for chunk_best, chunk_r in results[1:]:
        less = (chunk_best < best) | ((chunk_best == best) & (chunk_r < r_best))
        np.copyto(best, chunk_best, where=less)
        np.copyto(r_best, chunk_r, where=less)
    caps = 0.5 * best
    caps[0] = caps[-1] = 0.0
    m = np.arange(1, size - 1)
    r = r_best[m]
    by = b_vals[m + r]
    f1, f2 = _cap_forms(dxp_all[r - 1], dx_all[r - 1], b_vals[m - r], by, by ** (1.0 / beta),
                        beta, 2.0 ** beta - 1.0)
    form1 = np.zeros(size, dtype=bool)
    form1[m] = f1 >= f2
    return caps, r_best, form1


def _envelope_policy_solve(beta: float, size: int) -> tuple[np.ndarray, int, float]:
    """Greatest fixed point of the cap system by Howard policy iteration.

    Every cap is concave and nondecreasing in the neighboring values, so
    starting from the all-ones upper bound, alternating policy scans with
    direct Newton solves of the induced sparse system converges to the
    greatest fixed point; plain relaxation would need O(size^2) sweeps.

    From _SPLIT_MIN_SIZE points on, one claims.ForkWorkers of one worker
    per chunk serves every scan of the solve, and its children are reaped
    when the solve returns or raises.  Each scan sends every child B, beta,
    dx_all, dxp_all and the chunks' offsets; the children run only
    _scan_offsets, so pools never nest.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import spsolve

    from .claims import ForkWorkers, worker_count

    h = 1.0 / (size - 1)
    inv_b = 1.0 / beta
    two_b_m1 = 2.0 ** beta - 1.0
    dx_all = 2.0 * h * np.arange(1, size, dtype=np.float64)
    dxp_all = dx_all ** inv_b

    b_vals = np.ones(size)
    b_vals[0] = b_vals[-1] = 0.0
    iterations = 0
    residual = math.inf
    interior = np.arange(1, size - 1)
    ends = np.array([0, size - 1])
    chunks = worker_count(None, (size - 1) // 2) if size >= _SPLIT_MIN_SIZE else 1
    with ForkWorkers(_scan_offsets, chunks) as pool:
        for _ in range(_MAX_OUTER):
            caps, r_best, form1 = _envelope_scan(b_vals, beta, dx_all, dxp_all, pool.workers, pool)
            iterations += 1
            residual = float(np.max(np.abs(b_vals[interior] - caps[interior])))
            if residual < _TOL:
                break
            b_vals = np.minimum(b_vals, caps)
            # Newton on the fixed-policy system  B[m] = cap_{r,form}(B)
            xs = interior - r_best[interior]
            ys = interior + r_best[interior]
            dxp = dxp_all[r_best[interior] - 1]
            dxl = dx_all[r_best[interior] - 1]
            for _newton in range(40):
                by = b_vals[ys]
                with np.errstate(divide="ignore", invalid="ignore"):
                    byp = by ** inv_b
                    c1, c2 = _cap_forms(dxp, dxl, b_vals[xs], by, byp, beta, two_b_m1)
                    cap_vals = np.where(form1[interior], 0.5 * c1, 0.5 * c2)
                    dcap_dy = np.where(
                        form1[interior],
                        0.5 * (dxp + byp) ** (beta - 1.0) * by ** (inv_b - 1.0),
                        0.5 * two_b_m1,
                    )
                dcap_dy = np.nan_to_num(dcap_dy, nan=0.0, posinf=0.0)
                res = b_vals[interior] - cap_vals
                if float(np.max(np.abs(res))) < 0.1 * _TOL:
                    break
                # the pinned endpoints' rows hold their diagonal 1 only; zeros stay
                # out of the sparsity pattern, which sets SuperLU's column ordering
                rows = np.concatenate([ends, interior, interior, interior])
                cols = np.concatenate([ends, interior, xs, ys])
                vals = np.concatenate([np.ones(size), np.full(interior.size, -0.5), -dcap_dy])
                keep = ((rows == cols) | ((cols > 0) & (cols < size - 1))) & (vals != 0.0)
                mat = csc_matrix((vals[keep], (rows[keep], cols[keep])), shape=(size, size))
                full_res = np.zeros(size)
                full_res[interior] = res
                delta = spsolve(mat, full_res)
                step = 1.0
                for _damp in range(30):
                    trial = b_vals - step * delta
                    trial[0] = trial[-1] = 0.0
                    tb = np.maximum(trial, 0.0)
                    by2 = tb[ys]
                    with np.errstate(divide="ignore", invalid="ignore"):
                        c1, c2 = _cap_forms(dxp, dxl, tb[xs], by2, by2 ** inv_b, beta, two_b_m1)
                        cap2 = np.where(form1[interior], 0.5 * c1, 0.5 * c2)
                    new_res = tb[interior] - cap2
                    if float(np.max(np.abs(new_res))) <= float(np.max(np.abs(res))):
                        b_vals = tb
                        break
                    step *= 0.5
                else:
                    break  # damping failed; rescan the policy
    return b_vals, iterations, residual


def envelope_approx(beta: float, depth: int, refine: Optional[int] = None) -> EnvelopeGrid:
    """Approximate envelope on the dyadic grid {k 2^-depth} as the greatest
    fixed point of the two-point cap system

        B(m) <= (1/2) max( ((y-x)^(1/b) + B(y)^(1/b))^b + B(x),
                           (y-x) + (2^b - 1) B(y) + B(x) ),

    over all grid pairs x <= y with grid midpoint m, with B(0) = B(1) = 0
    pinned and a large upper start.  The plain on-grid fixed point carries an
    O(h)-sized boundary-layer excess near 0 and 1 (the caps touching the
    pinned endpoints are first-order accurate only), so the system is solved
    on an internally refined grid and restricted; refine=None picks the
    refinement bringing the internal grid to depth MAX_INTERNAL_DEPTH = 13
    (at most 5 levels), and depth + refine may not exceed it.
    """
    if depth > 10:
        raise ValueError("envelope depth capped at 10")
    if refine is None:
        refine = max(0, min(MAX_INTERNAL_DEPTH - depth, 5))
    internal_depth = depth + refine
    if internal_depth > MAX_INTERNAL_DEPTH:
        raise ValueError(f"depth + refine = {internal_depth} exceeds {MAX_INTERNAL_DEPTH}")
    size = (1 << internal_depth) + 1
    values, iterations, residual = _envelope_policy_solve(beta, size)
    step = 1 << refine
    return EnvelopeGrid(beta=beta, depth=depth, values=values[::step].copy(),
                        iterations=iterations, residual=residual)


# ---------------------------------------------------------------------------
# Poincare comparison
# ---------------------------------------------------------------------------

def poincare_exhaustive(n: int, p: float) -> np.ndarray:
    """||grad f||_p^p and ||f - E f||_p^p for f = 1_A, for every mask A:

        ||grad f||_p^p = 2^-p (E h_A^{p/2} + E h_{A^c}^{p/2}),
        ||f - E f||_p^p = |A|^p (1-|A|) + |A| (1-|A|)^p.

    Returns shape (nmasks, 2): column 0 the gradient side, column 1 the
    deviation side, both raised to the p-th power (monotone comparison).
    """
    moments = all_beta_moments(n, p / 2)
    lhs_p = 2.0 ** (-p) * (moments + moments[::-1])
    _, pops = _cube_tables(n)
    meas = pops.astype(np.float64) / (1 << n)
    rhs_p = meas ** p * (1 - meas) + meas * (1 - meas) ** p
    return np.stack([lhs_p, rhs_p], axis=1)
