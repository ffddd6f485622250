"""The forward-mode interval gradient behind the mean-value bounds.

Its derivative enclosures join the chain of trust, so they are tested
against mpmath: the derivative of each atom at random points of random
intervals, the generic operations on a composite expression, and the
gradients of the four mean-value formulas at random points of random
sub-boxes of their claim domains, at every registered beta.  At the same
points the mean-value bound must stay below the target.
"""

import math
from fractions import Fraction as F

import mpmath as mp
import pytest

import _reference as ref
from conftest import scale
from cubeiso import bounds
from cubeiso.bounds import Grad, eval_bound_fn
from cubeiso.claims import claim_by_id
from cubeiso.funcs import BETA0_DYADIC, BETA1, BetaParams, beta_consts
from cubeiso.interval import ONE, ZERO, Interval


def _rand_box(rng, lo, hi):
    """A sub-interval of [lo, hi] with a log-uniform relative width in [1e-4, 1]."""
    w = (hi - lo) * math.exp(rng.uniform(math.log(1e-4), 0.0))
    a = rng.uniform(lo, hi - w)
    return a, a + w


def _encloses(iv: Interval, value) -> bool:
    fuzz = 1e-12 * max(1.0, abs(float(value)))
    return iv.valid and iv.lo - fuzz <= value <= iv.hi + fuzz


# (atom, interval range, betas, value, derivative); every derivative is an
# mp.diff of the mpmath function, independent of the closed forms in src/.
ATOMS = {
    "J": (lambda t, bc: bounds._J(t), (0.5, 0.999), [F(1, 2)],
          lambda p, b: ref.J(p)),
    "JJprime": (lambda t, bc: bounds._JJprime(t), (0.5, 0.999), [F(1, 2)],
                lambda p, b: ref.J(p) * ref.Jp(p)),
    "Q": (bounds._Q, (0.25, 0.75), [F(1, 2), BETA0_DYADIC, BETA1],
          lambda p, b: ref.Q(p, b)),
    "Qprime": (bounds._Qprime, (0.25, 0.75), [F(1, 2), BETA0_DYADIC, BETA1],
               lambda p, b: ref.Qp(p, b)),
    "L": (bounds._L, (1 / 16, 0.25), [F(1, 2), BETA0_DYADIC],
          lambda p, b: ref.L(p, b)),
}


@pytest.mark.parametrize("name", sorted(ATOMS))
def test_atom_derivative_encloses_mpmath(name, rng):
    """J', (J J')', Q', Q'' and L' enclose mp.diff at points of the interval."""
    atom, (lo, hi), betas, f = ATOMS[name]
    for beta in betas:
        bc = beta_consts(BetaParams(beta))
        for _ in range(scale(200, 25)):
            a, b = _rand_box(rng, lo, hi)
            g = atom(Grad(Interval(a, b), ONE, ZERO), bc)
            assert g.dy == ZERO
            for _ in range(2):
                p = mp.mpf(rng.uniform(a, b))
                assert _encloses(g.v, f(p, beta)), (name, beta, a, b, p)
                d = mp.diff(lambda t: f(t, beta), p)
                assert _encloses(g.dx, d), (name, beta, a, b, p, d, g.dx)


def _expr(x, y, ipow, pow_, sqrt):
    """Every Grad operation once, written for Grads and for mpf alike."""
    u = ipow(x * y - x * x, 2) + pow_(y * 3.0 - x, 1.5)
    return sqrt(u) * (y - x) - ipow(x, 3) * 0.5 + ipow(y, -2)


def _grad_expr(x, y):
    return _expr(x, y, Grad.ipow, lambda u, p: u.pow(Interval(p)), Grad.sqrt)


def _mp_expr(x, y):
    return _expr(x, y, lambda u, n: u**n, lambda u, p: u**p, mp.sqrt)


def test_grad_operations_enclose_mpmath(rng):
    for _ in range(scale(400, 60)):
        bx, by = _rand_box(rng, 0.1, 0.4), _rand_box(rng, 0.5, 2.0)
        g = _grad_expr(Grad(Interval(*bx), ONE, ZERO), Grad(Interval(*by), ZERO, ONE))
        assert g.dx.valid and g.dy.valid
        for _ in range(2):
            px, py = mp.mpf(rng.uniform(*bx)), mp.mpf(rng.uniform(*by))
            assert _encloses(g.v, _mp_expr(px, py))
            assert _encloses(g.dx, mp.diff(_mp_expr, (px, py), (1, 0)))
            assert _encloses(g.dy, mp.diff(_mp_expr, (px, py), (0, 1)))


def test_grad_fallbacks():
    """No derivative enclosure for sqrt or a fractional power at 0, nor for
    J' at 1; integer powers keep theirs."""
    g = Grad(Interval(0.0, 0.25), ONE, ZERO)
    assert not g.sqrt().dx.valid and g.sqrt().v.valid
    assert not g.pow(Interval(1.5)).dx.valid
    # 2 * x, then times dx = 1: each product steps the upper end one float up
    assert g.pow(F(2)).dx == Interval(0.0, 0.5 + 2 * math.ulp(0.5))
    assert g.ipow(3).dx.valid
    assert not bounds._J(Grad(Interval(0.75, 1.0), ZERO, ONE)).dy.valid


def _ljq1_parts(x, y, beta):
    bx, by, bm = ref.L(x, beta), ref.J(y), ref.Q((x + y) / 2, beta)
    return ref.G1(x, y, bx, by, bm, beta), ref.G2(x, y, bx, by, bm, beta)


# claim id -> (formula, mpmath parts of the target)
FORMULAS = {
    "g_J_2": (bounds._g_J2, lambda x, y, beta: (ref.target_g_J2(x, y),)),
    "g_QJ_2": (bounds._g_QJ2, lambda x, y, beta: (ref.target_g_QJ2(x, y),)),
    "g_QJQ": (bounds._g_QJQ, lambda x, y, beta: (ref.target_g_QJQ(x, y, beta),)),
    "g_LJQ_1": (bounds._g_LJQ1, _ljq1_parts),
}

RUNS = [(cid, run) for cid in sorted(FORMULAS) for run in claim_by_id(cid).runs]


@pytest.mark.parametrize("claim_id,run", RUNS, ids=[f"{c}-{r.run_tag}" for c, r in RUNS])
def test_formula_gradient_encloses_mpmath(claim_id, run, rng):
    """On random sub-boxes of the domain: each part's gradient encloses the
    mp.diff partials of its target, and the bound stays below the target."""
    formula, parts = FORMULAS[claim_id]
    beta = run.fn.params.beta
    bc = beta_consts(run.fn.params)
    dom = [(a.value, b.value) for a, b in zip(run.domain.lo, run.domain.hi)]
    n_boxes = scale(300, 30)
    with_gradient = 0
    for _ in range(n_boxes):
        bx, by = (_rand_box(rng, lo, hi) for lo, hi in dom)
        out = formula(Grad(Interval(*bx), ONE, ZERO), Grad(Interval(*by), ZERO, ONE), bc)
        out = out if isinstance(out, tuple) else (out,)
        bound = eval_bound_fn(run.fn, (bx, by))
        with_gradient += all(g.dx.valid and g.dy.valid for g in out)
        for _ in range(2):
            px, py = mp.mpf(rng.uniform(*bx)), mp.mpf(rng.uniform(*by))
            values = parts(px, py, beta)
            if bound.valid:
                assert bound.lo <= max(values) + 1e-12, (claim_id, bx, by, px, py)
            for k, g in enumerate(out):
                assert _encloses(g.v, values[k]), (claim_id, k, bx, by)
                if not (g.dx.valid and g.dy.valid):
                    continue
                part = lambda a, b: parts(a, b, beta)[k]  # noqa: E731
                dx = mp.diff(part, (px, py), (1, 0))
                dy = mp.diff(part, (px, py), (0, 1))
                assert _encloses(g.dx, dx), (claim_id, k, bx, by, px, py, dx, g.dx)
                assert _encloses(g.dy, dy), (claim_id, k, bx, by, px, py, dy, g.dy)
    assert with_gradient >= 0.8 * n_boxes
