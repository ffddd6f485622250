"""The claim registry, the runner, negative controls, and the docs table."""

import csv
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from cubeiso import claims
from cubeiso.funcs import BETA0_DYADIC, BetaParams
from cubeiso.bounds import BoundFn, eval_bound_fn
from cubeiso.interval import Interval
from cubeiso.partition import DyadicRect, partition

DOCS_TABLE = os.path.join(os.path.dirname(__file__), "..", "docs", "claims_table.csv")


def test_registry_shape():
    reg = claims.registry()
    assert type(reg) is tuple and claims.registry() is reg  # built once per process
    assert len(reg) == 13
    ids = [c.claim_id for c in reg]
    assert ids == [
        "g_JL", "g_J_1", "g_J_2", "g_Q_1", "g_Q_2", "g_LJQ_1", "g_LJQ_2",
        "g_QJQ", "g_QJ_1", "g_QJ_2", "g_P_2", "g_P_3", "g_tail",
    ]
    assert all(c.max_depth == 12 for c in reg)
    assert sum(len(c.runs) for c in reg) == 19  # the (claim, run) units
    # The checker matches a certificate's domain to its run's, and parsing
    # gives every rect the domain's dimension, so no rect can reach a bound
    # of another arity: each bound takes its own domain and rejects a box of
    # the other dimension.
    for run in (r for c in reg for r in c.runs):
        box = run.domain.float_box()
        assert isinstance(run.evaluate(box), Interval)
        with pytest.raises(TypeError):
            run.evaluate(box * 2 if len(box) == 1 else box[:1])


def test_g_LJQ_2_second_coordinate_is_beta():
    c = claims.claim_by_id("g_LJQ_2")
    dom = c.runs[0].domain
    assert F(dom.lo[1].value) == F(1, 2)
    assert F(dom.hi[1].value) == F(1)


def test_g_J_1_param_sets():
    c = claims.claim_by_id("g_J_1")
    params = {(r.fn.params.beta, r.fn.params.c) for r in c.runs}
    assert params == {(BETA0_DYADIC, F(1)), (F(1, 2), F(997, 1000))}


def test_registry_agrees_with_docs_table():
    with open(DOCS_TABLE, newline="") as fh:
        table = list(csv.DictReader(fh))
    derived = []
    for c in claims.registry():
        for run in c.runs:
            dom = ";".join(
                f"{F(a.value)}..{F(b.value)}"
                for a, b in zip(run.domain.lo, run.domain.hi)
            )
            derived.append({
                "claim_id": c.claim_id,
                "kind": f"partition{run.domain.n}",
                "fn_id": run.fn.fn_id,
                "run_tag": run.run_tag,
                "variant": run.fn.variant,
                "beta": str(run.fn.params.beta),
                "c": str(run.fn.params.c),
                "domain": dom,
                "reference_margin": str(c.reference_margin) if c.reference_margin is not None else "",
                "max_depth": str(c.max_depth),
            })
    assert table == derived


def test_unknown_claim_raises():
    with pytest.raises(KeyError):
        claims.claim_by_id("g_unknown")


def test_insufficient_depth_fails():
    rep = claims.run_claim("g_J_1", max_depth=2)
    assert not rep.ok
    assert any(r.failure_box is not None for r in rep.runs)


def test_negative_control_beta_half():
    """g_J1 with beta = 1/2, c = 1 must fail, at a box containing x = 1/2."""
    bf = BoundFn("g_J1", BetaParams(F(1, 2), F(1)))
    dom = DyadicRect.build((F(1, 2), F(5, 8)), (F(0), F(3, 16)))
    rects, fail, _ = partition(lambda box: eval_bound_fn(bf, box), dom, 12)
    assert rects is None and fail is not None
    xlo = F(fail.deepest_box.lo[0].value)
    xhi = F(fail.deepest_box.hi[0].value)
    assert xlo <= F(1, 2) <= xhi


# Deltas for the negative control (perturbing the bound downward must break
# the claim).  Claims whose verified quantity stays well above 0.05 over the
# whole domain need a correspondingly larger perturbation: g_JL has a minimum
# near 1.5, g_Q_2 near 0.11.
NEGATIVE_CONTROL_DELTAS = {"g_JL": 2.0, "g_Q_2": 0.2}
NEGATIVE_CONTROL_DEFAULT = 0.05


@pytest.mark.parametrize("claim_id", [c.claim_id for c in claims.registry()])
def test_negative_control_perturbation(claim_id):
    """Shifting the bound down must break every claim (no vacuous bounds)."""
    claim = claims.claim_by_id(claim_id)
    delta = NEGATIVE_CONTROL_DELTAS.get(claim_id, NEGATIVE_CONTROL_DEFAULT)

    def fails(run):
        _, failure, _ = partition(lambda box: run.evaluate(box) - delta, run.domain,
                                  claim.max_depth)
        return failure is not None

    assert any(map(fails, claim.runs)), f"{claim_id} still passes with bound - {delta}"


def test_tail_side_conditions_hold():
    from cubeiso.bounds import tail_side_conditions

    for name, passed in tail_side_conditions(claims.claim_by_id("g_tail").runs[0].fn.params):
        assert passed, name


_EQ_CALLS = """
from cubeiso import claims
from cubeiso.funcs import BetaParams
calls = []
eq = BetaParams.__eq__
BetaParams.__eq__ = lambda self, other: calls.append(other) or eq(self, other)
for claim in claims.registry():
    for run in claim.runs:
        run.evaluate(run.domain.float_box())
        run.evaluate(run.domain.float_box())
print(len(calls))
"""


def test_runs_find_their_beta_consts_by_identity():
    """Every run of a shared beta holds the params object that keys its
    beta_consts memo, so a fresh process, as each command is, evaluates one
    box of every registered run twice without a BetaParams.__eq__ call."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
    out = subprocess.run([sys.executable, "-c", _EQ_CALLS], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "0"


def test_run_report_fields():
    rep = claims.run_claim("g_Q_1")
    assert rep.ok
    assert rep.rect_count > 0
    assert rep.margin > 0
    assert rep.reference_margin_met is not None
    assert rep.seconds >= 0
    table = claims.summary_table([rep])
    assert "g_Q_1" in table


class _PoolBuilt(Exception):
    pass


@pytest.fixture
def pool_requests(monkeypatch):
    """Record the max_workers of every process pool run_all asks for, and
    stop it there, so that no process is started."""
    import concurrent.futures.process

    asked = []

    def fake_pool(max_workers=None, **kwargs):
        asked.append(max_workers)
        raise _PoolBuilt

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", fake_pool)
    return asked


UNITS = sum(len(c.runs) for c in claims.registry())


def test_default_worker_count_is_cpus_available(monkeypatch, pool_requests):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    with pytest.raises(_PoolBuilt):
        claims.run_all()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    with pytest.raises(_PoolBuilt):
        claims.run_all()
    assert pool_requests == [3, UNITS]


def test_default_worker_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert claims.worker_count(None, UNITS) == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert claims.worker_count(None, UNITS) == 1


@pytest.mark.parametrize("threads", [None, 1, 0, -3])
def test_one_worker_builds_no_pool(monkeypatch, pool_requests, threads):
    """One worker proves the registry in-process, in registry order."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(claims, "run_claim", lambda claim, max_depth, emit_dir: claim.claim_id)
    assert claims.run_all(threads=threads) == [c.claim_id for c in claims.registry()]
    assert pool_requests == []


def test_without_fork_the_registry_runs_in_process(monkeypatch, pool_requests):
    """Where the fork start method is missing, several workers fall back to
    proving the registry in-process, in registry order, as the envelope
    scan falls back to one process."""
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(claims, "run_claim", lambda claim, max_depth, emit_dir: claim.claim_id)
    assert claims.run_all(threads=2) == [c.claim_id for c in claims.registry()]
    assert pool_requests == []


def test_worker_count_is_capped_at_the_units(pool_requests):
    """A fork-context pool starts all its workers up front."""
    with pytest.raises(_PoolBuilt):
        claims.run_all(threads=10**6)
    assert pool_requests == [UNITS]


def test_unit_exception_reaches_the_caller(monkeypatch):
    """A unit that raises in a worker process raises in run_all."""
    def broken_partition(*args, **kwargs):
        raise RuntimeError("partition broke")

    monkeypatch.setattr(claims, "partition", broken_partition)  # inherited by fork
    with pytest.raises(RuntimeError, match="partition broke"):
        claims.run_all(threads=2)


def test_pool_reports_match_serial():
    """Both paths fold the same run reports in registry order."""
    def shape(reports):
        return [(r.claim_id, r.ok, r.margin, r.rect_count,
                 [(u.run_tag, u.ok, u.margin, u.evaluations, u.failure_box) for u in r.runs])
                for r in reports]

    pooled = claims.run_all(max_depth=3, threads=2)
    assert shape(pooled) == shape(claims.run_all(max_depth=3, threads=1))
    # A claim's seconds are its units' own compute time, not the wait for them.
    assert all(r.seconds >= sum(u.seconds for u in r.runs) > 0 for r in pooled)


def test_heine_borel_soundness(rng):
    """A verified certificate implies positivity of the target function at
    random rational points of the domain (high-precision point checks)."""
    import _reference as ref
    from conftest import scale

    cases = {
        "g_Q_1": lambda p: ref.target_g_Q1(p[0], p[1], BETA0_DYADIC),
        "g_P_2": lambda p: ref.target_g_P2(p[0]),
    }
    samples = scale(100_000, 400)
    for claim_id, target in cases.items():
        claim = claims.claim_by_id(claim_id)
        run = claim.runs[0]
        rects, fail, _ = partition(
            lambda box: eval_bound_fn(run.fn, box), run.domain, claim.max_depth,
        )
        assert fail is None
        box = run.domain.float_box()
        for _ in range(samples):
            point = tuple(rng.uniform(lo, hi) for lo, hi in box)
            if claim_id == "g_Q_1" and point[0] == 0.0:
                continue
            assert float(target(point)) > 0.0, (claim_id, point)
