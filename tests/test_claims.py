"""The claim registry, the runner, negative controls, and the docs table."""

import csv
import os
import signal
import subprocess
import sys
import time
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
    shift = Interval(delta)

    def fails(run):
        _, failure, _ = partition(lambda box: run.evaluate(box) - shift, run.domain,
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


class _Forked(Exception):
    pass


@pytest.fixture
def fork_requests(monkeypatch):
    """Record the worker count of every ForkWorkers run_all builds, and make
    os.fork raise _Forked, so that no process is started."""
    asked = []
    workers = claims.ForkWorkers

    def recording(fn, n):
        asked.append(n)
        return workers(fn, n)

    def no_fork():
        raise _Forked

    monkeypatch.setattr(claims, "ForkWorkers", recording)
    monkeypatch.setattr(os, "fork", no_fork)
    return asked


@pytest.fixture
def proved(monkeypatch):
    """The (claim, run) units run_all proves, in the order it proves them;
    each proof is a stub report."""
    order = []

    def stub_unit(claim_id, run, depth, emit_dir):
        order.append((claim_id, run.run_tag))
        return claims.RunReport(run.run_tag, ok=True, margin=1.0, rect_count=1, evaluations=1)

    monkeypatch.setattr(claims, "_run_unit", stub_unit)
    return order


UNITS = sum(len(c.runs) for c in claims.registry())
REGISTRY_ORDER = [(c.claim_id, r.run_tag) for c in claims.registry() for r in c.runs]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_default_worker_count_is_cpus_available(monkeypatch, fork_requests):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    with pytest.raises(_Forked):
        claims.run_all()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    with pytest.raises(_Forked):
        claims.run_all()
    assert fork_requests == [3, UNITS]


def test_default_worker_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert claims.worker_count(None, UNITS) == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert claims.worker_count(None, UNITS) == 1


@pytest.mark.parametrize("threads", [None, 1, 0, -3])
def test_one_worker_builds_no_pool(monkeypatch, fork_requests, proved, threads):
    """One worker proves the registry in-process, in registry order."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    reports = claims.run_all(threads=threads)
    assert [r.claim_id for r in reports] == [c.claim_id for c in claims.registry()]
    assert proved == REGISTRY_ORDER
    assert fork_requests == [1]


def test_without_fork_the_registry_runs_in_process(monkeypatch, fork_requests, proved):
    """Where os.fork is missing, several workers fall back to proving the
    registry in-process, in registry order, as the envelope scan falls
    back to one process."""
    monkeypatch.delattr(os, "fork")
    claims.run_all(threads=2)
    assert proved == REGISTRY_ORDER
    assert fork_requests == [2]


class _InProcess:
    """A stand-in for ForkWorkers that claims its workers but runs every task
    here, in the order map is given them."""

    def __init__(self, fn, workers):
        self.fn, self.workers = fn, workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def map(self, tasks):
        return [self.fn(*task) for task in tasks]


def test_several_workers_take_the_long_units_first(monkeypatch, proved):
    """The long units are handed out first, and the reports still fold in
    registry order."""
    monkeypatch.setattr(claims, "ForkWorkers", _InProcess)
    reports = claims.run_all(threads=2)
    assert [claim_id for claim_id, _ in proved[:9]] == [
        "g_J_1", "g_J_1", "g_LJQ_2", "g_QJ_2", "g_J_2", "g_QJ_1", "g_QJ_1", "g_LJQ_1", "g_LJQ_1"]
    assert sorted(proved) == sorted(REGISTRY_ORDER)
    assert [(r.claim_id, [u.run_tag for u in r.runs]) for r in reports] == [
        (c.claim_id, [run.run_tag for run in c.runs]) for c in claims.registry()]


def test_worker_count_is_capped_at_the_units(fork_requests):
    """Every worker is forked up front, so one beyond the units would only
    cost a process."""
    with pytest.raises(_Forked):
        claims.run_all(threads=10**6)
    assert fork_requests == [UNITS]
    _no_child_left()


def test_unit_exception_reaches_the_caller(monkeypatch):
    """A unit that raises in any process raises in run_all, with its type
    and message."""
    def broken_partition(*args, **kwargs):
        raise RuntimeError("partition broke")

    monkeypatch.setattr(claims, "partition", broken_partition)  # inherited by fork
    with pytest.raises(RuntimeError, match="partition broke"):
        claims.run_all(threads=2)
    _no_child_left()


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
    _no_child_left()


class _Handoff:
    """Makes the caller's first task wait until a child has started one, so
    that a child and the caller both take tasks, however they are
    scheduled."""

    def __init__(self):
        self.caller = os.getpid()
        self.r, self.w = os.pipe()
        self.waited = False

    def in_child(self) -> bool:
        """In a child, say that it started a task and return True; in the
        caller, return False, the first time once a child has started."""
        if os.getpid() != self.caller:
            os.write(self.w, b"x")
            return True
        if not self.waited:
            os.read(self.r, 1)
            self.waited = True
        return False


@pytest.fixture
def handoff():
    h = _Handoff()
    yield h
    os.close(h.r)
    os.close(h.w)


def test_fork_workers_merge_in_task_order(handoff):
    """Results come back in task order, every one of them, also where the
    caller proves tasks after the child's."""
    def square(x):
        if handoff.in_child():
            time.sleep(0.01)
        return x * x

    with claims.ForkWorkers(square, 2) as workers:
        for n in (12, 0, 5):  # the children serve every map of the block
            assert workers.map([(x,) for x in range(n)]) == [x * x for x in range(n)]
    # more processes than CPUs race for 2,000 indices, more than one write holds
    with claims.ForkWorkers(lambda x: x * x, 6) as workers:
        assert workers.map([(x,) for x in range(2000)]) == [x * x for x in range(2000)]
    _no_child_left()


def test_fork_workers_raise_the_first_error_in_task_order():
    def task(x):
        raise KeyError(f"task {x}")

    with claims.ForkWorkers(task, 2) as workers:
        with pytest.raises(KeyError, match="task 0"):
            workers.map([(x,) for x in range(6)])
    _no_child_left()


def test_an_exception_a_child_cannot_pickle_becomes_a_runtime_error(handoff):
    class Local(Exception):  # pickle cannot find the class by name
        pass

    def task(x):
        if handoff.in_child():
            raise Local(f"task {x}")
        return x

    with claims.ForkWorkers(task, 2) as workers:
        with pytest.raises(RuntimeError, match=r"Local\('task \d+'\)"):
            workers.map([(x,) for x in range(6)])
    _no_child_left()


def test_a_killed_worker_raises_and_leaves_no_child(monkeypatch, handoff):
    """A child killed while it proves a unit makes run_all raise, not hang."""
    def dying_unit(claim_id, run, depth, emit_dir):
        if handoff.in_child():
            os.kill(os.getpid(), signal.SIGKILL)
        return claims.RunReport(run.run_tag, ok=True, margin=1.0, rect_count=1, evaluations=1)

    monkeypatch.setattr(claims, "_run_unit", dying_unit)
    with pytest.raises(RuntimeError, match="ended without sending its results"):
        claims.run_all(threads=2)
    _no_child_left()


def test_a_worker_killed_between_maps_raises(handoff):
    """A child that dies between two maps, as one could between two
    envelope scans, makes the next map raise."""
    def pid(x):
        handoff.in_child()
        return os.getpid()

    with pytest.raises(RuntimeError, match=r"worker process \d+ ended"):
        with claims.ForkWorkers(pid, 2) as workers:
            child = next(p for p in workers.map([(x,) for x in range(4)]) if p != os.getpid())
            os.kill(child, signal.SIGKILL)
            workers.map([(x,) for x in range(4)])
    _no_child_left()


def test_an_interrupt_in_the_caller_kills_every_child(handoff):
    def task(x):
        if handoff.in_child():
            time.sleep(30)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        with claims.ForkWorkers(task, 3) as workers:
            workers.map([(x,) for x in range(6)])
    _no_child_left()


_BUFFERED_STDOUT = """
import sys
from cubeiso import cli
print("written before verify-all")
cli.main(["verify-all", "--threads", "3", "--max-depth", "2"])
print("modules:", "multiprocessing" in sys.modules, "concurrent.futures" in sys.modules)
"""


def test_verify_all_children_neither_flush_stdout_nor_import_multiprocessing():
    """Text in the caller's stdout buffer at the fork appears once: the
    children end without flushing their copy of it."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
    out = subprocess.run([sys.executable, "-c", _BUFFERED_STDOUT], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.count("written before verify-all") == 1
    assert "modules: False False" in out


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
