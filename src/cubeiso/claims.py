"""The authoritative registry of partitioned positivity claims, and a runner
that proves them by recursive dyadic partitioning.

Each claim names a bound function, a domain with dyadic corners, one or more
parameter sets, and the reference margin reported for it.  Acceptance only
requires strict positivity of every accepted box; whether the reference
margin was met is reported but not enforced (margins depend on the tightness
of the underlying enclosures).

The work splits into 19 independent (claim, run) units.  run_all proves
them with one worker process per CPU this process may run on, at most one
per unit: this process is worker 0 and the others are children forked by
ForkWorkers, which uses os.fork, pipes and pickle, no multiprocessing.
Each process takes the next unit not yet taken, the long ones first.  With
one worker, or without os.fork, run_all proves them in-process.  The
longest unit, g_J_1 at beta0, is the critical path: more workers cannot
take verify-all below it.  Reports are folded in registry order, and
certificate bytes depend only on the claim and its parameters, never on
the worker count or timing.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import gauss
from .bounds import BoundFn, eval_bound_fn, tail_side_conditions
from .funcs import BETA0_PARAMS, BETA1, C0, HALF_PARAMS, BetaParams
from .interval import Interval
from .partition import (
    MAX_DEPTH_DEFAULT,
    Certificate,
    DyadicRect,
    PartitionStats,
    emit,
    partition,
    verify_certificate,
)

F = Fraction


@dataclass(frozen=True)
class ClaimRun:
    run_tag: str
    fn: BoundFn
    domain: DyadicRect

    def evaluate(self, box: tuple[tuple[float, float], ...]) -> Interval:
        """The bound's certified interval over box; the prover and the
        checker both evaluate through here."""
        return eval_bound_fn(self.fn, box)


@dataclass(frozen=True)
class Claim:
    claim_id: str
    runs: tuple[ClaimRun, ...]
    reference_margin: Optional[Fraction]
    max_depth: int = MAX_DEPTH_DEFAULT


@dataclass
class RunReport:
    run_tag: str
    ok: bool
    margin: float
    rect_count: int
    evaluations: int
    failure_box: Optional[DyadicRect] = None
    failure_bound: Optional[Interval] = None  # the bound's interval on failure_box
    certificate_path: Optional[str] = None
    seconds: float = 0.0


@dataclass
class ClaimReport:
    claim_id: str
    ok: bool
    margin: float
    rect_count: int
    seconds: float
    reference_margin: Optional[Fraction]
    reference_margin_met: Optional[bool]
    runs: list[RunReport] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _claim(claim_id, fn_id, sides, param_sets, margin) -> Claim:
    domain = DyadicRect.build(*sides)
    return Claim(
        claim_id=claim_id,
        runs=tuple(ClaimRun(p.tag(), BoundFn(fn_id, p), domain) for p in param_sets),
        reference_margin=margin,
    )


_HALF_C0 = BetaParams(F(1, 2), C0)
_BETA1P = BetaParams(BETA1)


@functools.cache
def registry() -> tuple[Claim, ...]:
    """All thirteen partitioned claims, in canonical order, built once per
    process."""
    tail_params = BETA0_PARAMS
    tail = Claim(
        claim_id="g_tail",
        runs=(
            ClaimRun(
                "low",
                BoundFn("g_tail", tail_params, variant="low"),
                DyadicRect.build((F(27, 32), F(25, 8))),
            ),
            ClaimRun(
                "high",
                BoundFn("g_tail", tail_params, variant="high"),
                DyadicRect.build((F(25, 8), F(381))),
            ),
        ),
        reference_margin=None,
    )
    return (
        _claim("g_JL", "g_JL", [(F(1, 2), F(2047, 2048))], [BETA0_PARAMS], F(2, 25)),
        _claim("g_J_1", "g_J1", [(F(1, 2), F(5, 8)), (F(0), F(3, 16))],
               [BETA0_PARAMS, _HALF_C0], F(1, 10**7)),
        _claim("g_J_2", "g_J2", [(F(1, 2), F(9, 16)), (F(11, 16), F(1))],
               [HALF_PARAMS], F(1, 10**8)),
        _claim("g_Q_1", "g_Q1", [(F(0), F(1, 4)), (F(1, 4), F(1, 2))],
               [BETA0_PARAMS], F(1, 1000)),
        _claim("g_Q_2", "g_Q2", [(F(1, 4), F(1, 2)), (F(1, 4), F(1, 2))],
               [HALF_PARAMS, BETA0_PARAMS], F(1, 100)),
        _claim("g_LJQ_1", "g_LJQ1", [(F(1, 16), F(1, 4)), (F(1, 2), F(3, 4))],
               [BETA0_PARAMS, HALF_PARAMS], F(1, 10**7)),
        _claim("g_LJQ_2", "g_LJQ2", [(F(1, 2), F(3, 4)), (F(1, 2), F(1))],
               [HALF_PARAMS], F(1, 10**5)),
        _claim("g_QJQ", "g_QJQ", [(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))],
               [HALF_PARAMS, _BETA1P], F(1, 10**5)),
        _claim("g_QJ_1", "g_QJ1", [(F(1, 4), F(1, 2)), (F(1, 2), F(5, 8))],
               [BETA0_PARAMS, _HALF_C0], F(1, 10**5)),
        _claim("g_QJ_2", "g_QJ2", [(F(1, 4), F(1, 2)), (F(5, 8), F(1))],
               [HALF_PARAMS], F(1, 10**7)),
        _claim("g_P_2", "g_P2", [(F(1, 64), F(1, 4))], [BETA0_PARAMS], F(1, 10**4)),
        _claim("g_P_3", "g_P3", [(F(1, 4), F(1, 2))], [BETA0_PARAMS], F(1, 1000)),
        tail,
    )


def claim_by_id(claim_id: str) -> Claim:
    for c in registry():
        if c.claim_id == claim_id:
            return c
    raise KeyError(f"unknown claim {claim_id!r}")


def _run_unit(claim_id: str, run: ClaimRun, depth: int, emit_dir: Optional[str]) -> RunReport:
    """Prove one (claim, run) unit and, if it holds and emit_dir is set, write
    its certificate into emit_dir, which the caller has created."""
    t0 = time.perf_counter()
    stats = PartitionStats()
    rects, failure, margin = partition(run.evaluate, run.domain, depth, stats)
    rr = RunReport(
        run_tag=run.run_tag,
        ok=failure is None,
        margin=margin,
        rect_count=len(rects) if rects is not None else 0,
        evaluations=stats.evaluations,
        failure_box=failure.deepest_box if failure else None,
        failure_bound=failure.bound if failure else None,
    )
    if failure is None and emit_dir is not None:
        cert = Certificate(
            claim_id=claim_id,
            beta=run.fn.params.beta,
            c=run.fn.params.c,
            domain=run.domain,
            rects=rects,
        )
        path = os.path.join(emit_dir, f"{claim_id}.{run.run_tag}.cert")
        with open(path, "wb") as fh:
            fh.write(emit(cert, "text"))
        with open(path + ".json", "wb") as fh:
            fh.write(emit(cert, "json"))
        rr.certificate_path = path
    rr.seconds = time.perf_counter() - t0
    return rr


def _make_emit_dir(emit_dir: Optional[str]) -> None:
    """Create the certificate directory before any unit runs; an OSError
    (a regular file in the way, say) reaches the caller."""
    if emit_dir is not None:
        os.makedirs(emit_dir, exist_ok=True)


def _unit_args(claim: Claim, max_depth: Optional[int], emit_dir: Optional[str]) -> list[tuple]:
    """_run_unit's arguments for each of the claim's runs, in registry order."""
    depth = claim.max_depth if max_depth is None else max_depth
    return [(claim.claim_id, run, depth, emit_dir) for run in claim.runs]


def _fold(claim: Claim, runs: list[RunReport]) -> ClaimReport:
    """The claim's report from its runs' reports, in registry order.  Its
    seconds are its own compute time: the side conditions plus its units."""
    t0 = time.perf_counter()
    report = ClaimReport(
        claim_id=claim.claim_id,
        ok=True,
        margin=math.inf,
        rect_count=0,
        seconds=0.0,
        reference_margin=claim.reference_margin,
        reference_margin_met=None,
    )
    if claim.claim_id == "g_tail":
        for name, passed in tail_side_conditions(claim.runs[0].fn.params):
            if not passed:
                report.ok = False
                report.notes.append(f"side condition failed: {name}")
    report.seconds = time.perf_counter() - t0
    for rr in runs:
        report.runs.append(rr)
        report.ok = report.ok and rr.ok
        report.margin = min(report.margin, rr.margin)
        report.rect_count += rr.rect_count
        report.seconds += rr.seconds
    if claim.reference_margin is not None and report.ok:
        report.reference_margin_met = Fraction(report.margin) > claim.reference_margin
    return report


def run_claim(
    claim: Claim | str,
    max_depth: Optional[int] = None,
    emit_dir: Optional[str] = None,
) -> ClaimReport:
    """Prove one claim (all parameter sets) in-process; optionally emit
    certificates."""
    if isinstance(claim, str):
        claim = claim_by_id(claim)
    _make_emit_dir(emit_dir)
    return _fold(claim, [_run_unit(*args) for args in _unit_args(claim, max_depth, emit_dir)])


def worker_count(threads: Optional[int], units: int) -> int:
    """Worker processes for run_all, and offset chunks for the oracle's
    envelope scan: threads if given, else the CPUs this process may run on;
    never more than units and never fewer than 1."""
    if threads is None:
        try:
            threads = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity API on this platform
            threads = os.cpu_count() or 1
    return max(1, min(threads, units))


# A task index in ForkWorkers' shared pipe: task i is the record i + 1, and
# the end mark is 0, as is the empty read at the end of a pipe whose writers
# are all gone.  Every write there is a whole number of records of at
# most _ATOMIC_WRITE bytes, which POSIX makes atomic (PIPE_BUF >= 512), and
# every read asks for one record; so the pipe only ever holds whole records,
# and a read cannot split one.
_RECORD = 4
_ATOMIC_WRITE = 512


def _send(fd: int, data: bytes) -> None:
    """Write data, after its length, to the pipe fd."""
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, n: int) -> bytes:
    """n bytes from the pipe fd; EOFError if the pipe ends first."""
    buf = bytearray()
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            raise EOFError
        buf += chunk
    return bytes(buf)


def _recv(fd: int):
    """The object whose pickle _send wrote to the pipe fd; EOFError if the
    pipe ends first."""
    return pickle.loads(_read_exact(fd, int.from_bytes(_read_exact(fd, 8), "little")))


def _portable(exc: Exception) -> Exception:
    """exc if it survives pickling, else a RuntimeError carrying its repr."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(repr(exc))
    return exc


class ForkWorkers:
    """fn(*task) for each task of a list, on this process and workers - 1
    children forked on entering the with block, which live until it is left.

    map(tasks) returns the results in task order.  Every process, this one
    included as worker 0, reads the index of its next task from one shared
    pipe, so the load stays balanced however long each task runs; each child
    sends its results back pickled through its own pipe, which this process
    reads to the end before it reaps any child.  A task that raises makes
    map raise the first such exception in task order, with its type and
    message; an exception a child cannot pickle comes back as a RuntimeError
    carrying its repr.  A child that ends without sending its results, say
    because it was killed, makes map raise a RuntimeError.

    With workers < 2, or without os.fork, nothing is forked and map runs
    the tasks here in task order.  fn reaches the children by fork, never
    pickled; each map pickles its tasks to every child.  Fork rather than
    spawn, so that the children inherit the imported modules and what this
    process computed before the block; forking is safe only while this
    process has no other threads.  Children end with os._exit: they flush
    no inherited stdio buffer and run no atexit handler.  Leaving the block
    closes the children's request pipes, so that they exit, and reaps them;
    leaving it by an exception, KeyboardInterrupt included, kills them
    first.  No child outlives the block.
    """

    def __init__(self, fn, workers: int):
        self.fn = fn
        self.workers = workers if workers > 1 and hasattr(os, "fork") else 1
        self._children: list[tuple[int, int, int]] = []  # pid, request fd, result fd

    def __enter__(self) -> "ForkWorkers":
        if self.workers > 1:
            self._index_r, self._index_w = os.pipe()
            try:
                for _ in range(self.workers - 1):
                    self._fork()
            except BaseException:
                self._close(kill=True)
                raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.workers > 1:
            self._close(kill=exc_type is not None)

    def _fork(self) -> None:
        req_r, req_w = os.pipe()
        res_r, res_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (req_r, req_w, res_r, res_w):
                os.close(fd)
            raise
        if pid == 0:
            code = 1
            try:
                # The caller's ends.  Holding its own request end, a child
                # would never read the end of its requests; holding the
                # others, it could outlive a caller killed mid-map.
                for fd in (req_w, res_r, self._index_w):
                    os.close(fd)
                self._serve(req_r, res_w)
                code = 0
            finally:
                os._exit(code)
        os.close(req_r)
        os.close(res_w)
        self._children.append((pid, req_w, res_r))

    def _serve(self, req_fd: int, res_fd: int) -> None:
        """A child's life: for each map, its tasks in, its results out."""
        while True:
            try:
                tasks = _recv(req_fd)
            except EOFError:  # the block was left
                return
            done = [(i, ok, v if ok else _portable(v)) for i, ok, v in self._pull(tasks)]
            _send(res_fd, pickle.dumps(done, pickle.HIGHEST_PROTOCOL))

    def _pull(self, tasks: list[tuple]) -> list[tuple[int, bool, object]]:
        """(index, True, result) or (index, False, exception) for each task
        whose index this process reads, up to its end mark."""
        done = []
        while True:
            i = int.from_bytes(os.read(self._index_r, _RECORD), "little") - 1
            if i < 0:
                return done
            try:
                done.append((i, True, self.fn(*tasks[i])))
            except Exception as exc:
                done.append((i, False, exc))

    def map(self, tasks: list[tuple]) -> list:
        if self.workers == 1:
            return [self.fn(*task) for task in tasks]
        data = pickle.dumps(tasks, pickle.HIGHEST_PROTOCOL)
        for pid, req_w, _ in self._children:
            try:
                _send(req_w, data)
            except BrokenPipeError:
                raise RuntimeError(f"worker process {pid} ended before its tasks were sent") from None
        records = b"".join((i + 1).to_bytes(_RECORD, "little") for i in range(len(tasks)))
        records += bytes(_RECORD * self.workers)  # one end mark for each process
        for at in range(0, len(records), _ATOMIC_WRITE):
            os.write(self._index_w, records[at:at + _ATOMIC_WRITE])
        got = {i: (ok, v) for i, ok, v in self._pull(tasks)}
        for pid, _, res_r in self._children:
            try:
                got.update((i, (ok, v)) for i, ok, v in _recv(res_r))
            except EOFError:
                raise RuntimeError(f"worker process {pid} ended without sending its results") from None
        for i in range(len(tasks)):
            if not got[i][0]:
                raise got[i][1]
        return [got[i][1] for i in range(len(tasks))]

    def _close(self, kill: bool) -> None:
        for pid, req_w, res_r in self._children:
            if kill:
                os.kill(pid, signal.SIGKILL)
            os.close(req_w)  # a child left alive reads the end and exits
            os.close(res_r)
        for pid, _, _ in self._children:
            os.waitpid(pid, 0)
        self._children = []
        os.close(self._index_r)
        os.close(self._index_w)


# Several workers take these claims' units first, in this order: on a 2-CPU
# x86-64 VM each takes 27-260 ms, and every other unit at most 7 ms.  So the
# last units taken are short and the workers end together; in registry
# order a 61 ms g_QJ_2 unit was often the last to start, and one worker ended
# 20-55 ms after the other.
_LONG_UNITS_FIRST = ("g_J_1", "g_LJQ_2", "g_QJ_2", "g_J_2", "g_QJ_1", "g_LJQ_1")


def _unit_rank(claim_id: str) -> int:
    if claim_id in _LONG_UNITS_FIRST:
        return _LONG_UNITS_FIRST.index(claim_id)
    return len(_LONG_UNITS_FIRST)


def run_all(
    max_depth: Optional[int] = None,
    emit_dir: Optional[str] = None,
    threads: Optional[int] = None,
) -> list[ClaimReport]:
    """Run the whole registry on worker_count(threads, units) processes, this
    one included; reports come back in registry order.

    The units go to ForkWorkers, hence the cap at the unit count: each
    process proves the next unit not yet taken, the long ones first
    (_LONG_UNITS_FIRST).  One worker, or a platform without os.fork, proves
    them here in registry order.  A caller that runs threads of its own
    should pass threads=1.
    """
    claims = registry()
    _make_emit_dir(emit_dir)
    units = [args for c in claims for args in _unit_args(c, max_depth, emit_dir)]
    gauss.profile_constants()  # computed once here, inherited by every worker
    # A child gets a unit's index, not a pickled copy of the run: the run it
    # inherited holds funcs' own BetaParams, which beta_consts finds by identity.
    with ForkWorkers(lambda i: _run_unit(*units[i]), worker_count(threads, len(units))) as workers:
        order = list(range(len(units)))
        if workers.workers > 1:
            order.sort(key=lambda i: _unit_rank(units[i][0]))
        reports = dict(zip(order, workers.map([(i,) for i in order])))
    registry_order = iter(reports[i] for i in range(len(units)))
    return [_fold(c, [next(registry_order) for _ in c.runs]) for c in claims]


def _find_run(cert: Certificate) -> ClaimRun:
    claim = claim_by_id(cert.claim_id)
    for run in claim.runs:
        if (run.fn.params.beta == cert.beta and run.fn.params.c == cert.c
                and run.domain == cert.domain):
            return run
    raise KeyError(
        f"certificate for {cert.claim_id} matches no registered run "
        f"(beta={cert.beta}, c={cert.c})"
    )


def verify_certificate_bytes(data: bytes):
    """Independently re-verify a serialized certificate against the registry."""
    from .partition import load

    cert = load(data)
    return verify_certificate(cert, _find_run(cert).evaluate)


def summary_table(reports: list[ClaimReport]) -> str:
    rows = ["claim       ok    margin        rects   ref.margin  met   seconds"]
    for r in reports:
        margin = f"{r.margin:.3e}" if math.isfinite(r.margin) else "-"
        ref = f"{float(r.reference_margin):.0e}" if r.reference_margin is not None else "-"
        met = {True: "yes", False: "no", None: "-"}[r.reference_margin_met]
        rows.append(
            f"{r.claim_id:<10s}  {'ok' if r.ok else 'FAIL':<4s}"
            f"  {margin:<12s}  {r.rect_count:<6d}  {ref:<10s}  {met:<4s}  {r.seconds:.2f}"
        )
        rows.extend(f"  note: {note}" for note in r.notes)
    return "\n".join(rows)
