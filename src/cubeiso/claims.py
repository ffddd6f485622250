"""The authoritative registry of partitioned positivity claims, and a runner
that proves them by recursive dyadic partitioning.

Each claim names a bound function, a domain with dyadic corners, one or more
parameter sets, and the reference margin reported for it.  Acceptance only
requires strict positivity of every accepted box; whether the reference
margin was met is reported but not enforced (margins depend on the tightness
of the underlying enclosures).

The work splits into 19 independent (claim, run) units.  run_all proves
them on a fork_pool with one worker per CPU this process may run on, at most
one per unit; with one worker, or without the fork start method, it runs
them in-process.  The longest unit, g_J_1 at beta0, is the critical path:
more workers cannot take verify-all below it.  Reports are folded in
registry order, and certificate bytes depend only on the claim and its
parameters, never on the worker count or timing.
"""

from __future__ import annotations

import functools
import math
import os
import time
from contextlib import contextmanager
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
    its certificate into emit_dir, which the caller has created.  Module-level,
    so that a process pool can send it to a worker by name."""
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


@contextmanager
def fork_pool(workers: int):
    """A fork-context pool of workers processes for the with block, or None
    when workers < 1 or the fork start method is missing: the caller then
    runs the work in-process.  Leaving the block, also by an exception,
    shuts the pool down and cancels its pending work, so no worker outlives
    it.  Fork rather than spawn, so that the workers inherit the imported
    modules and what the caller computed before the block; forking is safe
    only while the calling process has no other threads.  The imports stay
    in here, so that importing this module does not pay for them.
    """
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    if workers < 1 or "fork" not in multiprocessing.get_all_start_methods():
        yield None
        return
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def run_all(
    max_depth: Optional[int] = None,
    emit_dir: Optional[str] = None,
    threads: Optional[int] = None,
) -> list[ClaimReport]:
    """Run the whole registry on worker_count(threads, units) processes;
    reports come back in registry order.

    The workers are a fork_pool, hence the cap at the unit count.  One
    worker is this process: it runs everything in-process with no pool, as
    does a platform without the fork start method.  A caller that runs
    threads of its own should pass threads=1.
    """
    claims = registry()
    _make_emit_dir(emit_dir)
    workers = worker_count(threads, sum(len(c.runs) for c in claims))
    gauss.profile_constants()  # computed once here, inherited by every worker
    with fork_pool(workers if workers > 1 else 0) as pool:
        if pool is None:
            return [run_claim(c, max_depth, emit_dir) for c in claims]
        futures = [[pool.submit(_run_unit, *args) for args in _unit_args(c, max_depth, emit_dir)]
                   for c in claims]
        return [_fold(c, [f.result() for f in fs]) for c, fs in zip(claims, futures)]


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
