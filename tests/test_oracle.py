"""Hamming-cube oracle: boundary counts, Hart, profiles, envelope, Poincare."""

import math
import os
import random
from fractions import Fraction as F

import numpy as np
import pytest

import _reference as ref
from conftest import scale
from cubeiso import oracle
from cubeiso.funcs import BETA0_DYADIC, BetaParams, b, beta_consts
from cubeiso.interval import Interval


def test_boundary_counts_examples():
    assert ref.boundary_counts(3, (1 << 8) - 1) == [0] * 8
    counts = ref.boundary_counts(3, 1)  # a singleton
    assert counts[0] == 3 and sum(counts) == 3
    # codimension-2 subcube of {0,1}^3: vertices with x2 = x3 = 0
    counts = ref.boundary_counts(3, 0b00000011)
    assert all(counts[v] == 2 for v in (0, 1))


def test_beta_moment_examples():
    sub = 0b1111  # codim-2 subcube of {0,1}^4 (fixes two coords)
    for beta in (0.5, 0.75, 1.0):
        assert abs(oracle.all_beta_moments(4, beta)[sub] - 2.0 ** -2 * 2.0 ** beta) < 1e-14
    singleton = 1
    assert abs(oracle.all_beta_moments(2, 0.5)[singleton] - 0.25 * math.sqrt(2)) < 1e-15
    mask = 0b10110001
    assert oracle.all_beta_moments(3, 1.0)[mask] * 8 == sum(ref.boundary_counts(3, mask))


def test_tables_match_the_definitional_loop():
    """Each row of the h table is boundary_counts of its mask, and each set
    size is the mask's bit count: every mask at n <= 3, seeded ones at n = 4."""
    rng = random.Random(17)
    for n in range(1, 5):
        nmasks = 1 << (1 << n)
        masks = range(nmasks) if n <= 3 else [rng.randrange(nmasks) for _ in range(2000)]
        h, pops = oracle._cube_tables(n)
        assert h.shape == (nmasks, 1 << n) and pops.shape == (nmasks,)
        for mask in masks:
            assert h[mask].tolist() == ref.boundary_counts(n, mask)
            assert pops[mask] == mask.bit_count()


def test_hart_examples():
    assert oracle.hart_profile(1, 1) == F(1, 2)
    assert oracle.hart_profile(3, 2) == F(1, 2)
    for n in range(1, 5):
        assert oracle.hart_profile(1 << n, n) == 0
    with pytest.raises(ValueError):
        oracle.hart_profile(0, 3)


def test_profile_matches_hart_exactly():
    for n in range(1, 5):
        prof = oracle.profile_bruteforce(n, 1.0)
        assert prof[0].value == 0.0
        for k in range(1, (1 << n) + 1):
            assert F(prof[k].value) == oracle.hart_profile(k, n)


def test_profile_halfcube_at_beta0():
    prof = oracle.profile_bruteforce(3, float(BETA0_DYADIC))
    # measure 1/2: minimum is 1/2, attained by a half-cube (h = 1)
    assert abs(prof[4].value - 0.5) < 1e-14
    assert ref.boundary_counts(3, prof[4].argmin).count(1) == 4


def test_subcube_measures_are_extremal():
    """At measure 2^-k the minimum equals 2^-k k^beta for k <= n <= 4."""
    beta = float(BETA0_DYADIC)
    for n in range(1, 5):
        prof = oracle.profile_bruteforce(n, beta)
        for k in range(1, n + 1):
            size = 1 << (n - k)  # |A| = 2^-k
            expected = 2.0 ** -k * k ** beta
            assert abs(prof[size].value - expected) < 1e-12


def test_edge_boundary_symmetry():
    for n in (1, 2, 3):
        sums = oracle.all_beta_moments(n, 1.0)
        assert np.array_equal(sums, sums[::-1])
    rng = random.Random(7)
    for n in (4, 5):
        full = (1 << (1 << n)) - 1
        for _ in range(200):
            mask = rng.randrange(full + 1)
            assert sum(ref.boundary_counts(n, mask)) == sum(ref.boundary_counts(n, mask ^ full))


def test_holder_consequence_exhaustive_n3():
    """E h^b2 >= B^(b2/b1) |A|^(1 - b2/b1) with B = E h^b1, for b2 >= b1."""
    b1, b2 = 0.6, 0.9
    m1 = oracle.all_beta_moments(3, b1)
    m2 = oracle.all_beta_moments(3, b2)
    _, pops = oracle._cube_tables(3)
    for mask in range(1, 255):
        meas = pops[mask] / 8.0
        lhs = m2[mask]
        rhs = m1[mask] ** (b2 / b1) * meas ** (1 - b2 / b1)
        assert lhs >= rhs - 1e-12


def test_profile_dominates_certified_bound():
    """Brute-force profiles sit above the certified piecewise bound."""
    bc0 = beta_consts(BetaParams(BETA0_DYADIC))
    bch = beta_consts(BetaParams(F(1, 2)))
    for n in range(1, 5):
        prof0 = oracle.profile_bruteforce(n, float(BETA0_DYADIC))
        profh = oracle.profile_bruteforce(n, 0.5)
        for k in range(0, (1 << n) + 1):
            x = Interval(k / (1 << n))
            assert prof0[k].value >= b(x, bc0).lo - 1e-13
            assert profh[k].value >= 0.997 * b(x, bch).lo - 1e-13


def test_envelope_beta1_matches_hart():
    env = oracle.envelope_approx(1.0, 6)
    for k in range(0, 65):
        true = 0.0 if k == 0 else float(oracle.hart_profile(k, 6))
        assert abs(env.values[k] - true) <= 1e-3


def test_envelope_pins_its_ends_and_stays_nonnegative():
    env = oracle.envelope_approx(0.75, 5, refine=0)
    assert env.values[0] == 0.0 and env.values[-1] == 0.0
    assert np.all(env.values >= 0.0)


def test_envelope_dominates_certified_bound():
    bc0 = beta_consts(BetaParams(BETA0_DYADIC))
    env = oracle.envelope_approx(float(BETA0_DYADIC), 6, refine=0)
    for k in range(65):
        x = Interval(k / 64)
        assert env.values[k] >= b(x, bc0).lo - 1e-6
    bch = beta_consts(BetaParams(F(1, 2)))
    envh = oracle.envelope_approx(0.5, 6, refine=0)
    for k in range(65):
        x = Interval(k / 64)
        assert envh.values[k] >= 0.997 * b(x, bch).lo - 1e-6


@pytest.mark.parametrize("chunks", [1, 2, 3, 4])
@pytest.mark.parametrize("beta", [0.5, float(BETA0_DYADIC), 0.75, 1.0],
                         ids=["half", "beta0", "three_quarters", "one"])
@pytest.mark.parametrize("size", [3, 5, 65, 257])
def test_envelope_scan_matches_the_per_point_reference(beta, size, chunks):
    """The scan by offset returns the caps, least binding offsets and forms
    of one argmin per grid point bit for bit, on random B, on B with zeros
    and on dyadic B with repeated values, which ties offsets, whatever the
    number of offset chunks; sizes 3 and 5 have fewer offsets than chunks.
    On multiples of 2h, the step of dx between neighbouring offsets, the
    caps at beta = 1 tie offsets that differ by 1, so the ties fall in
    different chunks for every chunk count.  At beta = 1 the two forms
    coincide, so every form is a tie, won by the first."""
    rng = np.random.default_rng(size)
    dx_all = 2.0 / (size - 1) * np.arange(1, size, dtype=np.float64)
    dxp_all = dx_all ** (1.0 / beta)
    for b_vals in (rng.random(size), rng.random(size) * (rng.random(size) < 0.5),
                   rng.integers(0, 4, size) / 8.0, rng.integers(0, 4, size) * dx_all[0]):
        b_vals[0] = b_vals[-1] = 0.0
        got = oracle._envelope_scan(b_vals, beta, dx_all, dxp_all, chunks)
        want = ref.envelope_scan_per_point(b_vals, beta, dx_all, dxp_all)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    if beta == 1.0:
        assert got[2][1:-1].all()


# depth 5 refined onto the least grid whose scans are split
SPLIT_REFINE = (oracle._SPLIT_MIN_SIZE - 1).bit_length() - 1 - 5


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def scan_chunks(monkeypatch):
    """The chunk count and the pool's worker count of every policy scan."""
    scan, chunks = oracle._envelope_scan, []

    def recording_scan(b_vals, beta, dx_all, dxp_all, n, pool):
        chunks.append((n, pool.workers))
        return scan(b_vals, beta, dx_all, dxp_all, n, pool)

    monkeypatch.setattr(oracle, "_envelope_scan", recording_scan)
    return chunks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pooled_envelope_equals_the_serial_one(monkeypatch, scan_chunks):
    """At the split threshold, a solve whose scans are split across 3
    processes returns the serial solve's bits, and leaves no process
    behind.  beta = 1 converges in 2 scans."""
    _cpus(monkeypatch, 1)
    serial = oracle.envelope_approx(1.0, 5, refine=SPLIT_REFINE)
    assert scan_chunks and all(c == (1, 1) for c in scan_chunks)
    scan_chunks.clear()
    _cpus(monkeypatch, 3)
    pooled = oracle.envelope_approx(1.0, 5, refine=SPLIT_REFINE)
    assert scan_chunks and all(c == (3, 3) for c in scan_chunks)
    _no_child_left()
    assert pooled.values.tobytes() == serial.values.tobytes()
    assert (pooled.iterations, pooled.residual) == (serial.iterations, serial.residual)


def test_without_fork_the_scans_stay_serial(monkeypatch, scan_chunks):
    monkeypatch.delattr(os, "fork")
    _cpus(monkeypatch, 3)
    oracle.envelope_approx(1.0, 5, refine=SPLIT_REFINE)
    assert scan_chunks and all(c == (1, 1) for c in scan_chunks)


def test_failed_pooled_solve_leaves_no_process(monkeypatch):
    scan, workers = oracle._envelope_scan, []

    def scan_then_fail(b_vals, beta, dx_all, dxp_all, chunks, pool):
        workers.append(pool.workers)
        scan(b_vals, beta, dx_all, dxp_all, chunks, pool)
        raise RuntimeError("solve broke")

    monkeypatch.setattr(oracle, "_envelope_scan", scan_then_fail)
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="solve broke"):
        oracle.envelope_approx(0.5, 5, refine=SPLIT_REFINE)
    assert workers == [2]
    _no_child_left()


def test_envelope_depth_cap():
    with pytest.raises(ValueError):
        oracle.envelope_approx(0.5, 11)
    for depth, refine in ((0, 14), (6, 8), (10, 4), (8, 10**9)):
        with pytest.raises(ValueError, match="exceeds 13"):
            oracle.envelope_approx(0.5, depth, refine=refine)


def test_poincare_halfcube_equality():
    half = (1 << 8) - 1
    p = 2 * float(BETA0_DYADIC)
    lhs, rhs = oracle.poincare_exhaustive(4, p)[half] ** (1 / p)
    assert abs(lhs - rhs) < 1e-12


def test_poincare_exhaustive_n3():
    p = 2 * float(BETA0_DYADIC)
    arr = oracle.poincare_exhaustive(3, p)
    _, pops = oracle._cube_tables(3)
    sel = (pops > 0) & (pops < 8)
    assert np.all(arr[sel, 0] >= arr[sel, 1] - 1e-14)


def test_bobkov_constant_function_equality():
    f = [0.3] * 8
    lhs, rhs = ref.bobkov_check(f, 3)
    assert abs(lhs - rhs) < 1e-15


def test_bobkov_random_functions(rng):
    n = 3
    trials = scale(10_000, 1_500)
    for _ in range(trials):
        f = [rng.uniform(0.0, 0.5) for _ in range(1 << n)]
        lhs, rhs = ref.bobkov_check(f, n)
        assert lhs <= rhs + 1e-12


def test_bobkov_indicator_instance(rng):
    """f = (1/2) 1_A gives E sqrt(h_A) >= |A| sqrt(log2(1/|A|)+1) - |A|."""
    for _ in range(300):
        n = rng.choice([2, 3, 4])
        mask = rng.randrange(1, 1 << (1 << n))
        lhs = oracle.all_beta_moments(n, 0.5)[mask]
        rhs = ref.sqrt_moment_lower_bound(mask.bit_count() / (1 << n))
        assert lhs >= rhs - 1e-12


def test_mf_values_match_indicator():
    mask = 0b01010011
    f = [1.0 if (mask >> v) & 1 else 0.0 for v in range(8)]
    mf = ref.mf_values(f, 3)
    h = ref.boundary_counts(3, mask)
    for v in range(8):
        assert abs(mf[v] - math.sqrt(h[v])) < 1e-15


def test_profile_rejects_n_beyond_the_exhaustive_cap():
    with pytest.raises(ValueError):
        oracle.profile_bruteforce(5, 1.0)
