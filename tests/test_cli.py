"""CLI behavior: exit codes, certificate round trips, CSV outputs."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeiso import claims
from cubeiso.cli import main
from cubeiso.partition import Certificate, Dyadic, DyadicRect, emit_json, emit_text


def test_verify_single_claim(tmp_path, capsys):
    out_dir = tmp_path / "certs"
    code = main(["verify", "--claim", "g_Q_2", "--emit", str(out_dir)])
    assert code == 0
    text = capsys.readouterr().out
    assert "g_Q_2" in text and "ok" in text
    files = sorted(os.listdir(out_dir))
    assert any(f.endswith(".cert") for f in files)
    assert any(f.endswith(".json") for f in files)


def test_cli_starts_without_numpy():
    """Only the oracle subcommands need numpy; they import it themselves."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "import sys, cubeiso.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_verify_unknown_claim_is_usage_error(capsys):
    assert main(["verify", "--claim", "nope"]) == 2
    assert capsys.readouterr().err == "error: unknown claim 'nope'\n"


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--frobnicate"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["make-coffee"])
    assert exc.value.code == 2


def test_check_cert_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "certs"
    assert main(["certify", "--claim", "g_P_2", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    certs = [f for f in os.listdir(out_dir) if f.endswith(".cert")]
    assert certs
    path = os.path.join(out_dir, certs[0])
    assert main(["check-cert", path]) == 0
    assert "ok" in capsys.readouterr().out
    # also the JSON flavor
    assert main(["check-cert", path + ".json"]) == 0

    # tamper: drop a rectangle line
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    bad = tmp_path / "bad.cert"
    bad.write_bytes(b"\n".join(lines[:-1]) + b"\n")
    capsys.readouterr()
    assert main(["check-cert", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def _one_rect_certificate(fmt):
    """A g_Q_2 certificate whose single rect is the whole domain."""
    run = claims.claim_by_id("g_Q_2").runs[0]
    cert = Certificate("g_Q_2", run.fn.params.beta, run.fn.params.c, run.domain,
                       [run.domain])
    return emit_text(cert) if fmt == "text" else emit_json(cert)


def _rects_not_list():
    payload = json.loads(_one_rect_certificate("json"))
    return json.dumps({**payload, "rects": 5}).encode()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _one_rect_certificate("text") + b"1:2 3:3\n", id="1d_rect_in_2d"),
    pytest.param(lambda: _one_rect_certificate("text").replace(b"beta 1/2", b"beta 1/0"),
                 id="zero_denominator"),
    pytest.param(_rects_not_list, id="rects_not_a_list"),
])
def test_check_cert_malformed_exits_1_without_traceback(tmp_path, capsys, make):
    bad = tmp_path / "bad.cert"
    bad.write_bytes(make())
    assert main(["check-cert", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("claim_id, beta, message", [
    ("g_Q_2", F(1, 3), "certificate for g_Q_2 matches no registered run (beta=1/3, c=1)"),
    ("nosuch", F(1, 2), "unknown claim 'nosuch'"),
], ids=["no_run", "no_claim"])
def test_check_cert_unregistered_prints_the_message(tmp_path, capsys, claim_id, beta, message):
    run = claims.claim_by_id("g_Q_2").runs[0]
    cert = tmp_path / "unregistered.cert"
    cert.write_bytes(emit_text(Certificate(claim_id, beta, run.fn.params.c, run.domain,
                                           [run.domain])))
    assert main(["check-cert", str(cert)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_check_cert_bad_path_exits_1_without_traceback(tmp_path, capsys, kind):
    path = tmp_path / "missing.cert" if kind == "missing" else tmp_path
    assert main(["check-cert", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_all_unwritable_summary_exits_1_without_traceback(tmp_path, capsys, monkeypatch):
    """The run itself passes (one quick claim stands in for the registry);
    only the summary cannot be written."""
    monkeypatch.setattr(claims, "run_all", lambda **kw: [claims.run_claim("g_Q_1")])
    summary = tmp_path / "missing" / "summary.json"
    assert main(["verify-all", "--summary-json", str(summary)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("argv", [
    ["verify", "--claim", "g_Q_1", "--emit"],
    ["certify", "--claim", "g_Q_1", "--out-dir"],
    ["verify-all", "--threads", "1", "--emit"],
    ["verify-all", "--threads", "2", "--emit"],
], ids=["verify", "certify", "verify-all-1", "verify-all-2"])
def test_uncreatable_emit_dir_exits_1_before_any_unit(tmp_path, capsys, monkeypatch,
                                                     argv, under_file):
    """A regular file at, or above, the certificate directory ends the run
    with an error line before any unit runs or any worker forks."""
    def no_unit_may_run(*args, **kwargs):
        raise AssertionError("a unit ran")

    monkeypatch.setattr(claims, "partition", no_unit_may_run)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    path = blocker / "certs" if under_file else blocker
    assert main(argv + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("kind", ["missing-directory", "directory"])
@pytest.mark.parametrize("argv", [
    ["oracle-profile", "--n", "2", "--beta", "1"],
    ["envelope", "--beta", "1", "--depth", "2"],
    ["plot-data", "--figure", "failure"],
], ids=" ".join)
def test_unwritable_out_exits_1_with_one_error_line(tmp_path, capsys, argv, kind):
    """An --out file that cannot be written ends the command with one
    error line, as main catches OSError for every command."""
    out = tmp_path / "missing" / "x.csv" if kind == "missing-directory" else tmp_path
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.fixture(scope="module")
def g_q2_bytes(tmp_path_factory):
    """A g_Q_2 certificate as `certify` emits it, as text and as JSON."""
    out_dir = tmp_path_factory.mktemp("g_q2")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["certify", "--claim", "g_Q_2", "--out-dir", str(out_dir)]) == 0
    path = min(out_dir.glob("*.cert"))
    return {"text": path.read_bytes(), "json": path.with_name(path.name + ".json").read_bytes()}


_TOKEN = re.compile(rb"[^\s\[\],:{}]+")
_EXPONENT = {"text": re.compile(rb"(?<=:)-?[0-9]+"), "json": re.compile(rb"(?<=,)-?[0-9]+(?=\])")}


def _fuzzed(data, fmt: str, cert: bytes) -> bytes:
    """cert after one to three byte flips, truncations, token swaps or
    huge/negative exponents."""
    kinds = ["flip", "truncate", "swap", "exponent"]
    for kind in data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind == "flip" and cert:
            i = data.draw(st.integers(0, len(cert) - 1))
            new = data.draw(st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789")))
            cert = cert[:i] + bytes([new]) + cert[i + 1:]
        elif kind == "truncate":  # anywhere, or after a whole line
            ends = [m.end() for m in re.finditer(rb"\n", cert)] or [0]
            cert = cert[:data.draw(st.one_of(st.integers(0, len(cert)), st.sampled_from(ends)))]
        elif kind == "swap":
            spans = [m.span() for m in _TOKEN.finditer(cert)]
            if len(spans) >= 2:
                (a0, a1), (b0, b1) = sorted(data.draw(
                    st.lists(st.sampled_from(spans), min_size=2, max_size=2, unique=True)))
                cert = cert[:a0] + cert[b0:b1] + cert[a1:b0] + cert[a0:a1] + cert[b1:]
        elif kind == "exponent":
            spans = [m.span() for m in _EXPONENT[fmt].finditer(cert)]
            if spans:
                lo, hi = data.draw(st.sampled_from(spans))
                exp = data.draw(st.one_of(st.integers(-10**20, -1), st.integers(1061, 10**30),
                                          st.just(10**18)))
                cert = cert[:lo] + str(exp).encode() + cert[hi:]
    return cert


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["text", "json"]), st.data())
def test_check_cert_fuzzed_bytes_exit_0_or_1(g_q2_bytes, tmp_path_factory, fmt, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed.cert"
    path.write_bytes(_fuzzed(data, fmt, g_q2_bytes[fmt]))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["check-cert", str(path)])
    assert code in (0, 1)


def test_check_cert_zero_with_huge_exponent_finishes(tmp_path, g_q2_bytes):
    head, first, rest = g_q2_bytes["text"].split(b"\n", 2)
    bad = tmp_path / "zero.cert"
    bad.write_bytes(head + b"\n0:1000000000000000000 " + first.split(b" ", 1)[1] + b"\n" + rest)
    assert main(["check-cert", str(bad)]) == 1


def test_verify_failure_exit_code(tmp_path, capsys):
    code = main(["verify", "--claim", "g_J_1", "--max-depth", "1"])
    assert code == 1
    assert "deepest unprovable box" in capsys.readouterr().out


def test_verify_failure_prints_the_bound_of_the_deepest_box(capsys):
    """At --max-depth 3 g_J_1 fails; each run names its deepest unprovable
    box and the bound's interval there, which is not provably positive."""
    assert main(["verify", "--claim", "g_J_1", "--max-depth", "3"]) == 1
    lines = [line.split(": ", 1)[1] for line in capsys.readouterr().out.splitlines()
             if "deepest unprovable box" in line]
    runs = claims.claim_by_id("g_J_1").runs
    assert len(lines) == len(runs)
    for line, run in zip(lines, runs):
        tokens, bound = line.split(", bound ")
        ends = [Dyadic(*map(int, t.split(":"))) for t in tokens.split()]
        box = DyadicRect(tuple(ends[0::2]), tuple(ends[1::2]))
        val = run.evaluate(box.float_box())
        assert bound == repr(val) and not (val.valid and val.lo > 0.0)
        for d in range(box.n):  # a box of depth 3
            side = F(box.hi[d].value) - F(box.lo[d].value)
            assert side == (F(run.domain.hi[d].value) - F(run.domain.lo[d].value)) / 8


@pytest.mark.parametrize("argv", [
    ["verify", "--claim", "g_tail"],
    ["verify-all"],
], ids=" ".join)
def test_failed_side_condition_is_printed_under_its_claim(capsys, monkeypatch, argv):
    """A failing g_tail side condition fails the claim with its reason on
    stdout; g_tail alone stands in for verify-all's registry."""
    monkeypatch.setattr(claims, "tail_side_conditions",
                        lambda params: [("tail_exponent", True), ("tail_c2_le_0.4", False)])
    monkeypatch.setattr(claims, "run_all", lambda **kw: [claims.run_claim("g_tail")])
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("g_tail "))
    assert "FAIL" in lines[row]
    assert lines[row + 1] == "  note: side condition failed: tail_c2_le_0.4"
    assert "tail_exponent" not in captured.out and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["poincare", "--n", "5", "--p", "2"],
    ["oracle-profile", "--n", "5", "--beta", "1"],
    ["oracle-profile", "--n", "0", "--beta", "1"],
    ["oracle-profile", "--n", "-1", "--beta", "1"],
    ["envelope", "--beta", "1", "--depth", "11"],
    ["envelope", "--beta", "1", "--depth", "-1"],
    ["envelope", "--beta", "1", "--depth", "2", "--refine", "-1"],
    ["plot-data", "--figure", "envelopes", "--refine", "-1"],
    ["envelope", "--beta", "1", "--depth", "6", "--refine", "60"],
    ["envelope", "--beta", "1", "--depth", "10", "--refine", "4"],
    ["envelope", "--beta", "1", "--depth", "0", "--refine", "14"],
    ["envelope", "--beta", "1", "--depth", "2", "--refine", str(10**30)],
    ["plot-data", "--figure", "envelopes", "--refine", "60"],
    ["plot-data", "--figure", "envelopes", "--refine", "8"],
    ["envelope", "--beta", "0", "--depth", "2"],
    ["poincare", "--n", "2", "--p", "0"],
    ["envelope", "--beta", "inf", "--depth", "2"],
    ["poincare", "--n", "2", "--p", "inf"],
    ["oracle-profile", "--n", "2", "--beta", "nan"],
    ["oracle-profile", "--n", "2", "--beta", "inf"],
    ["oracle-profile", "--n", "2", "--beta", "0"],
    ["oracle-profile", "--n", "2", "--beta", "-1"],
    ["oracle-profile", "--n", "3", "--beta", "2000"],
    ["poincare", "--n", "3", "--p", "2000"],
    ["poincare", "--n", "1", "--p", "1100"],
    ["envelope", "--beta", "2000", "--depth", "2"],
    ["envelope", "--beta", "2", "--depth", "2"],
    ["poincare", "--n", "2", "--p", "2", "--threshold", "nan"],
    ["verify-all", "--threads", "0"],
    ["verify-all", "--threads", "-3"],
    ["verify-all", "--max-depth", "-1"],
    ["verify", "--claim", "g_Q_1", "--max-depth", "-1"],
    ["certify", "--claim", "g_Q_1", "--max-depth", "-1"],
], ids=" ".join)
def test_out_of_range_oracle_argument_exits_2_without_traceback(capsys, argv):
    """Out-of-range values of the oracle commands' arguments, and of
    --threads and --max-depth, are usage errors."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["plot-data", "--figure", "failure"],
    ["oracle-profile", "--n", "2", "--beta", "1"],
], ids=" ".join)
def test_closed_stdout_exits_1_without_traceback(argv):
    """A reader that closes stdout early ends the command with exit code 1
    and nothing on stderr."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": src}
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "cubeiso.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""  # no traceback, no "Exception ignored" at exit


def test_oracle_profile_matches_hart(tmp_path):
    out = tmp_path / "profile.csv"
    assert main(["oracle-profile", "--n", "4", "--beta", "1", "--out", str(out)]) == 0
    from cubeiso import oracle

    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 17
    for row in rows:
        k = int(row["k"])
        if k:
            from fractions import Fraction

            assert Fraction(row["x"]) == Fraction(k, 16)
            assert abs(float(row["value"]) - float(oracle.hart_profile(k, 4))) < 1e-12


def test_envelope_csv(tmp_path):
    out = tmp_path / "env.csv"
    assert main(["envelope", "--beta", "1", "--depth", "4", "--refine", "0",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "value"]
    assert len(rows) == 18


def test_poincare_command(capsys):
    assert main(["poincare", "--n", "3", "--p", "2.0"]) == 0
    assert "min" in capsys.readouterr().out


def _poincare_by_loop(n, p):
    """The worst ratio, its mask and the violation count by a plain loop
    over the proper subsets: the reference for the command's numpy scan."""
    from cubeiso import oracle

    arr = oracle.poincare_exhaustive(n, p)
    worst_ratio, worst_mask, violations = math.inf, None, 0
    for mask in range(1, arr.shape[0] - 1):  # the proper subsets
        lhs_p, rhs_p = arr[mask]
        ratio = (lhs_p / rhs_p) ** (1.0 / p)
        if ratio < worst_ratio:
            worst_ratio, worst_mask = ratio, mask
        if lhs_p < rhs_p * (1.0 - 2.0**-40):
            violations += 1
    return worst_ratio, worst_mask, violations


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", ["0.7", "1.00113", "3.3", "60"])
def test_poincare_command_matches_the_loop_over_every_mask(capsys, n, p):
    """Same line and exit code as the loop, also where x^(1/p) maps
    neighbouring ratios to one float (large p)."""
    worst_ratio, worst_mask, violations = _poincare_by_loop(n, float(p))
    code = main(["poincare", "--n", str(n), "--p", p])
    assert code == (0 if worst_ratio >= 1.0 else 1)
    assert capsys.readouterr().out == (
        f"n={n} p={float(p)}: min ||grad f||_p / ||f - Ef||_p = {worst_ratio:.12f} "
        f"at mask {worst_mask}; {violations} subsets below 1\n")


def test_poincare_counts_violations_where_the_powers_are_tiny(capsys):
    """At p = 250 the p-th powers are far below any absolute slack; the
    count is relative, so the 112 subsets below ratio 1 are all counted."""
    assert main(["poincare", "--n", "4", "--p", "250"]) == 1
    assert capsys.readouterr().out.endswith("; 112 subsets below 1\n")


def test_poincare_without_a_finite_ratio_fails():
    """At n = 1, p = 1100 (beyond --p's range) every p-th power underflows
    to 0, so no ratio is finite: that is a failure, not a pass."""
    from cubeiso import cli

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # 0/0 and an all-NaN min
        assert cli._cmd_poincare(argparse.Namespace(n=1, p=1100.0, threshold=0.0)) == 1


def test_plot_data_failure_series(tmp_path):
    out = tmp_path / "failure.csv"
    assert main(["plot-data", "--figure", "failure", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    good_min = min(float(r["g_beta_37"]) for r in rows)
    bad_min = min(float(r["g_beta_36"]) for r in rows)
    assert bad_min < 0.0 < good_min + 1e-12
    assert rows[0]["y"] == "0.5"


def test_plot_data_bounds_series(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["plot-data", "--figure", "bounds", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 257
    mid = rows[128]
    assert abs(float(mid["x"]) - 0.5) < 1e-12
    # the scaled glued bound beats the classical quadratic bounds at 1/2
    assert float(mid["scaled_glued_bound"]) > float(mid["bim"])
