"""scripts/bench_pairs.py resumes an --out file only with runs of the
checkouts it is given.  bench_run is stubbed, so no benchmark runs."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _checkout(path: pathlib.Path, source: str) -> str:
    """A checkout holding this repository's BENCHMARK.json and
    perfbench/run.py, and src/m.py with the given text."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text((ROOT / "perfbench" / "run.py").read_text())
    (path / "src").mkdir()
    (path / "src" / "m.py").write_text(source)
    (path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    return str(path)


@pytest.fixture()
def sides(tmp_path, monkeypatch):
    """Two checkouts and the list of (checkout, seed) runs the stub saw."""
    parent = _checkout(tmp_path / "parent", "x = 1\n")
    change = _checkout(tmp_path / "change", "x = 2\n")
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace=False):
        calls.append((checkout, seed))
        return {"seed": seed, "src": bench_pairs.src_digest(checkout), "run_s": 0.0,
                "correct": 1, "attempted": 1, "failed": 0, "metrics": {"wall_s": 1.0}}

    monkeypatch.setattr(bench_pairs, "bench_run", fake_run)
    return parent, change, calls


def _main(parent, change, out, pairs):
    return bench_pairs.main(["--parent", parent, "--change", change, "--out", str(out),
                             "--workloads", "prove", "--pairs", str(pairs)])


def test_resume_continues_after_the_recorded_pairs(sides, tmp_path):
    parent, change, calls = sides
    out = tmp_path / "bench.json"
    assert _main(parent, change, out, 1) == 0
    assert _main(parent, change, out, 2) == 0
    assert [seed for _, seed in calls] == [2001, 2001, 2002, 2002]
    assert len(json.loads(out.read_text())["workloads"]["prove"]["runs"]) == 2


@pytest.mark.parametrize("side", ["parent", "change"])
def test_resume_refuses_runs_of_another_tree(sides, tmp_path, capsys, side):
    parent, change, calls = sides
    out = tmp_path / "bench.json"
    assert _main(parent, change, out, 1) == 0
    before = out.read_text()
    pathlib.Path(parent if side == "parent" else change, "src", "m.py").write_text("x = 3\n")
    calls.clear()
    assert _main(parent, change, out, 2) == 2
    assert calls == [] and out.read_text() == before
    assert f"another {side} tree" in capsys.readouterr().err
