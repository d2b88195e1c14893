"""Tests of the benchmark harness itself, on the tiny (3,1) space.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def smoke():
    return {trace: run.measure(workloads.SMOKE, seed=3, seconds=0, trace=trace,
                               import_reps=1)
            for trace in (False, True)}


def test_smoke_run_is_correct(smoke):
    line = run.result_line(smoke[False])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_run_reports_every_layer(smoke):
    record = smoke[True]
    line = run.result_line(record)
    assert line["correct"]
    assert set(line["metrics"]) == set(run.per_layer_units())
    layer = record["per_layer"]
    assert layer["go.grid.points"] == 16 and layer["go.grid.survivors"] == 16
    assert layer["lie_core.bracket.calls"] > 0
    assert layer["linalg.least_squares.calls"] > 0
    assert layer["stiefel.build_stiefel.s"] > 0
    assert layer["trace.overhead_ratio"] > 0
    names = {s["name"] for s in record["spans"]}
    assert {"setup", "pass", "stiefel.reproduce_report", "go.search_go.grid"} <= names


def test_counts_repeat_for_a_seed():
    first, second = (run.measure(workloads.SMOKE, seed=5, seconds=0, trace=True,
                                 import_reps=1)["per_layer"] for _ in range(2))
    for name in ("lie_core.bracket.calls", "decomp.coords_in_m.calls",
                 "linalg.least_squares.calls", "go.grid.points",
                 "go.grid.falsified"):
        assert first[name] == second[name]


def test_wrong_expected_count_fails_the_pass(monkeypatch):
    real = workloads.expected_grid

    def off_by_one(n, k, g):
        want = real(n, k, g)
        return dict(want, survivors=want["survivors"] + 1)

    monkeypatch.setattr(workloads, "expected_grid", off_by_one)
    record = run.measure(workloads.SMOKE, seed=3, seconds=0, trace=False,
                         import_reps=1)
    assert record["failed"] == record["attempted"] >= 1
    assert not run.result_line(record)["correct"]
    assert "grid survivors" in record["errors"][0]


def test_wrapped_attributes_are_restored(smoke):
    import go_metric_lab
    from go_metric_lab import decomp, go, linalg

    before = {(m, a): getattr(tracer._resolve(m, a)[0], a.split(".")[-1])
              for m, a, _ in tracer.STAGES + tracer.HOT}
    package_bracket = go_metric_lab.bracket
    t = tracer.Tracer()
    with t.installed():
        assert go.go_solve_at is not before[("go", "go_solve_at")]
        assert go_metric_lab.bracket is not package_bracket
        with t.span("probe"):
            linalg.least_squares([], [1], [[1]])
    for (m, a), original in before.items():
        assert getattr(tracer._resolve(m, a)[0], a.split(".")[-1]) is original
    assert go_metric_lab.bracket is package_bracket
    assert decomp.ReductiveSplit.__dict__["coords_in_m"] is before[
        ("decomp", "ReductiveSplit.coords_in_m")]
    assert t.spans[0][tracer.HOTS]["linalg.least_squares"][0] == 1


def test_missing_program_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorem-32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == set(run.per_layer_units())
