"""Tests of the benchmark itself, on tiny runs of every workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("graph.nodes", "graph.gradients_calls", "channel.apply_channel_block_calls", "learners.guard_retries")
SEED = 3
TINY = "0.05"

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import calibrate  # noqa: E402


def run_bench(workload, trace):
    """(result, context) of a tiny run; a traced run's context also holds its spans."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--scale", TINY],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    *_, context_line, result_line = out.stdout.strip().splitlines()
    assert context_line.startswith("context ")
    context = json.loads(context_line[len("context "):])
    if trace:
        spans = (BENCH / "out" / f"spans-{workload}-seed{SEED}.jsonl").read_text().splitlines()
        context["spans"] = [json.loads(line) for line in spans]
    return json.loads(result_line), context


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace, attempt=0):
        key = (workload, trace, attempt)
        if key not in cache:
            cache[key] = run_bench(workload, trace)
        return cache[key]

    return get


def _check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(runs, workload):
    result, context = runs(workload, 0)
    _check_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert len(context["table_sha256"]) == 64
    result, _ = runs(workload, 1)
    _check_metrics(result, SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_and_table_repeat_for_one_seed(runs, workload):
    (first, ctx_first), (second, ctx_second) = runs(workload, 1), runs(workload, 1, attempt=1)
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert ctx_first["table_sha256"] == ctx_second["table_sha256"] == runs(workload, 0)[1]["table_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_parse_and_self_times_fit_in_wall(runs, workload):
    _, context = runs(workload, 1)
    spans = context["spans"]
    ids = {s["id"] for s in spans}
    names = {s["name"] for s in spans}
    assert "rep" in names and "meta_train" in names
    self_sum = {}
    for s in spans:
        assert s["parent"] is None or s["parent"] in ids
        assert s["end"] >= s["start"] and s["self"] >= 0.0
        self_sum[s["rep"]] = self_sum.get(s["rep"], 0.0) + s["self"]
    walls = context["traced_wall_s_all"]
    assert sorted(self_sum) == list(range(len(walls)))
    for rep, total in self_sum.items():
        assert total <= walls[rep] * (1 + 1e-9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_calibrator_leaves_out_its_chunks_and_restores_the_sites():
    originals = [getattr(module, name) for module, name in calibrate.SITES]
    calibrator = calibrate.Calibrator()
    with calibrator.installed():
        assert all(getattr(m, n) is not f for (m, n), f in zip(calibrate.SITES, originals))
        t0 = time.perf_counter()
        calibrator.begin()
        time.sleep(calibrate.GAP_S)
        calibrator.tick()  # past GAP_S: cuts a stretch and times a chunk
        time.sleep(0.01)
        raw, calibrated = calibrator.end()
        total = time.perf_counter() - t0
    assert [getattr(m, n) for m, n in calibrate.SITES] == originals
    assert calibrate.GAP_S + 0.01 <= raw < total
    assert calibrated > 0.0
    assert calibrate.scaled(2.0, calibrate.REF_S, calibrate.REF_S) == 2.0
