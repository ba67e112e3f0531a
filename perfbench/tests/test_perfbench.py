"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
The traced runs start one untraced and one traced session per workload,
so the module takes about a minute.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END, PER_LAYER  # noqa: E402
from tracer import self_times  # noqa: E402
from workloads import WORKLOADS, check_widening  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_documents(name):
    specs = WORKLOADS[name].specs
    first = json.dumps(specs(11), sort_keys=True)
    assert first == json.dumps(specs(11), sort_keys=True)
    assert first != json.dumps(specs(12), sort_keys=True)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_widening_check():
    assert check_widening((3, 3, 4, 5, 6), 6) is None
    assert check_widening((0, 0, 6), 6) is not None
    assert check_widening((3, 3, 6), 6) is not None


def test_untraced_run_reports_every_end_to_end_metric():
    result = result_of(run_bench("metric-grid", 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[name]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    result = result_of(run_bench(request.param, 1))
    record = json.loads((ROOT / f".bench_out/{request.param}-seed7-trace1.json").read_text())
    return request.param, result, record


def test_traced_run_reports_every_per_layer_metric(traced):
    name, result, record = traced
    assert result["correct"], record["failures"]
    assert set(result["metrics"]) == set(PER_LAYER)
    for metric_name, metric in result["metrics"].items():
        assert metric["unit"] == PER_LAYER[metric_name]
        assert math.isfinite(metric["value"]), metric_name
        if metric["unit"] in ("s", "us"):  # every layer does some work in every workload
            assert metric["value"] > 0, metric_name
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    counts = [s["counts"] for s in record["sessions"] if "counts" in s]
    assert counts and all(c["plans"] and c["plans"][0]["schedule"] for c in counts)
    assert record["environment"]["seed"] == 7 and record["environment"]["nproc"] >= 1


def test_child_self_times_never_exceed_their_parent(traced):
    _, _, record = traced
    for trace in record["traces"]:
        spans = trace["spans"]
        own = self_times(spans)
        assert all(t >= 0 for t in own)
        for span_id, parent, _, start, end in spans:
            if parent is None:
                continue
            _, _, _, p_start, p_end = spans[parent]
            assert p_start <= start <= end <= p_end
            assert own[span_id] <= p_end - p_start


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("widening", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
