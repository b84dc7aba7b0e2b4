"""Tests of the benchmark itself: every workload at a tiny size, and live checks.

Run from the repository root: python -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Each workload's own metrics, printed on the detail line of an untraced run.
OWN = {
    "inference": ["inference_ops_per_s", "analyze_p50_us", "analyze_p99_us", "local_ci_p50_us", "iv_ci_p50_us"],
    "montecarlo": ["coverage_reps_per_s", "pivot_reps_per_s"],
    "sweeps": ["grid_points_per_s", "conc2d_s_per_c", "sweep1d_ms_per_c", "tails_ms_per_row"],
    "cli": ["cli_p50_s", "cli_import_s"],
}
COMMON = ["setup_s", "peak_rss_mb", "failed_ratio"]


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _lines(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [json.loads(line) for line in proc.stdout.strip().splitlines()]


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    record, detail, result = _lines(_run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    own = detail["detail"]
    assert set(COMMON + OWN[workload]) <= set(own)
    assert all(own[name]["unit"] for name in own)
    assert record["record"]["kernel_backend"] in ("numpy", "numba")
    if workload == "sweeps":
        # The kept tail-ratio row that does not converge.
        assert own["failed_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    _, trace, result = _lines(_run(workload, 1))
    assert result["correct"]
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert trace["trace"]["spans"] > 0
    assert result["metrics"]["import.total_ms"]["value"] > 0


def test_wrong_quantile_is_counted_as_failed(monkeypatch, tmp_path):
    import misspec.inference
    import misspec.montecarlo
    import misspec.special
    import worker

    exact = misspec.special.t_quantile

    def one_percent_high(dist, q):
        return 1.01 * exact(dist, q)

    for module in (misspec.special, misspec.inference, misspec.montecarlo):
        monkeypatch.setattr(module, "t_quantile", one_percent_high)
    result = worker.run_part("inference", 5, 0, 0.2, False, ROOT, tmp_path)
    assert result["attempted"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("inference", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
