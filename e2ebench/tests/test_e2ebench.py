"""Tests of the end-to-end benchmark itself (tiny inputs).

Run from the repository root::

    python3 -m pytest -q e2ebench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Span names each workload's traced run must emit: one per layer that
#: workload exercises.
LAYER_SPANS = {
    "sweep_grid": {"sweep", "strategies", "partition.solve", "schedule.build",
                   "executor.simulate"},
    "serve_mixed": {"client.request", "service.handler", "service.normalize",
                    "partition.solve", "strategies", "schedule.build",
                    "executor.simulate"},
    "recovery_cycles": {"elastic.cycle", "elastic.replan", "partition.solve",
                        "strategies", "schedule.build", "executor.simulate",
                        "executor.faulted_simulate"},
    "train_pipeline": {"pipeline", "sequential", "nn.forward",
                       "autodiff.backward", "optim.step", "schedule.build"},
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_with_its_unit(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    spans_file = ROOT / json.loads(out.stdout.strip().splitlines()[-2])["spans_file"]
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    assert LAYER_SPANS[workload] <= {span[1] for span in spans}
    ids = {span[0] for span in spans}
    assert all(span[4] == -1 or span[4] in ids for span in spans)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench("sweep_grid", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_perturbed_served_plan_trips_the_check(monkeypatch):
    from serve_mixed import ServeMixed

    from repro.serve.service import PlannerService

    workload = ServeMixed(3, tiny=True)
    workload.setup()
    try:
        assert workload.check(workload.run()) == []
        original = PlannerService.plan

        def perturbed(self, request):
            payload = original(self, request)
            return dict(payload, slowest_stage_time=payload["slowest_stage_time"] * (1 + 1e-12))

        monkeypatch.setattr(PlannerService, "plan", perturbed)
        assert workload.check(workload.run())
    finally:
        workload.close()


def test_perturbed_loss_trips_the_check(monkeypatch):
    from train_pipeline import TrainPipeline

    from repro.optim.sgd import SGD

    workload = TrainPipeline(3, tiny=True)
    workload.setup()
    assert workload.check(workload.run()) == []
    original = SGD._update
    monkeypatch.setattr(
        SGD, "_update",
        lambda self, index, param, grad: original(self, index, param, grad * (1 + 1e-6)))
    assert workload.check(workload.run())
