"""train_pipeline: numpy 1F1B training with weight stashing.

``PipelineTrainer`` on the scaled VGG-16 (``build_vgg(scale=0.25)``) with
seeded initialisation and seeded ``make_image_data``, over a pinned
4-stage straight split.  The split is pinned because a plan from
``profile_model`` depends on measured wall-clock layer times, so two runs
could train different plans and get different losses.  A
``SequentialTrainer`` pass over the same batches gives the single-worker
baseline.  ``nn``, ``autodiff``, ``optim``, ``runtime.pipeline`` and
``comm`` do all the work; the planner and the simulator do none, so this
workload plans nothing and reports the neutral plan speedup 1.0.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path
from time import perf_counter
from typing import List

from common import Rep, Workload, op_scope

SPLIT = ((0, 6), (6, 12), (12, 18), (18, 22))
BATCH = 16
MINIBATCHES = 8
LR = 0.05
MOMENTUM = 0.9
#: Seed and size of the recorded reference run.
REFERENCE_SEED = 0
REFERENCE_MINIBATCHES = 4
REFERENCE_FILE = Path(__file__).with_name("reference_losses.json")
#: Relative tolerance of "equal to rounding" against the recorded losses.
LOSS_RTOL = 1e-9


def build(seed: int, minibatches: int):
    """(model, batches) generated from ``seed``."""
    import numpy as np

    from repro.data.synthetic import make_image_data
    from repro.models import build_vgg

    seed %= 2 ** 32  # numpy seeds must be non-negative
    model = build_vgg(scale=0.25, rng=np.random.default_rng(seed))
    images, labels = make_image_data(num_samples=BATCH * minibatches, seed=seed)
    batches = [(images[i:i + BATCH], labels[i:i + BATCH])
               for i in range(0, len(labels), BATCH)]
    return model, batches


def pipelined_trainer(model):
    from repro.core.partition import Stage
    from repro.nn.loss import CrossEntropyLoss
    from repro.optim.sgd import SGD
    from repro.runtime.pipeline import PipelineTrainer

    return PipelineTrainer(
        model, [Stage(start, stop, 1) for start, stop in SPLIT],
        CrossEntropyLoss(), lambda params: SGD(params, lr=LR, momentum=MOMENTUM))


def sequential_trainer(model):
    from repro.nn.loss import CrossEntropyLoss
    from repro.optim.sgd import SGD
    from repro.runtime.trainer import SequentialTrainer

    return SequentialTrainer(model, CrossEntropyLoss(),
                             SGD(model.parameters(), lr=LR, momentum=MOMENTUM))


def reference_losses() -> List[float]:
    """Per-step pipelined losses of the reference run, as computed now."""
    model, batches = build(REFERENCE_SEED, REFERENCE_MINIBATCHES)
    trainer = pipelined_trainer(model)
    trainer.train_minibatches(batches)
    return list(trainer.stats.losses)


class TrainPipeline(Workload):
    name = "train_pipeline"
    modules = ("numpy", "repro.models", "repro.data.synthetic",
               "repro.runtime.pipeline", "repro.runtime.trainer",
               "repro.nn.loss", "repro.optim.sgd")
    work_unit = "training samples"
    references = ("numpy",)

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.minibatches = 4 if tiny else MINIBATCHES
        self.recorded = json.loads(REFERENCE_FILE.read_text())["losses"]

    def setup(self) -> None:
        self.model, self.batches = build(self.seed, self.minibatches)

    def run(self, tracer=None, speed=None) -> Rep:
        samples = sum(len(labels) for _, labels in self.batches)
        trainer = pipelined_trainer(self.model)
        with op_scope(tracer, speed):
            begin = perf_counter()
            trainer.train_minibatches(self.batches)
            seconds = perf_counter() - begin
        # The baseline trains a private copy: the pipelined trainer
        # deep-copies its stages, so ``self.model`` stays at its seed.
        baseline = sequential_trainer(copy.deepcopy(self.model))
        with op_scope(tracer, speed):
            begin = perf_counter()
            sequential_loss = baseline.train_epoch(self.batches)
            sequential_seconds = perf_counter() - begin
        losses = tuple(trainer.stats.losses)
        return Rep(
            seconds=seconds,
            work=samples,
            latencies=[seconds],
            attempted=len(losses) + 1,
            failed=sum(not math.isfinite(v) for v in losses + (sequential_loss,)),
            outputs=(losses, sequential_loss),
            extra={
                "train.sequential_samples_per_s": samples / sequential_seconds,
                "pipeline.peak_stash_bytes": max(trainer.stats.peak_memory_bytes.values()),
                "comm.bytes": trainer.network.total_bytes,
                "comm.messages": trainer.network.total_messages,
            },
        )

    def check(self, rep: Rep) -> List[str]:
        """The reference run's per-step losses equal the recorded ones."""
        now = reference_losses()
        if len(now) != len(self.recorded) or any(
            not math.isclose(a, b, rel_tol=LOSS_RTOL)
            for a, b in zip(now, self.recorded)
        ):
            return [f"reference losses {now} != recorded {self.recorded}"]
        return []

    def plan_speedups(self, rep: Rep) -> List[float]:
        return [1.0]
