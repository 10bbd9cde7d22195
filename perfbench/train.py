"""The ``train`` stage: ``Trainer.fit`` of DEKG-ILP on the fb15k-237 EQ split.

Each fit starts from a freshly built model, so its epoch 0 runs against a
cold ``SubgraphProvider`` and the later epochs run warm.  Fits repeat while
the stage's time budget allows; fit ``k`` of a run initialises and trains
with the seed derived from ``(seed, k)``, so the same seed always trains
the same sequence.  ``fits`` yields them one at a time, so that a run can
take turns between stages (``perfbench.stage.Rotation``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List

from perfbench.stats import median
from perfbench.stage import DATASET_SEED, Check, StageResult, run_for


@dataclass(frozen=True)
class TrainSize:
    scale: float
    epochs: int
    family: str = "fb15k-237"
    split: str = "EQ"


FULL = TrainSize(scale=0.25, epochs=2)
TINY = TrainSize(scale=0.15, epochs=2)


def fit_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def build(size: TrainSize, seed: int):
    """Dataset, untrained model and trainer for one fit (the stage's set-up)."""
    from repro.core.config import TrainingConfig
    from repro.core.trainer import Trainer
    from repro.datasets.benchmark import build_benchmark
    from repro.registry import build_model

    dataset = build_benchmark(size.family, size.split, seed=DATASET_SEED,
                              scale=size.scale)
    graph = dataset.train_graph
    model = build_model("DEKG-ILP", num_entities=graph.num_entities,
                        num_relations=dataset.num_relations, seed=seed)
    return Trainer(model, graph, TrainingConfig(epochs=size.epochs, seed=seed))


def fits(size: TrainSize, seed: int, first_trainer=None) -> Iterator[Dict[str, object]]:
    """Fit after fit, each on a freshly built model; yields each fit's figures.

    ``first_trainer`` is the set-up's trainer for fit 0, built from the
    same seed ``build`` would use.
    """
    index = 0
    while True:
        trainer = first_trainer if (index == 0 and first_trainer is not None) \
            else build(size, fit_seed(seed, index))
        trainer.fit(size.epochs)
        records = trainer.history.records
        durations = [record.seconds for record in records]
        positives = len(trainer.train_graph.triples)
        yield {
            "cold_epoch_s": durations[0],
            "warm_triples_per_s": positives * (len(durations) - 1) / sum(durations[1:]),
            "fit_s": sum(durations),
            "losses": trainer.history.losses(),
            "batches": len(records) * math.ceil(positives / trainer.config.batch_size),
            # The trainer drops a batch with a non-finite gradient norm from
            # the epoch loss, so the loss alone cannot show it.
            "skipped": sum(record.skipped_batches for record in records),
        }
        index += 1


def summarize(size: TrainSize, done: List[Dict[str, object]]) -> StageResult:
    """The stage's metrics and checks over the fits ``fits`` yielded."""
    cold = [fit["cold_epoch_s"] for fit in done]
    warm_rates = [fit["warm_triples_per_s"] for fit in done]
    losses = [loss for fit in done for loss in fit["losses"]]
    batches = sum(fit["batches"] for fit in done)
    skipped = sum(fit["skipped"] for fit in done)
    bad = [loss for loss in losses if not math.isfinite(loss)]
    result = StageResult(
        metrics={"train.cold_epoch_s": median(cold),
                 "train.warm_triples_per_s": median(warm_rates)},
        attempted=batches, failed=skipped + len(bad),
        detail={"fits": len(done), "cold_epoch_s": cold,
                "warm_triples_per_s": warm_rates,
                "fit_s": [fit["fit_s"] for fit in done],
                "skipped_batches": skipped,
                "final_losses": [fit["losses"][-1] for fit in done]})
    result.checks.append(Check(
        "train.losses_finite", not bad and not skipped,
        f"{len(bad)} of {len(losses)} epoch losses non-finite, "
        f"{skipped} of {batches} batches skipped for a non-finite gradient"))
    return result


def measure(size: TrainSize, seed: int, budget_s: float, clock,
            first_trainer=None) -> StageResult:
    """Fit repeatedly for ``budget_s`` seconds (at least one fit)."""
    return summarize(size, run_for(fits(size, seed, first_trainer), budget_s, clock))


def probe(size: TrainSize) -> Dict[str, float]:
    """Final loss of one fit at the fixed reference seed."""
    trainer = build(size, 0)
    trainer.fit(size.epochs)
    return {"final_loss": trainer.history.final_loss}
