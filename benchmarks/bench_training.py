"""End-to-end training speedup benchmark: batched vs sequential Trainer.

PR 1 batched inference through block-diagonal union graphs; this benchmark
tracks the same treatment applied to the training loop.  Both modes run the
identical optimization — same seeds, same shuffling, same negatives, same
contrastive pairs — and differ only in how the autodiff graph is built:

* sequential (the test suite's ``oracles.SequentialTrainer``): one
  ``model.forward`` graph per positive and per corrupted negative,
  subgraphs re-extracted from scratch every time;
* batched (``Trainer``): one ``DEKGILP.forward_batch`` graph per mini-batch —
  a single CLRM fusion/scoring pass, chunked block-diagonal GSM union
  graphs, and relation-agnostic extractions served from the per-model LRU
  (warm across corruptions and, because the train graph never mutates,
  across epochs).

Edge dropout is disabled so the two paths are numerically equivalent; the
per-epoch losses are asserted to match to 1e-8, which gates the benchmark
on correctness, not just speed.  Results are printed and appended to a
machine-readable ``BENCH_training.json`` (override the path with the
``REPRO_BENCH_TRAINING_JSON`` environment variable) so the perf trajectory
accumulates across runs.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np

from common import append_bench_run, print_banner
from oracles import SequentialTrainer
from repro.core.config import ModelConfig, TrainingConfig
from repro.core.model import DEKGILP
from repro.core.trainer import Trainer
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple

EPOCHS = 3          # epoch 0 exercises the cold cache, the rest run warm
BATCH_SIZE = 16     # the paper's default mini-batch
HIDDEN_DIM = 16     # CI-friendly width; the speedup is width-insensitive
HOPS = 2            # default neighborhood radius

#: (name, num_entities, num_triples); "default" carries the >= 2x gate.
SIZES = [
    ("small", 60, 150),
    ("default", 120, 400),
    ("large", 200, 800),
]

JSON_PATH = os.environ.get(
    "REPRO_BENCH_TRAINING_JSON",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_training.json"))


def _synthetic_graph(num_entities: int, num_triples: int, seed: int = 0) -> KnowledgeGraph:
    rng = np.random.default_rng(seed)
    tuples = sorted({
        (int(h), int(r), int(t))
        for h, r, t in zip(
            rng.integers(0, num_entities, num_triples),
            rng.integers(0, 8, num_triples),
            rng.integers(0, num_entities, num_triples),
        )
    })
    return KnowledgeGraph(num_entities, 8, [Triple(*t) for t in tuples])


def _make_trainer(graph: KnowledgeGraph, batched: bool) -> Trainer:
    model_config = ModelConfig(embedding_dim=HIDDEN_DIM, gnn_hidden_dim=HIDDEN_DIM,
                               subgraph_hops=HOPS, edge_dropout=0.0)
    training_config = TrainingConfig(epochs=EPOCHS, batch_size=BATCH_SIZE, seed=0)
    model = DEKGILP(graph.num_relations, config=model_config, seed=0)
    trainer_class = Trainer if batched else SequentialTrainer
    return trainer_class(model, graph, training_config)


def _train_interleaved(graph: KnowledgeGraph):
    """Run both modes epoch-by-epoch, interleaved.

    Alternating the two trainers keeps each pair of same-epoch measurements
    adjacent in time, so transient CPU contention on a shared runner degrades
    both modes about equally instead of poisoning one side's total.
    """
    batched_trainer = _make_trainer(graph, batched=True)
    sequential_trainer = _make_trainer(graph, batched=False)
    for epoch in range(EPOCHS):
        batched_trainer.train_epoch(epoch)
        sequential_trainer.train_epoch(epoch)
    batched_trainer.model.eval()
    sequential_trainer.model.eval()
    return batched_trainer, sequential_trainer


def _write_json(rows: List[Dict]) -> None:
    """Append this run to the tracked history (keeps prior runs' numbers)."""
    append_bench_run(
        JSON_PATH, "training", "seconds_per_epoch",
        config={
            "epochs": EPOCHS,
            "batch_size": BATCH_SIZE,
            "hidden_dim": HIDDEN_DIM,
            "hops": HOPS,
            "edge_dropout": 0.0,
            "num_negatives": 1,
        },
        results=rows,
    )


def test_training_batched_vs_sequential():
    """Per-epoch wall clock of both modes at three graph sizes, loss-gated."""
    rows: List[Dict] = []
    for name, num_entities, num_triples in SIZES:
        graph = _synthetic_graph(num_entities, num_triples)
        batched_trainer, sequential_trainer = _train_interleaved(graph)
        batched_history = batched_trainer.history
        sequential_history = sequential_trainer.history

        losses_batched = np.array(batched_history.losses())
        losses_sequential = np.array(sequential_history.losses())
        max_loss_delta = float(np.max(np.abs(losses_batched - losses_sequential)))
        # Correctness gate: identical optimization, not just similar speed.
        assert max_loss_delta <= 1e-8, (
            f"{name}: batched/sequential losses diverged by {max_loss_delta}")

        seconds_batched = np.array([r.seconds for r in batched_history.records])
        seconds_sequential = np.array([r.seconds for r in sequential_history.records])
        per_epoch_speedup = seconds_sequential / seconds_batched
        # Epoch 0 pays the cold extraction cache; the remaining epochs are
        # the steady state multi-epoch training actually runs in.  Each
        # side's best warm epoch is its least contention-contaminated
        # measurement (the standard min-of-repeats timing estimator).
        warm_speedup = float(seconds_sequential[1:].min() / seconds_batched[1:].min())

        rows.append({
            "size": name,
            "num_entities": num_entities,
            "num_triples": len(graph),
            "seconds_per_epoch_sequential": float(seconds_sequential.mean()),
            "seconds_per_epoch_batched": float(seconds_batched.mean()),
            "speedup": float(seconds_sequential.sum() / seconds_batched.sum()),
            "warm_epoch_speedup": warm_speedup,
            "per_epoch_speedup": [float(s) for s in per_epoch_speedup],
            "max_loss_delta": max_loss_delta,
            "final_loss": float(losses_batched[-1]),
            "cache_hit_rate_last_epoch": batched_history.records[-1].cache_hit_rate,
            "cache_stats": batched_trainer.model.subgraph_cache_stats(),
        })

    _write_json(rows)

    print_banner(
        f"Training: sequential vs batched — {EPOCHS} epochs, batch={BATCH_SIZE}, "
        f"hidden={HIDDEN_DIM}, {HOPS}-hop (losses equal to <= 1e-8)")
    for row in rows:
        print(f"  {row['size']:8s} |E|={row['num_entities']:4d} "
              f"|T|={row['num_triples']:5d}: "
              f"seq {row['seconds_per_epoch_sequential']*1000:8.1f} ms/epoch   "
              f"batched {row['seconds_per_epoch_batched']*1000:7.1f} ms/epoch   "
              f"overall {row['speedup']:4.1f}x   warm {row['warm_epoch_speedup']:4.1f}x   "
              f"hit-rate {row['cache_hit_rate_last_epoch']:.2f}")
    print(f"  -> {JSON_PATH}")

    # The acceptance gate: >= 2x warm (steady-state) per-epoch speedup at the
    # default synthetic size; measured ~2.6-3.2x on an idle machine.  The
    # other sizes are informational (printed + JSON) so shared CI runners
    # cannot flake the job on the smallest/largest configurations.
    default_row = next(row for row in rows if row["size"] == "default")
    assert default_row["warm_epoch_speedup"] >= 2.0, (
        f"batched training warm-epoch speedup "
        f"{default_row['warm_epoch_speedup']:.2f}x below the 2x floor")


if __name__ == "__main__":
    test_training_batched_vs_sequential()
