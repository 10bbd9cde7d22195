"""Training loop for DEKG-ILP (Algorithm 1 of the paper).

Every triple of the original KG ``G`` serves as a positive example; each is
paired with corrupted negatives (Eq. 12).  The ranking loss (Eq. 14) pushes
positive scores above negative scores by a margin, and the contrastive loss
(Eq. 7) — weighted by σ — shapes the relation-specific features.  The total
objective is Eq. 15.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.optim import Adam, clip_grad_norm
from repro.autodiff.tensor import Tensor
from repro.backend import active_backend
from repro.core.config import TrainingConfig
from repro.core.contrastive import ContrastiveSampler, batch_contrastive_loss
from repro.core.model import DEKGILP
from repro.kg.graph import KnowledgeGraph
from repro.kg.sampling import NegativeSampler
from repro.kg.triple import Triple
from repro.resilience import atomic_write_json
from repro.resilience.faults import fire


@dataclass
class EpochRecord:
    """Loss breakdown and timing of one training epoch."""

    epoch: int
    total_loss: float
    ranking_loss: float
    contrastive_loss: float
    seconds: float
    skipped_batches: int = 0
    """Batches whose gradients came back non-finite and were not applied."""

    cache_hit_rate: float = float("nan")
    """Fraction of subgraph-extraction lookups served from the model's
    provider cache during this epoch (``nan`` when no lookups happened, e.g.
    with GSM disabled)."""

    lifetime_cache_hit_rate: float = float("nan")
    """Cumulative provider hit rate over the model's whole lifetime as of
    the end of this epoch.  Kept alongside the per-epoch rate so cumulative
    history survives context switches (the provider keeps lifetime counters
    separate from the per-context ones)."""


@dataclass
class TrainingHistory:
    """Per-epoch records collected by :class:`Trainer.fit`."""

    records: List[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    @property
    def final_loss(self) -> float:
        return self.records[-1].total_loss if self.records else float("nan")

    def losses(self) -> List[float]:
        return [record.total_loss for record in self.records]

    def total_seconds(self) -> float:
        return sum(record.seconds for record in self.records)


class Trainer:
    """Optimizes a :class:`~repro.core.model.DEKGILP` model on an original KG.

    Each mini-batch is trained through **one autodiff graph**: the positives
    and all their corrupted negatives are scored together by
    :meth:`DEKGILP.forward_batch` — one CLRM fusion/DistMult pass for the
    whole batch, and the GSM subgraphs concatenated into chunked
    block-diagonal union graphs (node feature rows stacked, edge indices
    offset per block) that the encoder processes in a handful of passes.
    Subgraph extractions are relation-agnostic and cached per ``(head,
    tail)`` pair on the model, so a positive and its tail-corrupted
    negatives share the head's neighborhood work, repeated candidates hit
    warm entries, and — because the training graph never mutates mid-fit —
    later epochs run almost entirely from cache (the per-epoch hit rate is
    reported in :attr:`EpochRecord.cache_hit_rate`).  The margin ranking
    loss (Eq. 14) is one vectorized ``clamp_min``/``mean`` over the aligned
    positive/negative score tensors, and the contrastive pairs (Eq. 7) are
    perturbed and scored as one stacked anchor/positive/negative call per
    batch.

    The losses and parameters match a per-triple loop (one
    :meth:`DEKGILP.forward` graph per scored triple) to 1e-8 — **including
    with edge dropout enabled**, since dropout masks are counter-seeded per
    ``(seed, epoch, layer, edge)`` rather than consumed from a stream.  That
    loop lives in the test suite as the equivalence oracle.

    Subgraph extraction goes through the model's
    :class:`~repro.subgraph.provider.SubgraphProvider`: cache misses of a
    batch are extracted in one multi-source BFS sweep, and the training
    positives' ``(head, tail)`` pairs are pinned up front so the cache keeps
    their extractions resident while the uniformly-drawn corruptions churn
    through its LRU portion.
    """

    def __init__(self, model: DEKGILP, train_graph: KnowledgeGraph,
                 config: Optional[TrainingConfig] = None,
                 journal_path: Optional[Union[str, Path]] = None):
        self.model = model
        self.train_graph = train_graph
        self.config = config or TrainingConfig()
        #: Where :meth:`fit` writes the crash-resume journal (every
        #: ``TrainingConfig.checkpoint_every`` epochs); ``None`` disables it.
        self.journal_path = Path(journal_path) if journal_path is not None else None
        self.model.set_context(train_graph)
        self._start_epoch = 0
        self._rng = np.random.default_rng(self.config.seed)
        self._negative_sampler = NegativeSampler(
            train_graph, num_negatives=self.config.num_negatives, seed=self.config.seed,
        )
        self._contrastive_sampler = ContrastiveSampler(
            scaling_factor=self.model.config.contrastive_scaling, seed=self.config.seed,
        )
        self.optimizer = Adam(self.model.parameters(), lr=self.config.learning_rate)
        self.history = TrainingHistory()
        if self.model.subgraph_provider is not None:
            # Every training triple is a positive in every epoch; pinning its
            # extraction keeps the recurring half of the workload warm while
            # the corruptions churn the LRU portion of the cache.
            self.model.subgraph_provider.pin_pairs(
                train_graph, {(t.head, t.tail) for t in train_graph.triples})

    # ------------------------------------------------------------------ #
    def _batches(self, triples: Sequence[Triple]) -> List[List[Triple]]:
        order = self._rng.permutation(len(triples))
        shuffled = [triples[i] for i in order]
        size = self.config.batch_size
        return [shuffled[i:i + size] for i in range(0, len(shuffled), size)]

    def _ranking_loss(self, batch: Sequence[Triple]) -> Tensor:
        """Margin ranking loss (Eq. 14) averaged over the batch's pos/neg pairs.

        Negatives are drawn once per batch (one vectorized RNG draw); the
        positives and all negatives are scored by one ``forward_batch`` and
        the loss is one vectorized expression over the aligned scores.
        """
        batch = list(batch)
        if not batch:
            return Tensor(0.0)
        negatives = self._negative_sampler.sample_batch(batch)
        flat_negatives = [n for per_positive in negatives for n in per_positive]
        scores = self.model.forward_batch(batch + flat_negatives)
        counts = np.fromiter((len(per_positive) for per_positive in negatives),
                             dtype=np.int64, count=len(batch))
        positive_rows = np.repeat(np.arange(len(batch), dtype=np.int64), counts)
        negative_rows = len(batch) + np.arange(len(flat_negatives), dtype=np.int64)
        return F.margin_ranking_loss(
            scores.gather_rows(positive_rows),
            scores.gather_rows(negative_rows),
            self.model.config.ranking_margin,
        )

    def _contrastive_loss(self, batch: Sequence[Triple]) -> Tensor:
        """Contrastive loss (Eq. 7) over the entities appearing in the batch.

        The perturbed tables for every entity in the batch are generated by
        one vectorized sampler call and scored as a single stacked
        anchor/positive/negative triplet loss.
        """
        if self.model.clrm is None or self.config.contrastive_weight <= 0:
            return Tensor(0.0)
        entities = sorted({entity for triple in batch for entity in (triple.head, triple.tail)})
        if not entities:
            return Tensor(0.0)
        tables = np.stack([self.model.tables.table(entity) for entity in entities])
        anchors, positives, negatives = self._contrastive_sampler.sample_pairs_batch(
            tables, num_pairs=self.config.contrastive_examples)
        return batch_contrastive_loss(
            self.model.clrm,
            anchors,
            positives,
            negatives,
            margin=self.model.config.contrastive_margin,
        )

    # ------------------------------------------------------------------ #
    def train_epoch(self, epoch: int = 0) -> EpochRecord:
        """Run one pass over the training triples and return the loss breakdown."""
        fire("epoch", epoch)
        self.model.train()
        self.model.set_dropout_epoch(epoch)
        start = time.perf_counter()
        triples = self.train_graph.triples
        ranking_total = 0.0
        contrastive_total = 0.0
        skipped = 0
        hits_before = self.model.subgraph_cache_hits
        misses_before = self.model.subgraph_cache_misses
        batches = self._batches(triples)
        for batch in batches:
            self.optimizer.zero_grad()
            ranking = self._ranking_loss(batch)
            contrastive = self._contrastive_loss(batch)
            loss = ranking + contrastive * self.config.contrastive_weight
            loss.backward()
            norm = clip_grad_norm(self.model.parameters(), self.config.grad_clip)
            if not np.isfinite(norm):
                # clip_grad_norm zeroed the poisoned gradients.  Skip the
                # optimizer step entirely (with Adam, even zero gradients
                # would apply a momentum update) and keep the batch's likely
                # NaN/Inf loss out of the epoch totals.
                skipped += 1
            else:
                self.optimizer.step()
                ranking_total += float(ranking.data)
                contrastive_total += float(contrastive.data)
        # Average over the batches that actually contributed an update; the
        # skipped_batches field carries the poisoned-batch count.
        n_batches = max(1, len(batches) - skipped)
        epoch_hits = self.model.subgraph_cache_hits - hits_before
        epoch_lookups = epoch_hits + self.model.subgraph_cache_misses - misses_before
        lifetime_lookups = self.model.subgraph_cache_hits + self.model.subgraph_cache_misses
        record = EpochRecord(
            epoch=epoch,
            total_loss=(ranking_total + self.config.contrastive_weight * contrastive_total) / n_batches,
            ranking_loss=ranking_total / n_batches,
            contrastive_loss=contrastive_total / n_batches,
            seconds=time.perf_counter() - start,
            skipped_batches=skipped,
            cache_hit_rate=epoch_hits / epoch_lookups if epoch_lookups else float("nan"),
            lifetime_cache_hit_rate=(self.model.subgraph_cache_hits / lifetime_lookups
                                     if lifetime_lookups else float("nan")),
        )
        self.history.append(record)
        if self.config.verbose:
            skipped_note = f", skipped={record.skipped_batches}" if record.skipped_batches else ""
            print(
                f"epoch {epoch}: loss={record.total_loss:.4f} "
                f"(ranking={record.ranking_loss:.4f}, contrastive={record.contrastive_loss:.4f}, "
                f"{record.seconds:.2f}s{skipped_note})"
            )
        return record

    def fit(self, epochs: Optional[int] = None) -> TrainingHistory:
        """Train for ``epochs`` (default: the training config) and return the history.

        Starts from :meth:`restore_journal`'s epoch when a journal was
        restored.  With a ``journal_path`` and ``checkpoint_every > 0`` the
        resume journal is written (atomically) after every ``N``-th epoch; a
        ``KeyboardInterrupt`` mid-fit flushes a partial-progress record next
        to the journal before propagating, so an interrupted run reports how
        far it got and where to resume from.
        """
        target = epochs if epochs is not None else self.config.epochs
        every = self.config.checkpoint_every
        try:
            for epoch in range(self._start_epoch, target):
                self.train_epoch(epoch)
                if (self.journal_path is not None and every > 0
                        and (epoch + 1) % every == 0):
                    self.write_journal()
        except KeyboardInterrupt:
            self._flush_interrupt_record(target)
            raise
        self.model.eval()
        return self.history

    # ------------------------------------------------------------------ #
    # crash-resume journal
    # ------------------------------------------------------------------ #
    def write_journal(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Atomically persist everything needed to continue training.

        The journal is a checksummed :mod:`repro.core.persistence` archive
        holding the model parameters, the Adam moments/step, the states of
        every RNG the loop consumes (shuffle, negative sampling, contrastive
        sampling — dropout is counter-seeded per epoch and needs no state)
        and the epoch history.  It is written only at epoch boundaries, so
        its contents are never torn mid-epoch; resuming from it continues the
        exact RNG streams, making the final parameters bit-identical to an
        uninterrupted run.
        """
        from repro.core.persistence import write_archive

        path = Path(path) if path is not None else self.journal_path
        if path is None:
            raise ValueError("no journal path: pass one here or to Trainer()")
        backend = active_backend()
        arrays = {f"model/{name}": backend.to_numpy(array)
                  for name, array in self.model.state_dict().items()}
        optim_state = self.optimizer.state_dict()
        for index in range(len(optim_state["m"])):
            arrays[f"adam/m/{index}"] = backend.to_numpy(optim_state["m"][index])
            arrays[f"adam/v/{index}"] = backend.to_numpy(optim_state["v"][index])
        header = {
            "kind": "journal",
            "model_class": type(self.model).__name__,
            "seed": self.config.seed,
            "next_epoch": len(self.history.records) and self.history.records[-1].epoch + 1,
            "optimizer_step": optim_state["step"],
            "rng": {
                "trainer": self._rng.bit_generator.state,
                "negative_sampler": self._negative_sampler._rng.bit_generator.state,
                "contrastive_sampler": self._contrastive_sampler._rng.bit_generator.state,
            },
            "history": [dataclasses.asdict(record) for record in self.history.records],
        }
        return write_archive(path, header, arrays)

    def restore_journal(self, path: Optional[Union[str, Path]] = None) -> int:
        """Load a :meth:`write_journal` archive and arm :meth:`fit` to resume.

        Returns the epoch index training will continue from.  The journal
        must match this trainer's model class and seed — resuming a
        different configuration would silently produce a hybrid run.
        """
        from repro.core.persistence import read_archive

        path = Path(path) if path is not None else self.journal_path
        if path is None:
            raise ValueError("no journal path: pass one here or to Trainer()")
        header, arrays = read_archive(path)
        if header.get("kind") != "journal":
            raise ValueError(
                f"{path} is a {header.get('kind', 'model')!r} archive, "
                "not a training journal")
        if header.get("model_class") != type(self.model).__name__:
            raise ValueError(
                f"journal {path} was written for model class "
                f"{header.get('model_class')!r}, not {type(self.model).__name__!r}")
        if header.get("seed") != self.config.seed:
            raise ValueError(
                f"journal {path} was written under training seed "
                f"{header.get('seed')!r}, not {self.config.seed!r}; resuming "
                "would mix two different RNG streams")
        model_state = {name[len("model/"):]: array
                       for name, array in arrays.items()
                       if name.startswith("model/")}
        self.model.load_state_dict(model_state)
        moments = sum(1 for name in arrays if name.startswith("adam/m/"))
        self.optimizer.load_state_dict({
            "step": header["optimizer_step"],
            "m": [arrays[f"adam/m/{index}"] for index in range(moments)],
            "v": [arrays[f"adam/v/{index}"] for index in range(moments)],
        })
        rng = header["rng"]
        self._rng.bit_generator.state = rng["trainer"]
        self._negative_sampler._rng.bit_generator.state = rng["negative_sampler"]
        self._contrastive_sampler._rng.bit_generator.state = rng["contrastive_sampler"]
        self.history.records = [EpochRecord(**record)
                                for record in header["history"]]
        self._start_epoch = int(header["next_epoch"])
        return self._start_epoch

    def _flush_interrupt_record(self, target_epochs: int) -> None:
        """Record partial progress on Ctrl-C (best effort, atomic)."""
        if self.journal_path is None:
            return
        completed = len(self.history.records)
        progress_path = self.journal_path.with_name(
            self.journal_path.stem + ".progress.json")
        try:
            atomic_write_json(progress_path, {
                "kind": "training-interrupt",
                "completed_epochs": completed,
                "target_epochs": target_epochs,
                "journal": str(self.journal_path) if self.journal_path.exists() else None,
            })
        except OSError:
            # Flushing progress must never mask the interrupt itself.
            pass
