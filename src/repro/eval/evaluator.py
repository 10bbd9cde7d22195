"""The end-to-end evaluation driver for one model on one benchmark dataset.

Ranking every test triple under head/tail (and optionally relation)
corruption is embarrassingly parallel over (triple, form) pairs, so
:meth:`Evaluator.evaluate` can fan the work list out across worker processes
(``workers=N``; see :mod:`repro.eval.sharding`).  Candidate draws are
counter-seeded per pair (:func:`repro.eval.ranking.candidate_rng`), which
makes the corruptions a pure function of ``(seed, triple_index,
form_index)`` — the metrics are bit-identical across worker counts, and
every model ranked by the same evaluator sees the same candidate sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import EvalConfig
from repro.datasets.benchmark import BenchmarkDataset
from repro.eval.metrics import RankingMetrics
from repro.eval.ranking import candidate_rng, filtered_candidates, rank_candidates
from repro.kg.triple import Triple

#: Scope tag per test triple: "enclosing", "bridging", or None (neither view).
ScopeTag = Optional[str]


@dataclass
class EvaluationResult:
    """Metrics for the mixed test set plus the enclosing-only / bridging-only views."""

    model_name: str
    dataset_name: str
    split_name: str
    overall: RankingMetrics = field(default_factory=RankingMetrics)
    enclosing: RankingMetrics = field(default_factory=RankingMetrics)
    bridging: RankingMetrics = field(default_factory=RankingMetrics)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Nested {scope: {metric: value}} dictionary."""
        return {
            "overall": self.overall.summary(),
            "enclosing": self.enclosing.summary(),
            "bridging": self.bridging.summary(),
        }

    def metric(self, name: str, scope: str = "overall") -> float:
        """Single metric lookup, e.g. ``result.metric("Hits@10", "bridging")``."""
        return self.summary()[scope][name]

    def merge(self, other: "EvaluationResult") -> "EvaluationResult":
        """Combine two partial results for the same (model, dataset, split).

        Used to reduce per-shard results after multiprocess evaluation; scope
        accumulators concatenate in operand order, so merging contiguous
        shards left-to-right reproduces the sequential rank lists exactly.
        """
        identity = (self.model_name, self.dataset_name, self.split_name)
        if identity != (other.model_name, other.dataset_name, other.split_name):
            raise ValueError(
                f"cannot merge results of different runs: {identity} vs "
                f"{(other.model_name, other.dataset_name, other.split_name)}")
        return EvaluationResult(
            model_name=self.model_name,
            dataset_name=self.dataset_name,
            split_name=self.split_name,
            overall=self.overall.merge(other.overall),
            enclosing=self.enclosing.merge(other.enclosing),
            bridging=self.bridging.merge(other.bridging),
        )


@dataclass
class ShardWorkload:
    """Everything a ranking pass needs, detached from the Evaluator object.

    One instance describes the *whole* work list — the flattened
    ``(triple, form)`` pairs in triple-major order — plus the candidate pool
    and filter state.  The sequential path runs it as a single shard
    ``[0, num_items)``; the multiprocess path pickles it once into every
    worker and hands each worker contiguous ``[start, stop)`` slices.
    Keeping both paths on this one ``run`` method is what guarantees they
    cannot drift apart.
    """

    model_name: str
    dataset_name: str
    split_name: str
    triples: List[Triple]
    scopes: List[ScopeTag]
    forms: Tuple[str, ...]
    entity_candidates: List[int]
    relation_candidates: List[int]
    known_facts: Set[Tuple[int, int, int]]
    max_candidates: Optional[int]
    seed: int
    hits_levels: Tuple[int, ...]

    @property
    def num_items(self) -> int:
        return len(self.triples) * len(self.forms)

    def _empty_result(self) -> EvaluationResult:
        return EvaluationResult(
            model_name=self.model_name,
            dataset_name=self.dataset_name,
            split_name=self.split_name,
            overall=RankingMetrics(hits_levels=self.hits_levels),
            enclosing=RankingMetrics(hits_levels=self.hits_levels),
            bridging=RankingMetrics(hits_levels=self.hits_levels),
        )

    def rank_item(self, model, item: int) -> int:
        """Rank work item ``item`` (a flattened (triple, form) index)."""
        triple_index, form_index = divmod(item, len(self.forms))
        triple = self.triples[triple_index]
        candidates = filtered_candidates(
            triple, self.forms[form_index],
            entity_candidates=self.entity_candidates,
            relation_candidates=self.relation_candidates,
            known_facts=self.known_facts,
            max_candidates=self.max_candidates,
            rng=candidate_rng(self.seed, triple_index, form_index),
        )
        # One batched call: the true triple and its same-target-link candidates
        # share subgraph extractions and a single GNN pass inside the model.
        scores = model.score_many([triple] + candidates)
        return rank_candidates(float(scores[0]), scores[1:])

    def run(self, model, start: int, stop: int) -> EvaluationResult:
        """Rank items ``[start, stop)`` and return the partial result.

        Models backed by a :class:`repro.subgraph.provider.SubgraphProvider`
        get their shard's true ``(head, tail)`` pairs pinned up front: every
        work item re-scores its true triple against a fresh churn of
        corrupted candidates, so pinning keeps the recurring true-pair
        extractions resident for the whole shard.
        """
        provider = getattr(model, "subgraph_provider", None)
        if provider is not None and stop > start:
            try:
                graph = model.context_graph
            except RuntimeError:  # scoring without a context fails later anyway
                graph = None
            if graph is not None:
                forms = len(self.forms)
                provider.pin_pairs(
                    graph,
                    {(t.head, t.tail)
                     for t in self.triples[start // forms:(stop - 1) // forms + 1]})
        result = self._empty_result()
        for item in range(start, stop):
            rank = self.rank_item(model, item)
            result.overall.add(rank)
            scope = self.scopes[item // len(self.forms)]
            if scope == "bridging":
                result.bridging.add(rank)
            elif scope == "enclosing":
                result.enclosing.add(rank)
        return result


class Evaluator:
    """Ranks test triples under the paper's filtered protocol.

    Parameters
    ----------
    dataset:
        The benchmark instance (provides the train graph, emerging graph and
        the mixed test triples).
    forms:
        Which prediction forms to evaluate; the paper uses head, tail and
        relation prediction.
    max_candidates:
        Cap on the number of corrupted candidates per (triple, form).  ``None``
        ranks against every entity/relation, which is exact but expensive for
        subgraph models; the default keeps CPU runs tractable while preserving
        relative ordering between models.
    seed:
        Base seed of the per-(triple, form) counter-seeded candidate draws.
    workers:
        Default number of worker processes for :meth:`evaluate` (overridable
        per call).  ``1`` ranks in-process; ``N > 1`` shards the work list
        across ``N`` spawned processes with per-worker model replicas.
    """

    def __init__(self, dataset: BenchmarkDataset, forms: Sequence[str] = ("head", "tail"),
                 max_candidates: Optional[int] = 50, seed: int = 0,
                 hits_levels: Sequence[int] = (1, 5, 10), workers: int = 1,
                 shard_timeout: Optional[float] = 300.0, shard_attempts: int = 3):
        # One validation path for both entry points: constructing the config
        # applies EvalConfig.__post_init__, so a typo'd prediction form or a
        # bad worker count fails here, not mid-evaluation inside a worker.
        config = EvalConfig(forms=tuple(forms), max_candidates=max_candidates,
                            hits_levels=tuple(hits_levels), seed=seed, workers=workers,
                            shard_timeout=shard_timeout, shard_attempts=shard_attempts)
        self.dataset = dataset
        self.forms = config.forms
        self.max_candidates = config.max_candidates
        self.hits_levels = config.hits_levels
        self.seed = config.seed
        self.workers = config.workers
        self.shard_timeout = config.shard_timeout
        self.shard_attempts = config.shard_attempts

        context = dataset.split.evaluation_graph()
        self._context = context
        self._entity_candidates = context.entities()
        self._relation_candidates = list(range(dataset.num_relations))
        self._known_facts: Set[Tuple[int, int, int]] = {
            t.astuple() for t in context.triples
        } | {t.astuple() for t in dataset.test_triples}

    @classmethod
    def from_config(cls, dataset: BenchmarkDataset, config: EvalConfig) -> "Evaluator":
        """Build an evaluator from an :class:`~repro.core.config.EvalConfig`."""
        return cls(dataset, forms=config.forms, max_candidates=config.max_candidates,
                   seed=config.seed, hits_levels=config.hits_levels,
                   workers=config.workers, shard_timeout=config.shard_timeout,
                   shard_attempts=config.shard_attempts)

    # ------------------------------------------------------------------ #
    @property
    def context_graph(self):
        """The graph visible to models at evaluation time (``G ∪ G'``)."""
        return self._context

    def _scope(self, triple: Triple) -> ScopeTag:
        if self.dataset.split.is_bridging(triple):
            return "bridging"
        if self.dataset.split.is_enclosing(triple):
            return "enclosing"
        return None

    def _workload(self, triples: List[Triple], model_name: str) -> ShardWorkload:
        return ShardWorkload(
            model_name=model_name,
            dataset_name=self.dataset.name,
            split_name=self.dataset.split_name,
            triples=triples,
            scopes=[self._scope(t) for t in triples],
            forms=self.forms,
            entity_candidates=self._entity_candidates,
            relation_candidates=self._relation_candidates,
            known_facts=self._known_facts,
            max_candidates=self.max_candidates,
            seed=self.seed,
            hits_levels=self.hits_levels,
        )

    def evaluate(self, model, test_triples: Optional[Sequence[Triple]] = None,
                 model_name: Optional[str] = None,
                 workers: Optional[int] = None,
                 on_event=None, on_interrupt=None) -> EvaluationResult:
        """Rank every test triple with ``model`` and aggregate the metrics.

        ``model`` must provide ``set_context(graph)`` and ``score_many(triples)``.
        With ``workers > 1`` the (triple, form) work list is split into
        contiguous shards ranked by spawned worker processes, each holding its
        own replica of ``model`` (attached from shared pages, or rebuilt from
        checkpoint bytes or a pickle); metrics are bit-identical to the
        in-process path for any worker count.  The workers are spawned once,
        by the first sharded call, and stay warm for later calls with the same
        worker count and environment; any supervision event retires them, so
        the next call starts on fresh workers.  Shard execution is supervised
        (per-shard ``shard_timeout``, ``shard_attempts`` retries with backoff,
        dead-worker reassignment, in-process degradation — see
        :mod:`repro.eval.sharding`), so a killed or hung worker delays the run
        instead of wedging or corrupting it.  ``on_event`` observes
        supervision events; ``on_interrupt(completed_shards, total_shards)``
        observes partial progress if the run is interrupted.  Two consequences
        of the replica design: the sharded path requires an eval-mode model (a
        training-mode model's dropout draws come from a mid-stream RNG no
        replica can reproduce, so it is rejected rather than silently
        diverging), and the context graph is bound worker-side — the parent
        ``model`` object is serialized, not mutated.
        """
        workers = self.workers if workers is None else workers
        if workers < 1:
            raise ValueError("workers must be >= 1")
        triples = list(test_triples) if test_triples is not None else list(self.dataset.test_triples)
        workload = self._workload(
            triples, model_name or getattr(model, "name", type(model).__name__))
        if workers == 1 or workload.num_items == 0:
            model.set_context(self._context)
            return workload.run(model, 0, workload.num_items)
        if getattr(model, "training", False):
            raise ValueError(
                "sharded evaluation requires an eval-mode model: call "
                "model.eval() first (training-mode dropout draws cannot be "
                "reproduced in worker replicas, which would break the "
                "bit-identity guarantee)")
        from repro.eval.sharding import evaluate_sharded
        from repro.resilience import RetryPolicy

        policy = RetryPolicy(timeout=self.shard_timeout,
                             max_attempts=self.shard_attempts)
        return evaluate_sharded(model, workload, self._context, workers,
                                policy=policy, on_event=on_event,
                                on_interrupt=on_interrupt)

    # ------------------------------------------------------------------ #
    def evaluate_many(self, models: Dict[str, object],
                      workers: Optional[int] = None) -> List[EvaluationResult]:
        """Evaluate several (already trained) models on the same test set.

        Every model is ranked against byte-identical candidate sets: draws
        are keyed by (seed, triple, form), not by how many draws happened
        before, so earlier evaluations cannot shift later ones.
        """
        return [self.evaluate(model, model_name=name, workers=workers)
                for name, model in models.items()]
