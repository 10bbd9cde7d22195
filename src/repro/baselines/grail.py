"""GraIL (Teru et al., 2020): inductive relation prediction by subgraph reasoning.

GraIL is the structural ancestor of the paper's GSM module.  It extracts the
*pruned* enclosing subgraph around a target link (nodes that are not within
``t`` hops of both endpoints are dropped), labels nodes with the
double-radius scheme, encodes the subgraph with an attention R-GCN and scores
the link from the pooled graph, head, tail and relation vectors.  It therefore
handles enclosing links but degenerates on bridging links: the pruned subgraph
around a bridging link contains only the two endpoints and no connecting
structure.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.module import Module
from repro.autodiff.optim import Adam, clip_grad_norm
from repro.autodiff.tensor import Tensor, no_grad
from repro.baselines.base import LinkPredictor
from repro.core.gsm import GSM
from repro.core.persistence import CheckpointableModule
from repro.kg.graph import KnowledgeGraph
from repro.kg.sampling import NegativeSampler
from repro.kg.triple import Triple
from repro.registry import register_model
from repro.subgraph.provider import SubgraphProvider, masked_edges


@register_model("Grail", description="inductive subgraph reasoning (attention R-GCN over pruned enclosing subgraphs)")
class Grail(CheckpointableModule, LinkPredictor, Module):
    """Subgraph-reasoning baseline (GraIL)."""

    name = "Grail"
    improved_labeling = False
    use_relation_correlation = False

    def __init__(self, num_entities: int = 0, num_relations: int = 1, embedding_dim: int = 32,
                 hops: int = 2, num_layers: int = 2, margin: float = 1.0,
                 learning_rate: float = 0.01, batch_size: int = 16,
                 edge_dropout: float = 0.5, seed: Optional[int] = 0,
                 cache_size: int = 4096, **_ignored):
        Module.__init__(self)
        self.num_relations = num_relations
        self.margin = margin
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.seed = seed
        self._checkpoint_init = dict(
            num_entities=num_entities, num_relations=num_relations,
            embedding_dim=embedding_dim, hops=hops, num_layers=num_layers,
            margin=margin, learning_rate=learning_rate, batch_size=batch_size,
            edge_dropout=edge_dropout, seed=seed,
            cache_size=cache_size)
        self.gsm = GSM(
            num_relations,
            hidden_dim=embedding_dim,
            hops=hops,
            num_layers=num_layers,
            edge_dropout=edge_dropout,
            improved_labeling=self.improved_labeling,
            rng=np.random.default_rng(seed),
            dropout_seed=seed,
        )
        #: Pinned-LRU extraction cache shared by the fit loop's batches;
        #: relation-agnostic entries, masked per candidate when scoring.
        self.subgraph_provider = SubgraphProvider(
            hops=hops, improved_labeling=self.improved_labeling,
            max_nodes=self.gsm.max_subgraph_nodes, cache_size=cache_size)
        self._context: Optional[KnowledgeGraph] = None
        self._rng = np.random.default_rng(seed)

    def use_subgraph_provider(self, provider: SubgraphProvider) -> None:
        """Adopt a shared extraction provider (see ``share_provider``).

        Cached extractions are relation-agnostic, so Grail/TACT can share a
        provider with each other and with DEKG-ILP on the same context graph
        — provided the extraction signature (hops, improved labeling,
        max nodes) matches; a mismatch would change scores, so it raises.
        """
        expected = self.subgraph_provider.extraction_signature
        if provider.extraction_signature != expected:
            raise ValueError(
                f"provider signature {provider.extraction_signature} does not "
                f"match the model's extraction settings {expected}")
        self.subgraph_provider = provider

    # ------------------------------------------------------------------ #
    def _triple_score(self, graph: KnowledgeGraph, triple: Triple) -> Tensor:
        return self.gsm.score(graph, triple)

    def _batch_scores(self, graph: KnowledgeGraph, triples: Sequence[Triple]) -> Tensor:
        """Differentiable ``(n,)`` scores for a batch of triples.

        Subgraphs come from the provider (relation-agnostic, cache misses
        extracted in one multi-source BFS sweep, warm across corruptions and
        epochs); the scored link's edge is masked per candidate — identical
        to target-aware extraction — and the batch encodes as chunked
        block-diagonal union graphs.  Subclasses that add per-triple score
        terms override this.
        """
        subgraphs = self.subgraph_provider.get_many(
            graph, [(t.head, t.tail) for t in triples])
        edges_list = [masked_edges(graph, subgraph, triple)
                      for subgraph, triple in zip(subgraphs, triples)]
        return self.gsm.score_batch_chunked(subgraphs, [t.relation for t in triples],
                                            edges_list)

    def fit(self, train_graph: KnowledgeGraph, epochs: int = 10) -> "Grail":
        self.train()
        self._context = train_graph
        sampler = NegativeSampler(train_graph, num_negatives=1, seed=self.seed)
        optimizer = Adam(self.parameters(), lr=self.learning_rate)
        triples = train_graph.triples
        self.subgraph_provider.pin_pairs(
            train_graph, {(t.head, t.tail) for t in triples})
        for epoch in range(epochs):
            self.gsm.set_dropout_epoch(epoch)
            order = self._rng.permutation(len(triples))
            for start in range(0, len(triples), self.batch_size):
                batch = [triples[i] for i in order[start:start + self.batch_size]]
                if not batch:
                    continue
                negatives = [negs[0] for negs in sampler.sample_batch(batch)]
                optimizer.zero_grad()
                scores = self._batch_scores(train_graph, batch + negatives)
                rows = np.arange(len(batch), dtype=np.int64)
                loss = F.margin_ranking_loss(
                    scores.gather_rows(rows),
                    scores.gather_rows(len(batch) + rows),
                    self.margin,
                )
                loss.backward()
                norm = clip_grad_norm(self.parameters(), 5.0)
                if np.isfinite(norm):
                    optimizer.step()
        self.eval()
        return self

    # ------------------------------------------------------------------ #
    @property
    def context_graph(self) -> Optional[KnowledgeGraph]:
        """The graph bound by :meth:`set_context` (None before binding)."""
        return self._context

    def set_context(self, graph: KnowledgeGraph) -> None:
        self._context = graph

    def score(self, triple: Triple) -> float:
        if self._context is None:
            raise RuntimeError("call set_context(graph) before scoring")
        with no_grad():
            return float(self._triple_score(self._context, triple).data)

    def score_many(self, triples: Sequence[Triple]) -> np.ndarray:
        """Batched scoring over provider-cached extractions (``no_grad``).

        Shares :meth:`_batch_scores` with the fit loop, so ranking a true
        triple against its corrupted candidates reuses subgraph extractions
        across candidates and forms — which is also what makes the
        evaluator's true-pair pinning effective for this model family.
        """
        if self._context is None:
            raise RuntimeError("call set_context(graph) before scoring")
        triples = list(triples)
        if not triples:
            return np.zeros(0, dtype=np.float64)
        with no_grad():
            scores = self._batch_scores(self._context, triples)
        return np.asarray(scores.data, dtype=np.float64).copy()

    def num_parameters(self) -> int:
        return Module.num_parameters(self)
