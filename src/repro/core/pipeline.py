"""High-level link-prediction pipeline.

Wraps dataset handling, training and querying behind a small API aimed at
downstream users who just want answers to queries such as ``(head, relation, ?)``
over an evolving KG:

>>> pipeline = LinkPredictionPipeline.from_graphs(original, emerging)
>>> pipeline.fit(epochs=3)
>>> pipeline.predict_tail(head="thunder", relation="employ", k=3)

Any registered model can drive the pipeline (``model="Grail"``); the default
is the full DEKG-ILP model.  Trainer-driven models are optimized by
:class:`~repro.core.trainer.Trainer`, self-training baselines by their own
``fit`` loop — the registry's capability flag decides, so the pipeline has
no per-model branching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import ModelConfig, TrainingConfig
from repro.core.trainer import Trainer, TrainingHistory
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple

EntityRef = Union[int, str]
RelationRef = Union[int, str]


@dataclass(frozen=True)
class Prediction:
    """One ranked candidate returned by a pipeline query."""

    triple: Triple
    score: float
    entity_name: Optional[str] = None
    relation_name: Optional[str] = None


class LinkPredictionPipeline:
    """Train a registered model on an original KG and answer queries over the merged KG."""

    def __init__(self, original: KnowledgeGraph, emerging: Optional[KnowledgeGraph] = None,
                 model_config: Optional[ModelConfig] = None,
                 training_config: Optional[TrainingConfig] = None,
                 seed: int = 0, model: str = "DEKG-ILP"):
        from repro.registry import build_model, get_spec

        self.original = original
        self.emerging = emerging
        self.training_config = training_config or TrainingConfig()
        self.seed = seed
        self.model_name = model
        self._spec = get_spec(model)
        # Only an *explicit* model_config overrides the registry spec: the
        # ablation variants pin their own config fields (e.g. DEKG-ILP-R's
        # use_semantic=False), which a defaulted ModelConfig must not undo.
        # build_model raises for a model_config a baseline cannot honour.
        embedding_dim = (model_config or ModelConfig()).embedding_dim
        self.model = build_model(
            model,
            num_entities=original.num_entities,
            num_relations=original.num_relations,
            embedding_dim=embedding_dim,
            seed=seed,
            model_config=model_config)
        self.model_config = (self.model.config if self._spec.trainer_driven
                             else (model_config or ModelConfig()))
        self.history: Optional[TrainingHistory] = None
        self._context: Optional[KnowledgeGraph] = None
        self._vocabulary = original.vocabulary

    # ------------------------------------------------------------------ #
    @classmethod
    def from_graphs(cls, original: KnowledgeGraph, emerging: Optional[KnowledgeGraph] = None,
                    **kwargs) -> "LinkPredictionPipeline":
        """Convenience constructor mirroring the paper's G / G' terminology."""
        return cls(original, emerging, **kwargs)

    # ------------------------------------------------------------------ #
    def fit(self, epochs: Optional[int] = None) -> Optional[TrainingHistory]:
        """Train on the original KG, then bind the merged context for queries.

        Returns the :class:`TrainingHistory` for trainer-driven models and
        ``None`` for self-training baselines (their fit loops do not record
        per-epoch history).
        """
        from repro.experiment import check_training_config_applies

        check_training_config_applies(self.model_name, self.training_config)
        if self._spec.trainer_driven:
            training = self._spec.apply_training_overrides(self.training_config)
            trainer = Trainer(self.model, self.original, training)
            self.history = trainer.fit(epochs=epochs)
        else:
            self.model.fit(self.original,
                           epochs=self.training_config.epochs if epochs is None else epochs)
            self.history = None
        self._bind_context()
        return self.history

    def _bind_context(self) -> None:
        context = self.original if self.emerging is None else self.original.merge(self.emerging)
        self._context = context
        self.model.set_context(context)
        if hasattr(self.model, "eval"):
            self.model.eval()

    def update_emerging(self, emerging: KnowledgeGraph) -> None:
        """Swap in a new emerging KG without retraining (the inductive promise)."""
        self.emerging = emerging
        self._bind_context()

    # ------------------------------------------------------------------ #
    # reference resolution
    # ------------------------------------------------------------------ #
    def _entity_id(self, entity: EntityRef) -> int:
        if isinstance(entity, str):
            if self._vocabulary is None:
                raise ValueError("graph has no vocabulary; pass integer entity ids")
            return self._vocabulary.entity_id(entity)
        return int(entity)

    def _relation_id(self, relation: RelationRef) -> int:
        if isinstance(relation, str):
            if self._vocabulary is None:
                raise ValueError("graph has no vocabulary; pass integer relation ids")
            return self._vocabulary.relation_id(relation)
        return int(relation)

    def _entity_name(self, entity_id: int) -> Optional[str]:
        if self._vocabulary is None:
            return None
        return self._vocabulary.entity_name(entity_id)

    def _candidate_entities(self) -> List[int]:
        if self._context is None:
            raise RuntimeError("call fit() (or update_emerging) before querying")
        return self._context.entities()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def score(self, head: EntityRef, relation: RelationRef, tail: EntityRef) -> float:
        """Score one candidate fact."""
        triple = Triple(self._entity_id(head), self._relation_id(relation), self._entity_id(tail))
        return self.model.score(triple)

    def predict_tail(self, head: EntityRef, relation: RelationRef, k: int = 10,
                     candidates: Optional[Sequence[EntityRef]] = None) -> List[Prediction]:
        """Rank tails for ``(head, relation, ?)`` and return the top ``k``."""
        head_id = self._entity_id(head)
        relation_id = self._relation_id(relation)
        candidate_ids = ([self._entity_id(c) for c in candidates]
                         if candidates is not None else self._candidate_entities())
        triples = [Triple(head_id, relation_id, tail) for tail in candidate_ids if tail != head_id]
        return self._rank(triples, k)

    def predict_head(self, relation: RelationRef, tail: EntityRef, k: int = 10,
                     candidates: Optional[Sequence[EntityRef]] = None) -> List[Prediction]:
        """Rank heads for ``(?, relation, tail)`` and return the top ``k``."""
        tail_id = self._entity_id(tail)
        relation_id = self._relation_id(relation)
        candidate_ids = ([self._entity_id(c) for c in candidates]
                         if candidates is not None else self._candidate_entities())
        triples = [Triple(head, relation_id, tail_id) for head in candidate_ids if head != tail_id]
        return self._rank(triples, k, ranked="head")

    def predict_relation(self, head: EntityRef, tail: EntityRef, k: int = 5) -> List[Prediction]:
        """Rank relations for ``(head, ?, tail)`` and return the top ``k``."""
        head_id = self._entity_id(head)
        tail_id = self._entity_id(tail)
        triples = [Triple(head_id, relation, tail_id)
                   for relation in range(self.original.num_relations)]
        return self._rank(triples, k, ranked="relation")

    def _rank(self, triples: List[Triple], k: int, ranked: str = "tail") -> List[Prediction]:
        """Top ``k`` of ``triples`` by score.  ``entity_name`` names the
        ranked head for ``ranked="head"``, else the tail; ``relation_name``
        is filled for ``ranked="relation"``."""
        if not triples:
            return []
        scores = self.model.score_many(triples)
        order = np.argsort(-scores)[:k]
        predictions = []
        for index in order:
            triple = triples[int(index)]
            relation_name = None
            if ranked == "relation" and self._vocabulary is not None:
                relation_name = self._vocabulary.relation_name(triple.relation)
            predictions.append(Prediction(
                triple=triple,
                score=float(scores[int(index)]),
                entity_name=self._entity_name(
                    triple.head if ranked == "head" else triple.tail),
                relation_name=relation_name,
            ))
        return predictions
