"""Tests for the high-level pipeline, split serialization and multi-run evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ModelConfig, TrainingConfig
from repro.core.pipeline import LinkPredictionPipeline, Prediction
from repro.eval.multirun import run_with_seeds
from repro.kg.serialization import load_split, save_split
from repro.kg.split import build_inductive_split
from repro.kg.triple import Triple


def _small_pipeline(tiny_graph, emerging=None):
    config = ModelConfig(embedding_dim=8, gnn_hidden_dim=8, edge_dropout=0.0)
    training = TrainingConfig(epochs=1, batch_size=4, contrastive_examples=1, seed=0)
    return LinkPredictionPipeline(tiny_graph, emerging, model_config=config,
                                  training_config=training, seed=0)


class TestLinkPredictionPipeline:
    def test_fit_and_score(self, tiny_graph):
        pipeline = _small_pipeline(tiny_graph)
        history = pipeline.fit()
        assert history.records
        assert np.isfinite(pipeline.score(0, 0, 1))

    def test_score_by_name(self, tiny_graph):
        pipeline = _small_pipeline(tiny_graph)
        pipeline.fit()
        assert np.isfinite(pipeline.score("e0", "r0", "e1"))

    def test_predict_tail_returns_sorted_predictions(self, tiny_graph):
        pipeline = _small_pipeline(tiny_graph)
        pipeline.fit()
        predictions = pipeline.predict_tail(0, 0, k=3)
        assert 0 < len(predictions) <= 3
        assert all(isinstance(p, Prediction) for p in predictions)
        scores = [p.score for p in predictions]
        assert scores == sorted(scores, reverse=True)
        assert all(p.triple.head == 0 and p.triple.relation == 0 for p in predictions)

    def test_predict_head(self, tiny_graph):
        pipeline = _small_pipeline(tiny_graph)
        pipeline.fit()
        predictions = pipeline.predict_head(0, 2, k=2)
        assert all(p.triple.tail == 2 and p.triple.relation == 0 for p in predictions)

    def test_predictions_name_the_ranked_entity(self, tiny_graph):
        """Regression: head predictions were named after the fixed tail."""
        pipeline = _small_pipeline(tiny_graph)
        pipeline.fit()
        heads = pipeline.predict_head(0, 2, k=3)
        assert len(heads) == 3
        assert [p.entity_name for p in heads] == [f"e{p.triple.head}" for p in heads]
        tails = pipeline.predict_tail(0, 0, k=3)
        assert [p.entity_name for p in tails] == [f"e{p.triple.tail}" for p in tails]

    def test_predict_relation_covers_all_relations(self, tiny_graph):
        pipeline = _small_pipeline(tiny_graph)
        pipeline.fit()
        predictions = pipeline.predict_relation(0, 2, k=10)
        assert len(predictions) == tiny_graph.num_relations
        assert all(p.relation_name is not None for p in predictions)

    def test_candidate_restriction(self, tiny_graph):
        pipeline = _small_pipeline(tiny_graph)
        pipeline.fit()
        predictions = pipeline.predict_tail(0, 0, k=10, candidates=[1, 2])
        assert {p.triple.tail for p in predictions} <= {1, 2}

    def test_update_emerging_without_retraining(self, tiny_graph):
        from repro.kg.graph import KnowledgeGraph

        pipeline = _small_pipeline(tiny_graph)
        pipeline.fit()
        before_params = {name: value.copy() for name, value in pipeline.model.state_dict().items()}
        emerging = KnowledgeGraph(tiny_graph.num_entities, tiny_graph.num_relations,
                                  [Triple(4, 2, 5)])
        pipeline.update_emerging(emerging)
        after_params = pipeline.model.state_dict()
        for name, value in before_params.items():
            np.testing.assert_array_equal(value, after_params[name])
        assert pipeline.model.context_graph.contains(4, 2, 5)

    def test_entity_names_resolved_in_predictions(self, tiny_graph):
        pipeline = _small_pipeline(tiny_graph)
        pipeline.fit()
        predictions = pipeline.predict_tail("e0", "r0", k=1)
        assert predictions[0].entity_name is not None


class TestSplitSerialization:
    def test_roundtrip_preserves_counts(self, small_synthetic_graph, tmp_path):
        split = build_inductive_split(small_synthetic_graph, seed=0)
        save_split(split, tmp_path / "split")
        loaded = load_split(tmp_path / "split")
        assert loaded.original.num_triples() == split.original.num_triples()
        assert loaded.emerging.num_triples() == split.emerging.num_triples()
        assert len(loaded.enclosing_test) == len(split.enclosing_test)
        assert len(loaded.bridging_test) == len(split.bridging_test)

    def test_roundtrip_preserves_disconnection(self, small_synthetic_graph, tmp_path):
        split = build_inductive_split(small_synthetic_graph, seed=0)
        loaded = load_split(save_split(split, tmp_path / "split"))
        original_entities = set(loaded.original.entities())
        emerging_entities = set(loaded.emerging.entities())
        assert original_entities.isdisjoint(emerging_entities)
        for triple in loaded.bridging_test:
            assert loaded.is_bridging(triple)

    def test_expected_files_written(self, small_synthetic_graph, tmp_path):
        split = build_inductive_split(small_synthetic_graph, seed=0)
        root = save_split(split, tmp_path / "split")
        for filename in ("original.tsv", "emerging.tsv", "enclosing_test.tsv",
                         "bridging_test.tsv", "metadata.json"):
            assert (root / filename).exists()

    def test_save_requires_vocabulary(self, tmp_path):
        from repro.kg.graph import KnowledgeGraph

        raw = KnowledgeGraph(10, 2, [Triple(i, 0, i + 1) for i in range(8)])
        split = build_inductive_split(raw, seed=0)
        with pytest.raises(ValueError):
            save_split(split, tmp_path / "split")


class TestMultiRun:
    def test_aggregates_mean_and_std(self, small_benchmark):
        result = run_with_seeds("TransE", small_benchmark, seeds=(0, 1), epochs=1,
                                embedding_dim=8, max_candidates=10)
        mrr = result.metric("MRR")
        assert len(mrr.values) == 2
        assert mrr.mean == pytest.approx(np.mean(mrr.values))
        assert mrr.std == pytest.approx(np.std(mrr.values))
        assert 0.0 <= mrr.mean <= 1.0

    def test_scopes_present(self, small_benchmark):
        result = run_with_seeds("RuleN", small_benchmark, seeds=(0,), epochs=1,
                                max_candidates=10)
        assert set(result.metrics) == {"overall", "enclosing", "bridging"}
