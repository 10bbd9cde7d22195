"""Batched-training equivalence, batched sampling, and optimizer-state tests.

The batched Trainer must be a pure performance change: same negatives,
same contrastive pairs, same losses, same parameter trajectory as the
sequential per-triple oracle (:class:`oracles.SequentialTrainer`) under a
fixed seed — with edge dropout disabled *and* enabled.  Dropout masks are
counter-seeded per ``(seed, epoch, layer, edge)``
(:mod:`repro.gnn.edge_dropout`), so an edge's keep/drop decision does not
depend on how subgraphs are batched into union graphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ModelConfig, TrainingConfig
from repro.core.contrastive import ContrastiveSampler
from repro.core.model import DEKGILP
from repro.core.trainer import Trainer
from repro.kg.graph import KnowledgeGraph
from repro.kg.sampling import NegativeSampler
from repro.kg.triple import Triple

from oracles import SequentialTrainer


@pytest.fixture(scope="module")
def training_graph() -> KnowledgeGraph:
    """A 40-entity synthetic KG big enough for multi-batch epochs."""
    rng = np.random.default_rng(11)
    tuples = sorted({
        (int(h), int(r), int(t))
        for h, r, t in zip(rng.integers(0, 40, 120),
                           rng.integers(0, 4, 120),
                           rng.integers(0, 40, 120))
    })
    return KnowledgeGraph(40, 4, [Triple(*t) for t in tuples])


def _fit(graph: KnowledgeGraph, batched: bool, epochs: int = 2,
         use_semantic: bool = True, use_topological: bool = True,
         edge_dropout: float = 0.0):
    model_config = ModelConfig(embedding_dim=8, gnn_hidden_dim=8,
                               edge_dropout=edge_dropout,
                               use_semantic=use_semantic,
                               use_topological=use_topological)
    training_config = TrainingConfig(epochs=epochs, batch_size=8, seed=0,
                                     contrastive_examples=1)
    model = DEKGILP(graph.num_relations, config=model_config, seed=0)
    trainer_class = Trainer if batched else SequentialTrainer
    trainer = trainer_class(model, graph, training_config)
    history = trainer.fit()
    return model, trainer, history


class TestBatchedSequentialEquivalence:
    def test_epoch_losses_match(self, training_graph):
        _, _, batched = _fit(training_graph, batched=True)
        _, _, sequential = _fit(training_graph, batched=False)
        np.testing.assert_allclose(batched.losses(), sequential.losses(),
                                   rtol=0.0, atol=1e-8)
        for record_b, record_s in zip(batched.records, sequential.records):
            assert record_b.ranking_loss == pytest.approx(record_s.ranking_loss, abs=1e-8)
            assert record_b.contrastive_loss == pytest.approx(record_s.contrastive_loss, abs=1e-8)

    def test_post_epoch_parameters_match(self, training_graph):
        model_b, _, _ = _fit(training_graph, batched=True)
        model_s, _, _ = _fit(training_graph, batched=False)
        for (name, param_b), (_, param_s) in zip(model_b.named_parameters(),
                                                 model_s.named_parameters()):
            np.testing.assert_allclose(
                param_b.data, param_s.data, rtol=0.0, atol=1e-8,
                err_msg=f"parameter {name} diverged between batched and sequential")

    def test_epoch_losses_match_with_dropout_enabled(self, training_graph):
        """Counter-seeded masks make the two paths equal with dropout ON."""
        model_b, _, batched = _fit(training_graph, batched=True, edge_dropout=0.5)
        model_s, _, sequential = _fit(training_graph, batched=False, edge_dropout=0.5)
        np.testing.assert_allclose(batched.losses(), sequential.losses(),
                                   rtol=0.0, atol=1e-8)
        for (name, param_b), (_, param_s) in zip(model_b.named_parameters(),
                                                 model_s.named_parameters()):
            np.testing.assert_allclose(
                param_b.data, param_s.data, rtol=0.0, atol=1e-8,
                err_msg=f"parameter {name} diverged with dropout enabled")

    def test_dropout_masks_redraw_across_epochs_and_differ_from_off(self, training_graph):
        model, _, with_dropout = _fit(training_graph, batched=True, epochs=2,
                                      edge_dropout=0.5)
        _, _, without = _fit(training_graph, batched=True, epochs=2)
        assert with_dropout.losses() != without.losses()
        # The trainer must have advanced the dropout clock every epoch —
        # frozen-clock regressions would silently reuse epoch-0 masks.
        assert model.gsm.encoder.dropout_clock.epoch == 1

    def test_equivalence_holds_per_module_ablation(self, training_graph):
        for use_semantic, use_topological in ((True, False), (False, True)):
            _, _, batched = _fit(training_graph, batched=True, epochs=1,
                                 use_semantic=use_semantic,
                                 use_topological=use_topological)
            _, _, sequential = _fit(training_graph, batched=False, epochs=1,
                                    use_semantic=use_semantic,
                                    use_topological=use_topological)
            np.testing.assert_allclose(batched.losses(), sequential.losses(),
                                       rtol=0.0, atol=1e-8)

    def test_forward_batch_matches_stacked_forward(self, training_graph):
        model, _, _ = _fit(training_graph, batched=True, epochs=1)
        model.eval()
        triples = training_graph.triples[:6] + [Triple(0, 1, 39), Triple(39, 0, 3)]
        batch_scores = model.forward_batch(triples).data
        single_scores = np.array([float(model.forward(t).data) for t in triples])
        np.testing.assert_allclose(batch_scores, single_scores, atol=1e-10)

    def test_cache_hit_rate_reported_for_batched_epochs(self, training_graph):
        _, trainer, history = _fit(training_graph, batched=True, epochs=2)
        # Epoch 2 re-scores every positive through the warm LRU.
        assert history.records[-1].cache_hit_rate > 0.0
        stats = trainer.model.subgraph_cache_stats()
        assert stats["hits"] > 0 and stats["misses"] > 0
        assert 0.0 < stats["hit_rate"] < 1.0
        trainer.model.reset_subgraph_cache_stats()
        assert np.isnan(trainer.model.subgraph_cache_stats()["hit_rate"])

    def test_sequential_epochs_report_nan_hit_rate(self, training_graph):
        _, _, history = _fit(training_graph, batched=False, epochs=1)
        assert np.isnan(history.records[0].cache_hit_rate)


class TestBatchedNegativeSampler:
    def test_deterministic_per_seed(self, training_graph):
        triples = training_graph.triples[:10]
        first = NegativeSampler(training_graph, num_negatives=3, seed=9).sample_batch(triples)
        second = NegativeSampler(training_graph, num_negatives=3, seed=9).sample_batch(triples)
        assert first == second
        third = NegativeSampler(training_graph, num_negatives=3, seed=10).sample_batch(triples)
        assert first != third

    def test_shapes_and_filtering(self, training_graph):
        triples = training_graph.triples[:10]
        batches = NegativeSampler(training_graph, num_negatives=2, seed=0).sample_batch(triples)
        assert len(batches) == 10
        for positive, negatives in zip(triples, batches):
            assert len(negatives) == 2
            for negative in negatives:
                assert negative not in training_graph
                assert negative.relation == positive.relation
                # exactly one endpoint is corrupted
                assert (negative.head != positive.head) != (negative.tail != positive.tail)

    def test_empty_batch(self, training_graph):
        assert NegativeSampler(training_graph, seed=0).sample_batch([]) == []


class TestBatchedContrastiveSampler:
    def test_shapes_and_entity_major_order(self):
        rng = np.random.default_rng(2)
        tables = np.abs(rng.normal(2.0, 1.0, size=(5, 4))).round()
        sampler = ContrastiveSampler(seed=1)
        anchors, positives, negatives = sampler.sample_pairs_batch(tables, num_pairs=3)
        assert anchors.shape == positives.shape == negatives.shape == (15, 4)
        np.testing.assert_array_equal(anchors[0:3], np.repeat(tables[:1], 3, axis=0))

    def test_deterministic_per_seed(self):
        tables = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 1.0]])
        a1 = ContrastiveSampler(seed=4).sample_pairs_batch(tables, num_pairs=2)
        a2 = ContrastiveSampler(seed=4).sample_pairs_batch(tables, num_pairs=2)
        for first, second in zip(a1, a2):
            np.testing.assert_array_equal(first, second)

    def test_positive_preserves_support_negative_changes_it(self):
        # o1 (variation) only rewrites counts of already-present relations, so
        # the positive's support must equal the anchor's; o2/o3 change it.
        tables = np.array([[2.0, 0.0, 1.0, 4.0]] * 8)
        sampler = ContrastiveSampler(seed=0)
        anchors, positives, negatives = sampler.sample_pairs_batch(tables, num_pairs=1)
        np.testing.assert_array_equal(positives > 0, anchors > 0)
        assert any(((n > 0) != (a > 0)).any() for n, a in zip(negatives, anchors))

    def test_all_zero_row_survives(self):
        tables = np.zeros((3, 4))
        sampler = ContrastiveSampler(seed=0)
        anchors, positives, negatives = sampler.sample_pairs_batch(tables, num_pairs=1)
        np.testing.assert_array_equal(positives, anchors)  # no present relation to vary
        # additions can still fire on the all-zero rows
        assert negatives.shape == (3, 4)


class TestSkippedBatchOptimizerState:
    def test_skipped_batch_leaves_adam_state_untouched(self, training_graph):
        """A non-finite batch must not advance Adam's step/moment buffers."""
        model_config = ModelConfig(embedding_dim=8, gnn_hidden_dim=8, edge_dropout=0.0)
        training_config = TrainingConfig(epochs=1, batch_size=8, seed=0)
        model = DEKGILP(training_graph.num_relations, config=model_config, seed=0)
        trainer = Trainer(model, training_graph, training_config)

        def poisoned_loss(batch):
            return (model.clrm.relation_features * np.nan).sum()

        trainer._ranking_loss = poisoned_loss
        params_before = {name: p.data.copy() for name, p in model.named_parameters()}
        step_before = trainer.optimizer._step
        m_before = [m.copy() for m in trainer.optimizer._m]
        v_before = [v.copy() for v in trainer.optimizer._v]

        record = trainer.train_epoch(0)

        assert record.skipped_batches > 0
        assert trainer.optimizer._step == step_before
        for m_now, m_then in zip(trainer.optimizer._m, m_before):
            np.testing.assert_array_equal(m_now, m_then)
        for v_now, v_then in zip(trainer.optimizer._v, v_before):
            np.testing.assert_array_equal(v_now, v_then)
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, params_before[name],
                                          err_msg=f"{name} moved on a skipped batch")
