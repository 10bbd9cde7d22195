"""Tests for every baseline model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    ComplEx,
    ConvE,
    DistMult,
    GEN,
    Grail,
    HolE,
    ProjE,
    RotatE,
    RuleN,
    SimplE,
    TACT,
    TransE,
)
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.registry import registered_models

EMBEDDING_CLASSES = [TransE, RotatE, DistMult, ConvE,
                     ComplEx, HolE, ProjE, SimplE]


@pytest.fixture
def train_graph(small_synthetic_graph):
    return small_synthetic_graph


class TestRegistry:
    @staticmethod
    def _baselines():
        return {name: spec.factory for name, spec in registered_models().items()
                if not spec.trainer_driven}

    def test_all_paper_baselines_present(self):
        assert set(self._baselines()) == {"TransE", "RotatE", "DistMult", "ConvE",
                                          "ComplEx", "HolE", "ProjE", "SimplE",
                                          "GEN", "RuleN", "Grail", "TACT"}

    def test_registry_values_are_classes(self):
        for cls in self._baselines().values():
            assert isinstance(cls, type)


@pytest.mark.parametrize("model_cls", EMBEDDING_CLASSES)
class TestEmbeddingModels:
    def test_fit_and_score(self, model_cls, train_graph):
        model = model_cls(train_graph.num_entities, train_graph.num_relations,
                          embedding_dim=16, seed=0)
        model.fit(train_graph, epochs=1)
        score = model.score(train_graph.triples[0])
        assert np.isfinite(score)

    def test_score_many_matches_score(self, model_cls, train_graph):
        model = model_cls(train_graph.num_entities, train_graph.num_relations,
                          embedding_dim=16, seed=0)
        model.fit(train_graph, epochs=1)
        triples = train_graph.triples[:5]
        many = model.score_many(triples)
        singles = [model.score(t) for t in triples]
        np.testing.assert_allclose(many, singles, rtol=1e-10)

    def test_num_parameters_positive(self, model_cls, train_graph):
        model = model_cls(train_graph.num_entities, train_graph.num_relations, embedding_dim=8)
        assert model.num_parameters() > 0

    def test_training_separates_positive_and_negative(self, model_cls, train_graph):
        model = model_cls(train_graph.num_entities, train_graph.num_relations,
                          embedding_dim=16, seed=0, learning_rate=0.05)
        model.fit(train_graph, epochs=5)
        rng = np.random.default_rng(0)
        positives = train_graph.triples[:30]
        entity_pool = train_graph.entities()
        negatives = [Triple(int(rng.choice(entity_pool)), t.relation, int(rng.choice(entity_pool)))
                     for t in positives]
        negatives = [t for t in negatives if t not in train_graph]
        pos_mean = model.score_many(positives).mean()
        neg_mean = model.score_many(negatives).mean()
        assert pos_mean > neg_mean


class TestInductiveAdaptation:
    def test_unseen_entities_get_random_embeddings(self, train_graph):
        # Train on a graph that uses only a subset of the declared entity ids.
        sub_entities = set(train_graph.entities()[:60])
        sub = train_graph.subgraph(sub_entities)
        model = TransE(train_graph.num_entities, train_graph.num_relations,
                       embedding_dim=8, seed=0)
        before = model.entity_embeddings.weight.data.copy()
        model.fit(sub, epochs=1)
        unseen = [e for e in range(train_graph.num_entities) if e not in set(sub.entities())]
        assert unseen
        after = model.entity_embeddings.weight.data
        # unseen rows were re-randomized, i.e. not equal to their initialization
        assert not np.allclose(before[unseen], after[unseen])


class TestTransEGeometry:
    def test_perfect_translation_scores_zero_distance(self):
        model = TransE(3, 1, embedding_dim=4, seed=0)
        model.entity_embeddings.weight.data[0] = np.array([1.0, 0, 0, 0])
        model.relation_embeddings.weight.data[0] = np.array([0.0, 1, 0, 0])
        model.entity_embeddings.weight.data[1] = np.array([1.0, 1, 0, 0])
        assert model.score(Triple(0, 0, 1)) == pytest.approx(0.0, abs=1e-5)

    def test_worse_translation_scores_lower(self):
        model = TransE(3, 1, embedding_dim=4, seed=0)
        model.entity_embeddings.weight.data[0] = np.array([1.0, 0, 0, 0])
        model.relation_embeddings.weight.data[0] = np.array([0.0, 1, 0, 0])
        model.entity_embeddings.weight.data[1] = np.array([1.0, 1, 0, 0])
        model.entity_embeddings.weight.data[2] = np.array([5.0, 5, 0, 0])
        assert model.score(Triple(0, 0, 1)) > model.score(Triple(0, 0, 2))


class TestRotatEGeometry:
    def test_zero_phase_is_identity_rotation(self):
        model = RotatE(2, 1, embedding_dim=2, seed=0)
        model.relation_embeddings.weight.data[0] = np.zeros(2)
        model.entity_embeddings.weight.data[0] = np.array([1.0, 2.0, 3.0, 4.0])
        model.entity_embeddings.weight.data[1] = np.array([1.0, 2.0, 3.0, 4.0])
        assert model.score(Triple(0, 0, 1)) == pytest.approx(0.0, abs=1e-5)

    def test_entity_dim_is_doubled(self):
        model = RotatE(2, 1, embedding_dim=6)
        assert model.entity_embeddings.weight.data.shape == (2, 12)


class TestComplExGeometry:
    def test_score_matches_hermitian_product(self):
        model = ComplEx(3, 2, embedding_dim=3, seed=0)
        d = model.embedding_dim
        entities = model.entity_embeddings.weight.data
        relations = model.relation_embeddings.weight.data
        h, r, t = entities[0], relations[1], entities[2]
        expected = np.sum(h[:d] * r[:d] * t[:d]
                          + h[d:] * r[:d] * t[d:]
                          + h[:d] * r[d:] * t[d:]
                          - h[d:] * r[d:] * t[:d])
        assert model.score(Triple(0, 1, 2)) == pytest.approx(expected)

    def test_real_embeddings_reduce_to_distmult(self):
        # With all imaginary blocks zeroed, the Hermitian product collapses
        # to DistMult's symmetric trilinear form.
        model = ComplEx(3, 1, embedding_dim=4, seed=0)
        d = model.embedding_dim
        model.entity_embeddings.weight.data[:, d:] = 0.0
        model.relation_embeddings.weight.data[:, d:] = 0.0
        assert model.score(Triple(0, 0, 1)) == pytest.approx(
            model.score(Triple(1, 0, 0)))

    def test_entity_dim_is_doubled(self):
        model = ComplEx(2, 1, embedding_dim=6)
        assert model.entity_embeddings.weight.data.shape == (2, 12)


class TestHolEGeometry:
    def test_score_matches_explicit_circular_correlation(self):
        model = HolE(3, 2, embedding_dim=5, seed=0)
        h = model.entity_embeddings.weight.data[0]
        r = model.relation_embeddings.weight.data[1]
        t = model.entity_embeddings.weight.data[2]
        correlation = np.array([
            sum(h[i] * t[(k + i) % 5] for i in range(5)) for k in range(5)
        ])
        assert model.score(Triple(0, 1, 2)) == pytest.approx(r @ correlation)

    def test_correlation_is_asymmetric(self):
        model = HolE(3, 1, embedding_dim=4, seed=0)
        assert model.score(Triple(0, 0, 1)) != pytest.approx(
            model.score(Triple(1, 0, 0)), abs=1e-9)


class TestProjEGeometry:
    def test_score_matches_projection_formula(self):
        model = ProjE(3, 2, embedding_dim=4, seed=0)
        h = model.entity_embeddings.weight.data[0]
        r = model.relation_embeddings.weight.data[1]
        t = model.entity_embeddings.weight.data[2]
        combined = np.tanh(h * model.entity_scale.data
                           + r * model.relation_scale.data
                           + model.combination_bias.data)
        assert model.score(Triple(0, 1, 2)) == pytest.approx(combined @ t)

    def test_projection_vectors_are_learned(self, train_graph):
        model = ProjE(train_graph.num_entities, train_graph.num_relations,
                      embedding_dim=8, seed=0)
        before = model.entity_scale.data.copy()
        assert model.num_parameters() > 2 * model.entity_embeddings.weight.data.size // 2
        model.fit(train_graph, epochs=1)
        assert not np.allclose(before, model.entity_scale.data)


class TestSimplEGeometry:
    def test_score_averages_forward_and_inverse_products(self):
        model = SimplE(3, 2, embedding_dim=3, seed=0)
        d = model.embedding_dim
        h = model.entity_embeddings.weight.data[0]
        r = model.relation_embeddings.weight.data[1]
        t = model.entity_embeddings.weight.data[2]
        forward = np.sum(h[:d] * r[:d] * t[d:])
        inverse = np.sum(t[:d] * r[d:] * h[d:])
        assert model.score(Triple(0, 1, 2)) == pytest.approx(
            0.5 * (forward + inverse))

    def test_entity_and_relation_dims_are_doubled(self):
        model = SimplE(2, 1, embedding_dim=6)
        assert model.entity_embeddings.weight.data.shape == (2, 12)
        assert model.relation_embeddings.weight.data.shape == (1, 12)


class TestConvE:
    def test_embedding_dim_too_small_rejected(self):
        with pytest.raises(ValueError):
            ConvE(4, 2, embedding_dim=2, kernel_size=3)

    def test_patch_index_shape(self):
        model = ConvE(4, 2, embedding_dim=16, num_filters=4, kernel_size=3)
        # 16 -> 4x4 grid, stacked -> 8x4 image, 3x3 kernel -> 6x2 patches
        assert model._patch_index.shape == (12, 9)

    def test_gradients_reach_filters(self, train_graph):
        model = ConvE(train_graph.num_entities, train_graph.num_relations,
                      embedding_dim=16, seed=0)
        array = train_graph.triple_array()[:8]
        loss = model.score_batch(array[:, 0], array[:, 1], array[:, 2]).sum()
        loss.backward()
        assert model.filters.grad is not None


class TestGEN:
    def test_unseen_entity_aggregates_from_context(self, train_graph):
        model = GEN(train_graph.num_entities + 2, train_graph.num_relations,
                    embedding_dim=8, seed=0)
        model.fit(train_graph, epochs=1)
        # Give the unseen entity a neighbour in the context graph.
        context = train_graph.copy()
        unseen = train_graph.num_entities
        context = KnowledgeGraph(train_graph.num_entities + 2, train_graph.num_relations,
                                 context.triples)
        context.add_triple(Triple(unseen, 0, train_graph.entities()[0]))
        model.set_context(context)
        aggregated = model._entity_vector(unseen)
        random_vector = model.entity_embeddings.weight.data[unseen]
        assert not np.allclose(aggregated, random_vector)

    def test_unseen_entity_without_neighbors_stays_random(self, train_graph):
        model = GEN(train_graph.num_entities + 2, train_graph.num_relations,
                    embedding_dim=8, seed=0)
        model.fit(train_graph, epochs=1)
        model.set_context(train_graph)
        unseen = train_graph.num_entities + 1
        np.testing.assert_array_equal(
            model._entity_vector(unseen), model.entity_embeddings.weight.data[unseen]
        )

    def test_scores_finite(self, train_graph):
        model = GEN(train_graph.num_entities, train_graph.num_relations, embedding_dim=8, seed=0)
        model.fit(train_graph, epochs=1)
        model.set_context(train_graph)
        assert np.isfinite(model.score_many(train_graph.triples[:5])).all()


class TestRuleN:
    def test_mines_rules_on_compositional_graph(self, train_graph):
        model = RuleN(min_support=2, min_confidence=0.01)
        model.fit(train_graph)
        assert model.num_rules() > 0

    def test_scores_in_unit_interval(self, train_graph):
        model = RuleN(min_support=1, min_confidence=0.0)
        model.fit(train_graph)
        model.set_context(train_graph)
        scores = model.score_many(train_graph.triples[:20])
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_triple_with_supporting_path_outscores_random(self, train_graph):
        model = RuleN(min_support=1, min_confidence=0.0)
        model.fit(train_graph)
        model.set_context(train_graph)
        supported = max((model.score(t) for t in train_graph.triples[:50]), default=0.0)
        isolated = model.score(Triple(0, 0, 0))
        assert supported >= isolated

    def test_no_context_scores_zero(self, train_graph):
        model = RuleN(min_support=1, min_confidence=0.0)
        model.fit(train_graph)
        assert model.score(train_graph.triples[0]) == 0.0

    def test_rule_confidences_bounded(self, train_graph):
        model = RuleN(min_support=1, min_confidence=0.0)
        model.fit(train_graph)
        for rules in list(model.unary_rules.values()) + list(model.path_rules.values()):
            for confidence, _ in rules:
                assert 0.0 <= confidence <= 1.0


class TestGrailAndTACT:
    @pytest.fixture
    def small_train_graph(self, tiny_graph):
        return tiny_graph

    def test_grail_fit_and_score(self, small_train_graph):
        model = Grail(num_relations=3, embedding_dim=8, edge_dropout=0.0, seed=0)
        model.fit(small_train_graph, epochs=1)
        assert np.isfinite(model.score(Triple(0, 1, 2)))

    def test_grail_requires_context(self):
        model = Grail(num_relations=3, embedding_dim=8, seed=0)
        with pytest.raises(RuntimeError):
            model.score(Triple(0, 0, 1))

    def test_grail_uses_pruned_labeling(self):
        model = Grail(num_relations=3, embedding_dim=8, seed=0)
        assert model.gsm.improved_labeling is False

    def test_tact_has_more_parameters_than_grail(self):
        grail = Grail(num_relations=5, embedding_dim=8, seed=0)
        tact = TACT(num_relations=5, embedding_dim=8, seed=0)
        assert tact.num_parameters() > grail.num_parameters()

    def test_tact_fit_and_score(self, small_train_graph):
        model = TACT(num_relations=3, embedding_dim=8, edge_dropout=0.0, seed=0)
        model.fit(small_train_graph, epochs=1)
        assert np.isfinite(model.score(Triple(0, 1, 2)))

    def test_tact_correlation_branch_contributes(self, small_train_graph):
        model = TACT(num_relations=3, embedding_dim=8, edge_dropout=0.0, seed=0)
        model.set_context(small_train_graph)
        model.eval()
        full = model.score(Triple(0, 1, 2))
        structural_only = float(model.gsm.score(small_train_graph, Triple(0, 1, 2)).data)
        assert full != pytest.approx(structural_only)

    def test_tact_relation_context_vanishes_for_bridging_links(self, small_train_graph):
        # The pruned subgraph around a bridging-like link (two far-apart
        # entities) has no edges, so TACT's relation context must be zero —
        # the behaviour that makes TACT collapse on bridging links.
        model = TACT(num_relations=3, embedding_dim=8, edge_dropout=0.0, seed=0)
        subgraph = model.gsm.extract(small_train_graph, Triple(0, 0, 5))
        head_counts = model._subgraph_relation_counts(subgraph.edges, subgraph.head_index())
        tail_counts = model._subgraph_relation_counts(subgraph.edges, subgraph.tail_index())
        assert head_counts.sum() == 0
        assert tail_counts.sum() == 0

    def test_grail_score_many(self, small_train_graph):
        model = Grail(num_relations=3, embedding_dim=8, edge_dropout=0.0, seed=0)
        model.set_context(small_train_graph)
        model.eval()
        scores = model.score_many([Triple(0, 1, 2), Triple(0, 0, 1)])
        assert scores.shape == (2,)
