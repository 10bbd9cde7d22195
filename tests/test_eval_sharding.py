"""Tests for multiprocess evaluation sharding and deterministic candidate draws.

Covers the three guarantees the sharded evaluator makes:

* merge algebra — ``RankingMetrics.merge`` / ``EvaluationResult.merge`` are
  associative with the empty accumulator as identity, so ordered shard
  reduction reproduces sequential rank lists;
* candidate-draw fairness — every model ranked by one evaluator sees
  byte-identical candidate sets (regression for the shared-RNG bug where
  model B was ranked against different corruptions than model A);
* worker-count invariance — ``workers=1`` and ``workers=4`` produce identical
  ``EvaluationResult.summary()`` down to the individual ranks.

It also pins the warm pool: consecutive calls reuse the same workers, and a
changed environment or a supervision event starts the next call on fresh
ones.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.config import EvalConfig, ModelConfig
from repro.core.model import DEKGILP
from repro.datasets.benchmark import build_benchmark
from repro.eval.evaluator import EvaluationResult, Evaluator
from repro.eval.metrics import RankingMetrics
from repro.eval.ranking import candidate_rng
from repro.eval.sharding import contiguous_shards, make_model_spec, restore_model
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.resilience import reset_fault_state, supervisor
from repro.shm import active_segments


def _metrics(ranks, hits_levels=(1, 5, 10)):
    metrics = RankingMetrics(hits_levels=hits_levels)
    metrics.extend(ranks)
    return metrics


class TestMergeAlgebra:
    def test_merge_is_associative(self):
        a, b, c = _metrics([1, 2]), _metrics([3]), _metrics([4, 5, 6])
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.ranks == right.ranks == [1, 2, 3, 4, 5, 6]
        assert left.summary() == right.summary()

    def test_empty_shard_is_identity(self):
        a = _metrics([1, 7, 3])
        empty = RankingMetrics(hits_levels=a.hits_levels)
        assert a.merge(empty).ranks == a.ranks
        assert empty.merge(a).ranks == a.ranks
        assert empty.merge(a).hits_levels == a.hits_levels

    def test_merge_rejects_mismatched_hits_levels(self):
        with pytest.raises(ValueError, match="hits levels"):
            _metrics([1], hits_levels=(1, 5)).merge(_metrics([2], hits_levels=(1, 10)))

    def test_evaluation_result_merge_concatenates_scopes(self):
        def partial(overall, enclosing, bridging):
            return EvaluationResult(
                model_name="m", dataset_name="d", split_name="EQ",
                overall=_metrics(overall), enclosing=_metrics(enclosing),
                bridging=_metrics(bridging))

        merged = partial([1, 2], [1], [2]).merge(partial([3], [], [3]))
        assert merged.overall.ranks == [1, 2, 3]
        assert merged.enclosing.ranks == [1]
        assert merged.bridging.ranks == [2, 3]

    def test_evaluation_result_merge_rejects_different_runs(self):
        a = EvaluationResult(model_name="a", dataset_name="d", split_name="EQ")
        b = EvaluationResult(model_name="b", dataset_name="d", split_name="EQ")
        with pytest.raises(ValueError, match="different runs"):
            a.merge(b)

    def test_contiguous_shards_cover_in_order(self):
        for num_items, num_shards in [(10, 3), (7, 7), (5, 12), (1, 1), (100, 16)]:
            bounds = contiguous_shards(num_items, num_shards)
            flat = [k for start, stop in bounds for k in range(start, stop)]
            assert flat == list(range(num_items))
            sizes = [stop - start for start, stop in bounds]
            assert max(sizes) - min(sizes) <= 1


class RecorderModel:
    """Constant scorer that records every candidate batch it is asked to rank."""

    def __init__(self, name):
        self.name = name
        self.batches = []

    def set_context(self, graph):
        pass

    def score_many(self, triples):
        self.batches.append([t.astuple() for t in triples])
        return np.zeros(len(triples))


class TestCandidateDeterminism:
    def test_models_see_identical_candidate_sets(self, small_benchmark):
        # Regression: the evaluator used to consume one shared RNG
        # sequentially, so the second model of evaluate_many was ranked
        # against different corruptions than the first.
        evaluator = Evaluator(small_benchmark, max_candidates=10, seed=0)
        first, second = RecorderModel("a"), RecorderModel("b")
        evaluator.evaluate_many({"a": first, "b": second})
        assert first.batches == second.batches
        assert len(first.batches) > 0

    def test_repeated_evaluation_is_identical(self, small_benchmark):
        evaluator = Evaluator(small_benchmark, max_candidates=10, seed=0)
        model = RecorderModel("a")
        once = evaluator.evaluate(model).summary()
        again = evaluator.evaluate(model).summary()
        assert once == again
        half = len(model.batches) // 2
        assert model.batches[:half] == model.batches[half:]

    def test_fresh_evaluator_same_seed_same_draws(self, small_benchmark):
        results = []
        for _ in range(2):
            model = RecorderModel("a")
            Evaluator(small_benchmark, max_candidates=10, seed=3).evaluate(model)
            results.append(model.batches)
        assert results[0] == results[1]

    def test_candidate_rng_is_pure_function_of_counter(self):
        a = candidate_rng(0, 5, 1).integers(0, 1000, 8)
        b = candidate_rng(0, 5, 1).integers(0, 1000, 8)
        c = candidate_rng(0, 6, 1).integers(0, 1000, 8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_candidate_rng_rejects_negative_components(self):
        with pytest.raises(ValueError):
            candidate_rng(-1, 0, 0)


@pytest.fixture(scope="module")
def tiny_dekgilp(small_benchmark):
    """A deterministic eval-mode DEKG-ILP (scoring cost, not training, matters)."""
    model = DEKGILP(small_benchmark.num_relations,
                    config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8, edge_dropout=0.0),
                    seed=0)
    model.eval()
    return model


class TestShardedEvaluation:
    def test_worker_invariance(self, small_benchmark, tiny_dekgilp):
        evaluator = Evaluator(small_benchmark, max_candidates=5, seed=0)
        triples = small_benchmark.test_triples[:6]
        sequential = evaluator.evaluate(tiny_dekgilp, test_triples=triples)
        sharded = evaluator.evaluate(tiny_dekgilp, test_triples=triples, workers=4)
        assert sharded.summary() == sequential.summary()
        assert sharded.overall.ranks == sequential.overall.ranks
        assert sharded.enclosing.ranks == sequential.enclosing.ranks
        assert sharded.bridging.ranks == sequential.bridging.ranks

    def test_workers_capped_by_items(self, small_benchmark, tiny_dekgilp):
        # More workers than (triple, form) items must still work and agree.
        evaluator = Evaluator(small_benchmark, max_candidates=5, seed=0)
        triples = small_benchmark.test_triples[:1]
        sequential = evaluator.evaluate(tiny_dekgilp, test_triples=triples)
        sharded = evaluator.evaluate(tiny_dekgilp, test_triples=triples, workers=8)
        assert sharded.summary() == sequential.summary()

    def test_invalid_worker_count_rejected(self, small_benchmark, tiny_dekgilp):
        evaluator = Evaluator(small_benchmark, max_candidates=5, seed=0)
        with pytest.raises(ValueError, match="workers"):
            evaluator.evaluate(tiny_dekgilp, workers=0)

    def test_training_mode_model_rejected_for_sharding(self, small_benchmark):
        # A training-mode model draws dropout from a mid-stream RNG a worker
        # replica cannot reproduce; refusing it keeps the bit-identity
        # guarantee unconditional instead of silently false.
        model = DEKGILP(small_benchmark.num_relations,
                        config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8),
                        seed=0)
        assert model.training
        evaluator = Evaluator(small_benchmark, max_candidates=5, seed=0)
        with pytest.raises(ValueError, match="eval-mode"):
            evaluator.evaluate(model, test_triples=small_benchmark.test_triples[:1],
                               workers=2)


def _warm_pids():
    warm = supervisor._WARM
    return set() if warm is None else {process.pid for process in warm.pool._pool}


class TestWarmWorkers:
    @pytest.fixture
    def calls(self, small_benchmark):
        """Three different (graph, model) calls, each with its in-process summary."""
        bridging = build_benchmark("fb15k-237", "MB", seed=1, scale=0.25)
        cases = []
        for dataset, seed in ((small_benchmark, 0), (bridging, 1), (small_benchmark, 2)):
            model = DEKGILP(dataset.num_relations,
                            config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8,
                                               edge_dropout=0.0), seed=seed)
            model.eval()
            evaluator = Evaluator(dataset, max_candidates=5, seed=seed,
                                  shard_timeout=60.0)
            triples = dataset.test_triples[:3]
            expected = evaluator.evaluate(model, test_triples=triples).summary()
            cases.append((evaluator, model, triples, expected))
        return cases

    def test_consecutive_calls_reuse_the_workers(self, calls):
        pids = None
        for evaluator, model, triples, expected in calls:
            events = []
            result = evaluator.evaluate(model, test_triples=triples, workers=2,
                                        on_event=events.append)
            assert result.summary() == expected
            assert events == []
            assert not active_segments()
            pids = pids or _warm_pids()
            assert len(pids) == 2 and _warm_pids() == pids

    def test_an_armed_fault_plan_starts_fresh_workers(self, calls, monkeypatch):
        evaluator, model, triples, expected = calls[0]
        evaluator.evaluate(model, test_triples=triples, workers=2)
        before = _warm_pids()
        monkeypatch.setenv("REPRO_FAULTS", "shard:1:raise")
        reset_fault_state()
        events = []
        result = evaluator.evaluate(model, test_triples=triples, workers=2,
                                    on_event=events.append)
        # Workers read the plan at start-up: it fires only in fresh ones.
        assert "error" in [event.kind for event in events]
        assert result.summary() == expected
        assert _warm_pids() == set()
        assert not active_segments()
        monkeypatch.delenv("REPRO_FAULTS")
        reset_fault_state()
        evaluator.evaluate(model, test_triples=triples, workers=2)
        assert _warm_pids() and not _warm_pids() & before


class TestModelShipping:
    def test_dekgilp_checkpoint_spec_roundtrip(self, small_benchmark, tiny_dekgilp):
        spec = make_model_spec(tiny_dekgilp)
        assert spec.kind == "checkpoint"
        replica = restore_model(spec)
        context = small_benchmark.split.evaluation_graph()
        tiny_dekgilp.set_context(context)
        replica.set_context(context)
        probe = small_benchmark.test_triples[:3]
        np.testing.assert_array_equal(
            tiny_dekgilp.score_many(probe), replica.score_many(probe))

    def test_picklable_model_spec_roundtrip(self):
        spec = make_model_spec(RecorderModel("r"))
        assert spec.kind == "pickle"
        replica = restore_model(spec)
        assert replica.name == "r"

    def test_checkpointable_baseline_ships_as_checkpoint(self, small_benchmark):
        # Replica building goes through the Checkpointable protocol for every
        # registered model, not just DEKG-ILP (the pre-registry special case).
        from repro.experiment import train_model

        model = train_model("TransE", small_benchmark, epochs=1,
                            embedding_dim=8, seed=0)
        spec = make_model_spec(model)
        assert spec.kind == "checkpoint"
        replica = restore_model(spec)
        context = small_benchmark.split.evaluation_graph()
        model.set_context(context)
        replica.set_context(context)
        probe = small_benchmark.test_triples[:3]
        np.testing.assert_array_equal(model.score_many(probe),
                                      replica.score_many(probe))

    def test_unpicklable_model_rejected(self):
        class Unshippable:
            score_many = lambda self, triples: np.zeros(len(triples))  # noqa: E731

            def set_context(self, graph):
                pass

        with pytest.raises(TypeError, match="workers=1"):
            make_model_spec(Unshippable())

    def test_knowledge_graph_pickle_roundtrip(self, tiny_graph):
        clone = pickle.loads(pickle.dumps(tiny_graph))
        assert clone.triples == tiny_graph.triples
        assert clone.num_entities == tiny_graph.num_entities
        assert clone.neighbors(0) == tiny_graph.neighbors(0)
        np.testing.assert_array_equal(
            clone.relation_component_table(2), tiny_graph.relation_component_table(2))
        # Derived CSR snapshot rebuilds identically on the clone.
        np.testing.assert_array_equal(
            clone.adjacency().und_offsets, tiny_graph.adjacency().und_offsets)

    def test_knowledge_graph_pickle_supports_mutation(self, tiny_graph):
        clone = pickle.loads(pickle.dumps(tiny_graph))
        assert clone.add_triple(Triple(5, 2, 0))
        assert clone.contains(5, 2, 0)
        assert not tiny_graph.contains(5, 2, 0)


class TestEvalConfig:
    def test_from_config(self, small_benchmark):
        config = EvalConfig(forms=("head",), max_candidates=7, seed=2, workers=3)
        evaluator = Evaluator.from_config(small_benchmark, config)
        assert evaluator.forms == ("head",)
        assert evaluator.max_candidates == 7
        assert evaluator.seed == 2
        assert evaluator.workers == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            EvalConfig(workers=0)
        with pytest.raises(ValueError, match="prediction form"):
            EvalConfig(forms=("head", "nope"))
        with pytest.raises(ValueError, match="max_candidates"):
            EvalConfig(max_candidates=0)
        with pytest.raises(ValueError, match="seed"):
            EvalConfig(seed=-1)
        with pytest.raises(ValueError, match="hits"):
            EvalConfig(hits_levels=(0,))
