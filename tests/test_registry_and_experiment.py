"""Tests for the unified model registry and the Experiment facade."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines import TransE
from repro.cli import main
from repro.core.config import EvalConfig, TrainingConfig
from repro.experiment import (DatasetSection, Experiment, ExperimentConfig,
                              ModelSection, train_model)
from repro.registry import (ModelSpec, build_model, default_parameter_count,
                            get_spec, model_names, register_model,
                            registered_models)

#: Presence floor: the paper's Table III line-up plus the model-zoo
#: additions.  Matrix-style tests parametrize over ``model_names()`` instead
#: of this tuple, so newly registered models are covered automatically.
EXPECTED_MODELS = ("DEKG-ILP", "DEKG-ILP-R", "DEKG-ILP-C", "DEKG-ILP-N",
                   "TransE", "RotatE", "DistMult", "ConvE",
                   "ComplEx", "HolE", "ProjE", "SimplE",
                   "GEN", "RuleN", "Grail", "TACT")


class _UnregisteredTransE(TransE):
    """Module-level (hence picklable) Checkpointable subclass outside the registry."""


class TestRegistry:
    def test_every_paper_model_registered(self):
        names = model_names()
        for expected in EXPECTED_MODELS:
            assert expected in names

    def test_specs_carry_capabilities(self):
        specs = registered_models()
        assert specs["DEKG-ILP"].trainer_driven
        assert not specs["TransE"].trainer_driven
        for spec in specs.values():
            assert isinstance(spec, ModelSpec)
            assert spec.checkpointable
            assert spec.supports_sharded_eval
            assert set(spec.capabilities()) == {
                "trainer_driven", "supports_sharded_eval", "checkpointable",
                "batch_invariant_scoring"}

    def test_variant_overrides(self):
        assert registered_models()["DEKG-ILP-R"].model_overrides == {"use_semantic": False}
        assert registered_models()["DEKG-ILP-C"].training_overrides == {"contrastive_weight": 0.0}
        assert registered_models()["DEKG-ILP-N"].model_overrides == {"improved_labeling": False}

    def test_unknown_model_rejected_with_choices(self):
        with pytest.raises(KeyError, match="NotAModel"):
            get_spec("NotAModel")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_model("TransE")(object)

    def test_build_model_sets_registered_name(self):
        model = build_model("DEKG-ILP-R", num_entities=20, num_relations=3,
                            embedding_dim=8)
        assert model.name == "DEKG-ILP-R"
        assert model.clrm is None

    def test_default_parameter_count_positive(self):
        assert default_parameter_count("DEKG-ILP") > 0
        assert default_parameter_count("RuleN") == 0  # rules are mined, not learned


class TestExperimentConfig:
    @pytest.mark.parametrize("name", model_names())
    def test_default_config_round_trips_exactly(self, name):
        config = ExperimentConfig.default(name)
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        assert ExperimentConfig.from_json(config.to_json()) == config

    def test_json_file_round_trip(self, tmp_path):
        config = ExperimentConfig(
            dataset=DatasetSection(name="wn18rr", split="MB", scale=0.3, seed=4),
            model=ModelSection(name="Grail", embedding_dim=16),
            training=TrainingConfig(epochs=5, seed=4),
            eval=EvalConfig(max_candidates=7, seed=4, workers=2),
        )
        path = config.save(tmp_path / "exp.json")
        assert ExperimentConfig.load(path) == config
        # The file is plain JSON, not a pickle.
        assert json.loads(path.read_text())["dataset"]["name"] == "wn18rr"

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ValueError, match="'trainig'"):
            ExperimentConfig.from_dict({"trainig": {}})

    def test_unknown_section_key_named_with_path(self):
        with pytest.raises(ValueError, match="'training.lerning_rate'"):
            ExperimentConfig.from_dict({"training": {"lerning_rate": 0.1}})
        with pytest.raises(ValueError, match="'eval.max_cands'"):
            ExperimentConfig.from_dict({"eval": {"max_cands": 3}})
        with pytest.raises(ValueError, match="'dataset.nmae'"):
            ExperimentConfig.from_dict({"dataset": {"nmae": "wn18rr"}})

    def test_retired_training_key_dropped_when_true(self):
        """Configs saved while ``TrainingConfig`` had ``batched`` still load."""
        config = ExperimentConfig.default("DEKG-ILP")
        saved = config.to_dict()
        saved["training"]["batched"] = True
        assert ExperimentConfig.from_dict(saved) == config

    def test_retired_training_key_rejected_when_false(self):
        saved = ExperimentConfig.default("DEKG-ILP").to_dict()
        for value in (False, 1):  # matched type-strictly: 1 is not True
            saved["training"]["batched"] = value
            with pytest.raises(ValueError, match="'training.batched'"):
                ExperimentConfig.from_dict(saved)

    @pytest.mark.parametrize("model,key,value", [
        ("DEKG-ILP", "subgraph_cache_policy", "lru"),
        ("DEKG-ILP", "subgraph_cache_policy", "adaptive"),
        ("DEKG-ILP", "subgraph_cache_policy", "corruption_aware"),
        ("DEKG-ILP", "subgraph_cache_snapshots", 2),
        ("DEKG-ILP-N", "subgraph_cache_snapshots", 1),
        ("Grail", "cache_policy", "lru"),
        ("Grail", "cache_policy", "adaptive"),
        ("Grail", "cache_policy", "corruption_aware"),
        ("TACT", "cache_policy", "lru"),
    ])
    def test_retired_cache_override_dropped(self, model, key, value):
        """A saved config whose ``model.overrides`` set a retired cache knob
        (e.g. written by ``repro evaluate --cache-policy lru``) loads as the
        config without it: no cache setting ever changed a score."""
        config = ExperimentConfig.default(model)
        saved = config.to_dict()
        saved["model"]["overrides"][key] = value
        assert ExperimentConfig.from_json(json.dumps(saved)) == config

    def test_non_mapping_overrides_rejected(self):
        saved = ExperimentConfig.default("DEKG-ILP").to_dict()
        saved["model"]["overrides"] = 5
        with pytest.raises(ValueError, match="'model.overrides' must be a mapping"):
            ExperimentConfig.from_dict(saved)

    @pytest.mark.parametrize("model,key,value", [
        ("DEKG-ILP", "subgraph_cache_policy", "clairvoyant"),
        ("DEKG-ILP", "subgraph_cache_snapshots", 0),
        ("DEKG-ILP", "subgraph_cache_snapshots", True),
        ("Grail", "cache_policy", "clairvoyant"),
    ])
    def test_retired_cache_override_rejected(self, model, key, value):
        saved = ExperimentConfig.default(model).to_dict()
        saved["model"]["overrides"][key] = value
        with pytest.raises(ValueError, match=f"'model.overrides.{key}'"):
            ExperimentConfig.from_dict(saved)

    def test_unknown_model_override_named(self):
        with pytest.raises(ValueError, match="'model.overrides.use_semnatic'"):
            ExperimentConfig.from_dict(
                {"model": {"name": "DEKG-ILP", "overrides": {"use_semnatic": False}}})

    def test_unknown_model_name_rejected(self):
        with pytest.raises(KeyError, match="NotAModel"):
            ExperimentConfig.from_dict({"model": {"name": "NotAModel"}})

    def test_sections_validated(self):
        with pytest.raises(ValueError, match="split"):
            ExperimentConfig.from_dict({"dataset": {"split": "XX"}})
        with pytest.raises(ValueError, match="workers"):
            ExperimentConfig.from_dict({"eval": {"workers": 0}})


@pytest.fixture(scope="module")
def fast_config():
    return ExperimentConfig(
        dataset=DatasetSection(name="fb15k-237", split="EQ", scale=0.25, seed=1),
        model=ModelSection(name="TransE", embedding_dim=8),
        training=TrainingConfig(epochs=1, seed=0),
        eval=EvalConfig(max_candidates=5, seed=0),
    )


class TestExperiment:
    def test_run_produces_metrics_and_artifacts(self, fast_config, tmp_path):
        run = Experiment.from_config(fast_config).run(artifacts_dir=tmp_path / "arts")
        assert 0.0 <= run.result.metric("MRR") <= 1.0
        assert run.config_path.exists()
        assert run.checkpoint_path.exists()
        metrics = json.loads(run.metrics_path.read_text())
        assert metrics["model"] == "TransE"
        assert metrics["metrics"]["overall"]["MRR"] == run.result.metric("MRR")
        # The written config records the effective artifacts directory, so
        # replaying it reproduces this run — artifacts included.
        written = ExperimentConfig.load(run.config_path)
        assert written.artifacts_dir == str(tmp_path / "arts")
        assert written == ExperimentConfig.from_dict(metrics["config"])
        import dataclasses

        assert dataclasses.replace(written, artifacts_dir=None) == fast_config

    def test_capability_flags_are_enforced(self, monkeypatch):
        import repro.registry as registry_module
        from repro.core.persistence import model_to_bytes
        from repro.eval.sharding import make_model_spec

        model = build_model("TransE", num_entities=6, num_relations=3,
                            embedding_dim=4)
        spec = registry_module._REGISTRY["TransE"]
        import dataclasses as dc

        monkeypatch.setitem(registry_module._REGISTRY, "TransE",
                            dc.replace(spec, checkpointable=False,
                                       supports_sharded_eval=False))
        with pytest.raises(TypeError, match="checkpointable=False"):
            model_to_bytes(model)
        with pytest.raises(TypeError, match="workers=1"):
            make_model_spec(model)

    def test_run_matches_direct_train_and_evaluate(self, fast_config, small_benchmark):
        from repro.eval.evaluator import Evaluator

        run = Experiment.from_config(fast_config, dataset=small_benchmark).run()
        model = train_model("TransE", small_benchmark, epochs=1, embedding_dim=8,
                            seed=0, training_config=fast_config.training)
        direct = Evaluator(small_benchmark, max_candidates=5, seed=0).evaluate(
            model, model_name="TransE")
        assert run.result.summary() == direct.summary()

    def test_injected_dataset_must_match_config(self, small_benchmark):
        config = ExperimentConfig(
            dataset=DatasetSection(name="wn18rr", split="MB"),
            model=ModelSection(name="TransE", embedding_dim=8),
        )
        with pytest.raises(ValueError, match="wn18rr"):
            Experiment.from_config(config, dataset=small_benchmark)

    def test_trainer_driven_experiment(self, small_benchmark):
        config = ExperimentConfig(
            dataset=DatasetSection(scale=0.25, seed=1),
            model=ModelSection(name="DEKG-ILP-C", embedding_dim=8),
            training=TrainingConfig(epochs=1, seed=0, contrastive_examples=1),
            eval=EvalConfig(max_candidates=5, seed=0),
        )
        run = Experiment.from_config(config, dataset=small_benchmark).run()
        assert run.result.model_name == "DEKG-ILP-C"
        assert run.model.clrm is not None  # only the loss weight is ablated

    def test_experiment_checkpoint_restores_scores(self, fast_config,
                                                   small_benchmark, tmp_path):
        from repro.core.persistence import load_model

        run = Experiment.from_config(fast_config, dataset=small_benchmark).run(
            artifacts_dir=tmp_path)
        restored = load_model(run.checkpoint_path)
        context = small_benchmark.split.evaluation_graph()
        run.model.set_context(context)
        restored.set_context(context)
        probe = small_benchmark.test_triples[:5]
        np.testing.assert_array_equal(run.model.score_many(probe),
                                      restored.score_many(probe))


class TestCLIEntryPoints:
    def test_run_reproduces_evaluate_bit_identically(self, tmp_path, capsys):
        evaluate_args = ["evaluate", "--model", "TransE", "--name", "fb15k-237",
                         "--split", "EQ", "--scale", "0.25", "--epochs", "1",
                         "--embedding-dim", "8", "--max-candidates", "5",
                         "--save-config", str(tmp_path / "exp.json")]
        assert main(evaluate_args) == 0
        evaluate_out = capsys.readouterr().out
        assert main(["run", "--config", str(tmp_path / "exp.json")]) == 0
        run_out = capsys.readouterr().out
        assert run_out == evaluate_out

    def test_run_with_two_workers_matches_sequential(self, tmp_path, capsys):
        config = ExperimentConfig(
            dataset=DatasetSection(scale=0.25, seed=1),
            model=ModelSection(name="TransE", embedding_dim=8),
            training=TrainingConfig(epochs=1, seed=0),
            eval=EvalConfig(max_candidates=5, seed=0, workers=1),
        )
        config.save(tmp_path / "w1.json")
        import dataclasses

        dataclasses.replace(config, eval=EvalConfig(max_candidates=5, seed=0,
                                                    workers=2)).save(tmp_path / "w2.json")
        assert main(["run", "--config", str(tmp_path / "w1.json")]) == 0
        sequential = capsys.readouterr().out
        assert main(["run", "--config", str(tmp_path / "w2.json")]) == 0
        sharded = capsys.readouterr().out
        assert sharded == sequential

    def test_run_writes_artifacts(self, tmp_path, capsys):
        ExperimentConfig(
            dataset=DatasetSection(scale=0.25, seed=1),
            model=ModelSection(name="RuleN"),
            training=TrainingConfig(epochs=1, seed=0),
            eval=EvalConfig(max_candidates=5, seed=0),
        ).save(tmp_path / "exp.json")
        assert main(["run", "--config", str(tmp_path / "exp.json"),
                     "--artifacts", str(tmp_path / "arts")]) == 0
        capsys.readouterr()
        for name in ("config.json", "model.npz", "metrics.json"):
            assert (tmp_path / "arts" / name).exists()


class TestOverrideRouting:
    """Regression tests: overrides reach the model they configure."""

    def test_dim_overrides_do_not_collide_with_factory_kwargs(self):
        model = build_model("DEKG-ILP", num_entities=20, num_relations=3,
                            overrides={"gnn_hidden_dim": 16, "embedding_dim": 8})
        assert model.config.embedding_dim == 8
        assert model.config.gnn_hidden_dim == 16
        baseline = build_model("TransE", num_entities=20, num_relations=3,
                               overrides={"embedding_dim": 8})
        assert baseline.embedding_dim == 8

    def test_baseline_hyperparameters_go_through_overrides(self, small_benchmark):
        model = train_model("TransE", small_benchmark, epochs=1, embedding_dim=8,
                            seed=0, overrides={"learning_rate": 0.5, "batch_size": 32})
        assert model.learning_rate == 0.5
        assert model.batch_size == 32

    def test_baseline_rejects_trainer_only_training_fields(self, small_benchmark):
        # A training section a baseline cannot honour raises instead of being
        # silently ignored (the recorded config must be the run that happened).
        with pytest.raises(ValueError, match="training.batch_size"):
            train_model("TransE", small_benchmark, epochs=1, embedding_dim=8,
                        seed=0, training_config=TrainingConfig(
                            epochs=1, seed=0, batch_size=32))
        with pytest.raises(ValueError, match="training.learning_rate"):
            ExperimentConfig.from_dict({"model": {"name": "TransE"},
                                        "training": {"learning_rate": 0.5}})

    def test_baseline_defaults_apply_without_training_config(self, small_benchmark):
        model = train_model("TransE", small_benchmark, epochs=1, embedding_dim=8,
                            seed=0)
        # Each baseline keeps its own built-in training defaults (the
        # training section only carries epochs/seed for self-training models).
        assert model.learning_rate == 0.01
        assert model.batch_size == 64

    def test_variant_pins_cannot_be_overridden(self, small_benchmark):
        with pytest.raises(ValueError, match="pinned"):
            build_model("DEKG-ILP-R", num_entities=10, num_relations=3,
                        overrides={"use_semantic": True})
        with pytest.raises(ValueError, match="'model.overrides.use_semantic'"):
            ExperimentConfig.from_dict(
                {"model": {"name": "DEKG-ILP-R",
                           "overrides": {"use_semantic": True}}})

    def test_explicit_model_config_must_match_variant_pins(self):
        from repro.core.config import ModelConfig

        with pytest.raises(ValueError, match="use_semantic"):
            build_model("DEKG-ILP-R", num_entities=10, num_relations=3,
                        model_config=ModelConfig(embedding_dim=8, gnn_hidden_dim=8))
        # A config that honours the pin is accepted.
        model = build_model("DEKG-ILP-R", num_entities=10, num_relations=3,
                            model_config=ModelConfig(embedding_dim=8,
                                                     gnn_hidden_dim=8,
                                                     use_semantic=False))
        assert model.clrm is None

    def test_training_pins_cannot_be_overridden(self):
        # An explicitly set pinned training field that disagrees with the
        # pin raises; the untouched default counts as unset.
        with pytest.raises(ValueError, match="'training.contrastive_weight'"):
            ExperimentConfig.from_dict({"model": {"name": "DEKG-ILP-C"},
                                        "training": {"contrastive_weight": 0.5}})
        assert ExperimentConfig.from_dict(
            {"model": {"name": "DEKG-ILP-C"},
             "training": {"contrastive_weight": 0.0}}).model.name == "DEKG-ILP-C"
        assert ExperimentConfig.default("DEKG-ILP-C").model.name == "DEKG-ILP-C"

    def test_artifacts_record_applied_training_pins(self, small_benchmark, tmp_path):
        config = ExperimentConfig(
            dataset=DatasetSection(scale=0.25, seed=1),
            model=ModelSection(name="DEKG-ILP-C", embedding_dim=8),
            training=TrainingConfig(epochs=1, seed=0, contrastive_examples=1),
            eval=EvalConfig(max_candidates=5, seed=0),
        )
        run = Experiment.from_config(config, dataset=small_benchmark).run(
            artifacts_dir=tmp_path)
        written = ExperimentConfig.load(run.config_path)
        assert written.training.contrastive_weight == 0.0  # the run that happened

    def test_model_config_for_a_baseline_rejected(self, small_benchmark):
        from repro.core.config import ModelConfig

        with pytest.raises(ValueError, match="no config class"):
            train_model("TransE", small_benchmark, epochs=1,
                        model_config=ModelConfig(embedding_dim=8))

    def test_overrides_a_model_ignores_are_rejected(self, small_benchmark):
        # RuleN has no embeddings: an embedding_dim override/axis must raise,
        # not sweep the identical model.
        from repro.utils.grid_search import grid_search

        with pytest.raises(ValueError, match="embedding_dim"):
            build_model("RuleN", num_entities=10, num_relations=3,
                        overrides={"embedding_dim": 16})
        with pytest.raises(ValueError, match="embedding_dim"):
            grid_search(small_benchmark, grid={"embedding_dim": (8, 16)},
                        epochs=1, max_candidates=5, seed=0, model="RuleN")

    def test_grid_search_rejects_axes_pinned_by_variant(self, small_benchmark):
        from repro.utils.grid_search import grid_search

        with pytest.raises(ValueError, match="pinned"):
            grid_search(small_benchmark, grid={"contrastive_weight": (0.0, 0.5)},
                        epochs=1, max_candidates=5, seed=0, model="DEKG-ILP-C")

    def test_unknown_baseline_override_rejected(self, small_benchmark):
        with pytest.raises(ValueError, match="'model.overrides.embeding_dim'"):
            ExperimentConfig.from_dict(
                {"model": {"name": "TransE", "overrides": {"embeding_dim": 64}}})
        # **_ignored catch-alls are not a license for typos at build time either.
        with pytest.raises(ValueError, match="'hopz'"):
            build_model("Grail", num_entities=10, num_relations=3,
                        overrides={"hopz": 5})

    def test_grid_search_axis_a_model_cannot_honour_raises(self, small_benchmark):
        from repro.utils.grid_search import grid_search

        with pytest.raises(ValueError, match="learning_rate"):
            grid_search(small_benchmark, grid={"learning_rate": (0.5, 0.01)},
                        epochs=1, max_candidates=5, seed=0, model="RuleN")

    def test_pipeline_respects_variant_model_overrides(self, small_benchmark):
        from repro.core.pipeline import LinkPredictionPipeline

        pipeline = LinkPredictionPipeline(small_benchmark.train_graph,
                                          model="DEKG-ILP-R")
        assert pipeline.model.clrm is None
        assert pipeline.model_config.use_semantic is False
        labeling = LinkPredictionPipeline(small_benchmark.train_graph,
                                          model="DEKG-ILP-N")
        assert labeling.model.gsm.improved_labeling is False

    def test_pipeline_applies_variant_training_overrides(self, tiny_graph, monkeypatch):
        from repro.core import trainer as trainer_module
        from repro.core.pipeline import LinkPredictionPipeline

        seen = {}
        original_init = trainer_module.Trainer.__init__

        def spy_init(self, model, graph, config, *args, **kwargs):
            seen["contrastive_weight"] = config.contrastive_weight
            return original_init(self, model, graph, config, *args, **kwargs)

        monkeypatch.setattr(trainer_module.Trainer, "__init__", spy_init)
        pipeline = LinkPredictionPipeline(
            tiny_graph, model="DEKG-ILP-C",
            model_config=None,
            training_config=TrainingConfig(epochs=1, contrastive_examples=1, seed=0))
        pipeline.fit(epochs=1)
        assert seen["contrastive_weight"] == 0.0
        # The caller's config object is never mutated.
        assert pipeline.training_config.contrastive_weight == 0.1


class TestUnregisteredCheckpointables:
    """A Checkpointable subclass outside the registry must not produce
    checkpoints that cannot be restored."""

    def test_save_model_rejects_unregistered_subclass(self, tmp_path):
        from repro.core.persistence import save_model

        model = _UnregisteredTransE(num_entities=6, num_relations=3,
                                    embedding_dim=4, seed=0)
        with pytest.raises(TypeError, match="registry"):
            save_model(model, tmp_path / "m.npz")

    def test_replica_spec_falls_back_to_pickle(self):
        from repro.eval.sharding import make_model_spec, restore_model

        model = _UnregisteredTransE(num_entities=6, num_relations=3,
                                    embedding_dim=4, seed=0)
        model.eval()
        spec = make_model_spec(model)
        assert spec.kind == "pickle"
        assert isinstance(restore_model(spec), _UnregisteredTransE)
