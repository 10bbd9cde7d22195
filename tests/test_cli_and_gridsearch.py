"""Tests for the command-line interface and the hyper-parameter grid search."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.utils.grid_search import (
    PAPER_GRID,
    PAPER_OPTIMAL,
    GridSearchReport,
    GridSearchResult,
    grid_points,
    grid_search,
)


class TestCLIParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_defaults(self):
        args = build_parser().parse_args(["dataset"])
        assert args.name == "fb15k-237"
        assert args.split == "EQ"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset", "--name", "imaginary"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--model", "NotAModel"])

    def test_compare_accepts_multiple_models(self):
        args = build_parser().parse_args(["compare", "--models", "DEKG-ILP", "TransE"])
        assert args.models == ["DEKG-ILP", "TransE"]


class TestCLIModelsCommand:
    def test_models_lists_registry_with_parameters_and_capabilities(self, capsys):
        from repro.registry import model_names

        exit_code = main(["models"])
        assert exit_code == 0
        output = capsys.readouterr().out
        for name in model_names():
            assert name in output
        # Capability flags and a parameter count at the default config.
        assert "trainer-driven" in output
        assert "self-fitting" in output
        assert "checkpointable" in output
        from repro.registry import default_parameter_count

        assert str(default_parameter_count("DEKG-ILP")) in output

    def test_models_honours_reference_size(self, capsys):
        from repro.registry import default_parameter_count

        assert main(["models", "--entities", "50", "--relations", "5"]) == 0
        output = capsys.readouterr().out
        assert str(default_parameter_count("TransE", 50, 5)) in output


class TestCLIModelZoo:
    """The zoo additions must surface through the CLI like every baseline."""

    def test_models_lists_zoo_entries_with_parameter_counts(self, capsys):
        from repro.registry import default_parameter_count

        assert main(["models"]) == 0
        output = capsys.readouterr().out
        for name in ("ComplEx", "HolE", "ProjE", "SimplE"):
            assert name in output
            assert str(default_parameter_count(name)) in output


class TestCLIErrorPaths:
    def test_run_with_unregistered_model_in_config(self, tmp_path):
        import json

        config = {
            "dataset": {"name": "fb15k-237", "split": "EQ",
                        "scale": 0.2, "seed": 1},
            "model": {"name": "NotAModel", "embedding_dim": 8},
            "training": {"epochs": 1, "seed": 0},
            "eval": {"max_candidates": 5, "seed": 0},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit, match="unknown model 'NotAModel'"):
            main(["run", "--config", str(path)])

    def test_run_with_unreadable_config_path(self, tmp_path):
        with pytest.raises((SystemExit, OSError)):
            main(["run", "--config", str(tmp_path / "missing.json")])

    def test_cache_size_rejected_on_cacheless_baseline(self):
        with pytest.raises(SystemExit, match="--cache-size does not apply"):
            main(["evaluate", "--model", "HolE", "--scale", "0.25",
                  "--epochs", "1", "--embedding-dim", "8",
                  "--cache-size", "64"])


class TestCLICommands:
    def test_complexity_command(self, capsys):
        exit_code = main(["complexity", "--entities", "100", "--relations", "10"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "DEKG-ILP" in output and "TACT" in output

    def test_dataset_command_with_export(self, tmp_path, capsys):
        exit_code = main([
            "dataset", "--name", "fb15k-237", "--split", "EQ",
            "--scale", "0.25", "--seed", "1", "--output", str(tmp_path / "export"),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "test links" in output
        assert (tmp_path / "export" / "original.tsv").exists()

    def test_evaluate_command_fast_model(self, capsys):
        exit_code = main([
            "evaluate", "--model", "TransE", "--name", "fb15k-237", "--split", "EQ",
            "--scale", "0.25", "--epochs", "1", "--embedding-dim", "8",
            "--max-candidates", "5",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "bridging" in output
        assert "MRR" in output

    def test_compare_command_fast_models(self, capsys):
        exit_code = main([
            "compare", "--models", "TransE", "RuleN", "--name", "fb15k-237",
            "--split", "EQ", "--scale", "0.25", "--epochs", "1",
            "--embedding-dim", "8", "--max-candidates", "5",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "TransE" in output and "RuleN" in output


class TestGridSearch:
    def test_paper_grid_matches_section_vd(self):
        assert set(PAPER_GRID) == {"learning_rate", "embedding_dim", "edge_dropout",
                                   "contrastive_weight"}
        assert PAPER_OPTIMAL["embedding_dim"] == 32
        assert PAPER_OPTIMAL["contrastive_weight"] == 0.1

    def test_grid_points_cartesian_product(self):
        points = grid_points({"a": (1, 2), "b": (3, 4, 5)})
        assert len(points) == 6
        assert {"a": 1, "b": 3} in points

    def test_full_paper_grid_size(self):
        assert len(grid_points()) == 4 ** 4

    def test_report_best_and_rows(self):
        report = GridSearchReport(results=[
            GridSearchResult({"learning_rate": 0.1}, mrr=0.2, hits_at_10=0.4),
            GridSearchResult({"learning_rate": 0.01}, mrr=0.5, hits_at_10=0.7),
        ])
        assert report.best().parameters["learning_rate"] == 0.01
        rows = report.as_rows()
        assert rows[0]["MRR"] == 0.5

    def test_empty_report_best_raises(self):
        with pytest.raises(ValueError):
            GridSearchReport().best()

    def test_grid_search_runs_on_small_grid(self, small_benchmark):
        report = grid_search(
            small_benchmark,
            grid={"learning_rate": (0.05,), "embedding_dim": (8,),
                  "contrastive_weight": (0.0, 0.1)},
            epochs=1, max_candidates=5, seed=0,
        )
        assert len(report.results) == 2
        for result in report.results:
            assert 0.0 <= result.mrr <= 1.0
            assert set(result.parameters) == {"learning_rate", "embedding_dim",
                                              "contrastive_weight"}

    def test_grid_search_max_points(self, small_benchmark):
        report = grid_search(
            small_benchmark,
            grid={"learning_rate": (0.05, 0.01), "embedding_dim": (8,)},
            epochs=1, max_candidates=5, seed=0, max_points=1,
        )
        assert len(report.results) == 1

    def test_grid_search_over_a_baseline(self, small_benchmark):
        report = grid_search(
            small_benchmark,
            grid={"learning_rate": (0.05, 0.01), "embedding_dim": (8,)},
            epochs=1, max_candidates=5, seed=0, model="TransE",
        )
        assert len(report.results) == 2
        for result in report.results:
            assert 0.0 <= result.mrr <= 1.0

    def test_grid_search_over_an_ablation_variant(self, small_benchmark):
        report = grid_search(
            small_benchmark,
            grid={"embedding_dim": (8,)},
            epochs=1, max_candidates=5, seed=0, model="DEKG-ILP-R",
        )
        assert len(report.results) == 1

    def test_grid_search_rejects_unsupported_baseline_axis(self, small_benchmark):
        with pytest.raises(ValueError, match="contrastive_weight"):
            grid_search(
                small_benchmark,
                grid={"contrastive_weight": (0.1,)},
                epochs=1, max_candidates=5, seed=0, model="TransE",
            )
