"""Command-line interface.

Every training/evaluation command is a thin veneer over the
:class:`repro.experiment.Experiment` facade, so ``evaluate``, ``compare``
and config-driven ``run`` all execute the exact same code path — the
reported metrics for the same settings are bit-identical across entry
points and worker counts.

Examples
--------
Generate a benchmark dataset and export it as TSV files::

    python -m repro dataset --name fb15k-237 --split EQ --scale 0.4 --output ./data/fb-eq

Train and evaluate a model::

    python -m repro evaluate --model DEKG-ILP --name fb15k-237 --split MB --epochs 2

The same run, config-driven (train, evaluate, checkpoint, metrics JSON)::

    python -m repro evaluate --model DEKG-ILP --split MB --epochs 2 --save-config exp.json
    python -m repro run --config exp.json --artifacts ./artifacts/exp

List every registered model with its parameter count and capabilities::

    python -m repro models

Compare several models on one dataset::

    python -m repro compare --models DEKG-ILP Grail TransE --name wn18rr --split EQ

Show the paper-scale parameter-complexity table::

    python -m repro complexity
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.backend import known_backend_names, use_backend
from repro.core.config import EvalConfig, TrainingConfig
from repro.datasets.benchmark import build_benchmark, dataset_names, split_names
from repro.eval.complexity import parameter_formula
from repro.eval.reporting import format_table, results_to_rows
from repro.experiment import (DatasetSection, Experiment, ExperimentConfig,
                              ModelSection)
from repro.kg.serialization import save_split
from repro.registry import (allowed_override_keys, default_parameter_count,
                            model_names, registered_models, registry_listing)


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--name", default="fb15k-237", choices=dataset_names(),
                        help="KG family to generate")
    parser.add_argument("--split", default="EQ", choices=split_names(),
                        help="test mixture: EQ (1:1), MB (1:2), ME (2:1)")
    parser.add_argument("--scale", type=float, default=0.4,
                        help="size multiplier on the synthetic raw KG")
    parser.add_argument("--seed", type=int, default=0)


def _add_training_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--embedding-dim", type=int, default=32)
    parser.add_argument("--max-candidates", type=int, default=30,
                        help="corrupted candidates per test triple and prediction form")
    parser.add_argument("--eval-workers", type=int, default=1,
                        help="worker processes for evaluation sharding (1 = in-process; "
                             "metrics are identical for any worker count)")
    parser.add_argument("--cache-size", type=int, default=None,
                        help="subgraph-extraction cache capacity for provider-backed "
                             "models (default: the model's own; caches never change "
                             "scores, only wall clock)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description="DEKG-ILP reproduction command line")
    parser.add_argument("--backend", default=None, choices=known_backend_names(),
                        help="array backend for the whole invocation "
                             "(default: the REPRO_BACKEND environment "
                             "variable, else numpy)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    dataset_parser = subparsers.add_parser("dataset", help="generate and export a benchmark dataset")
    _add_dataset_arguments(dataset_parser)
    dataset_parser.add_argument("--output", default=None,
                                help="directory to export the split as TSV files")

    evaluate_parser = subparsers.add_parser("evaluate", help="train and evaluate one model")
    _add_dataset_arguments(evaluate_parser)
    _add_training_arguments(evaluate_parser)
    evaluate_parser.add_argument("--model", default="DEKG-ILP", choices=model_names())
    evaluate_parser.add_argument("--save-config", default=None, metavar="PATH",
                                 help="write the equivalent experiment config JSON "
                                      "(replayable with `repro run --config PATH`)")

    run_parser = subparsers.add_parser(
        "run", help="run an experiment from a JSON config (train, evaluate, checkpoint)")
    run_parser.add_argument("--config", required=True,
                            help="path to an ExperimentConfig JSON file")
    run_parser.add_argument("--artifacts", default=None, metavar="DIR",
                            help="directory for config.json / model.npz / metrics.json "
                                 "(overrides the config's artifacts_dir)")
    run_parser.add_argument("--resume", action="store_true",
                            help="continue an interrupted training run from the "
                                 "journal.npz epoch journal in the artifacts "
                                 "directory (written every "
                                 "training.checkpoint_every epochs); starts "
                                 "from scratch if no journal exists")

    models_parser = subparsers.add_parser(
        "models", help="list every registered model with parameters and capabilities")
    models_parser.add_argument("--entities", type=int, default=None,
                               help="entity count for the parameter count "
                                    "(default: the fb15k-237 profile)")
    models_parser.add_argument("--relations", type=int, default=None,
                               help="relation count for the parameter count")
    models_parser.add_argument("--json", action="store_true", dest="as_json",
                               help="emit the machine-readable registry listing "
                                    "(name, parameters, capability flags) for "
                                    "service discovery")

    compare_parser = subparsers.add_parser("compare", help="train and evaluate several models")
    _add_dataset_arguments(compare_parser)
    _add_training_arguments(compare_parser)
    compare_parser.add_argument("--models", nargs="+", default=["DEKG-ILP", "Grail", "TransE"],
                                choices=model_names())

    complexity_parser = subparsers.add_parser("complexity",
                                              help="print the closed-form parameter counts (Fig. 7)")
    complexity_parser.add_argument("--entities", type=int, default=3668)
    complexity_parser.add_argument("--relations", type=int, default=215)
    complexity_parser.add_argument("--dim", type=int, default=32)

    serve_parser = subparsers.add_parser(
        "serve", help="run the long-lived scoring daemon (ndjson over TCP)")
    _add_dataset_arguments(serve_parser)
    serve_parser.add_argument("--config", default=None, metavar="PATH",
                              help="ExperimentConfig JSON: train the model, "
                                   "then keep it warm and serve (the dataset "
                                   "flags are ignored — the config describes "
                                   "the dataset)")
    serve_parser.add_argument("--checkpoint", default=None, metavar="PATH",
                              help="model.npz checkpoint to serve; the dataset "
                                   "flags rebuild the benchmark whose "
                                   "evaluation graph becomes the scoring "
                                   "context")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=7777)
    serve_parser.add_argument("--max-batch", type=int, default=64,
                              help="coalescer flush threshold in triples")
    serve_parser.add_argument("--max-wait-ms", type=float, default=2.0,
                              help="coalescer latency budget: a request waits "
                                   "at most this long before its flush")
    serve_parser.add_argument("--stats-path", default=None, metavar="PATH",
                              help="where the telemetry snapshot is atomically "
                                   "written on shutdown")
    serve_parser.add_argument("--replicas", type=int, default=0,
                              help="scoring replica processes behind the "
                                   "coalescer (0 = score in-process); replicas "
                                   "share the model and graph via read-only "
                                   "shared-memory pages")
    serve_parser.add_argument("--max-pending", type=int, default=None,
                              help="bounded pending-request queue: beyond this "
                                   "many queued requests new ones get a "
                                   "structured 'overloaded' error (default: "
                                   "unbounded)")

    return parser


def _cache_overrides(args: argparse.Namespace, model: str) -> dict:
    """Map the --cache-size flag onto the model's own knob.

    The DEKG-ILP family exposes it as the ``ModelConfig`` field
    ``subgraph_cache_size``; the subgraph-reasoning baselines as the
    constructor keyword ``cache_size``.  Models without an extraction cache
    reject the flag instead of silently ignoring it.
    """
    if args.cache_size is None:
        return {}
    allowed = allowed_override_keys(model)
    for key in ("subgraph_cache_size", "cache_size"):
        if key in allowed:
            return {key: args.cache_size}
    raise SystemExit(f"model {model!r} has no subgraph-extraction cache; "
                     "--cache-size does not apply")


def _config_from_args(args: argparse.Namespace, model: str) -> ExperimentConfig:
    """The ExperimentConfig equivalent of one evaluate/compare invocation."""
    return ExperimentConfig(
        dataset=DatasetSection(name=args.name, split=args.split,
                               scale=args.scale, seed=args.seed),
        model=ModelSection(name=model, embedding_dim=args.embedding_dim,
                           overrides=_cache_overrides(args, model)),
        training=TrainingConfig(epochs=args.epochs, seed=args.seed),
        eval=EvalConfig(max_candidates=args.max_candidates, seed=args.seed,
                        workers=args.eval_workers),
    )


def _print_result(result) -> None:
    for scope in ("overall", "enclosing", "bridging"):
        rows = results_to_rows([result], scope=scope)
        print(f"\n{scope}:")
        print(format_table(rows, columns=["model", "MRR", "Hits@1", "Hits@5", "Hits@10"]))


def _command_dataset(args: argparse.Namespace) -> int:
    dataset = build_benchmark(args.name, args.split, seed=args.seed, scale=args.scale)
    stats = dataset.statistics()
    rows = [
        {"graph": "G", **dict(zip(("|R|", "|E|", "|T|"), stats["G"].as_row()))},
        {"graph": "G'", **dict(zip(("|R|", "|E|", "|T|"), stats["G'"].as_row()))},
    ]
    print(format_table(rows))
    print(f"test links: {len(dataset.test_triples)} "
          f"({len(dataset.enclosing_test())} enclosing / {len(dataset.bridging_test())} bridging)")
    if args.output:
        path = save_split(dataset.split, args.output)
        print(f"split exported to {path}")
    return 0


def _command_evaluate(args: argparse.Namespace) -> int:
    config = _config_from_args(args, args.model)
    if args.save_config:
        path = config.save(args.save_config)
        print(f"config written to {path}", file=sys.stderr)
    run = Experiment.from_config(config).run()
    _print_result(run.result)
    return 0


def _command_run(args: argparse.Namespace) -> int:
    try:
        experiment = Experiment.from_json_file(args.config)
    except (KeyError, ValueError) as error:
        # e.g. an unregistered model name: surface the registry's message as
        # a clean CLI error instead of a traceback.
        message = error.args[0] if error.args else str(error)
        raise SystemExit(
            f"invalid experiment config {args.config!r}: {message}") from error
    run = experiment.run(artifacts_dir=args.artifacts, resume=args.resume)
    _print_result(run.result)
    if run.artifacts_dir is not None:
        print(f"\nartifacts written to {run.artifacts_dir} "
              f"(config.json, model.npz, metrics.json)", file=sys.stderr)
    return 0


def _command_models(args: argparse.Namespace) -> int:
    count_kwargs = {}
    if args.entities is not None:
        count_kwargs["num_entities"] = args.entities
    if args.relations is not None:
        count_kwargs["num_relations"] = args.relations
    if args.as_json:
        print(json.dumps(registry_listing(**count_kwargs), indent=2))
        return 0
    rows = []
    for name, spec in registered_models().items():
        capabilities = [
            "trainer-driven" if spec.trainer_driven else "self-fitting",
        ]
        if spec.supports_sharded_eval:
            capabilities.append("sharded-eval")
        if spec.checkpointable:
            capabilities.append("checkpointable")
        if spec.batch_invariant_scoring:
            capabilities.append("batch-invariant")
        rows.append({
            "model": name,
            "parameters": default_parameter_count(name, **count_kwargs),
            "capabilities": ", ".join(capabilities),
            "description": spec.description,
        })
    print(format_table(rows, columns=["model", "parameters", "capabilities", "description"]))
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    dataset = build_benchmark(args.name, args.split, seed=args.seed, scale=args.scale)
    results = []
    for model_name in args.models:
        print(f"training {model_name} ...", file=sys.stderr)
        run = Experiment.from_config(_config_from_args(args, model_name),
                                     dataset=dataset).run()
        results.append(run.result)
    print(format_table(results_to_rows(results, scope="overall"),
                       columns=["model", "MRR", "Hits@1", "Hits@5", "Hits@10"]))
    print("\nbridging links only:")
    print(format_table(results_to_rows(results, scope="bridging"),
                       columns=["model", "MRR", "Hits@1", "Hits@5", "Hits@10"]))
    return 0


def _command_complexity(args: argparse.Namespace) -> int:
    models = ["TransE", "RotatE", "ConvE", "GEN", "Grail", "TACT", "DEKG-ILP"]
    rows = [{"model": name,
             "parameters": parameter_formula(name, args.entities, args.relations, dim=args.dim)}
            for name in models]
    print(format_table(rows))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # Imported here so the batch commands never pay for the serving stack.
    from repro.serving import ScoringService, run_daemon
    if (args.config is None) == (args.checkpoint is None):
        raise SystemExit("pass exactly one of --config or --checkpoint")
    kwargs = dict(max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
                  stats_path=args.stats_path, replicas=args.replicas,
                  max_pending=args.max_pending)
    if args.config is not None:
        print(f"training from {args.config} ...", file=sys.stderr)
        service = ScoringService.from_experiment(args.config, **kwargs)
    else:
        service = ScoringService.from_checkpoint(
            args.checkpoint, dataset_name=args.name, split=args.split,
            scale=args.scale, seed=args.seed, **kwargs)
    print(f"serving {service.model_names} on {args.host}:{args.port} "
          "(Ctrl-C or SIGTERM drains and exits)", file=sys.stderr)
    stats_path = run_daemon(service, host=args.host, port=args.port)
    if stats_path is not None:
        print(f"telemetry written to {stats_path}", file=sys.stderr)
    return 0


_COMMANDS = {
    "dataset": _command_dataset,
    "evaluate": _command_evaluate,
    "run": _command_run,
    "models": _command_models,
    "compare": _command_compare,
    "complexity": _command_complexity,
    "serve": _command_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # The flag scopes the whole invocation.
    with use_backend(args.backend):
        return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
