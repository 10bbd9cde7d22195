"""The ``Experiment`` facade: one serializable entry point for every model.

The paper's experimental matrix — DEKG-ILP, its three §V-G ablations and
eight baselines, crossed with datasets, EQ/MB/ME splits and seeds — runs
through a single frozen, JSON-round-trippable :class:`ExperimentConfig`:

>>> from repro.experiment import Experiment, ExperimentConfig
>>> cfg = ExperimentConfig.default("DEKG-ILP")
>>> cfg == ExperimentConfig.from_dict(cfg.to_dict())
True

``Experiment.from_config(cfg).run()`` builds the benchmark, trains the
registered model (through :class:`~repro.core.trainer.Trainer` for the
trainer-driven DEKG-ILP family, through ``fit`` for self-training
baselines), evaluates with the filtered-ranking protocol, and — when an
artifacts directory is given — writes the config copy, the model checkpoint
and a metrics JSON next to each other.

The CLI (``python -m repro run/evaluate/compare``), the grid search, the
link-prediction pipeline and the benchmark harness are all built on this
module plus :mod:`repro.registry`; :func:`train_model` is the canonical
one-call trainer.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.backend import known_backend_names, resolve_backend_name, use_backend
from repro.core.config import (EvalConfig, ModelConfig, TrainingConfig,
                               drop_retired_keys)
from repro.core.persistence import save_model
from repro.core.trainer import Trainer
from repro.datasets.benchmark import (BenchmarkDataset, build_benchmark,
                                      dataset_names, split_names)
from repro.eval.evaluator import EvaluationResult, Evaluator
from repro.registry import (allowed_override_keys, build_model, get_spec,
                            model_names)
from repro.resilience import atomic_write_json, atomic_write_text

PathLike = Union[str, Path]


def available_models() -> list:
    """Every model name the registry (and therefore the CLI) accepts."""
    return model_names()


# --------------------------------------------------------------------- #
# config sections
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class DatasetSection:
    """Which benchmark instance to build (family × split × scale × seed)."""

    name: str = "fb15k-237"
    split: str = "EQ"
    scale: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if self.name not in dataset_names():
            raise ValueError(
                f"unknown dataset {self.name!r}; choose from {dataset_names()}")
        if self.split not in split_names():
            raise ValueError(
                f"unknown split {self.split!r}; choose from {split_names()}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class ModelSection:
    """Which registered model to build, and with which hyper-parameters.

    ``overrides`` are fields of the model's config class (for the
    trainer-driven DEKG-ILP family) or factory keyword arguments (for the
    baselines), layered on top of the registry spec's own variant overrides.
    """

    name: str = "DEKG-ILP"
    embedding_dim: int = 32
    overrides: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be positive")


_SECTION_TYPES = {
    "dataset": DatasetSection,
    "model": ModelSection,
    "training": TrainingConfig,
    "eval": EvalConfig,
}


def _section_from_dict(section_cls, data: Mapping[str, Any], path: str):
    data = drop_retired_keys(section_cls, data, path)
    allowed = {f.name for f in dataclasses.fields(section_cls)}
    for key in data:
        if key not in allowed:
            raise ValueError(
                f"unknown key {path + '.' + key!r}; expected one of {sorted(allowed)}")
    return section_cls(**data)


def _without_retired_overrides(model: ModelSection) -> ModelSection:
    """``model`` with retired keys of the model's config class (or
    constructor) dropped from its overrides (see
    :data:`repro.core.config.RETIRED_KEYS`)."""
    if not isinstance(model.overrides, Mapping):
        raise ValueError("'model.overrides' must be a mapping")
    spec = get_spec(model.name)
    owner = spec.config_class or spec.model_class
    if owner is None:
        return model
    return dataclasses.replace(model, overrides=drop_retired_keys(
        owner, model.overrides, "model.overrides"))


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete, serializable description of one training + evaluation run."""

    dataset: DatasetSection = field(default_factory=DatasetSection)
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    artifacts_dir: Optional[str] = None
    backend: Optional[str] = None
    """Array backend the run executes under (see :mod:`repro.backend`).
    ``None`` defers to the ambient backend — the CLI ``--backend`` flag, an
    enclosing :func:`repro.backend.use_backend`, the ``REPRO_BACKEND``
    environment variable, or finally ``"numpy"``."""

    # ------------------------------------------------------------------ #
    @classmethod
    def default(cls, model_name: str = "DEKG-ILP") -> "ExperimentConfig":
        """The default configuration for one registered model."""
        get_spec(model_name)  # validates the name
        return cls(model=ModelSection(name=model_name))

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form: nested dicts/lists only, safe for ``json.dumps``.

        Sections serialize via ``dataclasses.asdict`` (tuples become lists
        for JSON fidelity), so a field added to any section is serialized
        automatically — the exact-round-trip invariant cannot silently lose
        settings.
        """
        def _plain(section) -> Dict[str, Any]:
            return {key: list(value) if isinstance(value, tuple) else value
                    for key, value in dataclasses.asdict(section).items()}

        data = {name: _plain(getattr(self, name)) for name in _SECTION_TYPES}
        data["artifacts_dir"] = self.artifacts_dir
        data["backend"] = self.backend
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys at every level."""
        allowed = set(_SECTION_TYPES) | {"artifacts_dir", "backend"}
        for key in data:
            if key not in allowed:
                raise ValueError(
                    f"unknown key {key!r}; expected one of {sorted(allowed)}")
        sections: Dict[str, Any] = {}
        for name, section_cls in _SECTION_TYPES.items():
            section_data = data.get(name, {})
            if not isinstance(section_data, Mapping):
                raise ValueError(f"section {name!r} must be a mapping")
            sections[name] = _section_from_dict(section_cls, section_data, name)
        sections["model"] = _without_retired_overrides(sections["model"])
        config = cls(artifacts_dir=data.get("artifacts_dir"),
                     backend=data.get("backend"), **sections)
        config.validate()
        return config

    def validate(self) -> None:
        """Cross-section checks: the model exists, overrides are known and
        not pinned by the variant, and the training section applies."""
        if self.backend is not None and self.backend not in known_backend_names():
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"choose from {known_backend_names()}")
        spec = get_spec(self.model.name)
        allowed = allowed_override_keys(self.model.name)
        for key in self.model.overrides:
            if key not in allowed:
                raise ValueError(
                    f"unknown key 'model.overrides.{key}'; "
                    f"{self.model.name} accepts {sorted(allowed)}")
            if key in spec.model_overrides:
                raise ValueError(
                    f"'model.overrides.{key}' is pinned to "
                    f"{spec.model_overrides[key]!r} by {self.model.name}; "
                    f"use the base model to vary it")
        check_training_config_applies(self.model.name, self.training)

    # ------------------------------------------------------------------ #
    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    def save(self, path: PathLike) -> Path:
        return atomic_write_text(Path(path), self.to_json() + "\n")

    @classmethod
    def load(cls, path: PathLike) -> "ExperimentConfig":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------------- #
# training
# --------------------------------------------------------------------- #
#: TrainingConfig fields that apply to self-training baselines too.
_BASELINE_TRAINING_FIELDS = ("epochs", "seed")


def check_training_config_applies(name: str,
                                  training_config: Optional[TrainingConfig]) -> None:
    """Reject a training section the model cannot (or will not) honour.

    Two failure modes would otherwise let the recorded config diverge from
    the run that happened:

    * a self-training baseline only takes ``epochs`` and ``seed`` from the
      section (its own ``fit`` loop ignores the rest), so any other field
      set away from its default raises with a pointer at ``model.overrides``;
    * a trainer-driven variant's ``training_overrides`` pin (DEKG-ILP-C pins
      ``contrastive_weight=0.0``), so setting the pinned field to anything
      but the pin or the ``TrainingConfig`` default (read: unset) raises.
    """
    spec = get_spec(name)
    if training_config is None:
        return
    defaults = TrainingConfig()
    if spec.trainer_driven:
        for key, pinned in spec.training_overrides.items():
            current = getattr(training_config, key)
            if current != pinned and current != getattr(defaults, key):
                raise ValueError(
                    f"'training.{key}' is pinned to {pinned!r} by model "
                    f"{name!r}; leave it unset or use the base model to vary it")
        return
    for config_field in dataclasses.fields(TrainingConfig):
        if config_field.name in _BASELINE_TRAINING_FIELDS:
            continue
        if getattr(training_config, config_field.name) != getattr(defaults,
                                                                  config_field.name):
            raise ValueError(
                f"model {name!r} trains itself and does not honour "
                f"'training.{config_field.name}'; only "
                f"{_BASELINE_TRAINING_FIELDS} apply — constructor "
                f"hyper-parameters go in model.overrides "
                f"({sorted(allowed_override_keys(name))})")


def train_model(name: str, dataset: BenchmarkDataset, epochs: int = 3,
                embedding_dim: int = 32, seed: int = 0,
                model_config: Optional[ModelConfig] = None,
                training_config: Optional[TrainingConfig] = None,
                overrides: Optional[Mapping[str, Any]] = None,
                journal_path: Optional[PathLike] = None,
                resume: bool = False):
    """Train the registered model ``name`` on ``dataset``, ready to score.

    The returned object implements ``set_context`` / ``score_many`` /
    ``num_parameters`` and can be handed directly to
    :class:`repro.eval.evaluator.Evaluator`.  Trainer-driven models (the
    DEKG-ILP family) are optimized by :class:`~repro.core.trainer.Trainer`
    under ``training_config`` (default: ``TrainingConfig(epochs=epochs,
    seed=seed)``); self-training baselines run ``fit(train_graph, epochs)``.
    Registry variant overrides (e.g. DEKG-ILP-C pinning the contrastive
    weight to zero) are applied on a copy — caller configs are never mutated.

    The ``training_config`` section configures the :class:`Trainer` loop, so
    for self-training baselines only ``epochs`` and ``seed`` apply; their
    constructor hyper-parameters (``learning_rate``, ``batch_size``, ...) are
    model state and go through ``overrides`` (``model.overrides`` in an
    :class:`ExperimentConfig`), where they are validated against the
    constructor signature.  A ``training_config`` that sets a trainer-only
    field away from its default for a baseline raises instead of being
    silently ignored (see :func:`check_training_config_applies`).

    ``journal_path`` arms the trainer's crash-resume journal (written every
    ``TrainingConfig.checkpoint_every`` epochs); with ``resume=True`` an
    existing journal at that path is restored first and training continues
    from its epoch — the final parameters are bit-identical to an
    uninterrupted run.  A missing journal under ``resume=True`` simply
    trains from scratch (restart-loop friendly); resume is only meaningful
    for trainer-driven models and raises for self-training baselines.
    """
    spec = get_spec(name)
    check_training_config_applies(name, training_config)
    train_graph = dataset.train_graph
    if spec.trainer_driven:
        model = build_model(name, num_entities=train_graph.num_entities,
                            num_relations=dataset.num_relations,
                            embedding_dim=embedding_dim, seed=seed,
                            model_config=model_config, overrides=overrides)
        training = training_config or TrainingConfig(epochs=epochs, seed=seed)
        training = spec.apply_training_overrides(training)
        trainer = Trainer(model, train_graph, training, journal_path=journal_path)
        if resume and journal_path is not None and Path(journal_path).exists():
            trainer.restore_journal()
        trainer.fit()
        return model
    if resume:
        raise ValueError(
            f"model {name!r} trains itself in one shot; the epoch journal "
            "and --resume only apply to trainer-driven models")
    if training_config is not None:
        # The two fields check_training_config_applies declares applicable to
        # self-training baselines really do apply; an explicit section wins
        # over the convenience epochs=/seed= arguments.
        epochs = training_config.epochs
        seed = training_config.seed
    model = build_model(name, num_entities=train_graph.num_entities,
                        num_relations=dataset.num_relations,
                        embedding_dim=embedding_dim, seed=seed,
                        model_config=model_config, overrides=overrides)
    model.fit(train_graph, epochs=epochs)
    return model


# --------------------------------------------------------------------- #
# the facade
# --------------------------------------------------------------------- #
@dataclass
class ExperimentRun:
    """Everything :meth:`Experiment.run` produced."""

    config: ExperimentConfig
    model: Any
    result: EvaluationResult
    artifacts_dir: Optional[Path] = None
    config_path: Optional[Path] = None
    checkpoint_path: Optional[Path] = None
    metrics_path: Optional[Path] = None


class Experiment:
    """Train + evaluate one registered model from one serializable config."""

    def __init__(self, config: ExperimentConfig,
                 dataset: Optional[BenchmarkDataset] = None):
        config.validate()
        if dataset is not None:
            # A shared dataset (the compare command reuses one across models)
            # must be the dataset the config describes, or the recorded
            # config.json / metrics.json would describe a different run.
            # scale/seed are None on hand-built datasets, which then only
            # check name and split.
            described = (config.dataset.name, config.dataset.split,
                         config.dataset.scale, config.dataset.seed)
            actual = (dataset.name, dataset.split_name,
                      dataset.scale if dataset.scale is not None else config.dataset.scale,
                      dataset.seed if dataset.seed is not None else config.dataset.seed)
            if described != actual:
                raise ValueError(
                    f"injected dataset is (name, split, scale, seed)={actual} "
                    f"but the config describes {described}")
        self.config = config
        self._dataset = dataset
        self._model = None
        self._result: Optional[EvaluationResult] = None
        self._artifacts_override: Optional[Path] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(cls, config: ExperimentConfig,
                    dataset: Optional[BenchmarkDataset] = None) -> "Experiment":
        return cls(config, dataset=dataset)

    @classmethod
    def from_json_file(cls, path: PathLike) -> "Experiment":
        return cls(ExperimentConfig.load(path))

    # ------------------------------------------------------------------ #
    @property
    def dataset(self) -> BenchmarkDataset:
        """The benchmark instance (built once, or injected for sharing)."""
        if self._dataset is None:
            section = self.config.dataset
            self._dataset = build_benchmark(section.name, section.split,
                                            seed=section.seed, scale=section.scale)
        return self._dataset

    def _artifacts_directory(self) -> Optional[Path]:
        """Where artifacts (and the training journal) go, if anywhere."""
        if self._artifacts_override is not None:
            return self._artifacts_override
        if self.config.artifacts_dir is not None:
            return Path(self.config.artifacts_dir)
        return None

    def train(self, resume: bool = False):
        """Train (once) and return the configured model.

        Runs under the config's ``backend`` (``None`` keeps the ambient
        backend — CLI flag, ``REPRO_BACKEND``, or numpy).  When an artifacts
        directory is configured, trainer-driven models journal their progress
        to ``<artifacts>/journal.npz`` every
        ``TrainingConfig.checkpoint_every`` epochs; ``resume=True`` continues
        from that journal if it exists (bit-identical final parameters).
        """
        if self._model is None:
            section = self.config.model
            directory = self._artifacts_directory()
            journal = None
            if directory is not None and get_spec(section.name).trainer_driven:
                journal = directory / "journal.npz"
            with use_backend(self.config.backend):
                self._model = train_model(
                    section.name, self.dataset,
                    epochs=self.config.training.epochs,
                    embedding_dim=section.embedding_dim,
                    seed=self.config.training.seed,
                    training_config=self.config.training,
                    overrides=section.overrides,
                    journal_path=journal, resume=resume)
        return self._model

    def evaluate(self, resume: bool = False) -> EvaluationResult:
        """Evaluate the trained model (training first if needed).

        If the run is interrupted during sharded evaluation, the worker pool
        is torn down cleanly and — when an artifacts directory is configured —
        a partial-progress record lands at ``<artifacts>/eval.progress.json``
        before the interrupt propagates.
        """
        if self._result is None:
            model = self.train(resume=resume)
            with use_backend(self.config.backend):
                evaluator = Evaluator.from_config(self.dataset, self.config.eval)
                directory = self._artifacts_directory()
                on_interrupt = None
                if directory is not None:
                    def on_interrupt(completed: int, total: int) -> None:
                        atomic_write_json(directory / "eval.progress.json", {
                            "kind": "eval-interrupt",
                            "model": self.config.model.name,
                            "completed_shards": completed,
                            "total_shards": total,
                        })
                self._result = evaluator.evaluate(model,
                                                  model_name=self.config.model.name,
                                                  on_interrupt=on_interrupt)
        return self._result

    # ------------------------------------------------------------------ #
    def run(self, artifacts_dir: Optional[PathLike] = None,
            resume: bool = False) -> ExperimentRun:
        """Train, evaluate and (optionally) persist artifacts.

        ``artifacts_dir`` (argument, falling back to the config field)
        receives ``config.json`` (the exact configuration), ``model.npz``
        (the :mod:`repro.core.persistence` checkpoint) and ``metrics.json``
        (the per-scope metric summary plus the config for provenance); every
        file is written atomically, so a crash never leaves a torn artifact.
        ``resume=True`` continues an interrupted training run from the
        ``journal.npz`` epoch journal in the artifacts directory, if present.
        """
        directory = artifacts_dir if artifacts_dir is not None else self.config.artifacts_dir
        if directory is not None:
            # Created up front: the trainer journals into it mid-run.
            directory = Path(directory)
            directory.mkdir(parents=True, exist_ok=True)
            self._artifacts_override = directory
        result = self.evaluate(resume=resume)
        run = ExperimentRun(config=self.config, model=self._model, result=result)
        if directory is not None:
            run.artifacts_dir = directory
            # The written config records the run that actually happened:
            # variant training pins applied (DEKG-ILP-C's contrastive weight
            # is recorded as 0.0, not the section's untouched default) and
            # artifacts_dir set to where the artifacts went, so replaying
            # `repro run --config <dir>/config.json` reproduces this run —
            # artifacts included — without extra flags.
            spec = get_spec(self.config.model.name)
            training = self.config.training
            if spec.trainer_driven:
                training = spec.apply_training_overrides(training)
            effective = dataclasses.replace(self.config, training=training,
                                            artifacts_dir=str(directory))
            run.config_path = effective.save(directory / "config.json")
            run.checkpoint_path = save_model(self._model, directory / "model.npz")
            metrics = {
                "model": result.model_name,
                "dataset": result.dataset_name,
                "split": result.split_name,
                "backend": resolve_backend_name(self.config.backend),
                "parameters": int(self._model.num_parameters()),
                "metrics": result.summary(),
                "config": effective.to_dict(),
            }
            cache_stats = getattr(self._model, "subgraph_cache_stats", None)
            if callable(cache_stats):
                # Extraction-cache effectiveness of the run (lifetime and
                # per-context scopes); NaN rates become null for strict JSON.
                metrics["subgraph_cache"] = {
                    key: (None if isinstance(value, float) and value != value
                          else value)
                    for key, value in cache_stats().items()
                }
            run.metrics_path = atomic_write_json(directory / "metrics.json", metrics)
        return run
