"""The warm scoring service behind the daemon and the in-process client.

A :class:`ScoringService` owns a set of registry-built models bound to one
context graph, a :class:`~repro.serving.coalescer.RequestCoalescer` that
serializes and batches their compute, and the telemetry the daemon's
``stats`` op reports.  Construction paths mirror the batch entry points:

* :meth:`ScoringService.from_experiment` — train through the
  :class:`~repro.experiment.Experiment` facade (the ``serve --config``
  path), then keep the trained model warm instead of exiting;
* :meth:`ScoringService.from_checkpoint` — load a ``model.npz`` written by
  ``repro run`` and bind it to the dataset's evaluation graph (the
  ``serve --checkpoint`` path);
* direct construction with pre-built models (tests, benchmarks, A/B
  serving of several models at once).

Provider sharing: models whose extraction signatures (hops, labeling
scheme, node cap) agree are grouped onto one shared
:class:`~repro.subgraph.provider.SubgraphProvider` via
:func:`~repro.subgraph.provider.share_provider` — extractions are
relation-agnostic, so a ``compare`` across DEKG-ILP-N/Grail/TACT pays for
each (head, tail) extraction once, not three times.  Models with different
signatures keep separate providers (a shared entry would be the wrong
subgraph), and the ``stats`` op reports hit rates per provider.

Bit-identity: ``score``/``score_many`` execute exactly the submitted
composition (fused only for ``batch_invariant_scoring`` models, which are
bitwise composition-invariant), and ``rank`` scores ``[true] + candidates``
in one request — the same single ``score_many`` call
:meth:`repro.eval.evaluator.ShardWorkload.rank_item` makes — so daemon
responses equal direct ``Evaluator`` results bit for bit.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.datasets.benchmark import BenchmarkDataset, build_benchmark
from repro.eval.ranking import rank_candidates
from repro.kg.graph import KnowledgeGraph
from repro.kg.triple import Triple
from repro.registry import registered_models
from repro.resilience import atomic_write_json
from repro.serving.coalescer import RequestCoalescer
from repro.subgraph.provider import SubgraphProvider, share_provider

PathLike = Union[str, Path]

#: How many of the most recent request latencies back the percentile
#: telemetry; a bounded reservoir keeps a long-lived daemon's footprint flat.
LATENCY_RESERVOIR = 8192


def _as_triple(value: Union[Triple, Sequence[int]]) -> Triple:
    """Accept ``Triple`` or a ``(head, relation, tail)`` sequence (wire form)."""
    if isinstance(value, Triple):
        return value
    head, relation, tail = value
    return Triple(int(head), int(relation), int(tail))


class ScoringService:
    """Warm, coalesced link-prediction scoring over registry-built models."""

    def __init__(self, models: Mapping[str, Any], graph: KnowledgeGraph, *,
                 max_batch: int = 64, max_wait_ms: float = 2.0,
                 stats_path: Optional[PathLike] = None,
                 share_providers: bool = True,
                 replicas: int = 0,
                 max_pending: Optional[int] = None):
        if not models:
            raise ValueError("a scoring service needs at least one model")
        self._models: Dict[str, Any] = dict(models)
        self._graph = graph
        self.stats_path = Path(stats_path) if stats_path is not None else None
        for model in self._models.values():
            set_context = getattr(model, "set_context", None)
            if callable(set_context):
                set_context(graph)
        self._shared_providers = (self._share_providers()
                                  if share_providers else [])
        specs = registered_models()
        self._fusable = {name: bool(specs[name].batch_invariant_scoring)
                         if name in specs else False
                         for name in self._models}
        # Multi-process replicas (opt-in): flushed batches dispatch to
        # spawned workers sharing one CSR page + per-model parameter pages;
        # scores stay bit-identical to the in-process path.  Models the
        # pool cannot ship keep scoring on the flush thread.
        self._replica_pool = None
        if replicas > 0:
            from repro.serving.replicas import ReplicaPool

            self._replica_pool = ReplicaPool(self._models, graph, replicas)
        self._coalescer = RequestCoalescer(
            self._direct_score, max_batch=max_batch, max_wait_ms=max_wait_ms,
            fusable=lambda name: self._fusable.get(name, False),
            max_pending=max_pending)
        self._telemetry_lock = threading.Lock()
        self._op_counts: Dict[str, int] = {}
        self._errors = 0
        self._latencies: deque = deque(maxlen=LATENCY_RESERVOIR)
        self._started_at = time.monotonic()
        self._closed = False

    # ------------------------------------------------------------------ #
    # construction paths
    # ------------------------------------------------------------------ #
    @classmethod
    def from_experiment(cls, config, *, dataset: Optional[BenchmarkDataset] = None,
                        **kwargs) -> "ScoringService":
        """Train one model through the Experiment facade, then serve it warm.

        ``config`` is an :class:`~repro.experiment.ExperimentConfig` or a
        path to its JSON form (the same file ``repro run --config`` takes).
        The served context is the dataset's evaluation graph ``G ∪ G'`` —
        what the batch evaluator scores against.
        """
        from repro.experiment import Experiment, ExperimentConfig
        if isinstance(config, (str, Path)):
            config = ExperimentConfig.load(config)
        experiment = Experiment.from_config(config, dataset=dataset)
        model = experiment.train()
        graph = experiment.dataset.split.evaluation_graph()
        return cls({config.model.name: model}, graph, **kwargs)

    @classmethod
    def from_checkpoint(cls, path: PathLike, *,
                        dataset: Optional[BenchmarkDataset] = None,
                        dataset_name: str = "fb15k-237", split: str = "EQ",
                        scale: float = 0.4, seed: int = 0,
                        **kwargs) -> "ScoringService":
        """Load a ``model.npz`` checkpoint and serve it against a benchmark.

        The checkpoint carries the model; the dataset arguments rebuild the
        benchmark whose evaluation graph becomes the scoring context (pass
        ``dataset`` to reuse an already-built instance).
        """
        from repro.core.persistence import load_model
        model = load_model(path)
        if dataset is None:
            dataset = build_benchmark(dataset_name, split, seed=seed, scale=scale)
        graph = dataset.split.evaluation_graph()
        name = getattr(model, "name", type(model).__name__)
        return cls({name: model}, graph, **kwargs)

    # ------------------------------------------------------------------ #
    def _share_providers(self) -> List[SubgraphProvider]:
        """One shared provider per extraction-signature group of models."""
        groups: Dict[Tuple[int, bool, int], List[Any]] = {}
        for model in self._models.values():
            provider = getattr(model, "subgraph_provider", None)
            if provider is not None:
                groups.setdefault(provider.extraction_signature, []).append(model)
        shared: List[SubgraphProvider] = []
        for group in groups.values():
            if len(group) < 2:
                # A lone model keeps its own provider — swapping in a fresh
                # shared one would discard any extractions training warmed.
                continue
            provider = share_provider(group)
            if provider is not None:
                shared.append(provider)
        return shared

    def _direct_score(self, name: str, triples: List[Triple]) -> Sequence[float]:
        """The coalescer's compute function: replica dispatch or in-process.

        With a replica pool, flushed groups for shippable models run in a
        spawned replica over shared pages; everything else (and every
        request when ``replicas=0``) scores in-process.  Both paths execute
        exactly the handed-in composition and return bit-identical scores,
        so the equivalence gates hold regardless of routing.
        """
        if name not in self._models:
            raise ValueError(
                f"model {name!r} is not served; loaded: {sorted(self._models)}")
        if self._replica_pool is not None and self._replica_pool.serves(name):
            return self._replica_pool.score(name, triples)
        return self._models[name].score_many(triples)

    def _record(self, op: str, started_at: float) -> None:
        with self._telemetry_lock:
            self._op_counts[op] = self._op_counts.get(op, 0) + 1
            self._latencies.append(time.monotonic() - started_at)

    # ------------------------------------------------------------------ #
    # the query surface
    # ------------------------------------------------------------------ #
    @property
    def model_names(self) -> List[str]:
        return sorted(self._models)

    @property
    def graph(self) -> KnowledgeGraph:
        return self._graph

    def submit(self, model: str, triples: Sequence[Union[Triple, Sequence[int]]]):
        """Enqueue one scoring request; returns its future (list of floats)."""
        return self._coalescer.submit(model, [_as_triple(t) for t in triples])

    def score_many(self, model: str,
                   triples: Sequence[Union[Triple, Sequence[int]]]) -> List[float]:
        """Coalesced scores for one request, in submission order."""
        started = time.monotonic()
        try:
            result = self.submit(model, triples).result()
        except Exception:
            with self._telemetry_lock:
                self._errors += 1
            raise
        self._record("score_many", started)
        return result

    def score(self, model: str, head: int, relation: int, tail: int) -> float:
        """Score one link — a single-triple request through the coalescer."""
        started = time.monotonic()
        try:
            result = self.submit(model, [(head, relation, tail)]).result()[0]
        except Exception:
            with self._telemetry_lock:
                self._errors += 1
            raise
        self._record("score", started)
        return result

    def rank(self, model: str, triple: Union[Triple, Sequence[int]],
             candidates: Sequence[Union[Triple, Sequence[int]]]) -> Dict[str, Any]:
        """Filtered rank of ``triple`` against explicit candidate triples.

        Scores ``[triple] + candidates`` as one request — the exact
        ``score_many`` composition
        :meth:`~repro.eval.evaluator.ShardWorkload.rank_item` uses — so the
        returned rank is bit-identical to the batch evaluator's for the same
        candidate list, for every model (composition-invariant or not).
        """
        started = time.monotonic()
        try:
            scores = self.submit(model, [triple] + list(candidates)).result()
        except Exception:
            with self._telemetry_lock:
                self._errors += 1
            raise
        rank = rank_candidates(scores[0], np.asarray(scores[1:], dtype=np.float64))
        self._record("rank", started)
        return {"rank": int(rank), "score": scores[0],
                "num_candidates": len(scores) - 1}

    def compare(self, triple: Union[Triple, Sequence[int]]) -> Dict[str, float]:
        """One link scored by every served model (A/B endpoint).

        Submits one single-triple request per model before gathering, so the
        models' flushes interleave and provider-backed models reuse the
        shared extraction the first one pays for.
        """
        started = time.monotonic()
        futures = {name: self.submit(name, [triple]) for name in self.model_names}
        try:
            result = {name: future.result()[0] for name, future in futures.items()}
        except Exception:
            with self._telemetry_lock:
                self._errors += 1
            raise
        self._record("compare", started)
        return result

    def models(self) -> List[Dict[str, Any]]:
        """Discovery listing of the *served* models (registry-shaped rows)."""
        specs = registered_models()
        rows = []
        for name in self.model_names:
            model = self._models[name]
            spec = specs.get(name)
            rows.append({
                "name": name,
                "parameters": int(model.num_parameters()),
                "capabilities": spec.capabilities() if spec is not None else {},
                "description": spec.description if spec is not None else "",
            })
        return rows

    # ------------------------------------------------------------------ #
    # telemetry and lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Telemetry snapshot: request counts, latency percentiles, the
        coalescer's batch histograms and per-provider cache hit rates."""
        with self._telemetry_lock:
            op_counts = dict(self._op_counts)
            errors = self._errors
            latencies = list(self._latencies)
        percentiles: Dict[str, Optional[float]] = {"p50_ms": None, "p99_ms": None}
        if latencies:
            p50, p99 = np.percentile(np.asarray(latencies) * 1000.0, [50.0, 99.0])
            percentiles = {"p50_ms": float(p50), "p99_ms": float(p99)}
        providers = []
        seen = set()
        for model in self._models.values():
            provider = getattr(model, "subgraph_provider", None)
            if provider is None or id(provider) in seen:
                continue
            seen.add(id(provider))
            stats = provider.stats()
            providers.append({
                "signature": list(provider.extraction_signature),
                "shared": provider in self._shared_providers,
                "hits": stats["lifetime_hits"],
                "misses": stats["lifetime_misses"],
                "hit_rate": None if stats["lifetime_hit_rate"] != stats["lifetime_hit_rate"]
                else stats["lifetime_hit_rate"],
                "entries": stats["entries"],
            })
        return {
            "models": self.model_names,
            "uptime_s": time.monotonic() - self._started_at,
            "requests": sum(op_counts.values()),
            "requests_by_op": op_counts,
            "errors": errors,
            "latency": percentiles,
            "coalescer": self._coalescer.stats(),
            "providers": providers,
            "replicas": (self._replica_pool.stats()
                         if self._replica_pool is not None else None),
        }

    def coalescer_stats(self) -> Dict[str, Any]:
        return self._coalescer.stats()

    def drain(self) -> None:
        """Block until all in-flight requests have resolved."""
        self._coalescer.drain()

    def flush_stats(self) -> Optional[Path]:
        """Atomically persist the telemetry snapshot to ``stats_path``."""
        if self.stats_path is None:
            return None
        return atomic_write_json(self.stats_path, self.stats())

    def close(self) -> Optional[Path]:
        """Drain in-flight requests, stop the flush thread, persist stats.

        Idempotent; returns the stats path when telemetry was written.  This
        is the SIGTERM/Ctrl-C path of the daemon: every accepted request
        resolves before the coalescer stops, and the final telemetry lands
        through the same atomic writer ``metrics.json`` uses.
        """
        if self._closed:
            return None
        self._closed = True
        # Order matters: the coalescer drain may still dispatch queued
        # requests to replicas, so the pool (and its shared pages) tears
        # down after the last flush resolves.
        try:
            self._coalescer.close()
            return self.flush_stats()
        finally:
            if self._replica_pool is not None:
                self._replica_pool.close()

    def __enter__(self) -> "ScoringService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
