"""Which public functions make up each layer, and the per-layer metrics.

Every name is wrapped in the namespace the program looks it up in at call
time: a function imported by name (``repro.core.trainer.clip_grad_norm``,
``repro.eval.evaluator.filtered_candidates``) is patched in the importing
module, and ``SubgraphProvider.get_many`` reaches extraction through the
module globals of :mod:`repro.subgraph.provider`.
"""

from __future__ import annotations

import math
from typing import Dict, List

from perfbench.tracer import Tracer

#: Supervisor event kinds and the counter each lands in.
SUPERVISOR_EVENTS = {"retry": "retries", "timeout": "timeouts",
                     "worker-died": "worker_died", "fallback": "fallbacks",
                     "error": "errors"}

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "kg.sampling.calls": "count", "kg.sampling.s": "s", "kg.sampling.self_s": "s",
    "core.contrastive.calls": "count", "core.contrastive.s": "s",
    "core.contrastive.self_s": "s",
    "core.model.calls": "count", "core.model.triples": "count",
    "core.model.s": "s", "core.model.self_s": "s",
    "subgraph.provider.lookups": "count", "subgraph.provider.hits": "count",
    "subgraph.provider.misses": "count", "subgraph.provider.hit_ratio": "ratio",
    "subgraph.provider.extracted_pairs": "count", "subgraph.provider.s": "s",
    "subgraph.provider.self_s": "s",
    "core.gsm.calls": "count", "core.gsm.subgraphs": "count", "core.gsm.s": "s",
    "core.gsm.self_s": "s",
    "core.clrm.calls": "count", "core.clrm.s": "s", "core.clrm.self_s": "s",
    "autodiff.calls": "count", "autodiff.s": "s", "autodiff.self_s": "s",
    "autodiff.optim.calls": "count", "autodiff.optim.s": "s",
    "autodiff.optim.self_s": "s", "autodiff.optim.skipped_batches": "count",
    "eval.ranking.calls": "count", "eval.ranking.s": "s", "eval.ranking.self_s": "s",
    "eval.sharding.calls": "count", "eval.sharding.shards": "count",
    "eval.sharding.wall_s": "s", "eval.sharding.self_s": "s",
    "eval.sharding.overhead_s": "s",
    "resilience.supervisor.retries": "count",
    "resilience.supervisor.timeouts": "count",
    "resilience.supervisor.worker_died": "count",
    "resilience.supervisor.fallbacks": "count",
    "resilience.supervisor.errors": "count",
    "shm.pages": "count", "shm.bytes": "bytes", "shm.s": "s",
    "serving.coalescer.requests": "count", "serving.coalescer.flushes": "count",
    "serving.coalescer.fused_ratio": "ratio",
    "serving.coalescer.requests_per_flush": "count",
    "serving.coalescer.triples_per_flush": "count",
    "serving.coalescer.rejected": "count",
    "serving.service.calls": "count", "serving.service.busy_ratio": "ratio",
    "serving.service.compute_ms.p50": "ms", "serving.service.compute_ms.tail": "ms",
    "serving.service.queue_wait_ms.p50": "ms",
    "serving.service.queue_wait_ms.tail": "ms",
    "trace.spans": "count", "trace.wall_s": "s", "trace.unattributed_s": "s",
    "trace.reconcile_error": "ratio", "trace.overhead": "ratio",
}


def _add_len(key: str, position: int):
    def counter(tracer, args, kwargs, result, before):
        tracer.count(key, len(args[position]))
    return counter


def _count_provider(tracer, args, kwargs, result, before):
    provider = args[0]
    hits, misses = before
    tracer.count("subgraph.provider.lookups", len(args[2]))
    tracer.count("subgraph.provider.hits", provider.lifetime_hits - hits)
    tracer.count("subgraph.provider.misses", provider.lifetime_misses - misses)


def _count_skipped(tracer, args, kwargs, result, before):
    if not math.isfinite(result):
        tracer.count("autodiff.optim.skipped_batches")


def _count_page(tracer, args, kwargs, result, before):
    tracer.count("shm.pages")
    tracer.count("shm.bytes", result.spec.manifest["size"])


def _count_shards(tracer, args, kwargs, result, before):
    tracer.count("eval.sharding.shards", len(result))


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (undo with ``restore``)."""
    import repro.autodiff.optim as optim
    import repro.core.contrastive as contrastive
    import repro.core.gsm as gsm
    import repro.core.model as model
    import repro.core.trainer as trainer
    import repro.eval.evaluator as evaluator
    import repro.eval.sharding as sharding
    import repro.kg.graph as graph
    import repro.kg.sampling as sampling
    import repro.shm as shm
    import repro.subgraph.provider as provider
    from repro.autodiff.tensor import Tensor

    wrap = tracer.wrap
    wrap(sampling.NegativeSampler, "sample_batch", "kg.sampling")
    wrap(contrastive.ContrastiveSampler, "sample_pairs_batch", "core.contrastive")
    wrap(trainer, "batch_contrastive_loss", "core.contrastive")
    wrap(model.DEKGILP, "forward_batch", "core.model",
         counter=_add_len("core.model.triples", 1))
    # score_many enters forward_batch, which counts the triples once.
    wrap(model.DEKGILP, "score_many", "core.model")
    wrap(model.DEKGILP, "semantic_score_batch", "core.clrm")
    wrap(provider.SubgraphProvider, "get_many", "subgraph.provider",
         counter=_count_provider,
         snapshot=lambda args: (args[0].lifetime_hits, args[0].lifetime_misses))
    wrap(provider, "extract_batch", "subgraph.provider",
         counter=_add_len("subgraph.provider.extracted_pairs", 1))
    wrap(provider, "extract_enclosing_subgraph", "subgraph.provider",
         counter=lambda t, a, k, r, b: t.count("subgraph.provider.extracted_pairs"))
    wrap(gsm.GSM, "score_batch", "core.gsm",
         counter=_add_len("core.gsm.subgraphs", 1))
    wrap(Tensor, "backward", "autodiff")
    wrap(optim.Adam, "step", "autodiff.optim")
    wrap(trainer, "clip_grad_norm", "autodiff.optim", counter=_count_skipped)
    wrap(evaluator, "filtered_candidates", "eval.ranking")
    wrap(evaluator, "rank_candidates", "eval.ranking")
    wrap(sharding, "evaluate_sharded", "eval.sharding")
    wrap(sharding, "contiguous_shards", "eval.sharding", counter=_count_shards,
         span=False)
    # Graph pages are made through the name kg.graph imported; parameter
    # pages through repro.shm, which persistence imports at call time.
    wrap(graph, "create_page", "shm", counter=_count_page)
    wrap(shm, "create_page", "shm", counter=_count_page)


def supervisor_observer(tracer: Tracer):
    """An ``on_event`` callback counting supervisor ``TaskEvent`` kinds."""
    def on_event(event) -> None:
        tracer.count("resilience.supervisor." + SUPERVISOR_EVENTS.get(event.kind, "errors"))
    return on_event


def layer_metrics(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric: span totals, counters, then ``extra``.

    Layers the stage never entered report zero, which is the prediction
    for them on that workload.
    """
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    for layer, totals in tracer.layer_totals().items():
        if layer == "eval.sharding":
            values["eval.sharding.calls"] = totals["calls"]
            values["eval.sharding.wall_s"] = totals["s"]
            values["eval.sharding.self_s"] = totals["self_s"]
            continue
        for key in ("calls", "s", "self_s"):
            name = f"{layer}.{key}"
            if name in values:
                values[name] = totals[key]
    for name, amount in tracer.counts.items():
        values[name] = amount
    lookups = values["subgraph.provider.lookups"]
    values["subgraph.provider.hit_ratio"] = (
        values["subgraph.provider.hits"] / lookups if lookups else 0.0)
    values["trace.spans"] = float(len(tracer.spans))
    values.update(extra)
    unknown: List[str] = sorted(set(values) - set(PER_LAYER_UNITS))
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {unknown}")
    return values
