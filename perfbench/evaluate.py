"""The ``evaluate`` stage: sharded filtered ranking on the EQ, MB and ME mixtures.

One cycle is one ``Evaluator.evaluate(workers=2)`` call per mixture (the
Table III protocol, head and tail prediction).  Every call spawns its
workers, lays out fresh shared-memory pages and starts each worker with a
cold provider, so per-call start-up costs stay visible.  The model is
built untrained from the seed: ranking cost does not depend on what the
parameters are.  The seed also draws the candidates; test links are
capped per mixture.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List

from perfbench.stats import median
from perfbench.stage import DATASET_SEED, Check, StageResult, run_for

MIXTURES = ("EQ", "MB", "ME")
WORKERS = 2


@dataclass(frozen=True)
class EvaluateSize:
    scale: float
    max_candidates: int
    max_test: int
    family: str = "fb15k-237"


FULL = EvaluateSize(scale=0.3, max_candidates=20, max_test=12)
TINY = EvaluateSize(scale=0.15, max_candidates=5, max_test=4)


@dataclass
class EvaluateSetup:
    evaluators: Dict[str, object]
    tests: Dict[str, list]
    model: object
    seed: int


def new_model(dataset, seed: int):
    """The untrained, eval-mode DEKG-ILP every evaluation ranks with."""
    from repro.registry import build_model

    graph = dataset.train_graph
    model = build_model("DEKG-ILP", num_entities=graph.num_entities,
                        num_relations=dataset.num_relations, seed=seed)
    model.eval()
    return model


def build(size: EvaluateSize, seed: int) -> EvaluateSetup:
    from repro.datasets.benchmark import build_benchmark
    from repro.eval.evaluator import Evaluator

    evaluators, tests = {}, {}
    dataset = None
    for mixture in MIXTURES:
        dataset = build_benchmark(size.family, mixture, seed=DATASET_SEED,
                                  scale=size.scale)
        evaluators[mixture] = Evaluator(dataset, max_candidates=size.max_candidates,
                                        seed=seed)
        tests[mixture] = list(dataset.test_triples[:size.max_test])
    return EvaluateSetup(evaluators, tests, new_model(dataset, seed), seed)


class ChildPeakRss:
    """Peak resident set of this process's children, sampled from ``/proc``.

    ``RUSAGE_CHILDREN`` cannot answer this on Linux: a child's high-water
    mark carries over from the parent image it was forked from into the
    program it then runs, so it reads the parent's size.  ``VmHWM`` starts
    afresh in the new program; sampling it while the workers live gives
    their own peak.
    """

    def __init__(self, interval_s: float = 0.02):
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-rss", daemon=True)

    def __enter__(self) -> "ChildPeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while True:
            self.sample()
            if self._stop.wait(self.interval_s):
                return

    def sample(self) -> None:
        parent = str(os.getpid())
        for entry in os.scandir("/proc"):
            if not entry.name.isdigit():
                continue
            try:
                with open(f"/proc/{entry.name}/stat", encoding="ascii") as handle:
                    if handle.read().rsplit(")", 1)[1].split()[1] != parent:
                        continue
                # Only workers that already run their own program: between
                # fork and exec a child still reports the parent's peak.
                with open(f"/proc/{entry.name}/cmdline", "rb") as handle:
                    if b"spawn_main" not in handle.read():
                        continue
                with open(f"/proc/{entry.name}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            self.peak_kb = max(self.peak_kb, int(line.split()[1]))
                            break
            except (OSError, IndexError, ValueError):
                continue  # the process ended between listing and reading


def run_cycle(setup: EvaluateSetup, clock, workers: int = WORKERS,
              on_event=None, model=None) -> Dict[str, object]:
    """Rank every mixture once; returns per-mixture summaries and walls."""
    walls, summaries = {}, {}
    for mixture in MIXTURES:
        evaluator = setup.evaluators[mixture]
        start = clock()
        result = evaluator.evaluate(model if model is not None else setup.model,
                                    test_triples=setup.tests[mixture],
                                    workers=workers, on_event=on_event)
        walls[mixture] = clock() - start
        summaries[mixture] = result.summary()
    return {"walls": walls, "summaries": summaries}


def cycles(setup: EvaluateSetup, clock, on_event=None) -> Iterator[Dict[str, object]]:
    """Sharded cycle after cycle, each with its workers' peak RSS."""
    while True:
        with ChildPeakRss() as workers_rss:
            cycle = run_cycle(setup, clock, on_event=on_event)
        cycle["worker_peak_kb"] = workers_rss.peak_kb
        yield cycle


def summarize(setup: EvaluateSetup, done: List[Dict[str, object]], clock,
              in_process_check: bool = False) -> StageResult:
    """The stage's metrics and checks over the cycles ``cycles`` yielded.

    With ``in_process_check`` every mixture is also ranked in-process on a
    fresh replica (``workers=1``), which gives the compute split that the
    spawned workers cannot expose, and the two summaries must be equal.
    """
    first = done[0]["summaries"]
    items = sum(len(tests) for tests in setup.tests.values()) * 2
    cycle_walls = [sum(cycle["walls"].values()) for cycle in done]
    peak_kb = max(cycle["worker_peak_kb"] for cycle in done)
    mrr = {mixture: _mrr_of(first[mixture]) for mixture in MIXTURES}
    result = StageResult(
        metrics={"evaluate.wall_s": median(cycle_walls),
                 "evaluate.worker_peak_rss_mb": peak_kb / 1024.0},
        attempted=items * len(done), failed=0,
        detail={"cycles": len(done), "cycle_wall_s": cycle_walls, "mrr": mrr})
    stable = all(cycle["summaries"] == first for cycle in done)
    result.checks.append(Check("evaluate.cycles_identical", stable,
                               "every sharded cycle ranks identically"))
    finite = all(math.isfinite(value) and 0.0 < value <= 1.0 for value in mrr.values())
    result.checks.append(Check("evaluate.mrr_in_range", finite, f"MRR {mrr}"))
    result.checks.append(Check("evaluate.worker_rss_sampled", peak_kb > 0,
                               f"worker peak {peak_kb} kB"))
    if in_process_check:
        inproc_start = clock()
        inproc = run_cycle(setup, clock, workers=1,
                           model=new_model(setup.evaluators["EQ"].dataset, setup.seed))
        result.detail["in_process_wall_s"] = clock() - inproc_start
        result.checks.append(Check(
            "evaluate.sharded_equals_in_process", inproc["summaries"] == first,
            "sharded summaries equal the in-process ones bit for bit"))
        sharded_wall = sum(cycle_walls)
        in_process = sum(inproc["walls"].values()) * len(done)
        result.layers["eval.sharding.overhead_s"] = sharded_wall - in_process / WORKERS
    return result


def measure(size: EvaluateSize, setup: EvaluateSetup, budget_s: float, clock,
            on_event=None, in_process_check: bool = False) -> StageResult:
    """Sharded cycles for ``budget_s`` seconds (at least one)."""
    done = run_for(cycles(setup, clock, on_event), budget_s, clock)
    return summarize(setup, done, clock, in_process_check)


def _mrr_of(summary: Dict[str, Dict[str, float]]) -> float:
    return float(summary["overall"]["MRR"])


def probe(size: EvaluateSize) -> Dict[str, float]:
    """Sharded (``workers=WORKERS``) MRR per mixture at the fixed reference seed.

    Sharded like the measured cycles, so that the stored reference, which
    in-process ranking gives just the same, pins the sharded reduction.
    """
    setup = build(size, 0)
    cycle = run_cycle(setup, clock=lambda: 0.0)
    return {f"mrr_{mixture}": _mrr_of(cycle["summaries"][mixture]) for mixture in MIXTURES}
