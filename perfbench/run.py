"""Benchmark of record for the DEKG-ILP reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 36 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs only the
named workload's stage with every layer wrapped and prints the per-layer
metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the run exits non-zero
when an output check fails.  A record of the run (environment, per-stage
detail, checks) and, for traced runs, the span file land in
``.perfbench/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("train", "evaluate", "serve")
#: Share of ``--seconds`` each stage measures for, by whether it is the
#: named workload's own stage.  Every run measures all three stages, so
#: that it reports every end-to-end metric, and every metric is bounded on
#: every workload; so the other stages still get enough time for several
#: fits and cycles and every serve probe, and the named stage gets a
#: little more.
SHARES = {"train": (0.3, 0.25), "evaluate": (0.3, 0.25), "serve": (0.45, 0.4)}
#: Share of ``--seconds`` each rate-ladder probe of the serve stage runs
#: for, whichever stage is named: queues need time to settle, and equal
#: probes measure ``serve.max_rate_rps`` alike in every workload.  The
#: rest of the serve budget runs at the nominal rate, whose latencies are
#: reported but not bounded.
PROBE_SHARE = 1 / 24
#: Set-up repetitions whose median is reported.
SETUP_REPS = 3
#: Allowed |sum(self) + unattributed - wall| / wall of a traced run, on
#: every thread that recorded spans.
RECONCILE_TOLERANCE = 0.01
OUTPUT_DIR = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

IMPORT_PROBE = (
    "import time; start = time.perf_counter(); "
    "import repro.core.trainer, repro.eval.sharding, repro.serving, repro.registry; "
    "repro.registry.registered_models(); print(time.perf_counter() - start)")

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "train.cold_epoch_s": "s", "train.warm_triples_per_s": "1/s",
    "evaluate.wall_s": "s", "evaluate.worker_peak_rss_mb": "MB",
    "serve.max_rate_rps": "1/s",
}


def _bootstrap() -> None:
    """Put the program and the benchmark on ``sys.path``, or stop."""
    missing = [path for path in (SRC / "repro" / "__init__.py",
                                 ROOT / "benchmarks" / "common.py")
               if not path.is_file()]
    if missing:
        sys.stderr.write("perfbench: not a checkout of the repository; missing "
                         + ", ".join(str(p.relative_to(ROOT)) for p in missing) + "\n")
        sys.exit(2)
    for path in (SRC, ROOT, ROOT / "benchmarks"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


# --------------------------------------------------------------------- #
# environment stamp
# --------------------------------------------------------------------- #
def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 — older numpy has no dict mode
        return "unknown"


def environment() -> Dict[str, object]:
    """Usable cores, BLAS and thread settings, backend, versions, commit."""
    import numpy
    from common import bench_env

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "num_threads_env": {key: value for key, value in sorted(os.environ.items())
                            if key.endswith("_NUM_THREADS")},
        **bench_env(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": _commit(),
    }


# --------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------- #
def import_seconds(reps: int = SETUP_REPS) -> float:
    """Median import time of the program, each in a fresh interpreter."""
    from perfbench.stats import median

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(reps):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return median(times)


def timed_setup(build: Callable[[], object], clock, reps: int,
                discard: Callable[[object], None] = lambda obj: None) -> Tuple[object, float]:
    """Build ``reps`` times; keep the last object, return the median time."""
    from perfbench.stats import median

    times, kept = [], None
    for _ in range(reps):
        if kept is not None:
            discard(kept)
        start = clock()
        kept = build()
        times.append(clock() - start)
    return kept, median(times)


# --------------------------------------------------------------------- #
# runs
# --------------------------------------------------------------------- #
def _sizes(tiny: bool):
    from perfbench import evaluate, serve, train

    stages = {"train": train, "evaluate": evaluate, "serve": serve}
    return {name: stage.TINY if tiny else stage.FULL for name, stage in stages.items()}


def _serve_phases(budget_s: float, seconds: float) -> Tuple[float, float]:
    """``(nominal_s, probe_s)`` of a serve stage given ``budget_s``."""
    from perfbench.serve import PROBES, STEPS

    probe_s = seconds * PROBE_SHARE
    return budget_s - (PROBES + STEPS) * probe_s, probe_s


def _close_service(setup) -> None:
    setup.service.close()


def run_untraced(workload: str, seed: int, seconds: float, tiny: bool = False):
    """Every stage, the named one for the larger share; end-to-end metrics.

    All set-ups are built (and timed) first.  The serve stage then runs at
    its nominal rate and searches the ladder, and its staircase probes
    alternate with turns of train fits and evaluate cycles
    (:class:`perfbench.stage.Rotation`), an equal part of their budgets
    before each probe: so every stage's units are spread over the whole
    run, and a stretch of contention on the host slows a few units of every
    stage rather than every unit of one.
    """
    from perfbench import evaluate, serve, train
    from perfbench.stage import Rotation

    clock = time.perf_counter
    sizes = _sizes(tiny)
    budget = {name: seconds * SHARES[name][name != workload] for name in WORKLOADS}
    reps = 1 if tiny else SETUP_REPS
    setup_parts = {"import": import_seconds(reps)}
    setups = {}
    setups["serve"], setup_parts["serve"] = timed_setup(
        lambda: serve.build(sizes["serve"], seed), clock, reps, _close_service)
    try:
        setups["evaluate"], setup_parts["evaluate"] = timed_setup(
            lambda: evaluate.build(sizes["evaluate"], seed), clock, reps)
        setups["train"], setup_parts["train"] = timed_setup(
            lambda: train.build(sizes["train"], train.fit_seed(seed, 0)), clock, reps)
        rotation = Rotation({
            "train": train.fits(sizes["train"], seed, first_trainer=setups.pop("train")),
            "evaluate": evaluate.cycles(setups["evaluate"], clock),
        }, clock)
        serve_steps = serve.units(sizes["serve"], setups["serve"],
                                  *_serve_phases(budget["serve"], seconds), clock)
        gc.collect()
        served = [next(serve_steps)]
        for part in range(1, serve.STEPS + 1):
            rotation.run({name: budget[name] * part / serve.STEPS
                          for name in rotation.units})
            served.append(next(serve_steps))
        results = {}
        results["serve"], phases = serve.summarize(sizes["serve"], served)
        results["serve"].checks.extend(serve.equivalence_checks(setups["serve"], phases))
    finally:
        setups.pop("serve").service.close()
    results["evaluate"] = evaluate.summarize(setups.pop("evaluate"),
                                             rotation.done["evaluate"], clock)
    results["train"] = train.summarize(sizes["train"], rotation.done["train"])
    metrics: Dict[str, float] = {"setup_s": sum(setup_parts.values())}
    for result in results.values():
        metrics.update(result.metrics)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, results, {"setup_parts_s": setup_parts, "budget_s": budget}


def run_traced(workload: str, seed: int, seconds: float, tiny: bool = False):
    """The named stage only, with every layer wrapped; per-layer metrics."""
    from perfbench import evaluate, layers, serve, train
    from perfbench.stage import Check
    from perfbench.tracer import Tracer

    clock = time.perf_counter
    size = _sizes(tiny)[workload]
    budget = seconds * SHARES[workload][0]
    tracer = Tracer(clock)
    extra: Dict[str, float] = {}
    if workload == "train":
        untraced = train.build(size, train.fit_seed(seed, 0)).fit(size.epochs).total_seconds()
        layers.instrument(tracer)
        start = clock()
        try:
            result = train.measure(size, seed, budget, clock)
        finally:
            end = clock()
            tracer.restore()
        traced = result.detail["fit_s"][0]
    elif workload == "evaluate":
        setup = evaluate.build(size, seed)
        untraced = sum(evaluate.run_cycle(setup, clock)["walls"].values())
        layers.instrument(tracer)
        start = clock()
        try:
            result = evaluate.measure(size, setup, budget, clock,
                                      on_event=layers.supervisor_observer(tracer),
                                      in_process_check=True)
        finally:
            end = clock()
            tracer.restore()
        traced = result.detail["cycle_wall_s"][0]
    else:
        setup = serve.build(size, seed)
        try:
            # The first replay warms the provider for the replayed queries.
            serve.closed_loop(setup, size, clock)
            untraced = serve.closed_loop(setup, size, clock)
            layers.instrument(tracer)
            start = clock()
            try:
                traced = serve.closed_loop(setup, size, clock)
                result, phases = serve.measure(size, setup, *_serve_phases(budget, seconds),
                                               clock, tracer=tracer)
            finally:
                end = clock()
                tracer.restore()
            result.checks.extend(serve.equivalence_checks(setup, phases))
        finally:
            setup.service.close()
    reconcile = tracer.reconcile(start, end)
    extra.update(result.layers)
    extra.update({
        "trace.wall_s": reconcile["wall_s"],
        "trace.unattributed_s": reconcile["unattributed_s"],
        "trace.reconcile_error": reconcile["error"],
        "trace.overhead": (traced - untraced) / untraced,
    })
    metrics = layers.layer_metrics(tracer, extra)
    result.checks.append(reconcile_check(reconcile))
    return metrics, {workload: result}, {"tracer": tracer, "reconcile": reconcile}


def reconcile_check(reconcile: Dict[str, object]):
    """The ``trace.reconciles`` check of a :meth:`Tracer.reconcile` ledger."""
    from perfbench.stage import Check

    return Check(
        "trace.reconciles",
        reconcile["error"] <= RECONCILE_TOLERANCE and not reconcile["problems"],
        f"reported self times + uncovered window vs wall: error "
        f"{reconcile['error']:.2e} (tolerance {RECONCILE_TOLERANCE}) over "
        f"{reconcile['threads']} thread(s); {reconcile['problems']} malformed "
        f"span(s) {reconcile['problem_sample']}")


# --------------------------------------------------------------------- #
# reference checks
# --------------------------------------------------------------------- #
#: Tolerances of the stored-reference checks.  The final loss may move by
#: summation order only; the MRRs must come from the same ranks.
LOSS_RTOL = 1e-6
MRR_ATOL = 1e-9


def probe_values() -> Dict[str, float]:
    """Fixed-seed, tiny-size train and evaluate outputs."""
    from perfbench import evaluate, train

    values = {f"train.{k}": v for k, v in train.probe(train.TINY).items()}
    values.update({f"evaluate.{k}": v for k, v in evaluate.probe(evaluate.TINY).items()})
    return values


def reference_checks() -> List:
    from perfbench.stage import Check

    stored = json.loads(REFERENCE.read_text())["values"]
    checks = []
    for name, value in probe_values().items():
        want = stored[name]
        if name.startswith("train."):
            ok = abs(value - want) <= LOSS_RTOL * abs(want)
            tolerance = f"rel {LOSS_RTOL}"
        else:
            ok = abs(value - want) <= MRR_ATOL
            tolerance = f"abs {MRR_ATOL}"
        checks.append(Check(f"reference.{name}", ok,
                            f"{value!r} vs stored {want!r} ({tolerance})"))
    return checks


def write_reference() -> None:
    REFERENCE.write_text(json.dumps({
        "about": "Fixed-seed tiny-size outputs the untraced runs are checked "
                 "against; regenerate with `python3 perfbench/run.py "
                 "--write-reference` only when a change is meant to move them.",
        "values": probe_values(),
    }, indent=2) + "\n")


# --------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------- #
def execute(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> Tuple[Dict[str, object], Dict[str, object]]:
    """One run: ``(result line, record)``; nothing is printed or written."""
    if trace:
        from perfbench.layers import PER_LAYER_UNITS as units
        metrics, results, extra = run_traced(workload, seed, seconds, tiny)
        checks = []
    else:
        units = END_TO_END_UNITS
        metrics, results, extra = run_untraced(workload, seed, seconds, tiny)
        checks = reference_checks()
    if set(metrics) != set(units):
        raise KeyError(f"metrics differ from the declared set: "
                       f"{sorted(set(metrics) ^ set(units))}")
    checks = [check for result in results.values() for check in result.checks] + checks
    line = {
        "correct": all(check.ok for check in checks),
        "attempted": sum(result.attempted for result in results.values()),
        "failed": sum(result.failed for result in results.values()),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": environment(),
        "checks": [vars(check) for check in checks],
        "stages": {name: result.detail for name, result in results.items()},
        **{key: value for key, value in extra.items() if key != "tracer"},
        "result": line,
    }
    if "tracer" in extra:
        record["tracer"] = extra["tracer"]
    return line, record


def _stop_resource_tracker() -> None:
    """Stop (and wait for) the helper process shared memory started.

    ``multiprocessing`` starts a resource tracker on first use of shared
    memory or spawn and lets it exit on its own after the parent does;
    stopping it here means every process the run started has ended when
    the run does.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate perfbench/reference.json and exit")
    args = parser.parse_args(argv)
    _bootstrap()
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        line, record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_resource_tracker()
    OUTPUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.dump(OUTPUT_DIR / f"{stem}.spans.jsonl")
    (OUTPUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str))
    print("env " + json.dumps(record["env"], sort_keys=True))
    for check in record["checks"]:
        print(f"check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    for name, entry in line["metrics"].items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in record["stages"].get("serve", {}).get("nominal_latency", {}).items():
        print(f"info {name} = {value:.6g}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
