"""Self-tests of the benchmark: tracer arithmetic, statistics, smoke runs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import run
from perfbench.layers import PER_LAYER_UNITS
from perfbench.serve import Phase, Request
from perfbench.stage import Rotation, run_for
from perfbench.stats import median, search_ladder, tail, tail_percentile
from perfbench.tracer import Tracer, covered_length

run._bootstrap()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# --------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------- #
def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.open("core.model", "score_many")
    clock.now = 1.0
    gsm = tracer.open("core.gsm", "score_batch")
    clock.now = 3.0
    tracer.close(gsm)
    provider = tracer.open("subgraph.provider", "get_many")
    clock.now = 3.5
    extract = tracer.open("subgraph.provider.extract", "extract_batch")
    clock.now = 4.5
    tracer.close(extract)
    clock.now = 5.0
    tracer.close(provider)
    clock.now = 6.0
    tracer.close(outer)

    assert outer.duration == 6.0
    assert outer.self_s == 6.0 - 2.0 - 2.0
    assert provider.self_s == 2.0 - 1.0
    assert gsm.self_s == 2.0
    assert [span.parent for span in tracer.spans] == [None, 0, 0, 2]
    totals = tracer.layer_totals()
    assert totals["core.model"] == {"calls": 1.0, "s": 6.0, "self_s": 2.0}
    assert totals["subgraph.provider"] == {"calls": 1.0, "s": 2.0, "self_s": 1.0}


def _two_top_level_spans() -> Tracer:
    """backward [1, 4] holding score_batch [2, 2.5], then step [5, 5.5]."""
    clock = FakeClock()
    tracer = Tracer(clock)
    clock.now = 1.0
    outer = tracer.open("autodiff", "backward")
    clock.now = 2.0
    inner = tracer.open("core.gsm", "score_batch")
    clock.now = 2.5
    tracer.close(inner)
    clock.now = 4.0
    tracer.close(outer)
    clock.now = 5.0
    second = tracer.open("autodiff.optim", "step")
    clock.now = 5.5
    tracer.close(second)
    return tracer


def test_reconcile_adds_self_times_and_unattributed_up_to_the_wall():
    ledger = _two_top_level_spans().reconcile(0.0, 10.0)
    assert ledger["wall_s"] == 10.0
    assert ledger["unattributed_s"] == 10.0 - 3.0 - 0.5
    assert ledger["self_sum_s"] == pytest.approx(3.5)
    assert ledger["error"] == pytest.approx(0.0)
    assert ledger["problems"] == 0
    assert run.reconcile_check(ledger).ok


def _overlap_top_level(tracer):
    tracer.spans[2].start = 3.0       # "step" now starts inside "backward"


def _lose_a_span(tracer):
    del tracer.spans[1]               # "score_batch" gone, its parent still charged


def _wrong_parent(tracer):
    tracer.spans[1].parent = None     # "score_batch" claims to be top-level


def _leave_a_span_open(tracer):
    tracer.open("kg.sampling", "sample_batch")


def _start_before_the_window(tracer):
    tracer.spans[0].start = -1.0


@pytest.mark.parametrize("damage", [_overlap_top_level, _lose_a_span, _wrong_parent,
                                    _leave_a_span_open, _start_before_the_window])
def test_reconcile_check_fails_on_a_malformed_trace(damage):
    tracer = _two_top_level_spans()
    damage(tracer)
    assert not run.reconcile_check(tracer.reconcile(0.0, 10.0)).ok


def test_covered_length_is_the_clipped_union():
    assert covered_length([(1.0, 4.0), (3.0, 5.0), (8.0, 12.0)], 0.0, 10.0) == 6.0
    assert covered_length([], 0.0, 10.0) == 0.0


def test_reentering_the_innermost_layer_opens_no_second_span():
    tracer = Tracer()
    target = types.SimpleNamespace()

    def inner(value):
        return value + 1

    def outer(value):
        return target.inner(value) * 2

    target.inner, target.outer = inner, outer
    tracer.wrap(target, "inner", "core.model",
                counter=lambda t, args, kwargs, result, before: t.count("triples", args[0]))
    tracer.wrap(target, "outer", "core.model")
    assert target.outer(3) == 8
    assert [span.name for span in tracer.spans] == ["SimpleNamespace.outer"]
    assert tracer.counts["triples"] == 3  # counters still run when nested
    tracer.restore()
    assert target.inner is inner and target.outer is outer


def test_wrap_restores_class_and_instance_attributes():
    class Model:
        def score_many(self, triples):
            return len(triples)

    model = Model()
    tracer = Tracer()
    tracer.wrap(Model, "score_many", "core.model")
    tracer.wrap(model, "score_many", "serving.service")
    assert model.score_many([1, 2]) == 2
    assert [span.layer for span in tracer.spans] == ["serving.service", "core.model"]
    tracer.restore()
    assert "score_many" not in vars(model)
    assert Model.__dict__["score_many"].__name__ == "score_many"
    assert not hasattr(Model.__dict__["score_many"], "__wrapped__")


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("count, expected", [
    (5, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_is_highest_grid_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_tail_value_is_the_interpolated_percentile():
    values = list(range(1, 101))  # 100 samples -> p90
    pct, value = tail(values)
    assert pct == 90.0
    assert value == pytest.approx(90.1)


@pytest.mark.parametrize("start", [0, 3, 5, 8])
@pytest.mark.parametrize("capacity, expected", [
    (100.0, 100.0), (105.0, 100.0), (10.0, 10.0), (5.0, None), (1000.0, 160.0),
])
def test_ladder_search_finds_the_highest_rung_meeting_the_limit(capacity, expected, start):
    ladder = (10.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0)
    probed = []

    def meets(rate):
        probed.append(rate)
        return rate <= capacity

    best, probes = search_ladder(ladder, start, meets)
    assert best == expected
    assert [p["rate"] for p in probes] == probed
    assert len(set(probed)) == len(probed)  # no rung probed twice


def test_ladder_search_from_the_answer_takes_two_probes():
    ladder = tuple(float(rate) for rate in range(10, 200, 10))
    best, probes = search_ladder(ladder, 9, lambda rate: rate <= 100.0)
    assert best == 100.0
    assert [p["rate"] for p in probes] == [100.0, 110.0]


def test_rotation_takes_turns_up_to_each_budget():
    clock = FakeClock()
    order = []

    def units(name, length):
        while True:
            clock.now += length
            order.append(name)
            yield length

    rotation = Rotation({"fit": units("fit", 1.0), "cycle": units("cycle", 2.0)}, clock)
    rotation.run({"fit": 2.0, "cycle": 2.0})
    assert order == ["fit", "cycle", "fit"]
    rotation.run({"fit": 4.0, "cycle": 4.0})  # the turns go on where they stopped
    assert order == ["fit", "cycle", "fit", "fit", "cycle", "fit"]
    assert rotation.walls == {"fit": [1.0] * 4, "cycle": [2.0] * 2}
    assert rotation.done["cycle"] == [2.0, 2.0]
    # A zero budget still runs one unit, and only one.
    assert run_for(units("once", 1.0), 0.0, clock) == [1.0]


def test_staircase_returns_to_the_rung_that_holds(monkeypatch):
    from perfbench import serve

    answer = serve.LADDER[20]
    verdicts = []

    def run_phase(setup, requests, rate, clock, on_submit=None):
        # Call 6 is the staircase's probe at the answer, failed as a
        # stretch of contention would fail it.
        verdicts.append(rate <= answer and len(verdicts) != 6)
        return types.SimpleNamespace(rate=rate, meets=lambda ok=verdicts[-1]: ok)

    monkeypatch.setattr(serve, "plan", lambda *args: [])
    monkeypatch.setattr(serve, "run_phase", run_phase)
    monkeypatch.setattr(serve, "burst_throughput",
                        lambda *args: serve.LADDER[18] / serve.START_SHARE)
    steps = list(serve.units(serve.TINY, None, 1.0, 1.0, FakeClock()))
    assert len(steps) == 1 + serve.STEPS
    assert steps[0]["search"] == answer
    assert [probe["rate"] for step in steps[1:] for probe in step["probes"]] == [
        serve.LADDER[21], answer, serve.LADDER[19], answer]
    met = [rate for step in steps for rate in step["met"]]
    assert met == [answer, serve.LADDER[19], answer]
    assert median(met) == answer


def _phase(rate, latencies_ms, backlog):
    requests = []
    for latency in latencies_ms:
        request = Request("score", 0.0, 0, due=0.0)
        if latency is None:
            request.status = "refused"
        else:
            request.status, request.done = "ok", latency / 1000.0
        requests.append(request)
    return Phase(rate, requests, backlog=backlog)


def test_rung_meets_only_with_a_tail_within_limit_and_a_flat_backlog():
    flat = [(t / 10.0, 3) for t in range(20)]
    climbing = [(t / 10.0, 3 + 4 * t) for t in range(20)]
    quick = [5.0] * 200
    assert _phase(100.0, quick, flat).meets()
    assert not _phase(100.0, quick, climbing).meets()
    assert _phase(100.0, quick, climbing).growing_backlog
    slow = [5.0] * 180 + [500.0] * 20
    assert not _phase(100.0, slow, flat).meets()
    refused = [5.0] * 180 + [None] * 20  # a refusal misses any limit
    assert not _phase(100.0, refused, flat).meets()


# --------------------------------------------------------------------- #
# the declared benchmark and smoke runs
# --------------------------------------------------------------------- #
ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_declares_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    line, record = run.execute(workload, seed=3, seconds=1.0, trace=trace, tiny=True)
    failed = [c for c in record["checks"] if not c["ok"]]
    assert line["correct"], failed
    assert line["attempted"] >= 1 and line["failed"] == 0
    units = PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} == units
    assert record["env"]["usable_cores"] >= 1
    if trace:
        assert line["metrics"]["trace.reconcile_error"]["value"] <= run.RECONCILE_TOLERANCE
        assert record["tracer"].spans


def test_skipped_batches_fail_the_train_stage(monkeypatch):
    import repro.core.trainer as trainer
    from perfbench import train

    # A non-finite gradient norm makes the trainer skip the batch and keep
    # the epoch loss finite; the stage must still count and fail it.
    monkeypatch.setattr(trainer, "clip_grad_norm", lambda params, clip: float("nan"))
    result = train.measure(train.TINY, seed=3, budget_s=0.0, clock=lambda: 0.0)
    check = next(c for c in result.checks if c.name == "train.losses_finite")
    assert not check.ok
    assert result.failed == result.attempted > 0


def test_outside_a_checkout_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
