"""What the stages share: the dataset split seed and the result shape."""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

from perfbench.stats import within_budget


#: Seed of the DEKG split every stage builds its dataset with.  The split
#: alone moves the fb15k-237 training graph between about 190 and 310
#: triples at the benchmark's scale, which would swamp any regression
#: bound; so the graph is fixed and the workload seed drives everything
#: random the program is handed instead: initialisation, the training
#: streams, evaluation candidate draws and the serving request arrivals.
DATASET_SEED = 0


@dataclass
class Check:
    """One output check; a failed check fails the run."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class StageResult:
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[Check] = field(default_factory=list)
    detail: Dict[str, Any] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    """Per-layer figures only the stage can compute (traced runs)."""


class Rotation:
    """Steps several stages' units (fits, cycles) in turns, each to its budget.

    Host contention on a shared machine comes in stretches of seconds, so a
    stage that measured all its units in one block would catch a stretch
    whole or not at all.  Taking turns spreads every stage's units over the
    run; the stage furthest behind its budget always goes next.  Garbage is
    collected between units, outside their timings, so that one unit's
    garbage never lands in another's time.
    """

    def __init__(self, units: Dict[str, Iterator[Any]], clock):
        self.units = units
        self.clock = clock
        self.done: Dict[str, List[Any]] = {name: [] for name in units}
        self.walls: Dict[str, List[float]] = {name: [] for name in units}

    def run(self, budgets: Dict[str, float]) -> None:
        """Step until one more unit of no stage fits its budget.

        Every stage runs at least one unit; a zero budget means just one.
        """
        while True:
            live = [name for name, walls in self.walls.items()
                    if not walls or (budgets[name] > 0
                                     and within_budget(sum(walls), walls, budgets[name]))]
            if not live:
                return
            name = min(live, key=lambda n: sum(self.walls[n]) / budgets[n]
                       if budgets[n] > 0 else 0.0)
            start = self.clock()
            self.done[name].append(next(self.units[name]))
            self.walls[name].append(self.clock() - start)
            gc.collect()


def run_for(units: Iterator[Any], budget_s: float, clock) -> List[Any]:
    """Units of one stage for ``budget_s`` seconds (at least one)."""
    rotation = Rotation({"stage": units}, clock)
    rotation.run({"stage": budget_s})
    return rotation.done["stage"]
