"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload serve --seeds 1 2 3 4 5

For every end-to-end metric it prints the median and the distance between
the first and third quartile as a share of the median, next to the bound
``BENCHMARK.json`` fixes for it.  Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, quartile_spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in args.seeds:
        done = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]),
                               "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        line = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {done.returncode} correct {line['correct']} "
              f"attempted {line['attempted']} failed {line['failed']}", flush=True)
        for name, entry in line["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) > 1 and median(series) else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else (" ok" if spread <= bound / 3 else
                                         " WITHIN" if spread <= bound else " OVER")
        print(f"{name:40s} median {median(series):12.5g}  spread {spread:6.3f}"
              + ("" if bound is None else f"  bound {bound}{flag}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
