"""Measure what the ``serve`` stage's traffic mix is sized from.

    python3 perfbench/mix.py

Builds the serve stage's service and, per request kind (DEKG-ILP ``rank``
with the stage's candidate count, TransE single-link ``score``), prints

- the closed-loop rate: one request at a time, each sent when the last
  answered (what one sequential client gets), and
- the burst rate: many requests sent at once (what the flush thread can
  take when the coalescer may fuse).

From the closed-loop rates it prints the rank share at which both kinds
take the same share of a sequential client's time, and from the rank burst
rate the mix's capacity, which the nominal rate is a share of.  See
"Traffic mix" in ``perfbench/README.md``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run, serve  # noqa: E402
from perfbench.stats import median  # noqa: E402

REPS = 5
BURST = 160


def main() -> int:
    run._bootstrap()
    setup = serve.build(serve.FULL, 1)
    try:
        counts = {"rank": len(setup.rank_items), "score": len(setup.score_links)}

        def requests(kind: str, n: int):
            return [serve.Request(kind, 0.0, i % counts[kind]) for i in range(n)]

        def closed(kind: str) -> float:
            batch = requests(kind, counts[kind])
            start = time.perf_counter()
            for request in batch:
                setup.service.submit(*serve.payload(setup, request)).result()
            return len(batch) / (time.perf_counter() - start)

        def burst(kind: str) -> float:
            batch = requests(kind, BURST)
            start = time.perf_counter()
            futures = [setup.service.submit(*serve.payload(setup, r)) for r in batch]
            for future in futures:
                future.result()
            return len(batch) / (time.perf_counter() - start)

        closed("rank")  # every query once, so the provider is warm
        rates = {f"{kind}.{mode}": median([probe(kind) for _ in range(REPS)])
                 for kind in ("rank", "score")
                 for mode, probe in (("closed", closed), ("burst", burst))}
    finally:
        setup.service.close()
        run._stop_resource_tracker()
    for name, rate in rates.items():
        print(f"{name:14s} {rate:10.1f} requests/s (median of {REPS})")
    share = rates["rank.closed"] / (rates["rank.closed"] + rates["score.closed"])
    print(f"equal-time rank share {share:.3f} "
          f"(stage uses {serve.FULL.rank_share})")
    print(f"mix capacity from rank bursts {rates['rank.burst'] / serve.FULL.rank_share:.0f} "
          f"requests/s (nominal {serve.FULL.nominal_rps})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
