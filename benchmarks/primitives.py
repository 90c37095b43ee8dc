"""Time the graph primitives that the splitter and the sieve call most.

For each input graph it prints, per primitive, the number of calls in one
repeat and the median time per call over the repeats, in µs:

- ``bfs_limited`` from every vertex, at depths 1 and 2 (the half radii of
  the splitter's distance checks at r = 2 and r = 4);
- ``is_r_independent`` at r = 2 (one walk to depth 1) and r = 3 (one
  full-radius walk per member), each on a greedy r-scattered set, so that
  the check answers True after walking every ball;
- ``uqw._prune_spread`` over all vertices, at distances 2 and 4;
- ``build_graph`` from the graph's edge list, once without and once with
  reading the degeneracy ``c``, which runs the peel.

The inputs are a 40×40 grid and a 66-vertex ``random_degenerate`` graph.

Usage:
    PYTHONPATH=src python3 benchmarks/primitives.py --repeats 7
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from quasiwide.generators import GenSpec, generate
from quasiwide.graph import bfs_limited, build_graph, is_r_independent
from quasiwide.uqw import _prune_spread

GRAPHS = (
    ("grid 40x40", GenSpec("grid", {"w": 40, "h": 40})),
    ("random_degenerate n=66", GenSpec("random_degenerate", {"n": 66, "c": 2, "seed": 1})),
)


def benches(g):
    """(name, calls per repeat, function running them) for one graph."""
    everyone = range(g.n)
    spread = {r: _prune_spread(g, everyone, r, frozenset()) for r in (2, 3)}
    edges = list(g.edges())
    return [
        ("bfs_limited depth 1", g.n, lambda: [bfs_limited(g, [v], 1) for v in everyone]),
        ("bfs_limited depth 2", g.n, lambda: [bfs_limited(g, [v], 2) for v in everyone]),
        (f"is_r_independent r=2 |B|={len(spread[2])}", 1,
         lambda: is_r_independent(g, spread[2], 2)),
        (f"is_r_independent r=3 |B|={len(spread[3])}", 1,
         lambda: is_r_independent(g, spread[3], 3)),
        ("_prune_spread dist 2", 1, lambda: _prune_spread(g, everyone, 2, frozenset())),
        ("_prune_spread dist 4", 1, lambda: _prune_spread(g, everyone, 4, frozenset())),
        ("build_graph", 1, lambda: build_graph(g.n, edges)),
        ("build_graph + read c", 1, lambda: build_graph(g.n, edges).c),
    ]


def median_us(fn, calls: int, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e6 / calls)
    return statistics.median(samples)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    print(f"{'graph':<24} {'primitive':<32} {'calls':>6} {'us/call':>10}")
    for label, spec in GRAPHS:
        g = generate(spec)
        for name, calls, fn in benches(g):
            us = median_us(fn, calls, args.repeats)
            print(f"{label:<24} {name:<32} {calls:>6} {us:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
