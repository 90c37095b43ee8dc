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

It times ``reduce_dominators`` on the 40×36 grid at acceptance criterion
5's settings (r = 1, k = 8, ell = 120, delta_k = 2), the ``grid-r1``
workload's kernels, from a core computed once, and prints |Y| in the row's
name. It times ``build_kernel`` on the 9×9 grid at r = 2, k = 2, ell = 16
(the settings of the r = 2 grids in the ``solver-mix`` workload), from a
core and representatives computed once, and prints |V(H)| in the row's name.

It also times ``pure.tree_round`` on the tail-free rounds of the core
sieve: one batch-mode ``domination_core`` on the 40×40 grid at acceptance
criterion 5's settings (r = 1, k = 8, ell = 120, delta_k = 2) records them
once, in call order, over its consecutive windows. They are then replayed
on one shared graph, where each round resumes the tree of the previous
round of its shape, and on a fresh graph per call, where every round
builds its tree anew. Both graphs share the grid's neighbour bitsets, and
each repeat starts from a new shared graph. The same replay runs on the
tail-free arity-4 rounds (four free slots, t = 3) of a batch-mode
sieve on a 65-vertex ``random_degenerate`` graph at r = 1, k = 2,
ell = 64, delta_k = 4, the ``degenerate-r1`` workload's settings, whose
window widens from 64 vertices to all 65.

Usage:
    PYTHONPATH=src python3 benchmarks/primitives.py --repeats 7
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import quasiwide._kernels
from quasiwide._kernels import pure
from quasiwide.generators import GenSpec, generate
from quasiwide.graph import Graph, adjacency_bitsets, bfs_limited, build_graph, is_r_independent
from quasiwide.kernelize import CoreConfig, build_kernel, domination_core, reduce_dominators
from quasiwide.uqw import UqwConfig, _prune_spread

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


def reduce_bench():
    """(name, calls per repeat, function) for ``reduce_dominators`` on the
    40×36 grid at r = 1."""
    g = generate(GenSpec("grid", {"w": 40, "h": 36}))
    z = domination_core(g, CoreConfig(r=1, k=8, ell=120, uqw=UqwConfig(delta_k=2))).Z
    size = len(reduce_dominators(g, z, 1).Y)
    return f"reduce_dominators |Y|={size}", 1, lambda: reduce_dominators(g, z, 1)


def kernel_bench():
    """(name, calls per repeat, function) for ``build_kernel`` on the 9×9
    grid at r = 2."""
    g = generate(GenSpec("grid", {"w": 9, "h": 9}))
    r, k = 2, 2
    z = domination_core(g, CoreConfig(r=r, k=k, ell=16)).Z
    reps = reduce_dominators(g, z, r)
    size = build_kernel(g, z, reps, r, k).graph.n
    return f"build_kernel |V(H)|={size}", 1, lambda: build_kernel(g, z, reps, r, k)


def sieve_rounds(g, cfg):
    """The tail-free rounds that a batch-mode sieve on ``g`` at ``cfg``
    runs, as ``(seq, kind, i_split, arity)`` in call order."""
    rounds = []
    real = quasiwide._kernels.tree_round

    def record(h, seq, kind, i_split, arity, tail):
        if h is g and not tail:
            rounds.append((tuple(seq), kind, i_split, arity))
        return real(h, seq, kind, i_split, arity, tail)

    quasiwide._kernels.tree_round = record
    try:
        domination_core(g, cfg)
    finally:
        quasiwide._kernels.tree_round = real
    return rounds


def round_benches(g, rounds, label):
    """The recorded rounds on one shared graph and on a fresh graph per
    call."""
    bits = adjacency_bitsets(g)

    def shared():
        h = Graph(g.n, g.adj, _bits=bits)
        return [pure.tree_round(h, seq, kind, i, arity, ()) for seq, kind, i, arity in rounds]

    def fresh():
        return [
            pure.tree_round(Graph(g.n, g.adj, _bits=bits), seq, kind, i, arity, ())
            for seq, kind, i, arity in rounds
        ]

    return [
        (f"tree_round {label}, shared", len(rounds), shared),
        (f"tree_round {label}, fresh", len(rounds), fresh),
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
    for label, (name, calls, fn) in (("grid 40x36 r=1", reduce_bench()),
                                     ("grid 9x9 r=2", kernel_bench())):
        us = median_us(fn, calls, args.repeats)
        print(f"{label:<24} {name:<32} {calls:>6} {us:>10.2f}")
    g = generate(GRAPHS[0][1])
    grid_rounds = sieve_rounds(g, CoreConfig(r=1, k=8, ell=120, uqw=UqwConfig(delta_k=2)))
    d = generate(GenSpec("random_degenerate", {"n": 65, "c": 2, "seed": 0}))
    arity_4 = [rd for rd in sieve_rounds(d, CoreConfig(r=1, k=2, ell=64)) if rd[3] == 4]
    for label, h, rounds, shape in (("grid 40x40 sieve", g, grid_rounds, "tail-free"),
                                    ("degenerate n=65 sieve", d, arity_4, "t=3")):
        for name, calls, fn in round_benches(h, rounds, shape):
            us = median_us(fn, calls, args.repeats)
            print(f"{label:<24} {name:<32} {calls:>6} {us:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
