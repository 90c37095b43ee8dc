"""Time the graph primitives that the splitter and the sieve call most.

For each input graph it prints, per primitive, the number of calls in one
repeat and the median time per call over the repeats, in µs:

- ``bfs_limited`` from every vertex, at depths 1 and 2 (the half radii of
  the splitter's distance checks at r = 2 and r = 4);
- ``is_r_independent`` at r = 2 and r = 3 (one walk that grows every
  member's ball to depth 1, plus a pass over the balls' edges at r = 3),
  each on a greedy r-scattered set, so that the check answers True after
  walking every ball;
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
once, in call order, over its consecutive windows, and each is replayed on
a fresh graph that shares the grid's neighbour bitsets. At delta_k = 2
every grid round has two free slots (t = 1) and runs the one-bit tree,
which never resumes; one more row per round shape (edge, phi_1^2, phi_2^2,
psi_1^2, psi_2^2) shows which shape a change moved. The tail-free arity-4
rounds (four free slots, t = 3) of a batch-mode sieve on a 65-vertex
``random_degenerate`` graph at r = 1, k = 2, ell = 64, delta_k = 4, the
``degenerate-r1`` workload's settings, are replayed both on a fresh graph
per call and on one shared graph, where a round whose sequence extends
that of the previous round of its shape resumes that round's tree; each
repeat starts from a new shared graph. That sieve's window widens from 64
vertices to all 65, so there the shared graph keeps insertions. Whenever
the compiled round (``quasiwide._kernels.native_wrap``) imports, one more
row replays the same arity-4 rounds through it, each on a fresh graph; build
it in place first with ``python3 setup.py build_ext --inplace``.

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

try:
    from quasiwide._kernels import native_wrap
except ImportError:
    native_wrap = None

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


def fresh_replay(g, rounds, tree_round=pure.tree_round):
    """Replay the recorded rounds through ``tree_round``, each on a fresh
    graph that shares the neighbour bitsets of ``g``."""
    bits = adjacency_bitsets(g)
    return lambda: [
        tree_round(Graph(g.n, g.adj, _bits=bits), seq, kind, i, arity, ())
        for seq, kind, i, arity in rounds
    ]


def round_benches(g, rounds, label):
    """The recorded rounds on one shared graph and on a fresh graph per
    call, and compiled on a fresh graph per call when that round imports."""
    bits = adjacency_bitsets(g)

    def shared():
        h = Graph(g.n, g.adj, _bits=bits)
        return [pure.tree_round(h, seq, kind, i, arity, ()) for seq, kind, i, arity in rounds]

    rows = [
        (f"tree_round {label}, shared", len(rounds), shared),
        (f"tree_round {label}, fresh", len(rounds), fresh_replay(g, rounds)),
    ]
    if native_wrap is not None:
        rows.append((f"tree_round {label}, compiled", len(rounds),
                     fresh_replay(g, rounds, native_wrap.tree_round)))
    return rows


def shape_benches(g, rounds):
    """The recorded rounds of each shape on a fresh graph per call, in the
    order the shapes first appear."""
    by_shape = {}
    for rd in rounds:
        by_shape.setdefault(rd[1:], []).append(rd)
    rows = []
    for (kind, i, arity), shape_rounds in by_shape.items():
        name = "edge" if kind == 0 else f"{'phi' if kind == 1 else 'psi'}_{i}^{arity}"
        rows.append((f"tree_round {name}, fresh", len(shape_rounds),
                     fresh_replay(g, shape_rounds)))
    return rows


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
    arity_4 = sieve_rounds(d, CoreConfig(r=1, k=2, ell=64, uqw=UqwConfig(delta_k=4)))
    arity_4 = [rd for rd in arity_4 if rd[3] == 4]
    for label, rows in (
        ("grid 40x40 sieve",
         [("tree_round tail-free, fresh", len(grid_rounds), fresh_replay(g, grid_rounds))]
         + shape_benches(g, grid_rounds)),
        ("degenerate n=65 sieve", round_benches(d, arity_4, "t=3")),
    ):
        for name, calls, fn in rows:
            us = median_us(fn, calls, args.repeats)
            print(f"{label:<24} {name:<32} {calls:>6} {us:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
