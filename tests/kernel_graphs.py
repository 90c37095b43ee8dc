"""Seeded graphs shared by the kernel tests: random graphs plus the
degenerate shapes (tiny n, stars, cliques) where off-by-one word handling
would show."""

from quasiwide.generators import GenSpec, generate
from quasiwide.graph import build_graph


def seeded_graphs():
    out = [
        build_graph(1, []),
        build_graph(2, [(0, 1)]),
        generate(GenSpec("star", {"p": 9})),
        generate(GenSpec("clique", {"n": 9})),
        generate(GenSpec("grid", {"w": 5, "h": 4})),
        # 65 vertices straddles the one-word/two-word bitset boundary
        generate(GenSpec("random_degenerate", {"n": 65, "c": 3, "seed": 5})),
        generate(GenSpec("random_bounded_degree", {"n": 70, "d": 4, "seed": 9})),
    ]
    for seed in range(6):
        out.append(
            generate(GenSpec("random_degenerate", {"n": 24, "c": 2, "seed": seed}))
        )
    return out
