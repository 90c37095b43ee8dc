"""Result checks, one place for every claim the package re-verifies.

Each check recomputes its claim from the graph with the primitives of
:mod:`quasiwide.graph`, never with the search that produced the result:

- :func:`recheck_core`: the sieve's removal log justifies every removal.
- :func:`verify_drds` / :func:`verify_cds`: a solver's set r-dominates the
  graph (and induces a connected subgraph).
- :func:`verify_steiner`: an edge set is a tree of G of the claimed cost
  that spans the terminals.
- :func:`uqw_verify`: a split's B lies in A, misses S and is r-independent
  in G - S.
- :func:`check_cds_branch`: on small graphs, every small connected
  dominating set meets the set the FPT solver branches on.

The first five return a bool for the CLI's ``verified`` flags; the sieve
checks each split with :func:`uqw_verify` and the Steiner solver its tree
with :func:`verify_steiner`. :func:`check_cds_branch` guards a solver step
and raises :class:`InternalError`.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Sequence

from . import _kernels
from .errors import InputError, InternalError
from .graph import (
    Graph,
    bfs_limited,
    build_graph,
    distance_vectors,
    induced_connected,
    is_r_independent,
)

if TYPE_CHECKING:
    from .kernelize import CoreConfig, DominationCore
    from .uqw import UqwResult

# Largest graph on which check_cds_branch enumerates every candidate set.
_CDS_BRANCH_BOUND = 14


def recheck_core(g: Graph, core: DominationCore, cfg: CoreConfig) -> bool:
    """Structural audit of the sieve log: every removal must cite a bucket of
    k + 2 lookalikes with identical capped distance vectors, and the final Z
    must account for exactly the logged removals. Records of one batch share
    their bucket, so each distinct (anchors, bucket) is checked once, with one
    capped BFS per anchor."""
    removed = set()
    checked = set()
    for rec in core.removal_log:
        if len(rec.bucket) < cfg.k + 2 or rec.w not in rec.bucket:
            return False
        key = (rec.anchors, rec.bucket)
        if key not in checked:
            vectors = distance_vectors(g, rec.bucket, rec.anchors, 2 * cfg.r)
            if len(set(vectors.values())) != 1:
                return False
            checked.add(key)
        removed.add(rec.w)
    if removed & core.Z:
        return False
    return len(core.Z) + len(removed) == g.n


def verify_drds(g: Graph, solution: set[int], r: int) -> bool:
    if g.n == 0:
        return not solution
    if not solution:
        return False
    return len(bfs_limited(g, sorted(solution), r)) == g.n


def verify_cds(g: Graph, solution: set[int]) -> bool:
    if g.n == 0:
        return not solution
    return verify_drds(g, solution, 1) and induced_connected(g, solution)


def verify_steiner(
    g: Graph, terminals: Iterable[int], edges: Iterable[tuple[int, int]], cost: int
) -> bool:
    """A Steiner tree claim: the edges are distinct edges of G, their count
    is ``cost`` and one less than the vertices they touch together with the
    terminals, and those vertices are connected by the edges alone."""
    pairs = [(u, v) if u < v else (v, u) for u, v in edges]
    if not all(0 <= u < g.n and v in g.adj[u] for u, v in pairs):
        return False
    vertices = {v for e in pairs for v in e} | set(terminals)
    if not len(set(pairs)) == len(pairs) == cost == len(vertices) - 1:
        return False
    return induced_connected(build_graph(g.n, pairs), vertices)


def uqw_verify(g: Graph, result: UqwResult, A: Sequence[int], r: int) -> bool:
    """Independent recheck: B inside A, disjoint from S, r-independent in
    G - S. Returns False instead of raising on malformed results."""
    if not set(result.B) <= set(A) or set(result.B) & result.S:
        return False
    try:
        return is_r_independent(g, result.B, r, frozenset(result.S))
    except InputError:
        return False


def check_cds_branch(g: Graph, k: int, x: Sequence[int], s: Iterable[int]) -> None:
    """On graphs of at most 14 vertices, raise :class:`InternalError` unless
    every connected dominating set of size <= k that extends ``x`` meets
    ``s``; larger graphs are not enumerated."""
    if g.n > _CDS_BRANCH_BOUND:
        return
    masks = _kernels.nr_masks(g, 1)
    full = (1 << g.n) - 1
    base, hit = set(x), set(s)
    others = [v for v in range(g.n) if v not in base]
    for extra_size in range(k - len(x) + 1):
        for extra in combinations(others, extra_size):
            d = base.union(extra)
            dom = 0
            for v in d:
                dom |= masks[v]
            if dom == full and not d & hit and induced_connected(g, d):
                raise InternalError(
                    f"connected dominating set {sorted(d)} misses the "
                    f"branching set {sorted(hit)}"
                )


__all__ = [
    "check_cds_branch",
    "recheck_core",
    "uqw_verify",
    "verify_cds",
    "verify_drds",
    "verify_steiner",
]
