"""Result checks, one place for every claim the package re-verifies.

Each check recomputes its claim from the graph with the primitives of
:mod:`quasiwide.graph`, never with the search that produced the result:

- :func:`recheck_core`: replaying the sieve's removal log from Z = V(G)
  justifies every removal and ends on the core's Z.
- :func:`recheck_representatives`: the dominator reduction keeps only
  inclusion-maximal projections and maps every vertex to one containing
  its own.
- :func:`verify_drds` / :func:`verify_cds`: a solver's set r-dominates the
  graph (and induces a connected subgraph).
- :func:`verify_steiner`: an edge set is a tree of G of the claimed cost
  that spans the terminals.
- :func:`uqw_verify`: a split's B lies in A, misses S and is r-independent
  in G - S.
- :func:`check_cds_branch`: on small graphs, every small connected
  dominating set meets the set the FPT solver branches on.

The first six return a bool for the CLI's ``verified`` flags; the sieve
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
    from .kernelize import CoreConfig, DominationCore, Representatives
    from .uqw import UqwResult

# Largest graph on which check_cds_branch enumerates every candidate set.
_CDS_BRANCH_BOUND = 14


def recheck_core(g: Graph, core: DominationCore, cfg: CoreConfig) -> bool:
    """Replay of the sieve log from Z = V(G): each record's bucket must hold
    k + 2 distinct lookalikes still in Z, 2r-independent in G - anchors with
    identical capped distance vectors; its ``removed`` must be distinct
    bucket members that leave k + 1 of them in Z. Z then loses them, and the
    replayed Z must equal the core's. Each record costs one capped BFS per
    anchor and one walk for the independence. A malformed record, an anchor
    outside V(G) included, gives False."""
    z = set(range(g.n))
    for rec in core.removal_log:
        bucket, removed = set(rec.bucket), set(rec.removed)
        if len(bucket) != len(rec.bucket) or len(removed) != len(rec.removed):
            return False
        if len(bucket) < cfg.k + 2 or not removed <= bucket <= z:
            return False
        if len(bucket) - len(removed) < cfg.k + 1:
            return False
        try:
            vectors = distance_vectors(g, rec.bucket, rec.anchors, 2 * cfg.r)
            if len(set(vectors.values())) != 1:
                return False
            # equal vectors keep the distinct members out of the anchors: a
            # member at distance 0 from an anchor would be that anchor
            if not is_r_independent(g, rec.bucket, 2 * cfg.r, frozenset(rec.anchors)):
                return False
        except InputError:  # an anchor outside V(G)
            return False
        z -= removed
    return z == core.Z


def recheck_representatives(
    g: Graph, Z: Iterable[int], reps: Representatives, r: int
) -> bool:
    """Audit of the dominator reduction: with every vertex's projection
    recomputed by one BFS from each member of Z, each representative's
    recorded projection is its own, each vertex's ``class_of`` target is a
    representative whose projection contains the vertex's own, and no
    representative's projection is a subset of another's."""
    seen: list[set[int]] = [set() for _ in range(g.n)]
    for z in set(Z):
        for v in bfs_limited(g, [z], r):
            seen[v].add(z)
    ys = sorted(reps.Y)
    if sorted(reps.projection) != ys or sorted(reps.class_of) != list(range(g.n)):
        return False
    if any(set(reps.projection[y]) != seen[y] for y in ys):
        return False
    for v, y in reps.class_of.items():
        if y not in reps.Y or not seen[v] <= seen[y]:
            return False
    # a projection that contains a nonempty one holds its smallest member
    holders: dict[int, list[int]] = {}
    for y in ys:
        for z in seen[y]:
            holders.setdefault(z, []).append(y)
    for y in ys:
        pool = holders[min(seen[y])] if seen[y] else ys
        if any(x != y and seen[y] <= seen[x] for x in pool):
            return False
    return True


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
    "recheck_representatives",
    "uqw_verify",
    "verify_cds",
    "verify_drds",
    "verify_steiner",
]
