"""Graph core.

Every structure in this package sits on top of this module: an immutable
undirected graph with sorted adjacency lists, its degeneracy computed on
first read, and the handful of primitives the algorithms need (bounded BFS,
capped distance vectors, independence checks, ball contraction).

Conventions:
- Vertices are the integers ``0..n-1``; edges are unordered pairs of distinct
  vertices. Parallel edges and self-loops are dropped silently at build time.
- The degeneracy ``c`` is computed on first read. Kernels, contractions and
  solver gadgets never read it, so the peel runs only for graphs that do.
- Distances count edges. Values beyond a cap are reported as ``INF``
  (``math.inf``), which keeps capped distance vectors hashable.
- Deleted-set arguments (``forbidden``, ``avoid``) emulate the subgraph
  ``G - S`` without copying the graph.
- Every traversal, the connectivity check included, walks layer by layer:
  one set of reached vertices and a list per layer, in the order a FIFO
  queue would visit them.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import InputError

INF = math.inf


class Graph:
    """Immutable undirected graph whose degeneracy is computed on first
    read.

    ``adj[v]`` is the sorted tuple of neighbors of ``v`` and ``c`` is the
    degeneracy. Treat instances as frozen; the private fields only cache
    values derived from the graph. ``_bits`` may be passed to share another
    graph's neighbor bitsets.
    """

    def __init__(
        self, n: int, adj: tuple[tuple[int, ...], ...], _bits: list[int] | None = None
    ) -> None:
        self.n = n
        self.adj = adj
        self._c: int | None = None
        self._bits = _bits

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, adj={self.adj!r})"

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(len(a) for a in self.adj) // 2

    @property
    def c(self) -> int:
        """Degeneracy: the largest degree a vertex has when it is peeled."""
        if self._c is None:
            self._c = _peel(self.n, self.adj)
        return self._c

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterable[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Construct a :class:`Graph` from an edge list.

    Duplicate edges and self-loops are dropped without complaint; an endpoint
    outside ``0..n-1`` raises :class:`InputError`. Only the adjacency is
    built here; the degeneracy waits for its first read.
    """
    if n < 0:
        raise InputError(f"vertex count must be non-negative, got {n}")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            continue
        seen.add((u, v) if u < v else (v, u))
    neighbor_sets: list[list[int]] = [[] for _ in range(n)]
    for u, v in seen:
        neighbor_sets[u].append(v)
        neighbor_sets[v].append(u)
    return Graph(n=n, adj=tuple(tuple(sorted(a)) for a in neighbor_sets))


def _peel(n: int, adj: tuple[tuple[int, ...], ...]) -> int:
    """The degeneracy: repeatedly peel a minimum-degree vertex and return the
    largest degree seen at peel time."""
    # Bucket queue (Batagelj and Zaversnik), O(n + m): ``order`` holds the
    # vertices sorted by current degree, ``start[d]`` is where degree d's
    # bucket begins, and a neighbour whose degree drops moves to the front
    # of its bucket, which then starts one place later.
    degree = [len(a) for a in adj]
    start = [0] * (max(degree, default=0) + 2)
    for d in degree:
        start[d + 1] += 1
    for d in range(1, len(start)):
        start[d] += start[d - 1]
    order = [0] * n
    pos = [0] * n
    fill = start[:]
    for v in range(n):
        pos[v] = fill[degree[v]]
        order[pos[v]] = v
        fill[degree[v]] += 1
    c = 0
    for v in order:
        d = degree[v]
        if d > c:
            c = d
        for u in adj[v]:
            du = degree[u]
            if du > d:
                front = start[du]
                w = order[front]
                if w != u:
                    pu = pos[u]
                    order[front], order[pu] = u, w
                    pos[u], pos[w] = front, pu
                start[du] = front + 1
                degree[u] = du - 1
    return c


def check_vertices(g: Graph, vertices: Iterable[int]) -> None:
    """Raise :class:`InputError` naming the first of ``vertices`` that is
    not a vertex of ``g``."""
    n = g.n
    for v in vertices:
        if not (0 <= v < n):
            raise InputError(f"vertex {v} outside 0..{n - 1}")


def adjacent(g: Graph, u: int, v: int) -> bool:
    """Edge test: whether ``v`` is among the neighbors of ``u``."""
    check_vertices(g, (u, v))
    return v in g.adj[u]


def _layers(
    adj: tuple[tuple[int, ...], ...],
    sources: list[int],
    depth: int,
    forbidden: frozenset[int] | set[int],
) -> tuple[set[int], list[list[int]]]:
    """Walk ``G - forbidden`` from the distinct, unforbidden ``sources`` out
    to ``depth``: the set of vertices reached and the list of layers, layer
    d holding the vertices at distance d in the order a FIFO queue visits
    them."""
    seen = set(sources)
    layer = sources
    layers = [layer]
    for _ in range(depth):
        nxt = []
        for u in layer:
            for w in adj[u]:
                if w not in seen and w not in forbidden:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            break
        layers.append(nxt)
        layer = nxt
    return seen, layers


def _claim_balls(
    adj: tuple[tuple[int, ...], ...],
    centers: list[int],
    depth: int,
    forbidden: frozenset[int] | set[int],
) -> tuple[dict[int, int], tuple[int, int, int] | None]:
    """Grow the radius-``depth`` balls of the sorted, distinct, unforbidden
    ``centers`` together in ``G - forbidden``; each vertex is owned by the
    first center whose walk reaches it.

    Returns ``(owner, None)`` when the balls are pairwise disjoint. The walk
    stops at the first vertex claimed by a second center and returns
    ``(owner, (a, b, w))`` with centers ``a < b`` and that vertex ``w``.
    """
    owner = {v: v for v in centers}
    layer = centers
    for _ in range(depth):
        nxt = []
        for u in layer:
            ou = owner[u]
            for w in adj[u]:
                if w in forbidden:
                    continue
                ow = owner.get(w)
                if ow is None:
                    owner[w] = ou
                    nxt.append(w)
                elif ow != ou:
                    return owner, (min(ou, ow), max(ou, ow), w)
        if not nxt:
            break
        layer = nxt
    return owner, None


def bfs_limited(
    g: Graph,
    sources: Iterable[int],
    depth: int,
    *,
    forbidden: frozenset[int] | set[int] = frozenset(),
) -> set[int]:
    """All vertices within ``depth`` of some source, sources included.

    ``forbidden`` vertices are treated as deleted: paths may not pass through
    them and they are never reported. A source inside ``forbidden`` or an
    empty source set is an :class:`InputError`.
    """
    src = sorted(set(sources))
    if not src:
        raise InputError("bfs_limited needs at least one source")
    if depth < 0:
        raise InputError(f"depth must be non-negative, got {depth}")
    check_vertices(g, src)
    for s in src:
        if s in forbidden:
            raise InputError(f"source {s} is in the forbidden set")
    return _layers(g.adj, src, depth, forbidden)[0]


def distances_from(
    g: Graph,
    source: int,
    cap: int,
    *,
    forbidden: frozenset[int] | set[int] = frozenset(),
) -> dict[int, int]:
    """BFS distance map from ``source``, cut off beyond ``cap``.

    The map lists vertices in BFS order.
    """
    if cap < 0:
        raise InputError(f"cap must be non-negative, got {cap}")
    check_vertices(g, (source,))
    if source in forbidden:
        raise InputError(f"source {source} is in the forbidden set")
    _, layers = _layers(g.adj, [source], cap, forbidden)
    return {v: d for d, layer in enumerate(layers) for v in layer}


def distance_vector(
    g: Graph, v: int, targets: Sequence[int], cap: int
) -> tuple[float, ...]:
    """Distances from ``v`` to each target in order, capped at ``cap``.

    Entries farther than ``cap`` (or unreachable) come back as ``INF``; the
    result is a plain tuple so same-vector classes can be bucketed by
    equality.
    """
    dist = distances_from(g, v, cap)
    return tuple(dist.get(t, INF) for t in targets)


def distance_vectors(
    g: Graph, vertices: Iterable[int], targets: Sequence[int], cap: int
) -> dict[int, tuple[float, ...]]:
    """:func:`distance_vector` of each vertex, from one capped BFS per target.

    Distances are symmetric, so the BFS runs from the targets instead of
    from every vertex; the vectors are identical to per-vertex ones.
    """
    if cap < 0:
        raise InputError(f"cap must be non-negative, got {cap}")
    maps = [distances_from(g, t, cap) for t in targets]
    vs = list(vertices)
    check_vertices(g, vs)
    return {v: tuple(d.get(v, INF) for d in maps) for v in vs}


def is_r_independent(
    g: Graph,
    vertices: Iterable[int],
    r: int,
    forbidden: frozenset[int] | set[int] = frozenset(),
) -> bool:
    """True when the vertices are pairwise more than ``r`` apart in
    ``G - forbidden``.

    The set must be disjoint from ``forbidden`` (:class:`InputError`
    otherwise). Singletons and the empty set are trivially independent.

    One walk grows all radius-h balls together, h = r // 2, and fails at
    the first vertex two of them claim. That is exact for even r = 2h: a
    path of length at most 2h in ``G - forbidden`` has a midpoint within h
    of both ends, and two balls that meet give such a path. Odd r = 2h + 1
    also fails on an edge whose ends have different owners (forbidden
    vertices have none): a path of length 2h + 1 has an edge whose ends lie
    within h of its two ends, and disjoint balls make those ends their
    owners.
    """
    vs = sorted(set(vertices))
    overlap = [v for v in vs if v in forbidden]
    if overlap:
        raise InputError(f"vertices {overlap} are in the forbidden set")
    if r < 0:
        raise InputError(f"radius must be non-negative, got {r}")
    check_vertices(g, vs)
    owner, clash = _claim_balls(g.adj, vs, r // 2, forbidden)
    if clash is not None:
        return False
    return r % 2 == 0 or all(owner.get(w, o) == o for v, o in owner.items() for w in g.adj[v])


def induced_connected(g: Graph, vertices: Iterable[int]) -> bool:
    """True when the vertices induce a connected subgraph of G (at most one
    vertex counts as connected)."""
    vs = set(vertices)
    if len(vs) <= 1:
        return True
    return _layers(g.adj, [min(vs)], len(vs), set(range(g.n)) - vs)[0] == vs


class Contraction:
    """Result of contracting disjoint balls: the minor and both directions of
    the vertex correspondence.

    H-vertices ``0..len(centers)-1`` are the contracted balls in ascending
    center order; the rest are surviving original vertices in ascending id
    order; ``base`` maps an H-vertex back to the original vertex it stands
    for.
    """

    def __init__(
        self, graph: Graph, centers: tuple[int, ...], singletons: tuple[int, ...]
    ) -> None:
        self.graph = graph
        self.centers = centers
        self.singletons = singletons

    def is_ball(self, h: int) -> bool:
        return h < len(self.centers)

    def base(self, h: int) -> int:
        """The original vertex an H-vertex stands for (a ball's center)."""
        if h < len(self.centers):
            return self.centers[h]
        return self.singletons[h - len(self.centers)]


def contract_balls(
    g: Graph,
    centers: Sequence[int],
    depth: int,
    avoid: frozenset[int] | set[int] = frozenset(),
) -> Contraction:
    """Contract the radius-``depth`` balls around ``centers`` in ``G - avoid``.

    The balls must be pairwise disjoint; a vertex within ``depth`` of two
    centers raises :class:`InputError` naming the violating pair. Vertices in
    no ball survive as singletons; ``avoid`` vertices are dropped from the
    minor. Edges of the minor connect two H-vertices
    whenever any original edge runs between their vertex sets.
    """
    cs = sorted(centers)
    if not cs:
        raise InputError("contract_balls needs at least one center")
    if len(set(cs)) != len(cs):
        dupes = sorted({v for v in cs if cs.count(v) > 1})
        raise InputError(f"duplicate centers {dupes}")
    if depth < 0:
        raise InputError(f"depth must be non-negative, got {depth}")
    bad = [v for v in cs if v in avoid]
    if bad:
        raise InputError(f"centers {bad} are in the avoid set")
    check_vertices(g, cs)

    owner, clash = _claim_balls(g.adj, cs, depth, avoid)
    if clash is not None:
        a, b, w = clash
        raise InputError(f"balls of centers {a} and {b} overlap at vertex {w}")

    singles = tuple(v for v in range(g.n) if v not in owner and v not in avoid)
    ball_index = {center: i for i, center in enumerate(cs)}
    h_of = {v: ball_index[center] for v, center in owner.items()}
    h_of.update((v, len(cs) + j) for j, v in enumerate(singles))

    h_n = len(cs) + len(singles)
    h_edges: set[tuple[int, int]] = set()
    for u, v in g.edges():
        hu, hv = h_of.get(u), h_of.get(v)
        if hu is None or hv is None or hu == hv:
            continue
        h_edges.add((hu, hv) if hu < hv else (hv, hu))
    return Contraction(build_graph(h_n, h_edges), tuple(cs), singles)


def adjacency_bitsets(g: Graph) -> list[int]:
    """Open neighborhoods as arbitrary-precision bitmasks (cached on ``g``)."""
    if g._bits is None:
        bits = []
        for v in range(g.n):
            mask = 0
            for u in g.adj[v]:
                mask |= 1 << u
            bits.append(mask)
        g._bits = bits
    return g._bits
