"""Distance-r dominating set kernel: core sieve, representative reduction,
and kernel construction.

The pipeline shrinks an instance (G, r, k) in three stages:

1. :func:`domination_core` repeatedly finds a "dominatee" vertex whose
   domination is implied by enough lookalikes and deletes it from the set Z
   that still needs to be dominated. Lookalikes are found by splitting a
   window of Z with the wide-set splitter and bucketing the returned spread
   set by capped distance vectors to the splitter's deletion set: a bucket of
   k + 2 vertices with identical vectors cannot all be dominated separately
   by k dominators, so all but k + 1 of them are redundant. This holds at
   any |Z| >= k + 2, so the sieve runs until no window, from ``ell``
   vertices up to all of Z, holds such a bucket. A split deletes the
   bucket's smallest members: one in single mode, all but the k + 1
   largest in batch mode.
2. :func:`reduce_dominators` groups all vertices of G by which part of Z they
   r-dominate and keeps one representative per inclusion-maximal class:
   every other vertex reaches a subset of what some representative reaches,
   and ``class_of`` names that representative.
3. :func:`build_kernel` assembles a new graph H from copies of Z and the
   representatives, one shortest path of G per (representative, projection
   member) pair, whose inner vertices are shared between pairs and numbered
   after the copies, and a gadget forcing one extra dominator, so that G
   has a distance-r dominating set of size k iff H has one of size k + 1.

:func:`kernel_pipeline` runs the three in order and returns G plus one
isolated vertex at budget k + 1 instead whenever H has more than n + 1
vertices, so no kernel it returns exceeds n + 1. When a lower bound on
the size of H already exceeds n + 1, H is not built at all.

Stage outputs carry enough bookkeeping for every claim to be re-checked:
the removal log holds one record per sieve split, which
:func:`~quasiwide.check.recheck_core` replays from Z = V(G); the
representatives carry their projections, and the kernel its id maps.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping

from .errors import ConfigError, InputError, InternalError
from .graph import (
    Graph,
    bfs_limited,
    build_graph,
    check_vertices,
    distance_vectors,
    distances_from,
)
from .uqw import UqwConfig, uqw_split, uqw_verify

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CoreConfig:
    """Sieve parameters for radius ``r`` and budget ``k``.

    ``ell`` is the sieve's first window: the number of smallest members of
    Z it splits before widening. It bounds neither the core nor the search,
    which runs on up to all of Z; in the source paper it is the core size
    above which a removable vertex is guaranteed. When omitted it defaults
    to ``max(4 * (k + 2) * (2r + 1)^2, 64)``. ``uqw`` configures the
    splitter used to find lookalike buckets.
    """

    r: int
    k: int
    ell: int | None = None
    uqw: UqwConfig = field(default_factory=UqwConfig)

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ConfigError(f"radius must be positive, got {self.r}")
        if self.k < 1:
            raise ConfigError(f"budget must be positive, got {self.k}")
        if self.ell is not None and self.ell < self.k + 2:
            raise ConfigError(
                f"ell must be at least k + 2 = {self.k + 2}, got {self.ell}"
            )

    @property
    def effective_ell(self) -> int:
        """The first sieve window: ``ell``, or its default."""
        if self.ell is not None:
            return self.ell
        return max(4 * (self.k + 2) * (2 * self.r + 1) ** 2, 64)


@dataclass(frozen=True)
class Removal:
    """One sieve split's justified removal: the ``removed`` vertices are
    members of a ``bucket`` of at least k + 2 vertices sharing one capped
    distance vector to the ``anchors``, and at least k + 1 members stay.

    Buckets are sorted. :func:`find_irrelevant_dominatee` proposes the
    bucket's smallest member; :func:`domination_core` logs one record per
    split, with ``removed`` set to the bucket's smallest members that it
    deleted, in increasing order."""

    removed: tuple[int, ...]
    bucket: tuple[int, ...]
    anchors: tuple[int, ...]


class _SortedZ(list):
    """Z as :func:`domination_core` keeps it: the distinct vertices of its
    graph in increasing order, which the sieve takes as they are."""


def find_irrelevant_dominatee(
    g: Graph, Z: Iterable[int], cfg: CoreConfig
) -> Removal | None:
    """Search a window of Z for a same-vector bucket big enough to justify a
    removal.

    The window holds the ``ell`` smallest members of Z and doubles while
    no bucket qualifies, until it holds all of Z. The splitter runs
    at radius 2r, once per window; its deletion set S anchors the distance
    vectors, capped at 2r, which come from one capped BFS per anchor (none
    when S is empty). Only the first (k + 2)(2r + 1)^max(|S|, 4) members of
    the spread set B are bucketed, so a larger S admits a longer cut.
    Returns None when |Z| <= k + 1, where no bucket of k + 2 lookalikes
    can exist, or when no window up to all of Z holds one. A split that fails
    :func:`~quasiwide.check.uqw_verify` at radius 2r raises
    :class:`InternalError`.
    """
    if isinstance(Z, _SortedZ):
        zs: list[int] = Z
    else:
        zs = sorted(set(Z))
        check_vertices(g, zs)
    k, r = cfg.k, cfg.r
    if len(zs) <= k + 1:
        return None
    window = cfg.effective_ell
    while True:
        a = zs[:window]
        res = uqw_split(g, a, 2 * r, len(a), cfg.uqw)
        if not uqw_verify(g, res, a, 2 * r):
            raise InternalError(
                f"splitter returned a set that is not {2 * r}-independent "
                "outside its deletion set"
            )
        anchors = tuple(sorted(res.S))
        spread = res.B[: (k + 2) * (2 * r + 1) ** max(len(anchors), 4)]
        buckets: dict[tuple[float, ...], list[int]] = {}
        for b, vec in distance_vectors(g, spread, anchors, 2 * r).items():
            buckets.setdefault(vec, []).append(b)
        # Buckets are disjoint, so the least sorted one holds the smallest id.
        bucket = min(
            (sorted(m) for m in buckets.values() if len(m) >= k + 2), default=None
        )
        if bucket is not None:
            return Removal(removed=(bucket[0],), bucket=tuple(bucket), anchors=anchors)
        if len(a) == len(zs):
            break
        window *= 2
        _log.debug("no qualifying bucket, widening window to %d", window)
    _log.debug("no removable dominatee found in all of Z (|Z|=%d)", len(zs))
    return None


@dataclass(frozen=True)
class DominationCore:
    Z: frozenset[int]
    removal_log: tuple[Removal, ...]


def domination_core(g: Graph, cfg: CoreConfig, batch: bool = True) -> DominationCore:
    """Shrink Z = V(G) by deleting justified dominatees until none is found.

    Each split deletes the ``dd`` smallest members of its bucket. Batch
    mode takes dd = q - (k + 1) for a bucket of q members, so the bucket
    keeps its k + 1 largest; single mode takes dd = 1. Batch mode thus
    makes single mode's choice several vertices at a time. The sieve stops
    only when :func:`find_irrelevant_dominatee` finds no bucket in all of
    Z, so ``ell`` sets where each search starts, not the core's size. Each
    split is logged as one :class:`Removal` naming the vertices it
    deleted.
    """
    z = _SortedZ(range(g.n))
    log: list[Removal] = []
    while True:
        rem = find_irrelevant_dominatee(g, z, cfg)
        if rem is None:
            break
        dd = len(rem.bucket) - (cfg.k + 1) if batch else 1
        rem = replace(rem, removed=rem.bucket[:dd])
        log.append(rem)
        for w in rem.removed:
            del z[bisect_left(z, w)]
        _log.debug("removed %d dominatee(s), |Z|=%d", len(rem.removed), len(z))
    return DominationCore(Z=frozenset(z), removal_log=tuple(log))


@dataclass(frozen=True)
class Representatives:
    """Dominator reduction: ``Y`` holds one vertex per inclusion-maximal
    projection class, ``projection`` maps each representative to the part of
    Z it r-dominates, and ``class_of`` maps every vertex of G to the
    smallest-id representative whose projection contains the vertex's own."""

    Y: frozenset[int]
    projection: Mapping[int, tuple[int, ...]]
    class_of: Mapping[int, int]


def reduce_dominators(g: Graph, Z: Iterable[int], r: int) -> Representatives:
    """Group vertices by their r-projection onto Z and keep one
    representative, the smallest id, per inclusion-maximal class.

    The projection of v is the sorted tuple of members of Z within closed
    distance r of v. Classes are visited by decreasing projection size,
    ties by representative id, and a class is kept unless a kept projection
    contains its own. Any dominator can thus be swapped for its
    ``class_of`` representative. An empty graph yields no representatives;
    an empty Z puts every vertex in one class represented by vertex 0.
    """
    if r < 1:
        raise InputError(f"radius must be positive, got {r}")
    zs = sorted(set(Z))
    check_vertices(g, zs)
    lists: list[list[int]] = [[] for _ in range(g.n)]
    masks = [0] * g.n
    for i, z in enumerate(zs):
        for v in bfs_limited(g, [z], r):
            lists[v].append(z)
            masks[v] |= 1 << i
    first: dict[int, int] = {}
    for v in range(g.n):
        first.setdefault(masks[v], v)

    # Every kept class that contains a class is visited before it. A kept
    # projection that contains a nonempty one holds its smallest member, so
    # each kept representative is filed under every member of its projection.
    rep_of: dict[int, int] = {}
    kept: list[int] = []
    holders: dict[int, list[int]] = {}
    for m, y in sorted(first.items(), key=lambda item: (-len(lists[item[1]]), item[1])):
        pool = holders.get(lists[y][0], []) if m else kept
        covering = [x for x in pool if masks[x] | m == masks[x]]
        if covering:
            rep_of[m] = min(covering)
            continue
        rep_of[m] = y
        kept.append(y)
        for z in lists[y]:
            holders.setdefault(z, []).append(y)
    return Representatives(
        Y=frozenset(kept),
        projection={y: tuple(lists[y]) for y in kept},
        class_of={v: rep_of[masks[v]] for v in range(g.n)},
    )


@dataclass(frozen=True)
class KernelInstance:
    """The built kernel: graph H, the lifted budget, id maps for the copied
    vertices, the gadget ids, and the result of re-verifying projections
    inside H.

    ``p_ids`` maps each path vertex of G outside Z ∪ Y to its one H id, and
    ``path_internals`` lists those H ids in increasing order. ``kind`` is
    "sieve" for :func:`build_kernel`'s construction and "identity" for G
    plus one isolated gadget vertex, which has no ``gadget_v_prime``."""

    graph: Graph
    k_new: int
    z_ids: Mapping[int, int]
    y_ids: Mapping[int, int]
    gadget_v: int
    gadget_v_prime: int | None
    gadget_internals: tuple[int, ...]
    p_ids: Mapping[int, int]
    projection_ok: bool
    kind: str = "sieve"

    @property
    def gadget_ids(self) -> tuple[int, ...]:
        pair = (self.gadget_v, self.gadget_v_prime)
        return tuple(v for v in pair if v is not None) + self.gadget_internals

    @property
    def path_internals(self) -> tuple[int, ...]:
        return tuple(sorted(self.p_ids.values()))


def _chains_to_graph(n: int, chains: Iterable[tuple[int, ...]]) -> Graph:
    edges = []
    for chain in chains:
        edges.extend(zip(chain, chain[1:]))
    return build_graph(n, edges)


def build_kernel(
    g: Graph, Z: Iterable[int], reps: Representatives, r: int, k: int
) -> KernelInstance:
    """Assemble H from Z- and Y-copies, one shortest path of G per
    projection pair, and the forcing gadget.

    Copies of Z and Y come first (ascending original id). Each (y, z) pair
    with z in y's projection is realised by one shortest y-z path of G: from
    z, every step goes to the smallest-id neighbour one step closer to y. A
    distance above r means the input projection was corrupt
    (:class:`InternalError`). Path vertices outside Z ∪ Y are shared by all
    pairs whose paths cross them and get one id each after the copies, in
    order of first use; H minus the gadget is therefore a subgraph of G.
    The gadget vertex v grows a fresh path of length exactly r to every
    non-Z vertex of H and to its companion v', forcing one dominator of its
    own while reaching no Z-copy, hence ``k_new = k + 1``.

    Projections are re-verified inside H once, and ``projection_ok`` reports
    the result.
    """
    if r < 1:
        raise InputError(f"radius must be positive, got {r}")
    if k < 1:
        raise InputError(f"budget must be positive, got {k}")
    z_orig = sorted(set(Z))
    check_vertices(g, z_orig)
    y_orig = sorted(reps.Y)
    base = sorted(set(z_orig) | set(y_orig))
    idx = {v: i for i, v in enumerate(base)}

    # One shortest path of G per pair; inner vertices outside Z ∪ Y are
    # shared between pairs and numbered after the copies.
    path_chains: list[list[int]] = []
    for y in y_orig:
        dmap = distances_from(g, y, r)
        for z in reps.projection[y]:
            if z == y:
                continue
            d = dmap.get(z)
            if d is None:
                raise InternalError(
                    f"projection pairs {y} with {z} but their distance exceeds {r}"
                )
            walk = [z]
            for step in range(d - 1, -1, -1):
                walk.append(next(w for w in g.adj[walk[-1]] if dmap.get(w) == step))
            walk.reverse()
            for v in walk:
                if v not in idx:
                    idx[v] = len(idx)
            path_chains.append([idx[v] for v in walk])

    gadget_v = len(idx)
    gadget_v_prime = gadget_v + 1
    next_id = gadget_v + 2
    z_copies = {idx[z] for z in z_orig}
    targets = [h for h in range(gadget_v) if h not in z_copies]
    targets.append(gadget_v_prime)
    gadget_chains: list[list[int]] = []
    gadget_internals: list[int] = []
    for tgt in targets:
        internals = list(range(next_id, next_id + r - 1))
        next_id += r - 1
        gadget_internals.extend(internals)
        gadget_chains.append([gadget_v, *internals, tgt])

    h = _chains_to_graph(next_id, path_chains + gadget_chains)
    projection_ok = all(
        bfs_limited(h, [idx[y]], r) & z_copies == {idx[z] for z in reps.projection[y]}
        for y in y_orig
    )

    return KernelInstance(
        graph=h,
        k_new=k + 1,
        z_ids={z: idx[z] for z in z_orig},
        y_ids={y: idx[y] for y in y_orig},
        gadget_v=gadget_v,
        gadget_v_prime=gadget_v_prime,
        gadget_internals=tuple(gadget_internals),
        p_ids={v: i for v, i in idx.items() if i >= len(base)},
        projection_ok=projection_ok,
    )


def _kernel_floor(Z: Iterable[int], Y: Iterable[int], r: int) -> int:
    """A lower bound on the vertex count of :func:`build_kernel`'s H,
    known before it is built: the copies of Z ∪ Y, the gadget's v and v',
    and the r - 1 inner vertices of each gadget path to a copy of Y \\ Z
    and to v'. The shared path vertices are not counted."""
    zs = set(Z)
    y_only = len(set(Y) - zs)
    return len(zs) + y_only + 2 + (r - 1) * (y_only + 1)


def kernel_pipeline(
    g: Graph,
    cfg: CoreConfig,
    stage: Callable[[str], AbstractContextManager[object]] = nullcontext,
) -> tuple[DominationCore, Representatives, KernelInstance]:
    """The whole kernelization: sieve the core, reduce dominators, build the
    kernel, at ``cfg``'s radius and budget.

    The returned kernel never has more than n + 1 vertices: when
    :func:`build_kernel`'s H does, it is replaced by the identity kernel, G
    plus one isolated vertex at budget k + 1, which that vertex spends on
    itself. Its Z- and Y-copies are all of V(G) under their own ids and its
    gadget is vertex n. H is built only when its floor, |Z ∪ Y| + 2 +
    (r - 1)(|Y \\ Z| + 1), is at most n + 1; otherwise H would be
    discarded, and the identity kernel is returned without it. Its
    ``projection_ok`` reports the check of H when H was built, and is True
    when it was not: the identity kernel's projections are G's own, so they
    hold by construction.

    ``stage(name)`` wraps each step, named "core", "reduce" and "build"; the
    default wraps nothing. The steps are looked up in this module when
    called, so a wrapper installed on one of them sees every call.
    """
    with stage("core"):
        core = domination_core(g, cfg)
    with stage("reduce"):
        reps = reduce_dominators(g, core.Z, cfg.r)
    with stage("build"):
        ker = None
        if _kernel_floor(core.Z, reps.Y, cfg.r) <= g.n + 1:
            ker = build_kernel(g, core.Z, reps, cfg.r, cfg.k)
        if ker is None or ker.graph.n > g.n + 1:
            own = {v: v for v in range(g.n)}
            ker = KernelInstance(
                graph=Graph(n=g.n + 1, adj=g.adj + ((),)),
                k_new=cfg.k + 1,
                z_ids=own,
                y_ids=own,
                gadget_v=g.n,
                gadget_v_prime=None,
                gadget_internals=(),
                p_ids={},
                projection_ok=ker is None or ker.projection_ok,
                kind="identity",
            )
    return core, reps, ker


__all__ = [
    "CoreConfig",
    "Removal",
    "DominationCore",
    "KernelInstance",
    "Representatives",
    "find_irrelevant_dominatee",
    "domination_core",
    "reduce_dominators",
    "build_kernel",
    "kernel_pipeline",
]
