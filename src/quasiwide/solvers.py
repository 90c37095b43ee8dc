"""Exact solvers: distance-r domination, Steiner trees, connected domination.

Four solvers share this module:

- :func:`exact_drds`: branch-and-bound over closed r-balls with a packing
  lower bound; the reference solver for kernel-equivalence checks.
- :func:`dreyfus_wagner`: the classic terminal-subset dynamic program for
  minimum Steiner trees, specialized to unit edge weights so the relaxation
  phase is a level-by-level BFS.
- :func:`brute_cds`: exhaustive connected-dominating-set search, the oracle
  the FPT solver is tested against.
- :func:`cds_fpt`: a bounded search tree for connected domination. Interior
  nodes split off a wide subset of the undominated area; when enough spread
  survives, every solution must touch the splitter's deletion set, which
  becomes the branching set. Shallow or narrow nodes fall back to a leaf
  routine that partitions the undominated area among prospective dominators
  and connects them with Steiner trees through fresh terminal gadgets.

Everything is deterministic: pivots are minimum-id, candidate loops ascend,
and tie-breaks go to the smaller vertex.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from itertools import accumulate, combinations

from . import _kernels
from .check import check_cds_branch, verify_steiner
from .errors import ConfigError, InfeasibleError, InputError, InternalError
from .graph import Graph, bfs_limited, build_graph, induced_connected
from .uqw import UqwConfig, uqw_split

# Cap on (terminal subsets) x (vertices) states in the Steiner DP: above
# this the table would not fit in desk-scale memory, so the solver refuses
# up front with a clear message.
_DP_STATE_LIMIT = 1 << 25


def _bits_of(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def exact_drds(g: Graph, r: int, k: int) -> set[int] | None:
    """A distance-r dominating set of size <= k, or None.

    Depth-first branch and bound: the pivot is the smallest undominated
    vertex, candidates are the members of its closed r-ball in ascending
    order, and the first solution found is returned. Subtrees are cut when
    a greedy 2r-packing of the undominated area needs more new dominators
    than remain; the packing argument never cuts a feasible subtree, so the
    pinned search order decides the witness.
    """
    if r < 1:
        raise InputError(f"radius must be positive, got {r}")
    if k < 0:
        raise InputError(f"budget must be non-negative, got {k}")
    if g.n == 0:
        return set()
    masks = _kernels.nr_masks(g, r)
    pack = _kernels.nr_masks(g, 2 * r)
    full = (1 << g.n) - 1

    def lower_bound(covered: int) -> int:
        avail = full & ~covered
        cnt = 0
        while avail:
            u = (avail & -avail).bit_length() - 1
            cnt += 1
            avail &= ~pack[u]
        return cnt

    def dfs(covered: int, chosen: list[int]) -> list[int] | None:
        if covered == full:
            return chosen
        if len(chosen) + lower_bound(covered) > k:
            return None
        u = ((full & ~covered) & -(full & ~covered)).bit_length() - 1
        for v in _bits_of(masks[u]):
            res = dfs(covered | masks[v], chosen + [v])
            if res is not None:
                return res
        return None

    res = dfs(0, [])
    return set(res) if res is not None else None


@dataclass(frozen=True)
class SteinerInstance:
    """A graph plus the terminals a Steiner tree must span."""

    graph: Graph
    terminals: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.terminals:
            raise InputError("at least one terminal is required")
        if len(set(self.terminals)) != len(self.terminals):
            raise InputError("terminals must be distinct")
        for t in self.terminals:
            if not (0 <= t < self.graph.n):
                raise InputError(f"terminal {t} outside 0..{self.graph.n - 1}")


def dreyfus_wagner(inst: SteinerInstance) -> tuple[frozenset[tuple[int, int]], int]:
    """Minimum unit-weight Steiner tree via the terminal-subset DP.

    States are (terminal subset, attachment vertex); subsets are merged at a
    shared vertex and then relaxed one BFS level at a time. Back-pointers
    reconstruct an edge set, which :func:`~quasiwide.check.verify_steiner`
    checks to be a tree of G of the reported cost spanning all terminals
    (:class:`InternalError` otherwise). Terminals in different components
    raise :class:`InfeasibleError`.
    """
    g = inst.graph
    terms = tuple(sorted(inst.terminals))
    reachable = bfs_limited(g, [terms[0]], g.n)
    missing = [t for t in terms if t not in reachable]
    if missing:
        raise InfeasibleError(
            f"terminals {missing} are disconnected from terminal {terms[0]}"
        )
    tn = len(terms)
    if tn == 1:
        return frozenset(), 0
    n = g.n
    # The DP keeps a value per (terminal subset, vertex); refuse instances
    # whose state table could not be allocated instead of dying mid-run.
    if (1 << tn) * n > _DP_STATE_LIMIT:
        raise InputError(
            f"{tn} terminals on {n} vertices need 2^{tn} * {n} subset-DP "
            f"states, above the built-in limit of {_DP_STATE_LIMIT}"
        )
    full = (1 << tn) - 1
    inf = 2 * n + 7

    # mask 0 is never read; every other entry is replaced in mask order
    dp: list[list[int]] = [[]] * (full + 1)
    back: list[list[tuple]] = [[]] * (full + 1)
    for mask in range(1, full + 1):
        cost = [inf] * n
        trace: list[tuple] = [()] * n
        if mask & (mask - 1) == 0:
            t = terms[mask.bit_length() - 1]
            cost[t] = 0
            trace[t] = ("t",)
        else:
            low = mask & -mask
            sub = (mask - 1) & mask
            while sub:
                if sub & low:
                    other = mask ^ sub
                    ds, do = dp[sub], dp[other]
                    for v in range(n):
                        c = ds[v] + do[v]
                        if c < cost[v]:
                            cost[v] = c
                            trace[v] = ("m", sub)
                sub = (sub - 1) & mask
        # Unit weights make the relaxation a layered BFS from all current
        # values; within a layer smaller ids write first, fixing the tree.
        layers: dict[int, list[int]] = {}
        for v in range(n):
            if cost[v] < inf:
                layers.setdefault(cost[v], []).append(v)
        level = 0
        while level in layers or any(x > level for x in layers):
            for v in sorted(layers.get(level, ())):
                if cost[v] != level:
                    continue
                for w in g.adj[v]:
                    if cost[w] > level + 1:
                        cost[w] = level + 1
                        trace[w] = ("s", v)
                        layers.setdefault(level + 1, []).append(w)
            layers.pop(level, None)
            level += 1
        dp[mask] = cost
        back[mask] = trace

    final = dp[full]
    root = min(range(n), key=lambda v: (final[v], v))
    total = final[root]
    if total >= inf:
        raise InternalError("no spanning value despite connectivity precheck")

    edges: set[tuple[int, int]] = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        tag = back[mask][v]
        if tag[0] == "t":
            continue
        if tag[0] == "s":
            u = tag[1]
            edges.add((u, v) if u < v else (v, u))
            stack.append((mask, u))
        else:
            sub = tag[1]
            stack.append((sub, v))
            stack.append((mask ^ sub, v))

    if not verify_steiner(g, terms, edges, total):
        raise InternalError("reconstructed edge set is not a tree of the reported cost")
    return frozenset(edges), total


def brute_cds(g: Graph, k: int) -> set[int] | None:
    """Exhaustive connected-dominating-set search in lexicographic order.

    Tries sizes 0..k and within a size all vertex combinations
    lexicographically, returning the first dominating set whose induced
    subgraph is connected. Exponential; the oracle for the FPT solver.
    """
    if k < 0:
        raise InputError(f"budget must be non-negative, got {k}")
    if g.n == 0:
        return set()
    masks = _kernels.nr_masks(g, 1)
    full = (1 << g.n) - 1
    for size in range(1, min(k, g.n) + 1):
        for combo in combinations(range(g.n), size):
            dom = 0
            for v in combo:
                dom |= masks[v]
            if dom == full and induced_connected(g, combo):
                return set(combo)
    return None


def _leaf_state(idx: int, doms: list[int]) -> Hashable:
    """The failure-memo key of a partition state in :func:`cds_fpt`'s leaf.

    Whether the blocks ``doms`` can be completed from ``w_list[idx]`` on
    depends only on ``idx`` and the multiset of blocks: the completions
    reachable from any order of the same blocks are the same multisets,
    and a finished partition's Steiner tree, hence its verdict, does not
    depend on block order."""
    return idx, tuple(sorted(doms))


def cds_fpt(
    g: Graph,
    k: int,
    cfg: UqwConfig | None = None,
    K_threshold: int | None = None,
) -> set[int] | None:
    """A connected dominating set of size <= k, or None.

    The search tree grows a partial solution X. While the undominated area W
    is at least ``K_threshold`` strong, the splitter is asked for k + 1
    vertices of W pairwise more than 2 apart in G - S: if it delivers more
    spread than the remaining budget could dominate separately, any solution
    extending X must meet S, so S is the branching set (an empty S then
    refutes X outright). Small or narrow W goes to the leaf routine, which
    enumerates partitions of W into blocks with a common dominator and
    connects X with one prospective dominator per block through a minimum
    Steiner tree. Disconnected inputs (beyond a single vertex) have no
    solution, and neither has a graph whose d largest degrees sum to less
    than n + d - 2 for every d <= k. Dense inputs surface as
    :class:`DensityError` from the splitter.

    ``K_threshold`` defaults to 4(k+1)^2 and must be at least k + 2.
    """
    if k < 1:
        raise InputError(f"budget must be positive, got {k}")
    if cfg is None:
        cfg = UqwConfig()
    kt = K_threshold if K_threshold is not None else 4 * (k + 1) ** 2
    if kt < k + 2:
        raise ConfigError(f"K_threshold must be at least k + 2 = {k + 2}, got {kt}")
    n = g.n
    if n == 0:
        return set()
    if n == 1:
        return {0}
    if len(bfs_limited(g, [0], n)) != n:
        return None
    # A connected d-set spends d - 1 of its edges inside itself, so it
    # dominates at most its degree sum minus d - 2 vertices.
    top = accumulate(sorted((len(a) for a in g.adj), reverse=True)[: min(k, n)])
    if all(total < n + d - 2 for d, total in enumerate(top, start=1)):
        return None
    masks = _kernels.nr_masks(g, 1)
    full = (1 << n) - 1
    max_cdeg = max(len(a) for a in g.adj) + 1

    def leaf(x: list[int], w_mask: int) -> set[int] | None:
        budget = k - len(x)
        w_list = _bits_of(w_mask)
        if not w_list:
            if len(x) <= 1:
                return set(x)
            if induced_connected(g, x):
                return set(x)
            edges, _cost = dreyfus_wagner(SteinerInstance(g, tuple(sorted(x))))
            tree_v = {v for e in edges for v in e} | set(x)
            return set(tree_v) if len(tree_v) <= k else None

        def try_partition(doms: list[int]) -> set[int] | None:
            l = len(doms)
            if not x and l == 1:
                v = (doms[0] & -doms[0]).bit_length() - 1
                # One block covering all of W = V means this single common
                # dominator is itself a connected dominating set.
                if masks[v] == full:
                    return {v}
                return None
            nid = n
            terms = sorted(x)
            extra_edges: list[tuple[int, int]] = []
            gadget_of: dict[int, int] = {}
            for dom in doms:
                t = nid
                nid += 1
                terms.append(t)
                for v in _bits_of(dom):
                    a, b = nid, nid + 1
                    nid += 2
                    extra_edges.extend([(t, a), (a, b), (b, v)])
                gadget_of[t] = len(gadget_of)
            g2 = build_graph(nid, list(g.edges()) + extra_edges)
            try:
                edges, _cost = dreyfus_wagner(SteinerInstance(g2, tuple(terms)))
            except InfeasibleError:
                return None
            degree: dict[int, int] = {}
            for u, v in edges:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            heavy = [t for t in gadget_of if degree.get(t, 0) != 1]
            if heavy:
                # A minimum tree cannot afford a through-route over a fresh
                # terminal (two length-3 attachments beat a length-2 bypass
                # inside the block), so this only guards a broken DP.
                raise InternalError(
                    f"fresh terminals {heavy} are not leaves of the Steiner tree"
                )
            candidate = {v for e in edges for v in e if v < n} | set(x)
            if len(candidate) > k:
                return None
            dom = 0
            for v in candidate:
                dom |= masks[v]
            if dom != full or not induced_connected(g, candidate):
                return None
            return candidate

        doms: list[int] = []
        # A failed state is never searched twice. Successes are not
        # recorded: the first one in search order, and with it the witness,
        # stays as it was.
        failed: set[Hashable] = set()

        def assign(idx: int) -> set[int] | None:
            state = _leaf_state(idx, doms)
            if state in failed:
                return None
            out = try_partition(doms) if idx == len(w_list) else extend(idx)
            if out is None:
                failed.add(state)
            return out

        def extend(idx: int) -> set[int] | None:
            w = w_list[idx]
            w_dom = masks[w]
            for j in range(len(doms)):
                merged = doms[j] & w_dom
                if not merged:
                    continue
                saved = doms[j]
                doms[j] = merged
                out = assign(idx + 1)
                doms[j] = saved
                if out is not None:
                    return out
            if len(doms) < budget:
                doms.append(w_dom)
                out = assign(idx + 1)
                doms.pop()
                if out is not None:
                    return out
            return None

        return assign(0)

    def search(x: list[int], covered: int) -> set[int] | None:
        w_mask = full & ~covered
        i = len(x)
        if w_mask == 0:
            if induced_connected(g, x):
                return set(x)
            if i >= k:
                return None
            return leaf(x, 0)
        if i >= k:
            return None
        w_count = bin(w_mask).count("1")
        if w_count > (k - i) * max_cdeg:
            return None
        if w_count >= kt:
            res = uqw_split(g, _bits_of(w_mask), 2, k + 1, cfg)
            if len(res.B) >= k - i + 1:
                if not res.S:
                    return None
                check_cds_branch(g, k, x, res.S)
                for v in sorted(res.S):
                    out = search(x + [v], covered | masks[v])
                    if out is not None:
                        return out
                return None
        return leaf(x, w_mask)

    return search([], 0)


__all__ = [
    "SteinerInstance",
    "exact_drds",
    "dreyfus_wagner",
    "brute_cds",
    "cds_fpt",
]
