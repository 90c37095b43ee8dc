"""Pure-Python backend: arbitrary-precision int bitsets.

Semantics reference for the native twin. Formula evaluation intersects
neighbor bitsets starting from the smallest positive-literal list (an empty
positive set degenerates to a full-universe scan, expressed here as the
all-ones mask). A formula holds when the mask that survives every literal is
nonzero.

The type-tree round follows the insertion scheme described in
``quasiwide.logic`` but never evaluates a tuple on its own. Literals
commute, so the masks are folded in stages: the fixed tail once per round
into a ``base`` mask, the candidate ``z`` once per candidate, and the
parent's label once per node. Only the remaining combination slots are
folded per tuple, in ``itertools.combinations`` order with the prefix mask
carried along; a prefix that is already empty accounts for all of its
extensions at once.

Two round shapes skip the per-node descent. With one free slot (t = 0)
only the root evaluates and every node below it chains, so the round
partitions the sequence by root signature, in order, and returns the class
that first reached the greatest length. The edge atom with an empty tail
(t = 1) keeps its tree as runs, maximal chains of 0-children: a candidate
leaves a run only at a node labelled by one of its neighbors, so it crosses
each run with one lookup per neighbor instead of one step per node. Both
give the tree, depths and tie rule of the descent they replace.

``nr_masks`` grows every closed ball by one step per round, OR-ing the
neighbors' balls of the previous round, and stops early at a fixed point.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from ..graph import Graph, adjacency_bitsets

EDGE, PHI, PSI = 0, 1, 2


def eval_formula(
    g: Graph, kind: int, i_split: int, arity: int, args: Sequence[int]
) -> bool:
    """Evaluate one formula with the given argument tuple.

    kind 0 (edge atom): adjacency of the two arguments. kind 1 (phi): some
    vertex is adjacent to the first ``i_split`` arguments and non-adjacent to
    the rest. kind 2 (psi): the mirrored pattern. Arguments need not be
    distinct; the witness may coincide with a negative-literal argument but
    never with a positive one (no self-adjacency).
    """
    bits = adjacency_bitsets(g)
    if kind == EDGE:
        u, v = args
        return (bits[u] >> v) & 1 == 1
    if kind == PHI:
        pos = args[:i_split]
        neg = args[i_split:]
    else:
        pos = args[i_split:]
        neg = args[:i_split]
    acc = (1 << g.n) - 1
    for x in sorted(pos, key=lambda v: len(g.adj[v])):
        acc &= bits[x]
        if not acc:
            return False
    for x in neg:
        acc &= ~bits[x]
        if not acc:
            return False
    return True


class _Node:
    __slots__ = ("label", "parent", "depth", "children")

    def __init__(self, label: int, parent: "_Node | None", depth: int) -> None:
        self.label = label
        self.parent = parent
        self.depth = depth
        self.children: dict[int, _Node] = {}


def tree_round(
    g: Graph,
    seq: Sequence[int],
    kind: int,
    i_split: int,
    arity: int,
    tail: Sequence[int],
) -> list[int]:
    """One insertion round; returns the longest branch (earliest leaf wins).

    With q = arity - len(tail) free slots the candidate occupies slot q and
    increasing (q-1)-tuples of path labels fill the slots before it. A node's
    signature packs the evaluations over the tuples that end at its parent's
    label, so descent never re-evaluates earlier prefixes; nodes shallower
    than q-1 have no tuples to evaluate and chain. ``seq`` must not repeat a
    vertex.
    """
    tail = tuple(tail)
    q = arity - len(tail)
    t = q - 1
    if t < 0:
        if len(seq) > 1:
            raise ValueError(f"a tail of {len(tail)} leaves no free slot at arity {arity}")
        return list(seq)
    bits = adjacency_bitsets(g)
    if kind == EDGE:
        if arity != 2:
            raise ValueError(f"the edge atom takes 2 arguments, not {arity}")
        if t == 0:
            return _partition_round(seq, [(bits[z] >> tail[0]) & 1 for z in seq])
        return _edge_runs_round(g, seq)
    # positive[p]: argument position p is a positive literal
    if kind == PHI:
        positive = [p < i_split for p in range(arity)]
    else:
        positive = [p >= i_split for p in range(arity)]
    base = (1 << g.n) - 1
    for p, x in enumerate(tail, start=t + 1):
        base = base & bits[x] if positive[p] else base & ~bits[x]
    if t == 0:
        if positive[0]:
            return _partition_round(seq, [base & bits[z] != 0 for z in seq])
        return _partition_round(seq, [base & ~bits[z] != 0 for z in seq])
    z_positive = positive[t]
    last_positive = positive[t - 1]
    # slots: combination positions left per tuple once z and the parent's
    # label are folded in; nodes shallower than t just chain
    slots = t - 1
    root = _Node(-1, None, 0)
    best = root
    path: list[int] = []
    for z in seq:
        zmask = base & bits[z] if z_positive else base & ~bits[z]
        sig = 0
        node = root
        depth = 0
        if slots:
            del path[:]
        while True:
            child = node.children.get(sig)
            if child is None:
                child = _Node(z, node, depth + 1)
                node.children[sig] = child
                if child.depth > best.depth:
                    best = child
                break
            node = child
            depth += 1
            last = node.label
            if slots:
                path.append(last)
            if depth < t:
                sig = 0
                continue
            lb = bits[last]
            mask = zmask & lb if last_positive else zmask & ~lb
            if not mask:
                sig = 0
            elif slots == 0:
                sig = 1
            else:
                sig = _combination_signature(mask, path, depth - 1, slots, positive, bits)
    branch: list[int] = []
    node = best
    while node is not root:
        branch.append(node.label)
        node = node.parent  # type: ignore[assignment]
    branch.reverse()
    return branch


def _partition_round(seq: Sequence[int], sigs: Sequence[int]) -> list[int]:
    """The round with one free slot: only the root evaluates, so each root
    signature heads one chain holding its candidates in order. The class
    that first reached the greatest length is the deepest leaf."""
    classes: dict[int, list[int]] = {}
    best: list[int] = []
    for z, sig in zip(seq, sigs):
        cls = classes.setdefault(sig, [])
        cls.append(z)
        if len(cls) > len(best):
            best = cls
    return best


def _edge_runs_round(g: Graph, seq: Sequence[int]) -> list[int]:
    """The edge atom with an empty tail: below the root's single child a
    node's signature is whether z is adjacent to its label.

    The tree is kept as runs, maximal chains of 0-children: ``runs[i]`` holds
    the labels in order, ``start[i]`` the depth of its head and ``hang[i]``
    the (run, index) node whose 1-child the head is (None under the root).
    A candidate walks a run until the first node labelled by a neighbor, so
    it crosses each run with the neighbor positions found once per
    candidate instead of one step per node.
    """
    runs: list[list[int]] = []
    start: list[int] = []
    hang: list[tuple[int, int] | None] = []
    where: dict[int, tuple[int, int]] = {}  # label -> (run, index)
    one_child: dict[int, int] = {}  # label -> run hanging off its 1-child
    best: tuple[int, int] | None = None
    best_depth = 0
    for z in seq:
        if z in where:
            raise ValueError(f"vertex {z} repeats in the sequence")
        # first[run]: smallest index in that run labelled by a neighbor
        first: dict[int, int] = {}
        for u in g.adj[z]:
            at = where.get(u)
            if at is not None and at[1] < first.get(at[0], at[1] + 1):
                first[at[0]] = at[1]
        run: int | None = 0 if runs else None
        parent: tuple[int, int] | None = None
        while run is not None:
            j = first.get(run)
            if j is None:
                break
            parent = (run, j)
            run = one_child.get(runs[run][j])
        if run is not None:
            # no neighbor in this run: z extends it
            j = len(runs[run])
            runs[run].append(z)
            depth = start[run] + j
        else:
            # a new run, under the root or as the 1-child of parent
            run, j = len(runs), 0
            depth = start[parent[0]] + parent[1] + 1 if parent else 1
            runs.append([z])
            start.append(depth)
            hang.append(parent)
            if parent:
                one_child[runs[parent[0]][parent[1]]] = run
        where[z] = (run, j)
        if depth > best_depth:
            best, best_depth = (run, j), depth
    branch: list[int] = []
    while best is not None:
        run, j = best
        branch.extend(reversed(runs[run][: j + 1]))
        best = hang[run]
    branch.reverse()
    return branch


def _combination_signature(
    mask: int,
    elems: list[int],
    m: int,
    slots: int,
    positive: list[bool],
    bits: list[int],
) -> int:
    """Pack, over ``combinations(elems[:m], slots)`` in order, whether
    ``mask`` survives the literals of the chosen elements at argument
    positions ``0..slots-1``; bit i belongs to the i-th combination.
    """
    sig = 0
    index = 0

    def fold(start: int, slot: int, prefix: int) -> None:
        nonlocal sig, index
        need = slots - slot
        pos = positive[slot]
        if need == 1:
            for i in range(start, m):
                b = bits[elems[i]]
                if (prefix & b) if pos else (prefix & b != prefix):
                    sig |= 1 << index
                index += 1
            return
        for i in range(start, m - need + 1):
            b = bits[elems[i]]
            nxt = prefix & b if pos else prefix & ~b
            if nxt:
                fold(i + 1, slot + 1, nxt)
            else:
                index += comb(m - i - 1, need - 1)

    fold(0, 0, mask)
    return sig


def nr_masks(g: Graph, r: int) -> list[int]:
    """Closed r-ball of every vertex as a bitmask (index = vertex)."""
    adj = g.adj
    balls = [1 << v for v in range(g.n)]
    for _ in range(r):
        grown = []
        for v, ball in enumerate(balls):
            for u in adj[v]:
                ball |= balls[u]
            grown.append(ball)
        if grown == balls:
            break
        balls = grown
    return balls
