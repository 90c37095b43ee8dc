"""Pure-Python kernels: arbitrary-precision int bitsets.

The only implementation of formula evaluation and ``nr_masks``, and the
semantics reference for the compiled type-tree round. Formula evaluation
intersects neighbor bitsets starting from the smallest positive-literal list
(an empty positive set degenerates to a full-universe scan, expressed here
as the all-ones mask). A formula holds when the mask that survives every
literal is nonzero.

The type-tree round follows the insertion scheme described in
``quasiwide.logic`` but never evaluates a tuple on its own. Literals
commute, so the masks are folded in stages: the fixed tail once per round
into a ``base`` mask, the candidate ``z`` once per candidate, and the
parent's label once per node. Only the remaining combination slots are
folded per tuple, in ``itertools.combinations`` order: the last slot in one
loop over the path's literals, and each slot above it by a call that folds
the labels after its choice and returns their sub-signature, shifted into
place. A prefix that is already empty accounts for all of its extensions at
once.

Two round shapes skip the per-node descent. With one free slot (t = 0)
only the root evaluates and every node below it chains, so the round
partitions the sequence by root signature, in order, and returns the class
that first reached the greatest length. A tail-free round with two free
slots (t = 1, which only arity 2 has) gives candidate z one bit at a node
labelled l, [L0(l) & L(z) != 0], where L0 and L are N or its complement by
their literals' signs. Each node gets a default bit that does not depend on
z, and each candidate a deviation mask, the labels where its bit differs
from the default (-1 when it differs at every node):

- edge atom: default 0; the mask is N(z);
- slot 0 positive, z negative (phi_1): default [N(l) != 0]; z deviates iff
  a non-empty N(l) lies inside N(z), so only labels whose lowest neighbor
  is a neighbor of z are tested;
- both slots positive (phi_2): default 0; z deviates iff N(l) meets N(z),
  so the mask is the union of N(w) over w in N(z);
- slot 0 negative (psi): default 1; with R = N(z) for a positive z and
  V - N(z) for a negative one, the bit is [R - N(l) != 0], so z deviates
  iff R lies inside N(l): only neighbors of min R are tested, and an empty
  R deviates at every node.

A deviation takes the other child. The tree is resolved lazily: only its
first run, the chain of default children from the root's child down, is
kept as candidates arrive, and a candidate whose mask misses the run's
labels extends it. Any other is filed with its mask under its first
deviation. A filed group is built, by the same rule, only when its size
leaves room for a node at least as deep as the deepest found so far. Both
shortcuts give the tree, depths and tie rule of the descent they replace.

Every other round descends. A tail-free descent (three or more free slots)
stores its tree for ``g`` in ``_descents``, a weak map from graph to trees
keyed by (kind, i_split, arity), because the window that the core sieve
widens to extends the window it split last. A graph's trees go when the
graph does, and a copy of a graph starts with none. The tree keeps its
labels in insertion order (``placed``), which is the sequence it was built
from. When the next call of that shape on ``g`` extends that sequence, only
the extension is inserted; any other sequence starts a fresh tree.
Insertion is causal, the tree after seq[:j] depends only on seq[:j], so the
result equals that of a fresh round. A call that raises drops the stored
tree of its shape. A descent with a tail builds a fresh tree each call.

``nr_masks`` grows every closed ball by one step per round, OR-ing the
neighbors' balls of the previous round, and stops early at a fixed point.
"""

from __future__ import annotations

import weakref
from math import comb
from typing import Callable, Iterable, Sequence

from ..graph import Graph, adjacency_bitsets

EDGE, PHI, PSI = 0, 1, 2

# the stored tail-free descents of each graph, by (kind, i_split, arity)
_descents: "weakref.WeakKeyDictionary[Graph, dict]" = weakref.WeakKeyDictionary()


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
    """A descent node. It names its parent by label (-1 for the root), so
    a tree holds no reference cycle and is freed as soon as it is dropped,
    even after it outlived its round in ``_descents``."""

    __slots__ = ("label", "up", "depth", "children")

    def __init__(self, label: int, up: int, depth: int) -> None:
        self.label = label
        self.up = up
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
    vertex; with two or more free slots a repeat raises ValueError.

    Every tail-free round with three or more free slots whose ``seq``
    extends the sequence of the last call of its shape on ``g`` resumes the
    tree that call left; the result is a fresh list, equal to the one a
    fresh graph gives.
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
        # default bit 0: z deviates at its neighbors
        return _one_bit_round(seq, bits.__getitem__)
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
    if t == 1 and not tail:
        # arity 2: one bit per node, base is all of V
        if not positive[0]:
            return _one_bit_round(seq, _psi_deviation(g.adj, bits, base, positive[1]))
        if not positive[1]:
            return _one_bit_round(seq, _phi_1_deviation(g.adj, bits))
        return _one_bit_round(seq, _phi_2_deviation(g.adj, bits))
    if tail:
        tree = _Descent(bits, positive, base, t)
        tree.extend(seq)
        return tree.branch()
    return _resume(g, (kind, i_split, arity), seq, lambda: _Descent(bits, positive, base, t))


def _resume(
    g: Graph,
    key: tuple[int, int, int],
    seq: Sequence[int],
    new_tree: "Callable[[], _Descent]",
) -> list[int]:
    """Grow the descent of shape ``key`` on ``g`` from the tree its last
    call left when ``seq`` extends that call's sequence, else from
    ``new_tree()``. The stored tree leaves ``_descents`` while it grows, so
    a call that raises drops it."""
    trees = _descents.setdefault(g, {})
    tree = trees.pop(key, None)
    if tree is not None and tree.placed:
        # most stored trees differ at their first label: test it before
        # comparing the whole stored sequence
        stored = tree.placed
        if (
            len(seq) < len(stored)
            or next(iter(stored)) != seq[0]
            or list(stored) != list(seq[: len(stored)])
        ):
            tree = None
    if tree is None:
        tree = new_tree()
    tree.extend(seq[len(tree.placed) :])
    trees[key] = tree
    return tree.branch()


class _Descent:
    """A round's tree grown node by node: each candidate descends from the
    root along the children its signatures pick.

    ``placed`` maps each label inserted so far to its node, in insertion
    order, and ``best`` is the deepest node, the earliest on ties.
    """

    __slots__ = ("bits", "positive", "base", "t", "root", "best", "placed")

    def __init__(self, bits: list[int], positive: list[bool], base: int, t: int) -> None:
        self.bits = bits
        self.positive = positive
        self.base = base
        self.t = t
        self.root = _Node(-1, -1, 0)
        self.best = self.root
        self.placed: dict[int, _Node] = {}

    def extend(self, seq: Iterable[int]) -> None:
        """Insert ``seq`` after the labels already in the tree; a label
        already in it raises ValueError and leaves the tree unusable."""
        bits, positive, base, t = self.bits, self.positive, self.base, self.t
        z_positive = positive[t]
        last_positive = positive[t - 1]
        # slots: combination positions left per tuple once z and the
        # parent's label are folded in; nodes shallower than t just chain
        slots = t - 1
        root, best, placed = self.root, self.best, self.placed
        path: list[int] = []
        for z in seq:
            if z in placed:
                raise ValueError(f"vertex {z} repeats in the sequence")
            zmask = base & bits[z] if z_positive else base & ~bits[z]
            sig = 0
            node = root
            depth = 0
            if slots:
                del path[:]
            while True:
                child = node.children.get(sig)
                if child is None:
                    child = _Node(z, node.label, depth + 1)
                    node.children[sig] = child
                    placed[z] = child
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
        self.best = best

    def branch(self) -> list[int]:
        """The labels from the root's child to the deepest node."""
        branch: list[int] = []
        node = self.best
        while node is not self.root:
            branch.append(node.label)
            node = self._parent(node)
        branch.reverse()
        return branch

    def _parent(self, node: _Node) -> _Node:
        return self.placed[node.up] if node.up >= 0 else self.root


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


def _one_bit_round(seq: Sequence[int], deviation: Callable[[int], int]) -> list[int]:
    """The round with one signature bit per node (t = 1). Each node has a
    default bit that does not depend on z, and ``deviation(z)`` is the mask
    of the labels where z's bit differs from it, -1 when it differs at
    every node. It is called once per candidate, in order, and must be
    exact on the labels before z; it is never tested against later ones.

    Returns the labels from the root's child to the deepest node, the
    earliest inserted on ties. The first run's deepest node is its last
    label. A group of c candidates filed under a run's node at depth d
    holds no node deeper than d + c, so a group whose bound is below the
    deepest node found so far is never built; one whose bound ties it may
    hold an earlier node of that depth, so it is built."""
    order = {z: i for i, z in enumerate(seq)}
    if len(order) != len(seq):
        seen: set[int] = set()
        z = next(z for z in seq if z in seen or seen.add(z))
        raise ValueError(f"vertex {z} repeats in the sequence")
    if not seq:
        return []
    run, filed = _file_run(zip(seq, map(deviation, seq)))
    # a subtree is (its first run, (parent subtree, index) or None)
    top: tuple = (run, None)
    best, best_depth, best_order = (top, len(run) - 1), len(run), order[run[-1]]
    # (subtree, depth of its run's head, its filed groups)
    stack = [(top, 1, filed)]
    while stack:
        tree, head, filed = stack.pop()
        for j, group in filed.items():
            start = head + j + 1
            if start + len(group) - 1 < best_depth:
                continue
            sub_run, sub_filed = _file_run(group)
            sub = (sub_run, (tree, j))
            depth, rank = start + len(sub_run) - 1, order[sub_run[-1]]
            if depth > best_depth or depth == best_depth and rank < best_order:
                best, best_depth, best_order = (sub, len(sub_run) - 1), depth, rank
            if sub_filed:
                stack.append((sub, start, sub_filed))
    branch: list[int] = []
    (run, hang), j = best
    while True:
        branch.extend(reversed(run[: j + 1]))
        if hang is None:
            break
        (run, hang), j = hang
    branch.reverse()
    return branch


def _file_run(
    pairs: Iterable[tuple[int, int]],
) -> tuple[list[int], dict[int, list[tuple[int, int]]]]:
    """Place each (z, deviation mask) in order: on the end of the first
    run, the chain of default children, or under its first deviation j, the
    run's node whose other child it enters. Returns the run and the groups
    filed under each j."""
    run: list[int] = []
    index: dict[int, int] = {}
    filed: dict[int, list[tuple[int, int]]] = {}
    # the bits of the run's labels
    mask = 0
    for pair in pairs:
        z, dz = pair
        hit = dz & mask
        if not hit:
            index[z] = len(run)
            run.append(z)
            mask |= 1 << z
            continue
        if dz == -1:
            # deviates at every node, so first at the run's head
            j = 0
        else:
            j = len(run)
            while hit:
                low = hit & -hit
                i = index[low.bit_length() - 1]
                if i < j:
                    j = i
                hit ^= low
        group = filed.get(j)
        if group is None:
            filed[j] = [pair]
        else:
            group.append(pair)
    return run, filed


def _phi_1_deviation(adj: Sequence[Sequence[int]], bits: list[int]) -> Callable[[int], int]:
    """Slot 0 positive, z negative: a label l has default bit
    [N(l) != 0], and z deviates iff N(l) is non-empty and inside N(z).
    Labels with a neighbor are indexed by their lowest neighbor, which is a
    neighbor of every z that deviates there. Each call indexes z after
    building its mask, so the mask covers the labels inserted before z."""
    by_low: list[tuple[tuple[int, int], ...]] = [()] * len(adj)

    def deviation(z: int) -> int:
        zb = bits[z]
        dz = 0
        for y in adj[z]:
            for ubit, a in by_low[y]:
                if a & zb == a:
                    dz |= ubit
        if zb:
            by_low[(zb & -zb).bit_length() - 1] += ((1 << z, zb),)
        return dz

    return deviation


def _phi_2_deviation(adj: Sequence[Sequence[int]], bits: list[int]) -> Callable[[int], int]:
    """Both slots positive (phi_2): a node labelled l gives z the bit
    [N(l) & N(z) != 0]. Every default bit is 0, and z deviates at the
    neighbors of each neighbor of z."""

    def deviation(z: int) -> int:
        dz = 0
        for w in adj[z]:
            dz |= bits[w]
        return dz

    return deviation


def _psi_deviation(
    adj: Sequence[Sequence[int]], bits: list[int], full: int, z_positive: bool
) -> Callable[[int], int]:
    """Slot 0 negative: with R = N(z) for a positive z and V - N(z) for a
    negative one (``full`` is V), a node labelled l gives z the bit
    [R - N(l) != 0]. Every node's default bit is 1, so z deviates exactly
    where R lies inside N(l): at neighbors of min R, or at every node when
    R is empty (-1)."""

    def deviation(z: int) -> int:
        rest = bits[z] if z_positive else full & ~bits[z]
        if not rest:
            return -1
        low = (rest & -rest).bit_length() - 1
        dz = 0
        for u in adj[low]:
            if rest & bits[u] == rest:
                dz |= 1 << u
        return dz

    return deviation


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
    pos = positive[0]
    if slots == 1:
        for i in range(m):
            b = bits[elems[i]]
            if (mask & b) if pos else (mask & b != mask):
                sig |= 1 << i
        return sig
    # the first position's choice, then the combinations of the elements
    # after it, shifted into place; an empty prefix skips them all
    index = 0
    rest = positive[1:]
    for i in range(m - slots + 1):
        b = bits[elems[i]]
        prefix = mask & b if pos else mask & ~b
        if prefix:
            sub = _combination_signature(
                prefix, elems[i + 1 : m], m - i - 1, slots - 1, rest, bits
            )
            sig |= sub << index
        index += comb(m - i - 1, slots - 1)
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
