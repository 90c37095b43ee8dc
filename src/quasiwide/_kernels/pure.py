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
folded per tuple, in ``itertools.combinations`` order with the prefix mask
carried along; a prefix that is already empty accounts for all of its
extensions at once.

Two round shapes skip the per-node descent. With one free slot (t = 0)
only the root evaluates and every node below it chains, so the round
partitions the sequence by root signature, in order, and returns the class
that first reached the greatest length. With two free slots (t = 1) a node
labelled l gives candidate z one bit, [A_l & L(z) != 0], where
A_l = base & L0(l) does not depend on z and L is N or its complement by the
literal's sign. Each node gets a default bit that does not depend on z
either, and the tree is kept as runs, maximal chains of default children.
A candidate finds from its neighborhood the nodes where its bit deviates
from the default and jumps to the first one in each run:

- edge atom: default 0; z deviates at its neighbors;
- slot 0 positive, z negative (phi_1): default [A_l != 0]; z deviates iff
  A_l lies inside N(z), so only labels whose lowest vertex of A_l is a
  neighbor of z are tested;
- slot 0 negative (psi): default 1; with R = base & N(z) for a positive z
  and base - N(z) for a negative one, the bit is [R - N(l) != 0], so z
  deviates iff R lies inside N(l): only neighbors of min R are tested, and
  an empty R deviates at every node.

A deviation takes the other child, which heads its own run. Rounds with
both slots positive (phi_i, i >= 2) stay on the descent: their trees are
shallow, and enumerating two-hop neighbors costs more than it saves. Both
shortcuts give the tree, depths and tie rule of the descent they replace.

Every tail-free round with two or more free slots resumes. The core sieve
splits windows that overlap almost entirely, so such a round stores its
tree on ``g`` (``Graph._rounds``), keyed by (kind, i_split, arity). The
tree maps each label to its node in insertion order, which gives both the
sequence it was built from and the order to undo in, and it keeps the
earlier deepest node each time a label went deeper than all before it. The
next call of that shape on ``g`` finds the longest common prefix with the
stored sequence. When the prefix is at least as long as the part past it,
the insertions past it are undone, newest first; otherwise the round
starts a fresh tree, since undoing would cost more than it keeps. Either
way only the rest of the sequence is inserted. Insertion is causal, the
tree after seq[:j] depends only on seq[:j], so the result equals that of a
fresh round. A call that raises drops the stored tree of its shape. Rounds
with a tail build a fresh tree each call.

``nr_masks`` grows every closed ball by one step per round, OR-ing the
neighbors' balls of the previous round, and stops early at a fixed point.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Iterable, Sequence

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
    """A descent node. It names its parent by label (-1 for the root), so
    a tree holds no reference cycle and is freed as soon as it is dropped,
    even after it outlived its round in a graph's cache."""

    __slots__ = ("label", "up", "depth", "sig", "children")

    def __init__(self, label: int, up: int, depth: int, sig: int) -> None:
        self.label = label
        self.up = up
        self.depth = depth
        self.sig = sig  # the key under which the parent holds this node
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

    Every tail-free round with two or more free slots resumes the tree that
    the last call of its shape on ``g`` left; the result is a fresh list,
    equal to the one a fresh graph gives.
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
        return _resume(g, (kind, i_split, arity), seq, lambda: _Runs(g.adj.__getitem__))
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

    def new_tree() -> "_Runs | _Descent":
        # t = 1 with slot 0 negative, or with z negative: the run rules
        if t == 1 and not positive[0]:
            return _Runs(_psi_deviants(g.adj, bits, base, positive[1]))
        if t == 1 and not positive[1]:
            return _Runs(*_phi_deviants(g.adj, bits, base))
        return _Descent(bits, positive, base, t)

    if tail:
        tree = new_tree()
        tree.extend(seq)
        return tree.branch()
    return _resume(g, (kind, i_split, arity), seq, new_tree)


def _resume(
    g: Graph,
    key: tuple[int, int, int],
    seq: Sequence[int],
    new_tree: "Callable[[], _Runs | _Descent]",
) -> list[int]:
    """Grow the round of shape ``key`` on ``g`` from the tree its last call
    left: keep the common prefix with that call's sequence when it is at
    least as long as the part past it, else start from ``new_tree()``. The
    stored tree leaves the cache while it grows, so a call that raises
    drops it."""
    trees = g._rounds
    if trees is None:
        trees = g._rounds = {}
    tree = trees.pop(key, None)
    keep = 0
    if tree is not None:
        for x, y in zip(tree.placed, seq):
            if x != y:
                break
            keep += 1
        if 2 * keep >= len(tree.placed):
            tree.truncate(keep)
        else:
            tree, keep = None, 0
    if tree is None:
        tree = new_tree()
    tree.extend(seq[keep:])
    trees[key] = tree
    return tree.branch()


class _Descent:
    """A round's tree grown node by node: each candidate descends from the
    root along the children its signatures pick.

    ``placed`` maps each label inserted so far to its node, in insertion
    order, and ``bests`` stacks the deepest node as it was before each
    insertion that went deeper than every node before it: that is all
    :meth:`truncate` needs to take insertions back.
    """

    __slots__ = ("bits", "positive", "base", "t", "root", "best", "bests", "placed")

    def __init__(self, bits: list[int], positive: list[bool], base: int, t: int) -> None:
        self.bits = bits
        self.positive = positive
        self.base = base
        self.t = t
        self.root = _Node(-1, -1, 0, 0)
        self.best = self.root
        self.bests: list[_Node] = []
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
        root, best, bests, placed = self.root, self.best, self.bests, self.placed
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
                    child = _Node(z, node.label, depth + 1, sig)
                    node.children[sig] = child
                    placed[z] = child
                    if child.depth > best.depth:
                        bests.append(best)
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

    def truncate(self, keep: int) -> None:
        """Take back the insertions after the first ``keep``, newest first."""
        placed, best, bests = self.placed, self.best, self.bests
        for _ in range(len(placed) - keep):
            node = placed.popitem()[1]
            del self._parent(node).children[node.sig]
            if node is best:
                best = bests.pop()
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


class _Runs:
    """The tree of a round with one signature bit per node (t = 1). Below
    the root's single child each node has a default bit that does not depend
    on z, and ``deviants(z)`` names the labels already in the tree where z's
    bit differs from it (it may name others too; they are skipped), or is
    None when z deviates at every node. ``forget(z)``, when given, takes
    back what ``deviants(z)`` recorded about z.

    The tree is kept as runs, maximal chains of default children:
    ``runs[i]`` holds the labels in order, ``start[i]`` the depth of its
    head and ``hang[i]`` the (run, index) node whose other child the head is
    (None under the root). A candidate walks a run until its first
    deviation, so it crosses each run with one lookup per deviant label
    found once per candidate instead of one step per node.

    ``placed`` maps each label inserted so far to its (run, index) node, in
    insertion order, and ``bests`` stacks the deepest node as it was before
    each insertion that went deeper than every node before it: that is all
    :meth:`truncate` needs to take insertions back.
    """

    __slots__ = (
        "deviants", "forget", "runs", "start", "hang", "placed", "off_child",
        "best", "bests",
    )

    def __init__(
        self,
        deviants: Callable[[int], Iterable[int] | None],
        forget: Callable[[int], None] | None = None,
    ) -> None:
        self.deviants = deviants
        self.forget = forget
        self.runs: list[list[int]] = []
        self.start: list[int] = []
        self.hang: list[tuple[int, int] | None] = []
        self.placed: dict[int, tuple[int, int]] = {}
        self.off_child: dict[int, int] = {}  # label -> run hanging off its other child
        self.best: tuple[int, int] | None = None
        self.bests: list[tuple[int, int] | None] = []

    def extend(self, seq: Iterable[int]) -> None:
        """Insert ``seq`` after the labels already in the tree; a label
        already in it raises ValueError and leaves the tree unusable."""
        runs, start, hang = self.runs, self.start, self.hang
        placed, off_child, deviants = self.placed, self.off_child, self.deviants
        best, bests = self.best, self.bests
        best_depth = start[best[0]] + best[1] if best else 0
        for z in seq:
            if z in placed:
                raise ValueError(f"vertex {z} repeats in the sequence")
            # first[run]: smallest index in that run where z deviates
            devs = deviants(z)
            if devs is None:
                first = dict.fromkeys(range(len(runs)), 0)
            else:
                first = {}
                for u in devs:
                    at = placed.get(u)
                    if at is not None and at[1] < first.get(at[0], at[1] + 1):
                        first[at[0]] = at[1]
            run: int | None = 0 if runs else None
            parent: tuple[int, int] | None = None
            while run is not None:
                j = first.get(run)
                if j is None:
                    break
                parent = (run, j)
                run = off_child.get(runs[run][j])
            if run is not None:
                # no deviation in this run: z extends it
                j = len(runs[run])
                runs[run].append(z)
                depth = start[run] + j
            else:
                # a new run, under the root or as the other child of parent
                run, j = len(runs), 0
                depth = start[parent[0]] + parent[1] + 1 if parent else 1
                runs.append([z])
                start.append(depth)
                hang.append(parent)
                if parent:
                    off_child[runs[parent[0]][parent[1]]] = run
            at = placed[z] = (run, j)
            if depth > best_depth:
                bests.append(best)
                best, best_depth = at, depth
        self.best = best

    def truncate(self, keep: int) -> None:
        """Take back the insertions after the first ``keep``, newest first.
        A label at index 0 of its run heads the newest run left."""
        runs, hang, off_child, placed = self.runs, self.hang, self.off_child, self.placed
        forget, best, bests = self.forget, self.best, self.bests
        for _ in range(len(placed) - keep):
            z, at = placed.popitem()
            if at == best:
                best = bests.pop()
            run, j = at
            if j:
                runs[run].pop()
            else:
                runs.pop()
                self.start.pop()
                parent = hang.pop()
                if parent:
                    del off_child[runs[parent[0]][parent[1]]]
            if forget is not None:
                forget(z)
        self.best = best

    def branch(self) -> list[int]:
        """The labels from the root's child to the deepest node."""
        runs, hang = self.runs, self.hang
        branch: list[int] = []
        at = self.best
        while at is not None:
            run, j = at
            branch.extend(reversed(runs[run][: j + 1]))
            at = hang[run]
        branch.reverse()
        return branch


def _phi_deviants(
    adj: Sequence[Sequence[int]], bits: list[int], base: int
) -> tuple[Callable[[int], list[int]], Callable[[int], None]]:
    """Slot 0 positive, z negative: a label l with A = base & N(l) has
    default bit [A != 0], and z deviates iff A is non-empty and inside N(z).
    Labels with A non-empty are indexed by the lowest vertex of A, which is
    a neighbor of every z that deviates there. Each call of ``deviants``
    indexes z after finding its deviations; ``forget`` takes the newest
    entry of z back."""
    by_low: dict[int, list[tuple[int, int]]] = {}

    def deviants(z: int) -> list[int]:
        zb = bits[z]
        out = [u for y in adj[z] for u, a in by_low.get(y, ()) if a & zb == a]
        a = base & zb
        if a:
            by_low.setdefault((a & -a).bit_length() - 1, []).append((z, a))
        return out

    def forget(z: int) -> None:
        a = base & bits[z]
        if a:
            by_low[(a & -a).bit_length() - 1].pop()

    return deviants, forget


def _psi_deviants(
    adj: Sequence[Sequence[int]], bits: list[int], base: int, z_positive: bool
) -> Callable[[int], list[int] | None]:
    """Slot 0 negative: with R = base & N(z) for a positive z and base - N(z)
    for a negative one, a node labelled l gives z the bit [R - N(l) != 0].
    Every node's default bit is 1, so z deviates exactly where R lies inside
    N(l): at neighbors of min R, or at every node when R is empty (None)."""

    def deviants(z: int) -> list[int] | None:
        zb = bits[z]
        rest = base & zb if z_positive else base & ~zb
        if not rest:
            return None
        low = (rest & -rest).bit_length() - 1
        return [u for u in adj[low] if rest & bits[u] == rest]

    return deviants


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
