"""The pure kernels against plain-set oracles.

``pure.tree_round`` folds literal masks across the tuples of a round instead
of evaluating each tuple on its own. ``reference_tree_round`` below is the
per-tuple insertion loop it replaced, with the witness scan
``logic._eval_reference`` as its evaluator, so branches are checked against
an implementation that shares no bitset code with the backend.
Tail-free rounds that resume the tree of the previous call on the same
graph are checked against both the reference and a fresh graph.
``pure.nr_masks`` is checked against ``graph.bfs_limited``.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_graphs import seeded_graphs
from quasiwide._kernels import pure
from quasiwide.generators import GenSpec, generate
from quasiwide.graph import Graph, bfs_limited, build_graph
from quasiwide.logic import EDGE_FORMULA, FormulaId, FormulaKind, _eval_reference

GRAPHS = seeded_graphs()


class _Node:
    __slots__ = ("label", "parent", "depth", "children")

    def __init__(self, label, parent, depth):
        self.label = label
        self.parent = parent
        self.depth = depth
        self.children = {}


def reference_tree_round(g, seq, kind, i_split, arity, tail):
    """One insertion round, evaluating every argument tuple separately."""
    adjsets = [set(a) for a in g.adj]
    f = EDGE_FORMULA if kind == 0 else FormulaId(FormulaKind(kind), i_split, arity)

    def holds(args):
        return _eval_reference(adjsets, g.n, f, args)

    tail = tuple(tail)
    q = arity - len(tail)
    t = q - 1
    root = _Node(-1, None, 0)
    best = root
    path = []
    for z in seq:
        node = root
        del path[:]
        while True:
            if node is root:
                sig = (1 if holds((z, *tail)) else 0) if t == 0 else 0
            elif t == 0 or node.depth < t:
                sig = 0
            else:
                sig = 0
                bit = 1
                last = path[-1]
                for combo in combinations(path[:-1], t - 1):
                    if holds((*combo, last, z, *tail)):
                        sig |= bit
                    bit <<= 1
            child = node.children.get(sig)
            if child is None:
                child = _Node(z, node, node.depth + 1)
                node.children[sig] = child
                if child.depth > best.depth:
                    best = child
                break
            node = child
            path.append(node.label)
    branch = []
    node = best
    while node is not root:
        branch.append(node.label)
        node = node.parent
    branch.reverse()
    return branch


def formulas(max_arity):
    """(kind, i_split, arity) for the edge atom and every phi/psi split."""
    yield 0, 0, 2
    for arity in range(2, max_arity + 1):
        for kind in (1, 2):
            for i_split in range(1, arity + 1):
                yield kind, i_split, arity


def seq_and_tail(g, tail_len, length, rng):
    """A shuffled sequence with a tail of distinct vertices, as
    ``extract_indiscernible`` passes them."""
    verts = list(range(g.n))
    rng.shuffle(verts)
    return verts[tail_len : tail_len + length], tuple(verts[:tail_len])


@pytest.mark.parametrize("kind,i_split,arity", list(formulas(5)))
def test_tree_round_matches_reference(kind, i_split, arity):
    # shorter sequences at high arity keep the reference's tuple count small
    length = 24 if arity <= 3 else 12
    rng = random.Random(1000 * kind + 10 * arity + i_split)
    for g in GRAPHS:
        for tail_len in range(arity):
            if tail_len >= g.n:
                continue
            seq, tail = seq_and_tail(g, tail_len, length, rng)
            want = reference_tree_round(g, seq, kind, i_split, arity, tail)
            got = pure.tree_round(g, seq, kind, i_split, arity, tail)
            assert got == want, (g.n, kind, i_split, arity, tail, seq)


def test_tree_round_whole_vertex_range():
    for g in GRAPHS:
        seq = list(range(g.n))
        for kind, i_split, arity in formulas(3):
            want = reference_tree_round(g, seq, kind, i_split, arity, ())
            got = pure.tree_round(g, seq, kind, i_split, arity, ())
            assert got == want, (g.n, kind, i_split, arity)


def test_tree_round_empty_sequence():
    g = GRAPHS[4]
    for kind, i_split, arity in formulas(4):
        for tail_len in range(arity):
            tail = tuple(range(tail_len))
            assert pure.tree_round(g, [], kind, i_split, arity, tail) == []


def _sieve_window_cases():
    """A 40x3 grid and the sorted 120-vertex window the sieve splits, plus a
    shuffled copy; each round's tail is the sequence's own last elements,
    as ``extract_indiscernible`` cuts it."""
    g = generate(GenSpec("grid", {"w": 40, "h": 3}))
    window = list(range(g.n))
    shuffled = window[:]
    random.Random(7).shuffle(shuffled)
    return g, [window, shuffled]


@pytest.mark.parametrize("kind,i_split,arity", list(formulas(5)))
def test_tree_round_one_free_slot_on_long_window(kind, i_split, arity):
    # t = 0: every node below a root class chains
    g, seqs = _sieve_window_cases()
    for cur in seqs:
        cut = len(cur) - (arity - 1)
        seq, tail = cur[:cut], tuple(cur[cut:])
        want = reference_tree_round(g, seq, kind, i_split, arity, tail)
        assert pure.tree_round(g, seq, kind, i_split, arity, tail) == want


def test_edge_round_empty_tail_on_long_window():
    # t = 1: long chains of 0-children broken by adjacent labels
    g, seqs = _sieve_window_cases()
    for seq in seqs:
        want = reference_tree_round(g, seq, 0, 0, 2, ())
        assert pure.tree_round(g, seq, 0, 0, 2, ()) == want
    assert pure.tree_round(g, [], 0, 0, 2, ()) == []
    assert pure.tree_round(g, [], 0, 0, 2, (5,)) == []


def test_edge_round_rejects_repeated_vertex():
    g, _ = _sieve_window_cases()
    with pytest.raises(ValueError):
        pure.tree_round(g, [3, 50, 3], 0, 0, 2, ())


def phi_psi(max_arity):
    """(kind, i_split, arity) for every phi/psi split."""
    return [f for f in formulas(max_arity) if f[0]]


@pytest.mark.parametrize("kind,i_split,arity", phi_psi(5))
def test_one_bit_round_on_long_window(kind, i_split, arity):
    # t = 1: the tail fixes all but two slots, one signature bit per node
    g, seqs = _sieve_window_cases()
    for cur in seqs:
        cut = len(cur) - (arity - 2)
        seq, tail = cur[:cut], tuple(cur[cut:])
        want = reference_tree_round(g, seq, kind, i_split, arity, tail)
        assert pure.tree_round(g, seq, kind, i_split, arity, tail) == want


def _star_path_isolated():
    """A star on 0 with leaves 1..6, a path 6-7-8-9, an edge 10-11, and
    isolated 12 and 13. In phi_1 rounds an isolated label l has
    A = base & N(l) empty, so its bit is 0 for every candidate. In psi_1
    rounds an isolated candidate has R = N(z) empty and deviates at every
    node; with a leaf x in the tail of psi_2^3 every other leaf z has
    R = N(x) - N(z) empty, and the leaves give every candidate bit 0."""
    edges = [(0, leaf) for leaf in range(1, 7)]
    edges += [(6, 7), (7, 8), (8, 9), (10, 11)]
    return build_graph(14, edges)


@pytest.mark.parametrize("kind,i_split,arity", phi_psi(4))
def test_one_bit_round_dead_labels_and_empty_rest(kind, i_split, arity):
    g = _star_path_isolated()
    rng = random.Random(100 * kind + 10 * arity + i_split)
    if arity == 2:
        tails = [()]
    elif arity == 3:
        tails = [(x,) for x in range(g.n)]
    else:
        tails = [(1, 2), (2, 0), (12, 3), (7, 13), (9, 10)]
    for tail in tails:
        rest = [v for v in range(g.n) if v not in tail]
        for attempt in range(4):
            seq = rest[:]
            if attempt:
                rng.shuffle(seq)
            want = reference_tree_round(g, seq, kind, i_split, arity, tail)
            got = pure.tree_round(g, seq, kind, i_split, arity, tail)
            assert got == want, (kind, i_split, arity, tail, seq)


@pytest.mark.parametrize("kind,i_split", [(1, 1), (2, 1), (2, 2)])
def test_one_bit_round_rejects_repeated_vertex(kind, i_split):
    g, _ = _sieve_window_cases()
    with pytest.raises(ValueError):
        pure.tree_round(g, [3, 50, 7, 3], kind, i_split, 2, ())
    with pytest.raises(ValueError):
        pure.tree_round(g, [3, 50, 3], kind, i_split, 3, (9,))


@pytest.mark.parametrize(
    "seq,want",
    [
        # the non-adjacent class completes first
        ([1, 4, 2, 5, 6, 3], [4, 5, 6]),
        # the adjacent class completes first
        ([4, 1, 5, 2, 3, 6], [1, 2, 3]),
    ],
)
def test_one_free_slot_tie_goes_to_the_class_completed_first(seq, want):
    # tail vertex 0 is adjacent to 1, 2, 3 only: two classes of three
    g = build_graph(7, [(0, 1), (0, 2), (0, 3), (4, 5)])
    assert pure.tree_round(g, seq, 0, 0, 2, (0,)) == want
    assert reference_tree_round(g, seq, 0, 0, 2, (0,)) == want
    # phi with i_split 1: some witness adjacent to z and not to 0
    got = pure.tree_round(g, seq, 1, 1, 2, (0,))
    assert got == reference_tree_round(g, seq, 1, 1, 2, (0,))


# How the next sequence of a resumed run derives from the current one and
# the vertices outside it (``others``, in permutation order).
_DERIVE = {
    "identical": lambda cur, others, j, m: cur,
    "extended": lambda cur, others, j, m: cur + others[:m],
    "truncated": lambda cur, others, j, m: cur[:j],
    "suffix replaced": lambda cur, others, j, m: cur[:j] + others[:m] + cur[j + 1 :],
    "disjoint": lambda cur, others, j, m: others[:m],
    "empty": lambda cur, others, j, m: [],
}
_STEPS = st.tuples(
    st.sampled_from([*_DERIVE, "repeated"]), st.integers(0, 12), st.integers(0, 6)
)


@settings(max_examples=100, deadline=None)
@given(
    index=st.integers(0, len(GRAPHS) - 1),
    shuffle=st.randoms(use_true_random=False),
    first=st.integers(0, 12),
    steps=st.lists(_STEPS, min_size=1, max_size=6),
)
def test_tail_free_rounds_resume_on_a_shared_graph(index, shuffle, first, steps):
    g = Graph(GRAPHS[index].n, GRAPHS[index].adj)
    perm = list(range(g.n))
    shuffle.shuffle(perm)
    # sequences draw on at most 20 vertices, which bounds the reference's
    # tuple count at arity 4
    del perm[20:]
    cur = perm[:first]
    shapes = list(formulas(4))
    for op, j, m in [("identical", 0, 0), *steps, ("identical", 0, 0)]:
        others = [v for v in perm if v not in cur]
        if op == "repeated":
            # inserts past the common prefix, then fails; the next call,
            # with the sequence up to the repeat, must not resume from
            # what this one left
            cur = cur[:j] + others[:m]
            bad = cur + cur[:1] if cur else [perm[0], perm[0]]
            for shape in shapes:
                with pytest.raises(ValueError):
                    pure.tree_round(g, bad, *shape, ())
        else:
            cur = _DERIVE[op](cur, others, j, m)
        for shape in shapes:
            got = pure.tree_round(g, cur, *shape, ())
            assert got == pure.tree_round(Graph(g.n, g.adj), cur, *shape, ()), (op, shape)
            assert got == reference_tree_round(g, cur, *shape, ()), (op, shape)
    assert g._rounds


def _disconnected():
    # two triangles, a path of three and an isolated vertex
    return build_graph(10, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8)])


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_nr_masks_match_bfs(r):
    for g in [build_graph(1, []), _disconnected(), *GRAPHS]:
        want = [sum(1 << u for u in bfs_limited(g, [v], r)) for v in range(g.n)]
        assert pure.nr_masks(g, r) == want, (g.n, r)
