"""The compiled kernels and the pure-Python ones must agree bit for bit:
same formula values, same trie branches, same reachability masks. Runs on
seeded random graphs plus the degenerate shapes (tiny n, empty sequences,
stars, cliques) where off-by-one word handling would show."""

import pytest

from kernel_graphs import seeded_graphs
from quasiwide._kernels import pure

native = pytest.importorskip(
    "quasiwide._kernels.native_wrap",
    reason="compiled backend not built in this environment",
)


GRAPHS = seeded_graphs()


def arg_tuples(g, arity, count):
    from quasiwide.generators import SplitMix64

    rng = SplitMix64(1234 + arity)
    for _ in range(count):
        yield tuple(rng.below(g.n) for _ in range(arity))


@pytest.mark.parametrize("kind", [0, 1, 2])
def test_eval_formula_agrees(kind):
    for g in GRAPHS:
        for arity in (2, 3, 4):
            if kind == 0 and arity != 2:
                continue
            splits = range(1, arity) if kind else [0]
            for i_split in splits:
                for args in arg_tuples(g, arity, 20):
                    want = pure.eval_formula(g, kind, i_split, arity, args)
                    got = native.eval_formula(g, kind, i_split, arity, args)
                    assert got == want, (g.n, kind, i_split, arity, args)


def test_tree_round_agrees():
    for g in GRAPHS:
        seq = list(range(g.n))
        for arity in (2, 3, 4):
            for kind in (1, 2):
                for i_split in range(1, arity):
                    for tail_len in range(arity):
                        tail = tuple(range(min(tail_len, g.n)))[:tail_len]
                        if len(tail) != tail_len:
                            continue
                        want = pure.tree_round(g, seq, kind, i_split, arity, tail)
                        got = native.tree_round(g, seq, kind, i_split, arity, tail)
                        assert got == want, (g.n, kind, i_split, arity, tail)


def test_tree_round_empty_sequence():
    g = GRAPHS[4]
    assert native.tree_round(g, [], 1, 1, 2, ()) == pure.tree_round(g, [], 1, 1, 2, ())


def test_tree_round_edge_atom():
    for g in GRAPHS[:5]:
        seq = list(range(g.n))
        want = pure.tree_round(g, seq, 0, 0, 2, ())
        got = native.tree_round(g, seq, 0, 0, 2, ())
        assert got == want
        # arity-2 with a fixed tail vertex: evaluation collapses to unary
        if g.n >= 1:
            want1 = pure.tree_round(g, seq, 0, 0, 2, (0,))
            got1 = native.tree_round(g, seq, 0, 0, 2, (0,))
            assert got1 == want1


def test_nr_masks_agree():
    for g in GRAPHS:
        for r in (1, 2, 3):
            assert native.nr_masks(g, r) == pure.nr_masks(g, r), (g.n, r)


def test_large_arity_falls_back(monkeypatch):
    g = GRAPHS[2]
    args = tuple(range(9)) + (0,) * 0
    # arity 9 exceeds the compiled limit; the wrapper must delegate
    want = pure.eval_formula(g, 1, 4, 9, args)
    got = native.eval_formula(g, 1, 4, 9, args)
    assert got == want


def test_package_backend_selection():
    import quasiwide._kernels as K

    assert K.BACKEND in ("native", "pure")
    g = GRAPHS[3]
    assert K.eval_formula(g, 0, 0, 2, (0, 1)) is True
