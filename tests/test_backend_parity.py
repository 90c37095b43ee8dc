"""The compiled type-tree round and the pure-Python one must agree bit for
bit: same trie branches on seeded random graphs plus the degenerate shapes
(tiny n, empty sequences, stars, cliques) where off-by-one word handling
would show, on sorted and shuffled sequences, and on a graph whose rows
span three words.

The ``native`` fixture (``conftest.py``) compiles the tracked ``_native.c``
where the extension is not built.
"""

import random
import subprocess
import sys

import pytest

import quasiwide._kernels as K
from conftest import NATIVE
from kernel_graphs import seeded_graphs
from quasiwide._kernels import pure
from quasiwide.generators import GenSpec, generate

GRAPHS = seeded_graphs()
# more than 128 vertices: rows span three words
WIDE = generate(GenSpec("random_degenerate", {"n": 130, "c": 2, "seed": 11}))


def _shuffled(n, seed):
    seq = list(range(n))
    random.Random(seed).shuffle(seq)
    return seq


def assert_rounds_agree(native, g, seq, arities, max_tail):
    for arity in arities:
        for kind in (1, 2):
            # i_split = arity reaches phi_k and psi_k, the all-positive and
            # all-negative formulas of every delta_k
            for i_split in range(1, arity + 1):
                for tail_len in range(min(arity, max_tail + 1)):
                    tail = tuple(seq[::-1][:tail_len])
                    if len(tail) != tail_len:
                        continue
                    want = pure.tree_round(g, seq, kind, i_split, arity, tail)
                    got = native.tree_round(g, seq, kind, i_split, arity, tail)
                    assert got == want, (g.n, seq, kind, i_split, arity, tail)


def test_tree_round_agrees(native):
    for seed, g in enumerate(GRAPHS):
        assert_rounds_agree(native, g, list(range(g.n)), (2, 3, 4), 3)
        assert_rounds_agree(native, g, _shuffled(g.n, seed), (3, 4), 3)
    assert_rounds_agree(native, WIDE, _shuffled(WIDE.n, 7), (3,), 0)
    # arity 4 on a prefix: pure psi_4^4 rounds over all 130 vertices are slow
    assert_rounds_agree(native, WIDE, _shuffled(WIDE.n, 8)[:60], (4,), 1)


def test_tree_round_repeated_vertex_raises(native):
    g = generate(GenSpec("grid", {"w": 5, "h": 5}))
    seq = [0, 1, 2, 3, 2, 7, 8]
    for backend in (pure, native):
        with pytest.raises(ValueError, match="vertex 2 repeats in the sequence"):
            backend.tree_round(g, seq, 1, 1, 4, ())


def test_tree_round_empty_sequence(native):
    g = GRAPHS[4]
    assert native.tree_round(g, [], 1, 1, 2, ()) == pure.tree_round(g, [], 1, 1, 2, ())
    assert native.tree_round(g, [], 2, 3, 4, ()) == pure.tree_round(g, [], 2, 3, 4, ()) == []


def test_tree_round_edge_atom(native):
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


def test_tree_round_large_arity_falls_back(native):
    # arity 9 exceeds the compiled argument buffer; the wrapper must delegate
    g = GRAPHS[2]
    seq = list(range(min(g.n, 12)))
    assert native.tree_round(g, seq, 1, 4, 9, ()) == pure.tree_round(g, seq, 1, 4, 9, ())


def test_package_backend_selection():
    assert K.BACKEND in ("native", "pure")
    # only tree_round has a compiled twin
    assert K.eval_formula is pure.eval_formula
    assert K.nr_masks is pure.nr_masks
    assert K.eval_formula(GRAPHS[3], 0, 0, 2, (0, 1)) is True


def test_compiled_build_imports_no_numpy(native_so):
    # the compiled build's set-up time and memory rest on importing nothing
    # beyond the standard library
    code = (
        "import importlib.util, sys; "
        f"spec = importlib.util.spec_from_file_location({NATIVE!r}, {str(native_so)!r}); "
        "module = importlib.util.module_from_spec(spec); "
        f"sys.modules[{NATIVE!r}] = module; spec.loader.exec_module(module); "
        "import quasiwide.cli, quasiwide._kernels as K; "
        "print('numpy' in sys.modules, K.BACKEND)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False native\n"
