"""Bridge from Graph objects to the compiled kernels.

Packs adjacency into a row-per-vertex uint64 bitset matrix once per graph
(weakly cached) and forwards calls. Formulas wider than the compiled
argument buffer, and type-tree rounds with at most two free slots, go to
the pure implementation.
"""

from __future__ import annotations

import weakref

# The extension comes first: without it the import fails here, before numpy
# is loaded, and a pure run never pays for numpy.
from ._native import eval_formula as _c_eval
from ._native import nr_masks as _c_nr_masks
from ._native import tree_round as _c_tree_round

import numpy as np

from ..graph import Graph, adjacency_bitsets, csr_arrays
from . import pure

_MAX_ARITY = 8

_bits_cache: "weakref.WeakKeyDictionary[Graph, np.ndarray]" = weakref.WeakKeyDictionary()


def _bit_matrix(g: Graph) -> np.ndarray:
    mat = _bits_cache.get(g)
    if mat is None:
        words = max(1, (g.n + 63) // 64)
        raw = b"".join(m.to_bytes(words * 8, "little") for m in adjacency_bitsets(g))
        mat = np.frombuffer(raw, dtype=np.uint64).reshape(g.n, words).copy()
        _bits_cache[g] = mat
    return mat


def eval_formula(g: Graph, kind: int, i_split: int, arity: int, args) -> bool:
    if arity > _MAX_ARITY:
        return pure.eval_formula(g, kind, i_split, arity, args)
    return _c_eval(_bit_matrix(g), g.n, kind, i_split, arity, args)


def tree_round(g: Graph, seq, kind: int, i_split: int, arity: int, tail) -> list:
    # at most two free slots (t <= 1): the pure partition and run rounds beat
    # the compiled per-node descent
    if arity - len(tail) <= 2 or arity > _MAX_ARITY:
        return pure.tree_round(g, seq, kind, i_split, arity, tail)
    return _c_tree_round(_bit_matrix(g), g.n, list(seq), kind, i_split, arity, list(tail))


def nr_masks(g: Graph, r: int) -> list:
    indptr, indices = csr_arrays(g)
    return _c_nr_masks(indptr, indices, g.n, r)
