"""Bridge from Graph objects to the compiled type-tree round.

Packs adjacency into a row-per-vertex uint64 bitset matrix once per graph
(weakly cached) and forwards type-tree rounds with three or more free slots.
Rounds with at most two free slots, and formulas wider than the compiled
argument buffer, go to the pure implementation.
"""

from __future__ import annotations

import weakref

# The extension comes first: without it the import fails here, before numpy
# is loaded, and a pure run never pays for numpy.
from ._native import tree_round as _c_tree_round

import numpy as np

from ..graph import Graph, adjacency_bitsets
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


def tree_round(g: Graph, seq, kind: int, i_split: int, arity: int, tail) -> list:
    # at most two free slots (t <= 1): the pure partition and run rounds beat
    # the compiled per-node descent
    if arity - len(tail) <= 2 or arity > _MAX_ARITY:
        return pure.tree_round(g, seq, kind, i_split, arity, tail)
    return _c_tree_round(_bit_matrix(g), g.n, list(seq), kind, i_split, arity, list(tail))
