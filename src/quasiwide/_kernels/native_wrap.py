"""Bridge from Graph objects to the compiled type-tree round.

Packs adjacency once per graph (weakly cached) into bytes holding one row of
little-endian 64-bit words per vertex, and forwards type-tree rounds with
three or more free slots. Rounds with at most two free slots, and formulas
wider than the compiled argument buffer, go to the pure implementation.
"""

from __future__ import annotations

import weakref

from ..graph import Graph, adjacency_bitsets
from . import pure
from ._native import tree_round as _c_tree_round

_MAX_ARITY = 8

_rows_cache: "weakref.WeakKeyDictionary[Graph, bytes]" = weakref.WeakKeyDictionary()


def _bit_matrix(g: Graph) -> bytes:
    rows = _rows_cache.get(g)
    if rows is None:
        words = max(1, (g.n + 63) // 64)
        rows = b"".join(m.to_bytes(words * 8, "little") for m in adjacency_bitsets(g))
        _rows_cache[g] = rows
    return rows


def tree_round(g: Graph, seq, kind: int, i_split: int, arity: int, tail) -> list:
    # at most two free slots (t <= 1): the pure partition and run rounds beat
    # the compiled per-node descent
    if arity - len(tail) <= 2 or arity > _MAX_ARITY:
        return pure.tree_round(g, seq, kind, i_split, arity, tail)
    return _c_tree_round(_bit_matrix(g), g.n, seq, kind, i_split, arity, tail)
