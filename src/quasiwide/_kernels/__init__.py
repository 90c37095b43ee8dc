"""Backend dispatch for the compute-heavy inner loops.

Three primitives, all implemented in ``pure`` (int-bitset Python), which is
also their semantic reference:

- ``eval_formula(g, kind, i_split, arity, args)``: one bounded-formula
  evaluation (kind 0 = edge atom, 1 = phi, 2 = psi).
- ``tree_round(g, seq, kind, i_split, arity, tail)``: one type-tree insertion
  round; returns the longest root-to-leaf branch as a label list.
- ``nr_masks(g, r)``: closed r-ball bitmasks for every vertex.

``tree_round`` alone has a compiled twin, the hand-written C extension
``_native`` (CPython API only, no build-time or runtime dependencies). When
it imports, every round goes through ``native_wrap.tree_round`` and
``BACKEND`` is "native"; otherwise through ``pure.tree_round``, and
``BACKEND`` is "pure". Which round shapes run compiled is stated in
``native_wrap``; how pure runs each shape, and which rounds resume a stored
tree, in ``pure``.

Formula semantics are pinned outside both backends by the witness scan
``logic._eval_reference``: ``tests/test_pure_kernels.py`` checks the pure
type-tree round against a per-tuple insertion loop built on it, and the pure
masks against ``graph.bfs_limited``; ``tests/test_backend_parity.py`` then
holds the compiled round to the pure one.
"""

from __future__ import annotations

from . import pure

eval_formula = pure.eval_formula
nr_masks = pure.nr_masks

try:
    from .native_wrap import tree_round

    BACKEND = "native"
except ImportError:
    tree_round = pure.tree_round
    BACKEND = "pure"

__all__ = ["BACKEND", "eval_formula", "tree_round", "nr_masks"]
