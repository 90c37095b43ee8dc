"""Backend dispatch for the compute-heavy inner loops.

Two interchangeable implementations of the same three primitives:

- ``eval_formula(g, kind, i_split, arity, args)``: one bounded-formula
  evaluation (kind 0 = edge atom, 1 = phi, 2 = psi).
- ``tree_round(g, seq, kind, i_split, arity, tail)``: one type-tree insertion
  round; returns the longest root-to-leaf branch as a label list.
- ``nr_masks(g, r)``: closed r-ball bitmasks for every vertex.

``_native`` (Cython) is preferred when importable; ``pure`` (int-bitset
Python) is the fallback and the semantic reference. ``QUASIWIDE_FORCE_PURE=1``
pins the fallback, and ``BACKEND`` names the active choice. Even with the
compiled backend active, type-tree rounds with at most two free slots
(``arity - len(tail) <= 2``) and formulas wider than its argument buffer
run in ``pure``: there the partition and run shortcuts beat the compiled
per-node descent.

Formula semantics are pinned outside both backends by the witness scan
``logic._eval_reference``: ``tests/test_pure_kernels.py`` checks the pure
type-tree round against a per-tuple insertion loop built on it, and the pure
masks against ``graph.bfs_limited``; ``tests/test_backend_parity.py`` then
holds the compiled twin to the pure one.
"""

from __future__ import annotations

import os

if os.environ.get("QUASIWIDE_FORCE_PURE") == "1":
    from . import pure as impl

    BACKEND = "pure"
else:
    try:
        from . import native_wrap as impl  # type: ignore[no-redef]

        BACKEND = "native"
    except ImportError:
        from . import pure as impl  # type: ignore[no-redef]

        BACKEND = "pure"

eval_formula = impl.eval_formula
tree_round = impl.tree_round
nr_masks = impl.nr_masks

__all__ = ["BACKEND", "eval_formula", "tree_round", "nr_masks"]
