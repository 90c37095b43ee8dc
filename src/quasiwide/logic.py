"""Bounded formula family, indiscernibility oracle, and subsequence extraction.

The formula family over a graph, parameterized by an arity ``k``, consists of
the edge atom plus two mirrored families of single-quantifier formulas:

    phi_i(x_1..x_k): some vertex y is adjacent to x_1..x_i and non-adjacent
                     to x_{i+1}..x_k
    psi_i(x_1..x_k): some vertex y is adjacent to x_{i+1}..x_k and
                     non-adjacent to x_1..x_i

Adjacency here is the open edge relation: no vertex is adjacent to itself,
and the witness ``y`` ranges over all vertices. A formula set is a plain
tuple of :class:`FormulaId`; :func:`delta_k` builds the standard one.

A sequence is indiscernible for a formula set when every formula evaluates
identically on all increasing argument tuples drawn from it.
:func:`is_indiscernible` checks this by brute force (the test oracle, written
against plain adjacency sets on purpose, independent of the bitset
evaluation backends). :func:`extract_indiscernible` computes an indiscernible
subsequence via type trees: for each formula of arity k it runs k rounds,
round m fixing the last m elements as parameters, inserting the rest into a
fresh tree where siblings realise distinct evaluation signatures over their
root path, and keeping the longest branch plus the fixed tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import combinations
from typing import Sequence

from . import _kernels
from .errors import InputError
from .graph import Graph, adjacency_bitsets, check_vertices


class FormulaKind(IntEnum):
    EDGE = 0
    PHI = 1
    PSI = 2


@dataclass(frozen=True, order=True)
class FormulaId:
    """One formula: the edge atom (arity 2, no split) or phi_i/psi_i of
    arity ``k`` with split index ``1 <= i <= k``."""

    kind: FormulaKind
    i: int
    k: int

    def __post_init__(self) -> None:
        if self.kind == FormulaKind.EDGE:
            if self.k != 2 or self.i != 0:
                raise InputError("the edge atom has arity 2 and no split index")
        else:
            if not (1 <= self.i <= self.k):
                raise InputError(
                    f"split index must satisfy 1 <= i <= k, got i={self.i}, k={self.k}"
                )

    def describe(self) -> str:
        if self.kind == FormulaKind.EDGE:
            return "E"
        name = "phi" if self.kind == FormulaKind.PHI else "psi"
        return f"{name}_{self.i}^{self.k}"


EDGE_FORMULA = FormulaId(FormulaKind.EDGE, 0, 2)


def delta_k(k: int) -> tuple[FormulaId, ...]:
    """The standard family: edge atom, then phi_1..phi_k, then psi_1..psi_k.

    ``k = 0`` gives the edge atom alone.
    """
    if k < 0:
        raise InputError(f"arity parameter must be non-negative, got {k}")
    formulas = [EDGE_FORMULA]
    formulas.extend(FormulaId(FormulaKind.PHI, i, k) for i in range(1, k + 1))
    formulas.extend(FormulaId(FormulaKind.PSI, i, k) for i in range(1, k + 1))
    return tuple(formulas)


def eval_formula(g: Graph, f: FormulaId, args: Sequence[int]) -> bool:
    """Evaluate ``f`` on the argument tuple (length must equal ``f.k``).

    Evaluation intersects the neighbor sets of the positive literals,
    smallest first, and falls back to a full-universe scan when the positive
    side is empty (psi_k). Arguments need not be distinct.
    """
    if len(args) != f.k:
        raise InputError(f"{f.describe()} expects {f.k} arguments, got {len(args)}")
    check_vertices(g, args)
    return _kernels.eval_formula(g, int(f.kind), f.i, f.k, tuple(args))


def _eval_reference(adjsets: list[set[int]], n: int, f: FormulaId, args: Sequence[int]) -> bool:
    """Witness-scan evaluation on plain sets; the oracle's own evaluator."""
    if f.kind == FormulaKind.EDGE:
        return args[1] in adjsets[args[0]]
    if f.kind == FormulaKind.PHI:
        pos, neg = args[: f.i], args[f.i :]
    else:
        pos, neg = args[f.i :], args[: f.i]
    for y in range(n):
        if all(y in adjsets[x] for x in pos) and not any(y in adjsets[x] for x in neg):
            return True
    return False


def is_indiscernible(g: Graph, seq: Sequence[int], delta: Sequence[FormulaId]) -> bool:
    """Brute-force oracle: every formula agrees on all increasing tuples.

    Sequences shorter than a formula's arity are vacuously fine for it; a
    single-element sequence is always indiscernible. Duplicate elements are
    rejected.
    """
    seq = list(seq)
    if not seq:
        raise InputError("sequence must be non-empty")
    if len(set(seq)) != len(seq):
        raise InputError("sequence elements must be distinct")
    check_vertices(g, seq)
    adjsets = [set(a) for a in g.adj]
    for f in delta:
        if len(seq) < f.k:
            continue
        reference: bool | None = None
        for tup in combinations(seq, f.k):
            value = _eval_reference(adjsets, g.n, f, tup)
            if reference is None:
                reference = value
            elif value != reference:
                return False
    return True


def extract_indiscernible(
    g: Graph, seq: Sequence[int], delta: Sequence[FormulaId], m: int
) -> list[int]:
    """Extract an indiscernible subsequence via type-tree refinement.

    Formulas are processed in ``delta`` order (a subsequence stays
    indiscernible for already-processed formulas). A formula of arity k gets
    k rounds; round m fixes the current last m elements, inserts the prefix
    into a fresh tree, and the working sequence becomes the longest branch
    followed by that tail. Sequences no longer than a formula's arity are
    left alone by it (at most one tuple exists).

    ``m`` is the caller's target length: the result may be shorter and the
    caller decides what that means; an already-indiscernible input comes back
    unchanged.
    """
    if m < 1:
        raise InputError(f"target length must be positive, got {m}")
    cur = list(seq)
    if len(set(cur)) != len(cur):
        raise InputError("sequence elements must be distinct")
    check_vertices(g, cur)
    for f in delta:
        if len(cur) <= f.k:
            continue
        for fixed in range(f.k):
            if len(cur) <= f.k:
                break
            cut = len(cur) - fixed
            prefix, tail = cur[:cut], cur[cut:]
            branch = _kernels.tree_round(g, prefix, int(f.kind), f.i, f.k, tail)
            cur = branch + tail
    return cur


def ladder_index(g: Graph, max_k: int) -> int:
    """Largest k <= max_k admitting rows v_1..v_k, w_1..w_k with
    edge(v_i, w_j) iff i <= j.

    Exhaustive search with incremental constraint filtering; exponential in
    the worst case and meant for diagnostic use on small graphs. The two rows
    may share vertices; within a row they are necessarily distinct.
    """
    if max_k < 1:
        raise InputError(f"max_k must be positive, got {max_k}")
    bits = adjacency_bitsets(g)
    n = g.n
    best = 0

    def dfs(t: int, v_mask: int, w_mask: int) -> bool:
        # v_mask / w_mask: singleton bits of the t placed v's resp. w's.
        nonlocal best
        best = max(best, t)
        if t == max_k:
            return True
        for v in range(n):
            if (v_mask >> v) & 1 or bits[v] & w_mask:
                continue  # placed, or adjacent to an earlier w
            need = v_mask | (1 << v)
            for w in range(n):
                if (w_mask >> w) & 1 or bits[w] & need != need:
                    continue  # placed, or not adjacent to every v so far
                if dfs(t + 1, need, w_mask | (1 << w)):
                    return True
        return False

    dfs(0, 0, 0)
    return best
