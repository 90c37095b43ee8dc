"""Wide-set splitter: trade a small deletion set for an r-independent set.

Given a vertex set A and a radius r, :func:`uqw_split` computes a small set S
and a subset B of A that is r-independent in G - S. It runs one loop of
ceil(r/2) rounds. Round i extracts a long indiscernible sequence, moves
vertices adjacent to more than half of it (``THETA``) into S unless it has
fewer than two elements, and thins the survivors to pairwise distance > 2i
in G - S. Round i + 1 then extracts on the graph that contracts radius-i
balls around those survivors, so it sees one vertex per ball. Round 1 is
the uncontracted case: it extracts on G itself from A. After the last round
the survivors are pairwise more than r apart in G - S. :class:`UqwConfig`
sets the two parameters that vary: the budget for |S| and the arity of the
formula family every round extracts with.

The splitter refuses dense inputs: when S outgrows its budget the offending
extraction sequence is returned inside a :class:`~quasiwide.errors.DensityError`
as a certificate instead of a result.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .check import uqw_verify  # re-exported: the split's recheck
from .errors import ConfigError, DensityError, InputError
from .graph import Graph, bfs_limited, check_vertices, contract_balls
from .logic import delta_k, extract_indiscernible

_log = logging.getLogger(__name__)


# A vertex adjacent to more than this fraction of an extracted sequence
# moves into S.
THETA = 0.5


@dataclass(frozen=True)
class UqwConfig:
    """Splitter knobs: ``s_max`` bounds |S|, and every round extracts with
    the formula family of arity ``delta_k``. The round count is always
    ceil(r/2)."""

    s_max: int = 16
    delta_k: int = 4

    def __post_init__(self) -> None:
        if self.s_max < 0:
            raise ConfigError(f"s_max must be non-negative, got {self.s_max}")
        if self.delta_k < 0:
            raise ConfigError(f"delta_k must be non-negative, got {self.delta_k}")


@dataclass(frozen=True)
class RoundLog:
    """One splitter round: sequence length fed to / returned by the
    extraction, the vertices added to S, the pruned survivor set, and the
    size of the graph the extraction ran on."""

    round: int
    len_before: int
    len_after: int
    s_added: tuple[int, ...]
    survivors: tuple[int, ...]
    contracted_size: int


@dataclass(frozen=True)
class UqwResult:
    S: frozenset[int]
    B: tuple[int, ...]
    rounds: tuple[RoundLog, ...]


def _high_adjacency(g: Graph, targets: Sequence[int]) -> set[int]:
    """Vertices adjacent to more than ``THETA * len(targets)`` of targets."""
    counts: dict[int, int] = {}
    for t in targets:
        for u in g.adj[t]:
            counts[u] = counts.get(u, 0) + 1
    bound = THETA * len(targets)
    return {u for u, c in counts.items() if c > bound}


def _prune_spread(g: Graph, seq: Iterable[int], dist: int, forbidden: frozenset[int]) -> list[int]:
    """Greedy thinning in sequence order: keep an element iff every earlier
    kept element is more than ``dist`` away in G - forbidden.

    Half-radius rule: with ``near = dist // 2`` and ``far = dist - near``,
    an element is kept iff its far-ball misses the union of the kept
    elements' near-balls, all in G - forbidden. That is exact: a path of
    length at most ``dist`` has a vertex within ``near`` of one end and
    ``far`` of the other (its midpoint when ``dist`` is even), and a vertex
    in both balls gives such a path. The splitter only passes even ``dist``,
    so one ball per element serves both roles.
    """
    near = dist // 2
    far = dist - near
    kept: list[int] = []
    covered: set[int] = set()
    for v in seq:
        ball = bfs_limited(g, [v], far, forbidden=forbidden)
        if ball.isdisjoint(covered):
            kept.append(v)
            covered |= ball if far == near else bfs_limited(g, [v], near, forbidden=forbidden)
    return kept


def _independent_subsequence(h: Graph, seq: Sequence[int]) -> list[int]:
    """An independent subsequence of ``seq`` in ``h``, via edge-atom
    extraction; if that lands on the clique side of the dichotomy, fall back
    to greedy non-adjacent selection in sequence order."""
    ext = extract_indiscernible(h, list(seq), delta_k(0), len(seq))
    if len(ext) >= 2 and ext[1] in h.adj[ext[0]]:
        kept: list[int] = []
        for v in seq:
            if all(u not in h.adj[v] for u in kept):
                kept.append(v)
        return kept
    return ext


def uqw_split(
    g: Graph, A: Sequence[int], r: int, m: int, cfg: UqwConfig | None = None
) -> UqwResult:
    """Split A into deletions S and an r-independent-in-(G - S) subset B.

    B is a subset of A, disjoint from S, truncated to at most ``m`` elements
    only at the very end; ``m`` changes nothing else, so the split for ``m``
    is the split for ``len(A)`` with B cut to ``m``. Raises
    :class:`DensityError` when S would exceed ``cfg.s_max``, carrying the
    extraction sequence that witnessed the density.
    """
    if cfg is None:
        cfg = UqwConfig()
    if r < 1:
        raise InputError(f"radius must be positive, got {r}")
    if m < 1:
        raise InputError(f"target size must be positive, got {m}")
    a_list = list(A)
    a_sorted = sorted(set(a_list))
    if not a_sorted:
        raise InputError("A must be non-empty")
    if len(a_sorted) != len(a_list):
        raise InputError("A must not contain duplicates")
    check_vertices(g, a_sorted)

    delta = delta_k(cfg.delta_k)
    logs: list[RoundLog] = []
    z: set[int] = set()
    b: list[int] = []
    # Round 1 extracts on G itself: no vertex is a ball and each stands for
    # itself. Later rounds extract on a ball contraction of G - S.
    h, seq, base, is_ball = g, a_sorted, (lambda v: v), (lambda v: False)
    for i in range(1, math.ceil(r / 2) + 1):
        if i > 1:
            if not b:
                break
            # Thin the survivors on a ball-contracted graph so only pairwise
            # distant centers remain, then extract on the rebuilt contraction.
            con = contract_balls(g, b, i - 1, avoid=frozenset(z))
            chosen = _independent_subsequence(con.graph, range(len(con.centers)))
            con = contract_balls(g, [con.centers[c] for c in chosen], i - 1, avoid=frozenset(z))
            h, seq, base, is_ball = con.graph, list(range(len(con.centers))), con.base, con.is_ball

        extracted = extract_indiscernible(h, seq, delta, m)
        # A single extracted vertex witnesses no density: each of its
        # neighbours is adjacent to all of the extraction. Such a round
        # deletes nothing.
        s_new = (
            {base(u) for u in _high_adjacency(h, extracted) if not is_ball(u)}
            if len(extracted) >= 2
            else set()
        )
        cert = [base(u) for u in extracted]
        z_next = z | s_new
        if len(z_next) > cfg.s_max:
            raise DensityError(
                f"deletion set would reach {len(z_next)} > s_max={cfg.s_max} in round {i}",
                certificate=cert,
                candidates=z_next,
                rounds=logs,
            )
        z = z_next
        b = _prune_spread(g, (v for v in cert if v not in z), 2 * i, frozenset(z))
        logs.append(
            RoundLog(
                round=i,
                len_before=len(seq),
                len_after=len(extracted),
                s_added=tuple(sorted(s_new)),
                survivors=tuple(b),
                contracted_size=h.n,
            )
        )
        _log.debug(
            "round %d: |A|=%d extracted=%d |S|=%d |B|=%d", i, len(seq), len(extracted), len(z), len(b)
        )

    return UqwResult(S=frozenset(z), B=tuple(b[:m]), rounds=tuple(logs))


__all__ = [
    "UqwConfig",
    "RoundLog",
    "UqwResult",
    "uqw_split",
    "uqw_verify",
]
