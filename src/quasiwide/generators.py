"""Deterministic, seeded graph generators for tests and benchmarks.

Sparse families (grids, paths, cycles, stars, bounded-degree and
bounded-degeneracy random graphs) serve as positive controls; half-graphs,
cliques, and bicliques are the structured dense witnesses. Every family is a
pure function of its parameters: byte-identical edge lists across runs and
platforms.

Randomness comes from one fully specified generator so reimplementations in
other languages reproduce the same graphs. The generator is splitmix64:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output: z XOR (z >> 31)

Bounded draws use the multiply-shift map ``(u64 * bound) >> 64`` (no
rejection; the bias at 64 bits is irrelevant here and the mapping is exactly
reproducible). Reference outputs from state 0: 0xE220A8397B1DCDAF,
0x6E789E6AA1B965F4, 0x06C45D188009454F.

Vertex id layout per family (frozen; tests depend on it):
- ``grid(w, h)``: row-major, id = row * w + col, ``h`` rows of width ``w``.
- ``path(n)`` / ``cycle(n)``: natural order 0..n-1.
- ``star(p)``: center 0, leaves 1..p.
- ``stars(k, p)``: star ``i`` occupies ids ``i*(p+1)`` (center) onward.
- ``halfgraph(k)``: a-side 0..k-1, b-side k..2k-1, edge (a_i, b_j) iff i <= j.
- ``biclique(s, t)``: left 0..s-1, right s..s+t-1.
- ``clique(n)``: all pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import InputError
from .graph import Graph, build_graph

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The package-wide pseudorandom generator (see module docstring)."""

    def __init__(self, seed: int) -> None:
        if not (0 <= seed <= _MASK64):
            raise InputError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish draw from ``0..bound-1`` via multiply-shift."""
        if bound <= 0:
            raise InputError(f"bound must be positive, got {bound}")
        return (self.next_u64() * bound) >> 64


@dataclass(frozen=True)
class GenSpec:
    """A graph family plus its parameters, e.g. ``GenSpec("grid", {"w": 4, "h": 4})``."""

    family: str
    params: Mapping[str, int] = field(default_factory=dict)


def _require(params: Mapping[str, int], family: str, *names: str) -> list[int]:
    missing = [k for k in names if k not in params]
    if missing:
        raise InputError(f"{family} needs parameters {missing}")
    extra = sorted(set(params) - set(names))
    if extra:
        raise InputError(f"{family} got unknown parameters {extra}")
    values = []
    for k in names:
        v = params[k]
        if k == "seed":
            if not (0 <= v <= _MASK64):
                raise InputError(f"{family}: seed must be a 64-bit unsigned integer")
        elif v < 1:
            raise InputError(f"{family}: parameter {k} must be at least 1, got {v}")
        values.append(v)
    return values


def grid(w: int, h: int) -> Graph:
    """Width-``w``, height-``h`` grid, row-major ids; w*h vertices and
    2wh - w - h edges."""
    edges = []
    for row in range(h):
        for col in range(w):
            v = row * w + col
            if col + 1 < w:
                edges.append((v, v + 1))
            if row + 1 < h:
                edges.append((v, v + w))
    return build_graph(w * h, edges)


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(n - 1)]
    if n >= 3:
        edges.append((n - 1, 0))
    elif n == 2:
        edges = [(0, 1)]
    return build_graph(n, edges)


def star(p: int) -> Graph:
    """K_{1,p}: center 0, leaves 1..p."""
    return build_graph(p + 1, [(0, i) for i in range(1, p + 1)])


def stars(k: int, p: int) -> Graph:
    """Disjoint union of k copies of K_{1,p}."""
    edges = []
    for i in range(k):
        center = i * (p + 1)
        edges.extend((center, center + j) for j in range(1, p + 1))
    return build_graph(k * (p + 1), edges)


def halfgraph(k: int) -> Graph:
    """Bipartite ladder pattern on a_1..a_k, b_1..b_k with a_i-b_j iff i <= j."""
    edges = [(i, k + j) for i in range(k) for j in range(k) if i <= j]
    return build_graph(2 * k, edges)


def clique(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def biclique(s: int, t: int) -> Graph:
    return build_graph(s + t, [(i, s + j) for i in range(s) for j in range(t)])


def random_bounded_degree(n: int, d: int, seed: int) -> Graph:
    """Random graph with maximum degree at most ``d``.

    Draws up to 4*n*d vertex pairs and keeps those that respect the degree
    cap; the exact edge count is whatever the budget yields, deterministically
    per (n, d, seed).
    """
    rng = SplitMix64(seed)
    degree = [0] * n
    chosen: set[tuple[int, int]] = set()
    for _ in range(4 * n * d):
        u = rng.below(n)
        v = rng.below(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in chosen or degree[u] >= d or degree[v] >= d:
            continue
        chosen.add(key)
        degree[u] += 1
        degree[v] += 1
    return build_graph(n, sorted(chosen))


def random_degenerate(n: int, c: int, seed: int) -> Graph:
    """Random graph of degeneracy at most ``c``.

    Vertices arrive in id order; each new vertex attaches to min(c, existing)
    distinct uniformly drawn predecessors, so peeling in reverse arrival
    order certifies degeneracy <= c.
    """
    rng = SplitMix64(seed)
    edges = []
    for v in range(1, n):
        want = min(c, v)
        if want == v:
            picks = list(range(v))
        else:
            picked: set[int] = set()
            while len(picked) < want:
                picked.add(rng.below(v))
            picks = sorted(picked)
        edges.extend((u, v) for u in picks)
    return build_graph(n, edges)


_FAMILIES = {
    "grid": (grid, ("w", "h")),
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "star": (star, ("p",)),
    "stars": (stars, ("k", "p")),
    "random_bounded_degree": (random_bounded_degree, ("n", "d", "seed")),
    "random_degenerate": (random_degenerate, ("n", "c", "seed")),
    "halfgraph": (halfgraph, ("k",)),
    "clique": (clique, ("n",)),
    "biclique": (biclique, ("s", "t")),
}


def generate(spec: GenSpec) -> Graph:
    """Instantiate a :class:`GenSpec`; unknown families or bad parameters
    raise :class:`InputError`."""
    if spec.family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise InputError(f"unknown family {spec.family!r} (known: {known})")
    fn, names = _FAMILIES[spec.family]
    values = _require(spec.params, spec.family, *names)
    return fn(*values)
