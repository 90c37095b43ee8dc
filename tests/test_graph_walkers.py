"""Layered walkers, half-radius independence checks and the lazy peel,
each against the straightforward code it replaced.

The references are a deque BFS with a distance dict (``bfs_limited`` and
``distances_from``), one full-radius BFS per member (``is_r_independent``),
one full-radius BFS per candidate (``uqw._prune_spread``), a stack DFS
inside the vertex set (``induced_connected``) and the lazy-heap
minimum-degree peel that ``build_graph`` used to run on every graph and
``Graph.c`` ran until its bucket queue.
"""

import heapq
import json
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_graphs import seeded_graphs
from quasiwide import graph
from quasiwide.cli import main
from quasiwide.errors import InputError
from quasiwide.generators import GenSpec, generate
from quasiwide.graph import (
    adjacent,
    bfs_limited,
    build_graph,
    contract_balls,
    distance_vector,
    distance_vectors,
    distances_from,
    induced_connected,
    is_r_independent,
)
from quasiwide.io import save_graph
from quasiwide.kernelize import CoreConfig, kernel_pipeline
from quasiwide.uqw import _prune_spread

RADII = range(6)


def reference_distances(g, sources, depth, forbidden=frozenset()):
    dist = {s: 0 for s in sorted(set(sources))}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du == depth:
            continue
        for w in g.adj[u]:
            if w not in dist and w not in forbidden:
                dist[w] = du + 1
                queue.append(w)
    return dist


def reference_is_r_independent(g, vertices, r, forbidden=frozenset()):
    member = set(vertices)
    for v in sorted(member):
        reached = set(reference_distances(g, [v], r, forbidden))
        reached.discard(v)
        if reached & member:
            return False
    return True


def reference_prune_spread(g, seq, dist, forbidden):
    kept = []
    for v in seq:
        reach = set(reference_distances(g, [v], dist, forbidden))
        if reach.isdisjoint(kept):
            kept.append(v)
    return kept


def reference_induced_connected(g, vertices):
    vs = set(vertices)
    if len(vs) <= 1:
        return True
    start = min(vs)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


def reference_peel(g):
    degree = [len(a) for a in g.adj]
    heap = [(degree[v], v) for v in range(g.n)]
    heapq.heapify(heap)
    removed = [False] * g.n
    c = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != degree[v]:
            continue
        removed[v] = True
        c = max(c, d)
        for u in g.adj[v]:
            if not removed[u]:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    return c


def _graphs():
    """The seeded kernel graphs plus two disconnected ones."""
    return seeded_graphs() + [
        build_graph(9, [(0, 1), (1, 2), (4, 5), (6, 7), (7, 8), (8, 6)]),
        build_graph(5, []),
    ]


def _forbidden_sets(g, rng, keep):
    """Forbidden sets avoiding ``keep``: none, a random one, and the
    neighbours of ``keep``, which cut every path out of it."""
    others = [v for v in range(g.n) if v not in keep]
    cut = {w for v in keep for w in g.adj[v]} - set(keep)
    return [
        frozenset(),
        frozenset(rng.sample(others, len(others) // 4)),
        frozenset(cut),
    ]


def test_bfs_and_distances_match_deque_bfs():
    rng = random.Random(1)
    for g in _graphs():
        for _ in range(6):
            sources = rng.sample(range(g.n), rng.randint(1, min(3, g.n)))
            for forbidden in _forbidden_sets(g, rng, sources):
                for depth in RADII:
                    want = reference_distances(g, sources, depth, forbidden)
                    got = bfs_limited(g, sources, depth, forbidden=forbidden)
                    assert got == set(want)
                    d = distances_from(g, sources[0], depth, forbidden=forbidden)
                    ref = reference_distances(g, sources[:1], depth, forbidden)
                    # same distances, listed in the same BFS order
                    assert list(d.items()) == list(ref.items())
        with pytest.raises(InputError, match="cap must be non-negative"):
            distances_from(g, rng.randrange(g.n), -1)


def test_distance_vectors_match_deque_bfs():
    rng = random.Random(2)
    for g in _graphs():
        targets = rng.sample(range(g.n), min(4, g.n))
        for cap in RADII:
            maps = [reference_distances(g, [t], cap) for t in targets]
            want = {v: tuple(m.get(v, graph.INF) for m in maps) for v in range(g.n)}
            assert distance_vectors(g, range(g.n), targets, cap) == want
            for v in range(0, g.n, 5):
                assert distance_vector(g, v, targets, cap) == want[v]


def test_is_r_independent_matches_per_member_walks():
    rng = random.Random(3)
    for g in _graphs():
        for _ in range(8):
            members = rng.sample(range(g.n), rng.randint(0, min(6, g.n)))
            for forbidden in _forbidden_sets(g, rng, members):
                for r in RADII:
                    want = reference_is_r_independent(g, members, r, forbidden)
                    assert is_r_independent(g, members, r, forbidden) == want, (
                        g.n, members, r, sorted(forbidden))


def test_is_r_independent_both_parities_on_a_path():
    g = build_graph(11, [(i, i + 1) for i in range(10)])
    for d in range(1, 11):
        for r in RADII:
            assert is_r_independent(g, [0, d], r) == (d > r)
    for d in range(2, 11):
        # deleting vertex 1 cuts 0 off from the rest of the path
        assert is_r_independent(g, [0, d], 5, frozenset({1}))


def test_contract_balls_overlap_iff_centers_within_twice_depth():
    rng = random.Random(4)
    for g in _graphs():
        for _ in range(6):
            centers = rng.sample(range(g.n), rng.randint(1, min(5, g.n)))
            for avoid in _forbidden_sets(g, rng, centers):
                for depth in range(4):
                    apart = reference_is_r_independent(g, centers, 2 * depth, avoid)
                    if apart:
                        con = contract_balls(g, centers, depth, avoid)
                        assert len(con.centers) == len(centers)
                    else:
                        with pytest.raises(InputError, match="overlap at vertex"):
                            contract_balls(g, centers, depth, avoid)


def test_prune_spread_matches_per_candidate_walks():
    rng = random.Random(5)
    for g in _graphs():
        for _ in range(4):
            seq = rng.sample(range(g.n), g.n)
            for forbidden in _forbidden_sets(g, rng, seq[:1]):
                rest = [v for v in seq if v not in forbidden]
                for dist in RADII:
                    want = reference_prune_spread(g, rest, dist, forbidden)
                    assert _prune_spread(g, rest, dist, forbidden) == want


def test_induced_connected_matches_stack_dfs():
    rng = random.Random(6)
    for g in _graphs():
        for size in range(g.n + 1):
            members = rng.sample(range(g.n), size)
            want = reference_induced_connected(g, members)
            assert induced_connected(g, members) == want, (g.n, members)
            ball = bfs_limited(g, members[:1], 2) if members else set()
            assert induced_connected(g, ball) == reference_induced_connected(g, ball)
    g = build_graph(9, [(0, 1), (1, 2), (4, 5), (6, 7), (7, 8), (8, 6)])
    assert induced_connected(g, []) and induced_connected(g, [3])
    assert induced_connected(g, [6, 7, 8]) and induced_connected(g, [0, 1, 2])
    assert not induced_connected(g, [0, 1, 4, 5]) and not induced_connected(g, [0, 2])


def test_walker_error_cases():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    for r in (2, 3):
        with pytest.raises(InputError, match="outside"):
            is_r_independent(g, [0, 4], r)
        with pytest.raises(InputError, match="outside"):
            is_r_independent(g, [-1, 2], r)
        with pytest.raises(InputError, match="forbidden set"):
            is_r_independent(g, [0, 2], r, frozenset({2}))
    with pytest.raises(InputError, match="radius must be non-negative"):
        is_r_independent(g, [0, 2], -2)
    with pytest.raises(InputError, match="depth must be non-negative"):
        bfs_limited(g, [0], -1)
    with pytest.raises(InputError, match="outside"):
        bfs_limited(g, [4], 1)
    with pytest.raises(InputError, match="outside"):
        distances_from(g, 4, 1)
    with pytest.raises(InputError, match="forbidden set"):
        distances_from(g, 1, 1, forbidden=frozenset({1}))
    with pytest.raises(InputError, match="cap must be non-negative"):
        distance_vector(g, 0, [1], -1)


@st.composite
def walk_case(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    g = build_graph(n, [(u, v) for u, v in edges if u != v])
    members = draw(st.lists(vertex, min_size=1, max_size=5, unique=True))
    forbidden = frozenset(draw(st.lists(vertex, max_size=6))) - set(members)
    return g, members, forbidden, draw(st.integers(min_value=0, max_value=5))


@settings(max_examples=150, deadline=None)
@given(walk_case())
def test_walkers_match_references_on_random_graphs(case):
    g, members, forbidden, r = case
    assert bfs_limited(g, members, r, forbidden=forbidden) == set(
        reference_distances(g, members, r, forbidden))
    assert is_r_independent(g, members, r, forbidden) == reference_is_r_independent(
        g, members, r, forbidden)
    seq = [v for v in range(g.n) if v not in forbidden]
    assert _prune_spread(g, seq, r, forbidden) == reference_prune_spread(
        g, seq, r, forbidden)
    assert induced_connected(g, seq) == reference_induced_connected(g, seq)


def test_lazy_peel_matches_eager_peel():
    for g in _graphs() + [build_graph(0, [])]:
        assert g.c == reference_peel(g)
        for u, v in g.edges():
            assert adjacent(g, u, v)


@st.composite
def peel_case(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    if n == 0:
        return build_graph(0, [])
    vertex = st.integers(min_value=0, max_value=n - 1)
    return build_graph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=150)))


@settings(max_examples=300, deadline=None)
@given(peel_case())
def test_bucket_peel_matches_heap_peel(g):
    assert graph._peel(g.n, g.adj) == reference_peel(g)


@pytest.fixture()
def peel_calls(monkeypatch):
    calls = []
    real = graph._peel

    def counting(n, adj):
        calls.append(n)
        return real(n, adj)

    monkeypatch.setattr(graph, "_peel", counting)
    return calls


def test_peel_runs_once_and_only_on_read(peel_calls):
    g = generate(GenSpec("grid", {"w": 4, "h": 3}))
    assert peel_calls == []
    assert (g.c, g.c) == (2, 2)
    assert peel_calls == [12]


def test_kernelize_never_peels(peel_calls):
    g = generate(GenSpec("grid", {"w": 40, "h": 6}))
    ki = kernel_pipeline(g, CoreConfig(r=1, k=2, ell=16))[2]
    path = generate(GenSpec("path", {"n": 20}))
    ki2 = kernel_pipeline(path, CoreConfig(r=2, k=4, ell=16))[2]
    assert ki.graph.n > 0 and ki2.graph.n > 0
    assert peel_calls == []


def test_cli_report_degeneracy_unchanged(peel_calls, tmp_path, capsys):
    g = generate(GenSpec("grid", {"w": 40, "h": 6}))
    save_graph(g, tmp_path / "g.el")
    code = main([
        "kernelize", "--graph", str(tmp_path / "g.el"), "--r", "1", "--k", "2",
        "--ell", "16", "--out", str(tmp_path / "g.kern"), "--deterministic",
    ])
    assert code in (0, 3)
    doc = json.loads(capsys.readouterr().out)
    assert doc["input"]["degeneracy"] == reference_peel(g) == 2
    # only the reported input graph is peeled
    assert peel_calls == [g.n]
