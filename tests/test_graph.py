"""Graph container, traversals, and ball contraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiwide.errors import InputError
from quasiwide.graph import (
    INF,
    adjacency_bitsets,
    adjacent,
    bfs_limited,
    build_graph,
    contract_balls,
    distance_vector,
    distances_from,
    is_r_independent,
)


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def test_build_counts_and_degrees():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 1)])
    assert g.n == 4
    assert g.m == 3
    assert g.degree(1) == 2
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_build_drops_self_loops():
    g = build_graph(3, [(0, 0), (0, 1)])
    assert g.m == 1
    assert not adjacent(g, 0, 0)


def test_build_rejects_bad_endpoints():
    with pytest.raises(InputError):
        build_graph(3, [(0, 3)])
    with pytest.raises(InputError):
        build_graph(2, [(-1, 0)])


def test_adjacency_is_symmetric_and_sorted():
    g = build_graph(5, [(3, 1), (4, 0), (1, 0)])
    assert adjacent(g, 1, 3) and adjacent(g, 3, 1)
    for v in range(g.n):
        assert list(g.adj[v]) == sorted(g.adj[v])


def test_degeneracy_known_families():
    assert path_graph(6).c == 1
    cycle = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert cycle.c == 2
    k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert k5.c == 4
    assert build_graph(3, []).c == 0


def test_bfs_limited_depth_and_forbidden():
    g = path_graph(6)
    assert bfs_limited(g, [0], 2) == {0, 1, 2}
    assert bfs_limited(g, [0, 5], 1) == {0, 1, 4, 5}
    assert bfs_limited(g, [0], 5, forbidden=frozenset({2})) == {0, 1}


def test_bfs_limited_rejects_bad_sources():
    g = path_graph(3)
    with pytest.raises(InputError):
        bfs_limited(g, [], 1)
    with pytest.raises(InputError):
        bfs_limited(g, [0], 1, forbidden=frozenset({0}))


def test_distances_from_caps():
    g = path_graph(8)
    d = distances_from(g, 0, 3)
    assert d == {0: 0, 1: 1, 2: 2, 3: 3}
    d2 = distances_from(g, 4, 10, forbidden=frozenset({2}))
    assert 1 not in d2 and d2[7] == 3


def test_distance_vector_uses_inf():
    g = build_graph(5, [(0, 1), (2, 3)])
    vec = distance_vector(g, 0, [1, 3, 4], 2)
    assert vec == (1, INF, INF)


def test_is_r_independent():
    g = path_graph(7)
    assert is_r_independent(g, [0, 4], 3)
    assert not is_r_independent(g, [0, 3], 3)
    assert is_r_independent(g, [0], 5)
    assert is_r_independent(g, [], 5)
    # removing the middle vertex disconnects the endpoints
    assert is_r_independent(g, [0, 6], 6, frozenset({3}))
    with pytest.raises(InputError):
        is_r_independent(g, [0, 3], 2, frozenset({3}))


def test_contract_balls_path():
    g = path_graph(5)
    con = contract_balls(g, [0, 4], 1, frozenset())
    assert con.centers == (0, 4)
    assert con.singletons == (2,)
    assert con.graph.n == 3
    # ball(0)-2 and ball(4)-2 are the only minor edges
    assert sorted(con.graph.edges()) == [(0, 2), (1, 2)]
    assert con.base(0) == 0 and con.base(2) == 2
    assert con.is_ball(1) and not con.is_ball(2)
    # 1 and 3 joined the balls of 0 and 4: their edges to 2 are the minor's
    assert [con.base(h) for h in range(con.graph.n)] == [0, 4, 2]
    assert con.graph.adj[0] == con.graph.adj[1] == (2,)


def test_contract_balls_overlap_rejected():
    g = path_graph(5)
    with pytest.raises(InputError):
        contract_balls(g, [0, 2], 1, frozenset())


def test_contract_balls_avoid_dropped():
    g = path_graph(5)
    con = contract_balls(g, [0, 4], 2, frozenset({2}))
    # no H-vertex stands for the avoided vertex 2
    assert [con.base(h) for h in range(con.graph.n)] == [0, 4]
    assert con.graph.n == 2
    assert con.graph.m == 0


def test_adjacency_bitsets_match_adj():
    g = build_graph(6, [(0, 1), (0, 2), (3, 5), (4, 5)])
    bits = adjacency_bitsets(g)
    for v in range(g.n):
        row = [u for u in range(g.n) if bits[v] >> u & 1]
        assert row == list(g.adj[v])


@st.composite
def random_graph(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    edges = draw(st.lists(pairs, max_size=60))
    return build_graph(n, [(u, v) for u, v in edges if u != v])


def k_core(g, k):
    """The vertices left after repeatedly removing those of degree < k."""
    alive = set(range(g.n))
    while True:
        low = {v for v in alive if sum(u in alive for u in g.adj[v]) < k}
        if not low:
            return alive
        alive -= low


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_degeneracy_is_largest_nonempty_core(g):
    """c is the largest k whose k-core is non-empty."""
    assert g.c == max(k for k in range(g.n) if k_core(g, k))


@settings(max_examples=40, deadline=None)
@given(random_graph(), st.integers(min_value=0, max_value=4))
def test_bfs_matches_distance_map(g, depth):
    reach = bfs_limited(g, [0], depth)
    dist = distances_from(g, 0, g.n)
    assert reach == {v for v, d in dist.items() if d <= depth}
