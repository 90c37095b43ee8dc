"""Exact solvers: distance domination, Steiner trees, connected domination.

Each solver is pitted against an inline brute-force oracle on seeded small
graphs; the named fixtures (paths, cycles, cliques) have answers small
enough to verify by eye and are frozen here.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiwide import solvers
from quasiwide.errors import ConfigError, DensityError, InfeasibleError, InputError
from quasiwide.generators import GenSpec, generate
from quasiwide.graph import build_graph, distances_from
from quasiwide.solvers import (
    SteinerInstance,
    brute_cds,
    cds_fpt,
    dreyfus_wagner,
    exact_drds,
)
from quasiwide.uqw import UqwConfig


def path_graph(n):
    return generate(GenSpec("path", {"n": n}))


def cycle_graph(n):
    return generate(GenSpec("cycle", {"n": n}))


def r_dominates_all(g, X, r):
    covered = set()
    for x in X:
        covered |= set(distances_from(g, x, r))
    return covered == set(range(g.n))


def brute_drds_size(g, r):
    for size in range(g.n + 1):
        for X in itertools.combinations(range(g.n), size):
            if r_dominates_all(g, X, r):
                return size
    return g.n


# --- distance-r dominating set ---------------------------------------------


def test_drds_path_frozen():
    p5 = path_graph(5)
    assert exact_drds(p5, 2, 1) == {2}
    assert exact_drds(p5, 1, 1) is None
    assert exact_drds(p5, 1, 2) == {0, 3}


def test_drds_empty_graph():
    assert exact_drds(build_graph(0, []), 1, 0) == set()


def test_drds_validation():
    g = path_graph(3)
    with pytest.raises(InputError):
        exact_drds(g, 0, 1)
    with pytest.raises(InputError):
        exact_drds(g, 1, -1)


def test_drds_matches_brute_force():
    for seed in range(25):
        g = generate(
            GenSpec("random_degenerate", {"n": 12, "c": 2, "seed": seed})
        )
        for r in (1, 2):
            opt = brute_drds_size(g, r)
            for k in (opt - 1, opt):
                got = exact_drds(g, r, k)
                if k < opt:
                    assert got is None
                else:
                    assert got is not None and len(got) <= k
                    assert r_dominates_all(g, got, r)


# --- Steiner trees -----------------------------------------------------------


def test_steiner_path_endpoints():
    p5 = path_graph(5)
    edges, cost = dreyfus_wagner(SteinerInstance(p5, (0, 4)))
    assert cost == 4
    assert sorted(edges) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_steiner_single_terminal_is_free():
    edges, cost = dreyfus_wagner(SteinerInstance(path_graph(5), (2,)))
    assert cost == 0 and edges == frozenset()


def test_steiner_cycle_shortcut():
    edges, cost = dreyfus_wagner(SteinerInstance(cycle_graph(5), (0, 2)))
    assert cost == 2
    assert sorted(edges) == [(0, 1), (1, 2)]


def test_steiner_disconnected_terminals():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(InfeasibleError):
        dreyfus_wagner(SteinerInstance(g, (0, 3)))


def test_steiner_validation():
    g = path_graph(3)
    with pytest.raises(InputError):
        dreyfus_wagner(SteinerInstance(g, ()))
    with pytest.raises(InputError):
        dreyfus_wagner(SteinerInstance(g, (0, 7)))


def test_steiner_refuses_oversized_state_table():
    # 30 terminals would need 2^30 x 40 DP states; the solver must refuse
    # with a clear message instead of attempting the allocation
    g = path_graph(40)
    with pytest.raises(InputError, match="subset-DP"):
        dreyfus_wagner(SteinerInstance(g, tuple(range(30))))


def _steiner_oracle(g, terminals):
    """Minimum |U| - 1 over connected U containing the terminals."""
    ts = set(terminals)
    best = None
    for size in range(len(ts), g.n + 1):
        for U in itertools.combinations(range(g.n), size):
            su = set(U)
            if not ts <= su:
                continue
            # connectivity check inside U
            start = next(iter(su))
            seen = {start}
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for u in g.adj[v]:
                    if u in su and u not in seen:
                        seen.add(u)
                        frontier.append(u)
            if seen == su:
                best = size - 1
                break
        if best is not None:
            break
    return best


def test_steiner_tree_shape_and_optimality():
    for seed in range(20):
        g = generate(
            GenSpec("random_bounded_degree", {"n": 10, "d": 3, "seed": seed})
        )
        comps = {}
        for v in range(g.n):
            root = min(distances_from(g, v, g.n))
            comps.setdefault(root, []).append(v)
        verts = max(comps.values(), key=len)
        if len(verts) < 3:
            continue
        terminals = (verts[0], verts[len(verts) // 2], verts[-1])
        edges, cost = dreyfus_wagner(SteinerInstance(g, terminals))
        assert cost == _steiner_oracle(g, terminals)
        assert len(edges) == cost
        # the edge set really connects the terminals
        touched = set()
        for u, v in edges:
            touched.add(u)
            touched.add(v)
        if cost:
            assert set(terminals) <= touched


def test_steiner_cost_monotone_in_terminals():
    g = generate(GenSpec("grid", {"w": 4, "h": 3}))
    t3 = (0, 5, 11)
    t2 = (0, 11)
    _, c2 = dreyfus_wagner(SteinerInstance(g, t2))
    _, c3 = dreyfus_wagner(SteinerInstance(g, t3))
    assert c2 <= c3


# --- connected dominating set ------------------------------------------------


def is_cds(g, X):
    if not r_dominates_all(g, X, 1):
        return False
    if not X:
        return g.n == 0
    xs = set(X)
    start = next(iter(xs))
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for u in g.adj[v]:
            if u in xs and u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen == xs


def test_brute_cds_frozen():
    c5 = cycle_graph(5)
    assert brute_cds(c5, 2) is None
    assert brute_cds(c5, 3) == {0, 1, 2}
    assert brute_cds(generate(GenSpec("clique", {"n": 4})), 1) == {0}
    assert brute_cds(path_graph(4), 2) == {1, 2}
    assert brute_cds(build_graph(0, []), 0) == set()


def test_cds_fpt_frozen():
    c5 = cycle_graph(5)
    assert cds_fpt(c5, 2) is None
    got = cds_fpt(c5, 3)
    assert got is not None and len(got) <= 3 and is_cds(c5, got)
    assert cds_fpt(build_graph(1, []), 1) == {0}
    assert cds_fpt(generate(GenSpec("clique", {"n": 16})), 1) == {0}


def test_cds_fpt_disconnected_or_empty():
    assert cds_fpt(build_graph(4, [(0, 1), (2, 3)]), 4) is None
    assert cds_fpt(build_graph(2, []), 2) is None
    with pytest.raises(InputError):
        cds_fpt(build_graph(1, []), 0)


def test_cds_fpt_threshold_validation():
    g = cycle_graph(5)
    with pytest.raises(ConfigError):
        cds_fpt(g, 3, K_threshold=4)


def test_cds_fpt_density_refusal_propagates():
    k16 = generate(GenSpec("clique", {"n": 16}))
    with pytest.raises(DensityError):
        cds_fpt(k16, 3, cfg=UqwConfig(s_max=2), K_threshold=5)


def test_cds_fpt_agrees_with_brute():
    for seed in range(30):
        g = generate(
            GenSpec("random_degenerate", {"n": 11, "c": 2, "seed": 100 + seed})
        )
        for k in (1, 2, 3):
            want = brute_cds(g, k)
            got = cds_fpt(g, k)
            assert (got is None) == (want is None)
            if got is not None:
                assert len(got) <= k
                assert is_cds(g, got)


def test_cds_fpt_degree_bound_refutes_at_the_root(monkeypatch):
    # a connected d-set of a path or cycle dominates at most d + 2 vertices,
    # so 12 vertices need 10; the answer comes before any Steiner run
    def no_leaf(inst):
        raise AssertionError("the leaf routine ran")

    monkeypatch.setattr(solvers, "dreyfus_wagner", no_leaf)
    for g in (path_graph(12), cycle_graph(12)):
        assert cds_fpt(g, 9) is None
        assert brute_cds(g, 9) is None and brute_cds(g, 10) is not None


@st.composite
def small_graph(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    vertex = st.integers(min_value=0, max_value=n - 1)
    return build_graph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=30)))


@settings(max_examples=200, deadline=None)
@given(small_graph())
def test_cds_fpt_degree_bound_never_refutes_a_solvable_budget(g):
    # the tightest budget, gamma_c itself, where the bound is closest to
    # refuting
    gamma = next((k for k in range(1, g.n + 1) if brute_cds(g, k) is not None), None)
    if gamma is not None:
        got = cds_fpt(g, gamma)
        assert got is not None and len(got) <= gamma


def _memo_free(monkeypatch):
    """Give every leaf state a key of its own, so the failure memo of
    ``cds_fpt`` never hits."""
    monkeypatch.setattr(solvers, "_leaf_state", lambda idx, doms: object())


def _cds_corpus():
    for family, name, values in (
        ("random_degenerate", "c", (1, 2, 3)),
        ("random_bounded_degree", "d", (3, 4)),
    ):
        for n in (8, 9, 10):
            for p in values:
                for seed in range(3):
                    g = generate(GenSpec(family, {"n": n, name: p, "seed": seed}))
                    gamma = next(
                        (k for k in range(1, n + 1) if brute_cds(g, k) is not None), None
                    )
                    if gamma is not None:
                        for k in sorted({max(1, gamma - 1), gamma}):
                            yield g, k


def test_cds_fpt_memo_keeps_answers_and_witnesses(monkeypatch):
    corpus = list(_cds_corpus())
    assert len(corpus) >= 60
    with_memo = [cds_fpt(g, k) for g, k in corpus]
    _memo_free(monkeypatch)
    assert [cds_fpt(g, k) for g, k in corpus] == with_memo
    assert any(out is None for out in with_memo)
    assert any(out is not None for out in with_memo)


def test_cds_fpt_memo_saves_steiner_runs(monkeypatch):
    calls = []
    real = solvers.dreyfus_wagner

    def counting(inst):
        calls.append(len(inst.terminals))
        return real(inst)

    monkeypatch.setattr(solvers, "dreyfus_wagner", counting)
    # gamma_c = 4, and the degree bound does not refute k = 3 at the root
    g = generate(GenSpec("random_degenerate", {"n": 12, "c": 2, "seed": 4}))
    got = cds_fpt(g, 3)
    with_memo = len(calls)
    del calls[:]
    _memo_free(monkeypatch)
    assert cds_fpt(g, 3) == got
    assert 0 < with_memo < len(calls)
