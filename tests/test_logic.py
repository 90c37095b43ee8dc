"""Formula family, indiscernibility oracle, extraction, and ladder index.

Expected values for the extraction cases were hand-derived against the
witness-scan oracle before the tree implementation existed; the oracle
itself is exercised on everything the extractor emits.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiwide.errors import InputError
from quasiwide.generators import GenSpec, generate
from quasiwide.graph import build_graph
from quasiwide.logic import (
    EDGE_FORMULA,
    FormulaId,
    FormulaKind,
    delta_k,
    eval_formula,
    extract_indiscernible,
    is_indiscernible,
    ladder_index,
)

EDGE_ONLY = (EDGE_FORMULA,)


def triangle():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star(p):
    return build_graph(p + 1, [(0, i) for i in range(1, p + 1)])


def test_formula_id_validation():
    with pytest.raises(InputError):
        FormulaId(FormulaKind.EDGE, 1, 2)
    with pytest.raises(InputError):
        FormulaId(FormulaKind.PHI, 0, 2)
    with pytest.raises(InputError):
        FormulaId(FormulaKind.PHI, 3, 2)
    f = FormulaId(FormulaKind.PSI, 2, 3)
    assert f.k == 3 and "psi" in f.describe()


def test_delta_k_contents():
    d = delta_k(2)
    assert len(d) == 5
    assert delta_k(0) == (EDGE_FORMULA,)
    with pytest.raises(InputError):
        delta_k(-1)


def test_eval_edge_atom():
    g = path_graph(3)
    assert eval_formula(g, EDGE_FORMULA, (0, 1))
    assert not eval_formula(g, EDGE_FORMULA, (0, 2))
    with pytest.raises(InputError):
        eval_formula(g, EDGE_FORMULA, (0,))
    with pytest.raises(InputError):
        eval_formula(g, EDGE_FORMULA, (0, 5))


def test_eval_phi_on_triangle():
    # witness for "adjacent to 0, not to 1" is vertex 1 itself: the
    # adjacency relation has no loops, so 1 never counts as its own neighbor
    g = triangle()
    phi1 = FormulaId(FormulaKind.PHI, 1, 2)
    assert eval_formula(g, phi1, (0, 1))


def test_eval_phi_psi_on_star():
    g = star(2)
    phi1 = FormulaId(FormulaKind.PHI, 1, 2)
    phi2 = FormulaId(FormulaKind.PHI, 2, 2)
    psi1 = FormulaId(FormulaKind.PSI, 1, 2)
    psi2 = FormulaId(FormulaKind.PSI, 2, 2)
    # the only neighbor of a leaf is the center, which sees both leaves
    assert not eval_formula(g, phi1, (1, 2))
    assert eval_formula(g, phi2, (1, 2))
    assert not eval_formula(g, psi1, (1, 2))
    # empty positive side: any vertex avoiding both leaves works, e.g. a leaf
    assert eval_formula(g, psi2, (1, 2))


def test_eval_repeated_arguments():
    g = path_graph(3)
    phi1 = FormulaId(FormulaKind.PHI, 1, 2)
    # adjacent to 1 and not adjacent to 1: impossible
    assert not eval_formula(g, phi1, (1, 1))


def test_is_indiscernible_basics():
    g = path_graph(4)
    assert not is_indiscernible(g, [0, 1, 2], EDGE_ONLY)
    assert is_indiscernible(g, [0, 3], EDGE_ONLY)
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert is_indiscernible(k4, [0, 1, 2, 3], delta_k(2))
    with pytest.raises(InputError):
        is_indiscernible(g, [0, 0], EDGE_ONLY)
    with pytest.raises(InputError):
        is_indiscernible(g, [], EDGE_ONLY)


def test_is_indiscernible_short_sequences_vacuous():
    g = path_graph(4)
    # nothing of arity 2 to compare
    assert is_indiscernible(g, [1], delta_k(2))


def test_extract_path_edge_only():
    g = path_graph(4)
    assert extract_indiscernible(g, [0, 1, 2, 3], EDGE_ONLY, 2) == [0, 3]


def test_extract_star_delta4():
    g = star(8)
    out = extract_indiscernible(g, list(range(9)), delta_k(4), 2)
    assert out == list(range(1, 9))
    assert is_indiscernible(g, out, delta_k(4))


def test_extract_validates():
    g = path_graph(4)
    with pytest.raises(InputError):
        extract_indiscernible(g, [0, 1], EDGE_ONLY, 0)
    with pytest.raises(InputError):
        extract_indiscernible(g, [0, 0, 1], EDGE_ONLY, 1)


def test_extract_fixed_point():
    g = star(8)
    out = extract_indiscernible(g, list(range(9)), delta_k(2), 3)
    again = extract_indiscernible(g, out, delta_k(2), 3)
    assert again == out


@st.composite
def graph_and_sequence(draw):
    n = draw(st.integers(min_value=2, max_value=18))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    edges = draw(st.lists(pairs, max_size=40))
    g = build_graph(n, [(u, v) for u, v in edges if u != v])
    seq = draw(st.permutations(range(n)))
    length = draw(st.integers(min_value=1, max_value=n))
    return g, list(seq[:length])


@settings(max_examples=60, deadline=None)
@given(graph_and_sequence(), st.integers(min_value=2, max_value=3))
def test_extract_output_passes_oracle(gs, kk):
    g, seq = gs
    delta = delta_k(kk)
    out = extract_indiscernible(g, seq, delta, 2)
    # order-preserving subsequence of the input
    it = iter(seq)
    assert all(any(x == y for y in it) for x in out)
    assert is_indiscernible(g, out, delta)


@settings(max_examples=40, deadline=None)
@given(graph_and_sequence(), st.integers(min_value=1, max_value=2))
def test_phi_psi_reversal(gs, i):
    """phi_i on a tuple equals psi_{k-i} on the reversed tuple: the witness
    constraints coincide."""
    g, seq = gs
    k = 3
    if len(seq) < k or i >= k:
        return
    args = tuple(sorted(seq[:k]))
    phi = FormulaId(FormulaKind.PHI, i, k)
    psi = FormulaId(FormulaKind.PSI, k - i, k)
    assert eval_formula(g, phi, args) == eval_formula(g, psi, tuple(reversed(args)))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    at=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_repeated_formula_changes_no_extraction(seed, at, data):
    # a formula's second copy sees a sequence already indiscernible for it
    g = generate(GenSpec("random_degenerate", {"n": 30, "c": 2, "seed": seed}))
    delta = delta_k(2)
    where = data.draw(st.integers(min_value=at + 1, max_value=len(delta)))
    repeated = delta[:where] + (delta[at],) + delta[where:]
    seq = list(range(g.n))
    assert extract_indiscernible(g, seq, repeated, 4) == extract_indiscernible(g, seq, delta, 4)


def test_wideness_dichotomy_on_forests():
    """On a forest, any vertex is adjacent to nearly none or nearly all of a
    long extracted 2-indiscernible sequence."""
    checked = 0
    for seed in range(12):
        g = generate(GenSpec("random_degenerate", {"n": 100, "c": 1, "seed": seed}))
        out = extract_indiscernible(g, list(range(g.n)), delta_k(2), 8)
        if len(out) < 8:
            continue
        checked += 1
        members = set(out)
        for w in range(g.n):
            inside = sum(1 for u in g.adj[w] if u in members)
            assert inside < 4 or len(members) - inside < 4
    assert checked >= 10


def test_ladder_known_values():
    assert ladder_index(build_graph(5, []), 4) == 0
    assert ladder_index(build_graph(2, [(0, 1)]), 4) == 1
    assert ladder_index(path_graph(4), 4) == 2
    for k in (1, 2, 3, 4):
        g = generate(GenSpec("halfgraph", {"k": k}))
        assert ladder_index(g, k + 2) == k


def reference_ladder_index(g, max_k):
    """Largest k <= max_k with rows v, w of distinct vertices and
    edge(v_i, w_j) iff i <= j, by trying every pair of rows."""
    for k in range(max_k, 0, -1):
        for v in permutations(range(g.n), k):
            for w in permutations(range(g.n), k):
                if all((w[j] in g.adj[v[i]]) == (i <= j) for i in range(k) for j in range(k)):
                    return k
    return 0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    edges=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=21),
    max_k=st.integers(min_value=1, max_value=3),
)
def test_ladder_matches_brute_force(n, edges, max_k):
    g = build_graph(n, [(u % n, v % n) for u, v in edges])
    assert ladder_index(g, max_k) == reference_ladder_index(g, max_k)


def test_ladder_cap():
    g = generate(GenSpec("halfgraph", {"k": 5}))
    assert ladder_index(g, 3) == 3
