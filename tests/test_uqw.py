"""Splitter behavior: frozen small cases, density refusal, round logging.

The frozen S/B values were computed once and checked by hand (star centers
must land in S once enough leaves survive; disjoint components are mutually
independent at every radius), and every result is re-checked through
uqw_verify, which runs an independent BFS-based independence test.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiwide.errors import ConfigError, DensityError, InputError
from quasiwide.generators import GenSpec, generate
from quasiwide.graph import build_graph, is_r_independent
from quasiwide.uqw import UqwConfig, uqw_split, uqw_verify


def test_edgeless_needs_no_deletions():
    g = build_graph(10, [])
    res = uqw_split(g, list(range(10)), 2, 5)
    assert sorted(res.S) == []
    assert res.B == (0, 1, 2, 3, 4)
    assert uqw_verify(g, res, list(range(10)), 2)
    assert len(res.rounds) == 1


def test_star_center_is_deleted():
    g = generate(GenSpec("star", {"p": 8}))
    res = uqw_split(g, list(range(g.n)), 2, 4)
    assert sorted(res.S) == [0]
    assert res.B == (1, 2, 3, 4)
    assert uqw_verify(g, res, list(range(g.n)), 2)


def test_one_vertex_extraction_deletes_nothing():
    # half of a one-element extraction is any neighbour at all, so such a
    # round witnessed no density and once sent all 20 leaves into S
    g = generate(GenSpec("star", {"p": 20}))
    res = uqw_split(g, [0], 2, 1)
    assert res.S == frozenset()
    assert res.B == (0,)
    # the same guard in round 2, which extracts one ball here and once
    # refused with 18 candidates
    g = generate(GenSpec("random_degenerate", {"n": 40, "c": 2, "seed": 1004}))
    res = uqw_split(g, list(range(40)), 4, 40, UqwConfig(delta_k=4))
    assert [(log.len_after, log.s_added) for log in res.rounds] == [(4, ()), (1, ())]
    assert res.B == (0,)
    assert uqw_verify(g, res, list(range(40)), 4)


def test_disjoint_stars_one_pick_per_component():
    g = generate(GenSpec("stars", {"k": 3, "p": 5}))
    res = uqw_split(g, list(range(g.n)), 2, 6, UqwConfig(delta_k=4))
    assert res.S == frozenset()
    assert res.B == (0, 6, 16)
    assert uqw_verify(g, res, list(range(g.n)), 2)
    # components are {0..5}, {6..11}, {12..17}: one pick in each
    assert sorted(v // 6 for v in res.B) == [0, 1, 2]


def test_b_may_fall_short_of_target():
    # a single star has no 2 vertices at distance > 2 once the center is
    # capped out of the deletion budget... but with the center deleted, all
    # leaves separate; B is truncated to m at the end, never padded
    g = generate(GenSpec("star", {"p": 8}))
    res = uqw_split(g, list(range(g.n)), 2, 100)
    assert len(res.B) <= 100
    assert uqw_verify(g, res, list(range(g.n)), 2)


def test_clique_raises_density_error():
    g = generate(GenSpec("clique", {"n": 16}))
    with pytest.raises(DensityError) as exc:
        uqw_split(g, list(range(16)), 2, 8, UqwConfig(s_max=8))
    err = exc.value
    assert len(err.certificate) == 16
    assert len(err.candidates) == 16
    assert err.rounds == ()
    # the certificate really is dense: every member is adjacent to all others
    cert = set(err.certificate)
    for v in err.certificate:
        assert sum(1 for u in g.adj[v] if u in cert) == len(cert) - 1


def test_grid_round_log_and_verify():
    g = generate(GenSpec("grid", {"w": 12, "h": 12}))
    res = uqw_split(g, list(range(g.n)), 3, 8, UqwConfig(delta_k=2))
    assert res.S == frozenset()
    assert len(res.B) == 6
    assert uqw_verify(g, res, list(range(g.n)), 3)
    assert [rl.round for rl in res.rounds] == [1, 2]
    first, second = res.rounds
    assert first.len_before == 144
    assert first.s_added == () and second.s_added == ()
    # len_after counts the extraction; survivors is that sequence thinned to
    # pairwise independence, and the final B is the last round's survivors
    # truncated to m
    for rl in res.rounds:
        assert len(rl.survivors) <= rl.len_after <= rl.len_before
    assert res.B == second.survivors[:8]
    # round 2 picks its centers among round 1 survivors
    assert set(second.survivors) <= set(first.survivors)
    assert second.contracted_size <= first.contracted_size


# One graph of every generator family, small enough for delta_k = 4.
_FAMILY_GRAPHS = [
    generate(spec)
    for spec in (
        GenSpec("grid", {"w": 6, "h": 5}),
        GenSpec("path", {"n": 14}),
        GenSpec("cycle", {"n": 13}),
        GenSpec("star", {"p": 9}),
        GenSpec("stars", {"k": 3, "p": 4}),
        GenSpec("random_bounded_degree", {"n": 24, "d": 3, "seed": 2}),
        GenSpec("random_degenerate", {"n": 24, "c": 2, "seed": 4}),
        GenSpec("halfgraph", {"k": 6}),
        GenSpec("clique", {"n": 9}),
        GenSpec("biclique", {"s": 4, "t": 6}),
    )
]


def _split_or_refusal(g, a, r, m, cfg):
    try:
        return uqw_split(g, a, r, m, cfg)
    except DensityError as exc:
        return str(exc), exc.certificate, exc.candidates


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    g=st.sampled_from(_FAMILY_GRAPHS),
    r=st.integers(1, 5),
    delta=st.sampled_from([0, 2, 4]),
    s_max=st.sampled_from([2, 16]),
    m=st.integers(1, 13),
)
def test_target_size_only_cuts_b(data, g, r, delta, s_max, m):
    # the sieve splits each window once at m = |A| and cuts B itself
    a = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))
    cfg = UqwConfig(s_max=s_max, delta_k=delta)
    full = _split_or_refusal(g, a, r, len(a), cfg)
    if isinstance(full, tuple):
        assert _split_or_refusal(g, a, r, m, cfg) == full
    else:
        assert uqw_split(g, a, r, m, cfg) == dataclasses.replace(full, B=full.B[:m])


def test_result_is_independent_in_g_minus_s():
    for spec, r in [
        (GenSpec("grid", {"w": 8, "h": 8}), 2),
        (GenSpec("random_degenerate", {"n": 60, "c": 2, "seed": 7}), 3),
        (GenSpec("stars", {"k": 4, "p": 6}), 4),
    ]:
        g = generate(spec)
        res = uqw_split(g, list(range(g.n)), r, 5, UqwConfig(delta_k=2))
        assert is_r_independent(g, res.B, r, forbidden=res.S)
        assert not (set(res.B) & res.S)
        assert set(res.B) <= set(range(g.n))


def test_input_validation():
    g = build_graph(4, [(0, 1)])
    with pytest.raises(InputError):
        uqw_split(g, [0, 1], 0, 1)
    with pytest.raises(InputError):
        uqw_split(g, [0, 1], 1, 0)
    with pytest.raises(InputError):
        uqw_split(g, [], 1, 1)
    with pytest.raises(InputError):
        uqw_split(g, [0, 0, 1], 1, 1)
    with pytest.raises(InputError):
        uqw_split(g, [0, 4], 1, 1)


def test_config_validation():
    with pytest.raises(ConfigError):
        UqwConfig(s_max=-1)
    with pytest.raises(ConfigError):
        UqwConfig(delta_k=-1)


def test_uqw_verify_rejects_bad_results():
    from quasiwide.uqw import UqwResult

    g = generate(GenSpec("path", {"n": 6}))
    good = uqw_split(g, list(range(6)), 2, 2)
    assert uqw_verify(g, good, list(range(6)), 2)
    # adjacent pair is not 2-independent
    bad = UqwResult(S=frozenset(), B=(0, 1), rounds=())
    assert not uqw_verify(g, bad, list(range(6)), 2)
    # B must stay inside A
    outside = UqwResult(S=frozenset(), B=(0, 5), rounds=())
    assert not uqw_verify(g, outside, [0, 1, 2], 2)
    # B must avoid S
    overlap = UqwResult(S=frozenset({0}), B=(0, 5), rounds=())
    assert not uqw_verify(g, overlap, list(range(6)), 2)
