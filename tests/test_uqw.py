"""Splitter behavior: frozen small cases, density refusal, round logging.

The frozen S/B values were computed once and checked by hand (star centers
must land in S once enough leaves survive; disjoint components are mutually
independent at every radius), and every result is re-checked through
uqw_verify, which runs an independent BFS-based independence test.
"""

import pytest

from quasiwide.errors import ConfigError, DensityError, InputError
from quasiwide.generators import GenSpec, generate
from quasiwide.graph import build_graph, is_r_independent
from quasiwide.uqw import UqwConfig, uqw_split, uqw_verify


def test_edgeless_needs_no_deletions():
    g = build_graph(10, [])
    res = uqw_split(g, list(range(10)), 2)
    assert sorted(res.S) == []
    assert res.B[:5] == (0, 1, 2, 3, 4)
    assert uqw_verify(g, res, list(range(10)), 2)
    assert len(res.rounds) == 1


def test_star_center_is_deleted():
    g = generate(GenSpec("star", {"p": 8}))
    res = uqw_split(g, list(range(g.n)), 2)
    assert sorted(res.S) == [0]
    assert res.B[:4] == (1, 2, 3, 4)
    assert uqw_verify(g, res, list(range(g.n)), 2)


def test_one_vertex_extraction_deletes_nothing():
    # half of a one-element extraction is any neighbour at all, so such a
    # round witnessed no density and once sent all 20 leaves into S
    g = generate(GenSpec("star", {"p": 20}))
    res = uqw_split(g, [0], 2)
    assert res.S == frozenset()
    assert res.B == (0,)
    # the same guard in round 2, which extracts one ball here and once
    # refused with 18 candidates
    g = generate(GenSpec("random_degenerate", {"n": 40, "c": 2, "seed": 1004}))
    res = uqw_split(g, list(range(40)), 4, UqwConfig(delta_k=4))
    assert [(log.len_after, log.s_added) for log in res.rounds] == [(4, ()), (1, ())]
    assert res.B == (0,)
    assert uqw_verify(g, res, list(range(40)), 4)


def test_disjoint_stars_one_pick_per_component():
    g = generate(GenSpec("stars", {"k": 3, "p": 5}))
    res = uqw_split(g, list(range(g.n)), 2, UqwConfig(delta_k=4))
    assert res.S == frozenset()
    assert res.B == (0, 6, 16)
    assert uqw_verify(g, res, list(range(g.n)), 2)
    # components are {0..5}, {6..11}, {12..17}: one pick in each
    assert sorted(v // 6 for v in res.B) == [0, 1, 2]


def test_b_may_fall_short_of_target():
    # with the center deleted all leaves separate, but the center is in S,
    # so B falls short of A and nothing pads it
    g = generate(GenSpec("star", {"p": 8}))
    res = uqw_split(g, list(range(g.n)), 2)
    assert len(res.B) < g.n
    assert uqw_verify(g, res, list(range(g.n)), 2)


def test_clique_raises_density_error():
    g = generate(GenSpec("clique", {"n": 16}))
    with pytest.raises(DensityError) as exc:
        uqw_split(g, list(range(16)), 2, UqwConfig(s_max=8))
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
    res = uqw_split(g, list(range(g.n)), 3, UqwConfig(delta_k=2))
    assert res.S == frozenset()
    assert len(res.B) == 6
    assert uqw_verify(g, res, list(range(g.n)), 3)
    assert [rl.round for rl in res.rounds] == [1, 2]
    first, second = res.rounds
    assert first.len_before == 144
    assert first.s_added == () and second.s_added == ()
    # len_after counts the extraction; survivors is that sequence thinned to
    # pairwise independence, and the final B is the last round's survivors
    for rl in res.rounds:
        assert len(rl.survivors) <= rl.len_after <= rl.len_before
    assert res.B == second.survivors
    # round 2 picks its centers among round 1 survivors
    assert set(second.survivors) <= set(first.survivors)
    assert second.contracted_size <= first.contracted_size


def test_result_is_independent_in_g_minus_s():
    for spec, r in [
        (GenSpec("grid", {"w": 8, "h": 8}), 2),
        (GenSpec("random_degenerate", {"n": 60, "c": 2, "seed": 7}), 3),
        (GenSpec("stars", {"k": 4, "p": 6}), 4),
    ]:
        g = generate(spec)
        res = uqw_split(g, list(range(g.n)), r, UqwConfig(delta_k=2))
        assert is_r_independent(g, res.B, r, forbidden=res.S)
        assert not (set(res.B) & res.S)
        assert set(res.B) <= set(range(g.n))


def test_input_validation():
    g = build_graph(4, [(0, 1)])
    with pytest.raises(InputError):
        uqw_split(g, [0, 1], 0)
    with pytest.raises(InputError):
        uqw_split(g, [], 1)
    with pytest.raises(InputError):
        uqw_split(g, [0, 0, 1], 1)
    with pytest.raises(InputError):
        uqw_split(g, [0, 4], 1)


def test_config_validation():
    with pytest.raises(ConfigError):
        UqwConfig(s_max=-1)
    with pytest.raises(ConfigError):
        UqwConfig(delta_k=-1)


def test_uqw_verify_rejects_bad_results():
    from quasiwide.uqw import UqwResult

    g = generate(GenSpec("path", {"n": 6}))
    good = uqw_split(g, list(range(6)), 2)
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
