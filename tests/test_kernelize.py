"""Domination-core sieve, dominator reduction, and kernel construction.

Small-case expectations (stars, triangle, short paths) were worked out by
hand before freezing: on a star the center plus k+1 leaves survive the
sieve, Z-Z edges are dropped from the kernel, and the gadget contributes
exactly one forced extra center (hence budget k + 1).
"""

import dataclasses
import functools
import itertools
import operator
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_graphs import seeded_graphs
from quasiwide import _kernels, generators
from quasiwide._kernels import pure
from quasiwide import kernelize as kernelize_module
from quasiwide.check import recheck_core, recheck_representatives
from quasiwide.errors import ConfigError, DensityError, InputError, InternalError
from quasiwide.generators import GenSpec, generate
from quasiwide.graph import (
    Graph,
    adjacency_bitsets,
    adjacent,
    build_graph,
    distance_vector,
    distance_vectors,
    distances_from,
)
from quasiwide.io import kernel_text
from quasiwide.kernelize import (
    CoreConfig,
    build_kernel,
    domination_core,
    find_irrelevant_dominatee,
    kernel_pipeline,
    reduce_dominators,
)
from quasiwide.solvers import exact_drds
from quasiwide.uqw import UqwConfig, UqwResult


def star(p):
    return generate(GenSpec("star", {"p": p}))


def path_graph(n):
    return generate(GenSpec("path", {"n": n}))


def r_dominates(g, X, targets, r):
    covered = set()
    for x in X:
        covered |= set(distances_from(g, x, r))
    return set(targets) <= covered


def core_is_sound(g, Z, r, k):
    """Every budget-k set that r-dominates Z also r-dominates all of V."""
    for X in itertools.chain.from_iterable(
        itertools.combinations(range(g.n), size) for size in range(k + 1)
    ):
        if r_dominates(g, X, Z, r) and not r_dominates(g, X, range(g.n), r):
            return False
    return True


def test_config_defaults_and_validation():
    cfg = CoreConfig(r=1, k=1)
    assert cfg.effective_ell == max(4 * 3 * 9, 64)
    assert CoreConfig(r=2, k=3, ell=32).effective_ell == 32
    with pytest.raises(ConfigError):
        CoreConfig(r=0, k=1)
    with pytest.raises(ConfigError):
        CoreConfig(r=1, k=0)
    with pytest.raises(ConfigError):
        CoreConfig(r=1, k=2, ell=3)  # ell must be at least k + 2


def test_find_irrelevant_below_threshold_is_none():
    g = star(10)
    cfg = CoreConfig(r=1, k=1, ell=16)
    # ell is only the first window: at |Z| = 11 < ell the leaves still
    # form one bucket anchored at the center
    rem = find_irrelevant_dominatee(g, list(range(g.n)), cfg)
    assert rem.bucket == tuple(range(1, 11))
    assert rem.anchors == (0,)
    # at |Z| <= k + 1 no bucket of k + 2 lookalikes can exist
    assert find_irrelevant_dominatee(g, [1, 2], cfg) is None
    assert find_irrelevant_dominatee(g, [0, 1], cfg) is None
    assert find_irrelevant_dominatee(g, [1, 2, 3], cfg).bucket == (1, 2, 3)


def test_find_irrelevant_on_star():
    g = star(10)
    cfg = CoreConfig(r=1, k=1, ell=4)
    rem = find_irrelevant_dominatee(g, list(range(g.n)), cfg)
    assert rem.removed == (1,)
    assert rem.bucket == (1, 2, 3)
    assert rem.anchors == (0,)
    assert len(rem.bucket) >= cfg.k + 2


def test_sieve_widens_past_eight_times_ell(monkeypatch):
    # on the 6x8 grid at arity 2 the windows of 3, 6, 12 and 24 vertices
    # hold no bucket of k + 2 = 3; the first one lies in all 48 vertices
    windows = []
    real = kernelize_module.uqw_split

    def spy(g, a, r, cfg):
        windows.append(len(a))
        return real(g, a, r, cfg)

    monkeypatch.setattr(kernelize_module, "uqw_split", spy)
    g = generate(GenSpec("grid", {"w": 6, "h": 8}))
    cfg = CoreConfig(r=1, k=1, ell=3, uqw=UqwConfig(delta_k=2))
    rem = find_irrelevant_dominatee(g, range(g.n), cfg)
    assert windows == [3, 6, 12, 24, 48]
    assert rem.bucket == (0, 4, 14, 23, 24, 45)
    assert rem.anchors == ()
    assert all(
        u not in distances_from(g, v, 2 * cfg.r)
        for v, u in itertools.combinations(rem.bucket, 2)
    )


@pytest.mark.parametrize(
    "g,cfg",
    [
        (star(10), CoreConfig(r=1, k=1, ell=4)),
        (generate(GenSpec("grid", {"w": 12, "h": 6})), CoreConfig(r=1, k=2, ell=24)),
    ],
)
def test_find_irrelevant_takes_any_iterable_of_z(g, cfg):
    want = find_irrelevant_dominatee(g, range(g.n), cfg)
    assert want is not None
    shuffled = list(range(g.n))
    random.Random(3).shuffle(shuffled)
    assert find_irrelevant_dominatee(g, shuffled + shuffled[::2], cfg) == want
    assert find_irrelevant_dominatee(g, iter(reversed(range(g.n))), cfg) == want
    with pytest.raises(InputError):
        find_irrelevant_dominatee(g, [*range(g.n), g.n], cfg)
    with pytest.raises(InputError):
        find_irrelevant_dominatee(g, [-1, *range(g.n)], cfg)


def test_core_on_star_lands_on_threshold():
    g = star(10)
    cfg = CoreConfig(r=1, k=1, ell=4)
    core = domination_core(g, cfg, batch=True)
    # every 4-vertex window holds one bucket of three leaves, so each split
    # removes its smallest; the sieve stops with k + 1 = 2 leaves left
    assert sorted(core.Z) == [0, 9, 10]
    assert [rec.removed for rec in core.removal_log] == [(w,) for w in range(1, 9)]
    assert core_is_sound(g, core.Z, 1, 1)


def test_single_mode_matches_batch_as_a_core():
    g = star(10)
    cfg = CoreConfig(r=1, k=1, ell=4)
    single = domination_core(g, cfg, batch=False)
    batch = domination_core(g, cfg, batch=True)
    assert len(single.Z) == len(batch.Z)
    assert core_is_sound(g, single.Z, 1, 1)
    # one vertex removed per log record in single mode
    assert len(single.removal_log) == 11 - len(single.Z)


def test_removal_log_is_auditable():
    g = generate(GenSpec("stars", {"k": 2, "p": 6}))
    cfg = CoreConfig(r=1, k=2, ell=6)
    core = domination_core(g, cfg, batch=True)
    assert sorted(core.Z) == [0, 4, 5, 6, 7, 11, 12, 13]
    assert len(core.removal_log) == 3
    removed = [w for rec in core.removal_log for w in rec.removed]
    assert sorted(removed) == sorted(set(range(g.n)) - core.Z)
    for rec in core.removal_log:
        assert set(rec.removed) <= set(rec.bucket)
        assert len(rec.bucket) >= cfg.k + 2
        # bucket members genuinely share their distance vector to the anchors
        vecs = {distance_vector(g, v, rec.anchors, 2 * cfg.r) for v in rec.bucket}
        assert len(vecs) == 1


def test_kernelize_module_is_not_shadowed():
    import quasiwide
    import quasiwide.kernelize as m

    assert m.__name__ == "quasiwide.kernelize"
    assert quasiwide.kernelize is m


def _spy_splits(monkeypatch):
    """Record every split the sieve makes, unchanged."""
    splits = []
    real = kernelize_module.uqw_split

    def spy(g, a, r, cfg):
        res = real(g, a, r, cfg)
        splits.append(res)
        return res

    monkeypatch.setattr(kernelize_module, "uqw_split", spy)
    return splits


def test_anchor_vectors_equal_per_member_vectors(monkeypatch):
    splits = _spy_splits(monkeypatch)
    cfg = CoreConfig(r=1, k=2, ell=64, uqw=UqwConfig(delta_k=4))
    anchored = 0
    for seed in range(3):
        g = generate(GenSpec("random_degenerate", {"n": 66, "c": 2, "seed": seed}))
        del splits[:]
        find_irrelevant_dominatee(g, range(g.n), cfg)
        for res in splits:
            anchors = tuple(sorted(res.S))
            anchored += bool(anchors)
            got = distance_vectors(g, range(g.n), anchors, 2 * cfg.r)
            for v in range(g.n):
                assert got[v] == distance_vector(g, v, anchors, 2 * cfg.r)
    # the comparison means nothing with S empty, where every vector is ()
    assert anchored >= 2


def test_sieve_rejects_a_dependent_spread_set(monkeypatch):
    real = kernelize_module.uqw_split

    def adjacent_spread(g, a, r, cfg):
        res = real(g, a, r, cfg)
        b = next(
            (v, u)
            for v in a
            for u in g.adj[v]
            if v not in res.S and u not in res.S
        )
        return dataclasses.replace(res, B=b)

    monkeypatch.setattr(kernelize_module, "uqw_split", adjacent_spread)
    g = generate(GenSpec("grid", {"w": 8, "h": 8}))
    with pytest.raises(InternalError):
        find_irrelevant_dominatee(g, range(g.n), CoreConfig(r=1, k=1, ell=8))


def test_sieve_cuts_b_by_the_size_of_s(monkeypatch):
    # |S| = 5 lifts the cut from (k + 2)(2r + 1)^4 = 243 to
    # (k + 2)(2r + 1)^5 = 729 at r = k = 1; on an edgeless graph every
    # vector to S is the same, so the bucket is the whole cut
    g = build_graph(1005, [])
    spread = tuple(range(804, 4, -1))
    windows = []

    def split_with_five_anchors(g, a, r, cfg):
        windows.append(len(a))
        return UqwResult(S=frozenset(range(5)), B=spread, rounds=())

    monkeypatch.setattr(kernelize_module, "uqw_split", split_with_five_anchors)
    rem = find_irrelevant_dominatee(g, range(g.n), CoreConfig(r=1, k=1, ell=1000))
    assert windows == [1000]
    assert rem.anchors == (0, 1, 2, 3, 4)
    assert rem.bucket == tuple(sorted(spread[:729]))


def _sieve_on_shared_and_fresh_graphs(monkeypatch, g, cfg, batch):
    """Run the sieve on ``g`` with the pure rounds, which resume, and again
    with every round on a fresh copy of ``g``; check that both give the
    same core, and return how many rounds kept a stored tree that held
    insertions."""
    resumed = 0
    real_resume = pure._resume

    def counting(h, key, seq, new_tree):
        nonlocal resumed
        stored = pure._descents.get(h, {}).get(key)
        kept = stored is not None and len(stored.placed) > 0
        branch = real_resume(h, key, seq, new_tree)
        resumed += kept and pure._descents[h][key] is stored
        return branch

    monkeypatch.setattr(pure, "_resume", counting)
    monkeypatch.setattr(_kernels, "tree_round", pure.tree_round)
    shared = domination_core(g, cfg, batch=batch)
    assert pure._descents.get(g)

    def on_a_fresh_copy(h, *args):
        return pure.tree_round(Graph(h.n, h.adj, _bits=adjacency_bitsets(h)), *args)

    monkeypatch.setattr(_kernels, "tree_round", on_a_fresh_copy)
    fresh = domination_core(Graph(g.n, g.adj), cfg, batch=batch)
    assert fresh.Z == shared.Z
    assert fresh.removal_log == shared.removal_log
    return resumed


@pytest.mark.parametrize("batch", [True, False])
def test_sieve_resumed_rounds_match_fresh_rounds(monkeypatch, batch):
    # criterion-5 settings at k = 8, but with arity-3 formulas, whose
    # tail-free rounds descend and are stored
    g = generate(GenSpec("grid", {"w": 20, "h": 12}))
    cfg = CoreConfig(r=1, k=8, ell=120, uqw=UqwConfig(delta_k=3))
    _sieve_on_shared_and_fresh_graphs(monkeypatch, g, cfg, batch)


def test_sieve_resumes_rounds_when_the_window_widens(monkeypatch):
    # the degenerate-r1 workload's settings: the 64-vertex window widens to
    # all 65, which extends the last sequence of each tail-free round
    g = generate(GenSpec("random_degenerate", {"n": 65, "c": 2, "seed": 0}))
    cfg = CoreConfig(r=1, k=2, ell=64, uqw=UqwConfig(delta_k=4))
    assert _sieve_on_shared_and_fresh_graphs(monkeypatch, g, cfg, True) >= 1


def _star_core():
    g = star(80)
    cfg = CoreConfig(r=1, k=2, ell=16)
    core = domination_core(g, cfg, batch=True)
    # each batch split removes more than one vertex, all anchored at the center
    assert all(len(rec.removed) > 1 for rec in core.removal_log)
    assert {rec.anchors for rec in core.removal_log} == {(0,)}
    return g, cfg, core


@pytest.mark.parametrize("position", ["first", "later"])
def test_recheck_catches_a_tampered_shared_bucket(position):
    g, cfg, core = _star_core()
    assert recheck_core(g, core, cfg)
    log = list(core.removal_log)
    assert len(log) >= 2
    i = 0 if position == "first" else len(log) - 1
    # the center is 0 from the anchor, every leaf 1
    bucket = log[i].bucket
    kept = [v for v in bucket if v not in log[i].removed]
    tampered = tuple(sorted([0, *log[i].removed, *kept[1:]]))
    log[i] = dataclasses.replace(log[i], bucket=tampered)
    assert not recheck_core(g, dataclasses.replace(core, removal_log=tuple(log)), cfg)


def test_core_soundness_sweep():
    cases = [
        (build_graph(3, [(0, 1), (1, 2), (0, 2)]), 1, 1),
        (path_graph(9), 2, 1),
        (star(8), 1, 2),
        (generate(GenSpec("grid", {"w": 4, "h": 3})), 1, 2),
        (generate(GenSpec("random_degenerate", {"n": 12, "c": 2, "seed": 3})), 2, 2),
    ]
    for g, r, k in cases:
        cfg = CoreConfig(r=r, k=k, ell=k + 2)
        for batch in (False, True):
            core = domination_core(g, cfg, batch=batch)
            assert core_is_sound(g, core.Z, r, k)


def test_reduce_dominators_star():
    # the center sees all of Z, so its class contains every other one
    g = star(10)
    core_z = [0, 1, 2, 10]
    reps = reduce_dominators(g, core_z, 1)
    assert sorted(reps.Y) == [0]
    assert reps.projection == {0: (0, 1, 2, 10)}
    # every vertex maps to a representative whose Z-projection contains its own
    for u in range(g.n):
        rep = reps.class_of[u]
        mine = {z for z in core_z if u in distances_from(g, z, 1)}
        assert set(reps.projection[rep]) >= mine


def test_reduce_dominators_collapses_twin_leaves():
    # K_{1,5} with Z = the leaves: every leaf sees only itself, the center
    # sees all of Z, so of the |Z| + 1 = 6 classes only the center's is
    # inclusion-maximal
    g = star(5)
    reps = reduce_dominators(g, [1, 2, 3, 4, 5], 1)
    assert sorted(reps.Y) == [0]
    assert all(reps.class_of[u] == 0 for u in range(g.n))


def test_reduce_dominators_empty_z():
    g = star(3)
    reps = reduce_dominators(g, [], 1)
    assert list(reps.Y) == [0]
    assert all(reps.class_of[u] == 0 for u in range(g.n))


def test_kernel_star_frozen():
    g = star(10)
    ki = kernel_pipeline(g, CoreConfig(r=1, k=1, ell=4))[2]
    # Z = {0, 9, 10}; the center alone represents, and every non-Z
    # vertex of H is the gadget's own
    assert ki.graph.n == 5
    assert ki.k_new == 2
    assert ki.kind == "sieve"
    assert ki.projection_ok
    assert ki.z_ids == {0: 0, 9: 1, 10: 2}
    assert ki.y_ids == {0: 0}
    assert (ki.gadget_v, ki.gadget_v_prime) == (3, 4)
    assert ki.gadget_internals == () and ki.path_internals == ()
    assert sorted(ki.graph.edges()) == [(0, 1), (0, 2), (3, 4)]


def test_kernel_stars_keeps_one_representative_per_star():
    # stars(3, 100) at r = 1: the sieve keeps each center and k + 1 = 4 of
    # its leaves, and each center's projection contains those of its
    # leaves, so |Y| = 3 (18 with one representative per projection class,
    # inclusion-maximal or not)
    g = generate(GenSpec("stars", {"k": 3, "p": 100}))
    core, reps, ki = kernel_pipeline(g, CoreConfig(r=1, k=3, uqw=UqwConfig(delta_k=2)))
    assert sorted(core.Z) == [0, 97, 98, 99, 100, 101, 198, 199, 200, 201, 202,
                              299, 300, 301, 302]
    assert sorted(reps.Y) == [0, 101, 202]
    assert ki.graph.n == 15 + 2
    assert ki.projection_ok


def sieve_kernel(g, cfg):
    """:func:`build_kernel`'s H on the batch core, which
    :func:`kernel_pipeline` would swap for the identity kernel when it has
    more than n + 1 vertices."""
    z = domination_core(g, cfg).Z
    return build_kernel(g, z, reduce_dominators(g, z, cfg.r), cfg.r, cfg.k)


def test_kernel_drops_z_z_edges():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    ki = sieve_kernel(g, CoreConfig(r=1, k=1, ell=4))
    # Z = all of K3, Y = {0}: H keeps y-z adjacencies 0-1, 0-2 but not the
    # Z-Z edge 1-2; the gadget pair hangs off separately
    assert sorted(ki.z_ids) == [0, 1, 2]
    assert sorted(ki.y_ids) == [0]
    assert sorted(ki.graph.edges()) == [(0, 1), (0, 2), (3, 4)]
    assert (ki.gadget_v, ki.gadget_v_prime) == (3, 4)


def test_kernel_size_identity():
    for g, r, k in [
        (star(10), 1, 1),
        (path_graph(9), 2, 1),
        (generate(GenSpec("grid", {"w": 5, "h": 4})), 1, 2),
    ]:
        ki = sieve_kernel(g, CoreConfig(r=r, k=k, ell=k + 2))
        base = set(ki.z_ids.values()) | set(ki.y_ids.values())
        assert ki.graph.n == (
            len(base)
            + 2
            + len(ki.gadget_internals)
            + len(ki.path_internals)
        )
        if r == 1:
            assert not ki.gadget_internals and not ki.path_internals
        assert ki.projection_ok
        assert ki.k_new == k + 1
        gadget = ki.gadget_ids
        assert ki.gadget_v in gadget and ki.gadget_v_prime in gadget


def test_kernel_preserves_decision_small():
    # yes instance: P5 at radius 2 has the center as a lone dominator
    p5 = path_graph(5)
    ki = kernel_pipeline(p5, CoreConfig(r=2, k=1, ell=4))[2]
    assert exact_drds(p5, 2, 1) is not None
    assert exact_drds(ki.graph, 2, ki.k_new) is not None
    # no instance: P9 at radius 2 needs two centers
    p9 = path_graph(9)
    ki9 = kernel_pipeline(p9, CoreConfig(r=2, k=1, ell=4))[2]
    assert exact_drds(p9, 2, 1) is None
    assert exact_drds(ki9.graph, 2, ki9.k_new) is None
    assert ki9.projection_ok


def test_build_kernel_verifies_projection():
    g = star(6)
    cfg = CoreConfig(r=1, k=1, ell=4)
    core = domination_core(g, cfg)
    reps = reduce_dominators(g, core.Z, 1)
    ki = build_kernel(g, core.Z, reps, 1, 1)
    assert ki.projection_ok
    # BFS in H from each y-copy reaches exactly the copies of its class's
    # Z-projection within distance r
    inv_z = {h: z for z, h in ki.z_ids.items()}
    for y, hy in ki.y_ids.items():
        reached = {
            inv_z[h]
            for h in distances_from(ki.graph, hy, 1)
            if h in inv_z
        }
        assert reached == set(reps.projection[y])


def _bfs_distances(adj, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _property_instances():
    rng = random.Random(8)
    for i in range(60):
        family = ("random_degenerate", "random_bounded_degree", "grid")[i % 3]
        if family == "grid":
            params = {"w": rng.randint(2, 6), "h": rng.randint(2, 5)}
        elif family == "random_degenerate":
            params = {"n": rng.randint(6, 30), "c": rng.randint(1, 3), "seed": i}
        else:
            params = {"n": rng.randint(6, 30), "d": rng.randint(2, 4), "seed": i}
        g = generate(GenSpec(family, params))
        z = rng.sample(range(g.n), rng.randint(0, g.n))
        yield g, z, 1 + i % 4


def _projections(g, z, r):
    """Every vertex's r-projection onto z, from a plain BFS per vertex."""
    zs = set(z)
    return [
        {u for u, d in _bfs_distances(g.adj, v).items() if d <= r and u in zs}
        for v in range(g.n)
    ]


def _reduction_cases():
    yield from _property_instances()
    for g in seeded_graphs():
        yield g, range(0, g.n, 2), 1
        yield g, range(g.n), 2


def test_kept_projections_are_pairwise_incomparable():
    for g, z, r in _reduction_cases():
        reps = reduce_dominators(g, z, r)
        own = _projections(g, z, r)
        kept = sorted(reps.Y)
        assert all(set(reps.projection[y]) == own[y] for y in kept)
        for a, b in itertools.permutations(kept, 2):
            assert not own[a] <= own[b], (g.n, r, a, b)


def test_class_of_targets_contain_the_vertex_projection():
    for g, z, r in _reduction_cases():
        reps = reduce_dominators(g, z, r)
        own = _projections(g, z, r)
        assert sorted(reps.class_of) == list(range(g.n))
        for v, y in reps.class_of.items():
            assert y in reps.Y and own[v] <= own[y], (g.n, r, v)
            # the smallest-id representative that qualifies
            assert y == min(x for x in reps.Y if own[v] <= own[x])
        assert recheck_representatives(g, z, reps, r)


def test_kernel_paths_realize_projections_exactly():
    # H's paths are shortest paths of G, so from each y-copy the Z-copies
    # within r are exactly y's projection: the kernel needs no repair step
    # after one build.
    for g, z, r in _property_instances():
        reps = reduce_dominators(g, z, r)
        ki = build_kernel(g, z, reps, r, 1)
        assert ki.projection_ok
        z_of_copy = {h: v for v, h in ki.z_ids.items()}
        fresh = 0
        for y, hy in ki.y_ids.items():
            in_h = _bfs_distances(ki.graph.adj, hy)
            reached = {z_of_copy[h] for h, d in in_h.items() if d <= r and h in z_of_copy}
            assert reached == set(reps.projection[y]), (g.n, r, y)
            in_g = _bfs_distances(g.adj, y)
            fresh += sum(in_g[v] - 1 for v in reps.projection[y] if v != y)
        # P is a set of G vertices outside Z ∪ Y, one H id each, and never
        # larger than the fresh inner vertices of one path per pair
        assert set(ki.p_ids) <= set(range(g.n)) - set(z) - reps.Y
        assert len(set(ki.p_ids.values())) == len(ki.p_ids)
        assert len(ki.path_internals) <= fresh
        # off the gadget, H is a subgraph of G
        g_of = {h: v for ids in (ki.z_ids, ki.y_ids, ki.p_ids) for v, h in ids.items()}
        gadget = set(ki.gadget_ids)
        for a, b in ki.graph.edges():
            if a not in gadget and b not in gadget:
                assert adjacent(g, g_of[a], g_of[b]), (g.n, r, a, b)


def test_kernel_gadget_reaches_shared_path_vertices():
    # C12 at r = 2 with Z = {0, 4, 8}: the representatives 2, 6 and 10 each
    # reach two members of Z, and 2 and 6 dominate Z. The paths cross 1, 3,
    # 5, 7, 9 and 11, which are neither in Z nor representatives; 9 and 11
    # lie farther than 2 from both 2 and 6 in H, so only the gadget covers
    # them, and H needs it to keep the answer.
    g = generate(GenSpec("cycle", {"n": 12}))
    reps = reduce_dominators(g, [0, 4, 8], 2)
    ki = build_kernel(g, [0, 4, 8], reps, 2, 2)
    assert sorted(reps.Y) == [2, 6, 10]
    assert sorted(ki.p_ids) == [1, 3, 5, 7, 9, 11]
    near = set(distances_from(ki.graph, ki.y_ids[2], 2))
    near |= set(distances_from(ki.graph, ki.y_ids[6], 2))
    assert sorted(v for v, h in ki.p_ids.items() if h not in near) == [9, 11]
    from_v = distances_from(ki.graph, ki.gadget_v, 2)
    assert all(from_v.get(h) == 2 for h in ki.path_internals)
    assert exact_drds(ki.graph, 2, ki.k_new) is not None


def fresh_path_kernel(g, Z, reps, r):
    """The construction ``build_kernel`` replaced: every (y, z) pair gets a
    fresh path of dist_G(y, z) - 1 new vertices, numbered after the copies
    in pair order, and the same gadget on every non-Z vertex."""
    z_orig = sorted(set(Z))
    y_orig = sorted(reps.Y)
    base = sorted(set(z_orig) | set(y_orig))
    idx = {v: i for i, v in enumerate(base)}
    next_id = len(base)
    edges = []
    path_internals = []
    for y in y_orig:
        dmap = distances_from(g, y, r)
        for z in reps.projection[y]:
            if z == y:
                continue
            inner = list(range(next_id, next_id + dmap[z] - 1))
            next_id += len(inner)
            path_internals.extend(inner)
            chain = [idx[y], *inner, idx[z]]
            edges.extend(zip(chain, chain[1:]))
    gadget_v, gadget_v_prime = next_id, next_id + 1
    next_id += 2
    z_copies = {idx[z] for z in z_orig}
    gadget_internals = []
    for tgt in [h for h in range(gadget_v) if h not in z_copies] + [gadget_v_prime]:
        inner = list(range(next_id, next_id + r - 1))
        next_id += r - 1
        gadget_internals.extend(inner)
        chain = [gadget_v, *inner, tgt]
        edges.extend(zip(chain, chain[1:]))
    return {
        "graph": build_graph(next_id, edges),
        "z_ids": {z: idx[z] for z in z_orig},
        "y_ids": {y: idx[y] for y in y_orig},
        "gadget": (gadget_v, gadget_v_prime, tuple(gadget_internals)),
        "path_internals": tuple(path_internals),
    }


def test_r1_kernel_equals_the_fresh_path_construction():
    # at r = 1 a path has no inner vertex, so nothing is shared or renamed
    cases = [(g, z) for g, z, _ in _property_instances()]
    cases += [(g, range(g.n)) for g in seeded_graphs()]
    for g, z in cases:
        reps = reduce_dominators(g, z, 1)
        ki = build_kernel(g, z, reps, 1, 1)
        want = fresh_path_kernel(g, z, reps, 1)
        assert ki.graph.adj == want["graph"].adj
        assert ki.z_ids == want["z_ids"] and ki.y_ids == want["y_ids"]
        assert (ki.gadget_v, ki.gadget_v_prime, ki.gadget_internals) == want["gadget"]
        assert ki.path_internals == want["path_internals"] == ()


# Small parameter ranges for every generator family, so that exact_drds
# can search G and H.
FAMILY_PARAMS = {
    "grid": {"w": (2, 7), "h": (2, 5)},
    "path": {"n": (4, 30)},
    "cycle": {"n": (4, 30)},
    "star": {"p": (1, 12)},
    "stars": {"k": (1, 4), "p": (1, 4)},
    "random_bounded_degree": {"n": (6, 24), "d": (1, 3), "seed": (0, 1 << 16)},
    "random_degenerate": {"n": (6, 24), "c": (1, 2), "seed": (0, 1 << 16)},
    "halfgraph": {"k": (1, 7)},
    "clique": {"n": (1, 8)},
    "biclique": {"s": (1, 4), "t": (1, 5)},
}


def test_family_params_cover_every_family():
    assert set(FAMILY_PARAMS) == set(generators._FAMILIES)


@st.composite
def kernel_cases(draw):
    """(G, r, k, a random subset of V(G)) over every generator family."""
    family = draw(st.sampled_from(sorted(FAMILY_PARAMS)))
    params = {
        name: draw(st.integers(lo, hi))
        for name, (lo, hi) in FAMILY_PARAMS[family].items()
    }
    g = generate(GenSpec(family, params))
    keep = draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    subset = [v for v in range(g.n) if keep[v]]
    r = draw(st.sampled_from((1, 2, 3)))
    return g, r, draw(st.integers(1, 3)), subset


def z_dominated(g, z, r, k):
    """Whether some k vertices of G r-dominate every vertex of z."""
    want = sum(1 << v for v in set(z))
    balls = [sum(1 << u for u in distances_from(g, v, r)) & want for v in range(g.n)]
    return any(
        functools.reduce(operator.or_, (balls[v] for v in X), 0) == want
        for X in itertools.combinations(range(g.n), min(k, g.n))
    )


def check_kernel(g, z, r, k, answer):
    reps = reduce_dominators(g, z, r)
    ki = build_kernel(g, z, reps, r, k)
    assert ki.projection_ok
    assert (exact_drds(ki.graph, r, ki.k_new) is not None) == answer
    # the gadget has one path of length r per non-Z vertex taken from G and
    # one to v'; every other vertex of H is a distinct vertex of G
    from_g = ki.gadget_v - len(ki.z_ids)
    assert ki.graph.n <= g.n + 2 + (r - 1) * (from_g + 1)
    assert ki.graph.n <= fresh_path_kernel(g, z, reps, r)["graph"].n


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_kernel_keeps_the_answer_on_every_family(case):
    g, r, k, subset = case
    try:
        z = domination_core(g, CoreConfig(r=r, k=k, ell=k + 2)).Z
    except DensityError:
        # the sieve refused; V(G) is always a sound core
        z = range(g.n)
    check_kernel(g, z, r, k, exact_drds(g, r, k) is not None)
    # on any Z, H at budget k + 1 answers whether k vertices dominate Z
    check_kernel(g, subset, r, k, z_dominated(g, subset, r, k))


@st.composite
def pipeline_cases(draw):
    """(G, r, k, ell) over every generator family: a tight ``ell`` starts
    the sieve on a small window, the default one on all of these small
    graphs."""
    g, r, k, _ = draw(kernel_cases())
    return g, r, k, draw(st.sampled_from((k + 2, None)))


@settings(max_examples=150, deadline=None)
@given(pipeline_cases())
def test_pipeline_kernel_never_exceeds_n_plus_one(case):
    g, r, k, ell = case
    try:
        core, reps, ki = kernel_pipeline(g, CoreConfig(r=r, k=k, ell=ell))
    except DensityError:
        return  # the sieve refused; no kernel to check
    built = build_kernel(g, core.Z, reps, r, k)
    # (a) no kernel is larger than its input plus the one forced vertex
    assert ki.graph.n <= g.n + 1
    # (b) the same answer at budget k + 1
    assert (exact_drds(ki.graph, r, ki.k_new) is not None) == (
        exact_drds(g, r, k) is not None
    )
    # (c) the identity kernel exactly when the construction is too large
    assert (ki.kind == "identity") == (built.graph.n > g.n + 1)
    if ki.kind == "identity":
        assert ki.graph.adj == g.adj + ((),)
        assert ki.z_ids == ki.y_ids == {v: v for v in range(g.n)}
        assert ki.gadget_ids == (g.n,) and ki.k_new == k + 1
    else:
        assert ki.graph.adj == built.graph.adj
        assert dataclasses.replace(ki, graph=built.graph) == built
    # (d) each batch split removes its bucket's smallest members and keeps
    # the k + 1 largest
    for rec in core.removal_log:
        assert rec.removed == rec.bucket[: len(rec.removed)]
        assert set(rec.bucket[-(k + 1):]).isdisjoint(rec.removed)


# Batch |V(H)| at criterion-5 settings (40-wide grids, r = 1, arity 2), by k,
# for heights 16, 24 and 40.
BATCH_SIZES = {
    2: (15, 13, 15),
    3: (17, 17, 17),
    4: (23, 23, 23),
    5: (27, 27, 27),
    6: (32, 29, 31),
    7: (35, 35, 35),
    8: (41, 41, 41),
}


def test_batch_kernels_stay_within_the_single_mode_size():
    for k, want in BATCH_SIZES.items():
        cfg = CoreConfig(r=1, k=k, ell=max(12 * (k + 2), 64), uqw=UqwConfig(delta_k=2))
        got = []
        for h in (16, 24, 40):
            g = generate(GenSpec("grid", {"w": 40, "h": h}))
            ki = kernel_pipeline(g, cfg)[2]
            assert ki.kind == "sieve" and ki.projection_ok
            got.append(ki.graph.n)
        assert tuple(got) == want, k
        # criterion 5's single-mode size, the same on every height
        g = generate(GenSpec("grid", {"w": 40, "h": 16}))
        z = domination_core(g, cfg, batch=False).Z
        single = build_kernel(g, z, reduce_dominators(g, z, 1), 1, k).graph.n
        assert single == 4 * k + 9
        assert max(got) <= single


def kernel_file(ki):
    """The kernel file ``kernelize --out`` writes for ``ki``."""
    return kernel_text(
        ki.graph, ki.k_new, sorted(ki.z_ids.values()), sorted(ki.y_ids.values()),
        list(ki.gadget_ids),
    )


@settings(max_examples=100, deadline=None)
@given(pipeline_cases())
def test_kernel_floor_skips_only_kernels_that_would_be_discarded(case):
    g, r, k, ell = case
    cfg = CoreConfig(r=r, k=k, ell=ell)
    try:
        core, reps, ki = kernel_pipeline(g, cfg)
    except DensityError:
        return  # the sieve refused; no kernel to check
    built = build_kernel(g, core.Z, reps, r, k)
    assert kernelize_module._kernel_floor(core.Z, reps.Y, r) <= built.graph.n
    assert ki.projection_ok
    # the same file as a pipeline that always builds H
    with mock.patch.object(kernelize_module, "_kernel_floor", lambda *args: 0):
        always = kernel_pipeline(g, cfg)[2]
    assert kernel_file(ki) == kernel_file(always)


def test_identity_kernel_of_a_degenerate_graph_is_never_built(monkeypatch):
    # 65 vertices at ell = 64, as on the degenerate-r1 workload: Z ∪ Y is
    # all of V(G), so the floor n + 2 already exceeds n + 1
    g = generate(GenSpec("random_degenerate", {"n": 65, "c": 2, "seed": 11}))
    calls = []
    monkeypatch.setattr(
        kernelize_module, "build_kernel", lambda *args: calls.append(args)
    )
    core, reps, ki = kernel_pipeline(g, CoreConfig(r=1, k=2, ell=64, uqw=UqwConfig(delta_k=4)))
    assert calls == []
    assert len(core.Z) == 64
    assert ki.kind == "identity" and ki.graph.n == 66 and ki.projection_ok
