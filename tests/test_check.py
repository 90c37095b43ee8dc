"""The result checks of ``quasiwide.check``: each accepts a correct result
and rejects a corrupted one, and the solver's branching check stays active
under ``python -O``."""

import dataclasses
import subprocess
import sys

import pytest

import quasiwide
from quasiwide import check, uqw
from quasiwide.check import (
    check_cds_branch,
    recheck_core,
    recheck_representatives,
    verify_cds,
    verify_drds,
    verify_steiner,
)
from quasiwide.errors import InternalError
from quasiwide.generators import GenSpec, generate
from quasiwide.graph import bfs_limited, build_graph
from quasiwide.kernelize import (
    CoreConfig,
    DominationCore,
    Removal,
    domination_core,
    reduce_dominators,
)
from quasiwide.uqw import UqwConfig


def star(p):
    return generate(GenSpec("star", {"p": p}))


def test_verify_drds_and_cds():
    path = generate(GenSpec("path", {"n": 5}))
    assert verify_drds(path, {1, 3}, 1)
    assert not verify_drds(path, {1}, 1)
    assert verify_drds(path, {2}, 2)
    assert not verify_drds(path, set(), 1)
    assert verify_drds(build_graph(0, []), set(), 1)
    # {0, 3} dominates P5 but does not induce a connected subgraph
    assert not verify_cds(path, {0, 3})
    assert verify_cds(path, {1, 2, 3})
    assert verify_cds(build_graph(0, []), set())


def test_verify_steiner():
    g = generate(GenSpec("grid", {"w": 3, "h": 3}))
    # the path 0-1-2-5 spans terminals 0 and 5
    tree = [(0, 1), (1, 2), (2, 5)]
    assert verify_steiner(g, [0, 5], tree, 3)
    assert verify_steiner(g, [4], [], 0)
    # a cycle: the 4-cycle 0-1-4-3 spends four edges on four vertices
    assert not verify_steiner(g, [0, 4], [(0, 1), (1, 4), (4, 3), (0, 3)], 4)
    # a forest: two edges on four vertices
    assert not verify_steiner(g, [0, 5], [(0, 1), (2, 5)], 2)
    # a non-edge: 0 and 4 are diagonal in the grid
    assert not verify_steiner(g, [0, 5], [(0, 4), (4, 5)], 2)
    # a missing terminal: 8 is not on the path
    assert not verify_steiner(g, [0, 5, 8], tree, 3)
    # a wrong cost
    assert not verify_steiner(g, [0, 5], tree, 4)
    # the same edge twice in both orientations is one edge, not a tree of two
    assert not verify_steiner(g, [0, 1], [(0, 1), (1, 0)], 2)


def test_dreyfus_wagner_raises_on_a_wrong_tree(monkeypatch):
    from quasiwide import solvers
    from quasiwide.solvers import SteinerInstance, dreyfus_wagner

    monkeypatch.setattr(solvers, "verify_steiner", lambda *args: False)
    with pytest.raises(InternalError, match="not a tree of the reported cost"):
        dreyfus_wagner(SteinerInstance(generate(GenSpec("path", {"n": 4})), (0, 3)))


def test_recheck_core_needs_an_independent_bucket():
    # on a path every vector to no anchors is (), but 0, 1 and 2 are
    # pairwise within 2r = 2
    g = generate(GenSpec("path", {"n": 10}))
    cfg = CoreConfig(r=1, k=1)
    rec = Removal(removed=(0,), bucket=(0, 1, 2), anchors=())
    assert not recheck_core(g, DominationCore(Z=frozenset(range(1, 10)), removal_log=(rec,)), cfg)
    rec = Removal(removed=(0,), bucket=(0, 3, 6), anchors=())
    assert recheck_core(g, DominationCore(Z=frozenset(range(1, 10)), removal_log=(rec,)), cfg)
    # one vertex three times is not three lookalikes
    rec = Removal(removed=(0,), bucket=(0, 0, 0), anchors=())
    assert not recheck_core(g, DominationCore(Z=frozenset(range(1, 10)), removal_log=(rec,)), cfg)


def test_recheck_core_rejects_an_anchor_outside_the_graph():
    g = generate(GenSpec("path", {"n": 10}))
    rec = Removal(removed=(0,), bucket=(0, 3, 6), anchors=(999,))
    core = DominationCore(Z=frozenset(range(1, 10)), removal_log=(rec,))
    assert not recheck_core(g, core, CoreConfig(r=1, k=1))


GRID12 = generate(GenSpec("grid", {"w": 12, "h": 12}))
GRID12_CFG = CoreConfig(r=1, k=2, ell=16, uqw=UqwConfig(delta_k=2))
# the 12x12 grid's first bucket: pairwise 4 or more apart, vectors all ()
BUCKET = (0, 4, 8, 23, 26, 30)


def _grid12_core(*log):
    removed = {w for rec in log for w in rec.removed}
    return DominationCore(Z=frozenset(range(GRID12.n)) - removed, removal_log=log)


def test_recheck_core_replays_the_log():
    keep3 = Removal(removed=(30, 26, 23), bucket=BUCKET, anchors=())
    assert recheck_core(GRID12, _grid12_core(keep3), GRID12_CFG)
    # (a) the whole bucket removed leaves none of its k + 1 behind
    whole = Removal(removed=BUCKET[::-1], bucket=BUCKET, anchors=())
    assert not recheck_core(GRID12, _grid12_core(whole), GRID12_CFG)
    # (b) a later bucket holding a vertex an earlier record removed
    first = Removal(removed=(30,), bucket=BUCKET, anchors=())
    again = Removal(removed=(26,), bucket=BUCKET, anchors=())
    assert recheck_core(GRID12, _grid12_core(first), GRID12_CFG)
    assert not recheck_core(GRID12, _grid12_core(first, again), GRID12_CFG)
    # (c) a removed vertex outside its bucket
    outside = Removal(removed=(1,), bucket=BUCKET, anchors=())
    assert not recheck_core(GRID12, _grid12_core(outside), GRID12_CFG)
    # (d) one vertex removed twice in one record
    twice = Removal(removed=(30, 30), bucket=BUCKET, anchors=())
    assert not recheck_core(GRID12, _grid12_core(twice), GRID12_CFG)
    # (e) a core whose Z is not the replay's
    core = domination_core(GRID12, GRID12_CFG)
    assert recheck_core(GRID12, core, GRID12_CFG)
    for z in (core.Z - {min(core.Z)}, core.Z | {30}):
        forged = dataclasses.replace(core, Z=z)
        assert not recheck_core(GRID12, forged, GRID12_CFG)


@pytest.mark.parametrize(
    "family,params,r,k,ell",
    [
        ("grid", {"w": 12, "h": 12}, 1, 2, 16),
        ("grid", {"w": 12, "h": 12}, 2, 2, 16),
        ("stars", {"k": 3, "p": 20}, 1, 3, 12),
        ("stars", {"k": 3, "p": 20}, 2, 3, 12),
        ("path", {"n": 60}, 2, 2, 8),
        ("cycle", {"n": 60}, 1, 2, 8),
        ("random_bounded_degree", {"n": 60, "d": 3, "seed": 2}, 1, 2, 16),
    ],
)
def test_recheck_core_accepts_both_sieve_modes(family, params, r, k, ell):
    g = generate(GenSpec(family, params))
    cfg = CoreConfig(r=r, k=k, ell=ell, uqw=UqwConfig(delta_k=2))
    for batch in (True, False):
        core = domination_core(g, cfg, batch=batch)
        assert core.removal_log
        assert recheck_core(g, core, cfg)


def test_recheck_representatives():
    g = generate(GenSpec("grid", {"w": 5, "h": 4}))
    z = [0, 3, 6, 9, 12, 15, 18]
    reps = reduce_dominators(g, z, 1)
    assert recheck_representatives(g, z, reps, 1)
    # a vertex sent to a representative that misses part of its projection
    v = next(v for v in range(g.n) if v not in reps.Y and v in z)
    wrong = next(y for y in sorted(reps.Y) if v not in reps.projection[y])
    class_of = {**reps.class_of, v: wrong}
    assert not recheck_representatives(g, z, dataclasses.replace(reps, class_of=class_of), 1)
    # a target that is no representative
    class_of = {**reps.class_of, v: v}
    assert not recheck_representatives(g, z, dataclasses.replace(reps, class_of=class_of), 1)
    # a representative whose projection lies inside another's
    own = tuple(sorted(set(z) & bfs_limited(g, [v], 1)))
    assert set(own) < set(reps.projection[reps.class_of[v]])
    extra = dataclasses.replace(
        reps, Y=reps.Y | {v}, projection={**reps.projection, v: own}
    )
    assert not recheck_representatives(g, z, extra, 1)
    # a recorded projection that is not the vertex's own
    y = min(reps.Y)
    projection = {**reps.projection, y: reps.projection[y][1:]}
    assert not recheck_representatives(g, z, dataclasses.replace(reps, projection=projection), 1)


def test_uqw_verify_is_reexported():
    assert uqw.uqw_verify is check.uqw_verify is quasiwide.uqw_verify


def test_check_cds_branch():
    g = star(8)
    # every connected dominating set of size <= 2 holds the center
    check_cds_branch(g, 2, [], {0})
    with pytest.raises(InternalError, match=r"set \[0\] misses the branching set \[1\]"):
        check_cds_branch(g, 2, [], {1})
    # above 14 vertices nothing is enumerated
    check_cds_branch(star(14), 2, [], {1})


def test_cds_fpt_checks_its_branching_set_under_optimize():
    # A splitter that names the wrong deletion set must be caught even when
    # the interpreter drops assert statements.
    code = """
from quasiwide import solvers
from quasiwide.errors import InternalError
from quasiwide.generators import GenSpec, generate
from quasiwide.uqw import UqwResult

solvers.uqw_split = lambda *args: UqwResult(
    S=frozenset({1}), B=(2, 3, 4), rounds=()
)
try:
    solvers.cds_fpt(generate(GenSpec("star", {"p": 8})), 2, K_threshold=4)
except InternalError as exc:
    print("refused:", exc)
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "refused: connected dominating set [0] misses the branching set [1]"
    )
