"""The result checks of ``quasiwide.check``: each accepts a correct result
and rejects a corrupted one, and the solver's branching check stays active
under ``python -O``."""

import subprocess
import sys

import pytest

import quasiwide
from quasiwide import check, uqw
from quasiwide.check import check_cds_branch, verify_cds, verify_drds, verify_steiner
from quasiwide.errors import InternalError
from quasiwide.generators import GenSpec, generate
from quasiwide.graph import build_graph


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
