"""Smoke tests for the timing scripts under ``benchmarks/``: they run to the
end and print every case, so a change to the code they call cannot leave
them broken unnoticed. ``primitives.py`` runs once in a subprocess, with
the compiled round only if the extension is built, and once in process
against the compiled round of the ``native`` fixture (``conftest.py``),
which adds its row; ``outputs_digest.py`` runs against this checkout."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    """The script ``benchmarks/<name>.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_primitives_script_runs_every_case():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "primitives.py"), "--repeats", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    # a built extension adds the last row, the compiled replay
    if importlib.util.find_spec("quasiwide._kernels._native") is not None:
        assert "tree_round t=3, compiled" in rows.pop()
    assert len(rows) == 26
    assert "reduce_dominators |Y|=" in rows[-10]
    assert "build_kernel |V(H)|=" in rows[-9]
    shared, fresh = rows[-2:]
    assert "tree_round t=3, shared" in shared
    assert "tree_round t=3, fresh" in fresh
    # both replay the same recorded rounds
    assert shared.split()[-2] == fresh.split()[-2] != "0"
    # one fresh row per shape of the grid sieve's tail-free rounds, which
    # together replay all of them
    assert rows[-8].startswith("grid 40x40 sieve") and "tree_round tail-free, fresh" in rows[-8]
    shapes = rows[-7:-2]
    for row, name in zip(shapes, ("edge", "phi_1^2", "phi_2^2", "psi_1^2", "psi_2^2")):
        assert row.startswith("grid 40x40 sieve") and f"tree_round {name}, fresh" in row
    assert sum(int(row.split()[-2]) for row in shapes) == int(rows[-8].split()[-2]) != 0


def test_ab_passes_script_runs_a_pair():
    root = SCRIPTS.parent
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "ab_passes.py"), "--parent", str(root),
         "--change", str(root), "--workload", "solver-mix", "--seed", "1", "--pairs", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert [row.split()[0] for row in rows[1:3]] == ["parent", "change"]
    # one pair: one side won it, unless the two times tie
    assert {row.split()[-1] for row in rows[1:3]} <= {"0/1", "1/1"}
    # one pair: its ratio is the median and both quartiles
    words = rows[3].split()
    assert words[:4] == ["change/parent", "per", "pair:", "median"]
    assert words[5::2] == ["q1", "q3"] and len(set(words[4::2])) == 1
    parent, change = (float(row.split()[1]) for row in rows[1:3])
    assert float(words[4]) == pytest.approx(change / parent, abs=0.01)
    assert rows[4] == "outputs byte-equal: yes"
    assert rows[5] in ("resolved: yes", "resolved: no")


def test_ab_passes_resolves_a_gain_by_wins_and_spread():
    script = _load("ab_passes")
    parent = [1.0, 1.1, 1.2, 1.3, 1.0, 1.1, 1.2, 1.3, 1.0, 1.1]  # quartiles 1.025, 1.2
    faster = [t - 0.3 for t in parent]
    assert script.resolved(parent, faster)
    assert script.resolved(parent, faster[:9] + parent[9:])
    # 8 wins of 10 are too few, and a tie counts for neither side
    assert not script.resolved(parent, faster[:8] + [t + 0.1 for t in parent[8:]])
    assert not script.resolved(parent, faster[:8] + parent[8:])
    # every pair won, but by less than the parent's spread
    assert not script.resolved(parent, [t - 0.1 for t in parent])


def test_primitives_script_times_the_compiled_round(native, capsys, monkeypatch):
    # the native fixture puts the compiled round where the script imports it
    script = _load("primitives")
    # every compiled replay gets a graph of its own
    graphs = []
    real = native.tree_round

    def record(g, *args):
        graphs.append(g)
        return real(g, *args)

    monkeypatch.setattr(native, "tree_round", record)
    assert script.main(["--repeats", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 27
    shared, fresh, compiled = rows[-3:]
    assert "tree_round t=3, shared" in shared and "tree_round t=3, fresh" in fresh
    assert compiled.startswith("degenerate n=65 sieve") and "tree_round t=3, compiled" in compiled
    # it replays the rounds that the pure rows replay
    calls = int(compiled.split()[-2])
    assert calls == int(shared.split()[-2]) == int(fresh.split()[-2]) != 0
    assert len(graphs) == calls and len({id(g) for g in graphs}) == calls


def test_outputs_digest_script_runs_every_command(tmp_path):
    root = SCRIPTS.parent
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "outputs_digest.py"), "--seed", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    script = _load("outputs_digest")
    expected = sum(len(commands) for _, commands in script.TABLES)
    for workload in script.WORKLOADS:
        subprocess.run(
            [sys.executable, str(root / "perfbench" / "workloads.py"),
             "--workload", workload, "--seed", "1", "--out", str(tmp_path / workload)],
            env=dict(os.environ, PYTHONPATH=str(root / "src")), check=True, timeout=300,
        )
        expected += len(json.loads((tmp_path / workload / "manifest.json").read_text()))
    assert len(lines) == expected
    for line in lines:
        # each line is its group, then the command's exit code
        assert line.split()[1].isdigit(), line
        assert "raised-" not in line
