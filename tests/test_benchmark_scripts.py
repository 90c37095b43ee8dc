"""Smoke tests for the timing scripts under ``benchmarks/``: they run to the
end and print every case, so a change to the code they call cannot leave
them broken unnoticed. ``backend_compare.py`` runs against the compiled
round of the ``native`` fixture (``conftest.py``)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_primitives_script_runs_every_case():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "primitives.py"), "--repeats", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 22
    assert "reduce_dominators |Y|=" in rows[-6]
    assert "build_kernel |V(H)|=" in rows[-5]
    for shape, (shared, fresh) in (("tail-free", rows[-4:-2]), ("t=3", rows[-2:])):
        assert f"tree_round {shape}, shared" in shared
        assert f"tree_round {shape}, fresh" in fresh
        # both replay the same recorded rounds
        assert shared.split()[-2] == fresh.split()[-2] != "0"


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
    assert rows[3] == "outputs byte-equal: yes"


def test_backend_compare_script_runs_every_case(native, capsys):
    # the native fixture puts the compiled round where the script imports it
    path = SCRIPTS / "backend_compare.py"
    spec = importlib.util.spec_from_file_location("backend_compare", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--repeats", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[:2] for row in rows] == [
        ["tree_round", name] for name in ("phi_1^3", "psi_1^3", "phi_1^4", "psi_1^4")
    ]
