"""The package namespace: re-exports resolve on first use, so importing a
light submodule does not load the pipeline."""

import importlib
import subprocess
import sys

import pytest

import quasiwide

PIPELINE = (
    "quasiwide.kernelize",
    "quasiwide.uqw",
    "quasiwide.logic",
    "quasiwide.solvers",
    "quasiwide.check",
    "quasiwide._kernels",
)


def test_graph_files_load_without_the_pipeline():
    # what the benchmark's set-up child imports to write its inputs;
    # dataclasses pulls in inspect, which costs more than the graph modules
    code = (
        "import sys, quasiwide.generators, quasiwide.io; "
        f"print([m for m in {(*PIPELINE, 'dataclasses')!r} if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_reexports_resolve_to_their_modules():
    for name in quasiwide.__all__:
        if name == "__version__":
            continue
        value = getattr(quasiwide, name)
        module = importlib.import_module(f"quasiwide.{quasiwide._MODULE_OF[name]}")
        assert value is getattr(module, name)
    namespace = {}
    exec("from quasiwide import *", namespace)
    assert set(quasiwide.__all__) <= set(namespace)
    assert "reduce_dominators" in dir(quasiwide)
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        quasiwide.nothing
