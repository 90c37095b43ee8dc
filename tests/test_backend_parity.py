"""The compiled type-tree round and the pure-Python one must agree bit for
bit: same trie branches on seeded random graphs plus the degenerate shapes
(tiny n, empty sequences, stars, cliques) where off-by-one word handling
would show.

Where the extension is not built, the module fixture compiles the tracked
``_native.c`` into a temporary directory with the system C compiler and
loads it under its package name for these tests only. It skips only when
the compiler, ``Python.h`` or numpy is missing.
"""

import importlib
import importlib.util
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import quasiwide._kernels as K
from kernel_graphs import seeded_graphs
from quasiwide._kernels import pure

NATIVE = "quasiwide._kernels._native"
WRAP = "quasiwide._kernels.native_wrap"

GRAPHS = seeded_graphs()


def _compile_native(out_dir: Path) -> Path:
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]})")
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").exists():
        pytest.skip(f"Python.h not found in {include}")
    numpy = pytest.importorskip("numpy")
    source = Path(K.__file__).with_name("_native.c")
    target = out_dir / ("_native" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [*cc, "-O2", "-shared", "-fPIC", "-I", include, "-I", numpy.get_include(),
         str(source), "-o", str(target)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return target


@pytest.fixture(scope="module")
def native(tmp_path_factory):
    try:
        importlib.import_module(NATIVE)
        injected = False
    except ImportError:
        target = _compile_native(tmp_path_factory.mktemp("native"))
        spec = importlib.util.spec_from_file_location(NATIVE, target)
        module = importlib.util.module_from_spec(spec)
        sys.modules[NATIVE] = module
        spec.loader.exec_module(module)
        injected = True
    try:
        yield importlib.import_module(WRAP)
    finally:
        if injected:
            # the rest of the suite keeps the backend it imported with
            for name in (WRAP, NATIVE):
                sys.modules.pop(name, None)
                attr = name.rsplit(".", 1)[1]
                if hasattr(K, attr):
                    delattr(K, attr)


def test_tree_round_agrees(native):
    for g in GRAPHS:
        seq = list(range(g.n))
        for arity in (2, 3, 4):
            for kind in (1, 2):
                for i_split in range(1, arity):
                    for tail_len in range(arity):
                        tail = tuple(range(min(tail_len, g.n)))[:tail_len]
                        if len(tail) != tail_len:
                            continue
                        want = pure.tree_round(g, seq, kind, i_split, arity, tail)
                        got = native.tree_round(g, seq, kind, i_split, arity, tail)
                        assert got == want, (g.n, kind, i_split, arity, tail)


def test_tree_round_empty_sequence(native):
    g = GRAPHS[4]
    assert native.tree_round(g, [], 1, 1, 2, ()) == pure.tree_round(g, [], 1, 1, 2, ())


def test_tree_round_edge_atom(native):
    for g in GRAPHS[:5]:
        seq = list(range(g.n))
        want = pure.tree_round(g, seq, 0, 0, 2, ())
        got = native.tree_round(g, seq, 0, 0, 2, ())
        assert got == want
        # arity-2 with a fixed tail vertex: evaluation collapses to unary
        if g.n >= 1:
            want1 = pure.tree_round(g, seq, 0, 0, 2, (0,))
            got1 = native.tree_round(g, seq, 0, 0, 2, (0,))
            assert got1 == want1


def test_tree_round_large_arity_falls_back(native):
    # arity 9 exceeds the compiled argument buffer; the wrapper must delegate
    g = GRAPHS[2]
    seq = list(range(min(g.n, 12)))
    assert native.tree_round(g, seq, 1, 4, 9, ()) == pure.tree_round(g, seq, 1, 4, 9, ())


def test_package_backend_selection():
    assert K.BACKEND in ("native", "pure")
    # only tree_round has a compiled twin
    assert K.eval_formula is pure.eval_formula
    assert K.nr_masks is pure.nr_masks
    assert K.eval_formula(GRAPHS[3], 0, 0, 2, (0, 1)) is True
