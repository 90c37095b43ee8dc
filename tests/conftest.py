"""Fixtures shared across test modules: the compiled type-tree round.

Where the extension is not built, ``native_so`` compiles the tracked
``_native.c`` into a temporary directory with the system C compiler; it
skips only when the compiler or ``Python.h`` is missing. ``native`` loads
that module under its package name for one test module and yields the
wrapper that routes rounds to it.
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

NATIVE = "quasiwide._kernels._native"
WRAP = "quasiwide._kernels.native_wrap"


def _compile_native(out_dir: Path) -> Path:
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]})")
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").exists():
        pytest.skip(f"Python.h not found in {include}")
    source = Path(K.__file__).with_name("_native.c")
    target = out_dir / ("_native" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [*cc, "-O2", "-shared", "-fPIC", "-I", include, str(source), "-o", str(target)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return target


@pytest.fixture(scope="session")
def native_so(tmp_path_factory) -> Path:
    """The compiled extension: the built one, else a fresh compile."""
    spec = importlib.util.find_spec(NATIVE)
    if spec is not None:
        return Path(spec.origin)
    return _compile_native(tmp_path_factory.mktemp("native"))


@pytest.fixture(scope="module")
def native(native_so):
    if NATIVE in sys.modules:
        injected = False
    else:
        spec = importlib.util.spec_from_file_location(NATIVE, native_so)
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
