"""Build script: compiles the optional native kernel extension.

The package works without the extension (a pure-Python twin is selected at
import time), so the extension is optional: a failed compile degrades the
install instead of breaking it.
"""

from __future__ import annotations

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "quasiwide._kernels._native",
            ["src/quasiwide/_kernels/_native.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
