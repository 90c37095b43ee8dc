"""Sparse-graph algorithms toolkit.

Four layers, from primitive to composite:

- ``graph`` / ``generators`` / ``io``: adjacency-list graphs, seeded graph
  families, edge-list files.
- ``logic``: the bounded formula family, indiscernibility oracle, and
  type-tree subsequence extraction.
- ``uqw``: the uniform quasi-wideness splitter (small deletion set S, large
  r-independent B).
- ``kernelize`` / ``solvers``: the distance-r dominating set kernelization
  pipeline and the exact/FPT domination and Steiner solvers.

``check`` holds the independent re-verification of every result.

The compute-heavy inner loops live in ``quasiwide._kernels``. Their
pure-Python implementation always works; type-tree rounds with three or
more free slots run compiled when the optional extension is built.
"""

from importlib import import_module

# Each re-exported name, under the submodule that defines it. A name's
# submodule is imported the first time the name is looked up (PEP 562), so
# importing one submodule, say ``quasiwide.io``, loads only what it needs.
_SOURCES = {
    "errors": (
        "ConfigError", "DensityError", "InfeasibleError", "InputError", "InternalError",
        "QuasiwideError",
    ),
    "generators": ("GenSpec", "SplitMix64", "generate"),
    "graph": (
        "INF", "Contraction", "Graph", "adjacent", "bfs_limited", "build_graph",
        "contract_balls", "distance_vector", "is_r_independent",
    ),
    "kernelize": (
        "CoreConfig", "DominationCore", "KernelInstance", "Representatives", "build_kernel",
        "domination_core", "find_irrelevant_dominatee", "kernel_pipeline", "reduce_dominators",
    ),
    "logic": (
        "FormulaId", "FormulaKind", "delta_k", "eval_formula",
        "extract_indiscernible", "is_indiscernible", "ladder_index",
    ),
    "solvers": ("SteinerInstance", "brute_cds", "cds_fpt", "dreyfus_wagner", "exact_drds"),
    "uqw": ("UqwConfig", "UqwResult", "uqw_split", "uqw_verify"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))


__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]
