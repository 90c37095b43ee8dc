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

from .errors import (
    ConfigError,
    DensityError,
    InfeasibleError,
    InputError,
    InternalError,
    QuasiwideError,
)
from .generators import GenSpec, SplitMix64, generate
from .graph import (
    INF,
    Contraction,
    Graph,
    adjacent,
    bfs_limited,
    build_graph,
    contract_balls,
    distance_vector,
    is_r_independent,
)
from .kernelize import (
    CoreConfig,
    DominationCore,
    KernelInstance,
    Representatives,
    build_kernel,
    domination_core,
    find_irrelevant_dominatee,
    kernel_pipeline,
    reduce_dominators,
)
from .logic import (
    Delta,
    FormulaId,
    FormulaKind,
    delta_k,
    eval_formula,
    extract_indiscernible,
    is_indiscernible,
    ladder_index,
)
from .solvers import SteinerInstance, brute_cds, cds_fpt, dreyfus_wagner, exact_drds
from .uqw import UqwConfig, UqwResult, uqw_split, uqw_verify

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Contraction",
    "CoreConfig",
    "Delta",
    "DensityError",
    "DominationCore",
    "FormulaId",
    "FormulaKind",
    "GenSpec",
    "Graph",
    "INF",
    "InfeasibleError",
    "InputError",
    "InternalError",
    "KernelInstance",
    "QuasiwideError",
    "Representatives",
    "SplitMix64",
    "SteinerInstance",
    "UqwConfig",
    "UqwResult",
    "adjacent",
    "bfs_limited",
    "brute_cds",
    "build_graph",
    "build_kernel",
    "cds_fpt",
    "contract_balls",
    "delta_k",
    "distance_vector",
    "domination_core",
    "dreyfus_wagner",
    "eval_formula",
    "exact_drds",
    "extract_indiscernible",
    "find_irrelevant_dominatee",
    "generate",
    "is_indiscernible",
    "is_r_independent",
    "kernel_pipeline",
    "ladder_index",
    "uqw_split",
    "uqw_verify",
    "__version__",
]
