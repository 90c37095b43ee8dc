"""Compare the compiled type-tree round against the pure-Python one.

Times the rounds that run compiled, tail-free rounds with three or more
free slots (arity 3 and 4, empty tail), on a configurable graph and prints
the median of repeated runs plus the speedup ratio. Every other round and
primitive runs in pure on both backends. The compiled round is the C
extension ``quasiwide._kernels._native``; build it in place first with
``python3 setup.py build_ext --inplace`` (a C compiler and ``Python.h`` are
all it needs).

The default graph has 120 vertices, about one sieve window of the
benchmark's workloads; pure arity-4 rounds grow steeply with the sequence
length.

Usage:
    python3 benchmarks/backend_compare.py
    python3 benchmarks/backend_compare.py --family random_degenerate \
        --params n=120,c=2,seed=7 --repeats 7
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from quasiwide._kernels import pure
from quasiwide.generators import GenSpec, generate


def parse_params(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    if text:
        for part in text.split(","):
            key, _, value = part.partition("=")
            out[key.strip()] = int(value)
    return out


def median_ms(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(samples)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default="grid")
    ap.add_argument("--params", default="w=12,h=10")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)

    try:
        from quasiwide._kernels import native_wrap as native
    except ImportError:
        print("compiled backend unavailable; nothing to compare", file=sys.stderr)
        return 1

    g = generate(GenSpec(args.family, parse_params(args.params)))
    seq = list(range(g.n))
    benches = {
        f"tree_round {name}_1^{arity}": (
            lambda be, kind=kind, arity=arity: be.tree_round(g, seq, kind, 1, arity, ())
        )
        for arity in (3, 4)
        for kind, name in ((1, "phi"), (2, "psi"))
    }

    print(f"graph: {args.family}({args.params})  n={g.n}")
    print(f"{'primitive':<22} {'pure ms':>10} {'native ms':>10} {'speedup':>8}")
    for name, bench in benches.items():
        t_pure = median_ms(lambda: bench(pure), args.repeats)
        t_native = median_ms(lambda: bench(native), args.repeats)
        ratio = t_pure / t_native if t_native > 0 else float("inf")
        print(f"{name:<22} {t_pure:>10.2f} {t_native:>10.2f} {ratio:>7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
