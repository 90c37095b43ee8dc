"""Compare the compiled kernels against the pure-Python fallback.

Times the three hot primitives (formula evaluation, trie rounds,
reachability masks) on a configurable graph and prints the median of
repeated runs plus the speedup ratio.

Usage:
    python3 benchmarks/backend_compare.py --family grid --params w=30,h=30
    python3 benchmarks/backend_compare.py --family random_degenerate \
        --params n=400,c=3,seed=7 --repeats 7
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
    ap.add_argument("--params", default="w=20,h=20")
    ap.add_argument("--arity", type=int, default=3, choices=range(2, 9))
    ap.add_argument("--r", type=int, default=2, help="radius for the mask bench")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)

    try:
        from quasiwide._kernels import native_wrap as native
    except ImportError:
        print("compiled backend unavailable; nothing to compare", file=sys.stderr)
        return 1

    g = generate(GenSpec(args.family, parse_params(args.params)))
    seq = list(range(g.n))
    arity = args.arity
    evals = [
        tuple((j * 7919 + i) % g.n for i in range(arity)) for j in range(2000)
    ]

    # one free slot (t = 0): the last arity - 1 elements are fixed, as
    # extract_indiscernible's final round of each formula fixes them
    prefix, tail = seq[: g.n - arity + 1], seq[g.n - arity + 1 :]

    benches = {
        "eval_formula x2000": lambda be: [
            be.eval_formula(g, 1, 1, arity, t) for t in evals
        ],
        "tree_round": lambda be: be.tree_round(g, seq, 1, 1, arity, ()),
        "tree_round t=0": lambda be: be.tree_round(g, prefix, 1, 1, arity, tail),
        "tree_round edge": lambda be: be.tree_round(g, seq, 0, 0, 2, ()),
        # one signature bit per node (t = 1), the sieve's arity-2 rounds
        "tree_round phi_1^2": lambda be: be.tree_round(g, seq, 1, 1, 2, ()),
        "tree_round psi_1^2": lambda be: be.tree_round(g, seq, 2, 1, 2, ()),
        f"nr_masks r={args.r}": lambda be: be.nr_masks(g, args.r),
    }

    print(f"graph: {args.family}({args.params})  n={g.n}  arity={arity}")
    print(f"{'primitive':<22} {'pure ms':>10} {'native ms':>10} {'speedup':>8}")
    for name, bench in benches.items():
        t_pure = median_ms(lambda: bench(pure), args.repeats)
        t_native = median_ms(lambda: bench(native), args.repeats)
        ratio = t_pure / t_native if t_native > 0 else float("inf")
        print(f"{name:<22} {t_pure:>10.2f} {t_native:>10.2f} {ratio:>7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
