"""Seeded inputs for the decide-by-kernel benchmark.

``build(workload, seed, outdir)`` generates every input graph of one workload
with quasiwide's own generators, writes each as an edge-list file, and
returns the pass: the CLI commands to run, in order, each with the facts its
check needs. Run as a script, it does the same and writes the pass to
``manifest.json``; ``run.py`` times that script to measure set-up.

The seed picks which instances are generated, never how many or of what
kind, so every seed gives a pass of the same shape and of similar cost.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from quasiwide.generators import GenSpec, generate
from quasiwide.io import save_graph

import check

WORKLOADS = ("grid-r1", "degenerate-r1", "solver-mix")


class _Pass:
    def __init__(self, outdir: Path) -> None:
        self.outdir = outdir
        self.ops: list[dict] = []

    def graph(self, name: str, family: str, params: dict) -> str:
        """Generate and write one input; returns its path."""
        path = self.outdir / f"{name}.el"
        save_graph(generate(GenSpec(family, params)), path)
        return str(path)

    def decide(self, graph: str, family: str, r: int, k: int, extra: tuple = ()) -> None:
        """kernelize, then solve drds on the kernel with budget k + 1."""
        kern = f"{graph[:-3]}-k{k}.kern"
        self.ops.append({
            "argv": ["kernelize", "--graph", graph, "--r", str(r), "--k", str(k),
                     *extra, "--out", kern],
            "check": {"kind": "kernelize", "graph": graph, "kernel": kern, "k": k},
        })
        self.ops.append({
            "argv": ["solve", "--graph", kern, "--problem", "drds",
                     "--r", str(r), "--k", str(k + 1)],
            "check": {"kind": "drds", "graph": graph, "kernel": kern,
                      "family": family, "r": r, "k": k},
        })


def _every_layer(p: _Pass) -> None:
    """Four small fixed commands, about 0.03 s in all, that run the layers a
    sieve workload never reaches (contract_balls, cds_fpt, dreyfus_wagner),
    so every per-layer time is measured on every workload."""
    path = p.graph("touch-path20", "path", {"n": 20})
    p.decide(path, "path", 2, 4, ("--ell", "16"))
    cycle = p.graph("touch-cycle10", "cycle", {"n": 10})
    p.ops.append({
        "argv": ["solve", "--graph", cycle, "--problem", "cds-fpt", "--k", "8"],
        "check": {"kind": "cds", "graph": cycle, "k": 8},
    })
    p.ops.append({
        "argv": ["solve", "--graph", cycle, "--problem", "steiner", "--terminals", "0,3,6"],
        "check": {"kind": "steiner", "graph": cycle, "terminals": [0, 3, 6]},
    })


def _grid_r1(p: _Pass, rng: random.Random) -> None:
    # Three 40-wide grids whose heights sum to 108: sieve calls grow about
    # linearly with the height, so every seed costs about the same.
    while True:
        h1, h2 = rng.randint(32, 40), rng.randint(32, 40)
        if 32 <= 108 - h1 - h2 <= 40:
            break
    for h in (h1, h2, 108 - h1 - h2):
        path = p.graph(f"grid40x{h}", "grid", {"w": 40, "h": h})
        p.decide(path, "grid", 1, 8, ("--ell", "120", "--delta-k", "2"))
    _every_layer(p)


# Graphs just above ell = 64: the sieve makes one arity-4 split of a 64-vertex
# window per graph and removes one or two vertices. The formula evaluations
# per graph vary by about 35% with the seed, so the pass needs many graphs
# to cost the same for every seed (within about 3%); at the default ell = 144
# each graph costs ten times as much and too few would fit in a run.
_DEGENERATE_SIZES = (65, 66) * 60


def _degenerate_r1(p: _Pass, rng: random.Random) -> None:
    for i, n in enumerate(_DEGENERATE_SIZES):
        path = p.graph(f"degen{i}", "random_degenerate",
                       {"n": n, "c": 2, "seed": rng.randrange(1 << 32)})
        p.decide(path, "random", 1, 2, ("--ell", "64"))
    _every_layer(p)


def _solver_mix(p: _Pass, rng: random.Random) -> None:
    # r=2 grids: their kernels are 13-14x the input, so exact_drds dominates.
    # They are the same for every seed, being most of the pass's cost.
    for w, h in ((8, 8), (8, 9), (9, 8), (9, 9)):
        path = p.graph(f"grid{w}x{h}", "grid", {"w": w, "h": h})
        p.decide(path, "grid", 2, 2, ("--ell", "16"))
    # Paths and cycles at k = gamma - 1 and gamma, so both answers occur. Per
    # radius the two lengths sum to 60, which keeps the kernel total steady.
    for r in (1, 2):
        n_path = rng.randint(24, 36)
        for family, n in (("path", n_path), ("cycle", 60 - n_path)):
            path = p.graph(f"{family}{n}-r{r}", family, {"n": n})
            gamma = check.closed_gamma(family, n, r)
            for k in (gamma - 1, gamma):
                p.decide(path, family, r, k)
    # Small random graphs, decided at r=1 only (r=2 hits a splitter refusal).
    for i in range(2):
        n = rng.randint(14, 18)
        path = p.graph(f"small{i}", "random_degenerate",
                       {"n": n, "c": 2, "seed": rng.randrange(1 << 32)})
        adj = check.parse_graph(Path(path).read_text())[0]
        gamma = check.brute_gamma(adj, 1)
        for k in (max(gamma - 1, 1), gamma):
            p.decide(path, "random", 1, k)
    # cds-fpt stays at 12 vertices or fewer: its "no" answers have a heavy
    # tail above that (a 16-vertex graph took 67 s).
    for i in range(6):
        n = rng.randint(10, 12)
        path = p.graph(f"cds{i}", "random_degenerate",
                       {"n": n, "c": 2, "seed": rng.randrange(1 << 32)})
        adj = check.parse_graph(Path(path).read_text())[0]
        gamma = check.brute_gamma(adj, 1, connected=True) or 1
        for k in (max(gamma - 1, 1), gamma):
            p.ops.append({
                "argv": ["solve", "--graph", path, "--problem", "cds-fpt", "--k", str(k)],
                "check": {"kind": "cds", "graph": path, "k": k},
            })
    for i in range(3):
        n = rng.randint(9, 12)
        path = p.graph(f"steiner{i}", "random_degenerate",
                       {"n": n, "c": 2, "seed": rng.randrange(1 << 32)})
        adj = check.parse_graph(Path(path).read_text())[0]
        # Terminals come from one component, so a tree spanning them exists.
        component = sorted(check.ball(adj, [rng.randrange(n)], n))
        terms = sorted(rng.sample(component, min(len(component), rng.randint(3, 5))))
        p.ops.append({
            "argv": ["solve", "--graph", path, "--problem", "steiner",
                     "--terminals", ",".join(map(str, terms))],
            "check": {"kind": "steiner", "graph": path, "terminals": terms},
        })


_BUILDERS = {"grid-r1": _grid_r1, "degenerate-r1": _degenerate_r1, "solver-mix": _solver_mix}


def build(workload: str, seed: int, outdir: Path) -> list[dict]:
    """Write the workload's input files under ``outdir``; return its pass."""
    outdir.mkdir(parents=True, exist_ok=True)
    p = _Pass(outdir)
    _BUILDERS[workload](p, random.Random(f"{workload}/{seed}"))
    return p.ops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    ops = build(args.workload, args.seed, args.out)
    (args.out / "manifest.json").write_text(json.dumps(ops))


if __name__ == "__main__":
    main()
