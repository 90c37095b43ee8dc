"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained: it builds its seeded corpus, runs the library
surface under test against an independent oracle (exhaustive enumeration,
BFS recheck, or a rerun byte-compare), asserts the guarantee with its time
budget, and prints a single summary line."""

import itertools
import json
import subprocess
import sys
import time

from quasiwide._kernels import nr_masks
from quasiwide.errors import DensityError
from quasiwide.generators import GenSpec, SplitMix64, generate
from quasiwide.graph import build_graph, distances_from, is_r_independent
from quasiwide.kernelize import (
    CoreConfig,
    build_kernel,
    domination_core,
    kernel_pipeline,
    reduce_dominators,
)
from quasiwide.logic import delta_k, extract_indiscernible, is_indiscernible, ladder_index
from quasiwide.solvers import (
    SteinerInstance,
    brute_cds,
    cds_fpt,
    dreyfus_wagner,
    exact_drds,
)
from quasiwide.uqw import UqwConfig, uqw_split, uqw_verify

CLI = [sys.executable, "-m", "quasiwide.cli"]


def _sample_distinct(rng: SplitMix64, n: int, count: int) -> list[int]:
    pool = list(range(n))
    out = []
    for _ in range(count):
        out.append(pool.pop(rng.below(len(pool))))
    return out


def _report(line: str) -> None:
    print(line)


# --- 1: extraction passes the indiscernibility oracle -------------------------


def test_criterion_1_extraction_oracle():
    t0 = time.perf_counter()
    for seed in range(200):
        n = 8 + seed % 33  # 8..40
        g = generate(
            GenSpec("random_degenerate", {"n": n, "c": 1 + seed % 3, "seed": seed})
        )
        rng = SplitMix64(seed)
        seq = _sample_distinct(rng, n, 1 + rng.below(min(20, n)))
        delta = delta_k(2 + seed % 2)
        out = extract_indiscernible(g, seq, delta)
        assert len(out) >= 1
        it = iter(seq)
        assert all(any(x == y for y in it) for x in out), (
            f"seed {seed}: output is not an ordered subsequence"
        )
        assert is_indiscernible(g, out, delta), f"seed {seed}: oracle rejected output"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(
        f"criterion 1: PASS — 200 seeded extractions all pass the oracle "
        f"({elapsed:.1f}s < 120s)"
    )


# --- 2: splitter successes verify ---------------------------------------------


def test_criterion_2_uqw_splits_verify():
    t0 = time.perf_counter()
    cfg = UqwConfig(delta_k=2)
    successes = star_instances = 0
    for i in range(200):
        r = 1 + i % 4
        kind = i % 3
        if kind == 0:
            g = generate(
                GenSpec("grid", {"w": 4 + i % 13, "h": 4 + (i // 3) % 13})
            )
        elif kind == 1:
            g = generate(
                GenSpec(
                    "random_degenerate",
                    {"n": 30 + (i * 7) % 271, "c": 1 + i % 3, "seed": i},
                )
            )
        else:
            ks, p = 2 + i % 4, 3 + i % 5
            g = generate(GenSpec("stars", {"k": ks, "p": p}))
        try:
            res = uqw_split(g, list(range(g.n)), r, cfg)
        except DensityError:
            continue  # a certified refusal is not a success case
        assert uqw_verify(g, res, list(range(g.n)), r), f"instance {i} failed verify"
        successes += 1
        if kind == 2:
            # on disjoint stars the deletion set must be the centers whose
            # stars kept >= 2 surviving leaves, up to independence-equivalence
            bset = set(res.B)
            expected = set()
            for c in range(ks):
                base = c * (p + 1)
                leaves = set(range(base + 1, base + p + 1))
                if len(leaves & bset) >= 2:
                    expected.add(base)
            if set(res.S) != expected:
                assert is_r_independent(g, res.B, r, forbidden=frozenset(expected)), (
                    f"instance {i}: S={sorted(res.S)} not equivalent to "
                    f"{sorted(expected)}"
                )
            star_instances += 1
    elapsed = time.perf_counter() - t0
    assert successes == 200, f"only {successes}/200 splits succeeded"
    assert star_instances >= 50
    assert elapsed < 300.0
    _report(
        f"criterion 2: PASS — 200/200 splits verified, star law held on "
        f"{star_instances} star instances ({elapsed:.1f}s < 300s)"
    )


# --- 3: exhaustive core soundness ----------------------------------------------


def test_criterion_3_core_soundness_exhaustive():
    t0 = time.perf_counter()
    specs = [
        GenSpec("grid", {"w": 4, "h": 4}),
        GenSpec("grid", {"w": 6, "h": 4}),
        GenSpec("grid", {"w": 8, "h": 3}),
        GenSpec("path", {"n": 24}),
        GenSpec("cycle", {"n": 24}),
        GenSpec("star", {"p": 12}),
        GenSpec("stars", {"k": 2, "p": 5}),
        GenSpec("stars", {"k": 3, "p": 3}),
        GenSpec("halfgraph", {"k": 3}),
        GenSpec("clique", {"n": 8}),
        GenSpec("biclique", {"s": 3, "t": 5}),
        GenSpec("random_degenerate", {"n": 20, "c": 2, "seed": 11}),
        GenSpec("random_degenerate", {"n": 24, "c": 3, "seed": 12}),
    ]
    combos = 0
    for spec in specs:
        g = generate(spec)
        assert g.n <= 24
        for r in (1, 2):
            masks = nr_masks(g, r)
            full = (1 << g.n) - 1
            for k in (1, 2, 3):
                core = domination_core(g, CoreConfig(r=r, k=k, ell=k + 2))
                zmask = 0
                for z in core.Z:
                    zmask |= 1 << z
                # full enumeration of every budget-k candidate set
                for size in range(k + 1):
                    for X in itertools.combinations(range(g.n), size):
                        cover = 0
                        for x in X:
                            cover |= masks[x]
                        if cover & zmask == zmask:
                            assert cover == full, (
                                f"{spec.family} r={r} k={k}: {X} dominates the "
                                f"core but not the graph"
                            )
                combos += 1
    elapsed = time.perf_counter() - t0
    assert combos == len(specs) * 6
    assert elapsed < 600.0
    _report(
        f"criterion 3: PASS — {combos} (graph, r, k) cores exhaustively sound "
        f"({elapsed:.1f}s < 600s)"
    )


# --- 4: kernel preserves the decision -------------------------------------------


def test_criterion_4_kernel_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for i in range(60):  # radius 1, up to 60 vertices
        n = 20 + (i * 5) % 41
        k = 1 + i % 5
        g = generate(
            GenSpec("random_degenerate", {"n": n, "c": 1 + i % 3, "seed": 1000 + i})
        )
        ki = kernel_pipeline(g, CoreConfig(r=1, k=k, ell=max(16, k + 2)))[2]
        assert ki.projection_ok
        yes_g = exact_drds(g, 1, k) is not None
        yes_h = exact_drds(ki.graph, 1, ki.k_new) is not None
        assert yes_g == yes_h, f"r=1 instance {i}: {yes_g} became {yes_h}"
        checked += 1
    for i in range(40):  # radius 2, smaller hosts
        n = 12 + i % 12
        k = 1 + i % 2
        g = generate(
            GenSpec("random_degenerate", {"n": n, "c": 1 + i % 2, "seed": 2000 + i})
        )
        ki = kernel_pipeline(g, CoreConfig(r=2, k=k, ell=16))[2]
        assert ki.projection_ok
        yes_g = exact_drds(g, 2, k) is not None
        yes_h = exact_drds(ki.graph, 2, ki.k_new) is not None
        assert yes_g == yes_h, f"r=2 instance {i}: {yes_g} became {yes_h}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 100
    assert elapsed < 900.0
    _report(
        f"criterion 4: PASS — 100/100 kernels answer-equivalent with "
        f"projection_ok ({elapsed:.1f}s < 900s)"
    )


# --- 5: kernel size does not depend on n -----------------------------------------


def test_criterion_5_kernel_size_n_independent():
    t0 = time.perf_counter()
    table = {}
    for k in range(2, 9):
        ell = max(12 * (k + 2), 64)
        cfg = CoreConfig(r=1, k=k, ell=ell, uqw=UqwConfig(delta_k=2))
        sizes = []
        for h in (16, 24, 40):
            g = generate(GenSpec("grid", {"w": 40, "h": h}))
            core = domination_core(g, cfg, batch=False)
            reps = reduce_dominators(g, core.Z, 1)
            ki = build_kernel(g, core.Z, reps, 1, k)
            assert ki.projection_ok
            sizes.append(ki.graph.n)
        assert len(set(sizes)) == 1, f"k={k}: |V(H)| varies with n: {sizes}"
        table[k] = sizes[0]
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5: PASS — |V(H)| constant across grid heights 16/24/40 at "
        f"width 40 (ratio exactly 1.0) for k=2..8: {table} ({elapsed:.1f}s)"
    )


# --- 6: Steiner agreement ----------------------------------------------------------


def _steiner_oracle(g, terminals) -> int:
    ts = set(terminals)
    others = [v for v in range(g.n) if v not in ts]
    for extra in range(g.n - len(ts) + 1):
        for combo in itertools.combinations(others, extra):
            su = ts | set(combo)
            start = next(iter(su))
            seen = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for u in g.adj[v]:
                    if u in su and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if seen == su:
                return len(su) - 1
    raise AssertionError("oracle found no connected superset")


def test_criterion_6_steiner_agreement():
    t0 = time.perf_counter()
    count = 0
    seed = 0
    while count < 500:
        seed += 1
        rng = SplitMix64(seed)
        n = 6 + rng.below(7)  # 6..12
        g = generate(
            GenSpec("random_bounded_degree", {"n": n, "d": 2 + rng.below(3), "seed": seed})
        )
        terminals = _sample_distinct(rng, n, 2 + rng.below(3))  # |T| in 2..4
        reach = distances_from(g, terminals[0], n)
        if not all(t in reach for t in terminals):
            continue  # criterion covers connected instances only
        edges, cost = dreyfus_wagner(SteinerInstance(g, tuple(terminals)))
        assert cost == _steiner_oracle(g, terminals), f"seed {seed}: not minimum"
        assert len(edges) == cost
        # cost is monotone non-decreasing as terminals accumulate
        prev = 0
        for j in range(1, len(terminals) + 1):
            _, cj = dreyfus_wagner(SteinerInstance(g, tuple(terminals[:j])))
            assert cj >= prev, f"seed {seed}: cost dropped when adding a terminal"
            prev = cj
        assert prev == cost
        count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        f"criterion 6: PASS — 500 Steiner instances match exhaustive minimum, "
        f"cost monotone in terminals ({elapsed:.1f}s < 300s)"
    )


# --- 7: connected-domination agreement ----------------------------------------------


def _is_cds(g, X) -> bool:
    covered = set()
    for x in X:
        covered |= set(distances_from(g, x, 1))
    if covered != set(range(g.n)):
        return False
    if not X:
        return g.n == 0
    xs = set(X)
    start = next(iter(xs))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in g.adj[v]:
            if u in xs and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == xs


def test_criterion_7_cds_agreement():
    t0 = time.perf_counter()
    c5 = generate(GenSpec("cycle", {"n": 5}))
    assert cds_fpt(c5, 2) is None and brute_cds(c5, 2) is None
    got5 = cds_fpt(c5, 3)
    assert got5 is not None and _is_cds(c5, got5)

    checked = 0
    for i in range(300):
        j = i % 7
        if j == 0:
            spec = GenSpec(
                "random_degenerate", {"n": 6 + i % 11, "c": 1 + i % 3, "seed": 3000 + i}
            )
        elif j == 1:
            spec = GenSpec(
                "random_bounded_degree",
                {"n": 6 + i % 11, "d": 2 + i % 3, "seed": 3000 + i},
            )
        elif j == 2:
            spec = GenSpec("grid", {"w": 2 + i % 3, "h": 2 + (i // 7) % 3})
        elif j == 3:
            spec = GenSpec("path", {"n": 4 + i % 13})
        elif j == 4:
            spec = GenSpec("cycle", {"n": 4 + i % 13})
        elif j == 5:
            spec = GenSpec("star", {"p": 3 + i % 10})
        else:
            spec = GenSpec("clique", {"n": 3 + i % 8})
        g = generate(spec)
        assert g.n <= 16
        k = 1 + i % 4
        want = brute_cds(g, k)
        got = cds_fpt(g, k, K_threshold=k + 2)
        assert (got is None) == (want is None), (
            f"instance {i} ({spec.family}, k={k}): brute={want} fpt={got}"
        )
        if got is not None:
            assert len(got) <= k and _is_cds(g, got), f"instance {i}: bad witness"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 300
    assert elapsed < 600.0
    _report(
        f"criterion 7: PASS — 300 instances agree with brute force, C5 flips "
        f"no->yes at k=3 ({elapsed:.1f}s < 600s)"
    )


# --- 8: ladder index ------------------------------------------------------------------


def test_criterion_8_ladder_index():
    t0 = time.perf_counter()
    assert ladder_index(build_graph(6, []), 4) == 0
    for k in (1, 2, 3, 4):
        g = generate(GenSpec("halfgraph", {"k": k}))
        assert ladder_index(g, k + 2) == k, f"halfgraph({k})"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        f"criterion 8: PASS — ladder index exact on halfgraphs 1..4 and "
        f"edgeless ({elapsed:.1f}s < 60s)"
    )


# --- 9: deterministic CLI reruns ---------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()

    def run(*argv):
        proc = subprocess.run(
            CLI + list(argv), capture_output=True, text=True, timeout=300
        )
        assert proc.returncode in (0, 3), (argv, proc.returncode, proc.stderr)
        return proc.stdout

    graph = tmp_path / "g.el"
    run("gen", "--family", "grid", "--params", "w=6,h=5", "--out", str(graph))
    kern = tmp_path / "kern.txt"
    bench = tmp_path / "bench.csv"
    ids = tmp_path / "ids.txt"
    ids.write_text("0\n1\n2\n7\n")

    invocations = [
        ("gen", "--family", "random_degenerate", "--params", "n=30,c=2,seed=9"),
        ("uqw", "--graph", str(graph), "--A", "all", "--r", "2", "--m", "4"),
        ("uqw", "--graph", str(graph), "--A", str(ids), "--r", "1", "--m", "2"),
        ("indiscernible", "--graph", str(graph), "--seq", "all", "--delta", "2"),
        ("ladder", "--graph", str(graph), "--max-k", "4"),
        ("core", "--graph", str(graph), "--r", "1", "--k", "2", "--ell", "6"),
        ("kernelize", "--graph", str(graph), "--r", "1", "--k", "2", "--ell", "6",
         "--out", str(kern), "--verify"),
        ("solve", "--graph", str(graph), "--problem", "drds", "--r", "2", "--k", "2"),
        ("solve", "--graph", str(graph), "--problem", "cds-fpt", "--k", "4"),
        ("solve", "--graph", str(graph), "--problem", "steiner", "--terminals", "0,29"),
        ("bench", "--family", "grid", "--sizes", "4,6", "--r", "1", "--ks", "2,3",
         "--ell", "8", "--out", str(bench)),
    ]
    for argv in invocations:
        argv = argv + ("--deterministic",)
        first = run(*argv)
        files1 = {
            p.name: p.read_bytes() for p in (kern, bench) if p.exists()
        }
        second = run(*argv)
        files2 = {
            p.name: p.read_bytes() for p in (kern, bench) if p.exists()
        }
        assert first == second, f"stdout drifted for {argv[0]}"
        assert files1 == files2, f"output file drifted for {argv[0]}"
    elapsed = time.perf_counter() - t0
    _report(
        f"criterion 9: PASS — {len(invocations)} CLI invocations byte-identical "
        f"on rerun ({elapsed:.1f}s)"
    )
