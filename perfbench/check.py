"""Independent answer checks for the decide-by-kernel benchmark.

Nothing here imports quasiwide. Graphs are read back from the edge-list and
kernel files with this module's own parser, and every reference answer comes
from this module's own BFS and brute force:

- a drds "no" (exit 3) must be backed by a greedy set of k + 1 vertices that
  are pairwise more than 2r apart in G, or, where no such set exists, by an
  exact domination number above k;
- a drds "yes" (exit 0) needs a witness that r-dominates the kernel file with
  at most k + 1 vertices, and an exact domination number of G at most k: the
  closed form ceil(n / (2r + 1)) on paths and cycles, brute force on graphs
  of at most ``BRUTE_N`` vertices;
- a cds answer must agree with a brute-force minimum connected dominating
  set, and a "yes" witness must be connected, dominating and of size <= k;
- a Steiner cost must equal the brute-force minimum, and its edges must form
  a tree of G that spans the terminals.

:func:`self_test` feeds corrupted outputs through the same path and fails
unless each is counted as a failed operation.
"""

from __future__ import annotations

import json
import math
from collections import deque
from itertools import combinations
from pathlib import Path

BRUTE_N = 24
EXIT_YES, EXIT_NO = 0, 3


def parse_graph(text: str) -> tuple[list[set[int]], dict[str, str]]:
    """Adjacency sets and ``# key=value`` headers of an edge-list file."""
    headers: dict[str, str] = {}
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                headers[key] = value
            continue
        if not line:
            continue
        if line.startswith("n="):
            n = int(line[2:])
            continue
        u, v = (int(x) for x in line.split())
        edges.append((u, v))
    if n is None:
        n = 1 + max((max(e) for e in edges), default=-1)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj, headers


def ball(adj: list[set[int]], sources, radius: int) -> set[int]:
    """Vertices within ``radius`` of some source (sources included)."""
    dist = {s: 0 for s in sources}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        if dist[u] == radius:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return set(dist)


def scattered_set(adj: list[set[int]], r: int, want: int) -> list[int]:
    """Greedy set, in id order, of up to ``want`` vertices pairwise more than
    2r apart. Each of them needs its own dominator, so ``want`` of them prove
    that no r-dominating set of size ``want - 1`` exists."""
    picked: list[int] = []
    blocked: set[int] = set()
    for v in range(len(adj)):
        if len(picked) == want:
            break
        if v not in blocked:
            picked.append(v)
            blocked |= ball(adj, [v], 2 * r)
    return picked


def _ball_masks(adj: list[set[int]], r: int) -> list[int]:
    return [sum(1 << u for u in ball(adj, [v], r)) for v in range(len(adj))]


def _connected(adj: list[set[int]], vertices) -> bool:
    vs = set(vertices)
    if len(vs) <= 1:
        return True
    start = min(vs)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


def brute_gamma(adj: list[set[int]], r: int, connected: bool = False) -> int | None:
    """Smallest r-dominating set size by exhaustive search (with
    ``connected``, the smallest connected dominating set; None if G is
    disconnected and so has none)."""
    n = len(adj)
    if n > BRUTE_N:
        raise ValueError(f"brute force is limited to {BRUTE_N} vertices, got {n}")
    if connected and not _connected(adj, range(n)):
        return None
    masks = _ball_masks(adj, r)
    full = (1 << n) - 1
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            cover = 0
            for v in combo:
                cover |= masks[v]
            if cover == full and (not connected or _connected(adj, combo)):
                return size
    return 0


def closed_gamma(family: str, n: int, r: int) -> int:
    """Distance-r domination number of a path or cycle on n vertices."""
    if family not in ("path", "cycle"):
        raise ValueError(f"no closed form for {family}")
    return math.ceil(n / (2 * r + 1))


def brute_steiner(adj: list[set[int]], terminals: list[int]) -> int | None:
    """Fewest edges of a tree spanning the terminals: the smallest connected
    vertex set containing them, minus one."""
    n = len(adj)
    if n > BRUTE_N:
        raise ValueError(f"brute force is limited to {BRUTE_N} vertices, got {n}")
    terms = set(terminals)
    others = [v for v in range(n) if v not in terms]
    for extra in range(len(others) + 1):
        for combo in combinations(others, extra):
            if _connected(adj, terms | set(combo)):
                return len(terms) + extra - 1
    return None


def _is_spanning_tree(adj: list[set[int]], edges, terminals: list[int]) -> bool:
    pairs = [tuple(e) for e in edges]
    if any(len(e) != 2 or e[1] not in adj[e[0]] for e in pairs):
        return False
    if len({frozenset(e) for e in pairs}) != len(pairs):
        return False
    vertices = {v for e in pairs for v in e} | set(terminals)
    if len(pairs) != len(vertices) - 1:
        return False
    tree: list[set[int]] = [set() for _ in range(len(adj))]
    for u, v in pairs:
        tree[u].add(v)
        tree[v].add(u)
    return _connected(tree, vertices)


class Checker:
    """Checks one operation's outcome against references it computes itself.

    References depend only on the input files, so they are cached per file
    and computed once however many passes a run makes.
    """

    def __init__(self) -> None:
        self._graphs: dict[str, list[set[int]]] = {}
        self._refs: dict[tuple, object] = {}

    def graph(self, path: str) -> list[set[int]]:
        if path not in self._graphs:
            self._graphs[path] = parse_graph(Path(path).read_text())[0]
        return self._graphs[path]

    def _ref(self, key: tuple, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def check(self, spec: dict, rc: int | None, stdout: str, kernel: str | None) -> str | None:
        """None when the outcome is correct, else the reason it is not."""
        if rc not in (EXIT_YES, EXIT_NO):
            return f"exit code {rc}"
        try:
            report = json.loads(stdout)["result"]
        except (ValueError, KeyError, TypeError):
            return "stdout is not a JSON report"
        try:
            return getattr(self, "_check_" + spec["kind"])(spec, rc, report, kernel)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {exc!r}"

    def _check_kernelize(self, spec, rc, report, kernel):
        if rc != EXIT_YES:
            return f"kernelize exited {rc}"
        if kernel is None:
            return "no kernel file written"
        adj, headers = parse_graph(kernel)
        if int(headers["k_new"]) != spec["k"] + 1:
            return f"k_new={headers['k_new']} but k={spec['k']}"
        if report["vh"] != len(adj):
            return f"report says {report['vh']} kernel vertices, file has {len(adj)}"
        return None

    def _gamma(self, spec) -> int | None:
        """Exact domination number of G, where one can be had."""
        adj = self.graph(spec["graph"])
        if spec["family"] in ("path", "cycle"):
            return closed_gamma(spec["family"], len(adj), spec["r"])
        if len(adj) <= BRUTE_N:
            key = ("gamma", spec["graph"], spec["r"])
            return self._ref(key, lambda: brute_gamma(adj, spec["r"]))
        return None

    def _check_drds(self, spec, rc, report, kernel):
        r, k = spec["r"], spec["k"]
        adj = self.graph(spec["graph"])
        scattered = self._ref(
            ("scattered", spec["graph"], r, k + 1),
            lambda: len(scattered_set(adj, r, k + 1)),
        )
        if rc == EXIT_NO:
            if scattered > k:
                return None
            gamma = self._gamma(spec)
            if gamma is not None and gamma > k:
                return None
            return f"answered no, but only {scattered} scattered vertices and gamma={gamma}"
        witness = report["solution"]
        if len(witness) > k + 1:
            return f"witness of size {len(witness)} exceeds budget {k + 1}"
        if kernel is None:
            return "no kernel file to check the witness against"
        h = parse_graph(kernel)[0]
        if not all(0 <= v < len(h) for v in witness) or len(ball(h, witness, r)) != len(h):
            return "witness does not r-dominate the kernel"
        if scattered > k:
            return f"answered yes, but {scattered} vertices are pairwise over 2r apart"
        gamma = self._gamma(spec)
        if gamma is None or gamma > k:
            return f"answered yes, but gamma={gamma} and k={k}"
        return None

    def _check_cds(self, spec, rc, report, kernel):
        k = spec["k"]
        adj = self.graph(spec["graph"])
        gamma = self._ref(("cds", spec["graph"]), lambda: brute_gamma(adj, 1, connected=True))
        if rc == EXIT_NO:
            return None if gamma is None or gamma > k else f"answered no, but gamma_c={gamma}"
        witness = report["solution"]
        if gamma is None or gamma > k:
            return f"answered yes, but gamma_c={gamma} and k={k}"
        if len(witness) > k:
            return f"witness of size {len(witness)} exceeds budget {k}"
        if not all(0 <= v < len(adj) for v in witness) or len(ball(adj, witness, 1)) != len(adj):
            return "witness does not dominate"
        if not _connected(adj, witness):
            return "witness is not connected"
        return None

    def _check_steiner(self, spec, rc, report, kernel):
        if rc != EXIT_YES:
            return f"steiner exited {rc}"
        adj = self.graph(spec["graph"])
        terms = spec["terminals"]
        best = self._ref(("steiner", spec["graph"], tuple(terms)), lambda: brute_steiner(adj, terms))
        if report["cost"] != best:
            return f"cost {report['cost']} but the minimum is {best}"
        if len(report["edges"]) != best or not _is_spanning_tree(adj, report["edges"], terms):
            return "edges are not a minimum tree spanning the terminals"
        return None


def self_test(workdir: Path) -> list[str]:
    """Feed correct and corrupted outcomes on a 7-vertex path through the
    checker; returns the cases it judged wrongly (empty when sound)."""
    workdir.mkdir(parents=True, exist_ok=True)
    g = workdir / "selftest-path7.el"
    g.write_text("n=7\n" + "".join(f"{i} {i + 1}\n" for i in range(6)))
    kern = workdir / "selftest-kernel.txt"
    kern.write_text("# k_new=4\n" + g.read_text())
    kernel = kern.read_text()

    def out(result: dict) -> str:
        return json.dumps({"result": result})

    drds2 = {"kind": "drds", "graph": str(g), "family": "path", "r": 1, "k": 2}
    drds3 = dict(drds2, k=3)
    rand3 = dict(drds3, family="random")
    cds = {"kind": "cds", "graph": str(g), "k": 5}
    steiner = {"kind": "steiner", "graph": str(g), "terminals": [0, 3]}
    path3 = [[0, 1], [1, 2], [2, 3]]
    cases = [
        # (name, spec, exit code, result, should fail)
        ("true no", drds2, EXIT_NO, {"solution": "NONE"}, False),
        ("true yes", drds3, EXIT_YES, {"solution": [1, 4, 6]}, False),
        ("true yes, brute force", rand3, EXIT_YES, {"solution": [1, 4, 6]}, False),
        ("no flipped to yes", drds2, EXIT_YES, {"solution": [1, 4, 6]}, True),
        ("yes flipped to no", drds3, EXIT_NO, {"solution": "NONE"}, True),
        ("yes flipped to no, brute force", rand3, EXIT_NO, {"solution": "NONE"}, True),
        ("witness does not dominate", drds3, EXIT_YES, {"solution": [0, 1, 2]}, True),
        ("true cds", cds, EXIT_YES, {"solution": [1, 2, 3, 4, 5]}, False),
        ("cds flipped to no", cds, EXIT_NO, {"solution": "NONE"}, True),
        ("true steiner", steiner, EXIT_YES, {"cost": 3, "edges": path3}, False),
        ("steiner cost one high", steiner, EXIT_YES, {"cost": 4, "edges": path3}, True),
        ("steiner cost one low", steiner, EXIT_YES, {"cost": 2, "edges": path3[:2]}, True),
        ("crashed command", drds3, None, {}, True),
    ]
    checker = Checker()
    wrong = []
    for name, spec, rc, result, should_fail in cases:
        failed = checker.check(spec, rc, out(result), kernel) is not None
        if failed != should_fail:
            wrong.append(name)
    return wrong
