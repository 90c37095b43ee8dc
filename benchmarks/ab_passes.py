"""Alternate timed passes of one perfbench workload between two checkouts.

    python3 benchmarks/ab_passes.py --parent DIR --change DIR --workload W --seed S --pairs N

One worker process per checkout imports that checkout's ``src`` and
``perfbench`` (read only) and writes the workload's inputs at ``--seed`` into
a temporary directory of its own. After one untimed warm-up pass each, the
workers take turns, the side that goes first swapping from pair to pair, so
that drift in the machine's speed falls on both sides alike. A pass is
``perfbench/run.py``'s: every command of the manifest once, in-process, here
with ``--deterministic`` added. Prints each side's median pass time, its
quartiles and the pairs it won, and whether every pass on both sides gave the
same exit codes, stdout, stderr and kernel files; exits 1 when they differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def worker(root: Path, workload: str, seed: int) -> None:
    """Run one pass per line read from stdin; print its time and digest."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import run
    import workloads
    from quasiwide.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        ops = workloads.build(workload, seed, Path("inputs"))
        for op in ops:
            op["argv"] = op["argv"] + ["--deterministic"]
        for _ in sys.stdin:
            elapsed, outcomes = run._run_pass(main, ops)
            digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
            print(json.dumps([elapsed, digest]), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in sides.items():
        if not (root / "src" / "quasiwide").is_dir():
            ap.error(f"--{side} {root} holds no src/quasiwide")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    procs = {
        side: subprocess.Popen(
            [sys.executable, __file__, "--worker", str(root), args.workload, str(args.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for side, root in sides.items()
    }

    def one_pass(side: str) -> list:
        procs[side].stdin.write("\n")
        procs[side].stdin.flush()
        line = procs[side].stdout.readline()
        if not line:
            sys.exit(f"error: the {side} worker stopped")
        return json.loads(line)

    times: dict[str, list[float]] = {side: [] for side in sides}
    digests = {one_pass(side)[1] for side in sides}
    for i in range(args.pairs):
        for side in ("parent", "change")[:: 1 if i % 2 == 0 else -1]:
            elapsed, digest = one_pass(side)
            times[side].append(elapsed)
            digests.add(digest)
    for proc in procs.values():
        proc.stdin.close()
        proc.wait(timeout=60)
    print(f"{'side':<8} {'median_s':>9} {'q1_s':>9} {'q3_s':>9} {'wins':>6}")
    for side, other in (("parent", "change"), ("change", "parent")):
        ts = times[side]
        q1, _, q3 = statistics.quantiles(ts, n=4, method="inclusive") if len(ts) > 1 else ts * 3
        wins = sum(a < b for a, b in zip(ts, times[other]))
        print(f"{side:<8} {statistics.median(ts):>9.3f} {q1:>9.3f} {q3:>9.3f} "
              f"{wins:>3}/{args.pairs}")
    print(f"outputs byte-equal: {'yes' if len(digests) == 1 else 'no'}")
    return 0 if len(digests) == 1 else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(Path(sys.argv[2]), sys.argv[3], int(sys.argv[4]))
    else:
        sys.exit(main())
