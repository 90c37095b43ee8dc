"""Digest of the CLI's outputs, to check that a change keeps them byte-identical.

    python3 benchmarks/outputs_digest.py [--root CHECKOUT] [--seed 1] > digest.txt

Runs, with ``--deterministic`` added to every command:

- the CLI invocations of acceptance criterion 9 (``tests/test_acceptance.py``);
- four refusal repros: the sieve refusing a dense split under ``core`` and
  under ``kernelize``, and ``cds-fpt`` and ``uqw`` refusing a clique;
- one command per remaining report branch: ``core --single``, the brute-force
  ``cds`` solver, ``kernelize --verify`` above the safety bound, a missing
  flag of each ``solve`` problem, an unreadable ``--graph`` path, a
  family flag that ``gen`` and ``bench`` refuse for a grid, and a
  ``kernelize`` whose construction would exceed n + 1 vertices, so it
  returns the identity kernel;
- two splits at odd radius that reach round 2: ``uqw --r 3`` on the
  criterion-9 grid and on the 12x12 grid of the README;
- among the inputs, ``core`` on the 12x12 grid in batch and single mode,
  a ``gen`` given both ``--seed`` and ``--params seed=``, and a ``gen``
  given one parameter twice;
- every command of each ``perfbench`` workload at ``--seed``, from the
  manifest that ``perfbench/workloads.py`` writes when run as a script.

Commands run in-process through ``quasiwide.cli.main`` of the checkout's
``src``, in a fresh temporary directory and with relative paths, so no line
depends on where that directory is. Each command prints one line: its exit
code, the sha256 of its stdout and stderr and of every file it writes
(``--out``), then the command itself. Run the script once per checkout (the
same copy of it, pointed at each with ``--root``) and diff the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("grid-r1", "degenerate-r1", "solver-mix")

CRITERION_9 = [
    ["gen", "--family", "random_degenerate", "--params", "n=30,c=2,seed=9"],
    ["uqw", "--graph", "g.el", "--A", "all", "--r", "2", "--m", "4"],
    ["uqw", "--graph", "g.el", "--A", "ids.txt", "--r", "1", "--m", "2"],
    ["indiscernible", "--graph", "g.el", "--seq", "all", "--delta", "2", "--m", "5"],
    ["ladder", "--graph", "g.el", "--max-k", "4"],
    ["core", "--graph", "g.el", "--r", "1", "--k", "2", "--ell", "6"],
    ["kernelize", "--graph", "g.el", "--r", "1", "--k", "2", "--ell", "6",
     "--out", "kern.txt", "--verify"],
    ["solve", "--graph", "g.el", "--problem", "drds", "--r", "2", "--k", "2"],
    ["solve", "--graph", "g.el", "--problem", "cds-fpt", "--k", "4"],
    ["solve", "--graph", "g.el", "--problem", "steiner", "--terminals", "0,29"],
    ["bench", "--family", "grid", "--sizes", "4,6", "--r", "1", "--ks", "2,3",
     "--ell", "8", "--out", "bench.csv"],
]

REFUSALS = [
    ["core", "--graph", "dense.el", "--r", "2", "--k", "5", "--ell", "16"],
    ["kernelize", "--graph", "dense.el", "--r", "2", "--k", "5", "--ell", "16",
     "--out", "dense.kern"],
    ["solve", "--graph", "k16.el", "--problem", "cds-fpt", "--k", "3",
     "--s-max", "2", "--K-threshold", "5"],
    ["uqw", "--graph", "k16.el", "--A", "all", "--r", "2", "--m", "8", "--s-max", "4"],
]

BRANCHES = [
    ["core", "--graph", "g.el", "--r", "1", "--k", "2", "--ell", "6", "--single"],
    ["solve", "--graph", "g9.el", "--problem", "cds", "--k", "3"],
    ["kernelize", "--graph", "g72.el", "--r", "1", "--k", "2", "--ell", "8",
     "--out", "k72.txt", "--verify"],
    ["solve", "--graph", "g.el", "--problem", "drds", "--k", "2"],
    ["solve", "--graph", "g.el", "--problem", "cds-fpt"],
    ["solve", "--graph", "g.el", "--problem", "steiner"],
    ["ladder", "--graph", "missing.el", "--max-k", "2"],
    ["gen", "--family", "grid", "--params", "w=3,h=3", "--seed", "1"],
    ["bench", "--family", "grid", "--sizes", "3", "--r", "1", "--ks", "1",
     "--out", "refused.csv", "--c", "3"],
    ["kernelize", "--graph", "d65.el", "--r", "1", "--k", "2", "--ell", "64",
     "--out", "d65.kern"],
]

ODD_RADIUS = [
    ["uqw", "--graph", "g.el", "--A", "all", "--r", "3", "--m", "4"],
    ["uqw", "--graph", "g12.el", "--A", "all", "--r", "3", "--m", "8"],
]

# The inputs of the four lists above, generated first, and after the 12x12
# grid the two ``core`` runs that pin the sieve's ``removed`` list, a
# ``gen`` given two seeds and a ``gen`` given one parameter twice.
INPUTS = [
    ["gen", "--family", "grid", "--params", "w=6,h=5", "--out", "g.el"],
    ["gen", "--family", "grid", "--params", "w=3,h=3", "--out", "g9.el"],
    ["gen", "--family", "grid", "--params", "w=9,h=8", "--out", "g72.el"],
    ["gen", "--family", "random_degenerate", "--params", "n=65,c=2", "--out", "d65.el"],
    ["gen", "--family", "grid", "--params", "w=12,h=12", "--out", "g12.el"],
    ["core", "--graph", "g12.el", "--r", "1", "--k", "3", "--ell", "20"],
    ["core", "--graph", "g12.el", "--r", "1", "--k", "3", "--ell", "20", "--single"],
    ["gen", "--family", "random_degenerate", "--params", "n=6,c=2,seed=5", "--seed", "7"],
    ["gen", "--family", "path", "--params", "n=3,n=5"],
    ["gen", "--family", "clique", "--params", "n=40", "--out", "dense.el"],
    ["gen", "--family", "clique", "--params", "n=16", "--out", "k16.el"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_line(main, group: str, argv: list[str]) -> str:
    """Run one command; return its digest line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = str(main(argv))
        except Exception as exc:  # recorded, so a crash shows up in the diff
            rc = f"raised-{type(exc).__name__}"
    fields = [group, rc, f"stdout={_sha(out.getvalue().encode())}",
              f"stderr={_sha(err.getvalue().encode())}"]
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        fields.append(f"{path.name}={_sha(path.read_bytes()) if path.exists() else '-'}")
    return " ".join(fields) + " :: " + " ".join(argv)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to run (default: this one)")
    parser.add_argument("--seed", type=int, default=1, help="perfbench workload seed")
    args = parser.parse_args()
    root = args.root.resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import quasiwide
    from quasiwide.cli import main as cli_main

    if Path(quasiwide.__file__).resolve().parent != src / "quasiwide":
        sys.exit(f"error: imported quasiwide from {quasiwide.__file__}, not {src}")

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        Path("ids.txt").write_text("0\n1\n2\n7\n")
        for group, commands in (
            ("input", INPUTS), ("criterion-9", CRITERION_9), ("refusal", REFUSALS),
            ("branch", BRANCHES), ("odd-radius", ODD_RADIUS),
        ):
            for argv in commands:
                print(digest_line(cli_main, group, argv + ["--deterministic"]))
        for workload in WORKLOADS:
            subprocess.run(
                [sys.executable, str(root / "perfbench" / "workloads.py"),
                 "--workload", workload, "--seed", str(args.seed), "--out", workload],
                env=dict(os.environ, PYTHONPATH=str(src)), check=True,
            )
            ops = json.loads(Path(workload, "manifest.json").read_text())
            for op in ops:
                print(digest_line(cli_main, workload, op["argv"] + ["--deterministic"]))
        os.chdir(root)


if __name__ == "__main__":
    main()
