"""Decide-by-kernel benchmark for quasiwide.

    python3 perfbench/run.py --workload grid-r1 --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src`` and nothing is built. Set-up runs ``workloads.py`` in a fresh
interpreter, three times before the passes and once after each, up to nine
times; ``setup_s`` is the median wall time of import plus input generation.
Then passes run back to back for about ``--seconds``: each pass runs every command of the
workload once, in order, in-process through ``quasiwide.cli.main``, from
one thread. A command is complete when it exits 0, or 3 for "no"; any other
exit, an exception, or an output that fails its independent check (see
``check.py``) is a failed operation.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it carries the per-layer metrics of ``tracing.py`` instead, and the
spans are written to ``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_FIRST = 3
SETUP_MAX = 9


def _setup(workload: str, seed: int, workdir: Path) -> float:
    """Wall time of a fresh interpreter importing quasiwide and writing every
    input file of the workload, with its pass, under ``workdir``."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(workdir)]
    start = time.perf_counter()
    subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def _run_pass(main, ops: list[dict], tracer=None) -> tuple[float, list[tuple]]:
    """Run every command once; returns the wall time and each outcome."""
    outcomes = []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(op["argv"])
            except Exception as exc:  # a crash is a failed operation, not a stop
                rc = None
                err.write(repr(exc))
        outcomes.append((rc, out.getvalue(), err.getvalue()))
    elapsed = time.perf_counter() - start
    # Snapshot each kernel file (outside the timed loop) for the checker.
    kernels = {}
    for op in ops:
        kern = op["check"].get("kernel")
        if kern is not None and kern not in kernels:
            path = Path(kern)
            kernels[kern] = path.read_text() if path.exists() else None
    return elapsed, [(rc, so, se, kernels.get(op["check"].get("kernel")))
                     for (rc, so, se), op in zip(outcomes, ops)]


def _kernel_vertices(ops: list[dict], outcomes: list[tuple]) -> int:
    total = 0
    for op, (_rc, _out, _err, kernel) in zip(ops, outcomes):
        if op["check"]["kind"] == "kernelize" and kernel is not None:
            total += len(check.parse_graph(kernel)[0])
    return total


def _count(ops: list[dict], passes: list[list[tuple]]) -> tuple[int, int]:
    """Check every outcome of every pass; returns (attempted, failed)."""
    checker = check.Checker()
    attempted = failed = 0
    for outcomes in passes:
        for op, (rc, out, err, kernel) in zip(ops, outcomes):
            attempted += 1
            reason = checker.check(op["check"], rc, out, kernel)
            if reason is not None:
                failed += 1
                print(f"failed: {' '.join(op['argv'][:3])}: {reason}; {err.strip()[-200:]}",
                      file=sys.stderr)
    return attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "quasiwide" / "__init__.py").is_file():
        print(f"error: no quasiwide sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    import quasiwide._kernels
    from quasiwide.cli import main as cli_main

    if Path(quasiwide.__file__).resolve().parent != SRC / "quasiwide":
        print(f"error: imported quasiwide from {quasiwide.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = SCRATCH / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        # Set-up runs before the passes and again after each one, into a
        # spare directory, so its median spans the same stretch of time.
        setup_times = [_setup(args.workload, args.seed, workdir) for _ in range(SETUP_FIRST)]
        ops = json.loads((workdir / "manifest.json").read_text())

        tracer = tracing.Tracer() if args.trace else None
        untraced: list[float] = []
        traced: list[float] = []
        passes: list[list[tuple]] = []
        start = time.perf_counter()
        while True:
            elapsed, outcomes = _run_pass(cli_main, ops)
            untraced.append(elapsed)
            passes.append(outcomes)
            round_s = statistics.median(untraced)
            if tracer is not None:
                tracer.install()
                try:
                    elapsed, outcomes = _run_pass(cli_main, ops, tracer)
                finally:
                    tracer.uninstall()
                traced.append(elapsed)
                passes.append(outcomes)
                round_s += statistics.median(traced)
            if len(setup_times) < SETUP_MAX:
                setup_times.append(_setup(args.workload, args.seed, workdir / "again"))
            if time.perf_counter() - start + round_s > args.seconds:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        wrong = check.self_test(workdir / "selftest")
        if wrong:
            print(f"checker self-test judged wrongly: {wrong}", file=sys.stderr)
        attempted, failed = _count(ops, passes)

        if tracer is None:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "pass_s": (statistics.median(untraced), "s"),
                "kernel_vertices": (_kernel_vertices(ops, passes[0]), "vertices"),
                "peak_rss_mib": (peak_rss_mib, "MiB"),
            }
        else:
            per_pass = [tracing.layer_metrics(tracer, i) for i in range(len(traced))]
            layers = tracing.median_metrics(per_pass)
            layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
            metrics = {name: (layers[name], unit) for name, (unit, _) in tracing.METRICS.items()}
            tracer.write(SCRATCH / f"trace-{args.workload}-{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} backend={quasiwide._kernels.BACKEND} "
          f"python={platform.python_version()} passes={len(passes)} ops_per_pass={len(ops)} "
          f"attempted={attempted} failed={failed} "
          f"pass_times_s={','.join(f'{t:.3f}' for t in untraced)}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
