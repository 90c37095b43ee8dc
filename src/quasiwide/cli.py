"""Command-line front end.

Subcommands: ``gen`` (emit a generated graph as an edge list), ``uqw``,
``indiscernible``, ``ladder``, ``core``, ``kernelize``, ``solve``, and
``bench``. Every command except ``gen`` prints a JSON report to stdout with
a fixed shape: command echo, input summary, per-stage timings in
milliseconds, result payload, and verification flags. Commands that produce
a mathematical object re-verify it before exiting 0.

Exit codes: 0 success, 1 input error, 2 algorithmic failure with a
certificate (refusals of dense inputs, failed verification), 3
decision-problem "no". Passing ``--deterministic`` zeroes every timing field
so reruns are byte-identical; set the ``QUASIWIDE_LOG`` environment variable
to any non-empty value for stage logs on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

from .check import recheck_core, uqw_verify, verify_cds, verify_drds
from .errors import ConfigError, DensityError, InfeasibleError, InputError
from .generators import GenSpec, generate
from .graph import Graph
from .io import (
    edge_list_text,
    kernel_text,
    load_graph,
    load_id_list,
)
from .kernelize import CoreConfig, domination_core, kernel_pipeline
from .logic import delta_k, extract_indiscernible, is_indiscernible, ladder_index
from .solvers import SteinerInstance, brute_cds, cds_fpt, dreyfus_wagner, exact_drds
from .uqw import UqwConfig, uqw_split

_VERIFY_INPUT_BOUND = 64
_VERIFY_KERNEL_BOUND = 512


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this package reserves 2 for
    algorithmic failures, so usage problems become input errors instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


class _Stages:
    """Stage timer; deterministic mode records every duration as 0.0."""

    def __init__(self, deterministic: bool) -> None:
        self.deterministic = deterministic
        self.timings: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        yield
        elapsed = (time.perf_counter() - start) * 1000.0
        self.timings[name] = 0.0 if self.deterministic else round(elapsed, 3)


def _graph_summary(g: Graph) -> dict[str, int]:
    return {"n": g.n, "m": g.m, "degeneracy": g.c}


def _emit(report: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _report(
    command: str,
    options: dict[str, Any],
    g: Graph | None,
    stages: _Stages,
    result: dict[str, Any],
    verified: dict[str, bool] | None,
) -> dict[str, Any]:
    report: dict[str, Any] = {
        "command": command,
        "options": options,
        "timings_ms": stages.timings,
        "result": result,
    }
    if g is not None:
        report["input"] = _graph_summary(g)
    if verified is not None:
        report["verified"] = verified
    return report


def _refusal(
    command: str,
    options: dict[str, Any],
    g: Graph,
    stages: _Stages,
    exc: DensityError,
    **extra: Any,
) -> int:
    """Report a refusal with its certificate; the exit code is 2."""
    result = {
        "failure": "density",
        "certificate": list(exc.certificate),
        "candidates": list(exc.candidates),
        "message": str(exc),
        **extra,
    }
    _emit(_report(command, options, g, stages, result, None))
    return 2


def _parse_params(text: str) -> dict[str, int]:
    params: dict[str, int] = {}
    if not text:
        return params
    for part in text.split(","):
        if "=" not in part:
            raise InputError(f"parameter {part!r} is not of the form name=value")
        key, _, value = part.partition("=")
        key = key.strip()
        try:
            params[key] = int(value)
        except ValueError:
            raise InputError(f"parameter {key!r} has non-integer value {value!r}") from None
    return params


def _parse_int_list(text: str, what: str) -> list[int]:
    """Accepts '2,3,5' and '2..6' range shorthand."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo_s, _, hi_s = part.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise InputError(f"bad {what} range {part!r}") from None
            if hi < lo:
                raise InputError(f"empty {what} range {part!r}")
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(part))
            except ValueError:
                raise InputError(f"bad {what} value {part!r}") from None
    if not values:
        raise InputError(f"no {what} values given")
    return values


def _uqw_config(args: argparse.Namespace) -> UqwConfig:
    return UqwConfig(s_max=args.s_max, delta_k=args.delta_k)


def _core_config(args: argparse.Namespace) -> CoreConfig:
    return CoreConfig(r=args.r, k=args.k, ell=args.ell, uqw=_uqw_config(args))


def _load_vertex_spec(spec: str, g: Graph) -> list[int]:
    if spec == "all":
        return list(range(g.n))
    return load_id_list(spec)


def cmd_gen(args: argparse.Namespace) -> int:
    params = _parse_params(args.params)
    if args.family in ("random_bounded_degree", "random_degenerate"):
        params.setdefault("seed", args.seed)
    g = generate(GenSpec(family=args.family, params=params))
    text = edge_list_text(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_uqw(args: argparse.Namespace) -> int:
    stages = _Stages(args.deterministic)
    g = load_graph(args.graph)
    a = _load_vertex_spec(args.A, g)
    options = {"graph": args.graph, "A": args.A, "r": args.r, "m": args.m}
    cfg = _uqw_config(args)
    try:
        with stages("uqw"):
            res = uqw_split(g, a, args.r, args.m, cfg)
    except DensityError as exc:
        return _refusal("uqw", options, g, stages, exc, rounds_completed=len(exc.rounds))
    ok = res.verified and uqw_verify(g, res, a, args.r)
    result = {
        "S": sorted(res.S),
        "B": list(res.B),
        "rounds": [
            {
                "round": log.round,
                "len_before": log.len_before,
                "len_after": log.len_after,
                "s_added": list(log.s_added),
                "survivors": list(log.survivors),
                "contracted_size": log.contracted_size,
            }
            for log in res.rounds
        ],
    }
    _emit(_report("uqw", options, g, stages, result, {"independent": ok}))
    return 0 if ok else 2


def cmd_indiscernible(args: argparse.Namespace) -> int:
    stages = _Stages(args.deterministic)
    g = load_graph(args.graph)
    seq = _load_vertex_spec(args.seq, g)
    delta = delta_k(args.delta)
    options = {"graph": args.graph, "seq": args.seq, "delta": args.delta, "m": args.m}
    with stages("extract"):
        out = extract_indiscernible(g, seq, delta, args.m)
    with stages("oracle"):
        ok = is_indiscernible(g, out, delta)
    result = {"sequence": list(out), "length": len(out), "target": args.m}
    _emit(_report("indiscernible", options, g, stages, result, {"indiscernible": ok}))
    return 0 if ok else 2


def cmd_ladder(args: argparse.Namespace) -> int:
    stages = _Stages(args.deterministic)
    g = load_graph(args.graph)
    options = {"graph": args.graph, "max_k": args.max_k}
    with stages("ladder"):
        index = ladder_index(g, args.max_k)
    result = {"ladder_index": index, "max_k": args.max_k}
    _emit(_report("ladder", options, g, stages, result, None))
    return 0


def cmd_core(args: argparse.Namespace) -> int:
    stages = _Stages(args.deterministic)
    g = load_graph(args.graph)
    cfg = _core_config(args)
    options = {
        "graph": args.graph,
        "r": args.r,
        "k": args.k,
        "ell": cfg.effective_ell,
        "batch": not args.single,
    }
    try:
        with stages("core"):
            core = domination_core(g, cfg, batch=not args.single)
    except DensityError as exc:
        return _refusal("core", options, g, stages, exc)
    ok = recheck_core(g, core, cfg)
    result = {
        "Z": sorted(core.Z),
        "z_size": len(core.Z),
        "removed": sorted(rec.w for rec in core.removal_log),
    }
    if len(core.Z) == g.n:
        result["note"] = "no shrinkage: core equals the whole vertex set"
    _emit(_report("core", options, g, stages, result, {"removals_justified": ok}))
    return 0 if ok else 2


def cmd_kernelize(args: argparse.Namespace) -> int:
    stages = _Stages(args.deterministic)
    g = load_graph(args.graph)
    cfg = _core_config(args)
    options = {
        "graph": args.graph,
        "r": args.r,
        "k": args.k,
        "ell": cfg.effective_ell,
        "out": args.out,
        "verify": args.verify,
    }
    try:
        core, reps, ker = kernel_pipeline(g, cfg, stages)
    except DensityError as exc:
        return _refusal("kernelize", options, g, stages, exc)

    Path(args.out).write_text(
        kernel_text(
            ker.graph,
            ker.k_new,
            sorted(ker.z_ids.values()),
            sorted(ker.y_ids.values()),
            list(ker.gadget_ids),
        )
    )
    verified = {
        "projection": ker.projection_ok,
        "removals_justified": recheck_core(g, core, cfg),
    }
    result = {
        "z_size": len(core.Z),
        "y_size": len(reps.Y),
        "vh": ker.graph.n,
        "k_new": ker.k_new,
        "out": args.out,
    }
    if len(core.Z) == g.n:
        result["note"] = "no shrinkage: core equals the whole vertex set"
    if args.verify:
        if g.n <= _VERIFY_INPUT_BOUND and ker.graph.n <= _VERIFY_KERNEL_BOUND:
            with stages("verify"):
                ans_g = exact_drds(g, args.r, args.k) is not None
                ans_h = exact_drds(ker.graph, args.r, ker.k_new) is not None
            verified["equivalence"] = ans_g == ans_h
            result["answer_input"] = ans_g
            result["answer_kernel"] = ans_h
        else:
            print(
                "warning: --verify skipped, instance above the safety bound",
                file=sys.stderr,
            )
            result["verify_skipped"] = True
    _emit(_report("kernelize", options, g, stages, result, verified))
    return 0 if all(verified.values()) else 2


def cmd_solve(args: argparse.Namespace) -> int:
    stages = _Stages(args.deterministic)
    g = load_graph(args.graph)
    options: dict[str, Any] = {"graph": args.graph, "problem": args.problem}

    if args.problem == "steiner":
        if args.terminals is None:
            raise InputError("--terminals is required for the steiner problem")
        terminals = _parse_int_list(args.terminals, "terminal")
        options["terminals"] = terminals
        with stages("solve"):
            edges, cost = dreyfus_wagner(SteinerInstance(g, tuple(terminals)))
        vertices = sorted({v for e in edges for v in e} | set(terminals))
        ok = len(edges) == cost and set(terminals) <= set(vertices)
        result = {
            "solution": vertices,
            "cost": cost,
            "edges": sorted([list(e) for e in edges]),
        }
        _emit(_report("solve", options, g, stages, result, {"tree": ok}))
        return 0 if ok else 2

    if args.problem == "drds":
        if args.r is None or args.k is None:
            raise InputError("--r and --k are required for the drds problem")
        options.update({"r": args.r, "k": args.k})
        with stages("solve"):
            sol = exact_drds(g, args.r, args.k)
    else:
        if args.k is None:
            raise InputError(f"--k is required for the {args.problem} problem")
        options["k"] = args.k
        try:
            with stages("solve"):
                if args.problem == "cds":
                    sol = brute_cds(g, args.k)
                else:
                    sol = cds_fpt(
                        g, args.k, _uqw_config(args), K_threshold=args.K_threshold
                    )
        except DensityError as exc:
            return _refusal("solve", options, g, stages, exc)
    if sol is None:
        _emit(_report("solve", options, g, stages, {"solution": "NONE"}, None))
        return 3
    if args.problem == "drds":
        verified = {"dominating": len(sol) <= args.k and verify_drds(g, sol, args.r)}
    else:
        verified = {"connected_dominating": len(sol) <= args.k and verify_cds(g, sol)}
    _emit(_report("solve", options, g, stages, {"solution": sorted(sol)}, verified))
    return 0 if all(verified.values()) else 2


def _bench_cell(args: argparse.Namespace, size: int, k: int) -> dict[str, Any]:
    if args.family == "grid":
        g = generate(GenSpec(family="grid", params={"w": size, "h": size}))
    elif args.family == "random_degenerate":
        g = generate(
            GenSpec(
                family="random_degenerate",
                params={"n": size, "c": args.c, "seed": args.seed},
            )
        )
    else:
        raise InputError(
            f"bench supports grid and random_degenerate, not {args.family!r}"
        )
    cfg = CoreConfig(r=args.r, k=k, ell=args.ell, uqw=_uqw_config(args))
    stages = _Stages(args.deterministic)
    core, reps, ker = kernel_pipeline(g, cfg, stages)
    return {
        "family": args.family,
        "n": g.n,
        "r": args.r,
        "k": k,
        "z": len(core.Z),
        "y": len(reps.Y),
        "vh": ker.graph.n,
        "t_core_ms": stages.timings["core"],
        "t_reduce_ms": stages.timings["reduce"],
        "t_build_ms": stages.timings["build"],
        "verified": recheck_core(g, core, cfg),
        "projection_ok": ker.projection_ok,
    }


def cmd_bench(args: argparse.Namespace) -> int:
    stages = _Stages(args.deterministic)
    sizes = _parse_int_list(args.sizes, "size")
    ks = _parse_int_list(args.ks, "k")
    with stages("bench"):
        rows = [_bench_cell(args, size, k) for size in sizes for k in ks]

    def cell_text(value: Any) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    # the columns are the keys of a row, in _bench_cell's order
    lines = [",".join(rows[0])]
    lines.extend(",".join(cell_text(value) for value in row.values()) for row in rows)
    Path(args.out).write_text("\n".join(lines) + "\n")
    options = {
        "family": args.family,
        "sizes": sizes,
        "r": args.r,
        "ks": ks,
        "out": args.out,
    }
    result = {"rows": len(rows), "out": args.out}
    _emit(_report("bench", options, None, stages, result, None))
    return 0


def _add_uqw_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--s-max", type=int, default=16, help="deletion budget")
    parser.add_argument(
        "--delta-k", type=int, default=4, help="formula arity of every splitter round"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing never mutates it."""
    common = _Parser(add_help=False)
    common.add_argument(
        "--deterministic",
        action="store_true",
        help="zero timing fields for byte-stable output",
    )

    parser = _Parser(prog="quasiwide", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a graph family")
    p.add_argument("--family", required=True)
    p.add_argument(
        "--params",
        default="",
        help="comma-separated name=value family parameters, e.g. w=5,h=4",
    )
    p.add_argument("--out", default=None, help="edge-list path (default stdout)")
    p.add_argument("--seed", type=int, default=0, help="seed for random families")

    p = sub.add_parser("uqw", parents=[common], help="run the wide-set splitter")
    p.add_argument("--graph", required=True)
    p.add_argument("--A", required=True, help="'all' or a file of vertex ids")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_uqw_flags(p)

    p = sub.add_parser(
        "indiscernible", parents=[common], help="extract an indiscernible subsequence"
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--seq", required=True, help="'all' or a file of vertex ids")
    p.add_argument("--delta", type=int, required=True, help="formula family arity")
    p.add_argument("--m", type=int, required=True, help="target length")

    p = sub.add_parser("ladder", parents=[common], help="ladder-index diagnostic")
    p.add_argument("--graph", required=True)
    p.add_argument("--max-k", type=int, required=True)

    p = sub.add_parser("core", parents=[common], help="compute the domination core")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, default=None, help="core-size threshold")
    p.add_argument(
        "--single", action="store_true", help="remove one vertex per round"
    )
    _add_uqw_flags(p)

    p = sub.add_parser("kernelize", parents=[common], help="build the kernel")
    p.add_argument("--graph", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, default=None, help="core-size threshold")
    p.add_argument("--out", required=True, help="kernel file path")
    p.add_argument(
        "--verify",
        action="store_true",
        help="solve both sides exactly when small enough and compare",
    )
    _add_uqw_flags(p)

    p = sub.add_parser("solve", parents=[common], help="run an exact solver")
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--problem", required=True, choices=["drds", "cds", "cds-fpt", "steiner"]
    )
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--terminals", default=None, help="comma-separated terminal ids")
    p.add_argument(
        "--K-threshold",
        dest="K_threshold",
        type=int,
        default=None,
        help="undominated-size bound that switches cds-fpt to its leaf routine",
    )
    _add_uqw_flags(p)

    p = sub.add_parser("bench", parents=[common], help="kernel-size sweep to CSV")
    p.add_argument("--family", required=True, help="grid or random_degenerate")
    p.add_argument("--sizes", required=True, help="e.g. 8,12,16")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ks", required=True, help="e.g. 2..6 or 2,4,6")
    p.add_argument("--out", required=True, help="CSV path (fresh file per run)")
    p.add_argument("--ell", type=int, default=None, help="core-size threshold")
    p.add_argument(
        "--c", type=int, default=3, help="degeneracy bound for random_degenerate"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for random_degenerate")
    _add_uqw_flags(p)

    return parser


@functools.cache
def _stage_logs() -> None:
    """Send the package's stage logs to stderr as ``[module] message`` when
    ``QUASIWIDE_LOG`` is set; the variable is read once per process."""
    if os.environ.get("QUASIWIDE_LOG"):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("[%(module)s] %(message)s"))
        logger = logging.getLogger("quasiwide")
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)


def main(argv: Sequence[str] | None = None) -> int:
    _stage_logs()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # looked up per call, not stored in the cached parser, so a command
        # function replaced on this module takes effect
        return globals()[f"cmd_{args.subcommand}"](args)
    except (InputError, ConfigError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DensityError as exc:
        # Commands format their own certificates; anything reaching here is a
        # failure outside a command body.
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
