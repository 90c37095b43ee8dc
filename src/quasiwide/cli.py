"""Command-line front end.

Subcommands: ``gen`` (emit a generated graph as an edge list), ``uqw``,
``indiscernible``, ``ladder``, ``core``, ``kernelize``, ``solve``, and
``bench``. Commands compute and ``main`` reports: each ``cmd_*`` function
loads its input, records the options it echoes and returns ``(result,
verified)``, and ``main`` alone prints the JSON report to stdout. The report
has a fixed shape: command echo, input summary, per-stage timings in
milliseconds, result payload, and verification flags. A splitter refusal
(:class:`~quasiwide.errors.DensityError`) becomes a refusal report carrying
its certificate. ``gen`` writes an edge list instead and prints no report.

Exit codes, derived by ``main`` alone: 1 on an input error (message on
stderr, no report); 2 on a refusal or any false verification flag; 3 when
``solve`` answers "no"; else 0. Passing ``--deterministic`` zeroes every
timing field so reruns are byte-identical; set the ``QUASIWIDE_LOG``
environment variable to any non-empty value for stage logs on stderr.
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
from dataclasses import asdict
from pathlib import Path
from typing import Any, Collection, Iterator, Sequence

from .check import (
    recheck_core,
    recheck_representatives,
    uqw_verify,
    verify_cds,
    verify_drds,
    verify_steiner,
)
from .errors import ConfigError, DensityError, InfeasibleError, InputError
from .generators import GenSpec, generate
from .graph import Graph
from .io import edge_list_text, kernel_text, load_graph, load_id_list
from .kernelize import CoreConfig, domination_core, kernel_pipeline
from .logic import delta_k, extract_indiscernible, is_indiscernible, ladder_index
from .solvers import SteinerInstance, brute_cds, cds_fpt, dreyfus_wagner, exact_drds
from .uqw import UqwConfig, uqw_split

_VERIFY_INPUT_BOUND = 64
_VERIFY_KERNEL_BOUND = 512

# A command's result payload and verification flags (None: nothing re-checked).
Outcome = tuple[dict[str, Any], dict[str, bool] | None]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this package reserves 2 for
    algorithmic failures, so usage problems become input errors instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


class _Run:
    """What a report says besides the result: the options a command echoes,
    its input graph, and its stage timings. Calling it times a stage, also
    one that raises, so a refusal report keeps the time spent before it;
    deterministic mode records every duration as 0.0."""

    def __init__(self, deterministic: bool) -> None:
        self.deterministic = deterministic
        self.options: dict[str, Any] = {}
        self.graph: Graph | None = None
        self.timings: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = (time.perf_counter() - start) * 1000.0
            self.timings[name] = 0.0 if self.deterministic else round(elapsed, 3)


def _print_report(
    command: str, run: _Run, result: dict[str, Any], verified: dict[str, bool] | None
) -> None:
    report: dict[str, Any] = {
        "command": command,
        "options": run.options,
        "timings_ms": run.timings,
        "result": result,
    }
    if run.graph is not None:
        report["input"] = {"n": run.graph.n, "m": run.graph.m, "degeneracy": run.graph.c}
    if verified is not None:
        report["verified"] = verified
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _refusal(command: str, exc: DensityError) -> dict[str, Any]:
    """The result payload of a refusal, with its certificate."""
    result = {
        "failure": "density",
        "certificate": list(exc.certificate),
        "candidates": list(exc.candidates),
        "message": str(exc),
    }
    if command == "uqw":  # elsewhere the rounds are those of a nested split
        result["rounds_completed"] = len(exc.rounds)
    return result


def _parse_params(text: str) -> dict[str, int]:
    params: dict[str, int] = {}
    if not text:
        return params
    for part in text.split(","):
        if "=" not in part:
            raise InputError(f"parameter {part!r} is not of the form name=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if not key:
            raise InputError(f"parameter {part!r} has no name")
        if key in params:
            raise InputError(f"parameter {key!r} is given twice")
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
    """A splitter config from the splitter flags given; the parser keeps no
    defaults for them, so :class:`UqwConfig` holds the only ones."""
    given = vars(args)
    return UqwConfig(**{name: given[name] for name in ("s_max", "delta_k") if name in given})


def _core_config(args: argparse.Namespace) -> CoreConfig:
    return CoreConfig(r=args.r, k=args.k, ell=args.ell, uqw=_uqw_config(args))


def _load_vertex_spec(spec: str, g: Graph) -> list[int]:
    if spec == "all":
        return list(range(g.n))
    return load_id_list(spec)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _refuse_unread(
    args: argparse.Namespace, flags: Collection[str], reads: Collection[str], owner: str
) -> None:
    """Refuse the first of ``flags`` given that ``owner`` does not read. The
    parser keeps no defaults for these flags, so the namespace holds exactly
    those given, in command-line order."""
    for name in vars(args):
        if name in flags and name not in reads:
            raise InputError(f"{owner} does not read {_flag(name)}")


def cmd_gen(args: argparse.Namespace, run: _Run) -> None:
    params = _parse_params(args.params)
    if args.family in ("random_bounded_degree", "random_degenerate"):
        if "seed" in params and "seed" in vars(args):
            raise InputError("--seed and --params seed= are both given")
        params.setdefault("seed", getattr(args, "seed", 0))
    else:
        _refuse_unread(args, ("seed",), (), f"--family {args.family}")
    g = generate(GenSpec(family=args.family, params=params))
    text = edge_list_text(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_uqw(args: argparse.Namespace, run: _Run) -> Outcome:
    g = run.graph = load_graph(args.graph)
    a = _load_vertex_spec(args.A, g)
    run.options = {"graph": args.graph, "A": args.A, "r": args.r, "m": args.m}
    cfg = _uqw_config(args)
    with run("uqw"):
        res = uqw_split(g, a, args.r, args.m, cfg)
    result = {"S": sorted(res.S), "B": list(res.B), "rounds": [asdict(log) for log in res.rounds]}
    return result, {"independent": uqw_verify(g, res, a, args.r)}


def cmd_indiscernible(args: argparse.Namespace, run: _Run) -> Outcome:
    g = run.graph = load_graph(args.graph)
    seq = _load_vertex_spec(args.seq, g)
    delta = delta_k(args.delta)
    run.options = {"graph": args.graph, "seq": args.seq, "delta": args.delta, "m": args.m}
    with run("extract"):
        out = extract_indiscernible(g, seq, delta, args.m)
    with run("oracle"):
        ok = is_indiscernible(g, out, delta)
    return {"sequence": list(out), "length": len(out), "target": args.m}, {"indiscernible": ok}


def cmd_ladder(args: argparse.Namespace, run: _Run) -> Outcome:
    g = run.graph = load_graph(args.graph)
    run.options = {"graph": args.graph, "max_k": args.max_k}
    with run("ladder"):
        index = ladder_index(g, args.max_k)
    return {"ladder_index": index, "max_k": args.max_k}, None


def _core_options(args: argparse.Namespace, cfg: CoreConfig) -> dict[str, Any]:
    return {"graph": args.graph, "r": args.r, "k": args.k, "ell": cfg.effective_ell}


_NO_SHRINKAGE = "no shrinkage: core equals the whole vertex set"


def cmd_core(args: argparse.Namespace, run: _Run) -> Outcome:
    g = run.graph = load_graph(args.graph)
    cfg = _core_config(args)
    run.options = {**_core_options(args, cfg), "batch": not args.single}
    with run("core"):
        core = domination_core(g, cfg, batch=not args.single)
    result = {
        "Z": sorted(core.Z),
        "z_size": len(core.Z),
        "removed": sorted(w for rec in core.removal_log for w in rec.removed),
    }
    if len(core.Z) == g.n:
        result["note"] = _NO_SHRINKAGE
    return result, {"removals_justified": recheck_core(g, core, cfg)}


def cmd_kernelize(args: argparse.Namespace, run: _Run) -> Outcome:
    g = run.graph = load_graph(args.graph)
    cfg = _core_config(args)
    run.options = {**_core_options(args, cfg), "out": args.out, "verify": args.verify}
    core, reps, ker = kernel_pipeline(g, cfg, run)
    z_ids, y_ids = sorted(ker.z_ids.values()), sorted(ker.y_ids.values())
    Path(args.out).write_text(kernel_text(ker.graph, ker.k_new, z_ids, y_ids, list(ker.gadget_ids)))
    verified = {
        "projection": ker.projection_ok,
        "removals_justified": recheck_core(g, core, cfg),
        "representatives": recheck_representatives(g, core.Z, reps, cfg.r),
    }
    result = {
        "z_size": len(core.Z),
        "y_size": len(reps.Y),
        "vh": ker.graph.n,
        "k_new": ker.k_new,
        "kernel": ker.kind,
        "kernel_z": len(z_ids),
        "kernel_y": len(y_ids),
        "out": args.out,
    }
    if len(core.Z) == g.n:
        result["note"] = _NO_SHRINKAGE
    if args.verify:
        if g.n <= _VERIFY_INPUT_BOUND and ker.graph.n <= _VERIFY_KERNEL_BOUND:
            with run("verify"):
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
    return result, verified


# The flags of ``solve``, by problem: those it requires, then the others it
# reads. A problem refuses every flag of this table that it does not read.
_SOLVE_FLAGS = {
    "drds": (("r", "k"), ()),
    "cds": (("k",), ()),
    "cds-fpt": (("k",), ("s_max", "delta_k", "K_threshold")),
    "steiner": (("terminals",), ()),
}


def _check_solve_flags(args: argparse.Namespace) -> None:
    """Refuse a missing required flag of the problem, then the first flag of
    the table given that the problem does not read."""
    required, reads = _SOLVE_FLAGS[args.problem]
    if not all(name in vars(args) for name in required):
        verb = "is" if len(required) == 1 else "are"
        names = " and ".join(map(_flag, required))
        raise InputError(f"{names} {verb} required for the {args.problem} problem")
    table = {name for flags in _SOLVE_FLAGS.values() for names in flags for name in names}
    _refuse_unread(args, table, required + reads, f"--problem {args.problem}")


def cmd_solve(args: argparse.Namespace, run: _Run) -> Outcome:
    g = run.graph = load_graph(args.graph)
    _check_solve_flags(args)
    run.options = {"graph": args.graph, "problem": args.problem}

    if args.problem == "steiner":
        terminals = _parse_int_list(args.terminals, "terminal")
        run.options["terminals"] = terminals
        with run("solve"):
            edges, cost = dreyfus_wagner(SteinerInstance(g, tuple(terminals)))
        vertices = sorted({v for e in edges for v in e} | set(terminals))
        result = {
            "solution": vertices,
            "cost": cost,
            "edges": sorted([list(e) for e in edges]),
        }
        return result, {"tree": verify_steiner(g, terminals, edges, cost)}

    run.options.update({name: getattr(args, name) for name in _SOLVE_FLAGS[args.problem][0]})
    with run("solve"):
        if args.problem == "drds":
            sol = exact_drds(g, args.r, args.k)
        elif args.problem == "cds":
            sol = brute_cds(g, args.k)
        else:
            sol = cds_fpt(
                g, args.k, _uqw_config(args), K_threshold=getattr(args, "K_threshold", None)
            )
    if sol is None:
        return {"solution": "NONE"}, None
    if args.problem == "drds":
        verified = {"dominating": len(sol) <= args.k and verify_drds(g, sol, args.r)}
    else:
        verified = {"connected_dominating": len(sol) <= args.k and verify_cds(g, sol)}
    return {"solution": sorted(sol)}, verified


def _bench_cell(args: argparse.Namespace, size: int, k: int) -> dict[str, Any]:
    if args.family == "grid":
        g = generate(GenSpec(family="grid", params={"w": size, "h": size}))
    elif args.family == "random_degenerate":
        params = {"n": size, "c": getattr(args, "c", 3), "seed": getattr(args, "seed", 0)}
        g = generate(GenSpec(family="random_degenerate", params=params))
    else:
        raise InputError(
            f"bench supports grid and random_degenerate, not {args.family!r}"
        )
    cfg = CoreConfig(r=args.r, k=k, ell=args.ell, uqw=_uqw_config(args))
    stages = _Run(args.deterministic)
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
        "verified": recheck_core(g, core, cfg)
        and recheck_representatives(g, core.Z, reps, cfg.r),
        "projection_ok": ker.projection_ok,
    }


def cmd_bench(args: argparse.Namespace, run: _Run) -> Outcome:
    reads = ("c", "seed") if args.family == "random_degenerate" else ()
    _refuse_unread(args, ("c", "seed"), reads, f"--family {args.family}")
    sizes = _parse_int_list(args.sizes, "size")
    ks = _parse_int_list(args.ks, "k")
    run.options = {
        "family": args.family,
        "sizes": sizes,
        "r": args.r,
        "ks": ks,
        "out": args.out,
    }
    with run("bench"):
        rows = [_bench_cell(args, size, k) for size in sizes for k in ks]

    def cell_text(value: Any) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    # the columns are the keys of a row, in _bench_cell's order
    lines = [",".join(rows[0])]
    lines.extend(",".join(cell_text(value) for value in row.values()) for row in rows)
    Path(args.out).write_text("\n".join(lines) + "\n")
    return {"rows": len(rows), "out": args.out}, None


def _add_uqw_flags(parser: argparse.ArgumentParser) -> None:
    # no defaults here: UqwConfig holds them (16 and 4)
    parser.add_argument(
        "--s-max", type=int, default=argparse.SUPPRESS, help="deletion budget"
    )
    parser.add_argument(
        "--delta-k",
        type=int,
        default=argparse.SUPPRESS,
        help="formula arity of every splitter round",
    )


def _add_core_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", required=True)
    parser.add_argument("--r", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--ell", type=int, default=None, help="first sieve window")


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
    p.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="seed for random families (default 0)"
    )

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
    _add_core_flags(p)
    p.add_argument(
        "--single", action="store_true", help="remove one vertex per round"
    )
    _add_uqw_flags(p)

    p = sub.add_parser("kernelize", parents=[common], help="build the kernel")
    _add_core_flags(p)
    p.add_argument("--out", required=True, help="kernel file path")
    p.add_argument(
        "--verify",
        action="store_true",
        help="solve both sides exactly when small enough and compare",
    )
    _add_uqw_flags(p)

    # A problem takes only its flags of _SOLVE_FLAGS; they have no defaults.
    p = sub.add_parser("solve", parents=[common], help="run an exact solver")
    p.add_argument("--graph", required=True)
    p.add_argument("--problem", required=True, choices=list(_SOLVE_FLAGS))
    p.add_argument("--r", type=int, default=argparse.SUPPRESS, help="drds only")
    p.add_argument("--k", type=int, default=argparse.SUPPRESS, help="all but steiner")
    p.add_argument(
        "--terminals", default=argparse.SUPPRESS, help="steiner only: comma-separated ids"
    )
    p.add_argument(
        "--K-threshold",
        dest="K_threshold",
        type=int,
        default=argparse.SUPPRESS,
        help="cds-fpt only: undominated-size bound that switches to its leaf routine",
    )
    _add_uqw_flags(p)

    p = sub.add_parser("bench", parents=[common], help="kernel-size sweep to CSV")
    p.add_argument("--family", required=True, help="grid or random_degenerate")
    p.add_argument("--sizes", required=True, help="e.g. 8,12,16")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ks", required=True, help="e.g. 2..6 or 2,4,6")
    p.add_argument("--out", required=True, help="CSV path (fresh file per run)")
    p.add_argument("--ell", type=int, default=None, help="first sieve window")
    p.add_argument(
        "--c",
        type=int,
        default=argparse.SUPPRESS,
        help="random_degenerate only: degeneracy bound (default 3)",
    )
    p.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="random_degenerate only (default 0)"
    )
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
    try:
        args = build_parser().parse_args(argv)
        run = _Run(args.deterministic)
        try:
            # looked up per call, not stored in the cached parser, so a
            # command function replaced on this module takes effect
            outcome = globals()[f"cmd_{args.subcommand}"](args, run)
        except DensityError as exc:
            outcome = _refusal(args.subcommand, exc), None
    except (InputError, ConfigError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if outcome is None:
        return 0
    result, verified = outcome
    _print_report(args.subcommand, run, result, verified)
    if "failure" in result or not all((verified or {}).values()):
        return 2
    return 3 if result.get("solution") == "NONE" else 0


if __name__ == "__main__":
    sys.exit(main())
