"""Command-line surface: exit codes, JSON payloads, file outputs, rerun
stability. Invocations go through a real subprocess so argument parsing,
error routing, and stream separation are exercised end to end; the last
test calls ``main`` in-process, as the benchmark and library callers do."""

import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "quasiwide.cli"]


def run(*argv, check=False, log=False):
    env = {key: value for key, value in os.environ.items() if key != "QUASIWIDE_LOG"}
    if log:
        env["QUASIWIDE_LOG"] = "1"
    proc = subprocess.run(
        CLI + list(argv), capture_output=True, text=True, timeout=120, env=env
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"exit {proc.returncode}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
    return proc


@pytest.fixture()
def grid32(tmp_path):
    path = tmp_path / "g32.el"
    run("gen", "--family", "grid", "--params", "w=3,h=2", "--out", str(path), check=True)
    return str(path)


def test_gen_stdout_frozen():
    proc = run("gen", "--family", "path", "--params", "n=4", check=True)
    assert proc.stdout == "n=4\n0 1\n1 2\n2 3\n"


def test_gen_seeded_family_frozen():
    proc = run(
        "gen", "--family", "random_degenerate", "--params", "n=8,c=2,seed=1",
        check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "n=8"
    assert lines[1:4] == ["0 1", "0 2", "1 2"]
    assert len(lines) == 14


def test_gen_rejects_unknown_family():
    proc = run("gen", "--family", "moebius", "--params", "n=4")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_uqw_json_payload(grid32):
    proc = run("uqw", "--graph", grid32, "--A", "all", "--r", "2", "--m", "3", check=True)
    doc = json.loads(proc.stdout)
    assert doc["command"] == "uqw"
    assert doc["input"] == {"n": 6, "m": 7, "degeneracy": 2}
    assert doc["result"]["S"] == []
    assert doc["result"]["B"] == [0]
    assert doc["verified"]["independent"] is True
    assert [r["round"] for r in doc["result"]["rounds"]] == [1]


def test_uqw_density_failure_exit_2(tmp_path):
    k16 = tmp_path / "k16.el"
    run("gen", "--family", "clique", "--params", "n=16", "--out", str(k16), check=True)
    proc = run(
        "uqw", "--graph", str(k16), "--A", "all", "--r", "2", "--m", "8",
        "--s-max", "4", "--deterministic",
    )
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["result"]["failure"] == "density"
    assert len(doc["result"]["certificate"]) == 16
    assert doc["result"]["rounds_completed"] == 0
    assert doc["timings_ms"] == {"uqw": 0.0}


def test_uqw_target_size_only_cuts_b(tmp_path, capsys):
    # --m cuts the report's B and changes nothing else; the halfgraph
    # refuses at --s-max 2, so each M must give the same refusal
    from dataclasses import asdict

    from quasiwide.cli import main
    from quasiwide.errors import DensityError
    from quasiwide.generators import GenSpec, generate
    from quasiwide.io import save_graph
    from quasiwide.uqw import UqwConfig, uqw_split

    path, refused = tmp_path / "g.el", 0
    for spec in (
        GenSpec("grid", {"w": 6, "h": 5}),
        GenSpec("star", {"p": 9}),
        GenSpec("random_degenerate", {"n": 24, "c": 2, "seed": 4}),
        GenSpec("halfgraph", {"k": 6}),
    ):
        g = generate(spec)
        save_graph(g, path)
        for r in (1, 3):
            argv = ["uqw", "--graph", str(path), "--A", "all", "--r", str(r),
                    "--s-max", "2", "--delta-k", "4", "--deterministic", "--m"]
            try:
                full = uqw_split(g, range(g.n), r, UqwConfig(s_max=2, delta_k=4))
            except DensityError:
                full = None
            refusals = []
            for m in (1, 3, 13):
                code = main(argv + [str(m)])
                doc = json.loads(capsys.readouterr().out)
                if full is None:
                    assert code == 2
                    del doc["options"]["m"]
                    refusals.append(doc)
                    continue
                assert code == 0
                assert doc["result"] == {
                    "S": sorted(full.S),
                    "B": list(full.B[:m]),
                    "rounds": json.loads(json.dumps([asdict(log) for log in full.rounds])),
                }
                assert doc["verified"] == {"independent": True}
            assert all(doc == refusals[0] for doc in refusals)
            refused += bool(refusals)
    assert refused == 2
    assert main(argv + ["0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: target size must be positive, got 0\n"


@pytest.fixture()
def dense_repro(tmp_path):
    """A 40-vertex 2-degenerate graph, on which the sieve's radius-4 split
    once refused falsely: its extraction kept one vertex, whose every
    neighbour then counted as adjacent to more than half of it."""
    path = tmp_path / "repro.el"
    run(
        "gen", "--family", "random_degenerate", "--params", "n=40,c=2,seed=1004",
        "--out", str(path), check=True,
    )
    return str(path)


@pytest.fixture()
def clique40(tmp_path):
    """A 40-clique, on which the sieve's split refuses at the default s_max."""
    path = tmp_path / "k40.el"
    run("gen", "--family", "clique", "--params", "n=40", "--out", str(path), check=True)
    return str(path)


def assert_density_refusal(proc, message, stage):
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert set(doc["result"]) == {"candidates", "certificate", "failure", "message"}
    assert doc["result"]["failure"] == "density"
    assert doc["result"]["message"] == message
    # the stage that refused keeps its time
    assert doc["timings_ms"] == {stage: 0.0}
    assert "verified" not in doc


@pytest.mark.parametrize("command", ["core", "kernelize"])
def test_sieve_density_refusal_report(tmp_path, clique40, command):
    kern = tmp_path / "k.kern"
    extra = ("--out", str(kern)) if command == "kernelize" else ()
    proc = run(
        command, "--graph", clique40, "--r", "2", "--k", "5", "--ell", "16",
        *extra, "--deterministic",
    )
    # kernelize's refusal comes from its core stage
    assert_density_refusal(proc, "deletion set would reach 40 > s_max=16 in round 1", "core")
    assert not kern.exists()


def test_sparse_repro_kernelizes_with_the_right_answer(tmp_path, dense_repro, capsys):
    from quasiwide.cli import main
    from quasiwide.io import load_graph
    from quasiwide.solvers import exact_drds

    kern = tmp_path / "k.kern"
    assert main(["kernelize", "--graph", dense_repro, "--r", "2", "--k", "5",
                 "--ell", "16", "--out", str(kern), "--verify", "--deterministic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(doc["verified"].values())
    want = exact_drds(load_graph(dense_repro), 2, 5) is not None
    assert doc["result"]["answer_input"] == doc["result"]["answer_kernel"] == want


def test_bench_density_refusal_report(tmp_path, capsys):
    # main turns every refusal into the same report, bench's too (no input
    # summary: bench generates its graphs); a 39-degenerate graph on 40
    # vertices is the 40-clique
    from quasiwide.cli import main

    out = tmp_path / "b.csv"
    assert main(["bench", "--family", "random_degenerate", "--sizes", "40", "--c", "39",
                 "--seed", "0", "--r", "2", "--ks", "5", "--ell", "16",
                 "--out", str(out), "--deterministic"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"command", "options", "result", "timings_ms"}
    assert doc["result"]["message"] == "deletion set would reach 40 > s_max=16 in round 1"
    assert not out.exists()


def test_cds_fpt_density_refusal_report(tmp_path):
    k16 = tmp_path / "k16.el"
    run("gen", "--family", "clique", "--params", "n=16", "--out", str(k16), check=True)
    proc = run(
        "solve", "--graph", str(k16), "--problem", "cds-fpt", "--k", "3",
        "--s-max", "2", "--K-threshold", "5", "--deterministic",
    )
    assert_density_refusal(proc, "deletion set would reach 16 > s_max=2 in round 1", "solve")


def test_stage_logs_go_to_stderr_only(dense_repro):
    argv = (
        "core", "--graph", dense_repro, "--r", "1", "--k", "5", "--ell", "16",
        "--delta-k", "4", "--deterministic",
    )
    quiet = run(*argv, check=True)
    loud = run(*argv, check=True, log=True)
    assert loud.stdout == quiet.stdout
    assert quiet.stderr == ""
    assert loud.stderr.splitlines() == [
        "[uqw] round 1: |A|=16 extracted=4 |S|=2 |B|=2",
        "[kernelize] no qualifying bucket, widening window to 32",
        "[uqw] round 1: |A|=32 extracted=4 |S|=0 |B|=2",
        "[kernelize] no qualifying bucket, widening window to 64",
        "[uqw] round 1: |A|=40 extracted=4 |S|=0 |B|=2",
        "[kernelize] no removable dominatee found in all of Z (|Z|=40)",
    ]


def test_indiscernible_command(grid32):
    argv = ["indiscernible", "--graph", grid32, "--seq", "all", "--delta", "2"]
    proc = run(*argv, check=True)
    doc = json.loads(proc.stdout)
    assert doc["command"] == "indiscernible"
    assert set(doc["options"]) == {"graph", "seq", "delta"}
    assert set(doc["result"]) == {"sequence", "length"}
    assert doc["verified"]["indiscernible"] is True
    # the extraction takes no target length
    proc = run(*argv, "--m", "5")
    assert proc.returncode == 1
    assert proc.stderr == "error: unrecognized arguments: --m 5\n"


def test_ladder_command(tmp_path):
    hg = tmp_path / "hg3.el"
    run("gen", "--family", "halfgraph", "--params", "k=3", "--out", str(hg), check=True)
    proc = run("ladder", "--graph", str(hg), "--max-k", "5", check=True)
    doc = json.loads(proc.stdout)
    assert doc["result"] == {"ladder_index": 3, "max_k": 5}


def test_core_command(grid32):
    proc = run("core", "--graph", grid32, "--r", "1", "--k", "1", "--ell", "4", check=True)
    doc = json.loads(proc.stdout)
    assert sorted(doc["result"]["Z"]) == [0, 1, 2, 3, 4, 5]
    assert doc["result"]["removed"] == []
    single = run(
        "core", "--graph", grid32, "--r", "1", "--k", "1", "--ell", "4",
        "--single", check=True,
    )
    assert json.loads(single.stdout)["result"]["Z"] == doc["result"]["Z"]


def test_kernelize_writes_parseable_kernel(tmp_path, grid32):
    out = tmp_path / "kern.txt"
    proc = run(
        "kernelize", "--graph", grid32, "--r", "1", "--k", "1", "--ell", "4",
        "--out", str(out), "--verify", check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["verified"] == {
        "equivalence": True,
        "projection": True,
        "removals_justified": True,
        "representatives": True,
    }
    assert doc["result"]["k_new"] == 2
    assert doc["result"]["answer_input"] == doc["result"]["answer_kernel"]

    from quasiwide.io import parse_edge_list, parse_kernel_header

    text = out.read_text()
    head = parse_kernel_header(text)
    assert head["k_new"] == 2
    assert head["z"] == [0, 1, 2, 3, 4, 5]
    n, _ = parse_edge_list(text)
    assert n == doc["result"]["vh"]


def test_solve_drds_no_instance_exit_3(grid32):
    proc = run("solve", "--graph", grid32, "--problem", "drds", "--r", "1", "--k", "1")
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert doc["result"] == {"solution": "NONE"}


def test_solve_drds_yes(grid32):
    proc = run(
        "solve", "--graph", grid32, "--problem", "drds", "--r", "2", "--k", "1",
        check=True,
    )
    doc = json.loads(proc.stdout)
    assert len(doc["result"]["solution"]) == 1


def test_solve_steiner(grid32):
    proc = run(
        "solve", "--graph", grid32, "--problem", "steiner", "--terminals", "0,5",
        check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["result"]["cost"] == 3
    assert doc["verified"]["tree"] is True
    assert len(doc["result"]["edges"]) == 3


def test_solve_cds_both_engines(grid32):
    for problem in ("cds", "cds-fpt"):
        proc = run(
            "solve", "--graph", grid32, "--problem", problem, "--k", "2",
            check=True,
        )
        doc = json.loads(proc.stdout)
        assert len(doc["result"]["solution"]) <= 2


def test_bad_edge_file_reports_line(tmp_path):
    bad = tmp_path / "bad.el"
    bad.write_text("n=3\n0 1\n9 1\n")
    proc = run("solve", "--graph", str(bad), "--problem", "drds", "--r", "1", "--k", "1")
    assert proc.returncode == 1
    assert "line 3" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "path", "--params", "n=4"],
    ["kernelize", "--r", "1", "--k", "1", "--ell", "4"],
    ["bench", "--family", "grid", "--sizes", "3", "--r", "1", "--ks", "1"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, argv):
    from quasiwide.cli import main

    graph = tmp_path / "g.el"
    graph.write_text("n=3\n0 1\n1 2\n")
    out = tmp_path / "missing" / "out.txt"
    extra = ["--graph", str(graph)] if argv[0] == "kernelize" else []
    assert main(argv + extra + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def test_missing_required_flag_is_usage_error():
    proc = run("uqw", "--A", "all", "--r", "2", "--m", "3")
    assert proc.returncode == 1


def test_bench_csv_shape(tmp_path):
    out = tmp_path / "bench.csv"
    run(
        "bench", "--family", "grid", "--sizes", "4,5", "--r", "1", "--ks", "2,3",
        "--ell", "8", "--out", str(out), "--deterministic", check=True,
    )
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "family,n,r,k,z,y,vh,t_core_ms,t_reduce_ms,t_build_ms,verified,projection_ok"
    )
    assert len(lines) == 5
    assert lines[1] == "grid,16,1,2,16,16,17,0.0,0.0,0.0,true,true"
    for row in lines[1:]:
        fields = row.split(",")
        assert fields[0] == "grid"
        assert fields[-2:] == ["true", "true"]


def test_bench_verified_reads_the_representatives(monkeypatch, tmp_path, capsys):
    # a class_of that points a representative at another one, which does
    # not cover its projection, must fail the row's verified column
    from dataclasses import replace

    from quasiwide import cli, kernelize

    real = kernelize.reduce_dominators

    def misdirected(g, Z, r):
        reps = real(g, Z, r)
        a, b = sorted(y for y in reps.Y if reps.projection[y])[:2]
        return replace(reps, class_of={**reps.class_of, a: b})

    argv = ["bench", "--family", "grid", "--sizes", "5", "--r", "1", "--ks", "2",
            "--ell", "8", "--out", str(tmp_path / "b.csv"), "--deterministic"]
    assert cli.main(argv) == 0
    assert (tmp_path / "b.csv").read_text().splitlines()[1].endswith(",true,true")
    monkeypatch.setattr(kernelize, "reduce_dominators", misdirected)
    assert cli.main(argv) == 0
    assert (tmp_path / "b.csv").read_text().splitlines()[1].endswith(",false,true")
    capsys.readouterr()


def test_kernelize_falls_back_to_the_identity_kernel(tmp_path, capsys):
    # K3 keeps Z = V, so the construction has 3 + 2 vertices against n + 1 = 4
    from quasiwide import cli
    from quasiwide.io import parse_edge_list, parse_kernel_header

    (tmp_path / "k3.el").write_text("n=3\n0 1\n0 2\n1 2\n")
    out = tmp_path / "k3.kern"
    argv = ["kernelize", "--graph", str(tmp_path / "k3.el"), "--r", "1", "--k", "1",
            "--ell", "4", "--out", str(out), "--verify", "--deterministic"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["kernel"] == "identity"
    assert doc["result"]["vh"] == 4 and doc["result"]["k_new"] == 2
    assert doc["verified"]["equivalence"] is True
    text = out.read_text()
    assert parse_kernel_header(text) == {
        "k_new": 2, "z": [0, 1, 2], "y": [0, 1, 2], "gadget": [3],
    }
    assert parse_edge_list(text) == (4, [(0, 1), (0, 2), (1, 2)])


def test_identity_kernel_reports_its_own_z_and_y(tmp_path, capsys):
    # the sieve removes one vertex of this 65-vertex graph, but the identity
    # kernel lists all 65 under z and y: z_size/y_size count the sieve's
    # sets, kernel_z/kernel_y the file's headers
    from quasiwide import cli
    from quasiwide.io import parse_kernel_header

    graph, out = tmp_path / "d65.el", tmp_path / "d65.kern"
    run("gen", "--family", "random_degenerate", "--params", "n=65,c=2,seed=11",
        "--out", str(graph), check=True)
    argv = ["kernelize", "--graph", str(graph), "--r", "1", "--k", "2", "--ell", "64",
            "--delta-k", "4", "--out", str(out), "--deterministic"]
    assert cli.main(argv) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["kernel"] == "identity" and result["vh"] == 66
    assert (result["z_size"], result["kernel_z"]) == (64, 65)
    assert (result["y_size"], result["kernel_y"]) == (63, 65)
    header = parse_kernel_header(out.read_text())
    assert (len(header["z"]), len(header["y"])) == (65, 65)


def test_core_with_a_foreign_anchor_is_unjustified(monkeypatch, tmp_path, capsys):
    # an anchor outside V(G) fails the audit instead of reading as bad input
    from dataclasses import replace

    from quasiwide import cli

    real = cli.domination_core

    def foreign(g, cfg, batch=True):
        core = real(g, cfg, batch)
        first = replace(core.removal_log[0], anchors=(999,))
        return replace(core, removal_log=(first, *core.removal_log[1:]))

    (tmp_path / "p.el").write_text("n=12\n" + "".join(f"{i} {i + 1}\n" for i in range(11)))
    argv = ["core", "--graph", str(tmp_path / "p.el"), "--r", "1", "--k", "1",
            "--ell", "4", "--deterministic"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "domination_core", foreign)
    assert cli.main(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] == {"removals_justified": False}


def test_deterministic_rerun_is_byte_identical(tmp_path, grid32):
    argv = [
        "kernelize", "--graph", grid32, "--r", "1", "--k", "2", "--ell", "5",
        "--out", str(tmp_path / "k.txt"), "--verify", "--deterministic",
    ]
    first = run(*argv, check=True)
    kern1 = (tmp_path / "k.txt").read_bytes()
    second = run(*argv, check=True)
    kern2 = (tmp_path / "k.txt").read_bytes()
    assert first.stdout == second.stdout
    assert kern1 == kern2


def test_in_process_calls_share_one_parser(monkeypatch, tmp_path, capsys):
    # In-process callers reuse the parser; each call still reaches the
    # command function the module holds at that moment, and main reports
    # what it returns.
    from quasiwide import cli

    assert cli.build_parser() is cli.build_parser()
    path = tmp_path / "p.el"
    assert cli.main(["gen", "--family", "path", "--params", "n=3", "--out", str(path)]) == 0
    assert path.read_text() == "n=3\n0 1\n1 2\n"
    capsys.readouterr()
    seen = []

    def fake_ladder(args, run):
        seen.append(args.max_k)
        run.options = {"max_k": args.max_k}
        return {"ladder_index": 0}, None

    monkeypatch.setattr(cli, "cmd_ladder", fake_ladder)
    assert cli.main(["ladder", "--graph", str(path), "--max-k", "3"]) == 0
    assert seen == [3]
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"command": "ladder", "options": {"max_k": 3}, "timings_ms": {},
                   "result": {"ladder_index": 0}}
    # a usage error on the shared parser leaves it usable
    assert cli.main(["ladder", "--graph", str(path)]) == 1
    assert cli.main(["ladder", "--graph", str(path), "--max-k", "2"]) == 0
    assert seen == [3, 2]
    # main derives the exit code from what the command returns
    for outcome, code in [(({}, {"a": True, "b": False}), 2), (({"failure": "x"}, None), 2),
                          (({"solution": "NONE"}, None), 3), (({}, {"a": True}), 0)]:
        monkeypatch.setattr(cli, "cmd_ladder", lambda args, run, outcome=outcome: outcome)
        assert cli.main(["ladder", "--graph", str(path), "--max-k", "2"]) == code
    capsys.readouterr()


# One valid argument list per subcommand that reads splitter flags; the
# files are never opened, because parsing fails first.
_SPLITTER_COMMANDS = {
    "uqw": ["uqw", "--graph", "g.el", "--A", "all", "--r", "1", "--m", "2"],
    "core": ["core", "--graph", "g.el", "--r", "1", "--k", "1"],
    "kernelize": ["kernelize", "--graph", "g.el", "--r", "1", "--k", "1", "--out", "k"],
    "solve": ["solve", "--graph", "g.el", "--problem", "cds-fpt", "--k", "1"],
    "bench": ["bench", "--family", "grid", "--sizes", "3", "--r", "1", "--ks", "1",
              "--out", "b.csv"],
}
_SEEDLESS_COMMANDS = {
    **{name: argv for name, argv in _SPLITTER_COMMANDS.items() if name != "bench"},
    "indiscernible": ["indiscernible", "--graph", "g.el", "--seq", "all", "--delta", "1"],
    "ladder": ["ladder", "--graph", "g.el", "--max-k", "2"],
}


@pytest.mark.parametrize("flag", ["--theta", "--delta-cap", "--max-rounds"])
@pytest.mark.parametrize("command", sorted(_SPLITTER_COMMANDS))
def test_removed_splitter_flags_are_usage_errors(capsys, command, flag):
    from quasiwide.cli import main

    assert main(_SPLITTER_COMMANDS[command] + [flag, "1"]) == 1
    assert f"error: unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_SEEDLESS_COMMANDS))
def test_seed_only_where_a_command_reads_it(capsys, command):
    from quasiwide.cli import main

    assert main(_SEEDLESS_COMMANDS[command] + ["--seed", "3"]) == 1
    assert "error: unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_gen_and_bench_read_seed(tmp_path, capsys):
    from quasiwide.cli import main

    seeded = tmp_path / "seeded.el"
    assert main(["gen", "--family", "random_degenerate", "--params", "n=12,c=2",
                 "--seed", "3", "--out", str(seeded)]) == 0
    explicit = tmp_path / "explicit.el"
    assert main(["gen", "--family", "random_degenerate", "--params", "n=12,c=2,seed=3",
                 "--out", str(explicit)]) == 0
    assert seeded.read_text() == explicit.read_text()
    out = tmp_path / "bench.csv"
    assert main(["bench", "--family", "random_degenerate", "--sizes", "12", "--r", "1",
                 "--ks", "1", "--ell", "6", "--seed", "3", "--out", str(out),
                 "--deterministic"]) == 0
    assert out.read_text().splitlines()[1].startswith("random_degenerate,12,1,1,")
    capsys.readouterr()


def test_gen_refuses_two_seeds(tmp_path, capsys):
    from quasiwide.cli import main

    out = tmp_path / "g.el"
    assert main(["gen", "--family", "random_degenerate", "--params", "n=6,c=2,seed=5",
                 "--seed", "7", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed and --params seed= are both given\n"
    assert not out.exists()


@pytest.mark.parametrize("params, message", [
    ("n=3,n=5", "error: parameter 'n' is given twice\n"),
    ("n=3, n =5", "error: parameter 'n' is given twice\n"),
    ("=3", "error: parameter '=3' has no name\n"),
    ("n=3, =5", "error: parameter ' =5' has no name\n"),
])
def test_gen_refuses_a_repeated_or_empty_parameter_name(tmp_path, capsys, params, message):
    from quasiwide.cli import main

    out = tmp_path / "g.el"
    assert main(["gen", "--family", "path", "--params", params, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
    assert not out.exists()


_GRID_BENCH = ["bench", "--family", "grid", "--sizes", "3", "--r", "1", "--ks", "1",
               "--out", "b.csv"]


@pytest.mark.parametrize("argv, flag", [
    (["gen", "--family", "grid", "--params", "w=3,h=3", "--seed", "3"], "--seed"),
    (_GRID_BENCH + ["--seed", "3"], "--seed"),
    (_GRID_BENCH + ["--c", "2"], "--c"),
])
def test_grid_refuses_unread_family_flags(tmp_path, monkeypatch, capsys, argv, flag):
    from quasiwide.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --family grid does not read {flag}\n"
    assert not (tmp_path / "b.csv").exists()



# Each solve problem with the flags it requires, and a value for every flag
# of solve that some problem reads.
_SOLVE_BASES = {
    "drds": ["--r", "1", "--k", "3"],
    "cds": ["--k", "3"],
    "cds-fpt": ["--k", "3"],
    "steiner": ["--terminals", "0,2"],
}
_SOLVE_VALUES = {"--r": "1", "--k": "3", "--terminals": "0,2", "--K-threshold": "5",
                 "--s-max": "4", "--delta-k": "2"}
_SOLVE_READS = {"cds-fpt": ("--K-threshold", "--s-max", "--delta-k")}


@pytest.fixture()
def grid33(tmp_path):
    from quasiwide.cli import main

    path = tmp_path / "g33.el"
    assert main(["gen", "--family", "grid", "--params", "w=3,h=3", "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("problem, flag", [
    (problem, flag)
    for problem, base in _SOLVE_BASES.items()
    for flag in _SOLVE_VALUES
    if flag not in base and flag not in _SOLVE_READS.get(problem, ())
])
def test_solve_refuses_flags_its_problem_does_not_read(capsys, grid33, problem, flag):
    from quasiwide.cli import main

    argv = ["solve", "--graph", grid33, "--problem", problem, *_SOLVE_BASES[problem]]
    assert main(argv + [flag, _SOLVE_VALUES[flag]]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --problem {problem} does not read {flag}\n"
    assert captured.out == ""


def test_solve_names_the_first_unread_flag(capsys, grid33):
    from quasiwide.cli import main

    argv = ["solve", "--graph", grid33, "--problem", "drds", "--r", "1", "--k", "3",
            "--s-max", "-5", "--delta-k", "99"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --problem drds does not read --s-max\n"


def test_cds_fpt_reads_its_splitter_flags(capsys, grid33):
    from quasiwide.cli import main

    argv = ["solve", "--graph", grid33, "--problem", "cds-fpt", "--k", "3",
            "--s-max", "4", "--delta-k", "2", "--K-threshold", "5", "--deterministic"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] == {"connected_dominating": True}
    assert main(argv[:-1] + ["--s-max", "-5"]) == 1
    assert capsys.readouterr().err == "error: s_max must be non-negative, got -5\n"


@pytest.mark.parametrize("problem, message", [
    ("drds", "--r and --k are required for the drds problem"),
    ("cds", "--k is required for the cds problem"),
    ("cds-fpt", "--k is required for the cds-fpt problem"),
    ("steiner", "--terminals is required for the steiner problem"),
])
def test_solve_missing_flag_messages(capsys, grid33, problem, message):
    from quasiwide.cli import main

    argv = ["solve", "--graph", grid33, "--problem", problem]
    assert main(argv + (["--k", "3"] if problem == "drds" else [])) == 1
    assert capsys.readouterr().err == f"error: {message}\n"

def test_pure_import_loads_no_numpy():
    # pure runs' set-up time and memory rest on never importing numpy; the
    # None entry makes the extension unimportable even where it is built
    code = (
        "import sys; sys.modules['quasiwide._kernels._native'] = None; "
        "import quasiwide.cli, quasiwide._kernels as K; "
        "print('numpy' in sys.modules, K.BACKEND)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False pure\n"
