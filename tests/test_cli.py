"""End-to-end tests for the command-line interface."""
import os
import re

import pytest

from coordmp import cli
from coordmp.cli import ALGORITHMS, main
from coordmp.core import LimitError, parse_instance, parse_schedule, validate_schedule
from coordmp.hardness import MulticoloredGraph, render_mcc

P3_BUDGET2 = "gcmp 1\nn 3\ne 0 1\ne 1 2\nr 0 0 2\nbudget 2\n"
P3_TIGHT = "gcmp 1\nn 3\ne 0 1\ne 1 2\nr 0 0 2\nbudget 1\n"
P3_SWAP = "gcmp 1\nn 3\ne 0 1\ne 1 2\nr 0 0 2\nr 1 2 0\n"
# A path 0-1-2-3 with pocket 4 hanging off vertex 1: the free robot can
# step aside, so the single mover's instance is feasible.
P4_ONE_MOVER = "gcmp 1\nn 5\ne 0 1\ne 1 2\ne 2 3\ne 1 4\nr 0 0 3\nr 1 1 -\n"
EDGE_SWAP_INSTANCE = "gcmp 1\nn 3\ne 0 1\ne 1 2\nr 0 0 -\nr 1 1 -\n"
EDGE_SWAP_SCHED = "sched 2 1\nrobot 0: 0 1\nrobot 1: 1 0\n"

SUMMARY = re.compile(r"^alg=[a-z0-9]+ energy=(\d+|-) status=[a-z-]+$")


def _file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_oracle_budgeted_yes(tmp_path, capsys):
    inst = _file(tmp_path, "p3.gcmp", P3_BUDGET2)
    out_path = str(tmp_path / "out.sched")
    code, out, _ = run(capsys, "solve", "--alg", "oracle", "-i", inst,
                       "-o", out_path)
    assert code == 0
    assert out.splitlines()[0] == "alg=oracle energy=2 status=optimal"
    instance = parse_instance(P3_BUDGET2)
    sched = parse_schedule(open(out_path).read(), instance)
    assert validate_schedule(instance, sched).ok


def test_solve_oracle_blocking_infeasible(tmp_path, capsys):
    inst = _file(tmp_path, "swap.gcmp", P3_SWAP)
    code, out, _ = run(capsys, "solve", "--alg", "oracle", "-i", inst)
    assert code == 2
    assert "status=infeasible" in out


def test_solve_approx_infeasible_exit_2(tmp_path, capsys):
    inst = _file(tmp_path, "swap.gcmp", P3_SWAP)
    code, out, err = run(capsys, "solve", "--alg", "approx", "-i", inst)
    assert code == 2
    assert out == "alg=approx energy=- status=infeasible\n"
    assert err.startswith("infeasible: ")


def test_solve_budget_exceeded_exit_1(tmp_path, capsys):
    inst = _file(tmp_path, "tight.gcmp", P3_TIGHT)
    code, out, _ = run(capsys, "solve", "--alg", "oracle", "-i", inst)
    assert code == 1
    assert "status=budget-exceeded" in out


def test_solve_approx_certified_no_exit_1(tmp_path, capsys):
    # The movers' combined shortest-path distance already exceeds the
    # budget, so the approximation certifies the "no" despite not being
    # an exact solver.
    inst = _file(tmp_path, "tight.gcmp", P3_TIGHT)
    code, out, _ = run(capsys, "solve", "--alg", "approx", "-i", inst)
    assert code == 1
    assert "status=budget-exceeded" in out


def test_solve_approx_undecided_budget_exit_4(tmp_path, capsys):
    # Swap on a star needs 6 moves; the distance lower bound is 4. With a
    # budget of 5 the approximation can neither witness a yes nor certify
    # a no, so the run reports its limit instead of guessing.
    text = ("gcmp 1\nn 4\ne 0 1\ne 0 2\ne 0 3\n"
            "r 0 1 2\nr 1 2 1\nbudget 5\n")
    inst = _file(tmp_path, "undecided.gcmp", text)
    code, out, _ = run(capsys, "solve", "--alg", "approx", "-i", inst)
    assert code == 4
    assert "alg=approx energy=6 status=budget-limited" in out


def test_solver_schedules_revalidate_from_disk(tmp_path, capsys):
    """Every schedule-emitting algorithm's output re-validates after a
    round trip through the schedule file format."""
    cases = [
        ("oracle", P3_BUDGET2),
        ("critical", P3_BUDGET2),
        ("gcmp1", P4_ONE_MOVER),
        ("approx", P4_ONE_MOVER),
    ]
    for alg, text in cases:
        inst = _file(tmp_path, f"{alg}.gcmp", text)
        out_path = str(tmp_path / f"{alg}.sched")
        code, out, _ = run(capsys, "solve", "--alg", alg, "-i", inst,
                           "-o", out_path)
        assert code == 0, (alg, out)
        assert SUMMARY.match(out.splitlines()[0]), (alg, out)
        instance = parse_instance(text)
        sched = parse_schedule(open(out_path).read(), instance)
        assert validate_schedule(instance, sched).ok, alg


def test_solve_twdp_summary(tmp_path, capsys):
    inst = _file(tmp_path, "p3.gcmp", P3_BUDGET2)
    code, out, _ = run(capsys, "solve", "--alg", "twdp", "-i", inst)
    assert code == 0
    assert out.splitlines()[0] == "alg=twdp energy=2 status=optimal"


def test_solve_twdp_budget_limited_exit_4(tmp_path, capsys):
    # At checkpoint budget 8 the DP cannot confirm the certificate on this
    # 2x7 ladder, so the run reports no energy and ends at the limit.
    inst = str(tmp_path / "ladder.gcmp")
    code, _, _ = run(capsys, "gen", "grid", "--w", "7", "--h", "2",
                     "--robots", "2", "--seed", "2", "-o", inst)
    assert code == 0
    code, out, _ = run(capsys, "solve", "--alg", "twdp", "-i", inst,
                       "--checkpoint-budget", "8")
    assert code == 4
    assert out.splitlines() == ["alg=twdp energy=- status=budget-limited"]


def test_twdp_options_rejected_for_other_algorithms(tmp_path, capsys):
    inst = _file(tmp_path, "p3.gcmp", P3_BUDGET2)
    for alg in ("oracle", "critical", "gcmp1", "approx"):
        code, out, err = run(capsys, "solve", "--alg", alg, "-i", inst,
                             "--checkpoint-budget", "8")
        assert code == 3, alg
        assert out == "" and "--checkpoint-budget applies only to --alg twdp" in err
    # The visit cap is a constant and twdp builds its own decomposition:
    # no algorithm takes either flag.
    for alg in ALGORITHMS:
        for extra in (("--visit-cap", "3"), ("--td-file", "x.td")):
            code, out, err = run(capsys, "solve", "--alg", alg, "-i", inst,
                                 *extra)
            assert code == 3 and out == "" and extra[0] in err, (alg, extra)
    code, out, _ = run(capsys, "solve", "--alg", "twdp", "-i", inst,
                       "--checkpoint-budget", "8")
    assert code == 0
    assert out.splitlines()[0] == "alg=twdp energy=2 status=optimal"


def test_solve_state_cap_exit_4(tmp_path, capsys):
    inst = _file(tmp_path, "p4.gcmp", P4_ONE_MOVER)
    # twdp returns its oracle certificate's state-limit.
    for alg in ("oracle", "twdp"):
        code, out, _ = run(capsys, "solve", "--alg", alg, "-i", inst,
                           "--state-cap", "1")
        assert code == 4, alg
        assert out.splitlines()[0] == f"alg={alg} energy=- status=state-limit"


def test_approx_limit_prints_summary_exit_4(tmp_path, capsys):
    # No nice vertex near the robots, so approx searches the path exactly
    # and stops at the cap.
    inst = str(tmp_path / "p20.gcmp")
    assert run(capsys, "gen", "path", "--n", "20", "--robots", "3", "--seed", "0",
               "-o", inst) == (0, "", "")
    code, out, err = run(capsys, "solve", "--alg", "approx", "-i", inst,
                         "--state-cap", "1")
    assert code == 4
    assert out == "alg=approx energy=- status=state-limit\n"
    assert "state cap of 1" in err


def test_twdp_entry_cap_prints_summary_exit_4(tmp_path, capsys, monkeypatch):
    def over_cap(*args, **kwargs):
        raise LimitError("checkpoint table exceeded the entry cap")

    monkeypatch.setattr(cli, "solve_twdp", over_cap)
    inst = _file(tmp_path, "p3.gcmp", P3_BUDGET2)
    code, out, err = run(capsys, "solve", "--alg", "twdp", "-i", inst)
    assert code == 4
    assert out == "alg=twdp energy=- status=entry-limit\n"
    assert "entry cap" in err


def test_non_positive_state_cap_exit_3(tmp_path, capsys):
    inst = _file(tmp_path, "p4.gcmp", P4_ONE_MOVER)
    for cap in ("0", "-5"):
        code, out, err = run(capsys, "solve", "--alg", "oracle", "-i", inst,
                             "--state-cap", cap)
        assert (code, out) == (3, "") and "state cap must be positive" in err


def test_solve_input_errors_exit_3(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--alg", "oracle", "-i",
                       str(tmp_path / "missing.gcmp"))
    assert code == 3 and "input error" in err
    bad = _file(tmp_path, "bad.gcmp", "not a header\n")
    code, _, err = run(capsys, "solve", "--alg", "oracle", "-i", bad)
    assert code == 3 and "input error" in err
    code, _, err = run(capsys, "solve", "--alg", "wrong", "-i", bad)
    assert code == 3
    # A bad header is reported on its own line, here after a comment.
    header = _file(tmp_path, "header.gcmp", "# comment\ngcmp 2\nn 2\ne 0 1\nr 0 0 1\n")
    assert run(capsys, "solve", "--alg", "oracle", "-i", header) == (
        3, "", "input error: line 2: expected header 'gcmp 1'\n")


def test_solve_rejects_non_ascii_integers_exit_3(tmp_path, capsys):
    # Arabic-Indic vertex count and robot id, and an underscored budget.
    inst = _file(tmp_path, "arabic.gcmp",
                 "gcmp 1\nn \u0663\ne 0 1\ne 1 2\nr \u0660 0 2\nbudget 1_0\n")
    code, out, err = run(capsys, "solve", "--alg", "oracle", "-i", inst)
    assert (code, out) == (3, "")
    assert err == "input error: line 2: bad vertex count\n"


# ---------------------------------------------------------------------------
# validate / analyze / preprocess
# ---------------------------------------------------------------------------


def test_validate_ok_and_edge_swap(tmp_path, capsys):
    inst = _file(tmp_path, "p3.gcmp", P3_BUDGET2)
    sched = _file(tmp_path, "p3.sched", "sched 1 2\nrobot 0: 0 1 2\n")
    code, out, _ = run(capsys, "validate", "-i", inst, "-s", sched)
    assert code == 0 and out.strip() == "validate ok energy=2"
    inst2 = _file(tmp_path, "free.gcmp", EDGE_SWAP_INSTANCE)
    bad = _file(tmp_path, "bad.sched", EDGE_SWAP_SCHED)
    code, _, err = run(capsys, "validate", "-i", inst2, "-s", bad)
    assert code == 3 and "edge-swap" in err and "step 1" in err


def test_validate_over_budget_exit_1(tmp_path, capsys):
    inst = _file(tmp_path, "tight.gcmp", P3_TIGHT)
    sched = _file(tmp_path, "long.sched", "sched 1 2\nrobot 0: 0 1 2\n")
    code, out, _ = run(capsys, "validate", "-i", inst, "-s", sched)
    assert code == 1 and "over-budget" in out


def test_analyze_reports_vertex_kinds(tmp_path, capsys):
    inst = _file(tmp_path, "p3.gcmp", P3_BUDGET2)
    code, out, _ = run(capsys, "analyze", "-i", inst)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("analyze n=3 m=2 k=1")
    assert sum(1 for ln in lines if ln.startswith("vertex ")) == 3


def test_removed_selectors_exit_3(tmp_path, capsys):
    # preprocess's old flag is spelled in two parts so that a search for
    # the name finds no use of it left.
    inst = _file(tmp_path, "p3.gcmp", P3_BUDGET2)
    mcc = _file(tmp_path, "g.mcc",
                render_mcc(MulticoloredGraph([["a"], ["b"]], [("a", "b")])))
    for argv in (("analyze", "-i", inst, "--k", "2"),
                 ("preprocess", "--energy" "-ball", "-i", inst),
                 ("reduce", "mcc", "-i", mcc)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and "unrecognized arguments" in err, argv


def test_preprocess_energy_ball(tmp_path, capsys):
    inst = _file(tmp_path, "p3.gcmp", P3_BUDGET2)
    out_path = str(tmp_path / "sub.gcmp")
    code, out, _ = run(capsys, "preprocess", "-i", inst, "-o", out_path)
    assert code == 0 and out.splitlines()[0].startswith("preprocess status=ok")
    sub = parse_instance(open(out_path).read())
    assert sub.budget == 2
    # A mover with distance beyond the budget is rejected without search.
    far = _file(tmp_path, "far.gcmp",
                "gcmp 1\nn 4\ne 0 1\ne 1 2\ne 2 3\nr 0 0 3\nbudget 2\n")
    code, out, err = run(capsys, "preprocess", "-i", far)
    assert code == 1 and "status=no-instance" in out
    code, out, _ = run(capsys, "preprocess", "-i", inst)
    assert code == 0 and out.splitlines()[0].startswith("preprocess status=ok")


def test_preprocess_output_solves_with_dropped_low_id_robot(tmp_path, capsys):
    # Robot 0 starts outside the budget ball and is dropped; robot 1 is
    # written as robot 0 so the sub-instance parses.
    edges = "".join(f"e {i} {i + 1}\n" for i in range(9))
    inst = _file(tmp_path, "p10.gcmp",
                 f"gcmp 1\nn 10\n{edges}r 0 9 -\nr 1 0 1\nbudget 1\n")
    sub = str(tmp_path / "sub.gcmp")
    code, out, _ = run(capsys, "preprocess", "-i", inst, "-o", sub)
    assert code == 0
    assert out.splitlines()[-1] == "robot 1 0"
    code, out, _ = run(capsys, "solve", "--alg", "oracle", "-i", sub)
    assert code == 0
    assert out.splitlines()[0] == "alg=oracle energy=1 status=optimal"


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--alg", "oracle", "-i", "p3.gcmp"),
        ("preprocess", "-i", "p3.gcmp"),
        ("reduce", "-i", "g.mcc"),
    ],
)
def test_failed_write_prints_no_success_line_exit_3(tmp_path, capsys, monkeypatch, argv):
    # On stdout the report comes ahead of the written text; with -o it
    # follows a successful write and a failed one prints nothing.
    monkeypatch.chdir(tmp_path)
    _file(tmp_path, "p3.gcmp", P3_BUDGET2)
    _file(tmp_path, "g.mcc", "mcc 1\npart 1 a\npart 2 x\nedge a x\n")
    code, report, _ = run(capsys, *argv, "-o", "written")
    assert code == 0 and report
    assert run(capsys, *argv) == (0, report + (tmp_path / "written").read_text(), "")
    code, out, err = run(capsys, *argv, "-o", "missing/x")
    assert (code, out) == (3, "")
    assert err.startswith("input error: cannot write missing/x: ")


# ---------------------------------------------------------------------------
# reduce / gen / render
# ---------------------------------------------------------------------------


def test_reduce_emits_instance_and_name_map(tmp_path, capsys):
    mcc = _file(tmp_path, "g.mcc",
                render_mcc(MulticoloredGraph([["a"], ["b"]], [("a", "b")])))
    out_path = str(tmp_path / "red.gcmp")
    code, out, _ = run(capsys, "reduce", "-i", mcc, "-o", out_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "reduce kappa=2 n=14 robots=3 budget=15 subdivision=8"
    names = [ln for ln in lines if ln.startswith("name ")]
    assert len(names) == 14 and "name s:1:2 12" in lines
    assert parse_instance(open(out_path).read()).budget == 15
    # The subdivision is always κ³; there is no override flag.
    code, out, err = run(capsys, "reduce", "-i", mcc, "--subdiv", "2")
    assert code == 3 and out == "" and "--subdiv" in err


def test_reduce_ignores_comments(tmp_path, capsys):
    plain = _file(tmp_path, "plain.mcc", "mcc 1\npart 1 a\npart 2 x\nedge a x\n")
    commented = _file(tmp_path, "commented.mcc",
                      "mcc 1\npart 1 a # first part\npart 2 x\nedge a x\n")
    code, out, _ = run(capsys, "reduce", "-i", plain)
    assert code == 0
    assert run(capsys, "reduce", "-i", commented) == (0, out, "")
    assert out.splitlines()[0] == "reduce kappa=2 n=14 robots=3 budget=15 subdivision=8"


def test_reduce_rejects_a_part_label_equal_to_a_gadget_name_exit_3(tmp_path, capsys):
    mcc = _file(tmp_path, "g.mcc", "mcc 1\npart 1 a s:1:2\npart 2 x\nedge a x\n")
    code, out, err = run(capsys, "reduce", "-i", mcc)
    assert code == 3 and out == ""
    assert "part label 's:1:2' equals a gadget vertex name" in err


def test_gen_deterministic_stdout(tmp_path, capsys):
    args = ("gen", "grid", "--w", "3", "--h", "2", "--robots", "2",
            "--seed", "5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    inst = parse_instance(out1)
    assert inst.graph.n == 6 and inst.k == 2
    code, _, _ = run(capsys, "gen", "path", "--n", "3", "--robots", "9")
    assert code == 3
    # --edge-prob defaults to generate()'s 0.3.
    random_args = ("gen", "random", "--n", "6", "--robots", "2")
    assert run(capsys, *random_args) == run(capsys, *random_args, "--edge-prob", "0.3")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("grid", "--w", "2", "--h", "2", "--n", "50", "--edge-prob", "0.9"), "--n"),
        (("path", "--n", "3", "--w", "9"), "--w"),
        (("random-tree", "--n", "5", "--h", "2"), "--h"),
        (("cycle", "--n", "5", "--edge-prob", "0.5"), "--edge-prob"),
        (("grid", "--w", "2", "--h", "2", "--edge-prob", "0.5"), "--edge-prob"),
    ],
    ids=["grid-n", "path-w", "random-tree-h", "cycle-edge-prob", "grid-edge-prob"],
)
def test_gen_rejects_options_its_kind_ignores_exit_3(capsys, argv, flag):
    assert run(capsys, "gen", *argv) == (
        3, "", f"input error: {flag} does not apply to gen {argv[0]}\n")


def test_render_trace_and_frames(tmp_path, capsys):
    inst = _file(tmp_path, "p3.gcmp", P3_BUDGET2)
    sched = _file(tmp_path, "p3.sched", "sched 1 2\nrobot 0: 0 1 2\n")
    code, out, _ = run(capsys, "render", "--format", "trace", "-i", inst,
                       "-s", sched)
    assert code == 0
    assert out.splitlines()[0] == "trace 1 2"
    frames_dir = str(tmp_path / "frames")
    code, out, _ = run(capsys, "render", "--format", "frames", "-i", inst,
                       "-s", sched, "-o", frames_dir)
    assert code == 0
    files = sorted(os.listdir(frames_dir))
    assert files == ["frame_000.svg", "frame_001.svg", "frame_002.svg"]
    code, out, _ = run(capsys, "render", "--format", "dot", "-i", inst)
    assert code == 0 and out.startswith("graph gcmp {")


def test_render_frames_onto_existing_file_exit_3(tmp_path, capsys):
    inst = _file(tmp_path, "p3.gcmp", P3_BUDGET2)
    sched = _file(tmp_path, "p3.sched", "sched 1 2\nrobot 0: 0 1 2\n")
    taken = _file(tmp_path, "taken", "not a directory\n")
    code, out, err = run(capsys, "render", "--format", "frames", "-i", inst,
                         "-s", sched, "-o", taken)
    assert code == 3
    assert out == "" and f"cannot create {taken}" in err


def test_render_rejects_invalid_schedule(tmp_path, capsys):
    inst = _file(tmp_path, "free.gcmp", EDGE_SWAP_INSTANCE)
    bad = _file(tmp_path, "bad.sched", EDGE_SWAP_SCHED)
    code, _, err = run(capsys, "render", "--format", "trace", "-i", inst,
                       "-s", bad)
    assert code == 3 and "invalid schedule" in err
    code, _, _ = run(capsys, "render", "--format", "trace", "-i", inst)
    assert code == 3  # trace requires a schedule
