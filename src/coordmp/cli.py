"""Command-line surface: solve, validate, analyze, preprocess, reduce, gen, render.

Exit codes are total and mutually exclusive: 0 = yes/ok, 1 = no within the
budget, 2 = infeasible, 3 = input error, 4 = resource or applicability
limit.  Solver runs print a machine-parseable summary line
``alg=<a> energy=<e> status=<s>`` and emit the schedule when one exists.
Diagnostics go to standard error.
"""
from __future__ import annotations

import argparse
import os
import sys

from coordmp.approx import approximate, energy_ball_restrict, solve_gcmp1
from coordmp.core import (
    InfeasibleError,
    InputError,
    LimitError,
    parse_instance,
    parse_schedule,
    render_instance,
    render_schedule,
    validate_schedule,
)
from coordmp.generators import KINDS, generate
from coordmp.hardness import parse_mcc, reduce_mcc
from coordmp.oracle import Limits, SearchResult, solve_critical, solve_exact
from coordmp.render import render_dot, render_frames, render_text_trace
from coordmp.structure import classify_vertex
from coordmp.twdp import solve_twdp

EXIT_OK = 0
EXIT_OVER_BUDGET = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_LIMIT = 4

ALGORITHMS = ("oracle", "critical", "gcmp1", "approx", "twdp")
# Every algorithm but twdp, whose extra options the CLI passes itself.
_SOLVERS = {
    "oracle": solve_exact,
    "critical": solve_critical,
    "gcmp1": solve_gcmp1,
    "approx": approximate,
}
# gen's graph shape options and the generate() parameters they set.
_GEN_SHAPE = {"--n": "n", "--w": "width", "--h": "height", "--edge-prob": "edge_prob"}
_EXIT_BY_STATUS = {
    "optimal": EXIT_OK,
    "ok": EXIT_OK,
    "budget-exceeded": EXIT_OVER_BUDGET,
    "infeasible": EXIT_INFEASIBLE,
}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors surface as InputError (exit 3)."""

    def error(self, message):
        raise InputError(message)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coordmp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on an instance file")
    solve.add_argument("--alg", choices=ALGORITHMS, required=True)
    solve.add_argument("-i", "--instance", required=True)
    solve.add_argument("-o", "--out", help="schedule output path")
    solve.add_argument("--state-cap", type=int, help="search state limit")
    solve.add_argument("--checkpoint-budget", type=int,
                       help="twdp only: per-node sequence length cap "
                            "(default and ceiling: twice the oracle's energy)")

    val = sub.add_parser("validate", help="check a schedule against an instance")
    val.add_argument("-i", "--instance", required=True)
    val.add_argument("-s", "--schedule", required=True)

    ana = sub.add_parser("analyze", help="report per-vertex haven structure")
    ana.add_argument("-i", "--instance", required=True)

    pre = sub.add_parser("preprocess",
                         help="restrict an instance to budget-radius balls "
                              "around its movers")
    pre.add_argument("-i", "--instance", required=True)
    pre.add_argument("-o", "--out", help="sub-instance output path")

    red = sub.add_parser("reduce", help="build a hardness gadget instance "
                                        "from a multicolored-graph file")
    red.add_argument("-i", "--input", required=True)
    red.add_argument("-o", "--out", help="instance output path")

    gen = sub.add_parser("gen", help="generate a seeded benchmark instance")
    gen.add_argument("kind", choices=KINDS)
    gen.add_argument("--n", type=int)
    gen.add_argument("--w", type=int, dest="width")
    gen.add_argument("--h", type=int, dest="height")
    gen.add_argument("--robots", type=int, default=1)
    gen.add_argument("--free", type=int, default=0,
                     help="how many robots get no destination")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--edge-prob", type=float)
    gen.add_argument("--budget", type=int)
    gen.add_argument("-o", "--out")

    ren = sub.add_parser("render", help="render a schedule for inspection")
    ren.add_argument("--format", choices=["trace", "dot", "frames"],
                     required=True)
    ren.add_argument("-i", "--instance", required=True)
    ren.add_argument("-s", "--schedule")
    ren.add_argument("-o", "--out",
                     help="output file (trace/dot) or directory (frames)")
    return parser


def _cmd_solve(args) -> int:
    if args.alg != "twdp" and args.checkpoint_budget is not None:
        raise InputError("--checkpoint-budget applies only to --alg twdp")
    instance = parse_instance(_read(args.instance))
    limits = None if args.state_cap is None else Limits(args.state_cap)
    try:
        if args.alg == "twdp":
            result = solve_twdp(instance, args.checkpoint_budget, limits=limits)
        else:
            result = _SOLVERS[args.alg](instance, limits)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        result = SearchResult("infeasible")
    except LimitError as exc:
        # approx raises it only at the state cap, twdp at its entry cap.
        print(f"limit reached: {exc}", file=sys.stderr)
        result = SearchResult("entry-limit" if args.alg == "twdp" else "state-limit")
    energy = "-" if result.energy is None else result.energy
    print(f"alg={args.alg} energy={energy} status={result.status}")
    if result.schedule is not None:
        _write(args.out, render_schedule(result.schedule))
    # state-limit, entry-limit and budget-limited runs end at the limit.
    return _EXIT_BY_STATUS.get(result.status, EXIT_LIMIT)


def _cmd_validate(args) -> int:
    instance = parse_instance(_read(args.instance))
    schedule = parse_schedule(_read(args.schedule), instance)
    report = validate_schedule(instance, schedule)
    if not report.ok:
        print(f"invalid schedule: {report.violation}", file=sys.stderr)
        return EXIT_INPUT
    print(f"validate ok energy={report.energy}"
          + (" over-budget" if report.over_budget else ""))
    return EXIT_OVER_BUDGET if report.over_budget else EXIT_OK


def _cmd_analyze(args) -> int:
    instance = parse_instance(_read(args.instance))
    k = max(instance.k, 1)
    graph = instance.graph
    cache: dict = {}
    kinds: dict[str, int] = {}
    lines = []
    for v in range(graph.n):
        kind = classify_vertex(graph, v, k, cache).kind
        kinds[kind] = kinds.get(kind, 0) + 1
        lines.append(f"vertex {v} kind={kind}")
    counts = " ".join(f"{kind}={kinds[kind]}" for kind in sorted(kinds))
    print(f"analyze n={graph.n} m={len(graph.edges)} k={k} {counts}")
    for line in lines:
        print(line)
    return EXIT_OK


def _cmd_preprocess(args) -> int:
    instance = parse_instance(_read(args.instance))
    result = energy_ball_restrict(instance)
    if result.instance is None:
        print(f"budget provably insufficient: {result.reason}", file=sys.stderr)
        print("preprocess status=no-instance")
        return EXIT_OVER_BUDGET
    sub = result.instance
    print(f"preprocess status=ok n={sub.graph.n} k={sub.k}")
    for orig in sorted(result.vertex_map):
        print(f"map {orig} {result.vertex_map[orig]}")
    for orig in sorted(result.robot_map):
        print(f"robot {orig} {result.robot_map[orig]}")
    _write(args.out, render_instance(sub))
    return EXIT_OK


def _cmd_reduce(args) -> int:
    mcg = parse_mcc(_read(args.input))
    red = reduce_mcc(mcg)
    inst = red.instance
    print(f"reduce kappa={red.kappa} n={inst.graph.n} robots={inst.k} "
          f"budget={inst.budget} subdivision={red.subdivision}")
    for name, vid in sorted(red.names.items(), key=lambda kv: kv[1]):
        print(f"name {name} {vid}")
    _write(args.out, render_instance(inst))
    return EXIT_OK


def _cmd_gen(args) -> int:
    # generate() would ignore the shape options its kind does not read.
    reads = {"grid": ("--w", "--h"), "random": ("--n", "--edge-prob")}
    shape = {}
    for flag, name in _GEN_SHAPE.items():
        value = getattr(args, name)
        if value is None:
            continue
        if flag not in reads.get(args.kind, ("--n",)):
            raise InputError(f"{flag} does not apply to gen {args.kind}")
        shape[name] = value
    instance = generate(
        args.kind,
        robots=args.robots,
        free_robots=args.free,
        seed=args.seed,
        budget=args.budget,
        **shape,
    )
    _write(args.out, render_instance(instance))
    return EXIT_OK


def _cmd_render(args) -> int:
    instance = parse_instance(_read(args.instance))
    schedule = None
    if args.schedule is not None:
        schedule = parse_schedule(_read(args.schedule), instance)
        report = validate_schedule(instance, schedule)
        if not report.ok:
            print(f"invalid schedule: {report.violation}", file=sys.stderr)
            return EXIT_INPUT
    if args.format == "dot":
        _write(args.out, render_dot(instance, schedule))
        return EXIT_OK
    if schedule is None:
        raise InputError(f"--format {args.format} requires a schedule")
    if args.format == "trace":
        _write(args.out, render_text_trace(instance, schedule))
        return EXIT_OK
    out_dir = args.out or "frames"
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create {out_dir}: {exc}") from None
    frames = render_frames(instance, schedule)
    for i, frame in enumerate(frames):
        _write(os.path.join(out_dir, f"frame_{i:03d}.svg"), frame)
    print(f"render frames={len(frames)} dir={out_dir}")
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "preprocess": _cmd_preprocess,
    "reduce": _cmd_reduce,
    "gen": _cmd_gen,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
