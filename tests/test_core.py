"""Model and format tests: validation, energy, parse/render."""
from __future__ import annotations

import ast
import importlib
import os
import random
import re
import subprocess
import sys
from itertools import chain, islice

import pytest

from _reference import legal_parallel_steps, random_connected_graph
import coordmp
from coordmp.core import (
    Graph,
    InputError,
    Instance,
    MoveLog,
    Robot,
    Route,
    Schedule,
    bfs_distances,
    connected_components,
    induced_subgraph,
    layers,
    parse_instance,
    parse_schedule,
    path_avoiding,
    render_instance,
    render_schedule,
    schedule_steps,
    shortest_path,
    shortest_path_distance,
    steps_to_schedule,
    validate_schedule,
)
from coordmp.approx import approximate, solve_gcmp1
from coordmp.generators import generate, grid_graph, path_graph, star_graph
from coordmp.havenswap import swap
from coordmp.oracle import (
    Limits,
    check_feasible,
    solve_critical,
    solve_exact,
    solve_restricted,
)
from coordmp.structure import classify_vertex, is_nice
from coordmp.twdp import solve_twdp


def test_graph_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])
    with pytest.raises(InputError, match="^vertex count must be nonnegative$"):
        Graph(-1)


def test_graph_canonical_neighbors_sorted():
    g = Graph(4, [(2, 0), (0, 1), (3, 0)])
    assert g.neighbors(0) == (1, 2, 3)
    assert g.has_edge(3, 0) and g.has_edge(0, 3)
    assert g.degree(0) == 3 and g.degree(2) == 1


def test_instance_rejects_duplicate_starts_and_goals():
    g = path_graph(3)
    with pytest.raises(InputError):
        Instance(g, (Robot(0, 1, 0), Robot(1, 1, 2)))
    with pytest.raises(InputError):
        Instance(g, (Robot(0, 0, 2), Robot(1, 1, 2)))


@pytest.mark.parametrize(
    "robots, budget, message",
    [
        ((Robot(0, 3, 0),), None, "robot 0 start 3 out of range"),
        ((Robot(0, 0, -1),), None, "robot 0 goal -1 out of range"),
        ((Robot(0, 0, 2),), -1, "budget must be nonnegative"),
    ],
    ids=["start", "goal", "budget"],
)
def test_instance_rejects_out_of_range_values(robots, budget, message):
    with pytest.raises(InputError) as exc:
        Instance(path_graph(3), robots, budget)
    assert str(exc.value) == message


def test_instance_terminals_are_every_start_and_goal():
    g = path_graph(5)
    # A free robot contributes its start only.
    assert Instance(g, (Robot(0, 0, 4), Robot(1, 2))).terminals == {0, 2, 4}
    # A robot whose goal is its start contributes that vertex once.
    assert Instance(g, (Robot(0, 3, 3), Robot(1, 1, 0))).terminals == {0, 1, 3}
    assert isinstance(Instance(g, ()).terminals, frozenset)
    assert Instance(g, ()).terminals == frozenset()


def test_instance_rejects_duplicate_robot_ids():
    # Solvers key robots by id: approximate used to build a schedule for
    # the second robot 0 and report it as an internal error.
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    with pytest.raises(InputError, match="robot ids must be pairwise distinct"):
        Instance(g, (Robot(0, 0, 3), Robot(0, 4, 0)))
    # Ids need not be 0..k-1: sub-instances keep their robots' ids.
    assert Instance(g, (Robot(3, 0, 3), Robot(7, 4, 0))).k == 2


def _validate(instance, *routes):
    return validate_schedule(instance, Schedule(tuple(Route(p) for p in routes)))


def test_follow_the_leader_is_legal():
    inst = Instance(path_graph(3), (Robot(0, 0, 1), Robot(1, 1, 2)))
    assert _validate(inst, (0, 1), (1, 2)).energy == 2
    # A rotation around a triangle is a cycle of followers: legal too.
    triangle = Instance(
        Graph(3, [(0, 1), (1, 2), (0, 2)]),
        (Robot(0, 0, 1), Robot(1, 1, 2), Robot(2, 2, 0)),
    )
    assert _validate(triangle, (0, 1), (1, 2), (2, 0)).energy == 3


# Path 0-1-2-3; robot ids unlike the route indices, so messages show ids.
PATH4 = Instance(path_graph(4), (Robot(4, 0, 1), Robot(7, 3)))


@pytest.mark.parametrize(
    "instance, routes, violation",
    [
        (PATH4, [(0, 1)], "expected 2 routes, got 1"),
        (PATH4, [(0, 1), ()], "robot 7: empty route"),
        (PATH4, [(0, 1), (3, 3, 3)], "robot 7: horizon mismatch"),
        (PATH4, [(0, 1), (3, 4)], "robot 7: vertex 4 out of range"),
        (PATH4, [(1, 1), (3, 3)], "robot 4: route starts at 1, not 0"),
        (PATH4, [(0, 0), (3, 3)], "robot 4: route ends at 0, not 1"),
        (PATH4, [(0, 0, 1), (3, 1, 1)],
         "robot 7: step 1 moves along missing edge (3, 1)"),
        (PATH4, [(0, 0, 1), (3, 2, 1)], "robots 4 and 7: vertex conflict at step 2"),
        (PATH4, [(0, 1, 2, 1), (3, 2, 1, 0)],
         "robots 4 and 7: edge-swap conflict at step 2"),
        (Instance(path_graph(4), ()), [(0,)], "expected 0 routes, got 1"),
    ],
    ids=["route-count", "empty-route", "horizon", "out-of-range", "start", "end",
         "missing-edge", "vertex-conflict", "edge-swap", "no-robots"],
)
def test_validate_reports_each_violation(instance, routes, violation):
    res = _validate(instance, *routes)
    assert (res.ok, res.energy, res.violation) == (False, None, violation)


def test_validate_accepts_no_routes_for_no_robots():
    res = _validate(Instance(path_graph(4), ()))
    assert (res.ok, res.energy, res.over_budget) == (True, 0, False)


def test_validate_reports_the_earliest_step_first():
    # Both robots end step 1 on vertex 1; robot 4 then jumps 1 -> 3 along a
    # missing edge at step 2.  Route checks pass, so step 1 is reported.
    inst = Instance(path_graph(4), (Robot(4, 0, 3), Robot(7, 2)))
    res = _validate(inst, (0, 1, 3), (2, 1, 1))
    assert res.violation == "robots 4 and 7: vertex conflict at step 1"
    # A route fault of any robot comes before every step.
    res = _validate(inst, (0, 1, 3), (2, 1, 5))
    assert res.violation == "robot 7: vertex 5 out of range"
    # Within a step the robots are taken in order: robot 4's missing edge
    # comes before the vertex it then shares with robot 7.
    res = _validate(inst, (0, 2, 3), (2, 2, 2))
    assert res.violation == "robot 4: step 1 moves along missing edge (0, 2)"


def test_validate_never_constrains_free_robot_final_vertex():
    inst = Instance(path_graph(3), (Robot(0, 0, None),))
    assert validate_schedule(inst, Schedule((Route((0, 1, 2)),))).ok
    assert validate_schedule(inst, Schedule((Route((0,)),))).ok


def test_energy_counts_moves_not_waits():
    # Five moves along a path plus waits cost exactly 5.
    route = Route((0, 0, 1, 2, 2, 3, 4, 5, 5))
    sched = Schedule((route,))
    assert sched.energy == 5
    all_wait = Schedule((Route((3, 3, 3)),))
    assert all_wait.energy == 0


def test_validate_over_budget_flagged_but_ok():
    inst = Instance(path_graph(4), (Robot(0, 0, 3),), budget=1)
    sched = Schedule((Route((0, 1, 2, 3)),))
    res = validate_schedule(inst, sched)
    assert res.ok and res.over_budget and res.energy == 3


def test_parse_render_round_trip_bit_exact():
    text = "gcmp 1\nn 4\ne 0 1\ne 1 2\ne 2 3\nr 0 0 3\nr 1 1 -\nbudget 9\n"
    inst = parse_instance(text)
    assert render_instance(inst) == text
    again = parse_instance(render_instance(inst))
    assert again == inst


def test_parse_instance_named_vertices_first_appearance_order():
    text = "gcmp 1\nn 3\ne left mid\ne mid right\nr 0 left right\n"
    inst = parse_instance(text)
    # left=0, mid=1, right=2 by first appearance.
    assert sorted(inst.graph.edges) == [(0, 1), (1, 2)]
    assert inst.robots[0].start == 0 and inst.robots[0].goal == 2
    # "²" passes str.isdigit() but is no ASCII decimal, so the file is read
    # in names mode: 0, 1 and "²" by first appearance.
    inst = parse_instance("gcmp 1\nn 3\ne 0 1\ne 1 \u00b2\nr 0 0 1\n")
    assert sorted(inst.graph.edges) == [(0, 1), (1, 2)]
    assert (inst.robots[0].start, inst.robots[0].goal) == (0, 1)


def test_parse_instance_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 1"):
        parse_instance("gcmp 2\nn 1\n")
    with pytest.raises(InputError, match="line 3"):
        parse_instance("gcmp 1\nn 2\nbogus stuff here\n")
    # A header is reported on its own line, after comments and blank lines.
    with pytest.raises(InputError, match="^line 2: expected header 'gcmp 1'$"):
        parse_instance("# c\ngcmp 2\n")
    with pytest.raises(InputError, match="^line 4: expected header 'gcmp 1'$"):
        parse_instance("\n\n# c\nn 2\n")
    for text in ("", "# only a comment\n\n"):  # no content line
        with pytest.raises(InputError, match="^line 1: expected header 'gcmp 1'$"):
            parse_instance(text)


def test_parse_instance_rejects_duplicate_count_and_budget():
    with pytest.raises(InputError, match="line 3: duplicate vertex count"):
        parse_instance("gcmp 1\nn 3\nn 3\ne 0 1\n")
    # A later budget line must not silently override an earlier one.
    text = "gcmp 1\nn 3\ne 0 1\ne 1 2\nr 0 0 2\nbudget 5\nbudget 1\n"
    with pytest.raises(InputError, match="line 7: duplicate budget"):
        parse_instance(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("gcmp 1\ne 0 1\nr 0 0 1\n", "missing 'n <vertex_count>' line"),
        ("gcmp 1\nn 2\ne a b\ne b c\n", "more than 2 distinct vertex names in file"),
        ("gcmp 1\nn 2\ne 0 1\ne 1 1\n", "line 4: self-loop"),
        ("gcmp 1\nn 3\ne 0 1\ne 1 2\nr 0 0 1\nr 2 2 -\n",
         "robot ids must be 0..k-1 without gaps"),
    ],
    ids=["no-count", "too-many-names", "self-loop", "id-gap"],
)
def test_parse_instance_rejections(text, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        parse_instance(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty schedule file"),
        ("# only a comment\n\n", "empty schedule file"),
        ("sched 2 1\nrobot 0: 0 0\nrobot 0: 0 0\n", "line 3: duplicate robot 0"),
        ("sched 2 1\nrobot 0: 0 0\nrobot 2: 2 2\n",
         "schedule must cover robot ids 0..k-1 exactly"),
    ],
    ids=["empty", "comment-only", "duplicate-robot", "id-gap"],
)
def test_parse_schedule_rejections(text, message):
    inst = parse_instance("gcmp 1\nn 3\ne 0 1\ne 1 2\nr 0 0 -\nr 1 2 -\n")
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        parse_schedule(text, inst)


def test_parse_instance_comments_and_blank_lines_ignored():
    text = "# header comment\ngcmp 1\n\nn 2  # two vertices\ne 0 1\nr 0 0 1\n"
    inst = parse_instance(text)
    assert inst.graph.n == 2 and inst.k == 1


# Integers in every text format are ASCII decimals: no other script's digits,
# no fullwidth digits, no underscores, no sign.
NON_ASCII_DECIMALS = ("\u0663", "\uff13", "1_0", "+1", "-1")


@pytest.mark.parametrize("tok", NON_ASCII_DECIMALS)
@pytest.mark.parametrize("text, message", [
    ("gcmp 1\nn {}\ne 0 1\nr 0 0 1\n", "line 2: bad vertex count"),
    ("gcmp 1\nn 2\ne 0 1\nr 0 0 1\nbudget {}\n", "line 5: bad budget"),
    ("gcmp 1\nn 2\ne 0 1\nr {} 0 1\n", "line 4: bad robot id"),
])
def test_parse_instance_reads_integers_as_ascii_decimals(tok, text, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        parse_instance(text.format(tok))


@pytest.mark.parametrize("tok", NON_ASCII_DECIMALS)
@pytest.mark.parametrize("text, message", [
    ("sched {} 1\nrobot 0: 0 1\n", "line 1: bad schedule header"),
    ("sched 1 {}\nrobot 0: 0 1\n", "line 1: bad schedule header"),
    ("# c\n\nsched {} 1\nrobot 0: 0 1\n", "line 3: bad schedule header"),
    ("sched 1 1\nrobot {}: 0 1\n", "line 2: malformed route"),
    ("sched 1 1\nrobot 0: 0 {}\n", "line 2: malformed route"),
])
def test_parse_schedule_reads_integers_as_ascii_decimals(tok, text, message):
    inst = parse_instance("gcmp 1\nn 2\ne 0 1\nr 0 0 1\n")
    with pytest.raises(InputError, match=f"^{message}$"):
        parse_schedule(text.format(tok), inst)


def test_parse_schedule_reports_the_header_line():
    inst = parse_instance("gcmp 1\nn 2\ne 0 1\nr 0 0 1\n")
    with pytest.raises(InputError, match="^line 3: expected header 'sched <k> <t>'$"):
        parse_schedule("# c\n\nschedule 1 1\nrobot 0: 0 1\n", inst)


def test_parse_schedule_route_label_is_exactly_robot_and_id():
    inst = parse_instance("gcmp 1\nn 2\ne 0 1\nr 0 0 1\n")
    text = "# a comment\nsched 1 1\n\nrobot 0 : 0 1  # spaced\n"
    assert parse_schedule(text, inst).routes == (Route((0, 1)),)
    for line in ("robot 0 junk: 0 1", "robot: 0 1", "robot 0 0 1"):
        with pytest.raises(InputError, match="^line 2: "):
            parse_schedule(f"sched 1 1\n{line}\n", inst)


def test_schedule_round_trip_and_structural_checks():
    inst = parse_instance("gcmp 1\nn 3\ne 0 1\ne 1 2\nr 0 0 2\nr 1 1 -\n")
    text = "sched 2 2\nrobot 0: 0 1 2\nrobot 1: 1 2 2\n"
    sched = parse_schedule(text, inst)
    assert render_schedule(sched) == text
    with pytest.raises(InputError, match="expected 3"):
        parse_schedule("sched 2 2\nrobot 0: 0 1\nrobot 1: 1 2 2\n", inst)
    with pytest.raises(InputError):
        parse_schedule("sched 1 2\nrobot 0: 0 1 2\n", inst)


def test_shortest_path_helpers():
    g = path_graph(6)
    assert shortest_path_distance(g, 0, 5) == 5
    assert shortest_path(g, 0, 3) == [0, 1, 2, 3]
    assert bfs_distances(g, 0)[5] == 5
    disconnected = Graph(4, [(0, 1), (2, 3)])
    assert shortest_path_distance(disconnected, 0, 3) is None
    assert connected_components(disconnected) == [[0, 1], [2, 3]]


@pytest.mark.parametrize("u, v", [(-1, 2), (2, -1), (0, 3), (3, 0)])
def test_shortest_path_distance_names_the_vertex_out_of_range(u, v):
    bad = u if u in (-1, 3) else v
    with pytest.raises(InputError, match=rf"^vertex out of range: {bad}$"):
        shortest_path_distance(Graph(3, [(0, 1)]), u, v)


@pytest.mark.parametrize("u, v", [(-1, 2), (2, -1), (0, 3), (3, 0)])
def test_shortest_path_names_the_vertex_out_of_range(u, v):
    bad = u if u in (-1, 3) else v
    with pytest.raises(InputError, match=rf"^vertex out of range: {bad}$"):
        shortest_path(Graph(3, [(0, 1)]), u, v)


# ---------------------------------------------------------------------------
# move log and step format


def test_move_log_emit_moves_a_cascade():
    # Robot 1 leads from 1 to 2 while robot 0 follows it onto 1.
    log = MoveLog({0: 0, 1: 1})
    log.emit([(1, 1, 2), (0, 0, 1)])
    assert log.pos == {0: 1, 1: 2}
    assert log.occ == {1: 0, 2: 1}
    assert log.steps == [((1, 1, 2), (0, 0, 1))]
    log.walk(0, [1, 0])
    assert log.pos == {0: 0, 1: 2} and log.occ == {0: 0, 2: 1}
    assert log.steps[1:] == [((0, 1, 0),)]


def test_move_log_emit_rejects_out_of_sync_source_and_occupied_target():
    log = MoveLog({0: 0, 1: 1})
    with pytest.raises(RuntimeError, match="move source out of sync"):
        log.emit([(0, 1, 2)])
    with pytest.raises(RuntimeError, match="move target occupied"):
        log.emit([(0, 0, 1)])
    assert log.pos == {0: 0, 1: 1} and log.steps == []


@pytest.mark.parametrize(
    "start, step, fault",
    [
        (
            {0: 0, 1: 1},
            [(0, 0, 1)],
            "move target occupied: robot 0 moves onto vertex 1, held by robot 1",
        ),
        (
            {0: 0, 1: 2},
            [(0, 0, 1), (1, 2, 1)],
            "two robots moved to one vertex: robots 0 and 1 onto vertex 1",
        ),
    ],
    ids=["occupied-target", "shared-target"],
)
def test_move_log_emit_changes_nothing_on_a_bad_move(start, step, fault):
    log = MoveLog(start)
    # One earlier step out and back, so that a stray appended step shows.
    log.walk(0, [start[0], 3, start[0]])
    before = (dict(log.pos), dict(log.occ), list(log.steps))
    with pytest.raises(RuntimeError, match=rf"^internal error: {fault}$"):
        log.emit(step)
    assert (log.pos, log.occ, log.steps) == before


@pytest.mark.parametrize(
    "step",
    [[(0, 0, 1), (0, 0, 2)], [(0, 0, 1), (0, 1, 2)]],
    ids=["same-source", "chained"],
)
def test_move_log_emit_rejects_a_robot_moved_twice(step):
    log = MoveLog({0: 0, 1: 5})
    log.walk(0, [0, 3, 0])
    before = (dict(log.pos), dict(log.occ), list(log.steps))
    with pytest.raises(
        RuntimeError,
        match="^internal error: robot moved twice in one step: robot 0$",
    ):
        log.emit(step)
    assert (log.pos, log.occ, log.steps) == before


def test_move_log_emit_checks_moves_under_python_O():
    """The checks are not ``assert`` statements, so ``python -O`` keeps them."""
    code = (
        "from coordmp.core import MoveLog\n"
        "log = MoveLog({0: 0, 1: 1})\n"
        "try:\n"
        "    log.emit([(0, 0, 1)])\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
        "print(log.pos, log.occ, log.steps)\n"
    )
    src = os.path.dirname(os.path.dirname(coordmp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out.splitlines() == [
        "internal error: move target occupied: robot 0 moves onto vertex 1, "
        "held by robot 1",
        "{0: 0, 1: 1} {0: 0, 1: 1} []",
    ]


def _drop_all_wait_steps(schedule):
    routes = schedule.routes
    kept = [
        t
        for t in range(1, schedule.horizon + 1)
        if any(r.positions[t] != r.positions[t - 1] for r in routes)
    ]
    return Schedule(
        tuple(
            Route((r.positions[0],) + tuple(r.positions[t] for t in kept))
            for r in routes
        )
    )


def test_schedule_steps_round_trip_drops_all_wait_steps():
    checked = 0
    for kind, size in (
        ("grid", dict(width=3, height=3)),
        ("random-tree", dict(n=8)),
        ("random", dict(n=8, edge_prob=0.3)),
    ):
        for seed in range(4):
            base = generate(kind, robots=3, free_robots=1, seed=seed, **size)
            # Ids unlike the route indices: steps carry ids, not indices.
            robots = tuple(
                Robot(10 - r.id, r.start, r.goal) for r in base.robots
            )
            result = solve_exact(Instance(base.graph, robots))
            if result.status != "optimal":
                continue
            s = result.schedule
            # One all-wait step in the middle, which the steps cannot show.
            padded = Schedule(
                tuple(
                    Route(r.positions[:1] + r.positions[:1] + r.positions[1:])
                    for r in s.routes
                )
            )
            for sched in (s, padded):
                steps = schedule_steps(sched, robots)
                assert all(step for step in steps)
                assert {rid for step in steps for rid, _, _ in step} <= {
                    r.id for r in robots
                }
                back = steps_to_schedule(robots, steps)
                assert back == _drop_all_wait_steps(sched)
            checked += 1
    assert checked >= 8


@pytest.mark.parametrize(
    "graph, sources, radius, within, expected",
    [
        (grid_graph(3, 3), (4,), None, None, [[4], [1, 3, 5, 7], [0, 2, 6, 8]]),
        (path_graph(7), (5, 1), None, None, [[1, 5], [0, 2, 4, 6], [3]]),
        (grid_graph(3, 3), (4, 2), 0, None, [[2, 4]]),
        (grid_graph(3, 3), (4,), 1, None, [[4], [1, 3, 5, 7]]),
        (grid_graph(3, 3), (0,), None, {0, 1, 2, 5, 8}, [[0], [1], [2], [5], [8]]),
        (grid_graph(3, 3), (0,), 2, {0, 1, 2, 5, 8}, [[0], [1], [2]]),
        (Graph(5, [(0, 1), (0, 4), (1, 3), (4, 2)]), (0,), None, None,
         [[0], [1, 4], [2, 3]]),
        (Graph(4, [(0, 1), (2, 3)]), (0,), None, None, [[0], [1]]),
        (path_graph(3), (), None, None, []),
    ],
    ids=["one-source", "two-sources", "radius-0", "radius-1", "within",
         "within-radius", "ids-not-discovery-order", "component-only",
         "no-source"],
)
def test_layers_distance_id_order(graph, sources, radius, within, expected):
    assert list(layers(graph, sources, radius, within)) == expected


def test_layers_is_lazy():
    g = path_graph(10)
    looked_up = []

    class CountingGraph:
        def neighbors(self, v):
            looked_up.append(v)
            return g.neighbors(v)

    walk = layers(CountingGraph(), (0,))
    assert next(walk) == [0]
    assert looked_up == []
    assert next(walk) == [1]
    walk.close()
    assert looked_up == [0]


@pytest.mark.parametrize(
    "source, targets, banned, expected",
    [
        (0, {8}, (), [0, 1, 2, 5, 8]),
        (0, {8}, {1}, [0, 3, 4, 5, 8]),
        (0, {8}, {1, 3}, None),
        (0, {6, 2}, (), [0, 1, 2]),
        (0, {7, 5}, {1}, [0, 3, 4, 5]),
        (4, {4, 0}, (), [4]),
    ],
    ids=["lowest-id", "banned", "walled-off", "two-targets", "banned-two-targets",
         "source-is-target"],
)
def test_path_avoiding(source, targets, banned, expected):
    assert path_avoiding(grid_graph(3, 3), source, targets, banned) == expected


@pytest.mark.parametrize(
    "vertices, expected",
    [
        (None, [[0, 1, 2, 3, 4, 5, 6, 7, 8]]),
        ({0, 2, 3, 5, 6, 8}, [[0, 3, 6], [2, 5, 8]]),
        ([8, 4, 0], [[0], [4], [8]]),
        ((), []),
    ],
    ids=["whole-graph", "two-columns", "isolated", "empty"],
)
def test_connected_components_of_subset(vertices, expected):
    assert connected_components(grid_graph(3, 3), vertices) == expected


def test_pinned_tie_breaks():
    # 2x3 grid: three shortest 0-5 paths; the lowest-id one wins.
    g23 = grid_graph(3, 2)
    assert shortest_path(g23, 0, 5) == [0, 1, 2, 5]
    assert shortest_path(g23, 5, 0) == [5, 2, 1, 0]
    assert shortest_path(g23, 3, 2) == [3, 0, 1, 2]
    # 4x4 grid: 9 closest vertices to 9; distance 2 ties go to ids 1, 4, 6,
    # 11 (found in the order 1, 4, 6, 12, 11, 14).
    closest = islice(chain.from_iterable(layers(grid_graph(4, 4), (9,))), 9)
    assert set(closest) == {1, 4, 5, 6, 8, 9, 10, 11, 13}
    # Degree-3 vertices 1 and 9 are nice for k=1, both at distance 2 from 5.
    g = Graph(12, [(5, 6), (6, 9), (9, 10), (9, 11), (5, 4), (4, 1), (1, 0),
                   (1, 2), (2, 3), (11, 7), (7, 8)])
    tag = classify_vertex(g, 5, 1)
    assert (tag.kind, tag.witness, tag.distance) == ("type1", 1, 2)
    tag = classify_vertex(g, 8, 1)
    assert (tag.kind, tag.witness, tag.distance) == ("type1", 9, 3)


def test_induced_subgraph_maps_ids():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    sub, old_of_new, new_of_old = induced_subgraph(g, [1, 2, 4])
    assert sub.n == 3
    assert old_of_new == [1, 2, 4]
    assert sub.has_edge(new_of_old[1], new_of_old[2])
    assert sub.degree(new_of_old[4]) == 0


def _reference_energy(instance, routes):
    """Energy of ``routes`` when each step is legal by ``legal_parallel_steps``
    and the starts and goals agree, else None."""
    if any(
        p[0] != r.start or r.goal not in (None, p[-1])
        for r, p in zip(instance.robots, routes)
    ):
        return None
    states = list(zip(*routes))
    energy = 0
    for state, nxt in zip(states, states[1:]):
        if nxt != state:
            movers = dict(legal_parallel_steps(instance.graph, state)).get(nxt)
            if movers is None:
                return None
            energy += movers
    return energy


def test_validate_matches_the_brute_force_step_rule():
    rng = random.Random(7)
    checked = valid = 0
    while checked < 2000:
        n = rng.randrange(2, 7)
        g = random_connected_graph(rng, n)
        k = rng.randrange(1, min(n, 3) + 1)
        starts, goals = rng.sample(range(n), k), rng.sample(range(n), k)
        robots = tuple(
            Robot(i, starts[i], goals[i] if rng.random() < 0.5 else None)
            for i in range(k)
        )
        inst = Instance(g, robots)
        horizon = rng.randrange(0, 5)
        routes = []
        for r in robots:
            pos = [r.start if rng.random() < 0.95 else rng.randrange(n)]
            for _ in range(horizon):
                # Mostly waits and edge moves; now and then any vertex.
                choices = (pos[-1],) + g.neighbors(pos[-1])
                pos.append(rng.choice(choices if rng.random() < 0.9 else range(n)))
            routes.append(tuple(pos))
        res = _validate(inst, *routes)
        expected = _reference_energy(inst, routes)
        assert (res.ok, res.energy) == (expected is not None, expected), routes
        checked += 1
        valid += res.ok
    # Both outcomes are common enough to mean something.
    assert 300 < valid < 1700


def test_wait_extension_preserves_validity_and_energy():
    rng = random.Random(11)
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
    for trial in range(100):
        starts = rng.sample(range(5), 2)
        inst = Instance(g, (Robot(0, starts[0], None), Robot(1, starts[1], None)))
        # Random valid schedule built by sequential single moves.
        positions = [[starts[0]], [starts[1]]]
        occupied = set(starts)
        for _ in range(rng.randrange(5)):
            i = rng.randrange(2)
            cur = positions[i][-1]
            free = [w for w in g.neighbors(cur) if w not in occupied]
            step_to = rng.choice(free) if free else cur
            occupied.discard(cur)
            occupied.add(step_to)
            positions[i].append(step_to)
            positions[1 - i].append(positions[1 - i][-1])
        sched = Schedule(tuple(Route(tuple(p)) for p in positions))
        res = validate_schedule(inst, sched)
        assert res.ok
        extended = Schedule(
            tuple(Route(tuple(p) + (p[-1],)) for p in positions)
        )
        res2 = validate_schedule(inst, extended)
        assert res2.ok and res2.energy == res.energy


def test_energy_lower_bound_sum_of_distances():
    # Any valid schedule spends at least dist(start, goal) per mover.
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 5)])
    inst = Instance(g, (Robot(0, 0, 6), Robot(1, 2, None)))
    sched = Schedule(
        (Route((0, 1, 5, 6, 6)), Route((2, 2, 2, 2, 3)))
    )
    res = validate_schedule(inst, sched)
    assert res.ok
    bound = shortest_path_distance(g, 0, 6)
    assert res.energy >= bound


def test_every_traced_name_exists():
    """perfbench's traced run wraps each ``(module, attribute)`` of its
    ``WRAPS`` table on ``coordmp.<module>`` by name; a dropped name would
    break only that run."""
    layers = os.path.join(os.path.dirname(__file__), "..", "perfbench", "layers.py")
    with open(layers, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    wraps = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "WRAPS"
    )
    assert wraps
    missing = [
        (module, attr)
        for module, attr, _ in wraps
        if not hasattr(importlib.import_module(f"coordmp.{module}"), attr)
    ]
    assert missing == []


# Every entry point that takes ``limits`` reads None as ``Limits()``.
STAR = star_graph(4)
LEAF_SWAP = Instance(STAR, (Robot(0, 1, 2), Robot(1, 2, 1)))
ONE_MOVER = Instance(STAR, (Robot(0, 1, 2), Robot(1, 2)))
HAVEN_STAR = star_graph(6)
LIMITED_SOLVES = {
    "solve_exact": lambda limits: solve_exact(LEAF_SWAP, limits),
    "solve_restricted": lambda limits: solve_restricted(
        LEAF_SWAP, [range(STAR.n)] * 2, limits
    ),
    "check_feasible": lambda limits: check_feasible(LEAF_SWAP, limits),
    "solve_critical": lambda limits: solve_critical(LEAF_SWAP, limits),
    "solve_gcmp1": lambda limits: solve_gcmp1(ONE_MOVER, limits),
    # The center as a target sends swap to its exact fallback.
    "swap": lambda limits: swap(
        HAVEN_STAR, is_nice(HAVEN_STAR, 0, 2), {5: 1, 6: 2}, {5: 2, 6: 0}, limits
    ),
    "solve_twdp": lambda limits: solve_twdp(LEAF_SWAP, limits=limits),
    "approximate": lambda limits: approximate(LEAF_SWAP, limits),
}


@pytest.mark.parametrize("name", sorted(LIMITED_SOLVES))
def test_no_limits_means_default_limits(name):
    solve = LIMITED_SOLVES[name]
    assert solve(None) == solve(Limits())
