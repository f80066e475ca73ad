"""Model and format tests: conflicts, validation, energy, parse/render."""
from __future__ import annotations

import ast
import importlib
import os
import random
import subprocess
import sys
from itertools import chain, islice

import pytest

import coordmp
from coordmp.core import (
    ConflictReport,
    Graph,
    InputError,
    Instance,
    MoveLog,
    Robot,
    Route,
    Schedule,
    bfs_distances,
    conflicts,
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
from coordmp.generators import generate
from coordmp.oracle import solve_exact
from coordmp.structure import classify_vertex


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def grid_graph(width: int, height: int) -> Graph:
    """Row-major ids: vertex r * width + c."""
    edges = []
    for r in range(height):
        for c in range(width):
            v = r * width + c
            if c + 1 < width:
                edges.append((v, v + 1))
            if r + 1 < height:
                edges.append((v, v + width))
    return Graph(width * height, edges)


def test_graph_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])


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


def test_instance_rejects_duplicate_robot_ids():
    # Solvers key robots by id: approximate used to build a schedule for
    # the second robot 0 and report it as an internal error.
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    with pytest.raises(InputError, match="robot ids must be pairwise distinct"):
        Instance(g, (Robot(0, 0, 3), Robot(0, 4, 0)))
    # Ids need not be 0..k-1: sub-instances keep their robots' ids.
    assert Instance(g, (Robot(3, 0, 3), Robot(7, 4, 0))).k == 2


def test_edge_swap_conflict_detected_at_step_1():
    a = Route((0, 1))
    b = Route((1, 0))
    assert conflicts(a, b) == ConflictReport("edge-swap", 1)


def test_follow_the_leader_is_legal():
    a = Route((0, 1))
    b = Route((1, 2))
    assert conflicts(a, b) is None


def test_vertex_conflict_detected():
    a = Route((0, 1))
    b = Route((2, 1))
    assert conflicts(a, b) == ConflictReport("vertex", 1)


def test_conflicts_horizon_mismatch_is_input_error():
    with pytest.raises(InputError):
        conflicts(Route((0, 1)), Route((0, 1, 2)))


def test_validate_flags_missed_goal_with_robot_id():
    inst = Instance(path_graph(3), (Robot(0, 0, 2),))
    sched = Schedule((Route((0, 1)),))
    res = validate_schedule(inst, sched)
    assert not res.ok
    assert "robot 0" in res.violation and "ends at 1" in res.violation


def test_validate_flags_missing_edge():
    inst = Instance(path_graph(3), (Robot(0, 0, 2),))
    res = validate_schedule(inst, Schedule((Route((0, 2)),)))
    assert not res.ok and "missing edge" in res.violation


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


def test_parse_instance_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 1"):
        parse_instance("gcmp 2\nn 1\n")
    with pytest.raises(InputError, match="line 3"):
        parse_instance("gcmp 1\nn 2\nbogus stuff here\n")


def test_parse_instance_rejects_duplicate_count_and_budget():
    with pytest.raises(InputError, match="line 3: duplicate vertex count"):
        parse_instance("gcmp 1\nn 3\nn 3\ne 0 1\n")
    # A later budget line must not silently override an earlier one.
    text = "gcmp 1\nn 3\ne 0 1\ne 1 2\nr 0 0 2\nbudget 5\nbudget 1\n"
    with pytest.raises(InputError, match="line 7: duplicate budget"):
        parse_instance(text)


def test_parse_instance_comments_and_blank_lines_ignored():
    text = "# header comment\ngcmp 1\n\nn 2  # two vertices\ne 0 1\nr 0 0 1\n"
    inst = parse_instance(text)
    assert inst.graph.n == 2 and inst.k == 1


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


def test_conflicts_symmetry_property():
    rng = random.Random(7)
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
    for _ in range(300):
        horizon = rng.randrange(1, 6)
        routes = []
        for _ in range(2):
            pos = [rng.randrange(6)]
            for _ in range(horizon):
                choices = (pos[-1],) + g.neighbors(pos[-1])
                pos.append(rng.choice(choices))
            routes.append(Route(tuple(pos)))
        assert conflicts(routes[0], routes[1]) == conflicts(routes[1], routes[0])


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
