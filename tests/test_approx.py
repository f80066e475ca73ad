"""Constructive solver, single-destination search, and ball preprocessing."""
from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

import coordmp.approx
import coordmp.havenswap
from coordmp.approx import (
    _cut_loops,
    _Pipeline,
    approximate,
    energy_ball_restrict,
    solve_gcmp1,
)
from coordmp.core import (
    Graph,
    InfeasibleError,
    InputError,
    Instance,
    LimitError,
    Robot,
    Route,
    Schedule,
    UnsupportedStructureError,
    steps_to_schedule,
    validate_schedule,
)
from coordmp.generators import (
    cycle_graph,
    generate,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from coordmp.oracle import (
    Limits,
    SearchResult,
    check_feasible,
    solve_critical,
    solve_exact,
)
from coordmp.structure import classify_vertex, compute_motion_domain, is_nice

from _reference import apply_steps, random_connected_graph


def random_instance(rng, n, k, mover_prob=0.8, budget=None):
    g = random_connected_graph(rng, n)
    spots = rng.sample(range(n), k)
    goals = rng.sample(range(n), k)
    robots = tuple(
        Robot(i, spots[i], goals[i] if rng.random() < mover_prob else None)
        for i in range(k)
    )
    return Instance(g, robots, budget)


def two_star_corridor():
    """Two disjoint havens joined by a corridor (k=2 everywhere)."""
    edges = [(0, i) for i in range(1, 6)]
    edges += [(5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11)]
    edges += [(11, i) for i in range(12, 16)]
    return Graph(16, edges)


def broom(leaves, k):
    """Hub 0 with arms 1-2-3-4 and 5-6-7-8 and leaves 9.. on it.

    The mover walks from one arm's end (4) to the other's (8); the k-1 free
    robots start on the second arm at 5, 6, ..., from the hub outward.
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8)]
    edges += [(0, v) for v in range(9, 9 + leaves)]
    robots = [Robot(0, 4, 8)] + [Robot(i, 4 + i, None) for i in range(1, k)]
    return Instance(Graph(9 + leaves, edges), tuple(robots))


# ---------------------------------------------------------------------------
# approximate


def test_approximate_single_robot_zero_overhead():
    # (path length, budget, status): a budget below the distance is a
    # certified "no", since the lower bound alone exceeds it.
    for n, budget, status in ((5, None, "ok"), (3, 2, "ok"),
                              (3, 1, "budget-exceeded")):
        inst = Instance(path_graph(n), (Robot(0, 0, n - 1),), budget)
        rep = approximate(inst)
        assert rep.status == status
        assert rep.energy == rep.lower_bound == n - 1
        assert validate_schedule(inst, rep.schedule).ok


def test_approximate_all_stationary_is_empty():
    g = path_graph(4)
    inst = Instance(g, (Robot(0, 1, 1), Robot(1, 3, None)))
    rep = approximate(inst)
    assert rep.status == "ok"
    assert rep.energy == 0 and rep.energy - rep.lower_bound == 0
    assert rep.schedule.horizon == 0


def test_approximate_grown_star_sandwich():
    g = star_graph(6)
    assert is_nice(g, 0, 2) is not None
    inst = Instance(g, (Robot(0, 1, 2), Robot(1, 0, None)))
    rep = approximate(inst)
    exact = solve_exact(inst)
    assert exact.energy == 3 and rep.status == "ok"
    assert exact.energy <= rep.energy <= exact.energy + 20 * 2**5
    assert validate_schedule(inst, rep.schedule).ok
    # Two leaves swap: 6 moves found, 4 by the distance bound.  A budget of
    # 5 is neither met nor ruled out, so the run cannot decide it.
    for budget, status in ((None, "ok"), (6, "ok"), (5, "budget-limited")):
        swap = Instance(star_graph(4), (Robot(0, 1, 2), Robot(1, 2, 1)), budget)
        rep = approximate(swap)
        assert (rep.status, rep.energy, rep.lower_bound) == (status, 6, 4)
        assert validate_schedule(swap, rep.schedule).ok


def test_approximate_deterministic():
    g = two_star_corridor()
    inst = Instance(g, (Robot(0, 3, 13), Robot(1, 7, None)))
    assert approximate(inst).schedule == approximate(inst).schedule


def test_approximate_two_havens_with_crossing():
    g = two_star_corridor()
    # Robot 0 travels from one haven region into the other, which is
    # occupied; robot 1 starts mid-corridor and must be gathered first.
    inst = Instance(g, (Robot(0, 3, 13), Robot(1, 7, None), Robot(2, 12, None)))
    rep = approximate(inst)
    exact = solve_exact(inst)
    assert exact.status == "optimal"
    assert exact.energy <= rep.energy <= exact.energy + 20 * 3**5
    assert validate_schedule(inst, rep.schedule).ok


def test_approximate_infeasible_raises():
    g = path_graph(3)
    inst = Instance(g, (Robot(0, 0, 2), Robot(1, 2, 0)))
    with pytest.raises(InfeasibleError):
        approximate(inst)


def test_approximate_disconnected_goal_raises():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(InfeasibleError):
        approximate(Instance(g, (Robot(0, 0, 3),)))


def test_approximate_disconnected_components_compose():
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    inst = Instance(g, (Robot(0, 0, 3), Robot(1, 7, 4)))
    rep = approximate(inst)
    assert rep.status == "ok"
    assert rep.energy == 6 and rep.energy - rep.lower_bound == 0
    assert validate_schedule(inst, rep.schedule).ok


def test_approximate_unsupported_structure_when_fallback_capped():
    # No haven on the cycle: the component goes to the exact search, which
    # needs 2 expanded states; only a cap below that makes approx give up.
    g = cycle_graph(50)
    inst = Instance(g, (Robot(0, 0, 1), Robot(1, 25, 26)))
    rep = approximate(inst, Limits(max_states=300))
    assert rep.status == "ok" and rep.energy == 2
    assert validate_schedule(inst, rep.schedule).ok
    with pytest.raises(UnsupportedStructureError) as exc:
        approximate(inst, Limits(max_states=1))
    assert exc.value.tag.kind == "type4"
    assert "state cap of 1" in str(exc.value)


def test_approximate_gives_up_only_at_the_state_cap():
    # Paths, cycles and random trees lack havens for most k >= 3, so many
    # components reach the exact fallback; each refusal must be a search
    # that really hit the cap, never a component it could answer.
    limits = Limits(max_states=10_000)
    refused = answered = 0
    for kind in ("path", "cycle", "random-tree"):
        for n in (10, 20, 30):
            for k in (2, 3, 4):
                for seed in range(3):
                    inst = generate(kind, n=n, robots=k, seed=seed)
                    try:
                        rep = approximate(inst, limits)
                    except UnsupportedStructureError:
                        assert solve_critical(inst, limits).status == "state-limit"
                        refused += 1
                    except (InfeasibleError, LimitError):
                        pass
                    else:
                        assert validate_schedule(inst, rep.schedule).ok
                        answered += 1
    assert refused > 0 and answered > 0


def test_approximate_random_sandwich(capsys):
    rng = random.Random(20240)
    checked = infeasible = 0
    worst = 0.0
    for _ in range(120):
        n = rng.randrange(4, 13)
        k = rng.randrange(1, 4)
        if k > n:
            continue
        inst = random_instance(rng, n, k)
        exact = solve_exact(inst)
        try:
            rep = approximate(inst)
        except InfeasibleError:
            assert exact.status == "infeasible"
            infeasible += 1
            continue
        assert exact.status == "optimal"
        assert exact.energy <= rep.energy <= exact.energy + 20 * k**5
        assert validate_schedule(inst, rep.schedule).ok
        assert rep.status == "ok"
        if k == 1:
            assert rep.energy - rep.lower_bound == 0
        worst = max(worst, (rep.energy - exact.energy) / k**5)
        checked += 1
    assert checked >= 80
    with capsys.disabled():
        print(
            f"\n[approx] sandwich held on {checked} instances "
            f"({infeasible} infeasible); worst (energy-opt)/k^5 = {worst:.3f}"
        )


def test_approximate_builds_without_feasibility_check(monkeypatch):
    # Only blocked routing decides feasibility, by the oracle's search.
    def refuse(instance, limits=None):
        raise AssertionError("exact search on an unblocked construction")

    monkeypatch.setattr(coordmp.approx, "solve_exact", refuse)
    inst = generate("grid", width=5, height=5, robots=4, seed=1)
    rep = approximate(inst, Limits(max_states=10_000))
    assert rep.status == "ok"
    assert validate_schedule(inst, rep.schedule).ok


@pytest.mark.parametrize(
    "kind,params,energy,lower_bound",
    [
        ("grid", dict(width=10, height=10, robots=8, seed=1), 69, 43),
        ("grid", dict(width=15, height=15, robots=12, seed=0), 263, 89),
        ("random-tree", dict(n=100, robots=6, seed=0), 74, 42),
    ],
)
def test_approximate_scale_answers_pinned(kind, params, energy, lower_bound):
    # Answers of the unpruned haven enumeration, which took seconds to
    # minutes on these sizes; the pruned search must return the same havens.
    inst = generate(kind, **params)
    rep = approximate(inst, Limits(max_states=10_000))
    assert (rep.status, rep.energy, rep.lower_bound) == ("ok", energy, lower_bound)
    assert validate_schedule(inst, rep.schedule).ok


def test_blocked_construction_decides_feasibility(monkeypatch):
    verdicts = []

    def spy(instance, limits=None):
        result = solve_exact(instance, limits)
        verdicts.append(result.status)
        return result

    monkeypatch.setattr(coordmp.approx, "solve_exact", spy)
    # The haven routing blocks here; one exact search decides feasibility
    # and completes the schedule, or hits a tiny cap.
    inst = generate("random", n=8, edge_prob=0.3, robots=3, seed=5)
    rep = approximate(inst)
    assert verdicts == ["optimal"]
    assert rep.status == "ok" and validate_schedule(inst, rep.schedule).ok
    with pytest.raises(LimitError):
        approximate(inst, Limits(max_states=5))
    assert verdicts[1:] == ["state-limit"]
    # A tree with no haven near its endpoints: the exact fallback decides.
    tree = generate("random-tree", n=7, robots=3, seed=3)
    assert check_feasible(tree) == "infeasible"
    with pytest.raises(InfeasibleError):
        approximate(tree)
    # Goals that no schedule reaches: blocked routing reports infeasible.
    # No generated instance with a haven near every endpoint has been
    # infeasible, so the routing is made to block and the search to say so.
    monkeypatch.setattr(_Pipeline, "gather", lambda self: False)
    monkeypatch.setattr(
        coordmp.approx,
        "solve_exact",
        lambda instance, limits: SearchResult("infeasible"),
    )
    grid = generate("grid", width=5, height=5, robots=4, seed=1)
    with pytest.raises(InfeasibleError, match="component goals are unreachable"):
        approximate(grid)


def test_blocked_routing_decided_within_cap():
    # The haven routing blocks on this tree, so approx checks feasibility
    # before its exact search; both must finish under the caller's cap.
    inst = generate("random-tree", n=40, robots=5, seed=2)
    rep = approximate(inst, Limits(max_states=10_000))
    assert rep.status == "ok" and validate_schedule(inst, rep.schedule).ok


def test_haven_swaps_run_under_callers_limits(monkeypatch):
    caps = []

    def spy(instance, domains, limits):
        caps.append(limits.max_states)
        return real(instance, domains, limits)

    real = coordmp.havenswap.solve_restricted
    monkeypatch.setattr(coordmp.havenswap, "solve_restricted", spy)
    # Three of this grid's haven swaps need the exact fallback (at most
    # 7 states each).
    inst = generate("grid", width=4, height=4, robots=3, seed=0)
    rep = approximate(inst, Limits(max_states=1234))
    assert rep.status == "ok" and validate_schedule(inst, rep.schedule).ok
    assert caps and set(caps) == {1234}
    with pytest.raises(LimitError, match="haven reconfiguration"):
        approximate(inst, Limits(max_states=5))


def test_approximate_infeasible_agreement():
    infeasible = 0
    for kind, size in (
        ("random-tree", dict(n=7)),
        ("random", dict(n=8, edge_prob=0.3)),
        ("grid", dict(width=3, height=3)),
    ):
        for k in (2, 3, 4):
            for seed in range(8):
                inst = generate(kind, robots=k, seed=seed, **size)
                verdict = check_feasible(inst)
                try:
                    rep = approximate(inst)
                except InfeasibleError:
                    assert verdict == "infeasible", (kind, k, seed)
                    infeasible += 1
                    continue
                assert verdict == "feasible", (kind, k, seed)
                assert validate_schedule(inst, rep.schedule).ok
    assert infeasible >= 5


# ---------------------------------------------------------------------------
# loop cutting


def schedule_of(*rows):
    return Schedule(tuple(Route(tuple(row)) for row in rows))


def test_cut_loops_keeps_validity_and_never_adds_energy(monkeypatch):
    instances = [
        generate(kind, robots=k, seed=seed, **size)
        for kind, size in (
            ("grid", dict(width=4, height=4)),
            ("random", dict(n=12, edge_prob=0.25)),
            ("random-tree", dict(n=12)),
        )
        for k in (2, 3)
        for seed in range(6)
    ]
    built = []
    monkeypatch.setattr(coordmp.approx, "_cut_loops", lambda inst, s: s)
    for inst in instances:
        try:
            built.append((inst, approximate(inst).schedule))
        except (InfeasibleError, UnsupportedStructureError):
            continue
    monkeypatch.undo()
    saved = 0
    for inst, uncut in built:
        cut = _cut_loops(inst, uncut)
        check = validate_schedule(inst, cut)
        assert check.ok, check.violation
        assert check.energy <= uncut.energy
        for robot, route in zip(inst.robots, cut.routes):
            assert route.positions[0] == robot.start
            if robot.goal is not None:
                assert route.positions[-1] == robot.goal
        assert approximate(inst).schedule == cut
        saved += uncut.energy - check.energy
    assert len(built) >= 24 and saved > 0


def test_cut_loops_removes_a_needless_detour():
    # A path 0-1-2-3-4 with a pocket 5 off vertex 1.
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    inst = Instance(g, (Robot(0, 1, 1), Robot(1, 3, 4)))
    # Robot 0 steps into the pocket and back although nobody passes.
    cut = _cut_loops(inst, schedule_of([1, 5, 5, 1], [3, 3, 4, 4]))
    assert cut == schedule_of([1, 1], [3, 4])
    assert validate_schedule(inst, cut).energy == 1
    # Robot 1 crossing vertex 1 in between makes the detour necessary.
    inst = Instance(g, (Robot(0, 1, 1), Robot(1, 0, 2)))
    rows = schedule_of([1, 5, 5, 5, 1], [0, 0, 1, 2, 2])
    assert _cut_loops(inst, rows) == rows


def test_cut_loops_drops_a_free_robots_tail():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    # The free robot 1 makes room at 2 that robot 0 never takes.
    inst = Instance(g, (Robot(0, 0, 1), Robot(1, 2, None)))
    cut = _cut_loops(inst, schedule_of([0, 0, 1], [2, 3, 3]))
    assert cut == schedule_of([0, 1], [2, 2])
    # A goal-bearing robot keeps its last move to the goal.
    inst = Instance(g, (Robot(0, 0, 1), Robot(1, 2, 3)))
    assert _cut_loops(inst, schedule_of([0, 0, 1], [2, 3, 3])) == schedule_of(
        [0, 0, 1], [2, 3, 3]
    )


# ---------------------------------------------------------------------------
# solve_gcmp1


def test_gcmp1_requires_one_mover():
    g = path_graph(3)
    with pytest.raises(InputError):
        solve_gcmp1(Instance(g, (Robot(0, 0, None),)))
    with pytest.raises(InputError):
        solve_gcmp1(Instance(g, (Robot(0, 0, 1), Robot(1, 2, 0))))


def test_gcmp1_blocked_path_infeasible():
    g = path_graph(3)
    inst = Instance(g, (Robot(0, 0, 2), Robot(1, 2, None)))
    res = solve_gcmp1(inst)
    assert res.status == solve_exact(inst).status == "infeasible"


def test_gcmp1_star_agrees():
    g = star_graph(6)
    inst = Instance(g, (Robot(0, 1, 2), Robot(1, 0, None)))
    res = solve_gcmp1(inst)
    assert res.status == "optimal" and res.energy == solve_exact(inst).energy == 3


def test_gcmp1_free_robot_in_another_component_stays_home():
    # Path 0-1-2-3 holds the mover and a free robot that must give way;
    # the free robot on the separate edge 4-5 is never in the way.
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (1, 6), (4, 5)])
    inst = Instance(g, (Robot(0, 0, 3), Robot(1, 2, None), Robot(2, 4, None)))
    res = solve_gcmp1(inst)
    exact = solve_exact(inst)
    assert (res.status, res.energy) == (exact.status, exact.energy) == ("optimal", 5)
    assert validate_schedule(inst, res.schedule).ok
    assert set(res.schedule.routes[2].positions) == {4}


def test_gcmp1_hub_domain_restriction_preserves_optimum():
    # A 21-vertex star: the hub's degree exceeds the expansion threshold,
    # so the free robot's domain is a strict subset of the vertices.
    g = star_graph(21)
    inst = Instance(g, (Robot(0, 20, 19), Robot(1, 18, None)))
    res = solve_gcmp1(inst)
    exact = solve_exact(inst)
    assert res.status == "optimal"
    assert res.energy == exact.energy == 2
    assert validate_schedule(inst, res.schedule).ok


def test_gcmp1_random_agreement():
    rng = random.Random(4242)
    done = 0
    while done < 60:
        n = rng.randrange(3, 13)
        k = rng.randrange(1, min(4, n + 1))
        g = random_connected_graph(rng, n)
        spots = rng.sample(range(n), k)
        robots = [Robot(0, spots[0], rng.randrange(n))]
        robots += [Robot(i, spots[i], None) for i in range(1, k)]
        inst = Instance(g, tuple(robots))
        mine = solve_gcmp1(inst)
        ref = solve_exact(inst)
        assert mine.status == ref.status
        assert mine.energy == ref.energy
        done += 1


def test_gcmp1_regressions_beyond_nine_k_vertices():
    # The free robot must give way 17 (path) and 10 (cycle) vertices along,
    # beyond the 9k vertices nearest its start; both answers are the oracle's.
    for kind, n, seed, energy in (("path", 26, 6, 40), ("cycle", 33, 0, 21)):
        inst = generate(kind, n=n, robots=2, free_robots=1, seed=seed)
        res = solve_gcmp1(inst)
        assert (res.status, res.energy) == ("optimal", energy)
        assert validate_schedule(inst, res.schedule).energy == energy


def test_gcmp1_path_cycle_agreement():
    # No nice vertex lies near any free robot here, so each keeps the whole
    # vertex set; n > 9k lets the mover push one beyond its 9k nearest
    # vertices.
    checked = 0
    for kind in ("path", "cycle"):
        for k in (2, 3):
            for n in range(9 * k + 1, 61, 3):
                for seed in range(5):
                    inst = generate(kind, n=n, robots=k, free_robots=k - 1, seed=seed)
                    mine = solve_gcmp1(inst)
                    ref = solve_exact(inst)
                    assert (mine.status, mine.energy) == (ref.status, ref.energy), (
                        kind, n, k, seed,
                    )
                    checked += 1
    assert checked == 250


def test_gcmp1_motion_domain_shrinks_broom_search():
    # The hub's degree passes k**4 + k + 1, so each free robot's domain is
    # its arm, the hub and the hub's 85 lowest-id neighbours.
    inst = broom(100, 3)
    mine = solve_gcmp1(inst)
    ref = solve_exact(inst)
    assert (mine.status, mine.energy, mine.states_expanded) == ("optimal", 13, 11590)
    assert (ref.status, ref.energy, ref.states_expanded) == ("optimal", 13, 13792)
    capped = Limits(max_states=12_000)
    assert solve_exact(inst, capped).status == "state-limit"
    mine = solve_gcmp1(inst, capped)
    assert (mine.status, mine.energy) == ("optimal", 13)
    assert validate_schedule(inst, mine.schedule).ok


# ---------------------------------------------------------------------------
# energy_ball_restrict


def test_ball_requires_budget():
    g = path_graph(3)
    with pytest.raises(InputError):
        energy_ball_restrict(Instance(g, (Robot(0, 0, 2),)))


def test_ball_too_many_movers_builds_nothing():
    g = path_graph(8)
    robots = (Robot(0, 0, 1), Robot(1, 2, 3), Robot(2, 4, 5))
    res = energy_ball_restrict(Instance(g, robots, 2))
    assert res.instance is None
    assert "budget" in res.reason


def test_ball_single_robot_too_far_builds_nothing():
    g = path_graph(10)
    res = energy_ball_restrict(Instance(g, (Robot(0, 0, 9),), 4))
    assert res.instance is None
    assert res.reason == "robot 0 alone needs more than 4 moves"


def test_ball_radius_two_on_long_path():
    g = path_graph(20)
    robots = (Robot(0, 0, 2), Robot(1, 10, None))
    res = energy_ball_restrict(Instance(g, robots, 2))
    sub = res.instance
    assert sub.graph.n == 3  # ball of radius 2 around vertex 0
    assert sorted(res.vertex_map) == [0, 1, 2]
    assert [r.id for r in sub.robots] == [0]  # the distant free robot is dropped
    assert res.robot_map == {0: 0}
    assert solve_exact(sub).energy == 2
    assert sub.budget == 2


def test_ball_keeps_stationary_robots_inside():
    g = path_graph(5)
    robots = (Robot(0, 0, 2), Robot(1, 4, 4))
    res = energy_ball_restrict(Instance(g, robots, 4))
    assert [r.id for r in res.instance.robots] == [0, 1]
    assert solve_exact(res.instance).energy == 2


def test_ball_zero_budget_all_stationary():
    g = path_graph(3)
    res = energy_ball_restrict(Instance(g, (Robot(0, 1, 1),), 0))
    assert res.instance.graph.n == 0 and res.instance.k == 0
    assert solve_exact(res.instance).status == "optimal"


def test_ball_preserves_answer_randomized():
    rng = random.Random(606)
    agreements = 0
    for _ in range(40):
        n = rng.randrange(4, 11)
        k = rng.randrange(1, min(4, n + 1))
        budget = rng.randrange(0, 5)
        inst = random_instance(rng, n, k, budget=budget)
        original = solve_exact(inst)
        original_yes = (
            original.status == "optimal" and original.energy <= budget
        )
        res = energy_ball_restrict(inst)
        if res.instance is None:
            assert not original_yes
            continue
        reduced = solve_exact(res.instance)
        reduced_yes = reduced.status == "optimal" and reduced.energy <= budget
        assert reduced_yes == original_yes
        agreements += 1
    assert agreements >= 10


# ---------------------------------------------------------------------------
# haven-detour routing (_Pipeline.follow)


def follow(instance, robot, path, havens):
    """The steps the pipeline emits walking ``robot`` along ``path``."""
    pipe = _Pipeline(instance.graph, instance.robots, havens, Limits())
    assert pipe.follow(robot, path)
    return pipe.log.steps


def replay(instance, steps, walker, expected_end):
    pos = {r.id: r.start for r in instance.robots}
    final = apply_steps(pos, steps)
    assert final[walker] == expected_end
    # Embed into a schedule to check conflict-freeness and adjacency.
    relaxed = Instance(
        instance.graph,
        tuple(Robot(r.id, r.start, None) for r in instance.robots),
    )
    res = validate_schedule(relaxed, steps_to_schedule(relaxed.robots, steps))
    assert res.ok, res.violation
    return final


def test_route_plain_path_costs_path_length():
    g = path_graph(6)
    inst = Instance(g, (Robot(0, 0, None),))
    steps = follow(inst, 0, [0, 1, 2, 3, 4, 5], [])
    assert len(steps) == 5
    assert all(len(s) == 1 for s in steps)
    replay(inst, steps, 0, 5)


def test_route_crossing_occupied_haven():
    g = two_star_corridor()
    haven = is_nice(g, 11, 2)
    assert haven is not None
    # Robot 1 is parked inside the right-hand haven; robot 0 crosses it.
    inst = Instance(g, (Robot(0, 7, None), Robot(1, 11, None)))
    path = [7, 8, 9, 10, 11, 12]
    steps = follow(inst, 0, path, [haven])
    final = replay(inst, steps, 0, 12)
    assert final[1] in haven.members
    assert sum(len(s) for s in steps) <= len(path) + 20 * 2**3


def test_route_start_inside_haven_swaps_to_exit():
    g = star_graph(6)
    haven = is_nice(g, 0, 2)
    inst = Instance(g, (Robot(0, 1, None), Robot(1, 0, None)))
    exit_vertex = max(haven.members)
    steps = follow(inst, 0, [1, 0, exit_vertex], [haven])
    replay(inst, steps, 0, exit_vertex)


def test_route_blocked_outside_haven():
    # The walker stops in front of a robot outside every haven.
    g = path_graph(6)
    inst = Instance(g, (Robot(0, 0, None), Robot(1, 3, None)))
    pipe = _Pipeline(g, inst.robots, [], Limits())
    assert pipe.follow(0, [0, 1, 2, 3, 4]) is False
    assert pipe.log.pos == {0: 2, 1: 3}
    assert pipe.log.steps == [((0, 0, 1),), ((0, 1, 2),)]


# ---------------------------------------------------------------------------
# pinned outputs of the structure analysis and the construction


def _canonical(x):
    """A repr-stable form: sets sorted, dataclasses and exceptions spelled out."""
    if isinstance(x, frozenset):
        return ("set", tuple(sorted(x)))
    if dataclasses.is_dataclass(x):
        fields = dataclasses.fields(x)
        return (type(x).__name__,) + tuple(_canonical(getattr(x, f.name)) for f in fields)
    if isinstance(x, tuple):
        return tuple(_canonical(e) for e in x)
    if isinstance(x, Exception):
        return (type(x).__name__, str(x), _canonical(getattr(x, "tag", None)))
    return x


def _pinned_graphs():
    """Seeded trees, sparse random graphs (some disconnected), grids, a path,
    a cycle and the star-corridor-pocket graph of the type3 test."""
    graphs = [random_tree(12 + 6 * s, random.Random(s)) for s in range(4)]
    for s in range(6):
        rng = random.Random(s)
        n = 14 + 2 * s
        p = 0.12 + 0.02 * (s % 3)
        graphs.append(
            Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        )
    graphs += [grid_graph(3, 3), grid_graph(4, 4), grid_graph(5, 3), grid_graph(6, 2)]
    graphs += [path_graph(12), cycle_graph(10)]
    edges = [(0, i) for i in range(1, 6)]
    edges += [(0, 6)] + [(i, i + 1) for i in range(6, 13)] + [(13, 14)]
    edges += [(14, 15), (15, 16), (16, 14)]
    graphs.append(Graph(17, edges))
    return graphs


# The 31 base instances of the benchmark's approx-scale workload.
APPROX_SCALE_BASES = (
    ("grid", dict(width=4, height=4, robots=3), 4),
    ("grid", dict(width=5, height=5, robots=4), 3),
    ("grid", dict(width=6, height=6, robots=5), 3),
    ("random", dict(n=16, robots=3, edge_prob=0.2), 4),
    ("random", dict(n=20, robots=4, edge_prob=0.15), 4),
    ("random", dict(n=30, robots=5, edge_prob=0.1), 3),
    ("random-tree", dict(n=16, robots=3), 4),
    ("random-tree", dict(n=30, robots=4), 3),
    ("random-tree", dict(n=40, robots=5), 3),
)

# SHA-256 over every classify_vertex tag (each vertex, k 1-3) and motion
# domain (k seeded robots, lam 0/1/3/6) of _pinned_graphs, then over
# approximate's status, energy, lower bound and schedule, or exception type,
# message and tag, on APPROX_SCALE_BASES at Limits(10_000) and Limits(5).
PINNED_ANSWER_DIGEST = "31f81f382f5916d13eeac23493a087406b7f51058eff7814666ea6c135402fb8"


def test_every_tag_domain_and_answer_pinned():
    digest = hashlib.sha256()
    kinds = set()
    for gi, g in enumerate(_pinned_graphs()):
        for k in (1, 2, 3):
            cache: dict = {}
            for v in range(g.n):
                tag = classify_vertex(g, v, k, cache)
                kinds.add(tag.kind)
                digest.update(repr((gi, k, v, _canonical(tag))).encode())
            starts = random.Random(10 * gi + k).sample(range(g.n), k)
            inst = Instance(g, tuple(Robot(i, s, None) for i, s in enumerate(starts)))
            for rid in range(k):
                for lam in (0, 1, 3, 6):
                    dom = compute_motion_domain(inst, rid, lam)
                    digest.update(repr((gi, k, rid, _canonical(dom))).encode())
    for kind, kw, count in APPROX_SCALE_BASES:
        for seed in range(count):
            inst = generate(kind, seed=seed, **kw)
            for cap in (10_000, 5):
                try:
                    res = approximate(inst, Limits(cap))
                    got = (res.status, res.energy, res.lower_bound, _canonical(res.schedule))
                except (LimitError, InfeasibleError) as exc:
                    got = _canonical(exc)
                digest.update(repr((kind, seed, cap, got)).encode())
    assert kinds == {"nice", "type1", "type2", "type3", "type4"}
    assert digest.hexdigest() == PINNED_ANSWER_DIGEST
