"""Exact-search tests: frozen small cases plus brute-force cross-checks."""
from __future__ import annotations

import hashlib
import random
import tracemalloc
from functools import partial
from itertools import chain

import pytest

from coordmp import oracle
from coordmp.core import (
    Graph,
    InputError,
    Instance,
    Robot,
    bfs_distances,
    layers,
    render_schedule,
    validate_schedule,
)
from coordmp.generators import cycle_graph, generate, grid_graph
from coordmp.hardness import MulticoloredGraph, reduce_mcc
from coordmp.oracle import (
    Limits,
    _critical_successors,
    _decode,
    _encode,
    _start,
    _successors,
    _transit_edges,
    check_feasible,
    critical_vertices,
    solve_critical,
    solve_exact,
    solve_restricted,
)

from _reference import (
    bfs_feasibility,
    brute_force_feasible,
    brute_force_optimum,
    eager_search,
    legal_parallel_steps,
    random_connected_graph,
)


def path_instance(n, robots, budget=None):
    return Instance(
        Graph(n, [(i, i + 1) for i in range(n - 1)]), tuple(robots), budget
    )


def random_instance(rng, n, k, movers):
    g = random_connected_graph(rng, n)
    starts = rng.sample(range(n), k)
    goals = rng.sample(range(n), movers)
    robots = tuple(
        Robot(i, starts[i], goals[i] if i < movers else None)
        for i in range(k)
    )
    return Instance(g, robots)


def test_p3_endpoint_swap_is_infeasible():
    inst = path_instance(3, [Robot(0, 0, 2), Robot(1, 2, 0)])
    res = solve_exact(inst)
    assert res.status == "infeasible"
    assert check_feasible(inst) == "infeasible"


def test_star_mover_past_center_energy_frozen():
    # Mover 1 -> 2 on a star whose center holds a free robot: the free
    # robot steps aside once, so the optimum is 3.
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    inst = Instance(g, (Robot(0, 1, 2), Robot(1, 0, None)))
    assert brute_force_optimum(inst)[0] == 3
    res = solve_exact(inst)
    assert res.status == "optimal" and res.energy == 3
    assert validate_schedule(inst, res.schedule).ok


def test_star_leaf_swap_energy_frozen():
    # Swapping two leaves needs the spare leaf as parking: six moves.
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    inst = Instance(g, (Robot(0, 1, 2), Robot(1, 2, 1)))
    assert brute_force_optimum(inst)[0] == 6
    res = solve_exact(inst)
    assert res.status == "optimal" and res.energy == 6
    assert validate_schedule(inst, res.schedule).ok


def test_cycle_rotation_requires_simultaneous_moves():
    g = Graph(3, [(0, 1), (1, 2), (2, 0)])
    inst = Instance(g, (Robot(0, 0, 1), Robot(1, 1, 2), Robot(2, 2, 0)))
    assert brute_force_optimum(inst)[0] == 3
    res = solve_exact(inst)
    assert res.status == "optimal" and res.energy == 3
    val = validate_schedule(inst, res.schedule)
    assert val.ok and val.energy == 3


def test_already_at_goal_is_zero_energy():
    inst = path_instance(4, [Robot(0, 1, 1)])
    res = solve_exact(inst)
    assert res.status == "optimal" and res.energy == 0
    assert res.schedule.horizon == 0


def test_budget_statuses_distinguished():
    inst = path_instance(5, [Robot(0, 0, 4)], budget=3)
    res = solve_exact(inst)
    assert res.status == "budget-exceeded" and res.energy is None
    ok = path_instance(5, [Robot(0, 0, 4)], budget=4)
    assert solve_exact(ok).status == "optimal"
    blocked = Instance(
        Graph(3, [(0, 1), (1, 2)]),
        (Robot(0, 0, 2), Robot(1, 2, 0)),
        budget=50,
    )
    assert solve_exact(blocked).status == "infeasible"


def test_unreachable_goal_infeasible_without_search():
    # Goal 5 lies outside its robot's component; no search can reach it,
    # whatever the budget or the state cap.
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])
    robots = (Robot(0, 0, 5), Robot(1, 1, None), Robot(2, 2, None))
    limits = Limits(max_states=5)
    for budget in (None, 10):
        res = solve_exact(Instance(g, robots, budget), limits)
        assert (res.status, res.states_expanded) == ("infeasible", 0)
    assert check_feasible(Instance(g, robots), limits) == "infeasible"


def test_state_limit_reported():
    inst = path_instance(9, [Robot(0, 0, 8), Robot(1, 3, None), Robot(2, 5, None)])
    res = solve_exact(inst, Limits(max_states=2))
    assert res.status == "state-limit"


def test_default_state_cap_ignores_the_environment(monkeypatch):
    # Only Limits sets the cap.  The name of the environment variable that
    # once overrode it is spelled in two parts so that a search for it
    # finds no reader left in the package.
    monkeypatch.setenv("COORDMP_" "STATE_CAP", "1")
    res = solve_exact(path_instance(9, [Robot(0, 0, 8)]))
    assert (res.status, res.energy) == ("optimal", 8)
    assert res.states_expanded > 1


def test_restricted_domain_validation():
    inst = path_instance(4, [Robot(0, 0, 3)])
    with pytest.raises(InputError, match="empty domain"):
        solve_restricted(inst, [set()])
    with pytest.raises(InputError, match="start not in domain"):
        solve_restricted(inst, [{1, 2, 3}])
    with pytest.raises(InputError, match="goal not in domain"):
        solve_restricted(inst, [{0, 1, 2}])
    with pytest.raises(InputError, match="expected 1 domains"):
        solve_restricted(inst, [{0, 1, 2, 3}, {0}])
    with pytest.raises(InputError, match="^robot 0: domain vertex 4 out of range$"):
        solve_restricted(inst, [{0, 1, 2, 3, 4}])


def test_restricted_star_domain_keeps_optimum():
    # Restricting the free robot to {center, spare leaf} keeps energy 3.
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    inst = Instance(g, (Robot(0, 1, 2), Robot(1, 0, None)))
    res = solve_restricted(inst, [{0, 1, 2, 3}, {0, 3}])
    assert res.status == "optimal" and res.energy == 3


def test_restricted_full_domains_match_exact():
    rng = random.Random(3)
    for _ in range(25):
        inst = random_instance(rng, rng.randrange(3, 7), 2, rng.randrange(3))
        full = [set(range(inst.graph.n))] * inst.k
        a = solve_exact(inst)
        b = solve_restricted(inst, full)
        assert (a.status, a.energy) == (b.status, b.energy)


def test_restricted_monotone_under_domain_growth():
    # A tight corridor domain can only make the optimum worse or equal.
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    inst = Instance(g, (Robot(0, 0, 4), Robot(1, 2, None)))
    small = solve_restricted(inst, [{0, 1, 2, 3, 4}, {2, 3}])
    big = solve_restricted(inst, [{0, 1, 2, 3, 4}, {1, 2, 3}])
    assert small.status == "optimal" and big.status == "optimal"
    assert big.energy <= small.energy


def test_exact_matches_reference_on_random_instances():
    rng = random.Random(2024)
    for trial in range(60):
        n = rng.randrange(3, 7)
        k = rng.randrange(1, min(3, n) + 1)
        movers = rng.randrange(0, k + 1)
        inst = random_instance(rng, n, k, movers)
        expected, _ = brute_force_optimum(inst)
        res = solve_exact(inst)
        if expected is None:
            assert res.status == "infeasible", f"trial {trial}"
        else:
            assert res.status == "optimal" and res.energy == expected, f"trial {trial}"
            val = validate_schedule(inst, res.schedule)
            assert val.ok and val.energy == expected


def test_check_feasible_matches_reference():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randrange(3, 7)
        k = rng.randrange(1, min(3, n) + 1)
        inst = random_instance(rng, n, k, rng.randrange(0, k + 1))
        assert (check_feasible(inst) == "feasible") == brute_force_feasible(inst)


def test_check_feasible_reports_the_state_cap():
    inst = generate("grid", width=4, height=4, robots=3, seed=0)
    assert check_feasible(inst, Limits(1)) == "state-limit"


def test_check_feasible_ignores_the_budget():
    # The optimum 4 exceeds the budget 3: solve_exact reports
    # budget-exceeded, while the reachability verdict stays feasible, or
    # state-limit when the cap cuts the search first.
    inst = path_instance(5, [Robot(0, 0, 4)], budget=3)
    assert solve_exact(inst).status == "budget-exceeded"
    assert check_feasible(inst) == "feasible"
    assert check_feasible(inst, Limits(1)) == "state-limit"


def test_check_feasible_agrees_with_bfs_reference():
    # check_feasible runs the A* core; the breadth-first scan over the same
    # moves is the reference wherever it decides under the same cap.
    limits = Limits(max_states=2000)
    decided = infeasible = 0
    for kind in ("path", "cycle", "random-tree", "random", "grid"):
        for k in (2, 3, 4):
            for n in (6, 10, 14):
                for seed in range(4):
                    if kind == "grid":
                        inst = generate(
                            kind, width=n // 4 + 1, height=4, robots=k, seed=seed
                        )
                    else:
                        inst = generate(kind, n=n, robots=k, seed=seed)
                    ref = bfs_feasibility(inst, limits)
                    if ref == "state-limit":
                        continue
                    assert check_feasible(inst, limits) == ref, (kind, n, k, seed)
                    decided += 1
                    infeasible += ref == "infeasible"
    assert (decided, infeasible) == (165, 48)


def test_budget_is_a_verdict_on_one_search():
    # One search runs whatever the budget: its optimum fits the budget
    # (optimal, the unbudgeted answer) or exceeds it (budget-exceeded).
    rng = random.Random(17)
    statuses = set()
    for trial in range(40):
        n = rng.randrange(3, 7)
        k = rng.randrange(1, min(3, n) + 1)
        inst = random_instance(rng, n, k, rng.randrange(1, k + 1))
        opt, _ = brute_force_optimum(inst)
        free = solve_exact(inst)
        for delta in range(-2, 3):
            budget = max(0, (opt or 0) + delta)
            res = solve_exact(Instance(inst.graph, inst.robots, budget))
            assert res.states_expanded == free.states_expanded, trial
            if opt is None:
                assert res.status == "infeasible", trial
            elif opt <= budget:
                assert res == free and res.energy == opt, trial
            else:
                assert (res.status, res.energy) == ("budget-exceeded", None), trial
            statuses.add(res.status)
    assert statuses == {"optimal", "budget-exceeded", "infeasible"}


def test_feasible_witness_energy_polynomial():
    rng = random.Random(5)
    for _ in range(30):
        inst = random_instance(rng, rng.randrange(3, 7), 2, rng.randrange(3))
        res = solve_exact(inst)
        if res.status == "optimal":
            n = inst.graph.n
            assert res.energy <= 4 * n**3


def test_determinism_repeated_runs_identical():
    rng = random.Random(41)
    inst = random_instance(rng, 6, 3, 2)
    a = solve_exact(inst)
    b = solve_exact(inst)
    assert a == b


def test_empty_robot_set_feasible():
    inst = Instance(Graph(3, [(0, 1), (1, 2)]), ())
    assert check_feasible(inst) == "feasible"
    res = solve_exact(inst)
    assert res.status == "optimal" and res.energy == 0


def test_critical_p10_single_mover_energy_9():
    inst = path_instance(10, [Robot(0, 0, 9)])
    crit = critical_vertices(inst)
    assert len(crit) < 10  # the corridor interior is compressed
    res = solve_critical(inst)
    assert res.status == "optimal" and res.energy == 9
    assert validate_schedule(inst, res.schedule).ok


def test_critical_p10_with_free_blocker_infeasible():
    inst = path_instance(10, [Robot(0, 0, 9), Robot(1, 5, None)])
    assert solve_critical(inst).status == "infeasible"
    assert solve_exact(inst).status == "infeasible"


def test_critical_all_critical_equals_exact():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    inst = Instance(g, (Robot(0, 1, 2), Robot(1, 2, 1)))
    assert critical_vertices(inst) == frozenset(range(4))
    a, b = solve_exact(inst), solve_critical(inst)
    assert (a.status, a.energy) == (b.status, b.energy)


def test_critical_agrees_with_exact_on_random_instances():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randrange(3, 10)
        k = rng.randrange(1, 3)
        inst = random_instance(rng, n, k, rng.randrange(0, k + 1))
        a = solve_exact(inst)
        b = solve_critical(inst)
        assert (a.status, a.energy) == (b.status, b.energy), f"trial {trial}"
        if b.schedule is not None:
            assert validate_schedule(inst, b.schedule).ok


def test_critical_corridor_with_pockets():
    # Two triangle pockets joined by a long corridor; one robot crosses.
    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    corridor = [(3 + i, 4 + i) for i in range(12)]
    far = 15
    edges += corridor + [(far, far + 1), (far + 1, far + 2), (far + 2, far)]
    g = Graph(18, edges)
    inst = Instance(g, (Robot(0, 0, far + 1), Robot(1, 16, None)))
    crit = critical_vertices(inst)
    assert len(crit) < g.n
    res = solve_critical(inst)
    ref = solve_exact(inst)
    assert res.status == "optimal"
    assert (res.status, res.energy) == (ref.status, ref.energy)
    assert validate_schedule(inst, res.schedule).ok


# ---------------------------------------------------------------------------
# successor generator against the brute-force step enumeration
# ---------------------------------------------------------------------------


def _rotates_one_cycle(state, nxt, movers):
    """Whether the movers each step into another mover's vertex, as one cycle."""
    owner = {state[i]: i for i in movers}
    if len(movers) < 3 or any(nxt[i] not in owner for i in movers):
        return False
    i, length = movers[0], 0
    while True:
        i = owner[nxt[i]]
        length += 1
        if i == movers[0]:
            return length == len(movers)


def _property_graphs():
    rng = random.Random(17)
    graphs = [cycle_graph(n) for n in range(3, 7)]
    graphs.append(Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))
    graphs += [grid_graph(3, 3), grid_graph(4, 2)]
    graphs += [random_connected_graph(rng, rng.randrange(4, 9)) for _ in range(6)]
    return graphs


def _decoded_successors(graph, domains, state, dists=None):
    """_successors on state's code, with each next code decoded to a tuple."""
    n, k = graph.n, len(state)
    if dists is None:
        dists = [[0] * n] * k
    place = [n ** (k - 1 - i) for i in range(k)]
    for code, weight, dh, steps in _successors(
        graph, domains, list(state), _encode(state, n), place, dists
    ):
        yield tuple(_decode(code, n, k)), weight, dh, steps


def _rotation_walk(state, nxt):
    """The movers from the smallest, each followed by the robot whose vertex it takes."""
    owner = {v: i for i, v in enumerate(state)}
    walk = [min(i for i in range(len(state)) if nxt[i] != state[i])]
    while owner[nxt[walk[-1]]] != walk[0]:
        walk.append(owner[nxt[walk[-1]]])
    return tuple(walk)


def test_successors_are_legal_steps_and_cover_rotations():
    rng = random.Random(11)
    checked_rotations = 0
    for graph in _property_graphs():
        for _ in range(20):
            k = rng.randrange(1, min(graph.n, 5) + 1)
            state = tuple(rng.sample(range(graph.n), k))
            domains = None
            if rng.random() < 0.5:
                domains = tuple(
                    frozenset(rng.sample(range(graph.n), rng.randrange(graph.n)))
                    | {v}
                    for v in state
                )
            legal = dict(legal_parallel_steps(graph, state))
            got = list(_decoded_successors(graph, domains, state))
            counts = {}
            for nxt, weight, _, steps in got:
                assert legal.get(nxt) == weight, (state, nxt)
                assert steps is None
                if domains is not None:
                    assert all(nxt[i] in domains[i] for i in range(k))
                counts[nxt] = counts.get(nxt, 0) + 1
            for nxt, weight in legal.items():
                if domains is not None and any(
                    nxt[i] not in domains[i] for i in range(k)
                ):
                    continue
                movers = [i for i in range(k) if nxt[i] != state[i]]
                if weight == 1 or _rotates_one_cycle(state, nxt, movers):
                    checked_rotations += weight > 1
                    assert counts.get(nxt) == 1, (graph, state, nxt)
    assert checked_rotations >= 50


def test_rotation_order_pinned():
    # Rotations come in the order of the cycle DFS over robot indices
    # (ascending neighbours), each cycle forward then backward; the
    # breadth-first feasibility scan depends on this order.
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    grid_state = (4, 0, 1, 3, 5, 2, 7, 8)
    cases = [
        (
            k4,
            (2, 0, 3, 1),
            [(0, 2, 3), (0, 2, 1, 3), (0, 1, 3), (0, 1, 3, 2), (0, 1, 2),
             (0, 1, 2, 3), (1, 2, 3)],
        ),
        (
            grid_graph(3, 3),
            grid_state,
            [(0, 4, 7, 6), (0, 3, 1, 2, 5, 4), (0, 3, 1, 2, 5, 4, 7, 6),
             (0, 2, 5, 4), (0, 2, 5, 4, 7, 6), (0, 2, 1, 3)],
        ),
    ]
    for graph, state, cycles in cases:
        rotations = [
            _rotation_walk(state, nxt)
            for nxt, weight, _, _ in _decoded_successors(graph, None, state)
            if weight > 1
        ]
        # Forward, robot c[j] takes c[j + 1]'s vertex; backward, c[j - 1]'s.
        assert rotations == [
            walk for c in cycles for walk in (c, c[:1] + c[:0:-1])
        ]
    grid_rotations = [
        nxt for nxt, weight, _, _ in _decoded_successors(
            grid_graph(3, 3), None, grid_state
        )
        if weight > 1
    ]
    assert grid_rotations[:4] == [
        (5, 0, 1, 3, 8, 2, 4, 7),
        (7, 0, 1, 3, 4, 2, 8, 5),
        (3, 1, 2, 0, 4, 5, 7, 8),
        (5, 3, 0, 4, 2, 1, 7, 8),
    ]


def test_packed_codes_round_trip_and_keep_tuple_order():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 70)
        k = rng.randrange(min(n, 9) + 1)
        states = [tuple(rng.sample(range(n), k)) for _ in range(5)]
        states.append(states[0])
        codes = [_encode(s, n) for s in states]
        for s, c in zip(states, codes):
            assert 0 <= c < n**k
            assert tuple(_decode(c, n, k)) == s
        for a, ca in zip(states, codes):
            for b, cb in zip(states, codes):
                assert (a < b, a == b) == (ca < cb, ca == cb), (a, b)


def test_bound_change_matches_goal_distances():
    # Every successor's dh is the change of the summed goal distance:
    # single moves and rotations on the property graphs, with random goals
    # and free robots, and corridor transits of solve_critical.
    def total(dists, state):
        return sum(d[v] for d, v in zip(dists, state))

    rng = random.Random(29)
    weights = set()
    for graph in _property_graphs():
        for _ in range(20):
            k = rng.randrange(1, min(graph.n, 5) + 1)
            state = tuple(rng.sample(range(graph.n), k))
            dists = [
                [0] * graph.n if rng.random() < 0.3
                else bfs_distances(graph, rng.randrange(graph.n))
                for _ in range(k)
            ]
            for nxt, weight, dh, _ in _decoded_successors(
                graph, None, state, dists
            ):
                assert dh == total(dists, nxt) - total(dists, state)
                weights.add(weight)
    assert {1, 3, 4} <= weights

    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    edges += [(3 + i, 4 + i) for i in range(12)]
    edges += [(15, 16), (16, 17), (17, 15)]
    g = Graph(18, edges)
    inst = Instance(g, (Robot(0, 0, 16), Robot(1, 1, 17), Robot(2, 16, None)))
    critical = critical_vertices(inst)
    gen = partial(
        _critical_successors,
        g,
        (critical,) * inst.k,
        _transit_edges(g, critical),
    )
    dists, place, start, _ = _start(inst)
    seen, frontier, transits = {start}, [start], 0
    while frontier:
        code = frontier.pop()
        state = _decode(code, g.n, inst.k)
        for nxt, weight, dh, steps in gen(state, code, place, dists):
            after = _decode(nxt, g.n, inst.k)
            assert dh == total(dists, after) - total(dists, state)
            if steps is not None:
                transits += 1
                assert steps[-1] == nxt and len(steps) == weight
                walk = [state] + [_decode(c, g.n, inst.k) for c in steps]
                for a, b in zip(walk, walk[1:]):
                    (i,) = [i for i in range(inst.k) if a[i] != b[i]]
                    assert g.has_edge(a[i], b[i])
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert transits >= 100


# ---------------------------------------------------------------------------
# expansion order: states, energies and schedules pinned from the search
# that pops the deepest entry among equal f (heap entries (f, -g, code))
# ---------------------------------------------------------------------------

PINNED_GRID_RUNS = [
    (
        dict(robots=5, free_robots=0, seed=3),
        17,
        17,
        """sched 5 17
robot 0: 7 7 7 7 7 7 7 7 7 7 7 7 7 7 8 9 14 19
robot 1: 18 18 17 17 16 16 16 16 16 16 16 16 16 15 15 15 15 15
robot 2: 17 16 16 15 15 15 15 15 15 15 15 15 20 20 20 20 20 20
robot 3: 4 4 4 4 4 3 3 3 3 8 13 18 18 18 18 18 18 18
robot 4: 11 11 11 11 11 11 6 1 2 2 2 2 2 2 2 2 2 2
""",
    ),
    (
        dict(robots=6, free_robots=1, seed=5),
        13,
        13,
        """sched 6 13
robot 0: 19 14 14 14 14 14 14 14 14 14 14 14 14 14
robot 1: 8 8 7 7 7 7 7 7 7 7 7 7 7 7
robot 2: 11 11 11 10 10 10 10 10 10 10 10 10 15 20
robot 3: 20 20 20 20 15 15 15 15 16 11 6 1 1 1
robot 4: 16 16 16 16 16 11 6 5 5 5 5 5 5 5
robot 5: 0 0 0 0 0 0 0 0 0 0 0 0 0 0
""",
    ),
    (
        dict(robots=6, free_robots=2, seed=6),
        17,
        17,
        """sched 6 17
robot 0: 18 13 13 8 3 3 3 3 3 3 3 3 3 3 3 3 3 4
robot 1: 2 2 2 2 2 2 2 2 2 2 2 2 7 6 11 16 21 21
robot 2: 15 15 15 15 15 15 15 15 16 16 17 18 18 18 18 18 18 18
robot 3: 8 8 7 7 7 6 5 10 10 15 15 15 15 15 15 15 15 15
robot 4: 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1
robot 5: 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
""",
    ),
]


def _assert_pinned_run(inst, res, states, energy, schedule):
    assert (res.status, res.states_expanded, res.energy) == (
        "optimal",
        states,
        energy,
    )
    assert render_schedule(res.schedule) == schedule
    assert validate_schedule(inst, res.schedule).ok


@pytest.mark.parametrize("params,states,energy,schedule", PINNED_GRID_RUNS)
def test_grid_expansion_order_pinned(params, states, energy, schedule):
    inst = generate("grid", width=5, height=5, **params)
    _assert_pinned_run(inst, solve_exact(inst), states, energy, schedule)


def test_grid_7x7_k7_pinned():
    # Deepest-first ties reach the goal of this 7x7 grid straight down its
    # last f-layer: one expansion per unit of energy.
    inst = generate("grid", width=7, height=7, robots=7, seed=1)
    res = solve_exact(inst, Limits(max_states=100_000))
    assert (res.status, res.energy, res.states_expanded) == ("optimal", 30, 30)
    assert validate_schedule(inst, res.schedule).ok


def test_two_component_expansion_order_pinned():
    # A 2x3 grid holding the movers, plus a 4-cycle whose free robot never
    # moves: its distance list is all zeros, and the movers' lists hold
    # None on the cycle.
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
    edges += [(6, 7), (7, 8), (8, 9), (9, 6)]
    robots = (
        Robot(0, 0, 5),
        Robot(1, 5, 0),
        Robot(2, 1, None),
        Robot(3, 7, None),
        Robot(4, 4, 3),
    )
    inst = Instance(Graph(10, edges), robots)
    schedule = """sched 5 10
robot 0: 0 0 0 0 1 1 2 2 2 2 5
robot 1: 5 5 4 4 4 4 4 1 0 0 0
robot 2: 1 1 1 2 2 5 5 5 5 4 4
robot 3: 7 7 7 7 7 7 7 7 7 7 7
robot 4: 4 3 3 3 3 3 3 3 3 3 3
"""
    _assert_pinned_run(inst, solve_exact(inst), 103, 10, schedule)


def test_critical_corridor_expansion_order_pinned():
    # Two triangle pockets joined by a 12-edge corridor whose interior
    # (vertices 6..11) is compressed into transit moves; the last step
    # rotates the far triangle.
    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    edges += [(3 + i, 4 + i) for i in range(12)]
    edges += [(15, 16), (16, 17), (17, 15)]
    inst = Instance(
        Graph(18, edges), (Robot(0, 0, 16), Robot(1, 1, 17), Robot(2, 16, None))
    )
    assert set(range(18)) - critical_vertices(inst) == set(range(6, 12))
    schedule = """sched 3 30
robot 0: 0 2 3 3 4 4 5 6 7 8 9 10 11 12 12 12 13 13 13 13 13 13 13 13 14 14 15 15 17 17 16
robot 1: 1 1 1 2 2 3 3 3 3 3 3 3 3 3 4 5 5 6 7 8 9 10 11 12 12 13 13 14 14 15 17
robot 2: 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 15
"""
    _assert_pinned_run(inst, solve_critical(inst), 255, 32, schedule)


# ---------------------------------------------------------------------------
# every search answer pinned: status, energy, states and schedule
# ---------------------------------------------------------------------------


def _corridor_instance(rng, length):
    # Two triangle pockets joined by a corridor of `length` edges; robots
    # start and end in the pockets or at the corridor's ends.
    far = 3 + length
    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    edges += [(3 + i, 4 + i) for i in range(length)]
    edges += [(far, far + 1), (far + 1, far + 2), (far + 2, far)]
    ends = [0, 1, 2, 3, far, far + 1, far + 2]
    k = rng.randrange(2, 4)
    starts, goals = rng.sample(ends, k), rng.sample(ends, k)
    robots = tuple(
        Robot(i, starts[i], goals[i] if i < k - 1 or rng.random() < 0.5 else None)
        for i in range(k)
    )
    return Instance(Graph(far + 3, edges), robots)


def _search_digest_instances():
    out = []
    for seed in range(4):
        grids = (
            dict(width=3, height=3, robots=3, free_robots=seed % 2),
            dict(width=4, height=4, robots=6, free_robots=1),
        )
        out.extend(generate("grid", seed=seed, **kw) for kw in grids)
        out.append(generate("random-tree", n=12, robots=4, free_robots=1, seed=seed))
        out.append(_corridor_instance(random.Random(seed), 6 + seed))
        end = 3 + seed  # two robots swap the ends of a path: infeasible
        out.append(path_instance(end + 1, [Robot(0, 0, end), Robot(1, end, 0)]))
    for parts, edges in (
        ([["a"], ["x"]], [("a", "x")]),
        ([["a"], ["x"]], []),
        ([["a", "b"], ["x"]], [("b", "x")]),
        ([["a"], ["x", "y"]], []),
    ):
        out.append(reduce_mcc(MulticoloredGraph(parts, edges)).instance)
    return out


def _restricted_domains(inst):
    # Each robot keeps the vertices within 2 of its start or its goal.
    return [
        set(chain.from_iterable(layers(inst.graph, {r.start, r.goal} - {None}, 2)))
        for r in inst.robots
    ]


# SHA-256 over (status, energy, states_expanded, schedule) of solve_exact,
# solve_restricted and solve_critical, and over check_feasible's verdict,
# on _search_digest_instances with no budget, a budget at the unbudgeted
# optimum (or the distance bound when there is none) and one below it, at
# the default state cap and at Limits(20).
PINNED_SEARCH_DIGEST = "3ee566d73e7c979772df3174f59887780a35fa464c1467142c08af8d2e0edd9e"


def test_every_search_answer_pinned():
    def canonical(res):
        routes = None if res.schedule is None else tuple(
            r.positions for r in res.schedule.routes
        )
        return (res.status, res.energy, res.states_expanded, routes)

    digest = hashlib.sha256()
    statuses = set()
    for idx, inst in enumerate(_search_digest_instances()):
        top = solve_exact(inst).energy
        if top is None:  # no optimum: the distance bound stands in
            top = sum(
                bfs_distances(inst.graph, r.start)[r.goal] or 0 for r in inst.movers
            )
        domains = _restricted_domains(inst)
        for budget in (None, top, top - 1):
            if budget is not None and budget < 0:
                continue
            case = Instance(inst.graph, inst.robots, budget)
            for limits in (None, Limits(20)):
                results = (
                    solve_exact(case, limits),
                    solve_restricted(case, domains, limits),
                    solve_critical(case, limits),
                )
                statuses.update(res.status for res in results)
                got = tuple(canonical(res) for res in results)
                got += (check_feasible(case, limits),)
                cap = None if limits is None else limits.max_states
                digest.update(repr((idx, budget, cap, got)).encode())
    assert statuses == {"optimal", "infeasible", "budget-exceeded", "state-limit"}
    assert digest.hexdigest() == PINNED_SEARCH_DIGEST


# ---------------------------------------------------------------------------
# deferred successors: the eager search's answers, in less memory
# ---------------------------------------------------------------------------


def _identity_sweep_instances():
    # Grid seeds whose restricted search ends within a few thousand
    # expansions; on most others it is infeasible only after 80k to 165k,
    # too slow here at the default cap.
    grids = (
        (5, 5, 1, (7, 8)),
        (5, 6, 2, (11, 13)),
        (6, 6, 1, (12,)),
    )
    out = [
        generate("grid", width=side, height=side, robots=k, free_robots=free, seed=seed)
        for side, k, free, seeds in grids
        for seed in seeds
    ]
    for seed in range(3):
        out.append(generate("random-tree", n=12, robots=4, free_robots=1, seed=seed))
        out.append(generate("random", n=12, robots=4, free_robots=1, edge_prob=0.2, seed=seed))
        out.append(_corridor_instance(random.Random(seed), 9 + seed))
    return out


def test_search_matches_the_eager_search(monkeypatch):
    # _search defers successors above their parent's f-layer; the eager
    # reference pushes them all at once.  Both must pop the same entries,
    # so every status, energy, expansion count and schedule is the same.
    def canonical(res):
        routes = None if res.schedule is None else tuple(
            r.positions for r in res.schedule.routes
        )
        return (res.status, res.energy, res.states_expanded, routes)

    instances = _identity_sweep_instances()
    assert any(  # corridor transits longer than two edges
        weight > 2
        for inst in instances
        for moves in _transit_edges(inst.graph, critical_vertices(inst)).values()
        for _, weight, _ in moves
    )

    def sweep():
        out = []
        for inst in instances:
            top = solve_exact(inst).energy
            domains = _restricted_domains(inst)
            for budget in (None, top, None if top is None else top - 1):
                case = Instance(inst.graph, inst.robots, budget)
                for limits in (None, Limits(20), Limits(500)):
                    out.extend(canonical(res) for res in (
                        solve_exact(case, limits),
                        solve_restricted(case, domains, limits),
                        solve_critical(case, limits),
                    ))
        return out

    got = sweep()
    monkeypatch.setattr(oracle, "_search", eager_search)
    want = sweep()
    assert got == want
    statuses = {status for status, *_ in got}
    assert statuses == {"optimal", "infeasible", "budget-exceeded", "state-limit"}


def test_search_memory_follows_the_layers_reached():
    # 6x6 grid, 6 robots: optimal 31 after 15,328 expansions.  Pushing
    # every successor at once peaked near 29 MB here; deferring those
    # above the parent's f-layer keeps the peak near 5 MB.
    inst = generate("grid", width=6, height=6, robots=6, seed=1)
    tracemalloc.start()
    try:
        res = solve_exact(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.status, res.energy, res.states_expanded) == ("optimal", 31, 15_328)
    assert peak < 10_000_000
