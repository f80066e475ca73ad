"""Tests for the tree-decomposition checkpoint dynamic program."""
import random

import pytest

import coordmp.approx
import coordmp.twdp
from _reference import all_pairs_join, exact_elimination_order
from coordmp.core import Graph, InputError, Instance, LimitError, Robot
from coordmp.generators import generate, grid_graph, random_connected
from coordmp.oracle import Limits, solve_exact
from coordmp.twdp import (
    DOWN,
    UP,
    TDNode,
    build_nice_td,
    dp_forget,
    dp_introduce,
    dp_leaf,
    is_good_sequence,
    sequence_violations,
    solve_twdp,
    validate_td,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n):
    return Graph(n, [(0, i) for i in range(1, n)])


def random_tree(rng, n):
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_connected_graph(rng, n):
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randrange(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


# ---------------------------------------------------------------------------
# decompositions


def test_td_axioms_on_path():
    g = path_graph(3)
    td = build_nice_td(g, {0, 2})
    validate_td(td, g, {0, 2})
    for node in td.nodes.values():
        assert {0, 2} <= node.bag
        assert node.kind in ("leaf", "introduce", "forget", "join", "root")
    assert td.nodes[td.root].bag == frozenset({0, 2})
    assert td.base_width == 1
    assert td.width == 2


def test_td_base_width_tree_and_cycle():
    rng = random.Random(5)
    tree = random_tree(rng, 7)
    assert build_nice_td(tree, {0, 6}).base_width == 1
    assert build_nice_td(cycle_graph(5), {0, 2}).base_width == 2


def test_td_builds_past_the_old_exact_limit():
    # The subset search stopped at 13 vertices; min-degree has no cap.
    assert build_nice_td(path_graph(30), {0, 29}).base_width == 1
    assert build_nice_td(grid_graph(15, 2), {0, 29}).base_width == 2


def test_td_min_degree_width_against_exact_reference():
    """Min-degree is exact on trees and 1xw / 2xw grids.  On sparse random
    graphs it is an upper bound that exceeds the exact width rarely and by
    one at most."""
    rng = random.Random(9)
    exact_families = [random_tree(rng, n) for n in range(4, 13) for _ in range(12)]
    exact_families += [grid_graph(w, 1) for w in range(1, 13)]
    exact_families += [grid_graph(w, 2) for w in range(1, 7)]
    for g in exact_families:
        assert build_nice_td(g, ()).base_width == exact_elimination_order(g)[1]
    sparse = [
        random_connected(n, rng, p)
        for n in range(4, 13)
        for p in (0.1, 0.15)
        for _ in range(8)
    ]
    excess = [
        build_nice_td(g, ()).base_width - exact_elimination_order(g)[1]
        for g in sparse
    ]
    assert len(exact_families) + len(sparse) >= 250
    assert set(excess) <= {0, 1}
    assert sum(excess) <= len(sparse) // 20


def test_validate_td_rejects_broken_axioms():
    g = path_graph(3)
    td = build_nice_td(g, {0, 2})
    # Uncovered edge: remove vertex 1 from every bag.
    stripped = {
        nid: TDNode(nid, n.kind, n.bag - {1}, n.children, n.vertex)
        for nid, n in td.nodes.items()
    }
    bad = type(td)(stripped, td.root, td.width, td.base_width, td.gamma)
    with pytest.raises(InputError):
        validate_td(bad, g, {0, 2})
    # Terminals missing from the root bag.
    with pytest.raises(InputError):
        validate_td(td, g, {0, 1, 2})


# ---------------------------------------------------------------------------
# signature properties


def _p4_instance():
    g = path_graph(4)
    return g, Instance(g, (Robot(0, 0, 2), Robot(1, 1, 3))), frozenset(range(4))


def test_good_sequence_accepts_parallel_walk():
    g, inst, bag = _p4_instance()
    good = (((0, 1), (1, 2)), ((1, 2), (2, 3)))
    assert is_good_sequence(good, bag, g, inst)
    staged = (((0, 1), (0, 2)), ((0, 2), (1, 2)), ((1, 2), (2, 3)))
    assert is_good_sequence(staged, bag, g, inst)


def test_good_sequence_empty_iff_movers_home():
    g = path_graph(4)
    bag = frozenset(range(4))
    home = Instance(g, (Robot(0, 0, 0), Robot(1, 1, None)))
    away = Instance(g, (Robot(0, 0, 2), Robot(1, 1, 3)))
    assert is_good_sequence((), bag, g, home)
    assert sequence_violations((), bag, g, away) == [1]


def test_sequence_property_mutations():
    g, inst, bag = _p4_instance()
    # Wrong starting coordinate for robot 1; everything else legal.
    p1 = (((0, 2), (1, 2)), ((1, 2), (2, 3)))
    assert sequence_violations(p1, bag, g, inst) == [1]
    # First pair changes nothing, so the sequence opens off-checkpoint.
    p2 = (((0, 1), (0, 1)), ((0, 1), (1, 2)), ((1, 2), (2, 3)))
    assert sequence_violations(p2, bag, g, inst) == [2]
    # Second pair does not continue from the first pair's end tuple.
    p3 = (((0, 1), (0, 2)), ((0, 1), (1, 2)), ((1, 2), (2, 3)))
    assert sequence_violations(p3, bag, g, inst) == [3]
    # Middle pair changes nothing.
    p4 = (((0, 1), (1, 2)), ((1, 2), (1, 2)), ((1, 2), (2, 3)))
    assert sequence_violations(p4, bag, g, inst) == [4]
    # Robot 0 teleports from outside to the hidden interior while robot 1
    # performs a legitimate move.
    p5 = (((0, 1), (UP, 1)), ((UP, 1), (DOWN, 2)), ((DOWN, 2), (2, 3)))
    assert sequence_violations(p5, bag, g, inst) == [5]
    # Both robots reappear on the same vertex.
    p6 = (((0, 1), (UP, UP)), ((UP, UP), (2, 2)), ((2, 2), (2, 3)))
    assert sequence_violations(p6, bag, g, inst) == [6]
    # Non-edge move, then an edge used by two robots at once.
    p8a = (((0, 1), (2, 1)), ((2, 1), (2, 3)))
    assert sequence_violations(p8a, bag, g, inst) == [8]
    p8b = (((0, 1), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (2, 3)))
    assert sequence_violations(p8b, bag, g, inst) == [8]


def test_sequence_vacate_rule():
    # Arriving on an occupied vertex whose occupant stays violates the
    # vacate rule; the same tuple also double-occupies the vertex, so the
    # occupancy property fires alongside it (the two overlap by design).
    g = star_graph(4)
    inst = Instance(g, (Robot(0, 1, 0), Robot(1, 0, 2)))
    bag = frozenset(range(4))
    stay = (((1, 0), (0, 0)), ((0, 0), (0, 2)))
    assert 7 in sequence_violations(stay, bag, g, inst)
    vacated = (((1, 0), (1, 2)), ((1, 2), (0, 2)))
    assert sequence_violations(vacated, bag, g, inst) == []


def test_good_sequence_rejects_malformed_shapes():
    g, inst, bag = _p4_instance()
    with pytest.raises(InputError):
        is_good_sequence((((0,), (1,)),), bag, g, inst)  # wrong arity
    with pytest.raises(InputError):
        is_good_sequence((((0, 9), (1, 9)),), bag, g, inst)  # not a bag vertex


# ---------------------------------------------------------------------------
# table operators on a hand-built chain


def _p4_chain_tables():
    """Leaf/introduce/forget tables for the path 0-1-2-3, robot 0 -> 3."""
    g = path_graph(4)
    inst = Instance(g, (Robot(0, 0, 3),))
    terminals = frozenset({0, 3})
    leaf_node = TDNode(0, "leaf", terminals)
    i1 = TDNode(1, "introduce", frozenset({0, 1, 3}), (0,), 1)
    i2 = TDNode(2, "introduce", frozenset({0, 1, 2, 3}), (1,), 2)
    f1 = TDNode(3, "forget", frozenset({0, 2, 3}), (2,), 1)
    f2 = TDNode(4, "forget", terminals, (3,), 2)
    leaf = dp_leaf(leaf_node, inst, 8, rho=10, exterior=leaf_node.bag)
    t1 = dp_introduce(i1, leaf, instance=inst, budget=10, exterior=i1.bag)
    t2 = dp_introduce(i2, t1, instance=inst, budget=10, exterior=i2.bag)
    t3 = dp_forget(f1, t2)
    return g, inst, (leaf_node, i1, i2, f1, f2), (leaf, t1, t2, t3)


def test_dp_leaf_frozen_path_example():
    g = path_graph(3)
    inst = Instance(g, (Robot(0, 0, 2),))
    node = TDNode(0, "leaf", frozenset({0, 2}))
    table = dp_leaf(node, inst, 8, rho=10, exterior=node.bag)
    # The only way to reach the goal: vanish at 0, reappear at 2; no
    # bag-internal edge exists, so the realization costs nothing here.
    hop = (((0,), (UP,)), ((UP,), (2,)))
    assert table.get(hop) == 0
    assert table.get(()) == table.sentinel  # mover is not home yet
    short = dp_leaf(node, inst, 2, rho=10, exterior=node.bag)
    assert short.get(hop) == short.sentinel  # needs two pairs


def test_dp_introduce_frozen_lift():
    _, _, _, (leaf, t1, t2, _) = _p4_chain_tables()
    # Walking 0-1 becomes visible (and paid) once vertex 1 is in the bag.
    assert t1.get((((0,), (1,)), ((1,), (UP,)), ((UP,), (3,)))) == 1
    # The fully visible walk pays every edge.
    walk = (((0,), (1,)), ((1,), (2,)), ((2,), (3,)))
    assert t2.get(walk) == 3
    # Deferring the whole crossing to the outside remains available.
    assert t2.get((((0,), (UP,)), ((UP,), (3,)))) == 0


def test_dp_introduce_respects_separation():
    _, _, _, (_, t1, _, _) = _p4_chain_tables()
    # Entering the introduced vertex from below the bag is impossible.
    below = (((0,), (DOWN,)), ((DOWN,), (1,)), ((1,), (UP,)), ((UP,), (3,)))
    assert t1.get(below) == t1.sentinel


def test_dp_forget_hides_interactions_with_the_forgotten_vertex():
    _, _, nodes, tables = _p4_chain_tables()
    t4 = dp_forget(nodes[4], tables[3])
    # The walk 0-1-2-3 keeps its cost once 1 and 2 are both below the bag;
    # its checkpoints on 1 and 2 merge into one hop through the interior.
    assert t4.get((((0,), (DOWN,)), ((DOWN,), (3,)))) == 3
    # The crossing deferred to the outside stays free.
    assert t4.get((((0,), (UP,)), ((UP,), (3,)))) == 0


# ---------------------------------------------------------------------------
# the solver


def test_solve_frozen_small_instances():
    cases = [
        (path_graph(3), [(0, 2)], 2),
        (path_graph(4), [(0, 3)], 3),
        (star_graph(4), [(1, 2)], 2),
        (cycle_graph(4), [(0, 1), (1, 2)], 2),
        (path_graph(4), [(0, 2), (1, 3)], 4),
    ]
    for g, pairs, expected in cases:
        robots = tuple(Robot(i, s, t) for i, (s, t) in enumerate(pairs))
        res = solve_twdp(Instance(g, robots), 12)
        assert res.status == "optimal"
        assert res.energy == expected


def test_solve_free_robot_must_step_aside():
    g = star_graph(4)
    inst = Instance(g, (Robot(0, 1, 2), Robot(1, 0, None)))
    res = solve_twdp(inst, 12)
    certificate = solve_exact(inst)
    assert res.status == "optimal"
    assert res.energy == certificate.energy == 3
    # states_expanded means the same in every solver: the oracle's work.
    assert res.states_expanded == certificate.states_expanded > 0


def test_solve_infeasible_swap():
    g = path_graph(3)
    inst = Instance(g, (Robot(0, 0, 2), Robot(1, 2, 0)))
    res = solve_twdp(inst, 12)
    assert res.status == "infeasible"
    assert res.energy is None


def test_solve_budget_statuses():
    g = path_graph(3)
    tight = solve_twdp(Instance(g, (Robot(0, 0, 2),), budget=1), 8)
    assert tight.status == "budget-exceeded"
    assert tight.energy == 2
    loose = solve_twdp(Instance(g, (Robot(0, 0, 2),), budget=5), 8)
    assert loose.status == "optimal"
    assert loose.energy == 2


def test_solve_trivial_all_home():
    g = path_graph(4)
    inst = Instance(g, (Robot(0, 1, 1), Robot(1, 3, 3)))
    res = solve_twdp(inst, 8)
    assert res.status == "optimal"
    assert res.energy == 0
    assert res.schedule is not None and res.schedule.horizon == 0


def test_certificate_runs_once_under_callers_limits(monkeypatch):
    seen = []
    real = coordmp.twdp.solve_exact

    def spy(instance, limits=None):
        seen.append((instance.budget, limits))
        return real(instance, limits)

    def no_approx(*args, **kwargs):
        raise AssertionError("twdp must not run approximate")

    monkeypatch.setattr(coordmp.twdp, "solve_exact", spy)
    monkeypatch.setattr(coordmp.approx, "approximate", no_approx)
    limits = Limits(max_states=5_000)
    g = star_graph(4)
    inst = Instance(g, (Robot(0, 1, 2), Robot(1, 0, None)), budget=2)
    res = solve_twdp(inst, 12, limits=limits)
    assert (res.status, res.energy) == ("budget-exceeded", 3)
    assert seen == [(None, limits)]  # one run, on the budget-stripped instance


def test_unconfirmed_certificate_builds_no_table(monkeypatch):
    def no_leaf(*args, **kwargs):
        raise AssertionError("no DP table may be built")

    monkeypatch.setattr(coordmp.twdp, "dp_leaf", no_leaf)
    g = path_graph(6)
    inst = Instance(g, (Robot(0, 0, 5), Robot(1, 1, 4)))
    capped = solve_twdp(inst, 8, limits=Limits(max_states=1))
    assert (capped.status, capped.energy) == ("state-limit", None)
    swap = solve_twdp(Instance(g, (Robot(0, 0, 5), Robot(1, 5, 0))), 8)
    assert (swap.status, swap.energy) == ("infeasible", None)


def test_solve_matches_oracle_past_the_old_exact_limit():
    """2xw ladders (n 14-30) and random trees (n 30) reach the DP; every
    answer it certifies is the oracle's."""
    cases = {
        ("ladder", w, s): generate("grid", width=w, height=2, robots=2, seed=s)
        for w in range(7, 16)
        for s in (0, 1)
    }
    for s in range(4):
        cases["tree", 30, s] = generate("random-tree", n=30, robots=2, seed=s)
    results = {key: solve_twdp(inst, 8) for key, inst in cases.items()}
    for key, res in results.items():
        if res.status != "budget-limited":
            oracle = solve_exact(cases[key])
            assert (res.status, res.energy) == (oracle.status, oracle.energy), key
    certified = [r for r in results.values() if r.status != "budget-limited"]
    assert len(certified) >= 5
    ladder = results["ladder", 15, 0]
    assert (ladder.status, ladder.energy) == ("optimal", 5)


def test_solve_rejects_tiny_checkpoint_budget():
    g = path_graph(3)
    with pytest.raises(InputError):
        solve_twdp(Instance(g, (Robot(0, 0, 2),)), 1)


def test_solve_budget_monotone_and_converges():
    g = path_graph(5)
    inst = Instance(g, (Robot(0, 0, 3), Robot(1, 2, 4)))
    oracle = solve_exact(inst).energy
    prev = None
    for budget in (4, 6, 8, 10, 12):
        res = solve_twdp(inst, budget)
        if res.energy is not None and prev is not None:
            assert res.energy <= prev
        if res.energy is not None:
            assert res.energy >= oracle
            prev = res.energy
    assert prev == oracle


def test_solve_audit_mode(monkeypatch):
    """Every leaf table a solve builds holds good sequences whose values
    count their moves between bag vertices."""
    built = []

    def recording_leaf(node, *args, **kwargs):
        table = real_leaf(node, *args, **kwargs)
        built.append((node, table))
        return table

    real_leaf = coordmp.twdp.dp_leaf
    monkeypatch.setattr(coordmp.twdp, "dp_leaf", recording_leaf)
    cases = (
        (star_graph(4), (Robot(0, 1, 2),), 2),
        (path_graph(4), (Robot(0, 0, 2), Robot(1, 2, 3)), 3),
    )
    values = []
    for g, robots, want in cases:
        inst = Instance(g, robots)
        built.clear()
        res = solve_twdp(inst, 10)
        assert res.status == "optimal" and res.energy == want
        assert built
        for node, table in built:
            for seq, value in table.entries.items():
                assert is_good_sequence(seq, node.bag, g, inst)
                moves = sum(
                    1
                    for a, b in seq
                    for u, v in zip(a, b)
                    if u != v and u in node.bag and v in node.bag
                )
                assert value == moves
                values.append(value)
    assert max(values) > 0


def test_solve_builds_one_leaf_table(monkeypatch):
    """All leaves share the terminal bag, so a solve builds their table once."""
    calls = []
    real_leaf = coordmp.twdp.dp_leaf

    def counting_leaf(*args, **kwargs):
        calls.append(args[0].id)
        return real_leaf(*args, **kwargs)

    monkeypatch.setattr(coordmp.twdp, "dp_leaf", counting_leaf)
    g = star_graph(5)
    inst = Instance(g, (Robot(0, 1, 2), Robot(1, 0, None)))
    td = build_nice_td(g, {0, 1, 2})  # the decomposition the solve builds
    assert sum(1 for n in td.nodes.values() if n.kind == "leaf") > 1
    for _ in range(2):  # the table belongs to one solve, not to the next
        calls.clear()
        res = solve_twdp(inst, 12)
        assert res.status == "optimal" and res.energy == solve_exact(inst).energy
        assert len(calls) == 1


def test_solve_matches_oracle_on_random_instances():
    rng = random.Random(4242)
    agree = skipped = 0
    for _ in range(30):
        n = rng.randint(3, 6)
        g = random_connected_graph(rng, n)
        k = rng.randint(1, 2)
        verts = list(range(n))
        rng.shuffle(verts)
        starts = verts[:k]
        rng.shuffle(verts)
        goals = verts[:k]
        inst = Instance(
            g, tuple(Robot(i, starts[i], goals[i]) for i in range(k))
        )
        oracle = solve_exact(inst)
        try:
            res = solve_twdp(inst, 12, entry_cap=300_000)
        except LimitError:
            skipped += 1
            continue
        if oracle.status == "optimal":
            assert res.status == "optimal", (g.edges, starts, goals)
            assert res.energy == oracle.energy, (g.edges, starts, goals)
        else:
            assert res.status == "infeasible", (g.edges, starts, goals)
        agree += 1
    assert agree >= 25


def test_introduce_and_join_tables_are_good_by_construction(monkeypatch):
    """Introduce, forget and join keep every signature property by
    construction: on a seeded sweep, every entry they return is a good
    sequence, and no root entry steps to or from the outside."""
    checked = {"dp_introduce": 0, "dp_forget": 0, "dp_join": 0}
    current = {}

    def checking(name, real):
        def step(node, *args, **kwargs):
            table = real(node, *args, **kwargs)
            inst = current["instance"]
            for seq in table.entries:
                bad = sequence_violations(seq, node.bag, inst.graph, inst)
                assert bad == [], (name, inst, seq, bad)
            checked[name] += len(table.entries)
            current["last"] = table
            return table

        return step

    def recording_leaf(*args, **kwargs):
        current["last"] = real_leaf(*args, **kwargs)
        return current["last"]

    real_leaf = coordmp.twdp.dp_leaf
    monkeypatch.setattr(coordmp.twdp, "dp_leaf", recording_leaf)
    for name in checked:
        monkeypatch.setattr(
            coordmp.twdp, name, checking(name, getattr(coordmp.twdp, name))
        )
    rng = random.Random(2610)
    roots = 0
    for solve in range(320):
        if solve % 3 == 0:
            g = random_tree(rng, rng.randint(2, 9))
        elif solve % 3 == 1:
            g = random_connected_graph(rng, rng.randint(3, 8))
        else:
            g = grid_graph(rng.randint(2, 4), 2)
        k = rng.randint(1, min(3, g.n - 1))
        starts = rng.sample(range(g.n), k)
        goals = rng.sample(range(g.n), k)
        robots = tuple(
            Robot(i, starts[i], goals[i] if i or rng.random() < 0.8 else None)
            for i in range(k)
        )
        current.clear()
        current["instance"] = Instance(g, robots)
        try:
            solve_twdp(current["instance"], rng.randint(4, 8), entry_cap=20_000)
        except LimitError:
            continue
        # The root's table is the last one a solve builds.
        if "last" in current:
            for seq in current["last"].entries:
                assert all(UP not in a and UP not in b for a, b in seq), seq
                roots += 1
    assert checked["dp_introduce"] > 1_000 and checked["dp_join"] > 100
    assert checked["dp_forget"] > 2_000 and roots > 200


def test_default_budget_is_set_by_the_certificate():
    """With no budget the DP runs at 2 * rho, so the 6x2 grid that the
    oracle solves in a handful of states is confirmed, not cut by the
    entry cap."""
    inst = generate("grid", width=6, height=2, robots=2, seed=0)
    res = solve_twdp(inst)
    assert (res.status, res.energy) == ("optimal", 3)
    assert res.states_expanded == solve_exact(inst).states_expanded


def test_budget_of_twice_the_certificate_is_never_budget_limited():
    """A checkpoint budget of at least 2 * rho lets the DP reach the
    certificate: on a seeded sweep no such solve is budget-limited."""
    rng = random.Random(1207)
    confirmed = 0
    for solve in range(90):
        if solve % 3 == 0:
            g = random_tree(rng, rng.randint(3, 10))
        elif solve % 3 == 1:
            g = random_connected_graph(rng, rng.randint(3, 9))
        else:
            g = grid_graph(rng.randint(2, 5), 2)
        k = rng.randint(1, min(2, g.n - 1))
        starts = rng.sample(range(g.n), k)
        goals = rng.sample(range(g.n), k)
        inst = Instance(g, tuple(Robot(i, starts[i], goals[i]) for i in range(k)))
        rho = solve_exact(inst).energy
        if not rho:  # infeasible, or every robot home: no table is built
            continue
        for budget in (None, 2 * rho, 2 * rho + 3):
            try:
                res = solve_twdp(inst, budget, entry_cap=20_000)
            except LimitError:
                continue
            assert res.status != "budget-limited", (inst, budget)
            confirmed += res.status == "optimal" and res.energy > 0
    assert confirmed >= 180


def test_join_equals_the_all_pairs_reference(monkeypatch):
    """``dp_join`` tries only pairs of equal bag shape; on a seeded sweep
    every join table equals the all-pairs reference, entries, values and
    insertion order alike."""
    checked = {"joins": 0, "pairs": 0, "entries": 0}
    real_join = coordmp.twdp.dp_join

    def checking_join(node, left, right, *, instance, exterior):
        table = real_join(node, left, right, instance=instance, exterior=exterior)
        want = all_pairs_join(left, right, instance.k, exterior)
        assert table.rho == want.rho
        assert list(table.entries.items()) == list(want.entries.items())
        checked["joins"] += 1
        checked["pairs"] += len(left.entries) * len(right.entries)
        checked["entries"] += len(table.entries)
        return table

    monkeypatch.setattr(coordmp.twdp, "dp_join", checking_join)
    rng = random.Random(1403)
    for solve in range(90):
        if solve % 3 == 0:
            g = random_tree(rng, rng.randint(5, 10))
        elif solve % 3 == 1:
            g = random_connected_graph(rng, rng.randint(5, 9))
        else:
            g = grid_graph(rng.randint(3, 5), 2)
        k = rng.randint(1, 2)
        starts = rng.sample(range(g.n), k)
        goals = rng.sample(range(g.n), k)
        inst = Instance(g, tuple(Robot(i, starts[i], goals[i]) for i in range(k)))
        try:
            solve_twdp(inst, rng.choice((6, 8)), entry_cap=20_000)
        except LimitError:
            continue
    assert checked["joins"] > 100 and checked["pairs"] > 50_000
    assert checked["entries"] > 400


# (status, energy, entries summed over every table a solve builds), recorded
# with a lift that ran every branch to its end and a join that tried every
# equal-length pair; the solves run as twdp-small runs them: oracle cap
# 100k, entry cap 20k.  ``None`` budgets run at the certificate's 2 * rho.
PINNED_TABLE_TOTALS = [
    ("random-tree", dict(n=8, robots=2), 8, [
        ("optimal", 5, 226), ("optimal", 4, 182),
        ("budget-limited", None, 6), ("optimal", 6, 82),
    ]),
    ("random-tree", dict(n=12, robots=2), 8, [
        ("optimal", 4, 967), ("optimal", 5, 1228),
        ("budget-limited", None, 142), ("budget-limited", None, 1140),
    ]),
    ("grid", dict(width=4, height=2, robots=2), 8, [
        ("optimal", 4, 917), ("optimal", 4, 1576),
        ("optimal", 3, 278), ("optimal", 4, 739),
    ]),
    # generator seed 3 stops in the leaf's enumeration, before any table.
    ("grid", dict(width=6, height=2, robots=2), 8, [
        ("optimal", 3, 362), ("optimal", 3, 382),
        ("optimal", 5, 930), ("LimitError", None, 0),
    ]),
    ("random", dict(n=8, robots=2, edge_prob=0.15), 8, [
        ("optimal", 1, 19), ("optimal", 2, 102),
        ("optimal", 3, 142), ("optimal", 4, 220),
    ]),
    ("random", dict(n=11, robots=2, edge_prob=0.1), 8, [
        ("budget-limited", None, 2013), ("optimal", 6, 353),
        ("budget-limited", None, 1106), ("optimal", 5, 1566),
    ]),
    ("random-tree", dict(n=8, robots=2), None, [
        ("optimal", 5, 1027), None, None, ("optimal", 6, 1913),
    ]),
    ("path", dict(n=8, robots=2), None, [None, None, ("optimal", 6, 957)]),
    ("star", dict(n=7, robots=3), None, [("optimal", 5, 98)]),
]


def test_table_totals_pinned(monkeypatch):
    """The DP's pruning is exact: every pinned solve builds as many table
    entries and reaches the same root value as the DP that tried every
    branch and every equal-length pair."""
    built = []

    def counting(real):
        def step(*args, **kwargs):
            table = real(*args, **kwargs)
            built.append(len(table.entries))
            return table

        return step

    for name in ("dp_leaf", "dp_introduce", "dp_forget", "dp_join"):
        monkeypatch.setattr(
            coordmp.twdp, name, counting(getattr(coordmp.twdp, name))
        )
    for kind, kw, budget, pins in PINNED_TABLE_TOTALS:
        for seed, want in enumerate(pins):
            if want is None:
                continue
            inst = generate(kind, seed=seed, **kw)
            built.clear()
            try:
                res = solve_twdp(
                    inst, budget, limits=Limits(max_states=100_000), entry_cap=20_000
                )
                got = (res.status, res.energy, sum(built))
            except LimitError:
                got = ("LimitError", None, sum(built))
            assert got == want, (kind, kw, seed, budget)


def test_default_budget_confirms_the_20x2_ladder():
    """At n = 40 and the default budget 2 * rho = 10, the DP confirms the
    oracle's optimum."""
    inst = generate("grid", width=20, height=2, robots=2, seed=1)
    res = solve_twdp(inst)
    assert (res.status, res.energy) == ("optimal", 5)


def test_default_budget_lifts_finish_within_the_entry_cap():
    """A lift branch stops as soon as its remaining child pairs cannot fit
    the budget, so these default-budget solves finish under the 20k entry
    cap instead of spending it on visits that no entry could keep."""
    cases = (
        (generate("random-tree", n=8, robots=2, seed=2), 8),
        (generate("grid", width=6, height=2, robots=2, seed=2), 5),
    )
    for inst, energy in cases:
        res = solve_twdp(inst, limits=Limits(max_states=100_000), entry_cap=20_000)
        assert (res.status, res.energy) == ("optimal", energy)
