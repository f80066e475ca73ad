"""Haven reconfiguration tests: replay validation, move bounds, normalization."""
from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import coordmp
from coordmp.core import (
    Graph,
    InputError,
    Instance,
    MoveLog,
    Robot,
    Route,
    Schedule,
    steps_to_schedule,
    validate_schedule,
)
from coordmp.havenswap import _absorb, _bfs_tree, swap
from coordmp.structure import Haven, check_haven, is_nice

from _lemmas import normalize_around_haven
from _reference import apply_steps


def run_swap(graph, haven, start, goal):
    steps = swap(graph, haven, start, goal)
    assert apply_steps(start, steps) == goal
    instance = Instance(
        graph, tuple(Robot(r, start[r], goal[r]) for r in sorted(start))
    )
    schedule = steps_to_schedule(instance.robots, steps)
    res = validate_schedule(instance, schedule)
    assert res.ok, res.violation
    for route in schedule.routes:
        assert all(p in haven.members for p in route.positions)
    return steps


def star_haven():
    # Members {w=0, a=1, b=2, x=3} with k=1.
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    haven = is_nice(g, 0, 1)
    assert haven is not None and haven.x == 3
    return g, haven


def chain_haven():
    # k=3 haven whose witness sets are two chains: forces the exact-search
    # completion when deliveries wall off the only corridor.
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7)])
    haven = Haven(
        center=0,
        witnesses=(
            frozenset({0, 1, 2, 3}),
            frozenset({0, 4, 5, 6}),
            frozenset({0, 7}),
        ),
        x=7,
        members=frozenset(range(8)),
        k=3,
    )
    check_haven(g, haven)
    return g, haven


def random_haven(rng, k):
    """A random graph guaranteed to contain a nice vertex for this k."""
    n = rng.randrange(3 * k + 4, 5 * k + 8)
    edges = {(0, i) for i in range(1, 2 * k + 2)}
    for v in range(2 * k + 2, n):
        edges.add((rng.randrange(1, v), v))
    for _ in range(rng.randrange(0, n)):
        u, v = rng.sample(range(n), 2)
        if u != 0 and v != 0:
            edges.add((min(u, v), max(u, v)))
    g = Graph(n, edges)
    haven = is_nice(g, 0, k)
    assert haven is not None
    return g, haven


def test_swap_identity_is_empty():
    g, haven = star_haven()
    assert swap(g, haven, {7: 1}, {7: 1}) == []


def test_swap_star_single_robot_two_steps():
    g, haven = star_haven()
    steps = run_swap(g, haven, {5: 1}, {5: 2})
    assert steps == [((5, 1, 0),), ((5, 0, 2),)]


def test_swap_rejects_mismatched_robot_sets():
    g, haven = star_haven()
    with pytest.raises(InputError, match="different robot sets"):
        swap(g, haven, {1: 1}, {2: 1})


def test_swap_rejects_malformed_haven():
    g, haven = star_haven()
    broken = Haven(
        center=haven.center,
        witnesses=haven.witnesses,
        x=haven.x,
        members=haven.members | {99},
        k=haven.k,
    )
    with pytest.raises(InputError):
        swap(g, broken, {1: 1}, {1: 2})


def test_swap_validates_membership_injectivity_and_capacity():
    # Both placements are checked; an unchanged one is checked too.
    g, haven = star_haven()
    with pytest.raises(InputError, match="robot 1 placed at 9, outside the haven"):
        swap(g, haven, {1: 1}, {1: 9})
    with pytest.raises(InputError, match="placement is not injective"):
        swap(g, haven, {1: 1, 2: 1}, {1: 1, 2: 1})
    with pytest.raises(InputError, match="3 robots exceed the haven capacity k=1"):
        swap(g, haven, {1: 0, 2: 1, 3: 2}, {1: 0, 2: 1, 3: 2})


def test_absorb_rejects_a_free_root():
    g, haven = chain_haven()
    tree = _bfs_tree(g, 0, haven.witnesses[0])
    log = MoveLog({5: 1})
    with pytest.raises(
        RuntimeError, match="^internal error: absorb called with a free root$"
    ):
        _absorb(log, tree, set())
    assert (log.pos, log.occ, log.steps) == ({5: 1}, {1: 5}, [])


def test_absorb_rejects_a_free_root_under_python_O():
    """The check is not an ``assert`` statement, so ``python -O`` keeps it."""
    code = (
        "from coordmp.core import Graph, MoveLog\n"
        "from coordmp.havenswap import _absorb, _bfs_tree\n"
        "g = Graph(4, [(0, 1), (1, 2), (0, 3)])\n"
        "tree = _bfs_tree(g, 0, frozenset({0, 1, 2}))\n"
        "try:\n"
        "    _absorb(MoveLog({5: 1}), tree, set())\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
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
    assert out.splitlines() == ["internal error: absorb called with a free root"]


def test_swap_chain_haven_reversal():
    # Reversing three robots on a chain witness forces interleaving that the
    # incremental phases cannot do; output must still be valid and bounded.
    g, haven = chain_haven()
    steps = run_swap(g, haven, {10: 3, 11: 2, 12: 1}, {10: 1, 11: 2, 12: 3})
    assert sum(len(s) for s in steps) <= 20 * haven.k**3


def test_swap_k3_random_permutations():
    rng = random.Random(11)
    g, haven = random_haven(rng, 3)
    members = sorted(haven.members)
    for _ in range(20):
        spots = rng.sample(members, 3)
        targets = rng.sample(members, 3)
        start = {i: spots[i] for i in range(3)}
        goal = {i: targets[i] for i in range(3)}
        steps = run_swap(g, haven, start, goal)
        assert sum(len(s) for s in steps) <= 20 * 27


def test_swap_move_bound_and_constant(capsys):
    rng = random.Random(99)
    worst = 0.0
    for trial in range(200):
        k = rng.randrange(1, 5)
        g, haven = random_haven(rng, k)
        members = sorted(haven.members)
        m = rng.randrange(1, k + 1)
        start_spots = rng.sample(members, m)
        goal_spots = rng.sample(members, m)
        start = {i: start_spots[i] for i in range(m)}
        goal = {i: goal_spots[i] for i in range(m)}
        steps = run_swap(g, haven, start, goal)
        moves = sum(len(s) for s in steps)
        worst = max(worst, moves / k**3)
        assert moves <= 20 * k**3, (trial, k, moves)
    with capsys.disabled():
        print(f"\n[havenswap] C_swap measured over 200 trials: {worst:.2f}")


# ---------------------------------------------------------------------------
# normalize_around_haven


def corridor_instance():
    """Star haven {0,1,2,3} with a path 3-4-5 leading away."""
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    return g


def classify_moves(route, members):
    inside = outside = 0
    for a, b in zip(route.positions, route.positions[1:]):
        if a == b:
            continue
        if a in members and b in members:
            inside += 1
        else:
            outside += 1
    return inside, outside


def crossings(route, members):
    ins = outs = 0
    for a, b in zip(route.positions, route.positions[1:]):
        if a not in members and b in members:
            ins += 1
        if a in members and b not in members:
            outs += 1
    return ins, outs


def test_normalize_untouched_schedule_unchanged():
    g = corridor_instance()
    haven = is_nice(g, 0, 1)
    inst = Instance(g, (Robot(0, 5, 4),))
    sched = Schedule((Route((5, 4)),))
    assert normalize_around_haven(inst, sched, haven) is sched


def test_normalize_rejects_invalid_schedule():
    g = corridor_instance()
    haven = is_nice(g, 0, 1)
    inst = Instance(g, (Robot(0, 5, 4),))
    bad = Schedule((Route((5, 3)),))  # teleport: 5-3 is not an edge
    with pytest.raises(InputError):
        normalize_around_haven(inst, bad, haven)


def test_normalize_double_visit_single_entry():
    g = corridor_instance()
    haven = is_nice(g, 0, 1)
    inst = Instance(g, (Robot(0, 5, 1),))
    # Enters at 3, leaves to 4, re-enters, then heads to 1.
    route = Route((5, 4, 3, 4, 3, 0, 1))
    sched = Schedule((route,))
    out = normalize_around_haven(inst, sched, haven)
    res = validate_schedule(inst, out)
    assert res.ok, res.violation
    ins, outs = crossings(out.routes[0], haven.members)
    assert ins == 1 and outs == 0
    _, out_moves = classify_moves(out.routes[0], haven.members)
    _, orig_out_moves = classify_moves(route, haven.members)
    assert out_moves <= orig_out_moves


def test_normalize_fully_inside_bound(capsys):
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    haven = is_nice(g, 0, 1)
    inst = Instance(g, (Robot(0, 1, 2),))
    route = Route((1, 0, 2, 0, 1, 0, 2))
    sched = Schedule((route,))
    out = normalize_around_haven(inst, sched, haven)
    res = validate_schedule(inst, out)
    assert res.ok, res.violation
    inside, outside = classify_moves(out.routes[0], haven.members)
    assert outside == 0
    assert inside <= 80 * inst.k**4
    with capsys.disabled():
        print(f"\n[havenswap] fully-inside normalized moves: {inside}")


def random_valid_schedule(rng, instance, horizon):
    """Random single-move walk; goals are wherever robots end up."""
    pos = [r.start for r in instance.robots]
    rows = [[p] for p in pos]
    g = instance.graph
    for _ in range(horizon):
        i = rng.randrange(len(pos))
        options = [v for v in g.neighbors(pos[i]) if v not in pos]
        nxt = dict(enumerate(pos))
        if options:
            nxt[i] = rng.choice(options)
        for j, p in enumerate(pos):
            rows[j].append(nxt[j])
        pos = [nxt[j] for j in range(len(pos))]
    robots = tuple(
        Robot(r.id, r.start, pos[i]) for i, r in enumerate(instance.robots)
    )
    return (
        Instance(instance.graph, robots),
        Schedule(tuple(Route(tuple(row)) for row in rows)),
    )


def test_normalize_randomized_properties():
    rng = random.Random(31337)
    for _ in range(40):
        k = rng.randrange(1, 4)
        g, haven = random_haven(rng, k)
        starts = rng.sample(range(g.n), k)
        base = Instance(g, tuple(Robot(i, starts[i], None) for i in range(k)))
        inst, sched = random_valid_schedule(rng, base, rng.randrange(1, 14))
        out = normalize_around_haven(inst, sched, haven)
        res = validate_schedule(inst, out)
        assert res.ok, res.violation
        for i in range(k):
            ins, outs = crossings(out.routes[i], haven.members)
            assert ins <= 1 and outs <= 1
            _, out_moves = classify_moves(out.routes[i], haven.members)
            _, orig_moves = classify_moves(sched.routes[i], haven.members)
            assert out_moves <= orig_moves
        total_inside = sum(
            classify_moves(out.routes[i], haven.members)[0] for i in range(k)
        )
        assert total_inside <= 80 * k**4
