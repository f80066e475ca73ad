"""Tests for the seeded instance generators."""
import random

import pytest

from coordmp.core import InputError, render_instance
from coordmp.generators import (
    KINDS,
    cycle_graph,
    generate,
    grid_graph,
    path_graph,
    place_robots,
    random_connected,
    random_tree,
    star_graph,
)


def _connected(graph):
    if graph.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in graph.neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == graph.n


def test_fixed_shapes():
    p = path_graph(5)
    assert len(p.edges) == 4 and p.degree(0) == 1 and p.degree(2) == 2
    c = cycle_graph(5)
    assert len(c.edges) == 5 and all(c.degree(v) == 2 for v in range(5))
    s = star_graph(5)
    assert s.degree(0) == 4 and all(s.degree(v) == 1 for v in range(1, 5))
    g = grid_graph(3, 2)
    assert g.n == 6 and len(g.edges) == 7
    assert g.has_edge(0, 1) and g.has_edge(0, 3) and not g.has_edge(2, 3)


def test_shape_parameter_errors():
    with pytest.raises(InputError):
        cycle_graph(2)
    with pytest.raises(InputError):
        path_graph(0)
    with pytest.raises(InputError):
        grid_graph(0, 3)
    with pytest.raises(InputError):
        generate("mystery", n=4)
    with pytest.raises(InputError):
        generate("grid", n=4)  # grid needs width/height
    with pytest.raises(InputError):
        generate("random", n=5, edge_prob=1.5)


def test_random_graphs_are_connected_and_seeded():
    for seed in range(10):
        t = random_tree(9, random.Random(seed))
        assert len(t.edges) == 8 and _connected(t)
        g = random_connected(9, random.Random(seed), 0.3)
        assert _connected(g)
    # Same seed, same graph; edge_prob extremes collapse to tree/complete.
    a = random_connected(8, random.Random(5), 0.4)
    b = random_connected(8, random.Random(5), 0.4)
    assert a == b
    assert len(random_connected(7, random.Random(1), 0.0).edges) == 6
    assert len(random_connected(7, random.Random(1), 1.0).edges) == 21


def test_placement_is_injective():
    g = grid_graph(4, 3)
    for seed in range(20):
        robots = place_robots(g, 5, random.Random(seed), free_robots=2)
        starts = [r.start for r in robots]
        goals = [r.goal for r in robots if r.goal is not None]
        assert len(set(starts)) == 5
        assert len(set(goals)) == len(goals) == 3
        assert [r.goal for r in robots[3:]] == [None, None]
    with pytest.raises(InputError):
        place_robots(path_graph(3), 4, random.Random(0))
    with pytest.raises(InputError):
        place_robots(path_graph(3), 2, random.Random(0), free_robots=3)


def test_placement_rejects_a_negative_robot_count():
    with pytest.raises(InputError, match="robot count must be nonnegative, got -1"):
        place_robots(path_graph(5), -1, random.Random(0))


def test_generate_is_byte_deterministic():
    for kind in KINDS:
        kwargs = {"robots": 2, "seed": 11}
        if kind == "grid":
            kwargs |= {"width": 3, "height": 3}
        else:
            kwargs |= {"n": 7}
        once = render_instance(generate(kind, **kwargs))
        again = render_instance(generate(kind, **kwargs))
        assert once == again, kind
        other_seed = render_instance(generate(kind, **{**kwargs, "seed": 12}))
        assert once != other_seed, kind  # placement moves with the seed


def test_generate_carries_budget_and_free_robots():
    inst = generate("path", n=6, robots=3, free_robots=1, seed=2, budget=9)
    assert inst.budget == 9
    assert sum(1 for r in inst.robots if r.goal is None) == 1
