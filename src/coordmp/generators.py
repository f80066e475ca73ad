"""Seeded instance generators for benchmark and test corpora.

Every generator is a pure function of its parameters: the same kind,
sizes, robot count, and seed produce a byte-identical instance under
``render_instance``.  Robot starts and goals are each sampled injectively
(no two robots share a start or a goal).
"""
from __future__ import annotations

import random

from coordmp.core import Graph, InputError, Instance, Robot

KINDS = ("path", "cycle", "star", "grid", "random-tree", "random")


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InputError("path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    if n < 1:
        raise InputError("star needs at least 1 vertex")
    return Graph(n, [(0, i) for i in range(1, n)])


def grid_graph(width: int, height: int) -> Graph:
    """Solid width x height grid; vertex (row, col) has id row*width + col."""
    if width < 1 or height < 1:
        raise InputError("grid dimensions must be positive")
    edges = []
    for r in range(height):
        for c in range(width):
            v = r * width + c
            if c + 1 < width:
                edges.append((v, v + 1))
            if r + 1 < height:
                edges.append((v, v + width))
    return Graph(width * height, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Random recursive tree: vertex i > 0 attaches to a uniform earlier one."""
    if n < 1:
        raise InputError("tree needs at least 1 vertex")
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def random_connected(n: int, rng: random.Random, edge_prob: float) -> Graph:
    """Random connected graph: a random spanning tree plus G(n, p) extras."""
    if not 0.0 <= edge_prob <= 1.0:
        raise InputError("edge probability must lie in [0, 1]")
    tree = random_tree(n, rng)
    edges = set(tree.edges)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < edge_prob:
                edges.add((u, v))
    return Graph(n, edges)


def place_robots(
    graph: Graph, k: int, rng: random.Random, free_robots: int = 0
) -> tuple[Robot, ...]:
    """Sample k robots with injective starts and injective goals.

    The last ``free_robots`` of them get no destination.
    """
    if k < 0:
        raise InputError(f"robot count must be nonnegative, got {k}")
    if k > graph.n:
        raise InputError(f"cannot place {k} robots on {graph.n} vertices")
    if not 0 <= free_robots <= k:
        raise InputError("free robot count must lie between 0 and k")
    starts = rng.sample(range(graph.n), k)
    goals = rng.sample(range(graph.n), k)
    robots = []
    for i in range(k):
        goal = None if i >= k - free_robots else goals[i]
        robots.append(Robot(i, starts[i], goal))
    return tuple(robots)


def generate(
    kind: str,
    *,
    n: int | None = None,
    width: int | None = None,
    height: int | None = None,
    robots: int = 1,
    free_robots: int = 0,
    seed: int = 0,
    edge_prob: float = 0.3,
    budget: int | None = None,
) -> Instance:
    """Build a deterministic instance of the requested kind.

    ``path``, ``cycle``, ``star``, ``random-tree``, and ``random`` take
    ``n``; ``grid`` takes ``width`` and ``height``.  All randomness (graph
    shape where applicable, robot placement always) flows from ``seed``.
    """
    rng = random.Random(seed)
    if kind == "grid":
        if width is None or height is None:
            raise InputError("grid requires width and height")
        graph = grid_graph(width, height)
    else:
        if n is None:
            raise InputError(f"{kind} requires a vertex count")
        if kind == "path":
            graph = path_graph(n)
        elif kind == "cycle":
            graph = cycle_graph(n)
        elif kind == "star":
            graph = star_graph(n)
        elif kind == "random-tree":
            graph = random_tree(n, rng)
        elif kind == "random":
            graph = random_connected(n, rng, edge_prob)
        else:
            raise InputError(f"unknown instance kind {kind!r}")
    placed = place_robots(graph, robots, rng, free_robots)
    return Instance(graph, placed, budget=budget)
