"""Exact minimum-energy search over robot configurations.

A configuration puts robot i on vertex state[i], no two robots on one
vertex.  The search stores it packed into one int, the code
``sum(state[i] * n**(k-1-i))``: base-n digits with robot 0 the most
significant.  Codes of k-digit states compare exactly as the state tuples
do, so a heap tie broken on codes is the lexicographic tie-break on
states, and moving robot i from v to u adds (u - v) * n**(k-1-i) to the
code.

Transitions are parallel conflict-free moves weighted by the number of
moving robots.  One A* search on goal distances (``_search``) answers
every question put to the oracle, one search per call, and returns the
status where it learns it.  Among entries of equal f it pops the
deepest first, then the smallest code, so it is deterministic.

Any legal parallel step decomposes into independent chains and fully
occupied cycles: chains serialize into single moves at equal total
energy, while cycle rotations cannot be serialized.  The generator
therefore emits single moves plus whole-cycle rotations, which preserves
both feasibility and the optimal energy while keeping branching small.

Every successor generator yields ``(next_code, weight, dh, steps)``: dh is
the change of the summed goal distance, computed from the robots that move
alone, so a successor costs O(robots moved) rather than O(k); steps is
None for a one-step transition and the tuple of per-step codes of a
corridor transit.  Occupied cycles are found from the occupied neighbours
that the single-move loop sees anyway, and only when the occupied subgraph
can contain one.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain

from coordmp.core import (
    Graph,
    InputError,
    Instance,
    Route,
    Schedule,
    bfs_distances,
    layers,
)

DEFAULT_STATE_CAP = 2_000_000


@dataclass(frozen=True)
class Limits:
    """Resource limits for configuration searches.

    max_states caps expanded states and must be positive.  It bounds
    memory only through the branching: memory follows reached states, 210
    to 240 bytes each (table and heap entries), and the number reached per
    expansion grows with vertex degree.  At ``Limits(40_000)`` an 8x8 grid
    with k=8 peaks at 3.4 KB of RSS per expanded state, while a broom (a
    hub with 1,000 leaves and two 4-edge arms, k=3) peaks at 29 KB
    (CPython 3.11, 64-bit).
    """

    max_states: int = DEFAULT_STATE_CAP

    def __post_init__(self):
        if self.max_states < 1:
            raise InputError("state cap must be positive")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of every solver.

    status is one of: optimal (exact minimum energy), infeasible (no
    schedule reaches the goals), budget-exceeded (certified: every schedule
    costs more than the instance budget), state-limit (the state cap cut
    the search), budget-limited (an answer this run could not certify) or
    ok (a valid schedule whose energy is not claimed optimal).
    lower_bound, when set, is the sum of the movers' start-goal distances.
    """

    status: str
    energy: int | None = None
    schedule: Schedule | None = None
    states_expanded: int = 0
    lower_bound: int | None = None


def _cycles(adj):
    """Simple cycles (length >= 3) of an index graph; each undirected cycle once.

    adj[i] lists i's neighbours in ascending order.  Cycles come as index
    tuples starting at their smallest index.
    """
    for s in range(len(adj)):
        stack = [(s, [s])]
        while stack:
            last, path = stack.pop()
            for nxt in adj[last]:
                if nxt == s and len(path) >= 3 and path[1] < path[-1]:
                    yield tuple(path)
                elif nxt > s and nxt not in path:
                    stack.append((nxt, path + [nxt]))


def _has_cycle(adj) -> bool:
    """Whether peeling vertices of degree <= 1 leaves any vertex."""
    degree = [len(nbrs) for nbrs in adj]
    peeled = [d <= 1 for d in degree]
    stack = [i for i, gone in enumerate(peeled) if gone]
    left = len(adj) - len(stack)
    while stack:
        for j in adj[stack.pop()]:
            if not peeled[j]:
                degree[j] -= 1
                if degree[j] <= 1:
                    peeled[j] = True
                    left -= 1
                    stack.append(j)
    return left > 0


def _successors(graph: Graph, domains, state, code: int, place, dists):
    """Yield (next_code, weight, dh, None) for single moves and rotations.

    state is the decoded configuration of code, place[i] is robot i's
    digit weight n**(k-1-i) and dists the per-robot goal-distance lists.
    The occupied neighbours met while emitting single moves form the
    occupied adjacency; rotations are enumerated only when it has at least
    three edges and a cycle.
    """
    index = {v: i for i, v in enumerate(state)}
    adj = []
    occupied_edges = 0
    for i, v in enumerate(state):
        allowed = domains[i] if domains is not None else None
        p, d = place[i], dists[i]
        base, dv = code - v * p, d[v]
        occupied = []
        for u in graph.neighbors(v):
            if u in index:
                occupied.append(index[u])
            elif allowed is None or u in allowed:
                yield base + u * p, 1, d[u] - dv, None
        occupied.sort()
        adj.append(occupied)
        occupied_edges += len(occupied)
    if occupied_edges < 6 or not _has_cycle(adj):  # each edge counted twice
        return
    for cycle in _cycles(adj):
        length = len(cycle)
        for direction in (1, -1):
            nxt, dh = code, 0
            for pos, i in enumerate(cycle):
                v, tgt = state[i], state[cycle[(pos + direction) % length]]
                if domains is not None and tgt not in domains[i]:
                    break
                d = dists[i]
                nxt += (tgt - v) * place[i]
                dh += d[tgt] - d[v]
            else:
                yield nxt, length, dh, None


def _encode(state, n: int) -> int:
    code = 0
    for v in state:
        code = code * n + v
    return code


def _decode(code: int, n: int, k: int) -> list[int]:
    state = [0] * k
    for i in range(k - 1, -1, -1):
        code, state[i] = divmod(code, n)
    return state


def _reconstruct(instance: Instance, table, goal_code: int) -> Schedule:
    chain = [goal_code]
    while table[chain[-1]][1] is not None:
        chain.append(table[chain[-1]][1])
    chain.reverse()
    # Expand each transition into its per-step codes (transits span several).
    codes = [chain[0]]
    for code in chain[1:]:
        steps = table[code][2]
        codes.extend((code,) if steps is None else steps)
    n, k = instance.graph.n, instance.k
    states = [_decode(code, n, k) for code in codes]
    return Schedule(tuple(
        Route(tuple(s[i] for s in states)) for i in range(k)
    ))


def _start(instance):
    """(dists, place, start code, start bound) of a search.

    dists[i] is robot i's BFS distance to its goal as a list indexed by
    vertex: all zeros for a free robot, None outside the goal's component
    for a mover.  Summing the entries at a state's vertices gives a
    consistent lower bound on remaining energy: every unit of weight moves
    one robot across one edge, shrinking at most one term by one.

    The bound is None when a mover's goal lies outside its start's
    component.  Robots move only along edges, so none ever leaves that
    component: after this test no search reads a None distance, and a
    configuration is a goal exactly when its bound is 0.
    """
    g = instance.graph
    n, k = g.n, instance.k
    zeros = [0] * n
    dists = [
        zeros if r.goal is None else bfs_distances(g, r.goal)
        for r in instance.robots
    ]
    place = [n ** (k - 1 - i) for i in range(k)]
    start = [r.start for r in instance.robots]
    h = None
    if all(d[v] is not None for d, v in zip(dists, start)):
        h = sum(d[v] for d, v in zip(dists, start))
    return dists, place, _encode(start, n), h


def _search(instance, successors, limits) -> SearchResult:
    """The search core: A* over packed configuration codes.

    successors(state, code, place, dists) yields (next_code, weight, dh,
    steps), steps being the per-step codes recorded for reconstruction
    (None for one step).  The bound on remaining goal distance is
    consistent even for restricted successor graphs, whose moves are a
    subset of the base graph's, so the first goal popped is optimal.  A
    successor's bound is its parent's, f - g of the popped entry, plus dh.

    Heap entries are (f, -g, code): among equal f the deepest entry pops
    first.  Single moves change f by 0 or 2, so the last f-layer holds
    most of the reached states, and popping the deepest of them first
    reaches the goal (the deepest entry of its layer) without expanding
    the rest.  Ties on f and g pop the smallest code, that is the
    lexicographically smallest state.  A popped code is decoded once (k
    divmods) for its successors.  One table maps each reached code to (g,
    parent code, steps).  The instance budget only judges the first goal
    popped: above it the result is budget-exceeded, otherwise optimal.
    """
    dists, place, code, h = _start(instance)
    if h is None:
        return SearchResult("infeasible")  # a goal is cut off even with no other robot
    n, k = instance.graph.n, instance.k
    table = {code: (0, None, None)}
    heap = [(h, 0, code)]
    max_states = (limits or Limits()).max_states
    expanded = 0
    while heap:
        f, neg_g, code = heapq.heappop(heap)
        g = -neg_g
        if g > table[code][0]:
            continue
        if f == g:
            if instance.budget is not None and g > instance.budget:
                return SearchResult("budget-exceeded", states_expanded=expanded)
            sched = _reconstruct(instance, table, code)
            return SearchResult("optimal", g, sched, expanded)
        expanded += 1
        if expanded > max_states:
            return SearchResult("state-limit", states_expanded=expanded)
        state = _decode(code, n, k)
        for nxt, weight, dh, steps in successors(state, code, place, dists):
            ng = g + weight
            seen = table.get(nxt)
            if seen is not None and ng >= seen[0]:
                continue
            table[nxt] = (ng, code, steps)
            heapq.heappush(heap, (f + weight + dh, -ng, nxt))
    return SearchResult("infeasible", states_expanded=expanded)


def solve_exact(instance: Instance, limits: Limits | None = None) -> SearchResult:
    """Minimum-energy schedule over all parallel-move schedules.

    Deterministic.  One search runs, the same with or without an instance
    budget, which only judges the optimum found.  Statuses: optimal,
    infeasible (no reachable goal), budget-exceeded (the optimum exceeds
    the budget), state-limit.  Emitted schedules have horizon <= energy.
    """
    return _search(instance, partial(_successors, instance.graph, None), limits)


def solve_restricted(
    instance: Instance, domains, limits: Limits | None = None
) -> SearchResult:
    """solve_exact with per-robot allowed vertex sets.

    Each robot's start (and goal, when present) must lie in its domain;
    an empty domain is an input error.  Full domains reproduce solve_exact.
    """
    if len(domains) != instance.k:
        raise InputError(
            f"expected {instance.k} domains, got {len(domains)}"
        )
    frozen = []
    for robot, dom in zip(instance.robots, domains):
        dom = frozenset(dom)
        if not dom:
            raise InputError(f"robot {robot.id}: empty domain")
        for v in dom:
            if not 0 <= v < instance.graph.n:
                raise InputError(f"robot {robot.id}: domain vertex {v} out of range")
        if robot.start not in dom:
            raise InputError(f"robot {robot.id}: start not in domain")
        if robot.goal is not None and robot.goal not in dom:
            raise InputError(f"robot {robot.id}: goal not in domain")
        frozen.append(dom)
    return _search(
        instance, partial(_successors, instance.graph, tuple(frozen)), limits
    )


def check_feasible(instance: Instance, limits: Limits | None = None) -> str:
    """Reachability verdict: feasible, infeasible, or state-limit.

    Reads the status of solve_exact's search on the instance without its
    budget, optimal as feasible.  Any feasible verdict is witnessed by
    some schedule of energy polynomial in the graph size.
    """
    result = solve_exact(replace(instance, budget=None), limits)
    return "feasible" if result.status == "optimal" else result.status


def critical_vertices(instance: Instance) -> frozenset[int]:
    """Vertices within distance k of any terminal or any vertex of degree != 2.

    The complement consists of deep interiors of long induced degree-2
    corridors, which optimal schedules only ever cross one robot at a time.
    """
    g = instance.graph
    seeds = instance.terminals | {v for v in range(g.n) if g.degree(v) != 2}
    return frozenset(chain.from_iterable(layers(g, seeds, instance.k)))


def _transit_edges(graph: Graph, critical: frozenset[int]):
    """Corridor crossings: critical -> critical through non-critical interior.

    Returns dict u -> list of (target, weight, interior path u..target).
    Non-critical vertices always have degree 2, so walks are forced.
    """
    transits: dict[int, list] = {u: [] for u in critical}
    for u in sorted(critical):
        for c in graph.neighbors(u):
            if c in critical:
                continue
            path = [u, c]
            prev, cur = u, c
            while cur not in critical:
                nbs = graph.neighbors(cur)
                nxt = nbs[0] if nbs[0] != prev else nbs[1]
                path.append(nxt)
                prev, cur = cur, nxt
            if cur != u:
                transits[u].append((cur, len(path) - 1, tuple(path)))
    for u in transits:
        transits[u].sort(key=lambda t: (t[0], t[1], t[2]))
    return transits


def _critical_successors(graph, domains, transits, state, code, place, dists):
    """_successors inside the critical domains, then corridor transits.

    A transit moves one robot through a corridor to a free critical
    vertex; its steps are the codes after each edge of the walk.
    """
    occupied = set(state)
    yield from _successors(graph, domains, state, code, place, dists)
    for i, v in enumerate(state):
        p, d = place[i], dists[i]
        base = code - v * p
        for target, weight, path in transits[v]:
            if target in occupied:
                continue
            steps = tuple(base + u * p for u in path[1:])
            yield steps[-1], weight, d[target] - d[v], steps


def solve_critical(instance: Instance, limits: Limits | None = None) -> SearchResult:
    """Exact search over configurations restricted to critical vertices.

    Long unoccupied corridors are crossed by compressed transit edges (one
    robot at a time, weight equal to the walk length).  When every vertex
    is critical this coincides with solve_exact; it is sound on any
    instance and intended for graphs that are two small vertex pockets
    joined by a long corridor.
    """
    g = instance.graph
    critical = critical_vertices(instance)
    if len(critical) == g.n:
        return solve_exact(instance, limits)
    transits = _transit_edges(g, critical)
    domains = (critical,) * instance.k
    return _search(
        instance, partial(_critical_successors, g, domains, transits), limits
    )
