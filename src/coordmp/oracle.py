"""Exact minimum-energy search over robot configurations.

States are injective vertex tuples (one coordinate per robot).  Transitions
are parallel conflict-free moves weighted by the number of moving robots,
and the searches run Dijkstra with deterministic lexicographic
tie-breaking (the smallest successor state is expanded first).

Any legal parallel step decomposes into independent chains and fully
occupied cycles: chains serialize into single moves at equal total energy,
while cycle rotations cannot be serialized.  The generator therefore emits
single moves plus whole-cycle rotations, which preserves both feasibility
and the optimal energy while keeping branching small.

Every successor generator yields ``(next, weight, steps, moved)``: steps is
the per-step state sequence of the transition (one state, or a corridor
walk for transits) and moved holds the indices of the robots whose vertex
changed.  The search updates its goal-distance bound from moved alone, so
a successor costs O(robots moved) rather than O(k).  Occupied cycles are
found from the occupied neighbours that the single-move loop sees anyway,
and only when the occupied subgraph can contain one.
"""
from __future__ import annotations

import heapq
import os
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import chain

from coordmp.core import (
    Graph,
    InputError,
    Instance,
    LimitError,
    Route,
    Schedule,
    bfs_distances,
    layers,
    shortest_path_distance,
)

DEFAULT_STATE_CAP = 2_000_000
STATE_CAP_ENV = "COORDMP_STATE_CAP"


@dataclass(frozen=True)
class Limits:
    """Resource limits for configuration searches.

    max_states caps expanded states (sized for roughly n <= 12, k <= 4).
    """

    max_states: int = DEFAULT_STATE_CAP


def default_limits() -> Limits:
    """Default limits, honoring the COORDMP_STATE_CAP environment override."""
    cap = os.environ.get(STATE_CAP_ENV)
    if cap is not None:
        try:
            return Limits(max_states=int(cap))
        except ValueError:
            raise InputError(f"{STATE_CAP_ENV} must be an integer") from None
    return Limits()


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


def _successors(graph: Graph, domains, state: tuple[int, ...]):
    """Yield (next_state, weight, steps, moved) for single moves and rotations.

    steps is (next_state,); moved is (i,) for a single move of robot i and
    the cycle's index tuple for a rotation.  The occupied neighbours met
    while emitting single moves form the occupied adjacency; rotations are
    enumerated only when it has at least three edges and a cycle.
    """
    index = {v: i for i, v in enumerate(state)}
    adj = []
    occupied_edges = 0
    for i, v in enumerate(state):
        allowed = domains[i] if domains is not None else None
        head, tail, moved = state[:i], state[i + 1 :], (i,)
        occupied = []
        for u in graph.neighbors(v):
            if u in index:
                occupied.append(index[u])
            elif allowed is None or u in allowed:
                nxt = head + (u,) + tail
                yield nxt, 1, (nxt,), moved
        occupied.sort()
        adj.append(occupied)
        occupied_edges += len(occupied)
    if occupied_edges < 6 or not _has_cycle(adj):  # each edge counted twice
        return
    for cycle in _cycles(adj):
        length = len(cycle)
        for direction in (1, -1):
            nxt = list(state)
            for pos, i in enumerate(cycle):
                tgt = state[cycle[(pos + direction) % length]]
                if domains is not None and tgt not in domains[i]:
                    break
                nxt[i] = tgt
            else:
                nxt = tuple(nxt)
                yield nxt, length, (nxt,), cycle


def _goal_reached(instance: Instance, state: tuple[int, ...]) -> bool:
    for i, r in enumerate(instance.robots):
        if r.goal is not None and state[i] != r.goal:
            return False
    return True


def _trivial_result(instance: Instance) -> SearchResult:
    start = tuple(r.start for r in instance.robots)
    sched = Schedule(tuple(Route((v,)) for v in start))
    return SearchResult("optimal", 0, sched, 0)


def _reconstruct(instance: Instance, table, goal_state) -> Schedule:
    chain = [goal_state]
    while table[chain[-1]][1] is not None:
        chain.append(table[chain[-1]][1])
    chain.reverse()
    # Expand each transition into its per-step states (transits span several).
    states = [chain[0]]
    for state in chain[1:]:
        states.extend(table[state][2])
    routes = tuple(
        Route(tuple(s[i] for s in states)) for i in range(instance.k)
    )
    return Schedule(routes)


def _goal_distances(instance):
    """Per-robot BFS distance to the goal, as lists indexed by vertex.

    Free robots get all zeros; a mover's vertices outside its goal's
    component hold None.  Summing the entries at a state's vertices gives a
    consistent lower bound on remaining energy: every unit of weight moves
    one robot across one edge, shrinking at most one term by one.
    """
    g = instance.graph
    zeros = [0] * g.n
    return [
        zeros if r.goal is None else bfs_distances(g, r.goal)
        for r in instance.robots
    ]


def _dijkstra(instance, successors, limits, budget):
    """Shared search core; successors(state) yields (next, weight, steps, moved).

    steps is the per-step state expansion recorded for reconstruction.
    Runs A* on remaining goal distances (exact: the bound is consistent
    even for restricted successor graphs, whose moves are a subset of the
    base graph's).  A successor's bound is its parent's, f - g of the
    popped entry, plus the distance change of each robot in moved.  The
    unreachable-goal test runs once, at the start: robots move only along
    edges, so none ever leaves its start's component and the None entries
    of the distance lists are never read afterwards.  A state is a goal
    exactly when its bound is 0.  One table maps each reached state to
    (g, parent, steps).  Returns (goal_state, g, table, expanded) with
    goal_state None when the search space is exhausted.
    """
    dists = _goal_distances(instance)
    start = tuple(r.start for r in instance.robots)
    table = {start: (0, None, None)}
    if any(d[v] is None for d, v in zip(dists, start)):
        return None, None, table, 0  # a goal is cut off even with no other robot
    heap = [(sum(d[v] for d, v in zip(dists, start)), 0, start)]
    max_states = limits.max_states
    expanded = 0
    while heap:
        f, g, state = heapq.heappop(heap)
        if g > table[state][0]:
            continue
        h = f - g
        if h == 0:
            return state, g, table, expanded
        expanded += 1
        if expanded > max_states:
            return "limit", None, table, expanded
        for nxt, weight, steps, moved in successors(state):
            ng = g + weight
            seen = table.get(nxt)
            if seen is not None and ng >= seen[0]:
                continue
            nh = h
            for i in moved:
                d = dists[i]
                nh += d[nxt[i]] - d[state[i]]
            if budget is not None and ng + nh > budget:
                continue
            table[nxt] = (ng, state, steps)
            heapq.heappush(heap, (ng + nh, ng, nxt))
    return None, None, table, expanded


def _feasibility_scan(instance, successors, limits) -> str:
    """Reachability of any goal configuration; ignores weights."""
    start = tuple(r.start for r in instance.robots)
    if _goal_reached(instance, start):
        return "feasible"
    if any(
        shortest_path_distance(instance.graph, r.start, r.goal) is None
        for r in instance.movers
    ):
        return "infeasible"  # a goal is cut off even with no other robot
    seen = {start}
    queue = deque([start])
    expanded = 0
    while queue:
        state = queue.popleft()
        expanded += 1
        if expanded > limits.max_states:
            return "state-limit"
        for nxt, _, _, _ in successors(state):
            if nxt in seen:
                continue
            if _goal_reached(instance, nxt):
                return "feasible"
            seen.add(nxt)
            queue.append(nxt)
    return "infeasible"


def _solve(instance: Instance, successors, limits: Limits) -> SearchResult:
    if instance.k == 0 or _goal_reached(
        instance, tuple(r.start for r in instance.robots)
    ):
        return _trivial_result(instance)
    budget = instance.budget
    goal_state, d, table, expanded = _dijkstra(
        instance, successors, limits, budget
    )
    if goal_state == "limit":
        return SearchResult("state-limit", states_expanded=expanded)
    if goal_state is not None:
        sched = _reconstruct(instance, table, goal_state)
        return SearchResult("optimal", d, sched, expanded)
    if budget is None:
        return SearchResult("infeasible", states_expanded=expanded)
    # Budget pruning exhausted the space: a feasibility scan distinguishes
    # budget-exceeded from infeasible.
    verdict = _feasibility_scan(instance, successors, limits)
    if verdict == "feasible":
        return SearchResult("budget-exceeded", states_expanded=expanded)
    if verdict == "infeasible":
        return SearchResult("infeasible", states_expanded=expanded)
    return SearchResult("state-limit", states_expanded=expanded)


def solve_exact(instance: Instance, limits: Limits | None = None) -> SearchResult:
    """Minimum-energy schedule over all parallel-move schedules.

    Deterministic; respects the instance budget when present (the optimum
    is still exact whenever it fits the budget, since prefix energies never
    exceed totals).  Statuses: optimal, infeasible, budget-exceeded,
    state-limit.  Emitted schedules always have horizon <= energy.
    """
    limits = limits or default_limits()
    return _solve(instance, partial(_successors, instance.graph, None), limits)


def solve_restricted(
    instance: Instance, domains, limits: Limits | None = None
) -> SearchResult:
    """solve_exact with per-robot allowed vertex sets.

    Each robot's start (and goal, when present) must lie in its domain;
    an empty domain is an input error.  Full domains reproduce solve_exact.
    """
    limits = limits or default_limits()
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
    return _solve(
        instance, partial(_successors, instance.graph, tuple(frozen)), limits
    )


def check_feasible(instance: Instance, limits: Limits | None = None) -> str:
    """Reachability verdict: feasible, infeasible, or state-limit.

    An instance with no movers is trivially feasible.  Any feasible verdict
    is witnessed by some schedule of energy polynomial in the graph size.
    """
    limits = limits or default_limits()
    if instance.k == 0 or _goal_reached(
        instance, tuple(r.start for r in instance.robots)
    ):
        return "feasible"
    return _feasibility_scan(
        instance, partial(_successors, instance.graph, None), limits
    )


def critical_vertices(instance: Instance) -> frozenset[int]:
    """Vertices within distance k of any terminal or any vertex of degree != 2.

    The complement consists of deep interiors of long induced degree-2
    corridors, which optimal schedules only ever cross one robot at a time.
    """
    g = instance.graph
    k = instance.k
    seeds = {v for v in range(g.n) if g.degree(v) != 2}
    for r in instance.robots:
        seeds.add(r.start)
        if r.goal is not None:
            seeds.add(r.goal)
    return frozenset(chain.from_iterable(layers(g, seeds, k)))


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


def solve_critical(instance: Instance, limits: Limits | None = None) -> SearchResult:
    """Exact search over configurations restricted to critical vertices.

    Long unoccupied corridors are crossed by compressed transit edges (one
    robot at a time, weight equal to the walk length).  When every vertex
    is critical this coincides with solve_exact; it is sound on any
    instance and intended for graphs that are two small vertex pockets
    joined by a long corridor.
    """
    limits = limits or default_limits()
    g = instance.graph
    critical = critical_vertices(instance)
    if len(critical) == g.n:
        return solve_exact(instance, limits)
    transits = _transit_edges(g, critical)
    crit_domains = (critical,) * instance.k

    def gen(state):
        occupied = set(state)
        yield from _successors(g, crit_domains, state)
        for i, v in enumerate(state):
            for target, weight, path in transits[v]:
                if target in occupied:
                    continue
                steps = []
                for step_vertex in path[1:]:
                    steps.append(
                        state[:i] + (step_vertex,) + state[i + 1 :]
                    )
                yield steps[-1], weight, steps, (i,)

    return _solve(instance, gen, limits)
