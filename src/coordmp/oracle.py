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
"""
from __future__ import annotations

import heapq
import os
from collections import deque
from dataclasses import dataclass
from functools import partial

from coordmp.core import (
    Graph,
    InputError,
    Instance,
    LimitError,
    Route,
    Schedule,
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


def _occupied_cycles(graph: Graph, state: tuple[int, ...]):
    """Simple cycles (length >= 3) among currently occupied vertices.

    Returned as index tuples into state; each undirected cycle once.
    """
    k = len(state)
    if k < 3:
        return
    adj = [
        [j for j in range(k) if j != i and graph.has_edge(state[i], state[j])]
        for i in range(k)
    ]
    for s in range(k):
        stack = [(s, [s])]
        while stack:
            last, path = stack.pop()
            for nxt in adj[last]:
                if nxt == s and len(path) >= 3 and path[1] < path[-1]:
                    yield tuple(path)
                elif nxt > s and nxt not in path:
                    stack.append((nxt, path + [nxt]))


def _successors(graph: Graph, domains, state: tuple[int, ...]):
    """Yield (next_state, weight, steps) for single moves and rotations.

    steps is the per-step state sequence of the transition: (next_state,).
    """
    occupied = set(state)
    for i, v in enumerate(state):
        allowed = domains[i] if domains is not None else None
        for u in graph.neighbors(v):
            if u in occupied:
                continue
            if allowed is not None and u not in allowed:
                continue
            nxt = state[:i] + (u,) + state[i + 1 :]
            yield nxt, 1, (nxt,)
    for cycle in _occupied_cycles(graph, state):
        for direction in (1, -1):
            targets = {}
            ok = True
            for pos, i in enumerate(cycle):
                j = cycle[(pos + direction) % len(cycle)]
                tgt = state[j]
                if domains is not None and tgt not in domains[i]:
                    ok = False
                    break
                targets[i] = tgt
            if not ok:
                continue
            nxt = tuple(
                targets.get(i, state[i]) for i in range(len(state))
            )
            yield nxt, len(cycle), (nxt,)


def _goal_reached(instance: Instance, state: tuple[int, ...]) -> bool:
    for i, r in enumerate(instance.robots):
        if r.goal is not None and state[i] != r.goal:
            return False
    return True


def _trivial_result(instance: Instance) -> SearchResult:
    start = tuple(r.start for r in instance.robots)
    sched = Schedule(tuple(Route((v,)) for v in start))
    return SearchResult("optimal", 0, sched, 0)


def _reconstruct(instance: Instance, parents, goal_state) -> Schedule:
    chain = [goal_state]
    while parents[chain[-1]][0] is not None:
        chain.append(parents[chain[-1]][0])
    chain.reverse()
    # Expand each transition into its per-step states (transits span several).
    states = [chain[0]]
    for state in chain[1:]:
        states.extend(parents[state][1])
    routes = tuple(
        Route(tuple(s[i] for s in states)) for i in range(instance.k)
    )
    return Schedule(routes)


def _goal_distance_maps(instance):
    """Per-robot BFS distance-to-goal maps (None for free robots).

    Summing these gives a consistent lower bound on remaining energy: every
    unit of weight moves one robot across one edge, shrinking at most one
    term by one.
    """
    g = instance.graph
    maps = []
    for r in instance.robots:
        if r.goal is None:
            maps.append(None)
            continue
        dmap = {r.goal: 0}
        queue = deque([r.goal])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if u not in dmap:
                    dmap[u] = dmap[v] + 1
                    queue.append(u)
        maps.append(dmap)
    return maps


def _dijkstra(instance, successors, limits, budget):
    """Shared search core; successors(state) yields (next, weight, steps).

    steps is the per-step state expansion recorded for reconstruction.
    Runs A* on remaining goal distances (exact: the bound is consistent
    even for restricted successor graphs, whose moves are a subset of the
    base graph's).  Returns (goal_state, dist, parents, expanded) with
    goal_state None when the search space is exhausted.
    """
    dmaps = _goal_distance_maps(instance)

    def remaining(state):
        total = 0
        for pos, dmap in zip(state, dmaps):
            if dmap is None:
                continue
            here = dmap.get(pos)
            if here is None:
                return None  # goal unreachable even ignoring other robots
            total += here
        return total

    start = tuple(r.start for r in instance.robots)
    h0 = remaining(start)
    if h0 is None:
        return None, None, {start: (None, None)}, 0
    dist = {start: 0}
    parents = {start: (None, None)}
    heap = [(h0, 0, start)]
    expanded = 0
    while heap:
        f, d, state = heapq.heappop(heap)
        if d > dist.get(state, -1):
            continue
        if _goal_reached(instance, state):
            return state, d, parents, expanded
        expanded += 1
        if expanded > limits.max_states:
            return "limit", None, parents, expanded
        for nxt, weight, steps in successors(state):
            nd = d + weight
            if nxt in dist and nd >= dist[nxt]:
                continue
            h = remaining(nxt)
            if h is None:
                continue
            if budget is not None and nd + h > budget:
                continue
            dist[nxt] = nd
            parents[nxt] = (state, steps)
            heapq.heappush(heap, (nd + h, nd, nxt))
    return None, None, parents, expanded


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
        for nxt, _, _ in successors(state):
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
    goal_state, d, parents, expanded = _dijkstra(
        instance, successors, limits, budget
    )
    if goal_state == "limit":
        return SearchResult("state-limit", states_expanded=expanded)
    if goal_state is not None:
        sched = _reconstruct(instance, parents, goal_state)
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
    dist = {v: 0 for v in seeds}
    queue = deque(seeds)
    while queue:
        u = queue.popleft()
        if dist[u] == k:
            continue
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return frozenset(dist)


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
                yield steps[-1], weight, steps

    return _solve(instance, gen, limits)
