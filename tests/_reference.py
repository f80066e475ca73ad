"""Independent brute-force reference implementations used only by tests.

Deliberately naive: full enumeration of every parallel move subset with no
pruning beyond legality, so results can anchor the optimized solvers.
"""
from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from itertools import combinations, product

from coordmp.core import Graph, InputError, Instance, LimitError, Route, Schedule
from coordmp.oracle import _decode, _start, _successors
from coordmp.structure import Haven, _make_haven
from coordmp.twdp import DPTable, _crosses_outside_non_portal, _is_symbol, _zip_merge


def legal_parallel_steps(graph: Graph, state: tuple[int, ...]):
    """Yield (next_state, mover_count) for every legal nonempty parallel move.

    Enumerates the full product of per-robot options (stay or move to any
    neighbor) and filters by end-vertex injectivity and edge-swap rules.
    """
    options = [(v,) + graph.neighbors(v) for v in state]
    for nxt in product(*options):
        movers = [i for i in range(len(state)) if nxt[i] != state[i]]
        if not movers:
            continue
        if len(set(nxt)) != len(nxt):
            continue
        used = set()
        ok = True
        for i in movers:
            a, b = state[i], nxt[i]
            if (b, a) in used:
                ok = False
                break
            used.add((a, b))
        if ok:
            yield nxt, len(movers)


def _goal_reached(instance: Instance, state: tuple[int, ...]) -> bool:
    return all(
        r.goal is None or state[i] == r.goal
        for i, r in enumerate(instance.robots)
    )


def brute_force_optimum(instance: Instance, cap: int = 2_000_000):
    """Exact minimum energy by Dijkstra over full parallel-move enumeration.

    Returns (energy, schedule) or (None, None) when infeasible.
    """
    start = tuple(r.start for r in instance.robots)
    if _goal_reached(instance, start):
        return 0, Schedule(tuple(Route((v,)) for v in start))
    g = instance.graph
    dist = {start: 0}
    parent: dict = {start: None}
    heap = [(0, start)]
    expanded = 0
    while heap:
        d, state = heapq.heappop(heap)
        if d > dist.get(state, -1):
            continue
        if _goal_reached(instance, state):
            states = [state]
            while parent[states[-1]] is not None:
                states.append(parent[states[-1]])
            states.reverse()
            routes = tuple(
                Route(tuple(s[i] for s in states))
                for i in range(instance.k)
            )
            return d, Schedule(routes)
        expanded += 1
        if expanded > cap:
            raise RuntimeError("reference search exceeded state cap")
        for nxt, movers in legal_parallel_steps(g, state):
            nd = d + movers
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                parent[nxt] = state
                heapq.heappush(heap, (nd, nxt))
    return None, None


def _subset_connected(graph: Graph, vertices: tuple[int, ...]) -> bool:
    vs = set(vertices)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        u = stack.pop()
        for nb in graph.neighbors(u):
            if nb in vs and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(vs)


def connected_subsets(graph: Graph) -> list[frozenset[int]]:
    """Every connected nonempty vertex subset, by raw powerset filtering."""
    found = []
    verts = range(graph.n)
    for r in range(1, graph.n + 1):
        for combo in combinations(verts, r):
            if _subset_connected(graph, combo):
                found.append(frozenset(combo))
    return found


def ref_is_nice(graph: Graph, v: int, k: int, subsets=None) -> bool:
    """Naive decision: do three connected subgraphs through v pairwise meet
    exactly at v, with sizes >= k+1, k+1, 2?  Pure powerset search; only
    usable on tiny graphs.  ``subsets`` may carry a precomputed
    connected_subsets(graph) result.
    """
    if subsets is None:
        subsets = connected_subsets(graph)
    through = [c for c in subsets if v in c]
    vset = frozenset((v,))
    big = [c for c in through if len(c) >= k + 1]
    thirds = [c for c in through if len(c) >= 2]
    for c1 in big:
        for c2 in big:
            if c1 & c2 != vset:
                continue
            for c3 in thirds:
                if c1 & c3 == vset and c2 & c3 == vset:
                    return True
    return False


def _connected_sets_with(graph: Graph, root: int, size: int, banned):
    """Yield each connected vertex set of exactly ``size`` vertices that
    contains ``root`` and avoids ``banned``, exactly once, in a fixed order.

    Uses the standard exclusion-set enumeration: at each level the branches
    that skip a candidate keep it excluded in all deeper extensions, so no
    set is produced twice.
    """
    if size <= 0 or root in banned:
        return

    def rec(current: frozenset, excluded: frozenset):
        if len(current) == size:
            yield current
            return
        cands = sorted(
            {
                nb
                for u in current
                for nb in graph.neighbors(u)
            }
            - current
            - excluded
            - banned
        )
        for i, c in enumerate(cands):
            yield from rec(current | {c}, excluded | frozenset(cands[:i]))

    yield from rec(frozenset((root,)), frozenset())


def ordered_is_nice(graph: Graph, v: int, k: int) -> Haven | None:
    """The unpruned haven search: the first (C1, C2, x) in enumeration order.

    Star witnesses for degree >= 2k+1; otherwise every connected (k+1)-set
    C1 through ``v``, then every connected (k+1)-set C2 through ``v``
    avoiding C1 - v, then the lowest neighbor x outside both.  Exponential
    in k; ``structure.is_nice`` must return exactly this witness.
    """
    deg = graph.degree(v)
    if deg < 3:
        return None
    if deg >= 2 * k + 1:
        nbs = graph.neighbors(v)[: 2 * k + 1]
        c1 = frozenset((v,) + nbs[:k])
        c2 = frozenset((v,) + nbs[k : 2 * k])
        return _make_haven(graph, v, c1, c2, nbs[2 * k], k)
    size = k + 1
    for c1 in _connected_sets_with(graph, v, size, frozenset()):
        banned = c1 - {v}
        for c2 in _connected_sets_with(graph, v, size, banned):
            used = c1 | c2
            for x in graph.neighbors(v):
                if x not in used:
                    return _make_haven(graph, v, c1, c2, x, k)
    return None


def brute_force_feasible(instance: Instance, cap: int = 2_000_000) -> bool:
    """Reachability of any goal configuration under full move enumeration."""
    start = tuple(r.start for r in instance.robots)
    seen = {start}
    stack = [start]
    expanded = 0
    while stack:
        state = stack.pop()
        if _goal_reached(instance, state):
            return True
        expanded += 1
        if expanded > cap:
            raise RuntimeError("reference search exceeded state cap")
        for nxt, _ in legal_parallel_steps(instance.graph, state):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def bfs_feasibility(instance: Instance, limits) -> str:
    """Reachability over the oracle's own moves, breadth-first: feasible,
    infeasible or state-limit.

    The reference for ``check_feasible``, which runs the A* core instead.
    It ignores weights and keeps each reached code's goal-distance bound,
    so its goal test is the search's: bound 0.
    """
    dists, place, code, h = _start(instance)
    if h is None:
        return "infeasible"  # a goal is cut off even with no other robot
    if h == 0:
        return "feasible"
    n, k = instance.graph.n, instance.k
    successors = partial(_successors, instance.graph, None)
    seen = {code: h}
    queue = deque([code])
    expanded = 0
    while queue:
        code = queue.popleft()
        expanded += 1
        if expanded > limits.max_states:
            return "state-limit"
        h = seen[code]
        state = _decode(code, n, k)
        for nxt, _, dh, _ in successors(state, code, place, dists):
            if nxt in seen:
                continue
            if h + dh == 0:
                return "feasible"
            seen[nxt] = h + dh
            queue.append(nxt)
    return "infeasible"


def apply_steps(positions: dict[int, int], steps) -> dict[int, int]:
    """Replay move steps over a placement, validating each move."""
    pos = dict(positions)
    occ = {v: r for r, v in pos.items()}
    if len(occ) != len(pos):
        raise InputError("placement is not injective")
    for step in steps:
        vacated = set()
        entered = {}
        for robot, u, v in step:
            if pos.get(robot) != u:
                raise InputError(f"robot {robot} is not at {u}")
            vacated.add(u)
            if v in entered:
                raise InputError(f"two robots moved to {v}")
            entered[v] = robot
        for v, robot in entered.items():
            if v in occ and v not in vacated:
                raise InputError(f"vertex {v} is occupied")
        for robot, u, v in step:
            del occ[u]
        for v, robot in entered.items():
            occ[v] = robot
            pos[robot] = v
    return pos


def all_pairs_join(left_table, right_table, k: int, exterior) -> DPTable:
    """The join table from every pair of equal-length entries.

    The reference for ``dp_join``, which only tries pairs of equal bag
    shape: each pair is merged coordinate by coordinate, dropped if it
    crosses to the outside away from the exterior, and stored at the sum of
    the two values less the moves between bag vertices both children paid.
    """
    table = DPTable(min(left_table.rho, right_table.rho))
    for s1, h1 in left_table.entries.items():
        for s2, h2 in right_table.entries.items():
            if len(s1) != len(s2):
                continue
            merged = _zip_merge(s1, s2, k)
            if merged is None or _crosses_outside_non_portal(merged, k, exterior):
                continue
            shared = sum(
                1
                for a, b in merged
                for x, y in zip(a, b)
                if x != y and not _is_symbol(x) and not _is_symbol(y)
            )
            table.put_min(merged, h1 + h2 - shared)
    return table


# The subset dynamic program below keeps one entry per vertex subset.
TD_EXACT_LIMIT = 13


def exact_elimination_order(graph: Graph) -> tuple[list[int], int]:
    """Minimum-width elimination order via the subset dynamic program."""
    n = graph.n
    if n == 0:
        return [], -1
    if n > TD_EXACT_LIMIT:
        raise LimitError(
            f"exact decomposition supports at most {TD_EXACT_LIMIT} vertices "
            f"(got {n})"
        )
    adj = [set(graph.neighbors(v)) for v in range(n)]

    def reach_count(mask: int, v: int) -> int:
        # Vertices outside mask∪{v} reachable from v through mask.
        seen = 1 << v
        stack = [v]
        count = 0
        while stack:
            u = stack.pop()
            for w in adj[u]:
                bit = 1 << w
                if seen & bit:
                    continue
                seen |= bit
                if mask & bit:
                    stack.append(w)
                else:
                    count += 1
        return count

    best = {0: -1}
    choice: dict[int, int] = {}
    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        masks_by_size[bin(mask).count("1")].append(mask)
    for size in range(1, n + 1):
        for mask in masks_by_size[size]:
            value, pick = None, None
            for v in range(n):
                bit = 1 << v
                if not mask & bit:
                    continue
                rest = mask ^ bit
                cand = max(best[rest], reach_count(rest, v))
                if value is None or cand < value or (cand == value and v < pick):
                    value, pick = cand, v
            best[mask] = value
            choice[mask] = pick
    order_rev = []
    mask = (1 << n) - 1
    while mask:
        v = choice[mask]
        order_rev.append(v)
        mask ^= 1 << v
    order = order_rev[::-1]
    return order, best[(1 << n) - 1]
