"""Constructive bounded-overhead solving and budget-ball preprocessing.

Three entry points:

* :func:`approximate` builds a valid schedule whose energy exceeds the
  distance lower bound by an additive term polynomial in the robot count,
  by parking robots in pairwise-disjoint havens and routing the
  destination-bearing ones through haven detours; a component with no
  haven nearby is searched exactly, up to the caller's state cap.
* :func:`solve_gcmp1` solves single-destination instances exactly,
  confining each free robot to its motion domain.
* :func:`energy_ball_restrict` shrinks a budgeted instance to the union of
  budget-radius balls around the robots that must move, preserving the
  yes/no answer.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from coordmp.core import (
    InfeasibleError,
    InputError,
    Instance,
    LimitError,
    MoveLog,
    MoveStep,
    Robot,
    Route,
    Schedule,
    UnsupportedStructureError,
    bfs_distances,
    connected_components,
    induced_subgraph,
    path_avoiding,
    schedule_steps,
    shortest_path,
    shortest_path_distance,
    steps_to_schedule,
    validate_schedule,
)
from coordmp.havenswap import swap
# check_feasible and is_nice are unused here, but perfbench's traced run
# wraps coordmp.approx.check_feasible and coordmp.approx.is_nice by name and
# fails if either is missing.
from coordmp.oracle import (  # noqa: F401
    Limits,
    SearchResult,
    check_feasible,
    solve_critical,
    solve_exact,
    solve_restricted,
)
from coordmp.structure import (  # noqa: F401
    Haven,
    classify_vertex,
    compute_motion_domain,
    is_nice,
    nearest_nice,
)

# Every robot endpoint must lie within NICE_RADIUS_FACTOR * k of a nice
# vertex for the constructive pipeline to apply.
NICE_RADIUS_FACTOR = 11


@dataclass(frozen=True)
class RestrictionResult:
    """Budget-ball preprocessing outcome.

    When ``no_instance`` is true the budget is provably insufficient and no
    sub-instance exists; otherwise ``instance`` is the restriction,
    ``vertex_map`` sends original vertex ids to sub-instance ids and
    ``robot_map`` sends the ids of the kept robots to their sub-instance
    ids, which are 0..k-1 in the original order.
    """

    instance: Instance | None
    vertex_map: dict[int, int] = field(default_factory=dict)
    robot_map: dict[int, int] = field(default_factory=dict)
    no_instance: bool = False
    reason: str | None = None


# ---------------------------------------------------------------------------
# loop cutting


def _runs(positions):
    """Maximal stays on one vertex, as ``[vertex, first time, last time]``."""
    runs = []
    for t, v in enumerate(positions):
        if runs and runs[-1][0] == v:
            runs[-1][2] = t
        else:
            runs.append([v, t, t])
    return runs


def _cut_loops(instance: Instance, schedule: Schedule) -> Schedule:
    """Cut returns to a vertex that nobody else used meanwhile.

    A robot at vertex p at times t1 < t2 waits at p throughout when no other
    robot is at p in [t1, t2]; a free robot waits at p from t1 to the end
    when no other robot is at p after t1.  The robot stands still in the
    cut interval and p is free there, so neither a vertex nor a swap
    conflict arises, and the other robots only find vertices vacated.  Cuts
    repeat until none applies, so the energy never rises; steps in which
    nobody moves are then dropped.
    """
    horizon = schedule.horizon
    runs = [_runs(route.positions) for route in schedule.routes]
    changed = True
    while changed:
        changed = False
        for i, robot in enumerate(instance.robots):
            foreign: dict[int, list[int]] = {}
            for j, other in enumerate(runs):
                if j != i:
                    for v, s, _ in other:
                        foreign.setdefault(v, []).append(s)
            for starts in foreign.values():
                starts.sort()
            mine = runs[i]
            own: dict[int, list[int]] = {}
            for a, (v, _, _) in enumerate(mine):
                own.setdefault(v, []).append(a)
            cut = []
            a = 0
            while a < len(mine):
                v, s, _ = mine[a]
                starts = foreign.get(v, [])
                nxt = bisect_right(starts, s)
                if nxt == len(starts) and robot.goal is None:
                    cut.append([v, s, horizon])
                    changed |= a < len(mine) - 1
                    break
                block = starts[nxt] if nxt < len(starts) else horizon + 1
                b = max(x for x in own[v] if mine[x][1] < block)
                cut.append([v, s, mine[b][2]])
                changed |= b > a
                a = b + 1
            runs[i] = cut
    times = sorted({s for rs in runs for _, s, _ in rs})
    routes = []
    for rs in runs:
        row = []
        r = 0
        for t in times:
            while rs[r][2] < t:
                r += 1
            row.append(rs[r][0])
        routes.append(Route(tuple(row)))
    return Schedule(tuple(routes))


# ---------------------------------------------------------------------------
# the constructive pipeline


class _Pipeline:
    """Sequential gather-then-deliver routing over disjoint parking havens.

    Invariant between routing episodes: every robot is pinned at its goal,
    parked on some selected haven's members, or still waiting to be
    gathered; at most one robot walks at a time, so a snapshot of the other
    robots' positions stays valid for a whole episode.  A robot whose goal
    is its start is pinned from the outset.
    """

    def __init__(self, graph, robots, havens, limits):
        self.graph = graph
        self.havens = havens
        self.limits = limits
        self.member_index = {v: h for h in havens for v in h.members}
        self.log = MoveLog({r.id: r.start for r in robots})
        self.goal = {r.id: r.goal for r in robots}
        self.pinned = {r.id: r.start for r in robots if r.goal == r.start}
        self.center_dist = {h.center: bfs_distances(graph, h.center) for h in havens}

    # -- state primitives ---------------------------------------------

    def occupants(self, haven):
        pos = self.log.pos
        return [rid for rid in sorted(pos) if pos[rid] in haven.members]

    def in_haven(self, rid):
        return self.member_index.get(self.log.pos[rid])

    def spare(self, haven, q):
        """The lowest member of ``haven`` that is not q, pinned or occupied."""
        pinned = set(self.pinned.values())
        for v in sorted(haven.members):
            if v != q and v not in pinned and v not in self.log.occ:
                return v
        raise RuntimeError("internal error: haven capacity exhausted")

    def emit_move(self, rid, v):
        self.log.emit([(rid, self.log.pos[rid], v)])

    def emit_swap(self, haven, targets):
        parts = {rid: self.log.pos[rid] for rid in self.occupants(haven)}
        for step in swap(self.graph, haven, parts, parts | targets, self.limits):
            self.log.emit(list(step))

    def relocation(self, haven, rid, q):
        """Swap targets placing rid at q and evicting whoever holds q."""
        holder = self.log.occ.get(q)
        if holder is None or holder == rid:
            return {rid: q}
        return {rid: q, holder: self.spare(haven, q)}

    # -- walking with haven detours -------------------------------------

    def follow(self, rid, path):
        """Advance rid along path, detouring through occupied havens.

        False when a robot outside every haven blocks the path; rid then
        stays where it got to.
        """
        occ = self.log.occ
        i = 0
        while i < len(path) - 1:
            nxt = path[i + 1]
            haven = self.member_index.get(nxt)
            if haven is None:
                if nxt in occ:
                    return False
                self.emit_move(rid, nxt)
                i += 1
                continue
            j = max(t for t in range(i + 1, len(path)) if path[t] in haven.members)
            q = path[j]
            if self.in_haven(rid) is haven:
                self.emit_swap(haven, self.relocation(haven, rid, q))
                i = j
                continue
            if not self.occupants(haven):
                self.emit_move(rid, nxt)
                i += 1
                continue
            blocker = occ.get(nxt)
            if blocker is not None:
                self.emit_swap(haven, {blocker: self.spare(haven, q)})
            self.emit_move(rid, nxt)
            if q != nxt:
                self.emit_swap(haven, self.relocation(haven, rid, q))
            i = j
        return True

    def route(self, rid, targets, extra_banned):
        pos = self.log.pos
        banned = (set(self.pinned.values()) | extra_banned) - {pos[rid]}
        path = path_avoiding(self.graph, pos[rid], targets, banned)
        return path is not None and self.follow(rid, path)

    # -- phases ----------------------------------------------------------

    def haven_depth(self, v):
        return min(
            (self.center_dist[h.center][v], h.center)
            for h in self.havens
            if self.center_dist[h.center][v] is not None
        )

    def gather(self):
        pos = self.log.pos
        waiting = sorted(
            rid
            for rid in pos
            if rid not in self.pinned and self.in_haven(rid) is None
        )
        while waiting:
            progressed = False
            for rid in list(waiting):
                target = self.member_index[self.haven_depth(pos[rid])[1]]
                outside = {
                    pos[o]
                    for o in pos
                    if o != rid
                    and o not in self.pinned
                    and self.in_haven(o) is None
                }
                if self.route(rid, target.members, outside):
                    waiting.remove(rid)
                    progressed = True
            if not progressed:
                return False
        return True

    def deliver(self):
        # Deepest goals first: a shortest path from a haven to a shallower
        # goal never needs to run through a deeper, already-pinned one.
        pos = self.log.pos
        pending = [
            rid
            for rid in pos
            if self.goal[rid] is not None and rid not in self.pinned
        ]
        for rid in sorted(
            pending, key=lambda rid: (-self.haven_depth(self.goal[rid])[0], rid)
        ):
            if pos[rid] != self.goal[rid]:
                if not self.route(rid, {self.goal[rid]}, set()):
                    return False
            self.pinned[rid] = self.goal[rid]
        return True


def _solve_component(graph, robots, limits) -> list[MoveStep]:
    """Steps for one component's robots, at least one of which must move.

    The haven routing builds them when every robot endpoint has a nice
    vertex within ``NICE_RADIUS_FACTOR * k``.  Otherwise, or when the
    routing is blocked, one exact search decides the component: no goal is
    infeasible, an optimum gives the steps, and the state cap raises
    LimitError (blocked routing, ``solve_exact``) or, with no haven nearby,
    UnsupportedStructureError tagged with the offending endpoint
    (``solve_critical``, which compresses the corridors).
    """
    if len(robots) == 1:
        robot = robots[0]
        path = shortest_path(graph, robot.start, robot.goal)
        return [((robot.id, a, b),) for a, b in zip(path, path[1:])]
    k = len(robots)
    endpoints = sorted(
        {r.start for r in robots} | {r.goal for r in robots if r.goal is not None}
    )
    cache: dict[int, Haven | None] = {}
    centers = set()
    offender = None
    for v in endpoints:
        near = nearest_nice(graph, v, k, NICE_RADIUS_FACTOR * k, cache)
        if near is None:
            offender = v
            break
        centers.add(near[1])
    if offender is None:
        havens = []
        used: set[int] = set()
        for c in sorted(centers):
            h = cache[c]
            if h.members & used:
                continue
            havens.append(h)
            used |= h.members
        pipe = _Pipeline(graph, robots, havens, limits)
        if pipe.gather() and pipe.deliver():
            return pipe.log.steps
        result = solve_exact(Instance(graph, robots), limits)
    else:
        result = solve_critical(Instance(graph, robots), limits)
    if result.status == "infeasible":
        raise InfeasibleError("component goals are unreachable")
    if result.status == "optimal":
        return schedule_steps(result.schedule, robots)
    if offender is None:
        raise LimitError(
            "constructive routing was blocked and the exact completion "
            "exceeded the state limit"
        )
    tag = classify_vertex(graph, offender, k, nice_cache=cache)
    raise UnsupportedStructureError(
        f"vertex {offender} is farther than {NICE_RADIUS_FACTOR}*k from every "
        f"nice vertex (classified {tag.kind}) and the exact search of its "
        f"component hit the state cap of {limits.max_states}",
        tag=tag,
    )


def _report(instance, schedule, lower_bound) -> SearchResult:
    check = validate_schedule(instance, schedule)
    if not check.ok:
        raise RuntimeError(
            f"internal error: constructed schedule invalid: {check.violation}"
        )
    budget = instance.budget
    if budget is None or check.energy <= budget:
        status = "ok"
    elif lower_bound > budget:
        # Even a perfect schedule needs more moves than the budget.
        status = "budget-exceeded"
    else:
        # The schedule overshoots the budget but the lower bound does not
        # rule out a cheaper one; this run cannot decide.
        status = "budget-limited"
    return SearchResult(status, check.energy, schedule, lower_bound=lower_bound)


def approximate(instance: Instance, limits: Limits | None = None) -> SearchResult:
    """Valid schedule with additive overhead polynomial in the robot count.

    Robots are parked in pairwise-disjoint havens near their starts, then
    destination-bearing robots walk to their goals one at a time, crossing
    occupied havens via bounded internal rearrangements.  Feasibility is
    decided only when this construction cannot finish: then one exact
    search of the blocked routing's component decides it and gives the
    component's schedule.  Returns to a vertex that no other robot used in
    between are then cut from the built schedule (see ``_cut_loops``),
    which only lowers its energy.  The result carries the schedule, its
    energy and the distance lower bound; its status is ok (within the
    instance budget, or no budget), budget-exceeded (the lower bound exceeds
    the budget) or budget-limited (undecided).

    Raises InfeasibleError when a goal is cut off from its start, or when
    the exact search of a blocked routing's component, or of a component
    with no haven cover, finds the goals unreachable.  Raises LimitError
    when a blocked routing's exact search, or a haven swap's exact
    fallback, hits the state cap.  Raises UnsupportedStructureError when
    some robot endpoint has no nice vertex within ``NICE_RADIUS_FACTOR * k``
    and ``solve_critical`` on its component runs up to the state cap and
    stops there undecided.
    """
    limits = limits or Limits()
    lower_bound = 0
    for r in instance.movers:
        d = shortest_path_distance(instance.graph, r.start, r.goal)
        if d is None:
            raise InfeasibleError(
                f"robot {r.id}: goal {r.goal} unreachable from start {r.start}"
            )
        lower_bound += d
    steps: list[MoveStep] = []
    for comp in map(set, connected_components(instance.graph)):
        robots = tuple(r for r in instance.robots if r.start in comp)
        if any(r.goal is not None and r.goal != r.start for r in robots):
            steps.extend(_solve_component(instance.graph, robots, limits))
    schedule = _cut_loops(instance, steps_to_schedule(instance.robots, steps))
    return _report(instance, schedule, lower_bound)


# ---------------------------------------------------------------------------
# single-destination exact solving


def solve_gcmp1(instance: Instance, limits: Limits | None = None) -> SearchResult:
    """Exact solve when exactly one robot has a destination.

    The mover keeps every vertex, a free robot in another component its
    start.  A free robot at distance d from the mover's start gets its
    motion domain for lambda = d + 3k, which is cut only past a vertex of
    degree >= ``C1*k**4 + k + 1`` or past depth ``C2*(lambda*k + k**4)``;
    elsewhere, and with no nice vertex within lambda, it is every vertex.
    """
    limits = limits or Limits()
    movers = instance.movers
    if len(movers) != 1:
        raise InputError(
            f"exactly one destination-bearing robot required, got {len(movers)}"
        )
    mover = movers[0]
    k = instance.k
    dist = bfs_distances(instance.graph, mover.start)
    domains = []
    for r in instance.robots:
        d = dist[r.start]
        if r.id == mover.id:
            domains.append(frozenset(range(instance.graph.n)))
        elif d is None:
            # Different component: nothing there ever needs to move.
            domains.append(frozenset({r.start}))
        else:
            domains.append(compute_motion_domain(instance, r.id, d + 3 * k).vertices)
    return solve_restricted(instance, domains, limits)


# ---------------------------------------------------------------------------
# budget-ball preprocessing


def energy_ball_restrict(instance: Instance) -> RestrictionResult:
    """Restrict a budgeted instance to budget-radius balls around movers.

    Keeps exactly the vertices within ``budget`` of some robot that must
    move, drops robots starting outside and renumbers the rest densely,
    and preserves the yes/no answer at the budget.  Returns ``no_instance``
    without building anything when more robots must move than the budget
    allows, or when a single robot's distance already exceeds it.
    """
    if instance.budget is None:
        raise InputError("an energy budget is required")
    budget = instance.budget
    moving = [
        r for r in instance.robots if r.goal is not None and r.goal != r.start
    ]
    if len(moving) > budget:
        return RestrictionResult(
            None,
            no_instance=True,
            reason=(
                f"{len(moving)} robots must each move at least once but the "
                f"budget is {budget}"
            ),
        )
    ball_union: set[int] = set()
    for r in moving:
        dist = bfs_distances(instance.graph, r.start)
        if dist[r.goal] is None or dist[r.goal] > budget:
            return RestrictionResult(
                None,
                no_instance=True,
                reason=f"robot {r.id} alone needs more than {budget} moves",
            )
        ball_union.update(
            v for v, d in enumerate(dist) if d is not None and d <= budget
        )
    sub, _, new_of_old = induced_subgraph(instance.graph, ball_union)
    kept = [r for r in instance.robots if r.start in ball_union]
    robots = tuple(
        Robot(
            i,
            new_of_old[r.start],
            new_of_old[r.goal] if r.goal is not None else None,
        )
        for i, r in enumerate(kept)
    )
    return RestrictionResult(
        Instance(sub, robots, budget),
        dict(new_of_old),
        {r.id: i for i, r in enumerate(kept)},
    )
