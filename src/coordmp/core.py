"""Graph, instance, and schedule model for coordinated motion planning.

Robots occupy distinct vertices of an undirected simple graph and move in
parallel time steps.  A step is conflict-free when no two robots end it on
the same vertex and no two robots traverse the same edge in opposite
directions (following a robot that vacates a vertex in the same step is
legal); ``validate_schedule`` checks every step of a schedule for both.
Energy counts moving steps only; waiting is free.  The solvers take
an instance's terminals (every start and goal) from ``Instance.terminals``.

Graph traversal lives here too, and every solver breaks ties the same way.
Neighbor lists are ascending, and each walk order has one implementation:

- ``layers`` lists each breadth-first layer in ascending id order, for
  questions asked in (distance, id) order;
- ``bfs_walk`` runs first-in first-out over ascending neighbors, for
  parents, paths and reachability (``path_avoiding`` returns the first
  target it reaches; ``bfs_distances`` inlines it, since through the
  generator the oracle's per-robot distance tables take ~60% longer);
- ``corridor`` follows the forced walk through degree-2 vertices.

Which haven center, pocket or route a solver picks follows from these
rules.  The one walk of the input graph left outside this module is
``structure.compute_motion_domain``'s: it enters high-degree hubs but does
not expand them.

This module also owns the text formats for instances and schedules, which
are bit-exact under parse/render round-trips on canonical files, and the
line and integer rules of all three formats (hardness's mcc too):
``read_lines`` drops ``#`` comments and blank lines, ``read_int`` takes
ASCII decimals only.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain


class InputError(ValueError):
    """Malformed input: bad file contents, invalid ids, mismatched horizons."""


class LimitError(RuntimeError):
    """A configured resource limit (state cap, size cap) was reached."""


class InfeasibleError(RuntimeError):
    """The instance admits no valid schedule."""


class UnsupportedStructureError(LimitError):
    """The state cap cut the exact search that a solver falls back on where
    the instance lies outside its structural preconditions."""


class Graph:
    """Undirected simple graph on dense integer vertices ``0..n-1``.

    Immutable after construction; neighbor lists are sorted ascending so all
    traversals are deterministic.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, vertex_count: int, edges=()):
        if vertex_count < 0:
            raise InputError("vertex count must be nonnegative")
        self.n = vertex_count
        canon = set()
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InputError(f"edge ({u}, {v}) out of range")
            canon.add((u, v) if u < v else (v, u))
        self.edges = frozenset(canon)
        adj = [[] for _ in range(vertex_count)]
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(nb)) for nb in adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


@dataclass(frozen=True)
class Robot:
    """A robot with a start vertex and an optional destination.

    Robots without a goal are free: they may end anywhere.
    """

    id: int
    start: int
    goal: int | None = None


@dataclass(frozen=True)
class Instance:
    """A motion-planning instance: graph, robots, and optional energy budget."""

    graph: Graph
    robots: tuple[Robot, ...]
    budget: int | None = None

    def __post_init__(self):
        ids = [r.id for r in self.robots]
        if len(set(ids)) != len(ids):
            raise InputError("robot ids must be pairwise distinct")
        starts = [r.start for r in self.robots]
        if len(set(starts)) != len(starts):
            raise InputError("robot starts must be pairwise distinct")
        goals = [r.goal for r in self.robots if r.goal is not None]
        if len(set(goals)) != len(goals):
            raise InputError("robot goals must be pairwise distinct")
        for r in self.robots:
            if not 0 <= r.start < self.graph.n:
                raise InputError(f"robot {r.id} start {r.start} out of range")
            if r.goal is not None and not 0 <= r.goal < self.graph.n:
                raise InputError(f"robot {r.id} goal {r.goal} out of range")
        if self.budget is not None and self.budget < 0:
            raise InputError("budget must be nonnegative")

    @property
    def k(self) -> int:
        return len(self.robots)

    @property
    def movers(self) -> tuple[Robot, ...]:
        return tuple(r for r in self.robots if r.goal is not None)

    @property
    def terminals(self) -> frozenset[int]:
        """Every robot's start and every goal."""
        return frozenset(r.start for r in self.robots) | {r.goal for r in self.movers}


@dataclass(frozen=True)
class Route:
    """One robot's position sequence over the schedule horizon.

    Waiting is a repeated vertex; length is ``horizon + 1``.
    """

    positions: tuple[int, ...]

    @property
    def horizon(self) -> int:
        return len(self.positions) - 1

    def moves(self) -> int:
        return sum(
            1
            for a, b in zip(self.positions, self.positions[1:])
            if a != b
        )


@dataclass(frozen=True)
class Schedule:
    """Per-robot routes over a common horizon."""

    routes: tuple[Route, ...]

    @property
    def horizon(self) -> int:
        return self.routes[0].horizon if self.routes else 0

    @property
    def energy(self) -> int:
        return sum(r.moves() for r in self.routes)


# One parallel step: the (robot id, from, to) moves made at once.  Robots
# not named wait; a list of steps is the constructive solvers' schedule.
MoveStep = tuple[tuple[int, int, int], ...]


class MoveLog:
    """Mutable robot positions and occupancy plus the steps that moved them."""

    def __init__(self, positions: dict[int, int]):
        self.pos = dict(positions)
        self.occ = {v: r for r, v in positions.items()}
        self.steps: list[MoveStep] = []

    def emit(self, moves: list[tuple[int, int, int]]) -> None:
        """Make one parallel step; an inconsistent move raises RuntimeError
        before anything changes."""
        vacated = {u for _, u, _ in moves}
        targets: dict[int, int] = {}
        movers: set[int] = set()
        for robot, u, v in moves:
            if robot in movers:
                raise RuntimeError(
                    f"internal error: robot moved twice in one step: robot {robot}"
                )
            movers.add(robot)
            if self.pos.get(robot) != u:
                raise RuntimeError(
                    "internal error: move source out of sync: "
                    f"robot {robot} is not at vertex {u}"
                )
            if v in self.occ and v not in vacated:
                raise RuntimeError(
                    "internal error: move target occupied: "
                    f"robot {robot} moves onto vertex {v}, held by robot {self.occ[v]}"
                )
            if v in targets:
                raise RuntimeError(
                    "internal error: two robots moved to one vertex: "
                    f"robots {targets[v]} and {robot} onto vertex {v}"
                )
            targets[v] = robot
        for robot, u, _ in moves:
            del self.occ[u]
        for robot, _, v in moves:
            self.occ[v] = robot
            self.pos[robot] = v
        self.steps.append(tuple(moves))

    def walk(self, robot: int, path: list[int]) -> None:
        for u, v in zip(path, path[1:]):
            self.emit([(robot, u, v)])


def steps_to_schedule(robots, steps) -> Schedule:
    """The schedule of ``robots`` (in order) that makes ``steps`` one by one."""
    rows = {r.id: [r.start] for r in robots}
    for step in steps:
        moved = {rid: v for rid, _, v in step}
        for rid, row in rows.items():
            row.append(moved.get(rid, row[-1]))
    return Schedule(tuple(Route(tuple(rows[r.id])) for r in robots))


def schedule_steps(schedule: Schedule, robots) -> list[MoveStep]:
    """The steps of a schedule over ``robots`` (one per route), all-wait
    steps dropped."""
    steps = []
    for t in range(schedule.horizon):
        moves = tuple(
            (robots[i].id, route.positions[t], route.positions[t + 1])
            for i, route in enumerate(schedule.routes)
            if route.positions[t] != route.positions[t + 1]
        )
        if moves:
            steps.append(moves)
    return steps


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of schedule validation: ok plus energy, or the first violation.

    Route faults come first, robot by robot; then the earliest step that
    holds a missing edge or a conflict (see ``validate_schedule``).
    """

    ok: bool
    energy: int | None = None
    over_budget: bool = False
    violation: str | None = None


def validate_schedule(instance: Instance, schedule: Schedule) -> ValidationResult:
    """Check a schedule against an instance.

    On success reports energy and flags a budget overrun when the instance
    carries a budget.  Otherwise reports the first violation in this order:
    the route count; then robot by robot an empty route, a horizon unlike
    the first route's, a vertex out of range, the wrong start and the wrong
    end; then step by step from step 1, robot by robot, a move along a
    missing edge, an edge swap with an earlier robot and a vertex shared
    with an earlier robot.  Step 0 needs no conflict check: starts are
    distinct and every route begins at its start.
    """
    g = instance.graph
    robots = instance.robots

    def fail(violation: str) -> ValidationResult:
        return ValidationResult(False, violation=violation)

    def clash(j: int, i: int, kind: str, t: int) -> ValidationResult:
        return fail(
            f"robots {robots[j].id} and {robots[i].id}: {kind} conflict at step {t}"
        )

    if len(schedule.routes) != instance.k:
        return fail(f"expected {instance.k} routes, got {len(schedule.routes)}")
    if instance.k == 0:
        return ValidationResult(True, energy=0)
    horizon = schedule.routes[0].horizon
    for robot, route in zip(robots, schedule.routes):
        pos = route.positions
        outside = [v for v in pos if not 0 <= v < g.n]
        who = f"robot {robot.id}"
        if len(pos) == 0:
            return fail(f"{who}: empty route")
        if route.horizon != horizon:
            return fail(f"{who}: horizon mismatch")
        if outside:
            return fail(f"{who}: vertex {outside[0]} out of range")
        if pos[0] != robot.start:
            return fail(f"{who}: route starts at {pos[0]}, not {robot.start}")
        if robot.goal is not None and pos[-1] != robot.goal:
            return fail(f"{who}: route ends at {pos[-1]}, not {robot.goal}")
    columns = list(zip(*(route.positions for route in schedule.routes)))
    for t in range(1, horizon + 1):
        # Robot indices by the vertex each ends the step on and by the
        # (from, to) edge each moves along.
        at: dict[int, int] = {}
        moved: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(zip(columns[t - 1], columns[t])):
            if u != v:
                if not g.has_edge(u, v):
                    return fail(
                        f"robot {robots[i].id}: step {t} moves along missing edge "
                        f"({u}, {v})"
                    )
                if (v, u) in moved:
                    return clash(moved[v, u], i, "edge-swap", t)
                moved[u, v] = i
            if v in at:
                return clash(at[v], i, "vertex", t)
            at[v] = i
    e = schedule.energy
    over = instance.budget is not None and e > instance.budget
    return ValidationResult(True, energy=e, over_budget=over)


def bfs_walk(graph: Graph, sources, banned=()):
    """Breadth-first walk from ``sources`` that never enters ``banned``.

    Yields ``(parent, vertex)`` in discovery order, the sources first with
    parent None.  The queue is first-in first-out over ascending neighbor
    lists, so a vertex's parent is the first dequeued vertex that reaches
    it.  The walk is lazy: a caller that stops early does no further work.
    """
    seen = set(sources)
    queue = list(sources)  # read in order while the walk appends to it
    for s in sources:
        yield None, s
    for a in queue:
        for b in graph.neighbors(a):
            if b not in seen and b not in banned:
                seen.add(b)
                queue.append(b)
                yield a, b


def corridor(graph: Graph, prev: int, cur: int, stop) -> list[int]:
    """The forced walk that leaves ``prev`` for its neighbor ``cur``: ``cur``
    and each vertex after it, through degree-2 vertices outside ``stop`` (which
    ends a walk around a cycle), up to and including the first that is not one.
    """
    walk = [cur]
    while graph.degree(cur) == 2 and cur not in stop:
        a, b = graph.neighbors(cur)
        prev, cur = cur, (b if a == prev else a)
        walk.append(cur)
    return walk


def bfs_distances(graph: Graph, source: int) -> list[int | None]:
    """BFS distance from source to every vertex; None when unreachable."""
    dist: list[int | None] = [None] * graph.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _check_vertices(graph: Graph, *vertices: int) -> None:
    for x in vertices:
        if not 0 <= x < graph.n:
            raise InputError(f"vertex {x} out of range")


def shortest_path_distance(graph: Graph, u: int, v: int) -> int | None:
    """BFS distance between two vertices; None when disconnected."""
    _check_vertices(graph, u, v)
    if u == v:
        return 0
    return bfs_distances(graph, u)[v]


def layers(graph: Graph, sources, radius: int | None = None, within=None):
    """Breadth-first layers around ``sources``, each an ascending vertex list.

    Layer d holds the vertices at distance d from the nearest source, so the
    layers chained together list vertices in (distance, id) order.  The walk
    stops after layer ``radius`` (unbounded when None) and only enters
    vertices of ``within`` (every vertex when None).  Layers are built on
    demand: a caller that stops early does no further work.
    """
    seen = set(sources)
    layer = sorted(seen)
    d = 0
    while layer:
        yield layer
        if d == radius:
            return
        d += 1
        grown = []
        for u in layer:
            for w in graph.neighbors(u):
                if w not in seen and (within is None or w in within):
                    seen.add(w)
                    grown.append(w)
        grown.sort()
        layer = grown


def path_avoiding(graph: Graph, source: int, targets, banned) -> list[int] | None:
    """Shortest path from source to any target avoiding banned vertices.

    The first target ``bfs_walk`` reaches wins, by its parents.  None when
    no target is reachable.
    """
    parent = {}
    for a, b in bfs_walk(graph, (source,), banned):
        parent[b] = a
        if b in targets:
            path = [b]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
    return None


def shortest_path(graph: Graph, u: int, v: int) -> list[int] | None:
    """One shortest path from u to v (lowest-id tie-breaking), or None."""
    _check_vertices(graph, u, v)
    return path_avoiding(graph, u, {v}, ())


def connected_components(graph: Graph, vertices=None) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex.

    With ``vertices`` given, the components of the subgraph they induce.
    """
    within = None if vertices is None else frozenset(vertices)
    seen: set[int] = set()
    comps = []
    for s in range(graph.n) if within is None else sorted(within):
        if s in seen:
            continue
        comp = sorted(chain.from_iterable(layers(graph, (s,), within=within)))
        seen.update(comp)
        comps.append(comp)
    return comps


def induced_subgraph(graph: Graph, vertices) -> tuple[Graph, list[int], dict[int, int]]:
    """Induced subgraph on the given vertices.

    Returns (subgraph, new-to-old list, old-to-new map); new ids follow the
    sorted order of the kept vertices.
    """
    keep = sorted(set(vertices))
    old_of_new = list(keep)
    new_of_old = {old: new for new, old in enumerate(keep)}
    edges = [
        (new_of_old[u], new_of_old[v])
        for u, v in graph.edges
        if u in new_of_old and v in new_of_old
    ]
    return Graph(len(keep), edges), old_of_new, new_of_old


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

def read_lines(text: str) -> list[tuple[int, list[str]]]:
    """``(line number, tokens)`` of each line holding more than a ``#`` comment."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            out.append((lineno, tokens))
    return out


def read_int(tok: str) -> int | None:
    """``tok``'s value when it is ASCII decimal digits only, else None."""
    return int(tok) if tok.isascii() and tok.isdigit() else None


def parse_instance(text: str) -> Instance:
    """Parse the instance format.

    Lines: ``gcmp 1`` header, ``n <count>``, ``e <u> <v>`` per edge,
    ``r <id> <start> <goal|->`` per robot, optional ``budget <l>``.
    Vertex tokens are ids when every token is an ASCII decimal below ``n``
    without leading zeros; otherwise all tokens are names mapped to ids in
    first-appearance order.
    """
    lines = read_lines(text)
    head_line, head = lines[0] if lines else (1, [])
    if head != ["gcmp", "1"]:
        raise InputError(f"line {head_line}: expected header 'gcmp 1'")
    n: int | None = None
    edge_tokens: list[tuple[int, str, str]] = []
    robot_tokens: list[tuple[int, str, str, str]] = []
    budget: int | None = None
    for lineno, parts in lines[1:]:
        kind = parts[0]
        if kind == "n" and len(parts) == 2:
            if n is not None:
                raise InputError(f"line {lineno}: duplicate vertex count")
            n = read_int(parts[1])
            if n is None:
                raise InputError(f"line {lineno}: bad vertex count")
        elif kind == "e" and len(parts) == 3:
            edge_tokens.append((lineno, parts[1], parts[2]))
        elif kind == "r" and len(parts) == 4:
            robot_tokens.append((lineno, parts[1], parts[2], parts[3]))
        elif kind == "budget" and len(parts) == 2:
            if budget is not None:
                raise InputError(f"line {lineno}: duplicate budget")
            budget = read_int(parts[1])
            if budget is None:
                raise InputError(f"line {lineno}: bad budget")
        else:
            raise InputError(f"line {lineno}: unrecognized line '{' '.join(parts)}'")
    if n is None:
        raise InputError("missing 'n <vertex_count>' line")

    vertex_tokens: list[str] = []
    for _, u, v in edge_tokens:
        vertex_tokens.extend((u, v))
    for _, _, s, g in robot_tokens:
        vertex_tokens.append(s)
        if g != "-":
            vertex_tokens.append(g)

    ids = {t: read_int(t) for t in vertex_tokens}
    if not all(i is not None and i < n and str(i) == t for t, i in ids.items()):
        ids = {}
        for t in vertex_tokens:
            if t not in ids:
                if len(ids) >= n:
                    raise InputError(
                        f"more than {n} distinct vertex names in file"
                    )
                ids[t] = len(ids)

    edges = []
    for lineno, u, v in edge_tokens:
        if u == v:
            raise InputError(f"line {lineno}: self-loop")
        edges.append((ids[u], ids[v]))
    robots = []
    for lineno, rid, s, g in robot_tokens:
        rid_i = read_int(rid)
        if rid_i is None:
            raise InputError(f"line {lineno}: bad robot id")
        goal = None if g == "-" else ids[g]
        robots.append(Robot(rid_i, ids[s], goal))
    robots.sort(key=lambda r: r.id)
    if [r.id for r in robots] != list(range(len(robots))):
        raise InputError("robot ids must be 0..k-1 without gaps")
    return Instance(Graph(n, edges), tuple(robots), budget)


def render_instance(instance: Instance) -> str:
    """Canonical text form: sorted edges, robots by id, integer vertex ids."""
    out = ["gcmp 1", f"n {instance.graph.n}"]
    for u, v in sorted(instance.graph.edges):
        out.append(f"e {u} {v}")
    for r in instance.robots:
        goal = "-" if r.goal is None else str(r.goal)
        out.append(f"r {r.id} {r.start} {goal}")
    if instance.budget is not None:
        out.append(f"budget {instance.budget}")
    return "\n".join(out) + "\n"


def parse_schedule(text: str, instance: Instance) -> Schedule:
    """Parse the schedule format: ``sched <k> <t>`` then one route per robot.

    Structural checks only (robot count, id coverage, uniform horizon);
    semantic checks are validate_schedule's job.
    """
    lines = read_lines(text)
    if not lines:
        raise InputError("empty schedule file")
    head_line, head = lines[0]
    if len(head) != 3 or head[0] != "sched":
        raise InputError(f"line {head_line}: expected header 'sched <k> <t>'")
    k, t = read_int(head[1]), read_int(head[2])
    if k is None or t is None:
        raise InputError(f"line {head_line}: bad schedule header")
    if k != instance.k:
        raise InputError(f"schedule has {k} robots, instance has {instance.k}")
    routes: dict[int, Route] = {}
    for lineno, tokens in lines[1:]:
        if tokens[0] != "robot":
            raise InputError(f"line {lineno}: expected 'robot <id>: ...'")
        head_part, _, tail = " ".join(tokens).partition(":")
        rid = read_int(head_part.removeprefix("robot").strip())
        positions = tuple(read_int(tok) for tok in tail.split())
        if rid is None or None in positions:
            raise InputError(f"line {lineno}: malformed route")
        if rid in routes:
            raise InputError(f"line {lineno}: duplicate robot {rid}")
        if len(positions) != t + 1:
            raise InputError(
                f"line {lineno}: robot {rid} has {len(positions)} positions, "
                f"expected {t + 1}"
            )
        routes[rid] = Route(positions)
    if sorted(routes) != list(range(k)):
        raise InputError("schedule must cover robot ids 0..k-1 exactly")
    return Schedule(tuple(routes[i] for i in range(k)))


def render_schedule(schedule: Schedule) -> str:
    """Canonical text form of a schedule."""
    k = len(schedule.routes)
    t = schedule.horizon if k else 0
    out = [f"sched {k} {t}"]
    for i, route in enumerate(schedule.routes):
        out.append(f"robot {i}: " + " ".join(str(v) for v in route.positions))
    return "\n".join(out) + "\n"
