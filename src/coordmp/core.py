"""Graph, instance, and schedule model for coordinated motion planning.

Robots occupy distinct vertices of an undirected simple graph and move in
parallel time steps.  A step is conflict-free when no two robots end it on
the same vertex and no two robots traverse the same edge in opposite
directions (following a robot that vacates a vertex in the same step is
legal).  Energy counts moving steps only; waiting is free.

Graph traversal lives here too, and every solver breaks ties the same way:
neighbor lists are ascending, ``layers`` lists each breadth-first layer in
ascending id order (so whole searches run in (distance, id) order), and
``path_avoiding`` returns the first target a breadth-first search over
ascending neighbors reaches.  Which haven center, pocket or route a solver
picks follows from these rules.

This module also owns the line-oriented text formats for instances and
schedules, which are bit-exact under parse/render round-trips on canonical
files.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from coordmp.structure import VertexTypeTag


class InputError(ValueError):
    """Malformed input: bad file contents, invalid ids, mismatched horizons."""


class LimitError(RuntimeError):
    """A configured resource limit (state cap, size cap) was reached."""


class InfeasibleError(RuntimeError):
    """The instance admits no valid schedule."""


class UnsupportedStructureError(RuntimeError):
    """The instance falls outside the structural preconditions of a solver.

    ``tag``, when set, classifies the vertex that fell outside them.
    """

    def __init__(self, message: str, tag: VertexTypeTag | None = None):
        super().__init__(message)
        self.tag = tag


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
class ConflictReport:
    """Earliest conflict between two routes: kind is vertex or edge-swap."""

    kind: str
    step: int


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of schedule validation: ok plus energy, or the first violation."""

    ok: bool
    energy: int | None = None
    over_budget: bool = False
    violation: str | None = None


def conflicts(route_a: Route, route_b: Route) -> ConflictReport | None:
    """Earliest conflict between two equal-horizon routes, or None.

    Vertex conflict: both routes end a step on one vertex.  Edge-swap
    conflict: the routes traverse one edge in opposite directions in the
    same step.  Symmetric in its arguments.
    """
    pa, pb = route_a.positions, route_b.positions
    if len(pa) != len(pb):
        raise InputError("routes have different horizons")
    if pa and pa[0] == pb[0]:
        return ConflictReport("vertex", 0)
    for t in range(1, len(pa)):
        if pa[t] == pb[t]:
            return ConflictReport("vertex", t)
        if pa[t] == pb[t - 1] and pb[t] == pa[t - 1] and pa[t] != pa[t - 1]:
            return ConflictReport("edge-swap", t)
    return None


def validate_schedule(instance: Instance, schedule: Schedule) -> ValidationResult:
    """Check a schedule against an instance.

    Verifies route count, start/goal agreement, per-step adjacency, and
    pairwise conflict-freeness; reports energy and flags budget overrun
    when the instance carries a budget.
    """
    g = instance.graph
    if len(schedule.routes) != instance.k:
        return ValidationResult(
            False,
            violation=f"expected {instance.k} routes, got {len(schedule.routes)}",
        )
    if instance.k == 0:
        return ValidationResult(True, energy=0)
    horizon = schedule.routes[0].horizon
    for robot, route in zip(instance.robots, schedule.routes):
        pos = route.positions
        if len(pos) == 0:
            return ValidationResult(False, violation=f"robot {robot.id}: empty route")
        if route.horizon != horizon:
            return ValidationResult(
                False, violation=f"robot {robot.id}: horizon mismatch"
            )
        for v in pos:
            if not 0 <= v < g.n:
                return ValidationResult(
                    False, violation=f"robot {robot.id}: vertex {v} out of range"
                )
        if pos[0] != robot.start:
            return ValidationResult(
                False,
                violation=f"robot {robot.id}: route starts at {pos[0]}, not {robot.start}",
            )
        if robot.goal is not None and pos[-1] != robot.goal:
            return ValidationResult(
                False,
                violation=f"robot {robot.id}: route ends at {pos[-1]}, not {robot.goal}",
            )
        for t in range(1, len(pos)):
            if pos[t] != pos[t - 1] and not g.has_edge(pos[t - 1], pos[t]):
                return ValidationResult(
                    False,
                    violation=(
                        f"robot {robot.id}: step {t} moves along missing edge "
                        f"({pos[t - 1]}, {pos[t]})"
                    ),
                )
    for i in range(instance.k):
        for j in range(i + 1, instance.k):
            c = conflicts(schedule.routes[i], schedule.routes[j])
            if c is not None:
                return ValidationResult(
                    False,
                    violation=(
                        f"robots {instance.robots[i].id} and {instance.robots[j].id}: "
                        f"{c.kind} conflict at step {c.step}"
                    ),
                )
    e = schedule.energy
    over = instance.budget is not None and e > instance.budget
    return ValidationResult(True, energy=e, over_budget=over)


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
            raise InputError(f"vertex out of range: {x}")


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

    Breadth-first over ascending neighbor lists: a vertex's parent is the
    first dequeued vertex that reaches it, and the first target reached
    wins.  None when no target is reachable.
    """
    if source in targets:
        return [source]
    parent = {source: source}
    queue = deque([source])
    while queue:
        a = queue.popleft()
        for b in graph.neighbors(a):
            if b in parent or b in banned:
                continue
            parent[b] = a
            if b in targets:
                path = [b]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(b)
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

def _strip_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_instance(text: str) -> Instance:
    """Parse the instance format.

    Lines: ``gcmp 1`` header, ``n <count>``, ``e <u> <v>`` per edge,
    ``r <id> <start> <goal|->`` per robot, optional ``budget <l>``.
    Vertex tokens are integer ids when every token is a decimal in range;
    otherwise all tokens are names mapped to ids in first-appearance order.
    """
    lines = _strip_lines(text)
    if not lines or lines[0][1].split() != ["gcmp", "1"]:
        raise InputError("line 1: expected header 'gcmp 1'")
    n: int | None = None
    edge_tokens: list[tuple[int, str, str]] = []
    robot_tokens: list[tuple[int, str, str, str]] = []
    budget: int | None = None
    for lineno, line in lines[1:]:
        parts = line.split()
        kind = parts[0]
        if kind == "n" and len(parts) == 2:
            if n is not None:
                raise InputError(f"line {lineno}: duplicate vertex count")
            try:
                n = int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: bad vertex count") from None
        elif kind == "e" and len(parts) == 3:
            edge_tokens.append((lineno, parts[1], parts[2]))
        elif kind == "r" and len(parts) == 4:
            robot_tokens.append((lineno, parts[1], parts[2], parts[3]))
        elif kind == "budget" and len(parts) == 2:
            if budget is not None:
                raise InputError(f"line {lineno}: duplicate budget")
            try:
                budget = int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: bad budget") from None
        else:
            raise InputError(f"line {lineno}: unrecognized line '{line}'")
    if n is None:
        raise InputError("missing 'n <vertex_count>' line")

    vertex_tokens: list[str] = []
    for _, u, v in edge_tokens:
        vertex_tokens.extend((u, v))
    for _, _, s, g in robot_tokens:
        vertex_tokens.append(s)
        if g != "-":
            vertex_tokens.append(g)

    def _is_plain_id(tok: str) -> bool:
        return tok.isdigit() and (tok == "0" or not tok.startswith("0")) and int(tok) < n

    if all(_is_plain_id(t) for t in vertex_tokens):
        ids = {t: int(t) for t in vertex_tokens}
    else:
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
        try:
            rid_i = int(rid)
        except ValueError:
            raise InputError(f"line {lineno}: bad robot id") from None
        goal = None if g == "-" else ids[g]
        robots.append(Robot(rid_i, ids[s], goal))
    robots.sort(key=lambda r: r.id)
    if [r.id for r in robots] != list(range(len(robots))):
        raise InputError("robot ids must be 0..k-1 without gaps")
    try:
        return Instance(Graph(n, edges), tuple(robots), budget)
    except InputError as exc:
        raise InputError(str(exc)) from None


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
    lines = _strip_lines(text)
    if not lines:
        raise InputError("empty schedule file")
    head = lines[0][1].split()
    if len(head) != 3 or head[0] != "sched":
        raise InputError("line 1: expected header 'sched <k> <t>'")
    try:
        k, t = int(head[1]), int(head[2])
    except ValueError:
        raise InputError("line 1: bad schedule header") from None
    if k != instance.k:
        raise InputError(f"schedule has {k} robots, instance has {instance.k}")
    routes: dict[int, Route] = {}
    for lineno, line in lines[1:]:
        if not line.startswith("robot "):
            raise InputError(f"line {lineno}: expected 'robot <id>: ...'")
        head_part, _, tail = line.partition(":")
        try:
            rid = int(head_part.split()[1])
            positions = tuple(int(tok) for tok in tail.split())
        except (ValueError, IndexError):
            raise InputError(f"line {lineno}: malformed route") from None
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
