"""Gadget generator reducing multicolored clique finding to motion planning.

Given a κ-partite graph, the reduction builds a planning instance whose
energy budget can be met exactly when the graph contains a clique with one
vertex per part: each edge becomes a long subdivided corridor, every
original vertex hosts a blocking robot that must return home, and one
courier robot per part pair must cross from a source hub attached to the
first part to a sink hub attached to the second.  Meeting the budget
forces the couriers through a single vertex per part, and those vertices
must be pairwise adjacent.
"""
from __future__ import annotations

from dataclasses import dataclass

from coordmp.core import (
    Graph,
    InputError,
    Instance,
    MoveLog,
    Robot,
    Schedule,
    read_int,
    read_lines,
    steps_to_schedule,
)


@dataclass(frozen=True)
class MulticoloredGraph:
    """A κ-partite graph: disjoint nonempty parts and cross-part edges.

    Vertex labels are arbitrary strings; edges are stored canonically with
    the lower-part endpoint first.
    """

    parts: tuple[tuple[str, ...], ...]
    edges: frozenset[tuple[str, str]]

    def __init__(self, parts, edges=()):
        norm_parts = []
        seen: dict[str, int] = {}
        for idx, part in enumerate(parts):
            labels = tuple(str(v) for v in part)
            if not labels:
                raise InputError(f"part {idx + 1} is empty")
            for lab in labels:
                if seen.get(lab) == idx:
                    raise InputError(f"vertex {lab!r} repeats in part {idx + 1}")
                if lab in seen:
                    raise InputError(f"vertex {lab!r} appears in two parts")
                seen[lab] = idx
            norm_parts.append(labels)
        if not norm_parts:
            raise InputError("at least one part is required")
        norm_edges = set()
        for u, v in edges:
            u, v = str(u), str(v)
            if u not in seen or v not in seen:
                raise InputError(f"edge ({u}, {v}) uses an unknown vertex")
            pu, pv = seen[u], seen[v]
            if pu == pv:
                raise InputError(f"edge ({u}, {v}) lies inside part {pu + 1}")
            if pu > pv:
                u, v = v, u
            norm_edges.add((u, v))
        object.__setattr__(self, "parts", tuple(norm_parts))
        object.__setattr__(self, "edges", frozenset(norm_edges))

    @property
    def kappa(self) -> int:
        return len(self.parts)

    def part_of(self, label: str) -> int:
        for idx, part in enumerate(self.parts):
            if label in part:
                return idx
        raise InputError(f"unknown vertex {label!r}")


def parse_mcc(text: str) -> MulticoloredGraph:
    """Parse the mcc text format (header, part lines, edge lines) by core's
    line and integer rules."""
    lines = read_lines(text)
    head_line, head = lines[0] if lines else (1, [])
    if head != ["mcc", "1"]:
        raise InputError(
            f"line {head_line}: multicolored-graph file must start with 'mcc 1'"
        )
    parts: dict[int, list[str]] = {}
    edges = []
    for lineno, tokens in lines[1:]:
        ln = " ".join(tokens)
        if tokens[0] == "part":
            idx = read_int(tokens[1]) if len(tokens) >= 3 else None
            if idx is None:
                raise InputError(f"line {lineno}: malformed part line: {ln!r}")
            if idx in parts:
                raise InputError(f"line {lineno}: duplicate part {idx}")
            parts[idx] = tokens[2:]
        elif tokens[0] == "edge":
            if len(tokens) != 3:
                raise InputError(f"line {lineno}: malformed edge line: {ln!r}")
            edges.append((tokens[1], tokens[2]))
        else:
            raise InputError(f"line {lineno}: unknown line kind: {ln!r}")
    if sorted(parts) != list(range(1, len(parts) + 1)):
        raise InputError("part indices must be 1..κ without gaps")
    ordered = [tuple(parts[i]) for i in sorted(parts)]
    return MulticoloredGraph(ordered, edges)


def render_mcc(mcg: MulticoloredGraph) -> str:
    lines = ["mcc 1"]
    for idx, part in enumerate(mcg.parts, start=1):
        lines.append(f"part {idx} " + " ".join(part))
    for u, v in sorted(mcg.edges):
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Reduction:
    """A constructed planning instance plus its audit name map.

    ``names`` maps every gadget vertex name to its graph id: original
    labels verbatim, ``sub:<u>-<v>:<i>`` for the i-th subdivision vertex
    of edge (u, v) counted from u, ``pend:<v>`` for pendants, and
    ``s:<i>:<j>`` / ``t:<i>:<j>`` for the courier hubs of part pair (i, j).
    """

    instance: Instance
    names: dict[str, int]
    kappa: int
    subdivision: int


def _pairs(kappa: int):
    return [(i, j) for i in range(1, kappa + 1) for j in range(i + 1, kappa + 1)]


def reduce_mcc(mcg: MulticoloredGraph) -> Reduction:
    """Build the planning instance whose budget certifies a κ-clique.

    Every original vertex carries a blocking robot with start = goal; one
    courier robot per part pair runs from its source hub to its sink hub.
    Each edge becomes a corridor of ``d = κ³`` subdivision vertices; at
    this length the budget ``2κ + C(κ,2)·(d+3)`` can be met if and only if
    the graph has a clique with one vertex per part.  Raises InputError
    when a part label equals a gadget vertex name (see ``Reduction``).
    """
    kappa = mcg.kappa
    d = kappa**3
    names: dict[str, int] = {}
    labels = sum(len(part) for part in mcg.parts)

    def add(name: str) -> int:
        if name in names:
            raise InputError(
                f"part label {name!r} equals a gadget vertex name"
                if names[name] < labels
                else f"two gadget vertices are named {name!r}"
            )
        names[name] = len(names)
        return names[name]

    for part in mcg.parts:
        for v in part:
            add(v)
    edges_g: list[tuple[int, int]] = []
    for u, v in sorted(mcg.edges):
        prev = names[u]
        for i in range(1, d + 1):
            nid = add(f"sub:{u}-{v}:{i}")
            edges_g.append((prev, nid))
            prev = nid
        edges_g.append((prev, names[v]))
    for part in mcg.parts:
        for v in part:
            pid = add(f"pend:{v}")
            edges_g.append((names[v], pid))
    for i, j in _pairs(kappa):
        sid = add(f"s:{i}:{j}")
        edges_g.extend((sid, names[v]) for v in mcg.parts[i - 1])
        tid = add(f"t:{i}:{j}")
        edges_g.extend((tid, names[v]) for v in mcg.parts[j - 1])
    graph = Graph(len(names), edges_g)
    robots = []
    for part in mcg.parts:
        for v in part:
            robots.append(Robot(len(robots), names[v], names[v]))
    for i, j in _pairs(kappa):
        robots.append(Robot(len(robots), names[f"s:{i}:{j}"], names[f"t:{i}:{j}"]))
    budget = 2 * kappa + len(_pairs(kappa)) * (d + 3)
    instance = Instance(graph, tuple(robots), budget=budget)
    return Reduction(instance, names, kappa, d)


def witness_schedule(mcg: MulticoloredGraph, clique) -> Schedule:
    """Budget-exact schedule from a multicolored clique, fully serialized.

    Phase one parks each clique vertex's blocking robot on its pendant;
    phase two walks every courier through its pair's corridor; phase three
    returns the parked blockers.  Raises InputError when the input is not
    one vertex per part or misses a required edge (named in the message).
    """
    kappa = mcg.kappa
    chosen: dict[int, str] = {}
    for v in clique:
        v = str(v)
        idx = mcg.part_of(v)
        if idx in chosen:
            raise InputError(f"two clique vertices in part {idx + 1}")
        chosen[idx] = v
    if len(chosen) != kappa:
        raise InputError(f"clique must pick one vertex from each of {kappa} parts")
    w = [chosen[i] for i in range(kappa)]
    for i, j in _pairs(kappa):
        u, v = w[i - 1], w[j - 1]
        if (u, v) not in mcg.edges:
            raise InputError(f"clique is missing edge {u}-{v}")
    red = reduce_mcc(mcg)
    names, d = red.names, red.subdivision
    robots = red.instance.robots
    log = MoveLog({r.id: r.start for r in robots})
    for v in w:
        log.walk(log.occ[names[v]], [names[v], names[f"pend:{v}"]])
    for i, j in _pairs(kappa):
        u, v = w[i - 1], w[j - 1]
        hub = names[f"s:{i}:{j}"]
        path = [hub, names[u]]
        path.extend(names[f"sub:{u}-{v}:{x}"] for x in range(1, d + 1))
        path.extend((names[v], names[f"t:{i}:{j}"]))
        log.walk(log.occ[hub], path)
    for v in w:
        log.walk(log.occ[names[f"pend:{v}"]], [names[f"pend:{v}"], names[v]])
    return steps_to_schedule(robots, log.steps)
