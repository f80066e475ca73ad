"""Reconfiguration of robots inside a haven.

``swap`` moves any robot subset inside a haven from one placement to any
other using O(k^3) individual moves, all confined to the haven's members.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Graph,
    InputError,
    Instance,
    LimitError,
    MoveLog,
    MoveStep,
    Robot,
    bfs_walk,
    schedule_steps,
)
from .oracle import Limits, solve_restricted
from .structure import Haven, check_haven


def _check_placement(haven: Haven, placement: dict[int, int]) -> None:
    """InputError unless at most k robots sit on distinct haven members."""
    seen = set()
    for robot, vertex in placement.items():
        if vertex not in haven.members:
            raise InputError(f"robot {robot} placed at {vertex}, outside the haven")
        if vertex in seen:
            raise InputError("placement is not injective")
        seen.add(vertex)
    if len(placement) > haven.k:
        raise InputError(
            f"{len(placement)} robots exceed the haven capacity k={haven.k}"
        )


@dataclass
class _Tree:
    """A BFS tree over one witness set, rooted at the haven center."""

    root: int
    parent: dict[int, int | None]
    depth: dict[int, int]
    vertices: frozenset[int]

    def root_path(self, u: int) -> list[int]:
        """Vertices from u up to (and including) the root."""
        path = [u]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path


def _bfs_tree(graph: Graph, root: int, vertices: frozenset[int]) -> _Tree:
    parent, depth = {}, {}
    for u, v in bfs_walk(graph, (root,), set(range(graph.n)).difference(vertices)):
        parent[v] = u
        depth[v] = 0 if u is None else depth[u] + 1
    return _Tree(root=root, parent=parent, depth=depth, vertices=vertices)


def _cascade(state: MoveLog, tree: _Tree, target: int) -> None:
    """One parallel step shifting every robot on the root->target path one
    edge deeper, filling ``target`` and freeing the root."""
    path = tree.root_path(target)[::-1]  # root ... target
    moves = []
    for u, v in zip(path, path[1:]):
        moves.append((state.occ[u], u, v))
    moves.reverse()  # leader (deepest) first, for readability only
    state.emit(moves)


def _absorb(state: MoveLog, tree: _Tree, blocked: set[int]) -> bool:
    """Push the robot at the tree root one cascade deeper into the tree.

    Targets the shallowest (then lowest-id) free vertex whose root path
    avoids ``blocked`` entirely; minimality makes that path fully occupied,
    so a single cascade realizes the push.  Returns False when no admissible
    target exists (caller falls back to exact search).
    """
    if tree.root not in state.occ:
        raise RuntimeError("internal error: absorb called with a free root")
    best = None
    for v in tree.vertices:
        if v == tree.root or v in state.occ or v in blocked:
            continue
        path = tree.root_path(v)
        if any(p in blocked for p in path):
            continue
        key = (tree.depth[v], v)
        if best is None or key < best:
            best = key
    if best is None:
        return False
    _cascade(state, tree, best[1])
    return True


def swap(
    graph: Graph,
    haven: Haven,
    start: dict[int, int],
    target: dict[int, int],
    limits: Limits | None = None,
) -> list[MoveStep]:
    """Move steps taking the placement ``start`` to ``target`` in the haven.

    A placement maps robot ids to distinct haven members, at most k of
    them; both must place the same robots (InputError otherwise).

    Returns a list of time steps, each a tuple of (robot, from-vertex,
    to-vertex) moves that happen simultaneously (cascades are
    follow-the-leader chains).  Every visited vertex is a haven member and
    the total number of moves is O(k^3).

    Three phases: (1) evacuate every robot into the tree on the first
    witness set, (2) deliver robots destined for the second witness set,
    deepest destination first, routing through the center and its spare
    neighbor, (3) deliver robots destined inside the first witness set, then
    place center/spare-destined robots.  Placements the incremental phases
    cannot finish (delivered robots walling off a path) are completed by an
    exact minimum-move search on the haven's configuration graph, under
    ``limits`` (``Limits()`` when None); LimitError when it hits
    the state cap.
    """
    check_haven(graph, haven)
    _check_placement(haven, start)
    _check_placement(haven, target)
    if set(start) != set(target):
        raise InputError("start and target place different robot sets")
    if start == target:
        return []

    c1, c2, _ = haven.witnesses
    w = haven.center
    x = haven.x
    t1 = _bfs_tree(graph, w, c1)
    t2 = _bfs_tree(graph, w, c2)
    state = MoveLog(start)
    robot_ids = sorted(target)

    def fallback() -> list[MoveStep]:
        # Minimum-energy steps from here to target, confined to the haven.
        robots = tuple(Robot(r, state.pos[r], target[r]) for r in robot_ids)
        domains = [haven.members] * len(robots)
        result = solve_restricted(Instance(graph, robots), domains, limits)
        if result.status != "optimal":
            raise LimitError(f"haven reconfiguration fallback: {result.status}")
        return state.steps + schedule_steps(result.schedule, robots)

    # Phase 1: evacuate everything into the first tree.
    outside = sorted(r for r, v in state.pos.items() if v not in c1)
    outside.sort(
        key=lambda r: (0, 0, r)
        if state.pos[r] == x
        else (1, t2.depth[state.pos[r]], r)
    )
    # With nothing blocked an absorb always succeeds: the first tree holds at
    # least k + 1 vertices and its root holds one of at most k robots.
    for robot in outside:
        if w in state.occ:
            _absorb(state, t1, set())
        u = state.pos[robot]
        state.walk(robot, [x, w] if u == x else t2.root_path(u))
    if w in state.occ:
        _absorb(state, t1, set())

    # Phases 2 and 3 share one episode shape: clear the blockers off the
    # mover's exit path and the destination's root path, parking them in the
    # second tree; park the mover at the spare vertex while the parked
    # robots return; descend to the destination.
    delivered1: set[int] = set()
    delivered2: set[int] = set()

    def episode(robot: int, dest: int, dest_tree: _Tree) -> bool:
        p = state.pos[robot]  # movers always start episodes in the first tree
        clear_vertices = set(t1.root_path(p)[1:-1])
        clear_vertices |= set(dest_tree.root_path(dest)[:-1])
        clear_vertices.discard(p)
        delivered_all = delivered1 | delivered2
        if any(v in delivered_all for v in clear_vertices if v in state.occ):
            return False
        blockers = [
            state.occ[v]
            for v in clear_vertices
            if v in state.occ and state.occ[v] != robot
        ]
        if not blockers:
            state.walk(robot, t1.root_path(p))
            state.walk(robot, dest_tree.root_path(dest)[::-1])
            return True
        both = blockers + [robot]
        both.sort(key=lambda r: (t1.depth[state.pos[r]], r))
        temps = []
        for b in both:
            q = state.pos[b]
            state.walk(b, t1.root_path(q))
            if b == robot:
                state.walk(b, [w, x])
            else:
                if not _absorb(state, t2, set(delivered2)):
                    return False
                temps.append(b)
        temps.sort(key=lambda r: (t2.depth[state.pos[r]], r))
        restore_blocked = set(delivered1)
        if dest in t1.vertices:
            # Returning helpers must not re-block the mover's descent.
            restore_blocked.update(t1.root_path(dest)[:-1])
        for b in temps:
            state.walk(b, t2.root_path(state.pos[b]))
            if not _absorb(state, t1, restore_blocked):
                return False
        state.walk(robot, [x, w])
        state.walk(robot, dest_tree.root_path(dest)[::-1])
        return True

    # Phase 2 delivers the second-tree destinations, then phase 3 the
    # first-tree ones; each deepest first.
    for tree, delivered in ((t2, delivered2), (t1, delivered1)):
        movers = [r for r in robot_ids if target[r] != w and target[r] in tree.vertices]
        movers.sort(key=lambda r: (-tree.depth[target[r]], target[r]))
        for robot in movers:
            if not episode(robot, target[robot], tree):
                return fallback()
            delivered.add(target[robot])

    # Endgame: robots destined for the center or the spare vertex.  The
    # incremental phases leave them in the first tree; the exact search
    # finishes (and is also the safety net above).
    if any(target[r] in (w, x) for r in robot_ids):
        return fallback()
    return state.steps
