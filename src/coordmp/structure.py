"""Structural graph analysis for coordinated-motion solvers.

This module detects *havens* (three connected subgraphs meeting pairwise in a
single center vertex, each large enough to shelter every robot), classifies
vertices by how far they are from such structure, and computes truncated
per-robot motion domains that stay small even near high-degree hubs.

All analysis is component-local: a vertex's classification depends only on
the connected component containing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .core import (
    Graph,
    InputError,
    Instance,
    connected_components,
    layers,
)

# Constants hidden inside the asymptotic bounds of the motion-domain
# construction: C1 scales the degree threshold, C2 the search depth.
C1 = 1
C2 = 2


class ClassificationError(RuntimeError):
    """A vertex fit no structural category.

    Every vertex of every graph is provably coverable, so reaching this is a
    correctness alarm in the classifier itself, never a property of the input.
    """


@dataclass(frozen=True)
class Haven:
    """A sheltered region around a center vertex ``center``.

    ``witnesses`` holds three connected vertex sets (C1, C2, C3) that
    pairwise intersect exactly in ``{center}``; the first two have at least
    ``k + 1`` vertices each and the third is ``{center, x}`` for the spare
    neighbor ``x``.  ``members`` is every vertex within distance ``k`` of the
    center inside the subgraph induced by ``{x} | C1 | C2``.
    """

    center: int
    witnesses: tuple[frozenset[int], frozenset[int], frozenset[int]]
    x: int
    members: frozenset[int]
    k: int


@dataclass(frozen=True)
class VertexTypeTag:
    """Classification of a vertex relative to nearby haven structure.

    ``kind`` is one of:

    - ``"nice"``: the vertex itself is a haven center (``haven`` set).
    - ``"type1"``: a nice vertex lies within distance ``3k`` (``witness``,
      ``distance`` set).
    - ``"type2"``: the vertex lies on a maximal degree-2 path both of whose
      attachment vertices are nice (``path``, ``endpoints`` set).
    - ``"type3"``: the vertex lies on a degree-2 path or in a pocket of at
      most ``8k`` vertices cut off by that path, with a nice vertex at the
      far attachment (``path``, ``pocket``, ``nice_end`` set).
    - ``"type4"``: the whole component is small or decomposes into one
      degree-2 path plus at most two pockets of at most ``8k`` vertices
      (``summary``, ``path``, ``pockets`` set).
    """

    kind: str
    haven: Haven | None = None
    witness: int | None = None
    distance: int | None = None
    path: tuple[int, ...] = ()
    endpoints: tuple[int, ...] = ()
    pocket: frozenset[int] | None = None
    nice_end: int | None = None
    summary: str = ""
    pockets: tuple[frozenset[int], ...] = ()


@dataclass(frozen=True)
class TwoPath:
    """A maximal path of degree-2 vertices.

    ``path`` lists the degree-2 vertices in path order.  ``attachments``
    holds the two boundary vertices of degree != 2 adjacent to the path ends
    (they may coincide); it is empty iff the component is a pure cycle of
    degree-2 vertices, in which case ``degenerate_cycle`` is True and
    ``path`` lists the full cycle in canonical rotation.
    """

    path: tuple[int, ...]
    attachments: tuple[int, ...]
    degenerate_cycle: bool = False


@dataclass(frozen=True)
class MotionDomain:
    """A truncated breadth-first vertex domain for one robot.

    ``applicable`` is False when the robot's start is not within ``lam`` of a
    nice vertex; in that case ``vertices`` falls back to the full vertex set.
    ``depth`` and ``degree_threshold`` record the bounds actually used:
    the search runs to depth ``C2 * (lam * k + k**4)`` and does not expand
    through vertices of degree >= ``C1 * k**4 + k + 1`` (except the start
    itself), but pads each such retained vertex with its
    ``C1 * k**4 + k + 1`` lowest-id neighbors.
    """

    robot: int
    vertices: frozenset[int]
    applicable: bool
    lam: int
    depth: int
    degree_threshold: int


def _check_vertex(graph: Graph, v: int) -> None:
    if not 0 <= v < graph.n:
        raise InputError(f"vertex {v} out of range")


def _check_k(k: int) -> None:
    if k < 1:
        raise InputError("k must be at least 1")


def _grow(graph: Graph, sources, blocked, limit: int | None = None) -> set[int]:
    """Vertices reachable from ``sources`` without entering ``blocked``.

    The walk stops as soon as ``limit`` vertices are found (never when
    ``limit`` is None), so a size test costs at most ``limit`` expansions.
    """
    seen = set(sources)
    stack = list(seen)
    while stack and (limit is None or len(seen) < limit):
        for w in graph.neighbors(stack.pop()):
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return seen


def _packing_refutes(graph: Graph, v: int, k: int) -> bool:
    """True when the components of G - v cannot feed a haven at ``v``.

    A haven splits the non-center vertices it uses into A = C1 - v (at
    least k), B = C2 - v (at least k) and X = {x} (at least 1).  A
    component of G - v holding exactly one neighbor of ``v`` is reached
    only through that neighbor, so it feeds at most one of A, B and X; a
    DP over the capped sums (a, b, x) tracks every such assignment.  A
    component holding two or more neighbors is counted as mass that may
    be split freely, which relaxes the test but keeps it sound.  On a tree
    every component holds one neighbor and the test is exact.
    """
    nbs = graph.neighbors(v)
    blocked = frozenset((v,))
    divisible = 0
    sums = {(0, 0, 0)}
    seen: set[int] = set()
    for u in nbs:
        if u in seen:
            continue
        comp = _grow(graph, (u,), blocked)
        seen |= comp
        size = len(comp)
        if sum(w in comp for w in nbs) > 1:
            divisible += size
            continue
        sums = {
            s
            for a, b, x in sums
            for s in ((min(a + size, k), b, x), (a, min(b + size, k), x), (a, b, 1))
        }
    return all((k - a) + (k - b) + (1 - x) > divisible for a, b, x in sums)


def _first_connected_set(graph: Graph, root: int, size: int, banned, viable):
    """The first connected ``size``-set through ``root`` avoiding ``banned``
    that ``viable`` accepts, in exclusion-set enumeration order; else None.

    The enumeration adds candidates in ascending order, and the branches
    that skip a candidate keep it excluded in all deeper extensions, so
    every set is reached exactly once.  ``viable(current, excluded)`` is
    asked at every node; it must hold for each prefix of an accepted set,
    so a rejected node's subtree holds no accepted set and is cut.  A
    sibling's exclusion set still comes from the full candidate list, so
    cutting a subtree never changes which set is found first.
    """

    def rec(current: frozenset, excluded: frozenset):
        if not viable(current, excluded):
            return None
        if len(current) == size:
            return current
        cands = sorted(
            {nb for u in current for nb in graph.neighbors(u)}
            - current
            - excluded
            - banned
        )
        for i, c in enumerate(cands):
            found = rec(current | {c}, excluded | frozenset(cands[:i]))
            if found is not None:
                return found
        return None

    return rec(frozenset((root,)), frozenset())


def _haven_members(graph: Graph, center: int, universe: frozenset[int], k: int) -> frozenset[int]:
    """Vertices within distance k of ``center`` inside ``universe``."""
    return frozenset(chain.from_iterable(layers(graph, (center,), k, universe)))


def _make_haven(graph: Graph, center: int, c1: frozenset, c2: frozenset, x: int, k: int) -> Haven:
    c3 = frozenset((center, x))
    universe = c1 | c2 | {x}
    members = _haven_members(graph, center, universe, k)
    return Haven(center=center, witnesses=(c1, c2, c3), x=x, members=members, k=k)


def is_nice(graph: Graph, v: int, k: int) -> Haven | None:
    """Return a witness Haven for ``v`` if one exists, else None.

    A vertex is *nice* when three connected subgraphs through it pairwise
    intersect in exactly the vertex itself, the first two having at least
    ``k + 1`` vertices and the third at least 2.  Vertices of degree >= 2k+1
    always qualify (star witnesses from the lowest-id neighbors).

    Otherwise the question is decided exactly:

    - A component-packing refutation (``_packing_refutes``) runs first and
      returns None when the components of G - v cannot feed the three sets.
      It is sound, and exact on trees.
    - Then connected (k+1)-sets C1 through ``v`` are enumerated in
      exclusion-set order; for each, connected (k+1)-sets C2 through ``v``
      avoiding C1 - v; then the lowest neighbor x of ``v`` outside both.
      A subtree of either enumeration is cut only by a necessary condition
      that holds for every set in it: C1 must leave some neighbor x outside
      it for which the vertices reachable from the partial set (avoiding
      the excluded candidates and x) and the vertices reachable from ``v``
      (avoiding the partial C1 and x) both number at least k + 1; C2 must
      leave some neighbor x outside C1 and itself for which the vertices
      reachable from the partial set (avoiding C1 - v, the excluded
      candidates and x) number at least k + 1.

    The returned witness is therefore the first (C1, C2, x) in enumeration
    order, the same one the unpruned enumeration returns.
    """
    _check_vertex(graph, v)
    _check_k(k)
    deg = graph.degree(v)
    if deg < 3:
        # Three subgraphs meeting pairwise only at v need three disjoint
        # neighbors.
        return None
    nbs = graph.neighbors(v)
    if deg >= 2 * k + 1:
        c1 = frozenset((v,) + nbs[:k])
        c2 = frozenset((v,) + nbs[k : 2 * k])
        return _make_haven(graph, v, c1, c2, nbs[2 * k], k)
    if _packing_refutes(graph, v, k):
        return None
    size = k + 1
    center = frozenset((v,))

    def c1_viable(current, excluded):
        rest = current - center
        return any(
            len(_grow(graph, current, excluded | {x}, size)) >= size
            and len(_grow(graph, center, rest | {x}, size)) >= size
            for x in nbs
            if x not in current
        )

    c1 = _first_connected_set(graph, v, size, frozenset(), c1_viable)
    if c1 is None:
        return None
    banned = c1 - center

    def c2_viable(current, excluded):
        blocked = excluded | banned
        return any(
            len(_grow(graph, current, blocked | {x}, size)) >= size
            for x in nbs
            if x not in c1 and x not in current
        )

    # c1_viable accepted c1 itself, so some (c2, x) completes it.
    c2 = _first_connected_set(graph, v, size, banned, c2_viable)
    x = next(x for x in nbs if x not in c1 and x not in c2)
    return _make_haven(graph, v, c1, c2, x, k)


def check_haven(graph: Graph, haven: Haven) -> None:
    """Raise InputError unless ``haven`` satisfies every structural invariant."""
    _check_vertex(graph, haven.center)
    c1, c2, c3 = haven.witnesses
    k = haven.k
    _check_k(k)
    if len(c1) < k + 1 or len(c2) < k + 1 or len(c3) < 2:
        raise InputError("haven witness sets too small")
    for name, cs in (("first", c1), ("second", c2), ("third", c3)):
        for u in cs:
            _check_vertex(graph, u)
        if haven.center not in cs:
            raise InputError(f"{name} witness set misses the center")
        if len(connected_components(graph, cs)) != 1:
            raise InputError(f"{name} witness set is not connected")
    center_only = frozenset((haven.center,))
    if c1 & c2 != center_only or c1 & c3 != center_only or c2 & c3 != center_only:
        raise InputError("witness sets must pairwise intersect exactly in the center")
    if haven.x not in c3 or haven.x == haven.center:
        raise InputError("spare vertex must be the non-center member of the third set")
    if not graph.has_edge(haven.center, haven.x):
        raise InputError("spare vertex must neighbor the center")
    expected = _haven_members(graph, haven.center, c1 | c2 | {haven.x}, k)
    if haven.members != expected:
        raise InputError("haven members disagree with distance-k reachability")


def nearest_nice(graph: Graph, v: int, k: int, radius: int, cache: dict):
    """``(distance, vertex)`` of the nearest nice vertex within ``radius`` of
    ``v``, in (distance, id) order; None when there is none.

    ``cache`` maps vertices to their ``is_nice`` result and is filled as the
    scan goes, so callers on the same (graph, k) may share it.
    """
    for d, layer in enumerate(layers(graph, (v,), radius)):
        for u in layer:
            if u not in cache:
                cache[u] = is_nice(graph, u, k)
            if cache[u] is not None:
                return d, u
    return None


def two_path_around(graph: Graph, v: int) -> TwoPath:
    """The maximal degree-2 path through ``v`` with its attachment vertices.

    Raises InputError when ``v`` does not have degree 2.  When the whole
    component is a cycle of degree-2 vertices the result is flagged
    ``degenerate_cycle`` with no attachments.
    """
    _check_vertex(graph, v)
    if graph.degree(v) != 2:
        raise InputError(f"vertex {v} has degree {graph.degree(v)}, not 2")

    def walk(first: int):
        chain = []
        prev, cur = v, first
        while graph.degree(cur) == 2 and cur != v:
            chain.append(cur)
            a, b = graph.neighbors(cur)
            prev, cur = cur, (b if a == prev else a)
        return chain, cur

    n1, n2 = graph.neighbors(v)
    left_chain, left_end = walk(n1)
    if left_end == v:
        # Walked all the way around: pure cycle. Canonical rotation starts at
        # the lowest vertex, heading toward its lower cycle neighbor.
        order = [v] + left_chain
        i = order.index(min(order))
        rot = order[i:] + order[:i]
        if len(rot) > 2 and rot[1] > rot[-1]:
            rot = [rot[0]] + rot[:0:-1]
        return TwoPath(path=tuple(rot), attachments=(), degenerate_cycle=True)
    right_chain, right_end = walk(n2)
    path = list(reversed(left_chain)) + [v] + right_chain
    atts = (left_end, right_end)
    if atts[0] > atts[1] or (atts[0] == atts[1] and path[0] > path[-1]):
        path.reverse()
        atts = (atts[1], atts[0])
    return TwoPath(path=tuple(path), attachments=atts, degenerate_cycle=False)


def classify_vertex(
    graph: Graph,
    v: int,
    k: int,
    nice_cache: dict | None = None,
) -> VertexTypeTag:
    """Assign ``v`` the least-index structural category it satisfies.

    Categories are checked in order nice, type1, type2, type3, type4 and are
    therefore mutually exclusive.  ``nice_cache`` may be shared across calls
    on the same (graph, k) to memoize per-vertex niceness.

    Raises ClassificationError when no category applies; this is an internal
    correctness alarm (the decomposition argument guarantees coverage).
    """
    _check_vertex(graph, v)
    _check_k(k)
    cache = nice_cache if nice_cache is not None else {}

    def nice(u: int) -> Haven | None:
        if u not in cache:
            cache[u] = is_nice(graph, u, k)
        return cache[u]

    # nice: v itself; type1: a nice vertex within distance 3k.
    near = nearest_nice(graph, v, k, 3 * k, cache)
    if near == (0, v):
        return VertexTypeTag(kind="nice", haven=cache[v])
    if near is not None:
        return VertexTypeTag(kind="type1", witness=near[1], distance=near[0])

    # type2: v on a degree-2 path with both attachments nice.
    if graph.degree(v) == 2:
        tp = two_path_around(graph, v)
        if not tp.degenerate_cycle:
            a1, a2 = tp.attachments
            if nice(a1) is not None and nice(a2) is not None:
                return VertexTypeTag(kind="type2", path=tp.path, endpoints=tp.attachments)

    # type3: v on a degree-2 path, or inside a pocket of <= 8k vertices cut
    # off by one, with a nice vertex at the far attachment.  All relevant
    # structure touches the ball of radius 8k + 1 around v.
    component = frozenset(chain.from_iterable(layers(graph, (v,))))
    ball = list(chain.from_iterable(layers(graph, (v,), 8 * k + 1)))

    def components_without(removed):
        rest = component.difference(removed)
        return [frozenset(c) for c in connected_components(graph, rest)]

    def two_paths(vertices):
        """Each maximal degree-2 path met in ``vertices`` once, in order of
        its first vertex met; pure cycles are skipped."""
        seen = set()
        for u in vertices:
            if graph.degree(u) == 2 and u not in seen:
                tp = two_path_around(graph, u)
                seen.update(tp.path)
                if not tp.degenerate_cycle:
                    yield tp

    candidates = []
    for tp in two_paths(ball):
        a1, a2 = tp.attachments
        if a1 == a2:
            continue
        comps = components_without(tp.path)
        for aj, ao in ((a1, a2), (a2, a1)):
            q = next(c for c in comps if aj in c)
            if len(q) <= 8 * k and ao not in q and nice(ao) is not None:
                if v in q or v in tp.path:
                    candidates.append((len(q), tuple(sorted(q)), tp.path, q, ao))
    for c in ball:
        if c == v or nice(c) is None:
            continue
        comps = components_without((c,))
        if len(comps) < 2:
            continue
        for q in comps:
            if v in q and len(q) <= 8 * k:
                candidates.append((len(q), tuple(sorted(q)), (), q, c))
    if candidates:
        candidates.sort(key=lambda cand: (cand[0], cand[1], cand[2]))
        _, _, path, pocket, nice_end = candidates[0]
        return VertexTypeTag(kind="type3", path=path, pocket=pocket, nice_end=nice_end)

    # type4: the component is globally simple.
    if len(component) <= 8 * k:
        return VertexTypeTag(
            kind="type4",
            summary="small-component",
            pockets=(component,),
        )
    if all(graph.degree(u) == 2 for u in component):
        # Pure cycle: peel the lowest vertex off as a one-vertex pocket so
        # the rest is a single degree-2 path.
        tp = two_path_around(graph, min(component))
        m = tp.path[0]
        return VertexTypeTag(
            kind="type4",
            summary="cycle",
            path=tp.path[1:],
            pockets=(frozenset((m,)),),
        )
    type4 = []
    for tp in two_paths(sorted(component)):
        comps = components_without(tp.path)
        if len(comps) <= 2 and all(len(c) <= 8 * k for c in comps):
            type4.append((-len(tp.path), tp.path, comps))
    if type4:
        type4.sort(key=lambda cand: (cand[0], cand[1]))
        _, path, comps = type4[0]
        pockets = tuple(sorted(comps, key=lambda c: tuple(sorted(c))))
        return VertexTypeTag(
            kind="type4",
            summary="two-path-with-pockets",
            path=path,
            pockets=pockets,
        )
    raise ClassificationError(
        f"vertex {v} fits no structural category (k={k}); "
        "this indicates a classifier defect, not an input problem"
    )


def compute_motion_domain(instance: Instance, robot: int, lam: int) -> MotionDomain:
    """Truncated breadth-first domain for the robot with id ``robot``.

    The search from the robot's start runs to depth ``C2 * (lam*k + k**4)``
    and never expands through a vertex of degree >= ``C1*k**4 + k + 1``
    (the start itself always expands so the domain is never a singleton by
    accident); each retained high-degree vertex is padded with its
    ``C1*k**4 + k + 1`` lowest-id neighbors.  When no nice vertex lies
    within ``lam`` of the start the result is flagged not applicable and
    falls back to the full vertex set.
    """
    if lam < 0:
        raise InputError("lam must be nonnegative")
    matches = [r for r in instance.robots if r.id == robot]
    if not matches:
        raise InputError(f"no robot with id {robot}")
    start = matches[0].start
    graph = instance.graph
    k = instance.k
    depth = C2 * (lam * k + k**4)
    threshold = C1 * k**4 + k + 1

    applicable = nearest_nice(graph, start, k, lam, {}) is not None
    if applicable:
        vertices = {start}
        frontier = [start]
        d = 0
        while frontier and d < depth:
            d += 1
            nxt = []
            for u in frontier:
                if u != start and graph.degree(u) >= threshold:
                    continue
                for nb in graph.neighbors(u):
                    if nb not in vertices:
                        vertices.add(nb)
                        nxt.append(nb)
            frontier = nxt
        hubs = [u for u in vertices if graph.degree(u) >= threshold]
        vertices.update(*(graph.neighbors(u)[:threshold] for u in hubs))
    else:
        vertices = range(graph.n)
    return MotionDomain(
        robot=robot,
        vertices=frozenset(vertices),
        applicable=applicable,
        lam=lam,
        depth=depth,
        degree_threshold=threshold,
    )
