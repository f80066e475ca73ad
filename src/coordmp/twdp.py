"""Width-parameterized exact solving over nice tree decompositions.

The solver views each decomposition node (a leaf, introduce, forget or
join) as a boundaried subgraph whose boundary is the node's bag.  A
schedule interacts with that boundary at *checkpoints*: steps in which some
robot moves onto or off a bag vertex.  The per-node DP table maps
*checkpoint sequences* (chained pairs of configuration tuples over the bag)
to the cheapest semi-schedule cost below the node realizing that boundary
interaction.

Symbols inside configuration tuples: a bag vertex id, ``UP`` (robot is
outside the node's subtree), or ``DOWN`` (robot is strictly below the
bag).  Consecutive pairs share their middle tuple, so a sequence is a
walk over configuration tuples whose every step is a genuine checkpoint.

Terminals (all starts and goals) are kept in every bag, which pins the
first tuple to the starts and the movers' coordinates of the last tuple
to the goals.  ``VISIT_CAP`` bounds how often a robot's coordinate changes
to one value within a sequence: in the leaf, to each bag vertex or to
``UP``; in an introduce node's lift, to the new vertex.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

from coordmp.core import Graph, InputError, Instance, LimitError
from coordmp.oracle import Limits, SearchResult, solve_exact

# The symbols are negative and vertex ids are not, so the sign tells them apart.
UP = -1
DOWN = -2

# Enumeration throttles.  VISIT_CAP bounds, per robot and sequence, the
# leaf's steps onto each bag vertex and its exits to UP, and a lift's
# entries to the new vertex.  The entry cap (LimitError beyond it) bounds
# the entries of every table, the leaf's enumeration nodes and each
# introduce node's lift nodes.
VISIT_CAP = 2
DEFAULT_ENTRY_CAP = 200_000


# ---------------------------------------------------------------------------
# nice tree decompositions


@dataclass(frozen=True)
class TDNode:
    """One decomposition node: kind is leaf|introduce|forget|join."""

    id: int
    kind: str
    bag: frozenset[int]
    children: tuple[int, ...] = ()
    vertex: int | None = None  # the introduced / forgotten vertex


@dataclass(frozen=True)
class NiceTreeDecomposition:
    """Rooted nice decomposition with terminals kept in every bag.

    ``base_width`` is the width of the min-degree decomposition of the bare
    graph; ``width`` counts the terminals added to every bag.
    """

    nodes: dict[int, TDNode]
    root: int
    width: int
    base_width: int
    gamma: dict[int, frozenset[int]]


def _min_degree_elimination(graph: Graph):
    """Greedy min-degree elimination order and per-vertex bags.

    Each step eliminates a vertex of least degree in the current fill graph,
    ties to the lowest id, and makes its neighbours a clique (Bodlaender &
    Koster, "Treewidth Computations I. Upper Bounds", 2010).  A vertex's bag
    is the vertex plus its fill neighbours when it is eliminated.
    Polynomial, exact on forests, an upper bound on the treewidth in
    general.
    """
    adj = [set(graph.neighbors(v)) for v in range(graph.n)]
    remaining = set(range(graph.n))
    order = []
    bags = {}
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u]), u))
        for u in adj[v]:
            adj[u] |= adj[v] - {u}
            adj[u].discard(v)
        remaining.remove(v)
        order.append(v)
        bags[v] = frozenset(adj[v] | {v})
    return order, bags


class _Builder:
    def __init__(self):
        self.nodes: dict[int, TDNode] = {}

    def add(self, kind, bag, children=(), vertex=None) -> int:
        nid = len(self.nodes)
        self.nodes[nid] = TDNode(nid, kind, frozenset(bag), tuple(children), vertex)
        return nid

    def chain_to(self, nid: int, target: frozenset[int]) -> int:
        """Forget then introduce, one vertex per node, toward the target bag."""
        bag = self.nodes[nid].bag
        for v in sorted(bag - target):
            bag = bag - {v}
            nid = self.add("forget", bag, (nid,), v)
        for v in sorted(target - bag):
            bag = bag | {v}
            nid = self.add("introduce", bag, (nid,), v)
        return nid


def build_nice_td(graph: Graph, terminals) -> NiceTreeDecomposition:
    """Nice tree decomposition with the terminal set kept in every bag.

    The underlying decomposition comes from a greedy min-degree elimination
    order, so it is built in polynomial time on any graph; its width
    (``base_width``) is an upper bound on the treewidth, not always the
    minimum.  Its bags are then augmented with the terminals, and leaf and
    root bags equal the terminal set.  The root tops the chain from the
    elimination root to the terminal bag, or joins one such chain per
    connected component; the empty graph's decomposition is a single leaf.
    """
    terminals = frozenset(terminals)
    for t in terminals:
        if not 0 <= t < graph.n:
            raise InputError(f"terminal {t} out of range")
    order, bags = _min_degree_elimination(graph)
    base_width = max((len(bag) for bag in bags.values()), default=0) - 1
    # A vertex's parent is the neighbour in its bag eliminated first after it.
    position = {v: i for i, v in enumerate(order)}
    children_of: dict[int, list[int]] = {v: [] for v in order}
    roots = []
    for v in order:
        if len(bags[v]) > 1:
            parent = min(bags[v] - {v}, key=lambda u: position[u])
            children_of[parent].append(v)
        else:
            roots.append(v)
    builder = _Builder()
    # A vertex comes after its children in the elimination order, so every
    # child subtree is built before its parent's bag (and no recursion).
    top_of: dict[int, int] = {}
    for v in order:
        bag = frozenset(bags[v] | terminals)
        kids = [builder.chain_to(top_of.pop(c), bag) for c in sorted(children_of[v])]
        if not kids:
            kids = [builder.chain_to(builder.add("leaf", terminals), bag)]
        nid = kids[0]
        for other in kids[1:]:
            nid = builder.add("join", bag, (nid, other))
        top_of[v] = nid

    tops = [builder.chain_to(top_of[r], terminals) for r in sorted(roots)]
    if not tops:
        tops = [builder.add("leaf", terminals)]
    root = tops[0]
    for other in tops[1:]:
        root = builder.add("join", terminals, (root, other))
    nodes = builder.nodes
    width = max(len(n.bag) for n in nodes.values()) - 1
    gamma = _compute_gamma(nodes)
    td = NiceTreeDecomposition(nodes, root, width, base_width, gamma)
    validate_td(td, graph, terminals)
    return td


def _compute_gamma(nodes):
    """Vertices in each node's subtree; children have lower ids."""
    gamma: dict[int, frozenset[int]] = {}
    for nid in sorted(nodes):
        node = nodes[nid]
        gamma[nid] = node.bag.union(*(gamma[c] for c in node.children))
    return gamma


def validate_td(td: NiceTreeDecomposition, graph: Graph, terminals) -> None:
    """Check all decomposition axioms; raises InputError naming the failure."""
    terminals = frozenset(terminals)
    nodes = td.nodes
    if td.root not in nodes:
        raise InputError("root node missing")
    # One walk from the root records the bag above every node it reaches.
    parent_bag: dict[int, frozenset[int]] = {}
    stack = [(td.root, frozenset())]
    while stack:
        nid, above = stack.pop()
        if nid in parent_bag:
            raise InputError(f"node {nid} reachable twice (not a tree)")
        parent_bag[nid] = above
        node = nodes[nid]
        for c in node.children:
            if c not in nodes:
                raise InputError(f"node {nid} links to unknown child {c}")
            stack.append((c, node.bag))
    if len(parent_bag) != len(nodes):
        raise InputError("decomposition graph is not a single rooted tree")
    holders: dict[int, list[int]] = {}
    for node in nodes.values():
        for v in node.bag:
            if not 0 <= v < graph.n:
                raise InputError(f"node {node.id}: bag vertex {v} out of range")
            holders.setdefault(v, []).append(node.id)
    if len(holders) != graph.n:
        missing = sorted(set(range(graph.n)) - set(holders))
        raise InputError(f"vertices {missing} appear in no bag")
    for u, v in graph.edges:
        if not any(v in nodes[nid].bag for nid in holders[u]):
            raise InputError(f"edge ({u}, {v}) appears in no bag")
    for v in range(graph.n):
        # The holders of v form one subtree iff exactly one of them is a top
        # holder, whose parent does not hold v.
        if sum(v not in parent_bag[nid] for nid in holders[v]) != 1:
            raise InputError(f"vertex {v} has a disconnected occurrence set")
    for node in nodes.values():
        kind = node.kind
        kids = [nodes[c] for c in node.children]
        if kind == "leaf":
            if kids:
                raise InputError(f"leaf {node.id} has children")
            if node.bag != terminals:
                raise InputError(f"leaf {node.id} bag must equal the terminal set")
        elif kind == "introduce":
            if len(kids) != 1 or node.vertex is None:
                raise InputError(f"introduce {node.id} malformed")
            if node.bag != kids[0].bag | {node.vertex} or node.vertex in kids[0].bag:
                raise InputError(f"introduce {node.id} does not add exactly one vertex")
        elif kind == "forget":
            if len(kids) != 1 or node.vertex is None:
                raise InputError(f"forget {node.id} malformed")
            if node.bag != kids[0].bag - {node.vertex} or node.vertex not in kids[0].bag:
                raise InputError(f"forget {node.id} does not drop exactly one vertex")
        elif kind == "join":
            if len(kids) != 2 or any(k.bag != node.bag for k in kids):
                raise InputError(f"join {node.id} needs two children with equal bags")
        else:
            raise InputError(f"node {node.id}: unknown kind {kind!r}")
    if nodes[td.root].bag != terminals:
        raise InputError("root bag must equal the terminal set")


# ---------------------------------------------------------------------------
# DP tables


@dataclass
class DPTable:
    """Finite checkpoint-sequence entries for one node, each at most ``rho``."""

    rho: int
    entries: dict = field(default_factory=dict)

    def put_min(self, seq, value: int) -> None:
        if value > self.rho:
            return
        cur = self.entries.get(seq)
        if cur is None or value < cur:
            self.entries[seq] = value


def _end_ok(tup, instance: Instance) -> bool:
    for i, r in enumerate(instance.robots):
        if r.goal is not None and tup[i] != r.goal:
            return False
    return True


def dp_leaf(
    node: TDNode,
    instance: Instance,
    budget: int,
    *,
    rho: int,
    exterior: frozenset[int],
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> DPTable:
    """Brute-force table for a leaf: its bag is the whole visible subgraph.

    Every sequence entry is realized by an explicit chain of parallel
    steps among bag vertices (plus vanish/reappear at the boundary), so
    the stored value simply counts the bag-internal moves of the chain.
    ``budget`` counts configuration tuples, so ``budget // 2`` chained
    pairs are explored.  ``exterior`` names the vertices with a neighbor
    outside the node's subtree: vanishing and reappearing happen only at
    bag vertices among them (a crossing must use a real edge).
    """
    bag = node.bag
    g = instance.graph
    if not instance.terminals <= bag:
        raise InputError("leaf bag must contain every robot start and goal")
    pairs_max = max(0, budget // 2)
    bag_sorted = sorted(bag)
    adj = {v: [u for u in g.neighbors(v) if u in bag] for v in bag_sorted}
    portals = bag & exterior
    portal_sorted = sorted(portals)
    start = tuple(r.start for r in instance.robots)
    table = DPTable(rho)
    count = 0
    # A coordinate's options in one step: wait, then step to UP (from a
    # portal) or onto a portal (from UP), then along each bag edge.
    moves = {UP: (UP, *portal_sorted)}
    for c in bag_sorted:
        moves[c] = (c, UP, *adj[c]) if c in portals else (c, *adj[c])

    def successors(cur):
        for nxt in product(*(moves[c] for c in cur)):
            if nxt == cur:
                continue
            occupied = [c for c in nxt if c != UP]
            if len(occupied) != len(set(occupied)):
                continue
            # Each move along a bag edge costs one; no two robots share one.
            edges = [
                (a, b) if a < b else (b, a)
                for a, b in zip(cur, nxt)
                if a != b and a != UP and b != UP
            ]
            if len(edges) == len(set(edges)):
                yield nxt, len(edges)

    def dfs(cur, chain, cost, visits):
        nonlocal count
        count += 1
        if count > entry_cap:
            raise LimitError("leaf checkpoint enumeration exceeded the entry cap")
        if _end_ok(cur, instance):
            table.put_min(tuple(chain), cost)
        if len(chain) >= pairs_max:
            return
        for nxt, step_cost in successors(cur):
            total = cost + step_cost
            if total > rho:
                continue
            # Count each robot's steps by the coordinate they lead to: the
            # keys are (robot, new coordinate).
            new_visits = visits
            for key in enumerate(nxt):
                if key[1] == cur[key[0]]:
                    continue
                cnt = visits.get(key, 0) + 1
                if cnt > VISIT_CAP:
                    break
                if new_visits is visits:
                    new_visits = dict(visits)
                new_visits[key] = cnt
            else:
                chain.append((cur, nxt))
                dfs(nxt, chain, total, new_visits)
                chain.pop()

    dfs(start, [], 0, {})
    return table


def _project_forget(seq, v):
    out = []
    for a, b in seq:
        pa = tuple(DOWN if c == v else c for c in a)
        pb = tuple(DOWN if c == v else c for c in b)
        if pa != pb:
            out.append((pa, pb))
    return tuple(out)


def dp_forget(node: TDNode, child_table: DPTable) -> DPTable:
    """Forget-node table: drop the forgotten vertex from the child's view.

    Each child entry projects to this node's alphabet by renaming the
    forgotten vertex to DOWN and deleting pairs that become changeless.

    The child table must be built with its node's true exterior, as
    ``solve_twdp`` builds every table; projecting it then gives good
    sequences, so none is re-checked.  Every table steps between a bag
    vertex and ``UP`` only at its exterior (the leaf, the introduce lift
    and the join filter on it, and a forget keeps its child's exterior
    minus the forgotten vertex).  A vertex is forgotten only once all its
    neighbours lie in the child's subtree, so it is not in the child's
    exterior and no child entry steps between it and ``UP``.  Renaming it
    to ``DOWN`` could break properties 2, 4 and 5 (numbered as in
    ``tests/_reference.py``) only through such a step.  It is no terminal,
    and the other properties read only bag vertices and the chaining,
    which dropping changeless pairs keeps.
    """
    v = node.vertex
    table = DPTable(child_table.rho)
    for seq, value in child_table.entries.items():
        table.put_min(_project_forget(seq, v), value)
    return table


def dp_introduce(
    node: TDNode,
    child_table: DPTable,
    *,
    instance: Instance,
    budget: int,
    exterior: frozenset[int],
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> DPTable:
    """Introduce-node table: weave visits of the new vertex into child entries.

    The new vertex is separated from everything strictly below the bag, so
    a robot can only reach it from a bag neighbor (a visible move, which
    adds one to the entry value) or from outside the subtree (free here,
    paid where that move becomes visible).  Robots parked on the new
    vertex ride existing checkpoints unchanged.  ``exterior`` names the
    vertices with a neighbor outside the node's subtree; the new vertex
    hosts arrivals from above only if it is one.

    Lifting a good entry gives good sequences, so none is re-checked.  The
    new vertex is no terminal (terminals are in every bag); the lift starts
    at the start tuple, where every child entry starts, and keeps every
    child coordinate that is a bag vertex (properties 1, 2, 4, numbered as
    in ``tests/_reference.py``), and chains pair by pair (3).  Only ``UP``
    coordinates turn into the new vertex and back (5).  At most one robot
    holds it: one enters, from outside or along an edge from a bag
    neighbour, only while it is empty, and leaves back outside or along an
    edge to the bag vertex the child's robot enters from outside (6, 7, 8).

    Each child pair left to lift adds one pair, so a branch whose chain
    plus those pairs exceeds ``budget // 2`` pairs is cut at once.
    """
    v = node.vertex
    bag = node.bag
    g = instance.graph
    k = instance.k
    rho = child_table.rho
    vn = frozenset(u for u in g.neighbors(v) if u in bag)
    v_portal = v in exterior
    pairs_max = max(0, budget // 2)
    table = DPTable(rho)
    count = 0
    starts = tuple(r.start for r in instance.robots)
    for seq, value in child_table.entries.items():
        def lift(idx, cur, at_v, chain, mu, visits):
            nonlocal count
            count += 1
            if count > entry_cap:
                raise LimitError("introduce lifting exceeded the entry cap")
            if len(chain) + len(seq) - idx > pairs_max or value + mu > rho:
                return
            if idx == len(seq):
                table.put_min(tuple(chain), value + mu)
            # Insert a visit event: a robot outside the subtree steps onto
            # the new vertex, or leaves it back outside.  Either move uses
            # an edge leaving the subtree, so the new vertex must have one.
            if v_portal and at_v is None:
                for i in range(k):
                    if cur[i] != UP or visits[i] >= VISIT_CAP:
                        continue
                    nxt = cur[:i] + (v,) + cur[i + 1 :]
                    chain.append((cur, nxt))
                    new_visits = list(visits)
                    new_visits[i] += 1
                    lift(idx, nxt, i, chain, mu, new_visits)
                    chain.pop()
            elif v_portal:
                i = at_v
                nxt = cur[:i] + (UP,) + cur[i + 1 :]
                chain.append((cur, nxt))
                lift(idx, nxt, None, chain, mu, visits)
                chain.pop()
            if idx == len(seq):
                return
            a, b = seq[idx]
            # Lift the original pair: robots interacting with the outside
            # may route through the new vertex instead.
            choice_sets = []
            for i in range(k):
                bi = b[i]
                opts = []
                if a[i] == UP and b[i] == UP:
                    opts.append((v, 0) if at_v == i else (UP, 0))
                elif a[i] == UP:
                    if at_v == i:
                        if bi in vn:
                            opts.append((bi, 1))
                    elif bi in exterior:
                        opts.append((bi, 0))
                elif b[i] == UP:
                    if a[i] in exterior:
                        opts.append((UP, 0))
                    if at_v is None and a[i] in vn and visits[i] < VISIT_CAP:
                        opts.append((v, 1))
                else:
                    opts.append((bi, 0))
                choice_sets.append(opts)
            # At most one robot holds the new vertex.
            for combo in product(*choice_sets):
                nxt, costs = zip(*combo)
                if nxt.count(v) > 1:
                    continue
                owner = nxt.index(v) if v in nxt else None
                new_visits = visits
                if owner is not None and at_v != owner:
                    new_visits = list(visits)
                    new_visits[owner] += 1
                chain.append((cur, nxt))
                lift(idx + 1, nxt, owner, chain, mu + sum(costs), new_visits)
                chain.pop()

        lift(0, starts, None, [], 0, [0] * k)
    return table


def _crosses_outside_non_portal(seq, k, exterior) -> bool:
    """True when some step moves between UP and a vertex with no edge out."""
    for a, b in seq:
        for j in range(k):
            if a[j] == UP and b[j] >= 0 and b[j] not in exterior:
                return True
            if b[j] == UP and a[j] >= 0 and a[j] not in exterior:
                return True
    return False


def _merge_coord(c1, c2):
    if c1 == c2:
        return None if c1 == DOWN else c1
    if c1 == DOWN and c2 == UP:
        return DOWN
    if c1 == UP and c2 == DOWN:
        return DOWN
    return None


def _bag_shape(seq):
    """The sequence's coordinates, flattened, with UP and DOWN read as UP.

    Two sequences merge only if their shapes are equal: ``_merge_coord``
    pairs a bag vertex only with itself, and a symbol only with a symbol.
    """
    return tuple(UP if c < 0 else c for pair in seq for tup in pair for c in tup)


def _zip_merge(s1, s2, k):
    merged = []
    for (a1, b1), (a2, b2) in zip(s1, s2):
        ma = []
        mb = []
        for j in range(k):
            x = _merge_coord(a1[j], a2[j])
            y = _merge_coord(b1[j], b2[j])
            if x is None or y is None:
                return None
            ma.append(x)
            mb.append(y)
        merged.append((tuple(ma), tuple(mb)))
    return tuple(merged)


def dp_join(
    node: TDNode,
    left_table: DPTable,
    right_table: DPTable,
    *,
    instance: Instance,
    exterior: frozenset[int],
) -> DPTable:
    """Join-node table: combine sibling entries checkpoint for checkpoint.

    Every checkpoint shows a bag-vertex change, so both children see every
    checkpoint of the combined view; sequences therefore merge pairwise,
    with DOWN meaning "in exactly one child's interior".  Moves between
    two bag vertices were paid in both children and are refunded once.
    ``exterior`` prunes merged sequences that cross between a bag vertex
    and the outside where no such crossing edge remains.

    Merging good entries gives good sequences, so none is re-checked: a
    merged bag coordinate equals both children's (properties 1-4, 6-8 of
    ``tests/_reference.py``), and ``_merge_coord`` never turns a child's
    step into one between ``UP`` and ``DOWN`` (5).

    Only entries of equal ``_bag_shape`` can merge, so the right table is
    indexed by shape and each left entry meets only its shape's entries.
    """
    k = instance.k
    table = DPTable(min(left_table.rho, right_table.rho))
    by_shape: dict[tuple, list] = {}
    for s2, h2 in right_table.entries.items():
        by_shape.setdefault(_bag_shape(s2), []).append((s2, h2))
    for s1, h1 in left_table.entries.items():
        for s2, h2 in by_shape.get(_bag_shape(s1), ()):
            merged = _zip_merge(s1, s2, k)
            if merged is None:
                continue
            if _crosses_outside_non_portal(merged, k, exterior):
                continue
            mu = 0
            for a, b in merged:
                for j in range(k):
                    if a[j] != b[j] and a[j] >= 0 and b[j] >= 0:
                        mu += 1
            table.put_min(merged, h1 + h2 - mu)
    return table


# ---------------------------------------------------------------------------
# the solver


def solve_twdp(
    instance: Instance,
    checkpoint_budget: int | None = None,
    *,
    limits: Limits | None = None,
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> SearchResult:
    """Energy optimum via the checkpoint-sequence dynamic program.

    The exact oracle runs first, under ``limits``, on the instance without
    its budget; that certificate bounds every table (``rho``).  When it is
    not ``optimal`` (``infeasible`` or ``state-limit``), or when its energy
    is 0 (every robot is home, its zero-step schedule fits any budget), it
    is returned as is and no table is built.  ``checkpoint_budget`` caps
    the tuple length of every per-node sequence.  Its default, and its
    ceiling, is ``2 * rho``: every checkpoint pair is a step in which some
    robot moves onto or off a bag vertex, so a schedule of energy ``rho``
    shows at most ``rho`` pairs, ``2 * rho`` tuples, at any node.
    The status is ``optimal`` (or ``budget-exceeded`` when that optimum is
    above the instance budget) only when the DP value equals the
    certificate; otherwise ``budget-limited`` admits that the DP missed
    it: an explicit budget below ``2 * rho`` or ``VISIT_CAP`` cut every
    sequence that realizes it.
    ``states_expanded`` is the certificate's.
    """
    if checkpoint_budget is not None and checkpoint_budget < 2:
        raise InputError("checkpoint budget must be at least 2")
    certificate = solve_exact(replace(instance, budget=None), limits)
    if certificate.status != "optimal" or certificate.energy == 0:
        return certificate
    rho = certificate.energy
    td = build_nice_td(instance.graph, instance.terminals)
    budget = 2 * rho if checkpoint_budget is None else min(checkpoint_budget, 2 * rho)
    exterior_of = {
        nid: frozenset(
            v
            for v in td.nodes[nid].bag
            if any(u not in td.gamma[nid] for u in instance.graph.neighbors(v))
        )
        for nid in td.nodes
    }
    # Children before parents, left subtree before right, without recursion:
    # the reverse of a pre-order that visits the right child first.
    preorder, stack = [], [td.root]
    while stack:
        nid = stack.pop()
        preorder.append(nid)
        stack.extend(td.nodes[nid].children)
    tables: dict[int, DPTable] = {}
    # Every leaf has the terminal set as its bag and as its whole subtree,
    # so every leaf has the same table; it is built once per solve.
    leaf_table: DPTable | None = None
    for nid in reversed(preorder):
        node = td.nodes[nid]
        kids = [tables.pop(c) for c in node.children]
        if node.kind == "leaf":
            if leaf_table is None:
                leaf_table = dp_leaf(
                    node,
                    instance,
                    budget,
                    rho=rho,
                    exterior=exterior_of[nid],
                    entry_cap=entry_cap,
                )
            table = leaf_table
        elif node.kind == "introduce":
            table = dp_introduce(
                node,
                kids[0],
                instance=instance,
                budget=budget,
                exterior=exterior_of[nid],
                entry_cap=entry_cap,
            )
        elif node.kind == "forget":
            table = dp_forget(node, kids[0])
        else:  # join
            table = dp_join(
                node, kids[0], kids[1], instance=instance, exterior=exterior_of[nid]
            )
        if len(table.entries) > entry_cap:
            raise LimitError(
                "checkpoint table exceeded the entry cap; lower the budget "
                "or raise entry_cap"
            )
        tables[nid] = table
    # The root's subtree is the whole graph, so its exterior is empty and no
    # root entry steps to or from UP.
    value = min(tables[td.root].entries.values(), default=None)
    states = certificate.states_expanded
    if value != rho:
        return SearchResult("budget-limited", value, None, states)
    if instance.budget is not None and value > instance.budget:
        return SearchResult("budget-exceeded", value, None, states)
    return SearchResult("optimal", value, None, states)
