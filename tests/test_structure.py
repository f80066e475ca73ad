"""Structural-analysis tests: havens, vertex types, motion domains."""
from __future__ import annotations

import dataclasses
import random

import pytest

from coordmp.core import Graph, InputError, Instance, Robot
from coordmp.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected,
    random_tree,
    star_graph,
)
from coordmp.structure import (
    Haven,
    _packing_refutes,
    check_haven,
    classify_vertex,
    compute_motion_domain,
    is_nice,
    two_path_around,
)

from _reference import (
    connected_subsets,
    ordered_is_nice,
    random_connected_graph,
    ref_is_nice,
)


# ---------------------------------------------------------------------------
# is_nice / check_haven / find_all_nice


def test_star_center_nice_k1_frozen():
    g = star_graph(4)
    haven = is_nice(g, 0, 1)
    assert haven is not None
    assert haven.center == 0
    assert haven.witnesses == (
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({0, 3}),
    )
    assert haven.x == 3
    assert haven.members == frozenset({0, 1, 2, 3})
    check_haven(g, haven)


def test_degree_at_most_two_never_nice():
    for n in range(2, 9):
        for g in (path_graph(n), cycle_graph(max(n, 3))):
            for v in range(g.n):
                for k in (1, 2, 3):
                    assert is_nice(g, v, k) is None


def test_degree3_on_long_cycle_with_pendant_nice_k2():
    # Cycle of length 2k+2 = 6 through vertex 0 plus a pendant neighbor:
    # the two cycle arcs and the pendant edge witness niceness.
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6)])
    haven = is_nice(g, 0, 2)
    assert haven is not None
    check_haven(g, haven)
    c1, c2, c3 = haven.witnesses
    assert len(c1) == 3 and len(c2) == 3 and len(c3) == 2
    # A 4-cycle has only three non-center vertices: too few for two
    # disjoint arcs of k=2 extra vertices each.
    g_short = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    assert is_nice(g_short, 0, 2) is None


def test_is_nice_deterministic():
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6)])
    assert is_nice(g, 0, 2) == is_nice(g, 0, 2)


def test_is_nice_matches_powerset_reference():
    rng = random.Random(2024)
    for _ in range(18):
        n = rng.randrange(4, 8)
        g = random_connected_graph(rng, n)
        subsets = connected_subsets(g)
        k = rng.randrange(1, 4)
        for v in range(n):
            got = is_nice(g, v, k)
            expect = ref_is_nice(g, v, k, subsets)
            assert (got is not None) == expect, (n, k, v, sorted(g.edges))
            if got is not None:
                check_haven(g, got)


def test_is_nice_returns_the_ordered_enumerations_witness():
    # The pruned search must find the very witness the unpruned enumeration
    # finds first, not just agree on existence: approx's havens, energies
    # and tie-breaks all follow from it.  The packing refutation must never
    # refute a nice vertex.
    rng = random.Random(8)
    graphs = [grid_graph(w, h) for w in range(2, 8) for h in range(w, 8)]
    graphs += [
        random_connected(rng.randrange(5, 25), rng, rng.choice((0.1, 0.2, 0.3)))
        for _ in range(50)
    ]
    graphs += [random_tree(rng.randrange(5, 41), rng) for _ in range(40)]
    triples = 0
    for g in graphs:
        for k in range(1, 6):
            for v in range(g.n):
                got = is_nice(g, v, k)
                assert got == ordered_is_nice(g, v, k), (sorted(g.edges), v, k)
                if got is not None:
                    check_haven(g, got)
                    assert not _packing_refutes(g, v, k), (sorted(g.edges), v, k)
                triples += 1
    assert triples >= 5000


def test_packing_refutation_exact_on_trees():
    rng = random.Random(9)
    for _ in range(40):
        g = random_tree(rng.randrange(2, 61), rng)
        for k in range(2, 6):
            for v in range(g.n):
                refuted = _packing_refutes(g, v, k)
                assert refuted == (ordered_is_nice(g, v, k) is None), (sorted(g.edges), v, k)


def _witnesses(*sets):
    return tuple(frozenset(s) for s in sets)


# Three legs of length two around vertex 0.
SPIDER = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
# The k = 1 haven at the center of star_graph(4) and of SPIDER.
CENTER_HAVEN = Haven(0, _witnesses({0, 1}, {0, 2}, {0, 3}), 3, frozenset({0, 1, 2, 3}), 1)


@pytest.mark.parametrize(
    "graph, changes, message",
    [
        (star_graph(4), dict(witnesses=_witnesses({0}, {0, 2}, {0, 3})),
         "haven witness sets too small"),
        (star_graph(4), dict(witnesses=_witnesses({1, 2}, {0, 2}, {0, 3})),
         "first witness set misses the center"),
        (SPIDER, dict(witnesses=_witnesses({0, 1}, {0, 5}, {0, 3})),
         "second witness set is not connected"),
        (star_graph(4), dict(witnesses=_witnesses({0, 1, 2}, {0, 2}, {0, 3})),
         "witness sets must pairwise intersect exactly in the center"),
        (star_graph(4), dict(x=1),
         "spare vertex must be the non-center member of the third set"),
        (SPIDER, dict(witnesses=_witnesses({0, 1}, {0, 2}, {0, 3, 6}), x=6),
         "spare vertex must neighbor the center"),
        (star_graph(4), dict(members=frozenset({0, 1, 2})),
         "haven members disagree with distance-k reachability"),
    ],
    ids=["too-small", "misses-center", "not-connected", "overlap", "spare-outside",
         "spare-not-adjacent", "members"],
)
def test_check_haven_reports_each_violation(graph, changes, message):
    assert is_nice(star_graph(4), 0, 1) == CENTER_HAVEN
    check_haven(graph, CENTER_HAVEN)
    with pytest.raises(InputError) as exc:
        check_haven(graph, dataclasses.replace(CENTER_HAVEN, **changes))
    assert str(exc.value) == message


def test_is_nice_bad_arguments():
    with pytest.raises(InputError, match="^vertex 4 out of range$"):
        is_nice(star_graph(4), 4, 1)
    with pytest.raises(InputError, match="^k must be at least 1$"):
        is_nice(star_graph(4), 0, 0)


def nice_vertices(graph, k):
    """Each nice vertex mapped to its witness haven."""
    havens = {v: is_nice(graph, v, k) for v in range(graph.n)}
    return {v: h for v, h in havens.items() if h is not None}


def test_find_all_nice_path_empty_star_center_only():
    assert nice_vertices(path_graph(6), 1) == {}
    star = nice_vertices(star_graph(4), 1)
    assert sorted(star) == [0]
    check_haven(star_graph(4), star[0])


def test_find_all_nice_disjoint_union_is_componentwise():
    # Star on {0..3} plus a separate path on {4..7}.
    g = Graph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7)])
    assert sorted(nice_vertices(g, 1)) == [0]


# ---------------------------------------------------------------------------
# two_path_around


def test_two_path_interior_of_p5():
    g = path_graph(5)
    for v in (1, 2, 3):
        tp = two_path_around(g, v)
        assert tp.path == (1, 2, 3)
        assert tp.attachments == (0, 4)


def test_two_path_pure_cycle_degenerate():
    tp = two_path_around(cycle_graph(5), 3)
    assert tp.attachments == ()
    assert tp.path == (0, 1, 2, 3, 4)


def test_two_path_wrong_degree_rejected():
    with pytest.raises(InputError):
        two_path_around(star_graph(4), 0)
    with pytest.raises(InputError):
        two_path_around(path_graph(4), 0)


def test_two_path_orientation_canonical():
    # Corridor 1-2 between attachments 3 (degree 3) and 4 (degree 1):
    # path starts at the end adjacent to the smaller attachment.
    g = Graph(7, [(3, 1), (1, 2), (2, 4), (3, 5), (3, 6)])
    tp = two_path_around(g, 2)
    assert tp.attachments == (3, 4)
    assert tp.path == (1, 2)


def test_two_path_loop_to_single_attachment():
    # Triangle 0-1-2 with pendant 3 at 0: the run 1-2 attaches to 0 twice.
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    tp = two_path_around(g, 1)
    assert tp.attachments == (0, 0)
    assert tp.path == (1, 2)


# ---------------------------------------------------------------------------
# classify_vertex


def test_classify_nice_vertex():
    tag = classify_vertex(star_graph(4), 0, 1)
    assert tag.kind == "nice"
    assert tag.haven is not None and tag.haven.center == 0


def test_classify_adjacent_to_nice_is_type1():
    tag = classify_vertex(star_graph(4), 1, 1)
    assert tag.kind == "type1"
    assert tag.witness == 0
    assert tag.distance == 1


def test_classify_short_corridor_prefers_type1_over_type2():
    # Stars at 0 and 4 joined by corridor 7-8; corridor vertices are within
    # 3k of a nice vertex, so the earlier category wins.
    g = Graph(
        9,
        [(0, 1), (0, 2), (0, 7), (7, 8), (8, 4), (4, 5), (4, 6)],
    )
    tag = classify_vertex(g, 7, 1)
    assert tag.kind == "type1"
    assert tag.witness == 0 and tag.distance == 1


def test_classify_long_corridor_midpoint_is_type2():
    # Stars at 0 and 4 joined by the corridor 7-8-...-13 (7 interior
    # vertices): the midpoint is farther than 3k from both nice ends.
    edges = [(0, 1), (0, 2), (4, 5), (4, 6), (0, 7), (13, 4)]
    edges += [(i, i + 1) for i in range(7, 13)]
    g = Graph(14, edges)
    tag = classify_vertex(g, 10, 1)
    assert tag.kind == "type2"
    assert tag.path == (7, 8, 9, 10, 11, 12, 13)
    assert tag.endpoints == (0, 4)


def test_classify_pocket_behind_long_corridor_is_type3():
    # k=2: star K_{1,5} at 0 is nice; corridor 6..13 leads to a triangle
    # 14-15-16 whose junction 14 is not nice (degree 3 < 2k+1 and no spare
    # neighbor survives any witness split).  Triangle vertices sit beyond
    # 3k of the star but in a pocket of <= 8k vertices behind the corridor.
    edges = [(0, i) for i in range(1, 6)]
    edges += [(0, 6)] + [(i, i + 1) for i in range(6, 13)] + [(13, 14)]
    edges += [(14, 15), (15, 16), (16, 14)]
    g = Graph(17, edges)
    assert is_nice(g, 14, 2) is None
    for v in (15, 16):
        tag = classify_vertex(g, v, 2)
        assert tag.kind == "type3", v
        assert tag.pocket == frozenset({14, 15, 16})
        assert tag.nice_end == 0
        assert tag.path == tuple(range(6, 14))
    # A corridor vertex beyond 3k of the star is type3 via the same pocket.
    tag = classify_vertex(g, 13, 2)
    assert tag.kind == "type3"
    assert tag.pocket == frozenset({14, 15, 16})
    assert tag.path == tuple(range(6, 14))


def test_classify_long_path_interior_is_type4():
    g = path_graph(30)
    tag = classify_vertex(g, 15, 1)
    assert tag.kind == "type4"
    assert tag.summary == "two-path-with-pockets"
    assert tag.path == tuple(range(1, 29))
    assert tag.pockets == (frozenset({0}), frozenset({29}))


def test_classify_pure_long_cycle_is_type4():
    tag = classify_vertex(cycle_graph(30), 5, 1)
    assert tag.kind == "type4"
    assert tag.summary == "cycle"
    assert tag.path == tuple(range(1, 30))
    assert tag.pockets == (frozenset({0}),)


def test_classify_small_component_is_type4():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    tag = classify_vertex(g, 2, 1)
    assert tag.kind == "type4"
    assert tag.summary == "small-component"
    assert tag.pockets == (frozenset({0, 1, 2, 3}),)


def test_classification_is_total_on_random_graphs():
    rng = random.Random(77)
    kinds = {"nice", "type1", "type2", "type3", "type4"}
    for _ in range(12):
        n = rng.randrange(8, 41)
        g = random_connected_graph(rng, n)
        k = rng.randrange(1, 4)
        cache = {}
        for v in range(n):
            tag = classify_vertex(g, v, k, nice_cache=cache)
            assert tag.kind in kinds
            if tag.kind == "nice":
                check_haven(g, tag.haven)
            elif tag.kind == "type1":
                assert cache[tag.witness] is not None
            elif tag.kind == "type2":
                assert all(g.degree(u) == 2 for u in tag.path)
                assert all(cache[a] is not None for a in tag.endpoints)
            elif tag.kind == "type3":
                assert len(tag.pocket) <= 8 * k
                assert cache[tag.nice_end] is not None
            else:
                assert all(len(p) <= 8 * k for p in tag.pockets)


# ---------------------------------------------------------------------------
# compute_motion_domain


def hub_instance():
    hub_degree = 10**6
    s = hub_degree + 1
    edges = [(0, i) for i in range(1, hub_degree + 1)] + [(0, s)]
    g = Graph(hub_degree + 2, edges)
    return Instance(g, (Robot(0, s, 1),))


def test_motion_domain_small_graph_is_everything():
    # Star K_{1,5} with a tail 5-6-7; both robots' domains exhaust V.
    edges = [(0, i) for i in range(1, 6)] + [(5, 6), (6, 7)]
    g = Graph(8, edges)
    inst = Instance(g, (Robot(0, 7, 0), Robot(1, 1, None)))
    dom = compute_motion_domain(inst, 0, 3)
    assert dom.applicable
    assert dom.vertices == frozenset(range(8))
    # k = 2, lam = 3: depth C2*(lam*k + k**4), threshold C1*k**4 + k + 1.
    assert dom.depth == 44 and dom.degree_threshold == 19


def test_motion_domain_hub_truncation_frozen():
    inst = hub_instance()
    s = 10**6 + 1
    dom = compute_motion_domain(inst, 0, 1)
    assert dom.applicable
    assert dom.degree_threshold == 3
    assert dom.vertices == frozenset({s, 0, 1, 2, 3})


def test_motion_domain_lambda_zero_contains_haven_members():
    edges = [(0, i) for i in range(1, 6)] + [(5, 6), (6, 7)]
    g = Graph(8, edges)
    inst = Instance(g, (Robot(0, 0, 7), Robot(1, 6, None)))
    haven = is_nice(g, 0, inst.k)
    assert haven is not None
    dom = compute_motion_domain(inst, 0, 0)
    assert dom.applicable
    assert haven.members <= dom.vertices


def test_motion_domain_not_applicable_without_nearby_nice():
    inst = Instance(path_graph(10), (Robot(0, 0, 9),))
    dom = compute_motion_domain(inst, 0, 3)
    assert not dom.applicable
    assert dom.vertices == frozenset(range(10))


def test_motion_domain_contains_start_and_respects_bound():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(4, 20)
        g = random_connected_graph(rng, n)
        start = rng.randrange(n)
        inst = Instance(g, (Robot(0, start, None),))
        lam = rng.randrange(0, 4)
        dom = compute_motion_domain(inst, 0, lam)
        assert start in dom.vertices
        bound = dom.degree_threshold ** (2 + dom.depth)
        assert len(dom.vertices) <= bound
        assert dom == compute_motion_domain(inst, 0, lam)


def test_motion_domain_bad_arguments():
    inst = Instance(path_graph(4), (Robot(0, 0, 3),))
    with pytest.raises(InputError):
        compute_motion_domain(inst, 7, 1)
    with pytest.raises(InputError):
        compute_motion_domain(inst, 0, -1)
