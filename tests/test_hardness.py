"""Tests for the clique-to-motion-planning gadget generator."""
import itertools

import pytest

from coordmp.core import InputError, validate_schedule
from coordmp.hardness import (
    MulticoloredGraph,
    parse_mcc,
    reduce_mcc,
    render_mcc,
    witness_schedule,
)
from coordmp.oracle import Limits, solve_exact

SWEEP_LIMITS = Limits(max_states=2_000_000)


def _mcg(parts, edges=()):
    return MulticoloredGraph(parts, edges)


def _all_two_part_graphs(max_per_part):
    """All labeled 2-part graphs with at most max_per_part vertices per part."""
    left = ["a", "b", "c"]
    right = ["x", "y", "z"]
    for n1, n2 in itertools.product(range(1, max_per_part + 1), repeat=2):
        v1, v2 = left[:n1], right[:n2]
        slots = [(u, v) for u in v1 for v in v2]
        for mask in range(1 << len(slots)):
            edges = [e for i, e in enumerate(slots) if mask >> i & 1]
            yield MulticoloredGraph([v1, v2], edges)


# ---------------------------------------------------------------------------
# MulticoloredGraph validation and the mcc text format
# ---------------------------------------------------------------------------


def test_mcg_rejects_bad_inputs():
    with pytest.raises(InputError):
        _mcg([["a"], []])  # empty part
    with pytest.raises(InputError, match="'a' appears in two parts"):
        _mcg([["a"], ["a"]])
    with pytest.raises(InputError, match="'a' repeats in part 1"):
        _mcg([["a", "a"], ["x"]])
    with pytest.raises(InputError, match="'a' repeats in part 1"):
        parse_mcc("mcc 1\npart 1 a a\npart 2 x\n")
    with pytest.raises(InputError):
        _mcg([["a", "b"], ["c"]], [("a", "b")])  # intra-part edge
    with pytest.raises(InputError):
        _mcg([["a"], ["b"]], [("a", "z")])  # unknown endpoint
    with pytest.raises(InputError):
        _mcg([])  # no parts at all


def test_mcg_canonicalizes_edge_orientation():
    m = _mcg([["a"], ["b"]], [("b", "a")])
    assert m.edges == frozenset({("a", "b")})
    assert m.part_of("a") == 0 and m.part_of("b") == 1


def test_mcc_render_parse_round_trip():
    m = _mcg([["a", "b"], ["x"], ["p", "q"]], [("a", "x"), ("q", "a"), ("x", "p")])
    text = render_mcc(m)
    assert text.splitlines()[0] == "mcc 1"
    assert parse_mcc(text) == m


def test_mcc_parse_rejections():
    with pytest.raises(InputError, match="^line 1: .*must start with 'mcc 1'"):
        parse_mcc("part 1 a\n")  # missing header
    with pytest.raises(InputError, match="^line 3: .*must start with 'mcc 1'"):
        parse_mcc("# c\n\nmcc 2\npart 1 a\n")  # header after a comment
    with pytest.raises(InputError, match="^line 1: .*must start with 'mcc 1'"):
        parse_mcc("# only a comment\n")  # no content line
    with pytest.raises(InputError, match="^line 3: duplicate part 1$"):
        parse_mcc("mcc 1\npart 1 a\npart 1 b\n")  # duplicate part index
    with pytest.raises(InputError, match="without gaps"):
        parse_mcc("mcc 1\npart 1 a\npart 3 b\n")  # gap in part numbering
    with pytest.raises(InputError, match="^line 4: malformed edge line"):
        parse_mcc("mcc 1\npart 1 a\npart 2 b\nedge a\n")  # malformed edge
    with pytest.raises(InputError, match="^line 3: unknown line kind"):
        parse_mcc("mcc 1\npart 1 a\nvertex b\n")  # unknown line kind
    with pytest.raises(InputError, match="^line 2: malformed part line"):
        parse_mcc("mcc 1\npart 1\npart 2 b\n")  # part without labels


@pytest.mark.parametrize("tok", ["\u0663", "\uff13", "1_0", "+1", "-1"])
def test_mcc_part_index_is_an_ascii_decimal(tok):
    with pytest.raises(InputError, match="^line 2: malformed part line"):
        parse_mcc(f"mcc 1\npart {tok} a\npart 2 x\n")


def test_mcc_comments_and_blank_lines_ignored():
    plain = "mcc 1\npart 1 a b\npart 2 x\nedge a x\n"
    text = ("# gadget input\nmcc 1  # header\n\npart 1 a b # first part\n"
            "part 2 x\n# no edge to b\nedge a x # the only edge\n")
    assert parse_mcc(text) == parse_mcc(plain)
    assert parse_mcc(text).parts == (("a", "b"), ("x",))


# ---------------------------------------------------------------------------
# Reduction shape
# ---------------------------------------------------------------------------


def test_single_edge_reduction_shape():
    m = _mcg([["a"], ["b"]], [("a", "b")])
    red = reduce_mcc(m)
    inst = red.instance
    assert red.kappa == 2 and red.subdivision == 8
    assert inst.graph.n == 14
    assert len(inst.robots) == 3
    assert inst.budget == 15
    names = red.names
    expected = (
        ["a", "b"]
        + [f"sub:a-b:{i}" for i in range(1, 9)]
        + ["pend:a", "pend:b", "s:1:2", "t:1:2"]
    )
    assert sorted(names) == sorted(expected)
    # Blocking robots sit still on originals; the courier spans the hubs.
    blockers = inst.robots[:2]
    assert {r.start for r in blockers} == {names["a"], names["b"]}
    assert all(r.start == r.goal for r in blockers)
    courier = inst.robots[2]
    assert courier.start == names["s:1:2"] and courier.goal == names["t:1:2"]
    # Pendants are leaves; hubs touch only their own part.
    assert inst.graph.neighbors(names["pend:a"]) == (names["a"],)
    assert inst.graph.neighbors(names["s:1:2"]) == (names["a"],)
    assert inst.graph.neighbors(names["t:1:2"]) == (names["b"],)
    # The corridor chains a to b through the subdivision vertices.
    assert names["sub:a-b:1"] in inst.graph.neighbors(names["a"])
    assert names["sub:a-b:8"] in inst.graph.neighbors(names["b"])


@pytest.mark.parametrize(
    "label", ["s:1:2", "t:1:2", "pend:x", "sub:a-x:1", "sub:a-x:8"]
)
def test_reduce_rejects_a_part_label_equal_to_a_gadget_name(label):
    m = _mcg([["a", label], ["x"]], [("a", "x")])
    with pytest.raises(InputError, match=f"part label '{label}' equals a gadget"):
        reduce_mcc(m)


def test_reduce_rejects_labels_whose_corridor_names_collide():
    # Edges (a, b-c) and (a-b, c) both name their first corridor vertex
    # sub:a-b-c:1.
    m = _mcg([["a", "a-b"], ["b-c", "c"]], [("a", "b-c"), ("a-b", "c")])
    with pytest.raises(InputError, match="two gadget vertices are named 'sub:a-b-c:1'"):
        reduce_mcc(m)


def test_no_edge_reduction_is_infeasible():
    m = _mcg([["a"], ["b"]])
    red = reduce_mcc(m)
    assert reduce_mcc(m).instance.budget == 15
    assert solve_exact(red.instance).status == "infeasible"


def test_robot_count_and_budget_formulas():
    import random

    rng = random.Random(411)
    labels = [f"v{i}" for i in range(12)]
    for _ in range(25):
        kappa = rng.randint(1, 4)
        sizes = [rng.randint(1, 3) for _ in range(kappa)]
        parts, pool = [], list(labels)
        for sz in sizes:
            parts.append([pool.pop() for _ in range(sz)])
        edges = []
        for i, j in itertools.combinations(range(kappa), 2):
            for u in parts[i]:
                for v in parts[j]:
                    if rng.random() < 0.5:
                        edges.append((u, v))
        m = _mcg(parts, edges)
        red = reduce_mcc(m)
        pairs = kappa * (kappa - 1) // 2
        d = kappa**3
        assert len(red.instance.robots) == sum(sizes) + pairs
        assert red.instance.budget == 2 * kappa + pairs * (d + 3)
        assert red.subdivision == d


# ---------------------------------------------------------------------------
# Witness schedules
# ---------------------------------------------------------------------------


def test_witness_single_edge_energy_15():
    m = _mcg([["a"], ["b"]], [("a", "b")])
    sched = witness_schedule(m, ["a", "b"])
    assert sched.energy == 15
    report = validate_schedule(reduce_mcc(m).instance, sched)
    assert report.ok, report


def test_witness_triangle_energy_96():
    m = _mcg(
        [["a"], ["b"], ["c"]],
        [("a", "b"), ("a", "c"), ("b", "c")],
    )
    red = reduce_mcc(m)
    assert red.instance.budget == 96
    sched = witness_schedule(m, ["a", "b", "c"])
    assert sched.energy == 96
    report = validate_schedule(red.instance, sched)
    assert report.ok, report


def test_witness_meets_budget_with_equality_under_override():
    # Two candidate vertices in the first part; the witness picks the
    # second, whose corridor is not the first one built.
    m = _mcg([["a", "b"], ["x"]], [("a", "x"), ("b", "x")])
    red = reduce_mcc(m)
    sched = witness_schedule(m, ["b", "x"])
    assert sched.energy == red.instance.budget
    assert validate_schedule(red.instance, sched).ok


def test_witness_rejects_non_cliques():
    m = _mcg([["a"], ["b"], ["c"]], [("a", "b"), ("a", "c")])
    with pytest.raises(InputError, match="b-c"):
        witness_schedule(m, ["a", "b", "c"])
    with pytest.raises(InputError):
        witness_schedule(m, ["a", "b"])  # too few vertices
    with pytest.raises(InputError, match="^unknown vertex 'zz'$"):
        witness_schedule(m, ["a", "b", "zz"])
    m2 = _mcg([["a", "b"], ["x"]], [("a", "x")])
    with pytest.raises(InputError):
        witness_schedule(m2, ["a", "b"])  # two picks in one part


# ---------------------------------------------------------------------------
# Round-trip against the exact oracle
# ---------------------------------------------------------------------------


def _part_of_robot(m, idx):
    flat = [p for p, part in enumerate(m.parts) for _ in part]
    return flat[idx]


def test_round_trip_two_per_part_exhaustive():
    """Oracle yes-at-budget iff a multicolored clique exists (2-part case),
    and optimal schedules move exactly one blocking robot per part."""
    checked = 0
    for m in _all_two_part_graphs(2):
        red = reduce_mcc(m)
        res = solve_exact(red.instance, SWEEP_LIMITS)
        clique_exists = bool(m.edges)
        if clique_exists:
            assert res.status == "optimal", (m.edges, res.status)
            assert res.energy == red.instance.budget
            blockers = sum(len(p) for p in m.parts)
            moved_per_part = [0] * m.kappa
            for idx in range(blockers):
                if res.schedule.routes[idx].moves() > 0:
                    moved_per_part[_part_of_robot(m, idx)] += 1
            assert moved_per_part == [1] * m.kappa, (m.edges, moved_per_part)
        else:
            assert res.status == "infeasible", (m.edges, res.status)
        checked += 1
    assert checked == 26


def test_round_trip_three_per_part_exhaustive():
    """Full sweep of 2-part graphs with up to 3 vertices per part (682
    configurations); skips any state-limited run but none are expected."""
    decided = mismatches = 0
    for m in _all_two_part_graphs(3):
        red = reduce_mcc(m)
        res = solve_exact(red.instance, SWEEP_LIMITS)
        if res.status == "state-limit":
            continue
        clique_exists = bool(m.edges)
        if (res.status == "optimal") != clique_exists:
            mismatches += 1
        elif clique_exists and res.energy != red.instance.budget:
            mismatches += 1
        decided += 1
    assert mismatches == 0
    assert decided >= 600
