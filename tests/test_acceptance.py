"""Acceptance suite: one verdict line per criterion.

Each criterion runs as one test and prints
``[acceptance] criterion <n> (<label>): PASS|FAIL`` through
``capsys.disabled()`` so the verdicts appear in ordinary pytest runs.

The shared corpus is an exhaustive enumeration: every connected graph with
at most 6 vertices (one representative per isomorphism class), under every
placement of one or two robots — injective starts, injective goals, free
robots included — plus 200 seeded random instances with up to 12 vertices
and 3 robots.  The exact search solves and certifies all of it; the other
criteria measure their solvers against those ground-truth answers.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

import pytest

from _reference import sequence_violations
from coordmp.core import (
    Graph,
    Instance,
    LimitError,
    Robot,
    UnsupportedStructureError,
    validate_schedule,
)
from coordmp.approx import approximate, energy_ball_restrict, solve_gcmp1
from coordmp.generators import generate
from coordmp.hardness import MulticoloredGraph, reduce_mcc, witness_schedule
from coordmp.oracle import Limits, solve_critical, solve_exact
from coordmp.twdp import DOWN, UP, build_nice_td, solve_twdp

LIMITS = Limits(max_states=500_000)

# Suite-wide constants asserted by the bound-checking criteria.
C_SWAP = 20  # haven swap moves <= C_SWAP * k^3
C_APX = 1  # approximation overhead <= C_APX * k^5
C_VIS = 1  # optimal-schedule visits per robot and vertex <= C_VIS * k^5


def _report(capsys, number: int, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"\n[acceptance] criterion {number} ({label}): "
              f"{'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# Shared corpora
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    graph_idx: int
    placement: tuple  # ((start, goal-or-None), ...)
    status: str
    energy: int | None
    max_visit: int
    validated: bool


@dataclass
class Corpus:
    graphs: list
    widths: list
    entries: list
    elapsed: float


def _instance_of(corpus: Corpus, entry: Entry) -> Instance:
    robots = tuple(
        Robot(i, s, g) for i, (s, g) in enumerate(entry.placement)
    )
    return Instance(corpus.graphs[entry.graph_idx], robots)


def _max_visits(schedule) -> int:
    """Largest number of distinct stays any robot makes at any one vertex."""
    worst = 0
    for route in schedule.routes:
        counts: dict[int, int] = {}
        prev = None
        for v in route.positions:
            if v != prev:
                counts[v] = counts.get(v, 0) + 1
                prev = v
        worst = max(worst, max(counts.values()))
    return worst


def _solve_and_record(graph_idx: int, graph: Graph, placement) -> Entry:
    robots = tuple(Robot(i, s, g) for i, (s, g) in enumerate(placement))
    inst = Instance(graph, robots)
    res = solve_exact(inst, LIMITS)
    validated = False
    max_visit = 0
    if res.status == "optimal":
        validated = validate_schedule(inst, res.schedule).ok
        max_visit = _max_visits(res.schedule)
    elif res.status == "infeasible":
        validated = True  # nothing to validate
    return Entry(graph_idx, placement, res.status, res.energy, max_visit,
                 validated)


def _placements(n: int):
    """Every one- and two-robot placement, free robots included."""
    for s in range(n):
        yield ((s, None),)
        for g in range(n):
            yield ((s, g),)
    if n >= 2:
        for s0, s1 in itertools.permutations(range(n), 2):
            yield ((s0, None), (s1, None))
            for g0 in range(n):
                yield ((s0, g0), (s1, None))
                yield ((s0, None), (s1, g0))
            for g0, g1 in itertools.permutations(range(n), 2):
                yield ((s0, g0), (s1, g1))


@pytest.fixture(scope="module")
def atlas_corpus():
    nx = pytest.importorskip("networkx")
    graphs = []
    widths = []
    for ag in nx.graph_atlas_g():
        n = ag.number_of_nodes()
        if not 1 <= n <= 6 or not nx.is_connected(ag):
            continue
        mapping = {node: i for i, node in enumerate(sorted(ag.nodes()))}
        graph = Graph(n, [(mapping[u], mapping[v]) for u, v in ag.edges()])
        graphs.append(graph)
        widths.append(build_nice_td(graph, frozenset()).base_width)
    t0 = time.time()
    entries = []
    for gi, graph in enumerate(graphs):
        for placement in _placements(graph.n):
            entries.append(_solve_and_record(gi, graph, placement))
    return Corpus(graphs, widths, entries, time.time() - t0)


@pytest.fixture(scope="module")
def random_corpus():
    t0 = time.time()
    rng = random.Random(20260813)
    graphs = []
    entries = []
    while len(entries) < 200:
        n = rng.randint(4, 12)
        k = rng.randint(1, min(3, n))
        kind = rng.choice(["random", "random-tree", "grid"])
        if kind == "grid":
            w = rng.randint(2, 4)
            h = max(2, min(4, (n + w - 1) // w))
            inst = generate(kind, width=w, height=h, robots=k,
                            seed=rng.randrange(10**6))
        else:
            inst = generate(kind, n=n, robots=k, seed=rng.randrange(10**6),
                            edge_prob=rng.choice([0.15, 0.3, 0.5]))
        graphs.append(inst.graph)
        placement = tuple((r.start, r.goal) for r in inst.robots)
        entries.append(
            _solve_and_record(len(graphs) - 1, inst.graph, placement)
        )
    return Corpus(graphs, [None] * len(graphs), entries, time.time() - t0)


# ---------------------------------------------------------------------------
# Criterion 1: exact search on the full corpus
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_ground_truth(atlas_corpus, random_corpus, capsys):
    ok = False
    try:
        for corpus in (atlas_corpus, random_corpus):
            for entry in corpus.entries:
                assert entry.status in ("optimal", "infeasible"), entry
                assert entry.validated, entry
        assert len(atlas_corpus.entries) == 164_668
        assert len(random_corpus.entries) == 200
        assert atlas_corpus.elapsed + random_corpus.elapsed < 300.0

        # The path instance whose free robot has nowhere to go.
        p3 = Graph(3, [(0, 1), (1, 2)])
        blocking = Instance(p3, (Robot(0, 0, 2), Robot(1, 1, None)))
        assert solve_exact(blocking, LIMITS).status == "infeasible"
        # The star whose free robot must clear the center: one dodge plus
        # the two-step walk.
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        star_inst = Instance(star, (Robot(0, 1, 2), Robot(1, 0, None)))
        res = solve_exact(star_inst, LIMITS)
        assert res.status == "optimal" and res.energy == 3
        ok = True
    finally:
        _report(capsys, 1, "oracle ground truth", ok)


# ---------------------------------------------------------------------------
# Criterion 2: independent solvers agree with the exact search
# ---------------------------------------------------------------------------


def test_criterion_2_solver_agreement(atlas_corpus, capsys):
    ok = False
    try:
        # Critical-vertex search: every corpus instance.
        for entry in atlas_corpus.entries:
            res = solve_critical(_instance_of(atlas_corpus, entry), LIMITS)
            assert res.status == entry.status, entry
            assert res.energy == entry.energy, entry

        # Single-destination solver: every instance with exactly one
        # destination-bearing robot.
        checked_gcmp1 = 0
        for entry in atlas_corpus.entries:
            inst = _instance_of(atlas_corpus, entry)
            if len(inst.movers) != 1:
                continue
            res = solve_gcmp1(inst, LIMITS)
            assert res.status == entry.status, entry
            assert res.energy == entry.energy, entry
            checked_gcmp1 += 1
        assert checked_gcmp1 > 10_000

        # Checkpoint dynamic program: a deterministic slice of the
        # width <= 2 instances, plus random trees on 7 and 8 vertices.
        # The solver certifies every optimal/infeasible claim, so a
        # budget-limited return is an honest "checkpoint budget too small"
        # verdict and counts as incomplete, never as a disagreement.
        jobs = []
        eligible = 0
        for entry in atlas_corpus.entries:
            if atlas_corpus.widths[entry.graph_idx] <= 2:
                if eligible % 489 == 0:
                    jobs.append((_instance_of(atlas_corpus, entry),
                                 entry.status, entry.energy))
                eligible += 1
        rng = random.Random(777)
        for _ in range(12):
            n = rng.randint(7, 8)
            g = Graph(n, [(rng.randrange(i), i) for i in range(1, n)])
            verts = list(range(n))
            rng.shuffle(verts)
            starts = verts[: rng.randint(1, 2)]
            rng.shuffle(verts)
            goals = verts[: len(starts)]
            inst = Instance(g, tuple(
                Robot(i, s, t) for i, (s, t) in enumerate(zip(starts, goals))
            ))
            res = solve_exact(inst, LIMITS)
            jobs.append((inst, res.status, res.energy))

        agreed = skipped = 0
        for inst, status, energy in jobs:
            try:
                res = solve_twdp(inst, 8, entry_cap=150_000)
            except LimitError:
                skipped += 1
                continue
            if res.status == "budget-limited":
                skipped += 1
                continue
            assert res.status == status, (inst, res, status)
            assert res.energy == energy, (inst, res, energy)
            agreed += 1
        assert agreed >= 150 and skipped <= len(jobs) * 15 // 100, (
            agreed, skipped
        )
        ok = True
    finally:
        _report(capsys, 2, "solver agreement", ok)


# ---------------------------------------------------------------------------
# Criterion 3: haven swaps replay correctly within a fixed move bound
# ---------------------------------------------------------------------------


def test_criterion_3_haven_swap_bound(capsys):
    from test_havenswap import random_haven, run_swap

    ok = False
    try:
        rng = random.Random(99)
        worst = 0.0
        for _ in range(200):
            k = rng.randrange(1, 5)
            g, haven = random_haven(rng, k)
            members = sorted(haven.members)
            m = rng.randrange(1, k + 1)
            start_spots = rng.sample(members, m)
            goal_spots = rng.sample(members, m)
            start = {i: start_spots[i] for i in range(m)}
            goal = {i: goal_spots[i] for i in range(m)}
            # run_swap asserts replay, containment, and conflict-freeness.
            steps = run_swap(g, haven, start, goal)
            moves = sum(len(s) for s in steps)
            assert moves <= C_SWAP * k**3, (k, moves)
            worst = max(worst, moves / k**3)
        assert worst <= C_SWAP
        ok = True
    finally:
        _report(capsys, 3, "haven swap bound", ok)


# ---------------------------------------------------------------------------
# Criterion 4: approximation sandwich on all feasible corpus instances
# ---------------------------------------------------------------------------


def test_criterion_4_approximation_sandwich(atlas_corpus, random_corpus,
                                            capsys):
    ok = False
    try:
        checked = unsupported = 0
        for corpus in (atlas_corpus, random_corpus):
            for entry in corpus.entries:
                if entry.status != "optimal":
                    continue
                inst = _instance_of(corpus, entry)
                try:
                    report = approximate(inst, LIMITS)
                except UnsupportedStructureError:
                    unsupported += 1
                    continue
                k = inst.k
                assert entry.energy <= report.energy, entry
                assert report.energy <= entry.energy + C_APX * k**5, entry
                if len(inst.robots) == 1:
                    assert report.energy == entry.energy, entry
                checked += 1
        total = checked + unsupported
        assert checked > 100_000 and unsupported <= total // 20
        ok = True
    finally:
        _report(capsys, 4, "approximation sandwich", ok)


# ---------------------------------------------------------------------------
# Criterion 5: clique-gadget round trip
# ---------------------------------------------------------------------------


def test_criterion_5_hardness_round_trip(capsys):
    ok = False
    try:
        # All 2-part multicolored graphs with at most 2 vertices per part.
        checked = 0
        for n1, n2 in itertools.product((1, 2), repeat=2):
            v1 = ["a", "b"][:n1]
            v2 = ["x", "y"][:n2]
            slots = [(u, v) for u in v1 for v in v2]
            for mask in range(1 << len(slots)):
                edges = [e for i, e in enumerate(slots) if mask >> i & 1]
                mcg = MulticoloredGraph([v1, v2], edges)
                red = reduce_mcc(mcg)
                res = solve_exact(red.instance, Limits(max_states=2_000_000))
                clique_exists = bool(edges)
                assert (res.status == "optimal") == clique_exists, edges
                if clique_exists:
                    assert res.energy == red.instance.budget
                checked += 1
        assert checked == 26

        # Frozen arithmetic: the single-edge gadget and its witness.
        single = MulticoloredGraph([["a"], ["b"]], [("a", "b")])
        red = reduce_mcc(single)
        assert red.instance.budget == 15 and red.instance.graph.n == 14
        sched = witness_schedule(single, ["a", "b"])
        assert sched.energy == 15
        assert validate_schedule(red.instance, sched).ok

        # Triangle witness validates at exactly 96 with no oracle run.
        tri = MulticoloredGraph(
            [["a"], ["b"], ["c"]], [("a", "b"), ("a", "c"), ("b", "c")]
        )
        tri_red = reduce_mcc(tri)
        tri_sched = witness_schedule(tri, ["a", "b", "c"])
        assert tri_sched.energy == 96
        assert validate_schedule(tri_red.instance, tri_sched).ok
        ok = True
    finally:
        _report(capsys, 5, "hardness round trip", ok)


# ---------------------------------------------------------------------------
# Criterion 6: budget-ball preprocessing preserves the answer
# ---------------------------------------------------------------------------


def test_criterion_6_preprocessing_soundness(capsys):
    ok = False
    try:
        rng = random.Random(606)
        agreed = 0
        for _ in range(100):
            n = rng.randint(5, 10)
            inst_free = generate("random", n=n, robots=rng.randint(1, 3),
                                 seed=rng.randrange(10**6),
                                 edge_prob=rng.choice([0.2, 0.4]))
            budget = rng.randint(1, 4)
            inst = Instance(inst_free.graph, inst_free.robots, budget=budget)
            full = solve_exact(inst, LIMITS)
            restricted = energy_ball_restrict(inst)
            if restricted.instance is None:
                assert full.status != "optimal", (inst, full)
            else:
                sub = restricted.instance
                assert sub.budget == budget
                part = solve_exact(sub, LIMITS)
                assert (part.status == "optimal") == (
                    full.status == "optimal"
                ), (inst, full, part)
                if part.status == "optimal":
                    assert part.energy == full.energy
            agreed += 1
        assert agreed == 100

        # More movers than the budget allows: rejected by counting alone.
        path = Graph(8, [(i, i + 1) for i in range(7)])
        robots = tuple(Robot(i, i, i + 4) for i in range(3))
        crowded = Instance(path, robots, budget=2)
        result = energy_ball_restrict(crowded)
        assert result.instance is None and result.reason
        ok = True
    finally:
        _report(capsys, 6, "preprocessing soundness", ok)


# ---------------------------------------------------------------------------
# Criterion 7: checkpoint-sequence goodness mutations
# ---------------------------------------------------------------------------


def test_criterion_7_goodness_mutations(capsys):
    ok = False
    try:
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        inst = Instance(g, (Robot(0, 0, 2), Robot(1, 1, 3)))
        bag = frozenset(range(4))
        base = (((0, 1), (1, 2)), ((1, 2), (2, 3)))

        cases = {
            # endpoints: wrong first coordinate for robot 1
            1: ((((0, 2), (1, 2)), ((1, 2), (2, 3))), base),
            # first pair must change something
            2: ((((0, 1), (0, 1)), ((0, 1), (1, 2)), ((1, 2), (2, 3))), base),
            # middle pairs must change something
            4: ((((0, 1), (1, 2)), ((1, 2), (1, 2)), ((1, 2), (2, 3))), base),
            # no tunneling between the outside and the hidden interior
            5: ((((0, 1), (UP, 1)), ((UP, 1), (DOWN, 2)), ((DOWN, 2), (2, 3))),
                (((0, 1), (UP, 1)), ((UP, 1), (UP, 2)), ((UP, 2), (2, 3)))),
            # two robots may not occupy one vertex
            6: ((((0, 1), (UP, UP)), ((UP, UP), (2, 2)), ((2, 2), (2, 3))),
                (((0, 1), (UP, UP)), ((UP, UP), (2, 3)))),
            # moves must follow edges, one robot per edge
            8: ((((0, 1), (2, 1)), ((2, 1), (2, 3))), base),
        }
        for prop, (mutant, repair) in cases.items():
            assert sequence_violations(mutant, bag, g, inst) == [prop], prop
            assert sequence_violations(repair, bag, g, inst) == [], prop

        # Vacate rule: its only violating pattern also double-occupies the
        # target vertex, so the occupancy property fires alongside it; the
        # repaired variant passes cleanly.
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        inst7 = Instance(star, (Robot(0, 1, 0), Robot(1, 0, 2)))
        bag7 = frozenset(range(4))
        stay = (((1, 0), (0, 0)), ((0, 0), (0, 2)))
        violations = sequence_violations(stay, bag7, star, inst7)
        assert 7 in violations and set(violations) <= {6, 7}
        fixed = (((1, 0), (1, 2)), ((1, 2), (0, 2)))
        assert sequence_violations(fixed, bag7, star, inst7) == []
        ok = True
    finally:
        _report(capsys, 7, "goodness mutation suite", ok)


# ---------------------------------------------------------------------------
# Criterion 8: optimal schedules revisit vertices a bounded number of times
# ---------------------------------------------------------------------------


def test_criterion_8_visit_count_bound(atlas_corpus, random_corpus, capsys):
    ok = False
    try:
        worst = 0.0
        checked = 0
        for corpus in (atlas_corpus, random_corpus):
            for entry in corpus.entries:
                if entry.status != "optimal":
                    continue
                k = len(entry.placement)
                assert entry.max_visit <= C_VIS * k**5, entry
                worst = max(worst, entry.max_visit / k**5)
                checked += 1
        assert checked > 100_000 and worst <= C_VIS
        ok = True
    finally:
        _report(capsys, 8, "visit count bound", ok)
