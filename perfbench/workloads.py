"""The benchmark's four workloads: their instances, solver calls and checks.

Every instance set is built from a fixed list of *base* instances made by
``coordmp.generators.generate`` (or ``coordmp.hardness.reduce_mcc``) and
the workload seed:

* exact-grid, approx-scale and twdp-small renumber the robots of each
  base instance in a seeded random order and shuffle the set; exact-grid
  also permutes the vertex ids.  Energy, status and feasibility are
  invariant under relabeling, so the answers pinned for the base instance
  hold for every seed, while every seed is a distinct input that takes
  the solvers through different tie-breaks.  Vertex ids stay fixed for
  approx-scale and twdp-small because their cost and result depend on
  them (haven choice breaks ties by id; the tree decomposition follows
  the ids), which would make one seed's numbers unlike the next's.
* hardness-decide draws, for every ordered pair of part sizes up to 3 and
  every edge count, a random two-part graph with that many edges.  Its
  answers check themselves: with two parts a multicolored clique is any
  edge, and a yes-answer costs exactly the gadget's budget.

The solvers are looked up as module attributes at call time, so the
tracer's wrappers (installed on those attributes) see every call.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # kept for checking claims; do not tune against it


class WrongAnswer(Exception):
    """A solver returned an answer that contradicts a pinned or derived one."""


@dataclass
class Case:
    key: str
    instance: object
    lower_bound: int | None
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """How one solve ended: 'ok' or 'limit', with the energy when known."""

    kind: str
    energy: int | None = None


# ---------------------------------------------------------------------------
# shared helpers


def render_hash(cm, instances) -> str:
    """sha256 over the canonical text of the instances, in order."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(cm.core.render_instance(inst).encode())
    return h.hexdigest()


def relabel(cm, inst, rng: random.Random, vertices: bool):
    """An isomorphic copy: robots renumbered, and vertices permuted if asked."""
    n = inst.graph.n
    perm = list(range(n))
    if vertices:
        rng.shuffle(perm)
    order = list(range(inst.k))
    rng.shuffle(order)
    graph = cm.core.Graph(n, [(perm[u], perm[v]) for u, v in sorted(inst.graph.edges)])
    robots = tuple(
        cm.core.Robot(
            i,
            perm[inst.robots[j].start],
            None if inst.robots[j].goal is None else perm[inst.robots[j].goal],
        )
        for i, j in enumerate(order)
    )
    return cm.core.Instance(graph, robots, inst.budget)


def lower_bound(cm, inst) -> int | None:
    """Sum over goal-carrying robots of their start-goal graph distance.

    None when some goal is unreachable even with the other robots removed.
    """
    total = 0
    for r in inst.robots:
        if r.goal is not None:
            d = cm.core.shortest_path_distance(inst.graph, r.start, r.goal)
            if d is None:
                return None
            total += d
    return total


def check_schedule(validate, case, schedule, energy) -> None:
    report = validate(case.instance, schedule)
    if not report.ok:
        raise WrongAnswer(f"{case.key}: invalid schedule: {report.violation}")
    if report.energy != energy:
        raise WrongAnswer(
            f"{case.key}: reported energy {energy}, schedule has {report.energy}"
        )


class PinnedWorkload:
    """A workload over generated base instances with pinned answers.

    ``configs`` lists (generator kind, ``generate()`` keywords, how many
    generator seeds); the seed relabels every base instance and shuffles
    the set.
    """

    name: str
    state_cap: int
    configs: tuple
    relabel_vertices: bool

    def bases(self, cm):
        out = []
        for kind, kw, count in self.configs:
            for g in range(count):
                inst = cm.generators.generate(kind, seed=g, **kw)
                out.append((_config_key(kind, kw, g), inst))
        return out

    def cases(self, cm, seed, pins):
        """Relabel pinned base instances by the seed; refuse changed generators."""
        rng = random.Random(seed)
        cases = []
        for key, base in self.bases(cm):
            pin = pins.get(key)
            if pin is None:
                raise WrongAnswer(f"{self.name}: no pinned answer for {key}")
            if render_hash(cm, [base]) != pin["sha"]:
                raise WrongAnswer(
                    f"{self.name}: base instance {key} differs from the pinned "
                    "one; the generator changed"
                )
            inst = relabel(cm, base, rng, self.relabel_vertices)
            cases.append(Case(key, inst, lower_bound(cm, inst), pin))
        rng.shuffle(cases)
        return cases

    def pin(self, cm, inst):
        """The answer to pin for one base instance: the oracle's."""
        r = cm.oracle.solve_exact(inst, cm.oracle.Limits(max_states=self.state_cap))
        return {"status": r.status, "energy": r.energy}


def _config_key(kind, kw, g) -> str:
    if kind == "grid":
        shape = f"{kw['width']}x{kw['height']}"
    else:
        shape = f"n{kw['n']}"
        if "edge_prob" in kw:
            shape += f"-p{kw['edge_prob']}"
    key = f"{kind}-{shape}-k{kw['robots']}"
    if "free_robots" in kw:
        key += f"-f{kw['free_robots']}"
    return f"{key}-g{g}"


# ---------------------------------------------------------------------------
# exact-grid


class ExactGrid(PinnedWorkload):
    name = "exact-grid"
    alg = "oracle"
    state_cap = 200_000
    cli_key = "grid-5x5-k5-f0-g3"
    relabel_vertices = True
    configs = tuple(
        ("grid", dict(width=w, height=h, robots=k, free_robots=f), 7)
        for w, h, k, f in ((5, 5, 5, 0), (5, 5, 5, 1), (5, 5, 6, 2), (6, 6, 5, 1))
    )

    def solve(self, cm, case):
        return cm.oracle.solve_exact(
            case.instance, cm.oracle.Limits(max_states=self.state_cap)
        )

    def check(self, cm, validate, case, result) -> Outcome:
        if result.status == "state-limit":
            return Outcome("limit")
        want = case.expect
        if (result.status, result.energy) != (want["status"], want["energy"]):
            raise WrongAnswer(
                f"{case.key}: got {result.status}/{result.energy}, pinned "
                f"{want['status']}/{want['energy']}"
            )
        if result.status == "optimal":
            check_schedule(validate, case, result.schedule, result.energy)
        return Outcome("ok", result.energy)


# ---------------------------------------------------------------------------
# hardness-decide


class HardnessDecide:
    name = "hardness-decide"
    alg = "oracle"
    state_cap = 2_000_000
    cli_key = "mcc-2x3-m6"
    max_part = 3

    def mcc_graphs(self, cm, seed):
        rng = random.Random(seed)
        left, right = ["a", "b", "c"], ["x", "y", "z"]
        out = []
        sizes = range(1, self.max_part + 1)
        for n1, n2 in itertools.product(sizes, repeat=2):
            slots = [(u, v) for u in left[:n1] for v in right[:n2]]
            for m in range(len(slots) + 1):
                edges = sorted(rng.sample(slots, m))
                mcg = cm.hardness.MulticoloredGraph([left[:n1], right[:n2]], edges)
                out.append((f"mcc-{n1}x{n2}-m{m}", mcg))
        rng.shuffle(out)
        return out

    def cases(self, cm, seed, pins):
        cases = []
        for key, mcg in self.mcc_graphs(cm, seed):
            red = cm.hardness.reduce_mcc(mcg)
            clique = any(
                (u, v) in mcg.edges for u in mcg.parts[0] for v in mcg.parts[1]
            )
            inst = red.instance
            cases.append(Case(key, inst, lower_bound(cm, inst), {"clique": clique}))
        return cases

    def solve(self, cm, case):
        return cm.oracle.solve_exact(
            case.instance, cm.oracle.Limits(max_states=self.state_cap)
        )

    def check(self, cm, validate, case, result) -> Outcome:
        if result.status == "state-limit":
            return Outcome("limit")
        budget = case.instance.budget
        yes = result.status == "optimal" and result.energy <= budget
        if yes != case.expect["clique"]:
            raise WrongAnswer(
                f"{case.key}: verdict {result.status}/{result.energy} but "
                f"clique={case.expect['clique']}"
            )
        if not yes:
            if result.status not in ("infeasible", "budget-exceeded"):
                raise WrongAnswer(f"{case.key}: unexpected status {result.status}")
            return Outcome("ok")
        if result.energy != budget:
            raise WrongAnswer(
                f"{case.key}: yes-instance energy {result.energy} != budget {budget}"
            )
        check_schedule(validate, case, result.schedule, result.energy)
        return Outcome("ok", result.energy)


# ---------------------------------------------------------------------------
# approx-scale


class ApproxScale(PinnedWorkload):
    name = "approx-scale"
    alg = "approx"
    state_cap = 10_000
    cli_key = "grid-4x4-k3-g0"
    relabel_vertices = False
    configs = (
        ("grid", dict(width=4, height=4, robots=3), 4),
        ("grid", dict(width=5, height=5, robots=4), 3),
        ("grid", dict(width=6, height=6, robots=5), 3),
        ("random", dict(n=16, robots=3, edge_prob=0.2), 4),
        ("random", dict(n=20, robots=4, edge_prob=0.15), 4),
        ("random", dict(n=30, robots=5, edge_prob=0.1), 3),
        ("random-tree", dict(n=16, robots=3), 4),
        ("random-tree", dict(n=30, robots=4), 3),
        ("random-tree", dict(n=40, robots=5), 3),
    )

    def pin(self, cm, inst):
        verdict = cm.oracle.check_feasible(inst, cm.oracle.Limits(max_states=300_000))
        return {"feasible": verdict}

    def solve(self, cm, case):
        try:
            return cm.approx.approximate(
                case.instance, cm.oracle.Limits(max_states=self.state_cap)
            )
        except (
            cm.core.LimitError,
            cm.core.UnsupportedStructureError,
            cm.core.InfeasibleError,
        ) as exc:
            return exc

    def check(self, cm, validate, case, result) -> Outcome:
        if isinstance(result, (cm.core.LimitError, cm.core.UnsupportedStructureError)):
            return Outcome("limit")
        feasible = case.expect["feasible"]
        if isinstance(result, cm.core.InfeasibleError):
            if feasible != "infeasible":
                raise WrongAnswer(f"{case.key}: InfeasibleError but pinned {feasible}")
            return Outcome("ok")
        if feasible == "infeasible":
            raise WrongAnswer(f"{case.key}: schedule for a pinned-infeasible instance")
        if result.lower_bound != case.lower_bound or result.energy < case.lower_bound:
            raise WrongAnswer(
                f"{case.key}: energy {result.energy}, lower bound "
                f"{result.lower_bound} (expected {case.lower_bound})"
            )
        check_schedule(validate, case, result.schedule, result.energy)
        return Outcome("ok", result.energy)


# ---------------------------------------------------------------------------
# twdp-small


class TwdpSmall(PinnedWorkload):
    name = "twdp-small"
    alg = "twdp"
    state_cap = 100_000
    checkpoint_budget = 8
    entry_cap = 20_000
    cli_key = "grid-6x2-k2-g0"
    relabel_vertices = False
    configs = (
        ("random-tree", dict(n=8, robots=2), 4),
        ("random-tree", dict(n=12, robots=2), 4),
        ("grid", dict(width=4, height=2, robots=2), 4),
        ("grid", dict(width=6, height=2, robots=2), 4),
        ("random", dict(n=8, robots=2, edge_prob=0.15), 4),
        ("random", dict(n=11, robots=2, edge_prob=0.1), 4),
    )

    def solve(self, cm, case):
        try:
            return cm.twdp.solve_twdp(
                case.instance,
                self.checkpoint_budget,
                limits=cm.oracle.Limits(max_states=self.state_cap),
                entry_cap=self.entry_cap,
            )
        except cm.core.LimitError as exc:
            return exc

    def check(self, cm, validate, case, result) -> Outcome:
        if isinstance(result, cm.core.LimitError):
            return Outcome("limit")
        want = case.expect
        if result.status == "budget-limited":
            if result.energy is not None and (
                want["energy"] is None or result.energy < want["energy"]
            ):
                raise WrongAnswer(
                    f"{case.key}: witnessed energy {result.energy} below the "
                    f"oracle's {want['energy']}"
                )
            return Outcome("limit")
        if (result.status, result.energy) != (want["status"], want["energy"]):
            raise WrongAnswer(
                f"{case.key}: got {result.status}/{result.energy}, oracle "
                f"{want['status']}/{want['energy']}"
            )
        return Outcome("ok", result.energy)


WORKLOADS = {
    w.name: w for w in (ExactGrid(), HardnessDecide(), ApproxScale(), TwdpSmall())
}
