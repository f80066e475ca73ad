"""Haven normalization: the paper's boundary-crossing lemma, run as code.

``normalize_around_haven`` rewrites a schedule so every robot crosses the
haven boundary at most once in each direction, without adding outside
moves and with O(k^4) moves inside.  No solver needs the rewrite; the
tests run it to check the lemma on concrete schedules.
"""
from __future__ import annotations

from coordmp.core import (
    InputError,
    Instance,
    Route,
    Schedule,
    validate_schedule,
)
from coordmp.havenswap import swap
from coordmp.structure import Haven, check_haven


def _block_target(
    haven: Haven,
    current: dict[int, int],
    exiters: list[tuple[int, int]],
    enterers: list[tuple[int, int]],
) -> dict[int, int]:
    """Deterministic pre-crossing placement: exiting robots at their exit
    vertices, entry vertices free (unless a simultaneous exiter holds one),
    everyone else kept in place when possible."""
    target: dict[int, int] = {}
    taken: set[int] = set()
    for robot, vertex in exiters:
        target[robot] = vertex
        taken.add(vertex)
    entry_vertices = {v for _, v in enterers}
    moved = [r for r in sorted(current) if r not in target]
    spill = []
    for robot in moved:
        v = current[robot]
        if v in taken or v in entry_vertices:
            spill.append(robot)
        else:
            target[robot] = v
            taken.add(v)
    free = [
        v
        for v in sorted(haven.members)
        if v not in taken and v not in entry_vertices
    ]
    for robot, v in zip(spill, free):
        target[robot] = v
        taken.add(v)
    if len(target) != len(current):
        raise InputError("haven has no room for the pre-crossing placement")
    return target


def normalize_around_haven(
    instance: Instance, schedule: Schedule, haven: Haven
) -> Schedule:
    """Rewrite ``schedule`` so each robot enters and leaves the haven at most
    once, outside moves do not increase, and inside moves are O(k^4).

    Robots keep their original trajectories outside the haven, at their
    original step indices (with uniform waits inserted while the haven
    reconfigures); between boundary crossings they are parked inside, and a
    terminal reconfiguration restores the original final placement.
    """
    check_haven(instance.graph, haven)
    if haven.k != instance.k:
        raise InputError(
            f"haven was built for k={haven.k}, instance has k={instance.k}"
        )
    res = validate_schedule(instance, schedule)
    if not res.ok:
        raise InputError(f"invalid input schedule: {res.violation}")

    members = haven.members
    routes = schedule.routes
    horizon = schedule.horizon
    touching = [
        i
        for i in range(instance.k)
        if any(p in members for p in routes[i].positions)
    ]
    if not touching:
        return schedule

    first = {
        i: min(t for t, p in enumerate(routes[i].positions) if p in members)
        for i in touching
    }
    last = {
        i: max(t for t, p in enumerate(routes[i].positions) if p in members)
        for i in touching
    }
    entries: dict[int, list[tuple[int, int]]] = {}
    exits: dict[int, list[tuple[int, int]]] = {}
    for i in touching:
        if first[i] > 0:
            entries.setdefault(first[i], []).append(
                (i, routes[i].positions[first[i]])
            )
        if last[i] < horizon:
            exits.setdefault(last[i] + 1, []).append(
                (i, routes[i].positions[last[i]])
            )

    positions = {i: [routes[i].positions[0]] for i in range(instance.k)}
    inside = {
        i: routes[i].positions[0] for i in touching if first[i] == 0
    }

    def emit(moves: dict[int, int]) -> None:
        # One output step: robots in ``moves`` go to their new vertex,
        # everyone else waits.  Swap blocks key robots by index, so the
        # emitted triples translate directly.
        for i in range(instance.k):
            positions[i].append(moves.get(i, positions[i][-1]))

    for t in range(1, horizon + 1):
        step_exits = exits.get(t, [])
        step_entries = entries.get(t, [])
        if step_exits or step_entries:
            target = _block_target(haven, inside, step_exits, step_entries)
            for step in swap(instance.graph, haven, inside, target):
                emit({robot: v for robot, _, v in step})
            inside = target
        moves: dict[int, int] = {}
        for i, vertex in step_entries:
            moves[i] = vertex
            inside[i] = vertex
        for i, vertex in step_exits:
            assert inside.get(i) == vertex, "exiter misplaced before crossing"
            del inside[i]
            moves[i] = routes[i].positions[t]
        for i in range(instance.k):
            if i in inside or i in moves:
                continue
            if i in touching and first[i] <= t <= last[i]:
                continue  # parked inside (handled via ``inside``)
            prev = positions[i][-1]
            nxt = routes[i].positions[t]
            if nxt != prev:
                moves[i] = nxt
        if moves:
            emit(moves)
    # Terminal block: restore original final placement of inside robots.
    final_target = {i: routes[i].positions[horizon] for i in inside}
    for step in swap(instance.graph, haven, inside, final_target):
        emit({robot: v for robot, _, v in step})
    inside = final_target

    result = Schedule(tuple(Route(tuple(positions[i])) for i in range(instance.k)))
    check = validate_schedule(instance, result)
    assert check.ok, f"normalization produced an invalid schedule: {check.violation}"
    return result
