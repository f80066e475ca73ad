"""Static schedule renderers: text trace, DOT description, SVG frames.

All three outputs are deterministic functions of the instance and
schedule.  Frames use a fixed circular layout so no external layout
engine is needed; the DOT output exists precisely for tools that want to
compute their own layout.
"""
from __future__ import annotations

import math

from coordmp.core import Graph, InputError, Instance, Schedule

FRAME_SIZE = 420
FRAME_MARGIN = 40


def render_text_trace(instance: Instance, schedule: Schedule) -> str:
    """One line per time step naming every robot that moves in it.

    The header is ``trace <k> <t>``; a step with no movers renders ``-``.
    """
    if len(schedule.routes) != instance.k:
        raise InputError("schedule robot count does not match the instance")
    t = schedule.horizon
    out = [f"trace {instance.k} {t}"]
    for step in range(t):
        movers = []
        for robot, route in zip(instance.robots, schedule.routes):
            u, v = route.positions[step], route.positions[step + 1]
            if u != v:
                movers.append(f"robot {robot.id} {u}->{v}")
        out.append(f"step {step + 1}: " + ("; ".join(movers) if movers else "-"))
    return "\n".join(out) + "\n"


def render_dot(instance: Instance, schedule: Schedule | None = None) -> str:
    """Graphviz description of the graph with start/goal annotations.

    When a schedule is given its final positions are annotated too, so a
    single drawing can show where everything began and ended.
    """
    lines = ["graph gcmp {", "  node [shape=circle];"]
    starts = {r.start: r.id for r in instance.robots}
    goals = {r.goal: r.id for r in instance.robots if r.goal is not None}
    finals = {}
    if schedule is not None:
        if len(schedule.routes) != instance.k:
            raise InputError("schedule robot count does not match the instance")
        ends = zip(instance.robots, schedule.routes)
        finals = {route.positions[-1]: r.id for r, route in ends}
    for v in range(instance.graph.n):
        tags = []
        if v in starts:
            tags.append(f"start r{starts[v]}")
        if v in goals:
            tags.append(f"goal r{goals[v]}")
        if v in finals:
            tags.append(f"end r{finals[v]}")
        label = str(v) if not tags else f"{v}\\n{', '.join(tags)}"
        lines.append(f'  v{v} [label="{label}"];')
    for u, v in sorted(instance.graph.edges):
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _layout(graph: Graph) -> list[tuple[float, float]]:
    """Fixed circular layout: vertex i sits at angle 2*pi*i/n."""
    n = max(graph.n, 1)
    cx = cy = FRAME_SIZE / 2
    radius = FRAME_SIZE / 2 - FRAME_MARGIN
    points = []
    for i in range(graph.n):
        angle = 2 * math.pi * i / n - math.pi / 2
        points.append((cx + radius * math.cos(angle), cy + radius * math.sin(angle)))
    return points


def _svg_frame(instance: Instance, positions) -> str:
    """Draw one robot configuration; depends only on the positions, so
    equal configurations produce byte-identical frames."""
    pts = _layout(instance.graph)
    goals = {r.goal: r.id for r in instance.robots if r.goal is not None}
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{FRAME_SIZE}" '
        f'height="{FRAME_SIZE}" viewBox="0 0 {FRAME_SIZE} {FRAME_SIZE}">',
    ]
    for u, v in sorted(instance.graph.edges):
        (x1, y1), (x2, y2) = pts[u], pts[v]
        out.append(
            f'  <line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            'stroke="#999" stroke-width="2"/>'
        )
    for v, (x, y) in enumerate(pts):
        if v in goals:
            out.append(
                f'  <circle cx="{x:.1f}" cy="{y:.1f}" r="16" fill="none" '
                'stroke="#2a7" stroke-width="2" stroke-dasharray="4 3"/>'
            )
        out.append(
            f'  <circle cx="{x:.1f}" cy="{y:.1f}" r="10" fill="#eee" stroke="#333"/>'
        )
        out.append(
            f'  <text x="{x:.1f}" y="{y + 3.5:.1f}" font-size="9" '
            f'text-anchor="middle" fill="#333">{v}</text>'
        )
    for robot, v in zip(instance.robots, positions):
        x, y = pts[v]
        out.append(
            f'  <circle cx="{x:.1f}" cy="{y:.1f}" r="13" fill="#36c" '
            'fill-opacity="0.85" stroke="#124"/>'
        )
        out.append(
            f'  <text x="{x:.1f}" y="{y + 4:.1f}" font-size="10" '
            f'text-anchor="middle" fill="#fff">{robot.id}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_frames(instance: Instance, schedule: Schedule) -> list[str]:
    """One SVG document per time step, including the initial state.

    A schedule of horizon t yields t + 1 frames; a frame depends only on
    the robot positions at its step, so all-wait schedules repeat the
    same image.
    """
    if len(schedule.routes) != instance.k:
        raise InputError("schedule robot count does not match the instance")
    frames = []
    for step in range(schedule.horizon + 1):
        positions = [route.positions[step] for route in schedule.routes]
        frames.append(_svg_frame(instance, positions))
    return frames
