"""Tests for the schedule renderers."""
import pytest

from coordmp.core import Graph, InputError, Instance, Robot, Route, Schedule
from coordmp.render import render_dot, render_frames, render_text_trace


def _p3_instance():
    return Instance(Graph(3, [(0, 1), (1, 2)]), (Robot(0, 0, 2),))


def _walk_schedule():
    return Schedule((Route((0, 1, 2)),))


def test_trace_lists_movers_per_step():
    text = render_text_trace(_p3_instance(), _walk_schedule())
    lines = text.splitlines()
    assert lines[0] == "trace 1 2"
    assert lines[1] == "step 1: robot 0 0->1"
    assert lines[2] == "step 2: robot 0 1->2"
    assert len(lines) - 1 == 2  # step count equals the horizon


def test_trace_marks_all_wait_steps():
    inst = Instance(Graph(3, [(0, 1), (1, 2)]), (Robot(0, 1, 1),))
    sched = Schedule((Route((1, 1, 1)),))
    lines = render_text_trace(inst, sched).splitlines()
    assert lines[1:] == ["step 1: -", "step 2: -"]


def test_renderers_reject_mismatched_robot_count():
    two = Schedule((Route((0,)), Route((1,))))
    with pytest.raises(InputError):
        render_text_trace(_p3_instance(), two)
    for render in (render_dot, render_frames):
        with pytest.raises(
            InputError, match="^schedule robot count does not match the instance$"
        ):
            render(_p3_instance(), two)


def test_dot_describes_graph_and_endpoints():
    dot = render_dot(_p3_instance(), _walk_schedule())
    assert dot.startswith("graph gcmp {")
    assert "v0 -- v1;" in dot and "v1 -- v2;" in dot
    assert "start r0" in dot and "goal r0" in dot and "end r0" in dot
    bare = render_dot(_p3_instance())
    assert "end r0" not in bare


def test_frames_one_per_time_step():
    frames = render_frames(_p3_instance(), _walk_schedule())
    assert len(frames) == 3  # 2-step schedule: initial state plus each step
    for frame in frames:
        assert frame.startswith("<svg ") and frame.rstrip().endswith("</svg>")
    assert len(set(frames)) == 3  # the robot moves, so every frame differs


def test_all_wait_frames_are_identical():
    inst = Instance(Graph(4, [(0, 1), (1, 2), (2, 3)]), (Robot(0, 2, 2),))
    sched = Schedule((Route((2, 2, 2, 2)),))
    frames = render_frames(inst, sched)
    assert len(frames) == 4
    assert len(set(frames)) == 1


def test_frames_mark_goals():
    frames = render_frames(_p3_instance(), _walk_schedule())
    assert "stroke-dasharray" in frames[0]  # goal ring drawn


def test_renderers_label_robots_by_id():
    # Robot 7 is the instance's only robot (index 0): every label names 7.
    inst = Instance(Graph(3, [(0, 1), (1, 2)]), (Robot(7, 0, 2),))
    sched = _walk_schedule()  # the optimal schedule
    trace = render_text_trace(inst, sched).splitlines()
    assert trace[1:] == ["step 1: robot 7 0->1", "step 2: robot 7 1->2"]
    dot = render_dot(inst, sched)
    assert 'v0 [label="0\\nstart r7"];' in dot
    assert 'v2 [label="2\\ngoal r7, end r7"];' in dot
    assert "r0" not in dot
    for frame in render_frames(inst, sched):
        assert '<text x="' in frame and 'fill="#fff">7</text>' in frame
        assert 'fill="#fff">0</text>' not in frame
