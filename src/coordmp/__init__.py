"""Energy-optimal coordinated motion planning on graphs.

Solvers for moving labeled robots between vertex configurations with
parallel, conflict-free steps while minimizing the number of individual
moves: an exact configuration-space search, structure-aware reductions,
haven-based rearrangement and approximation, a tree-decomposition dynamic
program, and a clique-hardness reduction.
"""
from coordmp.core import (
    Graph,
    InfeasibleError,
    InputError,
    Instance,
    LimitError,
    Robot,
    Route,
    Schedule,
    UnsupportedStructureError,
    ValidationResult,
    parse_instance,
    parse_schedule,
    render_instance,
    render_schedule,
    validate_schedule,
)
from coordmp.havenswap import swap
from coordmp.oracle import (
    Limits,
    SearchResult,
    check_feasible,
    critical_vertices,
    solve_critical,
    solve_exact,
    solve_restricted,
)
from coordmp.structure import (
    Haven,
    MotionDomain,
    TwoPath,
    VertexTypeTag,
    check_haven,
    classify_vertex,
    compute_motion_domain,
    is_nice,
    two_path_around,
)
from coordmp.approx import (
    RestrictionResult,
    approximate,
    energy_ball_restrict,
    solve_gcmp1,
)
from coordmp.twdp import (
    DOWN,
    UP,
    DPTable,
    NiceTreeDecomposition,
    TDNode,
    build_nice_td,
    dp_forget,
    dp_introduce,
    dp_join,
    dp_leaf,
    solve_twdp,
    validate_td,
)
from coordmp.hardness import (
    MulticoloredGraph,
    Reduction,
    parse_mcc,
    reduce_mcc,
    render_mcc,
    witness_schedule,
)
from coordmp.generators import generate
from coordmp.render import render_dot, render_frames, render_text_trace

__all__ = [
    "DOWN",
    "DPTable",
    "Graph",
    "Haven",
    "InfeasibleError",
    "InputError",
    "Instance",
    "LimitError",
    "Limits",
    "MotionDomain",
    "MulticoloredGraph",
    "NiceTreeDecomposition",
    "Reduction",
    "RestrictionResult",
    "Robot",
    "Route",
    "Schedule",
    "SearchResult",
    "TDNode",
    "TwoPath",
    "UP",
    "UnsupportedStructureError",
    "ValidationResult",
    "VertexTypeTag",
    "approximate",
    "build_nice_td",
    "check_feasible",
    "check_haven",
    "classify_vertex",
    "compute_motion_domain",
    "critical_vertices",
    "dp_forget",
    "dp_introduce",
    "dp_join",
    "dp_leaf",
    "energy_ball_restrict",
    "generate",
    "is_nice",
    "parse_instance",
    "parse_mcc",
    "parse_schedule",
    "reduce_mcc",
    "render_dot",
    "render_frames",
    "render_instance",
    "render_mcc",
    "render_schedule",
    "render_text_trace",
    "solve_critical",
    "solve_exact",
    "solve_gcmp1",
    "solve_restricted",
    "solve_twdp",
    "swap",
    "two_path_around",
    "validate_schedule",
    "validate_td",
    "witness_schedule",
]

__version__ = "0.1.0"
