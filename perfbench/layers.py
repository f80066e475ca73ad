"""Which coordmp names the traced run wraps, and the per-layer metrics.

Each wrap names the module whose attribute a caller actually looks up: a
module that did ``from coordmp.oracle import solve_exact`` calls its own
copy of the name, so ``coordmp.approx.solve_exact`` and
``coordmp.twdp.solve_exact`` are wrapped next to ``coordmp.oracle``'s.
``render`` and ``cli`` are not wrapped; no workload's result waits on
the first, and the second is measured from outside as ``cli.import_ms``.
"""
from __future__ import annotations

from spans import ancestors, self_times

# (coordmp submodule, attribute, span name)
WRAPS = (
    ("oracle", "solve_exact", "oracle.solve_exact"),
    ("approx", "solve_exact", "oracle.solve_exact"),
    ("twdp", "solve_exact", "oracle.solve_exact"),
    ("oracle", "check_feasible", "oracle.check_feasible"),
    ("approx", "check_feasible", "oracle.check_feasible"),
    ("oracle", "solve_critical", "oracle.solve_critical"),
    ("approx", "solve_critical", "oracle.solve_critical"),
    ("approx", "approximate", "approx.approximate"),
    ("structure", "is_nice", "structure.is_nice"),
    ("approx", "is_nice", "structure.is_nice"),
    ("structure", "classify_vertex", "structure.classify_vertex"),
    ("approx", "classify_vertex", "structure.classify_vertex"),
    ("havenswap", "swap", "havenswap.swap"),
    ("approx", "swap", "havenswap.swap"),
    ("twdp", "solve_twdp", "twdp.solve_twdp"),
    ("twdp", "build_nice_td", "twdp.build_nice_td"),
    ("twdp", "dp_leaf", "twdp.dp_leaf"),
    ("twdp", "dp_introduce", "twdp.dp_introduce"),
    ("twdp", "dp_forget", "twdp.dp_forget"),
    ("twdp", "dp_join", "twdp.dp_join"),
    ("core", "validate_schedule", "core.validate_schedule"),
    ("approx", "validate_schedule", "core.validate_schedule"),
    ("hardness", "reduce_mcc", "hardness.reduce_mcc"),
    ("generators", "generate", "generators.generate"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAPS))
SETUP_SPANS = ("hardness.reduce_mcc", "generators.generate")
ORACLE_SOLVES = ("oracle.solve_exact", "oracle.solve_critical")
DP_STEPS = ("twdp.dp_leaf", "twdp.dp_introduce", "twdp.dp_forget", "twdp.dp_join")

# Every per-layer metric: (name, unit, better).
METRICS = tuple(
    [(f"{n}.calls", "count", "lower") for n in SPAN_NAMES]
    + [(f"{n}.self_s", "s", "lower") for n in SPAN_NAMES]
    + [
        ("oracle.states_expanded", "count", "lower"),
        ("oracle.states_per_s", "1/s", "higher"),
        ("oracle.solve_exact.nonoptimal_s", "s", "lower"),
        ("approx.precheck_share", "ratio", "lower"),
        ("approx.limit_errors", "count", "lower"),
        ("approx.fallback_exact_s", "s", "lower"),
        ("twdp.table_entries.max", "count", "lower"),
        ("twdp.table_entries.sum", "count", "lower"),
        ("twdp.certify_s", "s", "lower"),
        ("twdp.upper_bound_s", "s", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def _oracle_hook(result, span):
    span.counts["states"] = result.states_expanded
    span.counts["status"] = result.status


def _table_hook(result, span):
    span.counts["entries"] = len(result.entries)


HOOKS = {"oracle.solve_exact": _oracle_hook}
HOOKS.update({name: _table_hook for name in DP_STEPS})


def install(tracer, cm) -> None:
    for module, attr, name in WRAPS:
        tracer.wrap(getattr(cm, module), attr, name)


def layer_metrics(setup_spans, pass_spans, passes: int) -> dict[str, float]:
    """Per-layer metrics: setup layers per set-up, the rest per traced pass."""
    out = {}
    for spans, names, per in (
        (setup_spans, SETUP_SPANS, 1),
        (pass_spans, [n for n in SPAN_NAMES if n not in SETUP_SPANS], passes),
    ):
        selfs = self_times(spans)
        for name in names:
            mine = [s for s in spans if s.name == name]
            out[f"{name}.calls"] = len(mine) / per
            out[f"{name}.self_s"] = sum(selfs[s.id] for s in mine) / per

    spans = pass_spans
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def dur(s):
        return s.end - s.start

    def parent_name(s):
        return by_id[s.parent].name if s.parent is not None else None

    exact = [s for s in spans if s.name == "oracle.solve_exact"]
    states = sum(s.counts.get("states", 0) for s in exact)
    exact_self = sum(selfs[s.id] for s in exact)
    out["oracle.states_expanded"] = states / passes
    out["oracle.states_per_s"] = states / exact_self if exact_self > 0 else 0.0
    out["oracle.solve_exact.nonoptimal_s"] = (
        sum(dur(s) for s in exact if s.counts.get("status") != "optimal") / passes
    )

    approx = [s for s in spans if s.name == "approx.approximate"]
    approx_total = sum(dur(s) for s in approx)
    precheck = sum(
        dur(s)
        for s in spans
        if s.name == "oracle.check_feasible"
        and any(a.name == "approx.approximate" for a in ancestors(s, by_id))
    )
    out["approx.precheck_share"] = precheck / approx_total if approx_total > 0 else 0.0
    out["approx.limit_errors"] = (
        sum(1 for s in approx if s.outcome == "LimitError") / passes
    )
    out["approx.fallback_exact_s"] = (
        sum(
            dur(s)
            for s in spans
            if s.name in ORACLE_SOLVES and parent_name(s) == "approx.approximate"
        )
        / passes
    )

    entries = [s.counts["entries"] for s in spans if "entries" in s.counts]
    out["twdp.table_entries.max"] = max(entries, default=0)
    out["twdp.table_entries.sum"] = sum(entries) / passes
    out["twdp.certify_s"] = (
        sum(dur(s) for s in exact if parent_name(s) == "twdp.solve_twdp") / passes
    )
    out["twdp.upper_bound_s"] = (
        sum(dur(s) for s in approx if parent_name(s) == "twdp.solve_twdp") / passes
    )
    return out
