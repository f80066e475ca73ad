"""Seeded benchmark for coordmp: one workload per process, answers checked.

Usage, from the root of a checkout (coordmp is imported from ``src/``):

    python3 perfbench/run.py --workload exact-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
passes with spans recorded around the calls into coordmp's layers and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A
wrong answer prints the reason on standard error and exits with 1.

Timings are taken on a shared host whose speed changes in phases lasting
milliseconds to minutes.  Every timed interval (a set-up, a solve, a CLI
run) is scaled to a host of fixed speed by host-speed probes run around it,
and for solves also during it (see ``speed.py``); each repeated timing is
repeated across the whole run and its median is reported.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned.json"
SPANS_DIR = ROOT / ".perfbench-spans"

from layers import METRICS as LAYER_METRICS  # noqa: E402
from layers import HOOKS, install, layer_metrics  # noqa: E402
from spans import Tracer, write_spans  # noqa: E402
from speed import Meter  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    WORKLOADS,
    WrongAnswer,
    render_hash,
)

STATE_CAP_ENV = "COORDMP_STATE_CAP"
MIN_SAMPLES = 100  # so that at least ten solves lie beyond the p90
SETUPS_PER_PASS = 3
CLI_PER_PASS = 3
MIN_REPEATS = 4  # set-ups and CLI runs per run, at the least
MAX_MEASURE_S = 120.0  # keeps a badly regressed run inside its time limit
IMPORT_RUNS = 9

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("solve_p50_ms", "ms"),
    ("solve_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("energy_bound_ratio", "ratio"),
    ("cli_solve_ms", "ms"),
)


class Modules:
    """The imported coordmp package and the submodules it loaded."""

    def __init__(self, pkg):
        self.pkg = pkg
        for name in ("core", "oracle", "approx", "structure", "havenswap",
                     "twdp", "hardness", "generators"):
            setattr(self, name, sys.modules[f"coordmp.{name}"])


def load_coordmp(fresh: bool) -> Modules:
    """Import coordmp from the checkout's src/, re-executing it if fresh."""
    if fresh:
        for name in [m for m in sys.modules if m == "coordmp" or m.startswith("coordmp.")]:
            del sys.modules[name]
    pkg = importlib.import_module("coordmp")
    where = Path(pkg.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"coordmp imported from {where}, not from {SRC}")
    return Modules(pkg)


def clean_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != STATE_CAP_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def percentiles(samples) -> tuple[float, float, int]:
    """p50, p90 (interpolated) and how many samples lie above the p90."""
    cuts = statistics.quantiles(samples, n=10, method="inclusive")
    return cuts[4], cuts[8], sum(1 for s in samples if s > cuts[8])


# ---------------------------------------------------------------------------
# set-up, solves and CLI runs


def _build(wl, seed):
    cm = load_coordmp(fresh=True)
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    return cm, wl.cases(cm, seed, pinned["pins"].get(wl.name, {})), pinned


def build(wl, seed, meter):
    """Import coordmp afresh, load the pinned answers, build the cases.

    Returns the module set, the cases, the pinned file and the set-up's
    interval on ``meter``'s time line.
    """
    (cm, cases, pinned), interval = meter.timed(_build, wl, seed)
    return cm, cases, pinned, interval


def rebuild(wl, seed, meter):
    """Time one more set-up, then put the modules in use back in place."""
    kept = {k: v for k, v in sys.modules.items() if k == "coordmp" or k.startswith("coordmp.")}
    interval = build(wl, seed, meter)[3]
    sys.modules.update(kept)
    return interval


def run_pass(wl, cm, validate, cases, meter, tracer=None):
    """Solve every case once, probing the host between and during solves.

    Returns each case's solve interval and the outcomes.
    """
    gc.collect()  # garbage from the last pass is not charged to this one
    intervals, outcomes = [], []
    meter.mark()
    with meter.sampling():
        for idx, case in enumerate(cases):
            if tracer is not None:
                tracer.instance = idx
                with tracer.span("bench.solve"):
                    t0 = time.perf_counter()
                    result = wl.solve(cm, case)
                    t1 = time.perf_counter()
            else:
                t0 = time.perf_counter()
                result = wl.solve(cm, case)
                t1 = time.perf_counter()
            meter.mark()
            intervals.append((t0, t1))
            outcomes.append(wl.check(cm, validate, case, result))
    return intervals, outcomes


class CliRunner:
    """Cold ``python -m coordmp.cli solve`` runs on one pinned instance.

    The instance is the workload's ``cli_key`` case as built for the
    default seed, so that every seed times the same CLI input.
    """

    def __init__(self, wl, cm, validate, pins, workdir, meter):
        self.wl, self.cm, self.validate, self.meter = wl, cm, validate, meter
        self.case = next(c for c in wl.cases(cm, DEFAULT_SEED, pins) if c.key == wl.cli_key)
        path = Path(workdir) / "instance.gcmp"
        path.write_text(cm.core.render_instance(self.case.instance), encoding="utf-8")
        self.argv = [sys.executable, "-m", "coordmp.cli", "solve", "--alg", wl.alg,
                     "-i", str(path), "--state-cap", str(wl.state_cap)]
        if wl.alg == "twdp":
            self.argv += ["--checkpoint-budget", str(wl.checkpoint_budget)]

    def run(self):
        """One checked run; returns its interval on the meter's time line."""
        proc, interval = self.meter.timed(
            subprocess.run, self.argv, cwd=ROOT, env=clean_env(),
            capture_output=True, text=True, timeout=120)
        self.check(proc)
        return interval

    def check(self, proc) -> None:
        case = self.case
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines or not lines[0].startswith(f"alg={self.wl.alg} "):
            raise WrongAnswer(f"cli on {case.key}: exit {proc.returncode}: {proc.stderr.strip()}")
        fields = dict(tok.split("=", 1) for tok in lines[0].split())
        energy = int(fields["energy"])
        if fields["status"] not in ("optimal", "ok"):
            raise WrongAnswer(f"cli on {case.key}: status {fields['status']}")
        if "energy" in case.expect and energy != case.expect["energy"]:
            raise WrongAnswer(f"cli on {case.key}: energy {energy}, pinned {case.expect['energy']}")
        if len(lines) > 1:
            schedule = self.cm.core.parse_schedule("\n".join(lines[1:]) + "\n", case.instance)
            report = self.validate(case.instance, schedule)
            if not report.ok or report.energy != energy:
                raise WrongAnswer(f"cli on {case.key}: schedule does not check")


def measure(wl, cm, validate, cases, seconds, meter, tracer=None, between=None):
    """Repeat passes for about ``seconds`` (and two passes, MIN_SAMPLES solves).

    Returns the untraced and the traced solve times, scaled by ``meter``,
    each as one list per case, and every outcome.  ``between()`` runs after each pass.  With a
    tracer, passes alternate untraced and traced, so the traced run also
    yields the untraced wall time its overhead is measured against.
    """
    plain = [[] for _ in cases]
    traced = [[] for _ in cases]
    outcomes = []
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(traced[0]) < len(plain[0])
        if tracer is not None:
            tracer.enabled = use_trace
        intervals, outs = run_pass(wl, cm, validate, cases, meter,
                                   tracer if use_trace else None)
        for column, interval in zip(traced if use_trace else plain, intervals):
            column.append(interval)
        outcomes.extend(outs)
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        passes = len(plain[0]) + len(traced[0])
        if tracer is not None:
            enough = len(traced[0]) >= 2
        else:
            enough = passes >= 2 and len(cases) * passes >= MIN_SAMPLES
        # Stop once enough is measured and another pass would end past the
        # deadline, so that a run takes about ``seconds`` however long a pass is.
        if (enough and elapsed + elapsed / passes > seconds) or elapsed >= MAX_MEASURE_S:
            break
    if tracer is not None:
        tracer.enabled = False

    def scale(by_case):
        return [[meter.scaled(iv) for iv in column] for column in by_case]

    return scale(plain), scale(traced), outcomes


def set_wall(by_case) -> float:
    """Time to solve the whole set once: the sum of each case's median solve."""
    return sum(statistics.median(column) for column in by_case)


def cli_import_ms() -> float:
    """Cold ``import coordmp`` minus a bare interpreter start, fastest of each."""
    bare, full = [], []
    env = clean_env()
    for _ in range(IMPORT_RUNS):
        for argv, sink in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import coordmp"], full)):
            t0 = time.perf_counter()
            subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=60)
            sink.append(time.perf_counter() - t0)
    return (min(full) - min(bare)) * 1000


def energy_bound_ratio(cases, outcomes) -> float:
    """Sum of energies over the sum of distance lower bounds, solved cases.

    This is 1 + the energy excess ratio; it is reported in this form
    because the excess is exactly 0 where every answer meets the bound.
    """
    energy = bound = 0
    for case, out in zip(cases, outcomes):
        if out.energy is not None:
            energy += out.energy
            bound += case.lower_bound
    return energy / bound if bound else 0.0


# ---------------------------------------------------------------------------
# one workload


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    meter = Meter()
    cm, cases, pinned, setup_first = build(wl, args.seed, meter)
    pins = pinned["pins"].get(wl.name, {})
    validate = cm.core.validate_schedule  # unwrapped: checks stay untraced
    fingerprint = render_hash(cm, [c.instance for c in cases])
    print(f"perfbench workload={wl.name} seed={args.seed} trace={args.trace} "
          f"coordmp={cm.pkg.__file__}")
    recorded = pinned["fingerprints"].get(wl.name, {}).get(str(args.seed))
    note = "" if recorded is None else (
        " (matches the recorded one)" if recorded == fingerprint else " (RECORDED ONE DIFFERS)")
    print(f"fingerprint sha256={fingerprint}{note}")
    if recorded is not None and recorded != fingerprint:
        raise WrongAnswer(f"{wl.name} seed {args.seed}: the inputs changed")
    run = run_traced if args.trace else run_plain
    return run(args, wl, cm, cases, pins, validate, meter, setup_first)


def run_plain(args, wl, cm, cases, pins, validate, meter, setup_first) -> int:
    setups = [setup_first]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        cli = CliRunner(wl, cm, validate, pins, workdir, meter)
        cli.run()  # warms the file cache and writes the bytecode cache
        cli_runs = []

        def between():
            setups.extend(rebuild(wl, args.seed, meter) for _ in range(SETUPS_PER_PASS))
            cli_runs.extend(cli.run() for _ in range(CLI_PER_PASS))

        # The benchmark's own objects (cases, pinned answers) are moved out
        # of the collector's reach, so they do not slow the solvers' GC.
        gc.collect()
        gc.freeze()
        plain, _, outcomes = measure(wl, cm, validate, cases, args.seconds, meter,
                                     between=between)
        while len(setups) < MIN_REPEATS or len(cli_runs) < MIN_REPEATS:
            between()
    samples = [t for column in plain for t in column]
    p50, p90, beyond = percentiles(samples)
    metrics = {
        "setup_s": statistics.median(meter.scaled(iv) for iv in setups),
        "wall_s": set_wall(plain),
        "solve_p50_ms": p50 * 1000,
        "solve_p90_ms": p90 * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "energy_bound_ratio": energy_bound_ratio(cases, outcomes[: len(cases)]),
        "cli_solve_ms": statistics.median(meter.scaled(iv) for iv in cli_runs) * 1000,
    }
    print(f"instances={len(cases)} passes={len(plain[0])} samples={len(samples)} "
          f"beyond_p90={beyond} setups={len(setups)} cli_runs={len(cli_runs)} "
          f"probes={len(meter.took)} median_probe_ms={statistics.median(meter.took) * 1000:.4f}")
    print(f"energy_excess_ratio {metrics['energy_bound_ratio'] - 1:.6g} ratio")
    return report(metrics, dict(END_TO_END), outcomes)


def run_traced(args, wl, cm, cases, pins, validate, meter, setup_first) -> int:
    tracer = Tracer(HOOKS)
    install(tracer, cm)
    tracer.enabled = True
    with tracer.span("bench.setup"):
        wl.cases(cm, args.seed, pins)
    tracer.enabled = False
    setup_spans = list(tracer.spans)
    tracer.spans.clear()
    gc.collect()
    gc.freeze()
    plain, traced, outcomes = measure(wl, cm, validate, cases, args.seconds, meter, tracer)
    tracer.uninstall()
    metrics = layer_metrics(setup_spans, tracer.spans, len(traced[0]))
    metrics["cli.import_ms"] = cli_import_ms()
    metrics["trace.overhead_s"] = set_wall(traced) - set_wall(plain)
    SPANS_DIR.mkdir(exist_ok=True)
    out = SPANS_DIR / f"{wl.name}-seed{args.seed}.jsonl"
    write_spans(setup_spans + tracer.spans, out)
    print(f"traced passes={len(traced[0])} untraced wall_s={set_wall(plain):.4f} "
          f"traced wall_s={set_wall(traced):.4f} spans={out}")
    return report(metrics, {name: unit for name, unit, _ in LAYER_METRICS}, outcomes)


def report(metrics, units, outcomes) -> int:
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.kind == "limit")
    print(f"failed_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} "
          "solves ended at a limit)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; one combined result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                              text=True, timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            merged["correct"] = False
            code = 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (held-out seed for claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop(STATE_CAP_ENV, None)
    if not (SRC / "coordmp" / "__init__.py").is_file():
        print(f"perfbench: no coordmp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except WrongAnswer as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
