"""Attack-cell benchmark: seeded (circuit, defense, attack) workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sat_cegis --seed 1 --seconds 30 --trace 0

A cell is one ``repro.attacks.engine.run_attack`` call, which is what
``fall-attack`` runs. Cells run closed-loop in this one process, one at
a time, with ``AttackConfig(jobs=1)``. After one untimed warm-up cell,
the first pass over the workload's cells is always complete; further
passes repeat the same cells on fresh circuit copies until
``--seconds`` have elapsed, and each cell's time is the median of its
passes. Repeated passes must reproduce the first pass's results
exactly.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every
cell untraced and traced in turn, then repeats traced cells until
``--seconds`` have elapsed (at least :data:`TRACED_RERUNS` of them),
and prints the per-layer metrics, the tracing overhead and the share
of cell time no layer span covers; the spans are written to
``.perfbench-out/``.

Every returned key is verified outside the timed region
(:mod:`pb_verify`). The last line of standard output is one JSON
object; the exit code is non-zero when any cell failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
# Set-up is repeated until it has taken SETUP_SECONDS (at least
# SETUP_MIN_REPEATS, at most SETUP_MAX_REPEATS builds); setup_s is the
# median build.
SETUP_SECONDS = 2.0
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
# A traced run re-runs at least this many cells (one per defense of
# the round-robin cell order) to check that the traced counters repeat.
TRACED_RERUNS = 5

# (name, unit) of the metrics printed with --trace 0; the JSON line
# carries the first six (BENCHMARK.json "end_to_end").
END_TO_END = (
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("cell_s_p50", "s"),
    ("cell_s_p75", "s"),
    ("exact_key_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)
# Printed but kept out of the JSON metrics: they are 0 on some workload
# (no oracle in fall_oracle_less; no failures), and a gated metric must
# never be 0. ``failed_rate`` is the JSON ``failed`` / ``attempted``.
REPORTED = (("oracle_queries", "count"), ("failed_rate", "ratio"))

# (name, unit) of the metrics printed with --trace 1 (BENCHMARK.json
# "per_layer").
PER_LAYER = (
    ("sat.solver.solve_calls", "count"),
    ("sat.solver.solve_s", "s"),
    ("sat.solver.propagations", "count"),
    ("sat.solver.props_per_solve", "count"),
    ("sat.solver.props_per_s", "1/s"),
    ("sat.solver.conflicts", "count"),
    ("sat.solver.decisions", "count"),
    ("sat.solver.vars_at_solve_max", "count"),
    ("sat.solver.load_s", "s"),
    ("circuit.tseitin.encode_calls", "count"),
    ("circuit.tseitin.encode_s", "s"),
    ("circuit.tseitin.cofactor_calls", "count"),
    ("circuit.tseitin.cofactor_s", "s"),
    ("circuit.tseitin.clauses", "count"),
    ("circuit.circuit.region_order_calls", "count"),
    ("circuit.circuit.region_order_s", "s"),
    ("sat.cardinality.calls", "count"),
    ("sat.cardinality.s", "s"),
    ("circuit.equivalence.check_calls", "count"),
    ("circuit.equivalence.check_s", "s"),
    ("circuit.compiled.compile_calls", "count"),
    ("circuit.compiled.compile_misses", "count"),
    ("circuit.compiled.compile_s", "s"),
    ("circuit.sharding.sweep_calls", "count"),
    ("circuit.sharding.sweep_s", "s"),
    ("circuit.sharding.sweep_patterns_max", "count"),
    ("attacks.oracle.calls", "count"),
    ("attacks.oracle.patterns", "count"),
    ("attacks.oracle.s", "s"),
    ("attacks.fall.comparators_s", "s"),
    ("attacks.fall.support_match_s", "s"),
    ("attacks.fall.functional_analysis_s", "s"),
    ("attacks.fall.key_derivation_s", "s"),
    ("attacks.fall.sliding_window_s", "s"),
    ("attacks.fall.distance_2h_s", "s"),
    ("attacks.fall.unateness_s", "s"),
    ("attacks.fall.analyses", "count"),
    ("attacks.fall.prefilter_rejections", "count"),
    ("attacks.fall.confirm_hit_ratio", "ratio"),
    ("attacks.sat_attack.dips", "count"),
    ("attacks.key_confirmation.iterations", "count"),
    ("attacks.key_confirmation.s", "s"),
    ("attacks.engine.overhead_s", "s"),
    ("oracle_queries", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.uncovered_share", "ratio"),
)

#: Counters that must repeat exactly between passes of one seed.
DETERMINISTIC_COUNTS = (
    "sat.solver.propagations",
    "sat.solver.solve_calls",
    "circuit.tseitin.clauses",
    "attacks.oracle.patterns",
)

# Span-derived per-layer times: metric -> span name. Layer spans give
# self time (children excluded); analysis and family spans are inclusive.
_SELF_TIMES = {
    "sat.solver.solve_s": "sat.solver.solve",
    "sat.solver.load_s": "sat.solver.load",
    "circuit.tseitin.encode_s": "circuit.tseitin.encode",
    "circuit.tseitin.cofactor_s": "circuit.tseitin.cofactor",
    "circuit.circuit.region_order_s": "circuit.circuit.region_order",
    "sat.cardinality.s": "sat.cardinality",
    "circuit.equivalence.check_s": "circuit.equivalence.check",
    "circuit.compiled.compile_s": "circuit.compiled.compile",
    "circuit.sharding.sweep_s": "circuit.sharding.sweep",
    "attacks.oracle.s": "attacks.oracle",
}
_INCLUSIVE_TIMES = {
    "attacks.fall.sliding_window_s": "attacks.fall.sliding_window",
    "attacks.fall.distance_2h_s": "attacks.fall.distance_2h",
    "attacks.fall.unateness_s": "attacks.fall.unateness",
    "attacks.key_confirmation.s": "attacks.key_confirmation",
}
_FALL_STAGES = ("comparators", "support_match", "functional_analysis",
                "key_derivation")
_VOLATILE_KEYS = frozenset({"telemetry", "stage_seconds", "elapsed_seconds"})


@dataclass
class CellRun:
    """One timed ``run_attack`` call."""

    seconds: float
    probe: float  # pb_stats.probe_host() just before the call
    result: object = None  # AttackResult, or None when the call raised
    error: str | None = None

    def fingerprint(self) -> str:
        """Everything the run returned except wall-clock readings."""
        if self.error is not None:
            return json.dumps(["error", self.error])
        result = self.result
        return json.dumps(
            [
                result.status.value,
                result.key,
                result.oracle_queries,
                result.iterations,
                result.candidates,
                _stable(result.details),
            ],
            sort_keys=True,
            default=repr,
        )


def _stable(value):
    if isinstance(value, dict):
        return {
            key: _stable(item)
            for key, item in value.items()
            if key not in _VOLATILE_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [_stable(item) for item in value]
    return value


def run_cell(cell, tracer=None) -> CellRun:
    """Run one cell on fresh inputs and time the ``run_attack`` call."""
    from pb_stats import probe_host
    from pb_workloads import TIME_LIMIT
    from repro.attacks.base import AttackConfig
    from repro.attacks.engine import run_attack

    locked, oracle = cell.fresh_inputs()
    config = AttackConfig(
        h=cell.spec.h,
        time_limit=TIME_LIMIT,
        jobs=1,
        candidates=cell.candidates,
    )
    args = (cell.spec.attack, locked, oracle, config)
    probe = probe_host()
    start = time.perf_counter()
    try:
        if tracer is None:
            result = run_attack(*args)
        else:
            result = tracer.run_cell(cell.spec.cell_id, run_attack, *args)
    except Exception as exc:  # a raising cell is a failed operation
        return CellRun(time.perf_counter() - start, probe, error=f"{exc!r}")
    return CellRun(time.perf_counter() - start, probe, result)


def setup(workload: str, seed: int, repeat: bool):
    """Build the cells (repeatedly if ``repeat``).

    Returns the cells and each build's seconds at the reference host
    speed (probed before and after the build).
    """
    from pb_stats import at_reference_speed, probe_host
    from pb_workloads import build_cells, plan

    specs = plan(workload, seed)
    raw: list[float] = []
    scaled: list[float] = []
    cells = None
    while not raw or repeat and (
        len(raw) < SETUP_MIN_REPEATS
        or sum(raw) < SETUP_SECONDS and len(raw) < SETUP_MAX_REPEATS
    ):
        cells = None
        gc.collect()
        before = probe_host()
        start = time.perf_counter()
        cells = build_cells(specs)
        raw.append(time.perf_counter() - start)
        speed = (before + probe_host()) / 2
        scaled.append(at_reference_speed(raw[-1], speed))
    return cells, scaled


def settle() -> None:
    """Collect garbage, then exempt every live object from collection.

    Called before each pass, so the cells built in set-up and the
    results of earlier passes add nothing to the timed cells' garbage
    collections, and every pass starts from the same collector state.
    """
    gc.collect()
    gc.freeze()


def repeat_until(cells, first, deadline, run, min_reruns=0):
    """Repeat passes after ``first`` until ``deadline``.

    ``run(cell)`` returns ``(CellRun, counts)``; a repeat whose
    fingerprint or counts differ from ``first``'s is recorded as drift.
    At least ``min_reruns`` cells are repeated, deadline or not.
    Returns ``(passes, drift)``: each pass is a list of
    ``(cell index, CellRun)``, the first pass included.
    """
    passes = [[(index, run_) for index, (run_, _) in enumerate(first)]]
    drift: list[str] = []
    reruns = 0
    while time.perf_counter() < deadline or reruns < min_reruns:
        settle()
        passes.append([])
        for index, cell in enumerate(cells):
            if time.perf_counter() >= deadline and reruns >= min_reruns:
                break
            reruns += 1
            again, counts = run(cell)
            reference, reference_counts = first[index]
            if (
                again.fingerprint() != reference.fingerprint()
                or counts != reference_counts
            ):
                drift.append(cell.spec.cell_id)
            passes[-1].append((index, again))
    return passes, drift


def scaled_samples(count: int, passes) -> list[list[float]]:
    """Each cell's times at the reference host speed, one per pass.

    A pass is rescaled by the median of its probes: the probe's own
    jitter averages out, while drift between passes is followed.
    """
    from pb_stats import at_reference_speed, median

    samples: list[list[float]] = [[] for _ in range(count)]
    for runs in passes:
        if not runs:
            continue
        speed = median([run_.probe for _, run_ in runs])
        for index, run_ in runs:
            samples[index].append(at_reference_speed(run_.seconds, speed))
    return samples


# Honest non-answers: the attack ran and said it found no single key.
# They lower exact_key_rate but are not failed operations.
NO_ANSWER = ("failed", "multiple_candidates")


def verify(cells, runs):
    """Per-cell ``(verdict, how)``.

    ``verdict`` is ``exact``, one of :data:`NO_ANSWER`, or a failure:
    ``raised``, ``timeout``, ``not_applicable``, ``wrong``, ``undecided``
    or ``no-key`` (SUCCESS without a key).
    """
    from pb_verify import key_verdict
    from repro.attacks.results import AttackStatus

    verdicts = []
    for cell, run_ in zip(cells, runs):
        if run_.error is not None:
            verdicts.append(("raised", run_.error))
        elif run_.result.status is not AttackStatus.SUCCESS:
            verdicts.append((run_.result.status.value, "status"))
        elif run_.result.key is None:
            verdicts.append(("no-key", "status"))
        else:
            verdicts.append(
                key_verdict(cell.original, cell.locked, run_.result.key)
            )
    return verdicts


def end_to_end(cells, runs, samples, setup_seconds, verdicts, failed):
    from pb_stats import median, nearest_rank, tail_percentile

    if tail_percentile(len(cells)) != 75:
        raise ValueError(
            f"{len(cells)} cells: p75 is not the highest percentile with "
            "10 cells beyond it"
        )
    per_cell = [median(values) for values in samples]
    exact = sum(1 for verdict, _ in verdicts if verdict == "exact")
    return {
        "setup_s": median(setup_seconds),
        "cells_per_s": len(cells) / sum(per_cell),
        "cell_s_p50": median(per_cell),
        "cell_s_p75": nearest_rank(per_cell, 75),
        "exact_key_rate": exact / len(cells),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "oracle_queries": sum(
            run_.result.oracle_queries for run_ in runs if run_.result
        ),
        "failed_rate": len(failed) / len(cells),
    }


def per_layer(untraced, traced, tracer):
    """Per-layer metrics of one traced pass (see README for the map)."""
    from pb_trace import CELL, FAMILY_SPANS, self_times, uncovered_share

    spans = tracer.spans
    own = self_times(spans)
    totals: dict[str, float] = {}
    for index, (name, start, end, parent, cell) in enumerate(spans):
        totals[("self", name)] = totals.get(("self", name), 0.0) + own[index]
        totals[("all", name)] = totals.get(("all", name), 0.0) + end - start
    metrics: dict[str, float] = {}
    for metric, name in _SELF_TIMES.items():
        metrics[metric] = totals.get(("self", name), 0.0)
    for metric, name in _INCLUSIVE_TIMES.items():
        metrics[metric] = totals.get(("all", name), 0.0)
    counts: dict[str, int] = {}
    for cell_counts in tracer.counts.values():
        for metric, value in cell_counts.items():
            if metric.endswith("_max"):
                counts[metric] = max(counts.get(metric, 0), value)
            else:
                counts[metric] = counts.get(metric, 0) + value
    for metric, unit in PER_LAYER:
        if unit == "count" and metric not in metrics:
            metrics[metric] = counts.get(metric, 0)
    solves = counts.get("sat.solver.solve_calls", 0)
    props = counts.get("sat.solver.propagations", 0)
    metrics["sat.solver.props_per_solve"] = props / solves if solves else 0.0
    solve_s = metrics["sat.solver.solve_s"]
    metrics["sat.solver.props_per_s"] = props / solve_s if solve_s else 0.0
    confirms = counts.get("attacks.fall.confirm_calls", 0)
    metrics["attacks.fall.confirm_hit_ratio"] = (
        counts.get("attacks.fall.confirmed", 0) / confirms if confirms else 0.0
    )

    fall_runs = [r.result for r in traced if r.result and r.result.attack == "fall"]
    for stage in _FALL_STAGES:
        metrics[f"attacks.fall.{stage}_s"] = sum(
            r.details["report"]["stage_seconds"].get(stage, 0.0)
            for r in fall_runs
        )
    metrics["attacks.fall.analyses"] = sum(
        r.details["report"]["analyses_attempted"] for r in fall_runs
    )
    metrics["attacks.fall.prefilter_rejections"] = sum(
        r.details["report"]["prefilter_rejections"] for r in fall_runs
    )
    metrics["attacks.sat_attack.dips"] = sum(
        r.result.iterations for r in traced
        if r.result and r.result.attack == "sat"
    )
    metrics["attacks.key_confirmation.iterations"] = sum(
        r.result.iterations for r in traced
        if r.result and r.result.attack == "key-confirmation"
    )
    family = frozenset(FAMILY_SPANS)
    cell_time = {i: s[2] - s[1] for i, s in enumerate(spans) if s[0] == CELL}
    inner = sum(
        s[2] - s[1] for s in spans if s[0] in family and s[3] in cell_time
    )
    metrics["attacks.engine.overhead_s"] = sum(cell_time.values()) - inner
    metrics["oracle_queries"] = sum(
        r.result.oracle_queries for r in traced if r.result
    )
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    metrics["trace.overhead_ratio"] = untraced_s / traced_s
    metrics["trace.uncovered_share"] = uncovered_share(spans)
    return metrics


def write_spans(path: Path, spans) -> None:
    origin = spans[0][1] if spans else 0.0
    with path.open("w") as handle:
        for name, start, end, parent, cell in spans:
            handle.write(
                json.dumps([name, start - origin, end - origin, parent, cell])
                + "\n"
            )


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Attack-cell benchmark (see perfbench/README.md)."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {source}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))
    from pb_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    import repro.attacks  # noqa: F401  (every family, before tracing)

    if args.trace:
        return traced_run(args)
    return untraced_run(args)


def untraced_run(args) -> int:
    from pb_stats import PROBE_REFERENCE_S, median, samples_beyond

    cells, setup_seconds = setup(args.workload, args.seed, repeat=True)
    run_cell(cells[0])  # warm-up: lazy imports and process-wide caches
    settle()
    start = time.perf_counter()
    first = [(run_cell(cell), None) for cell in cells]
    passes, drift = repeat_until(
        cells, first, start + args.seconds, lambda cell: (run_cell(cell), None)
    )
    gc.unfreeze()
    samples = scaled_samples(len(cells), passes)
    runs = [run_ for run_, _ in first]
    verdicts = verify(cells, runs)
    failed = _failed(cells, verdicts, drift)
    metrics = end_to_end(cells, runs, samples, setup_seconds, verdicts, failed)
    beyond = samples_beyond(len(cells), 75)
    all_runs = [run_ for runs_ in passes for _, run_ in runs_]
    raw_rate = len(all_runs) / sum(run_.seconds for run_ in all_runs)
    probe = median([run_.probe for run_ in all_runs])

    print(f"workload {args.workload} seed {args.seed}: {len(cells)} cells, "
          f"{len(passes)} passes, {len(all_runs)} timed runs")
    print(f"  host probe median {probe * 1e3:.3f} ms (reference "
          f"{PROBE_REFERENCE_S * 1e3:g} ms); unscaled cells/s {raw_rate:.4g}")
    for name, unit in END_TO_END + REPORTED:
        note = f"  ({beyond} cells beyond)" if name == "cell_s_p75" else ""
        print(f"  {name:<16} {metrics[name]:>14.6g} {unit}{note}")
    _print_failures(failed, verdicts, cells)
    _write_report(args, {
        "metrics": metrics,
        "passes": len(passes),
        "failed": failed,
        "cells": [
            {
                "cell": cell.spec.cell_id,
                "scaled_seconds": cell_samples,
                "runs": [
                    [run_.seconds, run_.probe]
                    for runs_ in passes
                    for index, run_ in runs_
                    if index == position
                ],
                "status": run_.result.status.value if run_.result else None,
                "oracle_queries": run_.result.oracle_queries
                if run_.result else None,
                "verdict": verdict,
                "how": how,
            }
            for position, (cell, run_, cell_samples, (verdict, how))
            in enumerate(zip(cells, runs, samples, verdicts))
        ],
    })
    return _emit(len(cells), failed, {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in END_TO_END
    })


def traced_run(args) -> int:
    from pb_trace import Tracer

    cells, _ = setup(args.workload, args.seed, repeat=False)
    run_cell(cells[0])  # warm-up: lazy imports and process-wide caches
    settle()
    start = time.perf_counter()
    # Untraced and traced runs alternate cell by cell, so both see the
    # same host speed and the same warm process.
    tracer = Tracer()
    untraced, traced = [], []
    for cell in cells:
        untraced.append(run_cell(cell))
        with tracer:
            traced.append(run_cell(cell, tracer))
    drift = [
        cell.spec.cell_id
        for cell, plain, traced_run_ in zip(cells, untraced, traced)
        if plain.fingerprint() != traced_run_.fingerprint()
    ]

    def counts_of(run_tracer, cell):
        cell_counts = run_tracer.counts.get(cell.spec.cell_id, {})
        return {name: cell_counts.get(name, 0) for name in DETERMINISTIC_COUNTS}

    def run_traced(cell):
        again = Tracer()
        with again:
            run_ = run_cell(cell, again)
        return run_, counts_of(again, cell)

    first = [(run_, counts_of(tracer, cell)) for cell, run_ in zip(cells, traced)]
    passes, repeat_drift = repeat_until(
        cells, first, start + args.seconds, run_traced,
        min_reruns=TRACED_RERUNS,
    )
    gc.unfreeze()
    drift += repeat_drift
    verdicts = verify(cells, untraced)
    failed = _failed(cells, verdicts, drift)
    metrics = per_layer(untraced, traced, tracer)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
    write_spans(spans_path, tracer.spans)
    reruns = sum(len(runs_) for runs_ in passes[1:])
    print(f"workload {args.workload} seed {args.seed}: {len(cells)} cells, "
          f"each run untraced and traced, then {reruns} traced repeats; "
          f"{len(tracer.spans)} spans -> {spans_path.relative_to(ROOT)}")
    print(f"  tracing overhead: traced cells/s = "
          f"{metrics['trace.overhead_ratio']:.3f} x untraced cells/s")
    print(f"  run_attack time covered by no layer span: "
          f"{100 * metrics['trace.uncovered_share']:.1f}%")
    for name, unit in PER_LAYER:
        print(f"  {name:<38} {metrics[name]:>14.6g} {unit}")
    _print_failures(failed, verdicts, cells)
    _write_report(args, {"metrics": metrics, "traced_repeats": reruns,
                         "failed": failed, "spans": str(spans_path.name)})
    return _emit(len(cells), failed, {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in PER_LAYER
    })


def _failed(cells, verdicts, drift):
    """Failed operations: cell id -> reason (honest non-answers excluded)."""
    failed = {
        cell.spec.cell_id: f"{verdict} ({how})"
        for cell, (verdict, how) in zip(cells, verdicts)
        if verdict != "exact" and verdict not in NO_ANSWER
    }
    for cell_id in drift:
        failed.setdefault(cell_id, "results differ between passes")
    return failed


def _print_failures(failed, verdicts, cells) -> None:
    for cell, (verdict, how) in zip(cells, verdicts):
        if verdict in NO_ANSWER:
            print(f"  no key (not exact, not failed) {cell.spec.cell_id}: "
                  f"attack status {verdict}")
    for cell_id, reason in sorted(failed.items()):
        print(f"  FAILED {cell_id}: {reason}")


def _write_report(args, report) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True, default=repr))


def _emit(attempted, failed, metrics) -> int:
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
