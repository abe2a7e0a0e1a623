"""Self-tests of the benchmark's own logic.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pb_stats  # noqa: E402
import pb_trace  # noqa: E402
import pb_verify  # noqa: E402
import pb_workloads  # noqa: E402
from repro.attacks.engine import run_attack  # noqa: E402
from repro.attacks.oracle import IOOracle  # noqa: E402
from repro.circuit.library import paper_example_circuit  # noqa: E402
from repro.circuit.random_circuits import generate_random_circuit  # noqa: E402
from repro.circuit.tseitin import encode_circuit  # noqa: E402
from repro.locking import lock_antisat, lock_random_xor, lock_ttlock  # noqa: E402
from repro.sat.solver import Solver  # noqa: E402


def _load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_nearest_rank_percentiles():
    values = list(range(1, 41))  # 1..40
    assert pb_stats.nearest_rank(values, 50) == 20
    assert pb_stats.nearest_rank(values, 75) == 30
    assert pb_stats.nearest_rank(reversed(values), 75) == 30
    assert pb_stats.nearest_rank([7.0], 75) == 7.0
    with pytest.raises(ValueError):
        pb_stats.nearest_rank([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    assert pb_stats.samples_beyond(40, 75) == 10
    assert pb_stats.tail_percentile(40) == 75
    assert pb_stats.tail_percentile(39) == 50  # p75 leaves only 9 beyond
    assert pb_stats.tail_percentile(99) == 75
    assert pb_stats.tail_percentile(100) == 90
    with pytest.raises(ValueError):
        pb_stats.tail_percentile(19)


@pytest.mark.parametrize("workload", pb_workloads.WORKLOADS)
def test_every_workload_supports_p75(workload):
    cells = pb_workloads.plan(workload, 1)
    assert len(cells) >= 40
    assert pb_stats.tail_percentile(len(cells)) == 75


# ----------------------------------------------------------------------
# Self time and coverage
# ----------------------------------------------------------------------
def test_union_length_merges_and_clips():
    assert pb_trace.union_length([], 0.0, 1.0) == 0.0
    assert pb_trace.union_length([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert pb_trace.union_length([(-5, 2), (8, 20)], 0, 10) == 4
    assert pb_trace.union_length([(1, 2), (1, 2)], 0, 10) == 1


def test_self_time_subtracts_child_coverage():
    spans = [
        ["cell", 0.0, 10.0, -1, "c"],
        ["attacks.sat_attack", 1.0, 9.0, 0, "c"],
        ["sat.solver.solve", 2.0, 5.0, 1, "c"],
        ["circuit.tseitin.cofactor", 6.0, 8.0, 1, "c"],
        ["circuit.circuit.region_order", 6.5, 7.0, 3, "c"],
    ]
    assert pb_trace.self_times(spans) == pytest.approx([2.0, 3.0, 3.0, 1.5, 0.5])


def test_uncovered_share_counts_layer_spans_only():
    spans = [
        ["cell", 0.0, 10.0, -1, "a"],
        ["attacks.sat_attack", 0.0, 10.0, 0, "a"],  # a family, not a layer
        ["sat.solver.solve", 1.0, 4.0, 1, "a"],
        ["circuit.circuit.region_order", 3.0, 5.0, 1, "a"],
        ["cell", 20.0, 30.0, -1, "b"],
        ["attacks.oracle", 20.0, 30.0, 5, "b"],
    ]
    # cell a: 4 s of 10 covered; cell b: fully covered.
    assert pb_trace.uncovered_share(spans) == pytest.approx(0.3)


def test_tracer_leaves_results_unchanged_and_uninstalls():
    original = paper_example_circuit()
    locked = lock_ttlock(original, cube=(1, 0, 0, 1))
    plain = run_attack("sat", locked.circuit.copy(), IOOracle(original.copy()))
    tracer = pb_trace.Tracer()
    solve, encode = Solver.solve, encode_circuit
    with tracer:
        traced = tracer.run_cell(
            "paper", run_attack, "sat", locked.circuit.copy(),
            IOOracle(original.copy()),
        )
    assert Solver.solve is solve
    assert sys.modules["repro.attacks.sat_attack"].encode_circuit is encode
    assert (traced.key, traced.oracle_queries, traced.iterations) == (
        plain.key, plain.oracle_queries, plain.iterations
    )
    assert traced.details["solver"] == plain.details["solver"]
    names = {span[0] for span in tracer.spans}
    assert {"cell", "attacks.sat_attack", "sat.solver.solve",
            "circuit.tseitin.cofactor", "attacks.oracle"} <= names
    counts = tracer.counts["paper"]
    assert counts["attacks.oracle.patterns"] == plain.oracle_queries
    assert counts["sat.solver.solve_calls"] >= plain.iterations + 1
    assert counts["circuit.tseitin.clauses"] > 0
    assert all(span[4] == "paper" for span in tracer.spans)


def test_passes_are_rescaled_by_their_median_probe():
    runner = _load_runner()
    ref = pb_stats.PROBE_REFERENCE_S
    passes = [
        [(0, runner.CellRun(1.0, ref)), (1, runner.CellRun(2.0, ref))],
        # The host ran twice as slow during the second pass.
        [(1, runner.CellRun(4.0, 2 * ref)), (0, runner.CellRun(2.0, 2 * ref))],
        [],
    ]
    assert runner.scaled_samples(2, passes) == [[1.0, 1.0], [2.0, 2.0]]


# ----------------------------------------------------------------------
# Verification verdicts
# ----------------------------------------------------------------------
def test_only_failed_operations_count_as_failed():
    runner = _load_runner()
    cells = [SimpleNamespace(spec=SimpleNamespace(cell_id=c)) for c in "abcd"]
    verdicts = [
        ("exact", "correct-key"),
        ("failed", "status"),  # the attack honestly found no key
        ("wrong", "exhaustive"),
        ("timeout", "status"),
    ]
    assert runner._failed(cells, verdicts, drift=["a"]) == {
        "a": "results differ between passes",
        "c": "wrong (exhaustive)",
        "d": "timeout (status)",
    }


def test_verdicts_on_small_circuit():
    original = generate_random_circuit("v", 10, 3, 60, seed=3)
    locked = lock_antisat(original, key_width=6, seed=4)
    correct = locked.reveal_correct_key()
    assert pb_verify.key_verdict(original, locked, correct) == (
        "exact", "correct-key"
    )
    # Anti-SAT accepts every key whose two halves agree.
    half = len(correct) // 2
    other = tuple(1 - bit for bit in correct[:half]) * 2
    assert other != correct
    assert pb_verify.key_verdict(original, locked, other) == (
        "exact", "exhaustive"
    )
    wrong = correct[:half] + tuple(1 - bit for bit in correct[half:])
    assert pb_verify.key_verdict(original, locked, wrong) == (
        "wrong", "exhaustive"
    )


def test_verdicts_beyond_exhaustive_limit_use_equivalence():
    original = generate_random_circuit("w", 22, 2, 60, seed=5)
    locked = lock_random_xor(original, key_width=4, seed=6)
    correct = locked.reveal_correct_key()
    flipped = (1 - correct[0],) + correct[1:]
    assert pb_verify.key_verdict(original, locked, flipped) == (
        "wrong", "equivalence"
    )
    assert pb_verify.key_verdict(original, locked, correct)[0] == "exact"


# ----------------------------------------------------------------------
# Seed -> cell list
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", pb_workloads.WORKLOADS)
def test_plan_is_a_function_of_the_seed(workload):
    first = pb_workloads.plan(workload, 7)
    assert first == pb_workloads.plan(workload, 7)
    assert first != pb_workloads.plan(workload, 8)
    assert len({cell.cell_id for cell in first}) == len(first)
    # The defense mix is fixed; only the circuits vary with the seed.
    mix = sorted((c.attack, c.defense, c.key_width, c.shortlist) for c in first)
    assert mix == sorted(
        (c.attack, c.defense, c.key_width, c.shortlist)
        for c in pb_workloads.plan(workload, 8)
    )


def test_fall_plan_covers_profiles_and_settings():
    cells = pb_workloads.plan("fall_oracle_less", 1)
    profiles = pb_workloads.fall_profiles()
    assert len(cells) == 3 * len(profiles)
    assert {"ex1010", "apex4"}.isdisjoint(p.name for p in profiles)
    assert {c.h for c in cells} == {0, 1, 2}
    assert all(c.key_width <= pb_workloads.FALL_MAX_KEY for c in cells)


def test_build_is_deterministic_and_shortlists_hold_the_key():
    spec = pb_workloads.plan("key_confirm", 3)[2]
    first, second = pb_workloads.build_cell(spec), pb_workloads.build_cell(spec)
    assert first.locked.circuit.nodes == second.locked.circuit.nodes
    assert first.candidates == second.candidates
    assert len(set(first.candidates)) == spec.shortlist
    assert first.locked.reveal_correct_key() in first.candidates


# ----------------------------------------------------------------------
# BENCHMARK.json matches what the runner prints
# ----------------------------------------------------------------------
def test_benchmark_json_lists_the_printed_metrics():
    runner = _load_runner()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        runner.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        runner.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(
        pb_workloads.WORKLOADS
    )
