"""Tests for :mod:`repro.circuit.sharding`.

Covers jobs parsing, circuit-spec round trips, the persistent process
pool behind ``map_in_processes`` (lifecycle, broken-pool recovery, the
daemonic-caller guard) and the sweep entry points, which must agree
with the compiled engine and the interpreted reference without ever
touching the pool.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.circuit import sharding
from repro.circuit.compiled import compile_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.sharding import (
    circuit_from_spec,
    circuit_spec,
    parse_jobs,
    resolve_jobs,
    sweep_node_values,
    sweep_outputs,
    sweep_popcounts,
    sweep_truth_table,
)
from repro.circuit.simulate import simulate_interpreted
from repro.errors import CircuitError
from repro.utils.rng import make_rng

@pytest.fixture
def fresh_pool():
    """Isolate pool state: start without a pool, tear it down after."""
    sharding.shutdown_pool()
    yield
    sharding.shutdown_pool()


class TestJobsParsing:
    def test_auto_and_empty_mean_auto(self):
        assert parse_jobs(None) is None
        assert parse_jobs("auto") is None
        assert parse_jobs("  AUTO ") is None
        assert parse_jobs("") is None

    def test_integers_parse(self):
        assert parse_jobs(3) == 3
        assert parse_jobs("4") == 4
        assert parse_jobs(" 2 ") == 2

    @pytest.mark.parametrize("bad", ["zero", "1.5", "-", "2x"])
    def test_non_numeric_rejected(self, bad):
        with pytest.raises(CircuitError, match="invalid jobs value"):
            parse_jobs(bad)

    @pytest.mark.parametrize("bad", [0, -1, "0", "-7"])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(CircuitError, match="jobs must be >= 1"):
            parse_jobs(bad)

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(sharding.ENV_JOBS, "5")
        assert resolve_jobs() == 5
        assert resolve_jobs(2) == 2  # explicit argument wins
        monkeypatch.setenv(sharding.ENV_JOBS, "auto")
        assert resolve_jobs() == sharding.cpu_jobs()

    def test_invalid_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(sharding.ENV_JOBS, "many")
        with pytest.raises(CircuitError, match="invalid jobs value"):
            resolve_jobs()


class TestCircuitSpecRoundTrip:
    def test_spec_rebuilds_identical_circuit(self):
        circuit = generate_random_circuit("spec", 8, 3, 60, seed=9)
        circuit.add_input("k0", key=True)
        rebuilt = circuit_from_spec(circuit_spec(circuit))
        assert rebuilt.nodes == circuit.nodes
        assert rebuilt.outputs == circuit.outputs
        assert rebuilt.key_inputs == circuit.key_inputs
        for node in circuit.nodes:
            assert rebuilt.gate_type(node) == circuit.gate_type(node)
            assert rebuilt.fanins(node) == circuit.fanins(node)

    def test_rebuilt_circuit_simulates_identically(self):
        circuit = generate_random_circuit("specsim", 7, 2, 50, seed=4)
        rebuilt = circuit_from_spec(circuit_spec(circuit))
        rng = make_rng(1)
        values = {name: rng.getrandbits(128) for name in circuit.inputs}
        assert compile_circuit(rebuilt).eval_outputs_sliced(
            values, width=128
        ) == compile_circuit(circuit).eval_outputs_sliced(values, width=128)


def _packed_reference(circuit, values, width):
    reference = simulate_interpreted(circuit, values, width=width)
    return tuple(reference[name] for name in circuit.outputs)


class TestSweepEntryPoints:
    """Each sweep equals its compiled-engine call and the interpreter."""

    def test_sweep_outputs_match(self, fresh_pool):
        circuit = generate_random_circuit("swo", 8, 3, 70, seed=61)
        rng = make_rng(3)
        width = 500
        values = {name: rng.getrandbits(width) for name in circuit.inputs}
        assert sweep_outputs(circuit, values, width) == (
            _packed_reference(circuit, values, width)
        )
        rows = [
            {name: (values[name] >> j) & 1 for name in circuit.inputs}
            for j in range(150)
        ]
        assert sweep_outputs(circuit, rows) == compile_circuit(
            circuit
        ).eval_outputs_sliced(rows)
        assert not sharding.pool_is_running()

    def test_sweep_node_values_match(self, fresh_pool):
        circuit = generate_random_circuit("swnv", 8, 3, 70, seed=61)
        rng = make_rng(3)
        width = 500
        values = {name: rng.getrandbits(width) for name in circuit.inputs}
        nodes = tuple(circuit.gates[:6])
        reference = simulate_interpreted(circuit, values, width=width)
        assert sweep_node_values(circuit, nodes, values, width) == tuple(
            reference[n] for n in nodes
        )

    def test_sweep_popcounts_match(self, fresh_pool):
        circuit = generate_random_circuit("swpc", 9, 4, 90, seed=71)
        rng = make_rng(5)
        width = 700
        values = {name: rng.getrandbits(width) for name in circuit.inputs}
        reference = simulate_interpreted(circuit, values, width=width)
        assert sweep_popcounts(circuit, values, width) == {
            node: word.bit_count() for node, word in reference.items()
        }
        targets = list(circuit.outputs)
        assert sweep_popcounts(circuit, values, width, targets) == (
            compile_circuit(circuit).node_popcounts(
                values, width, targets=targets
            )
        )

    def test_sweep_truth_table_matches(self, fresh_pool):
        circuit = generate_random_circuit("swtt", 10, 2, 90, seed=81)
        node = circuit.outputs[0]
        assert sweep_truth_table(circuit, node) == compile_circuit(
            circuit
        ).truth_table(node)


class TestPoolLifecycle:
    def test_sweeps_never_spin_up_the_pool(self, fresh_pool, monkeypatch):
        monkeypatch.setenv(sharding.ENV_JOBS, "8")
        circuit = generate_random_circuit("nopool", 8, 3, 60, seed=33)
        rng = make_rng(11)
        width = 1 << 16
        values = {name: rng.getrandbits(width) for name in circuit.inputs}
        sweep_outputs(circuit, values, width)
        sweep_popcounts(circuit, values, width)
        assert not sharding.pool_is_running()

    def test_pool_persists_across_calls(self, fresh_pool):
        assert sharding.map_in_processes(_square, [1, 2, 3], jobs=2) == [
            1, 4, 9
        ]
        first = sharding._POOL
        assert first is not None
        sharding.map_in_processes(_square, [4, 5], jobs=2)
        assert sharding._POOL is first  # reused, not respawned

    def test_shutdown_is_idempotent(self, fresh_pool):
        sharding.shutdown_pool()
        sharding.shutdown_pool()
        assert not sharding.pool_is_running()


class TestMapInProcesses:
    def test_preserves_order(self, fresh_pool):
        items = list(range(20))
        assert sharding.map_in_processes(_square, items, jobs=3) == [
            n * n for n in items
        ]

    def test_single_job_runs_inline(self, fresh_pool):
        assert sharding.map_in_processes(_square, [3, 4], jobs=1) == [9, 16]
        assert not sharding.pool_is_running()

    def test_single_item_runs_inline(self, fresh_pool):
        assert sharding.map_in_processes(_square, [5], jobs=4) == [25]
        assert not sharding.pool_is_running()


class TestBrokenPoolRecovery:
    """One killed worker must never poison later parallel calls."""

    def test_map_falls_back_inline_when_workers_die(self, fresh_pool):
        result = sharding.map_in_processes(_square_or_die, [1, 2, 3], jobs=2)
        assert result == [1, 4, 9]
        assert not sharding.pool_is_running()  # dead executor was dropped

    def test_next_map_after_breakage_gets_a_fresh_pool(self, fresh_pool):
        sharding.map_in_processes(_square_or_die, [1, 2], jobs=2)
        assert sharding.map_in_processes(_square, [3, 4], jobs=2) == [9, 16]
        assert sharding.pool_is_running()


class TestDaemonicCallerGuard:
    def test_daemonic_process_never_spawns_a_pool(
        self, fresh_pool, monkeypatch
    ):
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        assert sharding.map_in_processes(_square, [1, 2, 3], jobs=4) == [
            1, 4, 9
        ]
        assert not sharding.pool_is_running()


def _square(n: int) -> int:
    return n * n


def _square_or_die(n: int) -> int:
    """Kill the hosting pool worker; compute normally when inline."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return n * n
