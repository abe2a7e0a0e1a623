"""Tests for the I/O oracle and the SAT attack baseline."""

from __future__ import annotations

import pytest

from repro.attacks.appsat import appsat_attack
from repro.attacks.base import AttackConfig
from repro.attacks.double_dip import double_dip_attack
from repro.attacks.engine import run_attack
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackStatus
from repro.attacks.sat_attack import Cegis, sat_attack
from repro.circuit.circuit import Circuit
from repro.circuit.equivalence import check_equivalence
from repro.circuit.gates import GateType
from repro.circuit.library import c17, paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.errors import AttackError
from repro.locking import lock_random_xor, lock_sarlock, lock_sfll_hd, lock_ttlock
from repro.utils.timer import Budget


class TestOracle:
    def test_query_counts(self):
        oracle = IOOracle(paper_example_circuit())
        assert oracle.query_count == 0
        oracle.query({"a": 1, "b": 0, "c": 0, "d": 1})
        oracle.query({"a": 0, "b": 0, "c": 0, "d": 0})
        assert oracle.query_count == 2

    def test_query_values(self):
        oracle = IOOracle(paper_example_circuit())
        assert oracle.query({"a": 1, "b": 1, "c": 0, "d": 0}) == {"y": 1}
        assert oracle.query({"a": 0, "b": 0, "c": 0, "d": 0}) == {"y": 0}

    def test_query_bits_positional(self):
        oracle = IOOracle(paper_example_circuit())
        assert oracle.query_bits((1, 1, 0, 0)) == (1,)

    def test_missing_input_rejected(self):
        oracle = IOOracle(paper_example_circuit())
        with pytest.raises(AttackError):
            oracle.query({"a": 1})

    def test_wrong_arity_rejected(self):
        oracle = IOOracle(paper_example_circuit())
        with pytest.raises(AttackError):
            oracle.query_bits((1, 0))

    def test_locked_circuit_rejected(self):
        locked = lock_ttlock(paper_example_circuit())
        with pytest.raises(AttackError):
            IOOracle(locked.circuit)


class TestSatAttack:
    def test_recovers_ttlock_key_on_example(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=(1, 0, 0, 1))
        result = sat_attack(locked.circuit, IOOracle(original))
        assert result.status is AttackStatus.SUCCESS
        assert result.key == (1, 0, 0, 1)

    def test_recovers_rll_key(self):
        original = c17()
        locked = lock_random_xor(original, key_width=4, seed=2)
        result = sat_attack(locked.circuit, IOOracle(original))
        assert result.status is AttackStatus.SUCCESS
        unlocked = locked.unlocked_with(result.key)
        assert check_equivalence(original, unlocked).proved

    def test_recovered_key_unlocks_random_circuit(self):
        original = generate_random_circuit("t", 10, 3, 60, seed=4)
        locked = lock_random_xor(original, key_width=8, seed=4)
        result = sat_attack(locked.circuit, IOOracle(original))
        assert result.status is AttackStatus.SUCCESS
        unlocked = locked.unlocked_with(result.key)
        assert check_equivalence(original, unlocked).proved

    def test_key_equivalence_class_on_sfll(self):
        # The SAT attack may return any key in the correct equivalence
        # class; for SFLL only the protected cube unlocks, so on a small
        # instance it must find exactly that.
        original = paper_example_circuit()
        locked = lock_sfll_hd(original, h=1, cube=(1, 0, 0, 1))
        result = sat_attack(locked.circuit, IOOracle(original))
        assert result.status is AttackStatus.SUCCESS
        assert result.key == (1, 0, 0, 1)

    def test_sarlock_needs_many_iterations(self):
        # SARLock's point corruption forces ~2^m oracle queries; with a
        # small iteration cap the attack must time out — this is the
        # "SAT resilience" the paper's Figure 5 shows.
        original = generate_random_circuit("s", 12, 2, 60, seed=9)
        locked = lock_sarlock(original, key_width=12, seed=9)
        result = sat_attack(
            locked.circuit, IOOracle(original), max_iterations=16
        )
        assert result.status is AttackStatus.TIMEOUT
        assert result.iterations == 16

    def test_expired_budget_times_out(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original)
        result = sat_attack(locked.circuit, IOOracle(original), budget=Budget(0.0))
        assert result.status is AttackStatus.TIMEOUT

    def test_oracle_mismatch_rejected(self):
        locked = lock_ttlock(paper_example_circuit())
        with pytest.raises(AttackError):
            sat_attack(locked.circuit, IOOracle(c17()))

    def test_keyless_circuit_rejected(self):
        original = paper_example_circuit()
        with pytest.raises(AttackError):
            sat_attack(original, IOOracle(original))

    def test_query_count_equals_iterations(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=(1, 1, 1, 1))
        oracle = IOOracle(original)
        result = sat_attack(locked.circuit, oracle)
        assert result.oracle_queries == result.iterations
        assert oracle.query_count == result.iterations

    def test_multi_output_locked_circuit(self):
        original = c17()
        locked = lock_ttlock(original, cube=(0, 1, 1, 0, 1))
        result = sat_attack(locked.circuit, IOOracle(original))
        assert result.status is AttackStatus.SUCCESS
        unlocked = locked.unlocked_with(result.key)
        assert check_equivalence(original, unlocked).proved


def _mismatched_oracle(
    original, drop=(), extra=(), drop_outputs=(), extra_outputs=()
):
    """An oracle whose circuit pins ``drop`` to 0, adds unused ``extra``
    inputs, leaves out ``drop_outputs`` and adds ``extra_outputs``."""
    circuit = Circuit(original.name)
    for node in original.nodes:
        gate_type = original.gate_type(node)
        if node in drop:
            circuit.add_const(node, 0)
        elif gate_type is GateType.INPUT:
            circuit.add_input(node)
        else:
            circuit.add_gate(node, gate_type, original.fanins(node))
    for name in extra:
        circuit.add_input(name)
    for output in original.outputs:
        if output not in drop_outputs:
            circuit.add_output(output)
    for name in extra_outputs:
        circuit.add_gate(name, GateType.NOT, [original.outputs[0]])
        circuit.add_output(name)
    return IOOracle(circuit)


class TestOracleInputsChecked:
    """Every oracle-guided family rejects a mismatched oracle up front."""

    @pytest.mark.parametrize(
        "attack", ["sat", "double-dip", "appsat", "key-confirmation"]
    )
    @pytest.mark.parametrize(
        "mismatch, message",
        [
            ({"drop": ("x9",)}, "oracle inputs"),
            ({"extra": ("x10",)}, "oracle inputs"),
            ({"drop_outputs": ("y1",)}, "oracle outputs"),
            ({"extra_outputs": ("y2",)}, "oracle outputs"),
        ],
        ids=["missing", "extra", "missing-output", "extra-output"],
    )
    def test_rejected_before_any_query(self, attack, mismatch, message):
        original = generate_random_circuit("io", 10, 2, 60, seed=3)
        locked = lock_ttlock(original, key_width=6, seed=3)
        oracle = _mismatched_oracle(original, **mismatch)
        config = AttackConfig(candidates=(locked.reveal_correct_key(),))
        with pytest.raises(AttackError, match=message):
            run_attack(attack, locked.circuit, oracle, config)
        assert oracle.query_count == 0


class TestCegisLoadsOnce:
    def test_staged_clauses_are_dropped_once_loaded(self):
        # The solvers hold the only copy of each clause; the staging CNFs
        # keep just their variable counters.
        original = generate_random_circuit("io", 10, 2, 60, seed=3)
        locked = lock_ttlock(original, key_width=6, seed=3)
        oracle = IOOracle(original)
        cegis = Cegis("sat-attack", locked.circuit, oracle, None, 0.2)
        pattern = dict.fromkeys(locked.circuit.circuit_inputs, 1)
        cegis.observe(pattern, oracle.query(pattern))
        for constrained in (cegis.dips, cegis.keys):
            assert constrained.cnf.clauses == []
            assert constrained.cnf.num_vars == constrained.solver.num_vars


class TestAttackResultPlumbing:
    def test_key_as_assignment(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=(1, 0, 0, 1))
        result = sat_attack(locked.circuit, IOOracle(original))
        assignment = result.key_as_assignment()
        assert assignment == dict(zip(locked.key_names, (1, 0, 0, 1)))

    def test_key_as_assignment_requires_key(self):
        from repro.attacks.results import AttackResult

        result = AttackResult(attack="x", status=AttackStatus.FAILED)
        with pytest.raises(ValueError):
            result.key_as_assignment()

    def test_summary_format(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=(1, 0, 0, 1))
        result = sat_attack(locked.circuit, IOOracle(original))
        text = result.summary()
        assert "sat-attack" in text
        assert "key=1001" in text


class TestSearchIsPinned:
    """Golden solver counters of the CEGIS attacks and the CEC miter.

    Encoding and solver speed-ups must leave every clause, variable
    number and decision alone; these counters move if one does. A change
    that alters search on purpose updates them and says why.
    """

    def test_paper_ttlock(self):
        original = paper_example_circuit()
        locked = lock_ttlock(original, cube=(1, 0, 0, 1))
        result = sat_attack(locked.circuit, IOOracle(original))
        assert result.key == (1, 0, 0, 1)
        assert result.iterations == 3
        assert result.details["solver"] == {
            "conflicts": 15, "decisions": 43, "propagations": 1107,
            "restarts": 0, "solve_calls": 4,
        }
        assert result.details["key_solver"] == {
            "conflicts": 0, "decisions": 0, "propagations": 13,
            "restarts": 0, "solve_calls": 1,
        }

    def test_random_ttlock(self):
        original = generate_random_circuit("pin", 12, 3, 80, seed=5)
        locked = lock_ttlock(original, key_width=8, seed=5)
        result = sat_attack(locked.circuit, IOOracle(original))
        assert result.status is AttackStatus.SUCCESS
        assert result.iterations == 99
        assert result.details["solver"] == {
            "conflicts": 139, "decisions": 2273, "propagations": 137984,
            "restarts": 0, "solve_calls": 100,
        }
        assert result.details["key_solver"] == {
            "conflicts": 0, "decisions": 0, "propagations": 701,
            "restarts": 0, "solve_calls": 1,
        }

    def test_double_dip_sfll(self):
        # Double DIP's key here is wrong on the protected cube by design
        # (it stops once no input rules out two keys at a time).
        original = generate_random_circuit("pin", 12, 3, 80, seed=5)
        locked = lock_sfll_hd(original, key_width=8, h=1, seed=5)
        result = double_dip_attack(locked.circuit, IOOracle(original))
        assert result.iterations == 13
        assert result.oracle_queries == 13
        assert result.key == (0, 1, 1, 0, 1, 1, 1, 1)
        assert result.details["solver"] == {
            "conflicts": 695, "decisions": 2403, "propagations": 427711,
            "restarts": 2, "solve_calls": 14,
        }
        assert result.details["key_solver"] == {
            "conflicts": 5, "decisions": 13, "propagations": 1065,
            "restarts": 0, "solve_calls": 1,
        }

    def test_appsat_sarlock(self):
        original = generate_random_circuit("pin", 12, 3, 80, seed=5)
        locked = lock_sarlock(original, key_width=6, seed=5)
        result = appsat_attack(locked.circuit, IOOracle(original))
        assert result.iterations == 16
        assert result.oracle_queries == 272
        assert result.details["approximate"] is True
        assert result.details["solver"] == {
            "conflicts": 25, "decisions": 319, "propagations": 14820,
            "restarts": 0, "solve_calls": 16,
        }
        assert result.details["key_solver"] == {
            "conflicts": 2, "decisions": 22, "propagations": 505,
            "restarts": 0, "solve_calls": 4,
        }

    def test_equivalence_counterexample(self):
        original = generate_random_circuit("pin", 12, 3, 80, seed=5)
        locked = lock_ttlock(original, key_width=8, seed=5)
        wrong = [1 - bit for bit in locked.reveal_correct_key()]
        outcome = check_equivalence(
            locked.circuit,
            original,
            fixed_left=locked.key_assignment(wrong),
        )
        assert outcome.refuted
        assert [outcome.counterexample[f"x{i}"] for i in range(12)] == [
            1, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0, 0,
        ]
