"""Tests for the individual FALL stages (paper §III and §IV).

These replay the paper's worked example: the circuit of Figure 2a locked
with TTLock (Figure 2b) and SFLL-HD1 (Figure 2c), protected cube
a∧¬b∧¬c∧d, correct key (1, 0, 0, 1).
"""

from __future__ import annotations

import pytest

from repro.attacks.fall.comparators import (
    find_comparators,
    pairing_from_comparators,
)
from repro.attacks.fall.distance2h import distance_2h
from repro.attacks.fall.equivalence import build_strip_reference, confirm_cube
from repro.attacks.fall.prefilter import (
    density_polarities,
    passes_unateness_sim,
    strip_density,
)
from repro.attacks.fall.sliding_window import sliding_window
from repro.attacks.fall.support_match import (
    candidate_strip_nodes,
    comparator_inputs,
)
from repro.attacks.fall.unateness import analyze_unateness
from repro.circuit.analysis import extract_cone, support
from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType
from repro.circuit.library import paper_example_circuit
from repro.circuit.simulate import truth_table
from repro.errors import AttackError
from repro.locking import lock_sfll_hd, lock_ttlock
from repro.locking.comparators import add_cube_detector, add_hamming_distance_equals

PAPER_CUBE = (1, 0, 0, 1)


def ttlock_example():
    return lock_ttlock(paper_example_circuit(), cube=PAPER_CUBE)


def sfll_hd1_example():
    return lock_sfll_hd(paper_example_circuit(), h=1, cube=PAPER_CUBE)


def cube_cone(cube, names=("a", "b", "c", "d")) -> Circuit:
    """A bare cube detector cone (the unoptimized node F)."""
    circuit = Circuit("cube")
    for name in names:
        circuit.add_input(name)
    top = add_cube_detector(circuit, list(names), list(cube))
    circuit.add_output(top)
    return circuit


def strip_cone(cube, h, names=("a", "b", "c", "d")) -> Circuit:
    """A bare strip_h cone (the unoptimized SFLL-HDh node F)."""
    circuit = Circuit("strip")
    for name in names:
        circuit.add_input(name)
    top = add_hamming_distance_equals(circuit, list(names), list(cube), h)
    circuit.add_output(top)
    return circuit


class TestComparatorIdentification:
    def test_finds_all_pairs_on_ttlock_example(self):
        locked = ttlock_example()
        comparators = find_comparators(locked.circuit)
        pairing = pairing_from_comparators(comparators)
        assert pairing == dict(zip("abcd", locked.key_names))

    def test_finds_all_pairs_on_sfll_example(self):
        locked = sfll_hd1_example()
        pairing = pairing_from_comparators(find_comparators(locked.circuit))
        assert pairing == dict(zip("abcd", locked.key_names))

    def test_polarity_recorded(self):
        locked = ttlock_example()
        comparators = find_comparators(locked.circuit)
        assert all(isinstance(c.is_xnor, bool) for c in comparators)
        assert {c.polarity for c in comparators} <= {1, -1}

    def test_no_comparators_in_unlocked_circuit(self):
        assert find_comparators(paper_example_circuit()) == []

    def test_ignores_two_key_nodes(self):
        circuit = Circuit("kk")
        circuit.add_key_input("k0")
        circuit.add_key_input("k1")
        circuit.add_gate("g", GateType.XOR, ["k0", "k1"])
        circuit.add_output("g")
        assert find_comparators(circuit) == []


class TestSupportMatch:
    def test_compx_is_protected_inputs(self):
        locked = ttlock_example()
        comparators = find_comparators(locked.circuit)
        assert comparator_inputs(comparators) == frozenset("abcd")

    def test_candidates_contain_strip_function(self):
        locked = ttlock_example()
        comparators = find_comparators(locked.circuit)
        candidates = candidate_strip_nodes(locked.circuit, comparators)
        assert candidates
        # At least one candidate (possibly via complement) must be the
        # cube detector: verified by checking cube truth table.
        expected = truth_table(cube_cone(PAPER_CUBE))
        mask = (1 << 16) - 1
        tables = []
        for node in candidates:
            cone = extract_cone(locked.circuit, node)
            if tuple(cone.inputs) == ("a", "b", "c", "d"):
                tables.append(truth_table(cone, node))
        assert any(t == expected or (t ^ mask) == expected for t in tables)

    def test_candidates_have_exact_support(self):
        locked = sfll_hd1_example()
        comparators = find_comparators(locked.circuit)
        compx = comparator_inputs(comparators)
        for node in candidate_strip_nodes(locked.circuit, comparators):
            assert support(locked.circuit, node) == compx

    def test_limit_caps_candidates(self):
        locked = sfll_hd1_example()
        comparators = find_comparators(locked.circuit)
        assert len(candidate_strip_nodes(locked.circuit, comparators, limit=1)) == 1

    def test_no_comparators_no_candidates(self):
        assert candidate_strip_nodes(paper_example_circuit(), []) == []


class TestAnalyzeUnateness:
    def test_recovers_paper_cube(self):
        # §IV-A1: node 30's function a∧¬b∧¬c∧d is positive unate in a
        # and d, negative unate in b and c => cube (1,0,0,1).
        cone = cube_cone(PAPER_CUBE)
        assert analyze_unateness(cone) == {"a": 1, "b": 0, "c": 0, "d": 1}

    @pytest.mark.parametrize(
        "cube", [(0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 1)]
    )
    def test_recovers_arbitrary_cubes(self, cube):
        cone = cube_cone(cube)
        assert analyze_unateness(cone) == dict(zip("abcd", cube))

    def test_complement_cube_from_negated_node(self):
        # ¬F is also unate in every variable with flipped polarities; the
        # analysis returns the complement cube (paper §V's scenario).
        cone = cube_cone(PAPER_CUBE)
        neg = cone.copy()
        negated = neg.fresh_name("neg")
        neg.add_gate(negated, GateType.NOT, [neg.outputs[0]])
        neg.replace_output(neg.outputs[0], negated)
        result = analyze_unateness(neg)
        assert result == dict(zip("abcd", (0, 1, 1, 0)))

    def test_rejects_non_unate_function(self):
        # XOR is binate in every variable.
        circuit = Circuit("x")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("y", GateType.XOR, ["a", "b"])
        circuit.add_output("y")
        assert analyze_unateness(circuit) is None

    def test_example_from_paper_three_vars(self):
        # §IV-A1's second example: strip_0(1,0,1) = x1 ∧ ¬x2 ∧ x3.
        cone = cube_cone((1, 0, 1), names=("x1", "x2", "x3"))
        assert analyze_unateness(cone) == {"x1": 1, "x2": 0, "x3": 1}

    def test_multi_output_cone_rejected(self):
        two_outputs = Circuit("two")
        two_outputs.add_input("a")
        two_outputs.add_gate("y", GateType.BUF, ["a"])
        two_outputs.add_gate("z", GateType.NOT, ["a"])
        two_outputs.add_output("y")
        two_outputs.add_output("z")
        with pytest.raises(AttackError):
            analyze_unateness(two_outputs)


class TestSlidingWindow:
    @pytest.mark.parametrize("h", [1])
    def test_recovers_paper_cube(self, h):
        cone = strip_cone(PAPER_CUBE, h)
        assert sliding_window(cone, h) == dict(zip("abcd", PAPER_CUBE))

    @pytest.mark.parametrize(
        "cube,h",
        [
            ((1, 1, 1, 1, 0, 0), 1),
            ((0, 1, 0, 1, 1, 0), 2),
            ((1, 0, 0, 1, 1, 1, 0, 0), 3),
        ],
    )
    def test_recovers_cubes_various_h(self, cube, h):
        names = tuple(f"x{i}" for i in range(len(cube)))
        cone = strip_cone(cube, h, names=names)
        assert sliding_window(cone, h) == dict(zip(names, cube))

    def test_rejects_wrong_h(self):
        # A strip_1 cone analyzed as h=2 violates the lemmas.
        cone = strip_cone((1, 1, 1, 1, 0, 0), 1, names=tuple(f"x{i}" for i in range(6)))
        result = sliding_window(cone, 2)
        if result is not None:
            # If some cube is returned it must fail confirmation.
            assert confirm_cube(cone, result, 2) is False

    def test_inapplicable_when_2h_exceeds_m(self):
        cone = strip_cone(PAPER_CUBE, 1)
        assert sliding_window(cone, 3) is None

    def test_rejects_constant_function(self):
        circuit = Circuit("const")
        for name in "abcd":
            circuit.add_input(name)
        circuit.add_gate("t", GateType.AND, ["a", "a"])
        circuit.add_gate("nt", GateType.NOT, ["t"])
        circuit.add_gate("zero", GateType.AND, ["t", "nt"])
        circuit.add_output("zero")
        assert sliding_window(circuit, 1) is None


class TestDistance2H:
    @pytest.mark.parametrize(
        "cube,h",
        [
            ((1, 1, 1, 1, 0, 0, 1, 0), 1),
            ((0, 1, 0, 1, 1, 0, 0, 1), 2),
            ((1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1), 3),
        ],
    )
    def test_recovers_cubes(self, cube, h):
        names = tuple(f"x{i}" for i in range(len(cube)))
        cone = strip_cone(cube, h, names=names)
        assert distance_2h(cone, h) == dict(zip(names, cube))

    def test_inapplicable_when_4h_exceeds_m(self):
        cone = strip_cone(PAPER_CUBE, 1)  # m=4, h=2 -> 4h=8 > 4
        assert distance_2h(cone, 2) is None

    def test_agrees_with_sliding_window(self):
        cube = (1, 0, 1, 1, 0, 0, 1, 0)
        names = tuple(f"x{i}" for i in range(8))
        cone = strip_cone(cube, 2, names=names)
        assert distance_2h(cone, 2) == sliding_window(cone, 2)

    def test_rejects_non_strip_function(self):
        # Parity has HD-2h satisfying pairs everywhere; Lemma 2
        # consistency fails or equivalence would refute. Either a None
        # or a cube failing confirmation is acceptable.
        circuit = Circuit("parity")
        names = [f"x{i}" for i in range(8)]
        for name in names:
            circuit.add_input(name)
        circuit.add_gate("y", GateType.XOR, names)
        circuit.add_output("y")
        result = distance_2h(circuit, 1)
        if result is not None:
            assert confirm_cube(circuit, result, 1) is False


class TestConfirmCube:
    def test_confirms_true_cube(self):
        cone = strip_cone(PAPER_CUBE, 1)
        assert confirm_cube(cone, dict(zip("abcd", PAPER_CUBE)), 1) is True

    def test_refutes_wrong_cube(self):
        cone = strip_cone(PAPER_CUBE, 1)
        assert confirm_cube(cone, dict(zip("abcd", (0, 0, 0, 0))), 1) is False

    def test_refutes_wrong_h(self):
        cone = strip_cone(PAPER_CUBE, 1)
        assert confirm_cube(cone, dict(zip("abcd", PAPER_CUBE)), 0) is False

    def test_reference_matches_shell_semantics(self):
        reference = build_strip_reference(
            list("abcd"), dict(zip("abcd", PAPER_CUBE)), 1
        )
        # Equation 1 of the paper: ones exactly on the four HD-1 cubes.
        table = truth_table(reference)
        expected_ones = {0b1000, 0b1011, 0b1101, 0b0001}
        ones = {i for i in range(16) if (table >> i) & 1}
        assert ones == expected_ones

    def test_cube_input_mismatch_rejected(self):
        cone = strip_cone(PAPER_CUBE, 1)
        with pytest.raises(AttackError):
            confirm_cube(cone, {"a": 1}, 1)


class TestPrefilter:
    def test_strip_density(self):
        assert strip_density(4, 0) == 1 / 16
        assert strip_density(4, 1) == 4 / 16
        assert strip_density(4, 5) == 0.0

    @staticmethod
    def _density(cone):
        return truth_table(cone).bit_count() / (1 << len(cone.inputs))

    def test_polarity_detection_plain(self):
        cone = strip_cone(PAPER_CUBE, 0)
        try_plain, try_complement = density_polarities(
            self._density(cone), len(cone.inputs), 0
        )
        assert try_plain
        assert not try_complement

    def test_polarity_detection_complement(self):
        cone = strip_cone(PAPER_CUBE, 0)
        neg = cone.copy()
        negated = neg.fresh_name("neg")
        neg.add_gate(negated, GateType.NOT, [neg.outputs[0]])
        neg.replace_output(neg.outputs[0], negated)
        try_plain, try_complement = density_polarities(
            self._density(neg), len(neg.inputs), 0
        )
        assert not try_plain
        assert try_complement

    def test_unateness_sim_accepts_cube(self):
        assert passes_unateness_sim(cube_cone(PAPER_CUBE))

    def test_unateness_sim_rejects_parity(self):
        circuit = Circuit("parity")
        names = [f"x{i}" for i in range(6)]
        for name in names:
            circuit.add_input(name)
        circuit.add_gate("y", GateType.XOR, names)
        circuit.add_output("y")
        assert not passes_unateness_sim(circuit)
