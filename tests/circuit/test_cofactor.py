"""Tests for the partial-evaluation (cofactor) CNF encoder.

``encode_under_assignment`` powers every oracle-guided attack loop: the
distinguishing input is fixed, everything outside the key cone folds to
constants, and only the key-dependent logic produces clauses. Its
correctness contract: for every key assignment, the constrained CNF is
satisfiable iff the full circuit produces the asserted outputs.

The encoder visits only the symbolic cone. Its output must stay
identical — same clauses, same variable numbering, same target values —
to the full-netlist walk kept here as
:func:`_reference_encode_under_assignment`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.circuit.circuit import Circuit
from repro.circuit.gates import GateType
from repro.circuit.library import c17, paper_example_circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.circuit.simulate import simulate_pattern
from repro.circuit.tseitin import (
    CofactorEncoding,
    _fold_gate,
    encode_under_assignment,
)
from repro.locking import lock_random_xor, lock_sfll_hd, lock_ttlock
from repro.sat.cnf import Cnf
from repro.sat.solver import Solver, SolveStatus


def _reference_encode_under_assignment(
    circuit: Circuit, cnf: Cnf, fixed, shared_vars=None, targets=None
) -> CofactorEncoding:
    """The full-netlist walk: fold every node of the targets' cones."""
    if targets is None:
        targets = list(circuit.outputs)
    encoding = CofactorEncoding(cnf=cnf)
    consts = encoding.consts
    lits = encoding.lits
    shared_vars = shared_vars or {}
    for node in circuit.topological_order(targets=list(targets)):
        gate_type = circuit.gate_type(node)
        if gate_type is GateType.INPUT:
            if node in fixed:
                consts[node] = int(fixed[node])
            elif node in shared_vars:
                lits[node] = shared_vars[node]
            else:
                lits[node] = cnf.new_var()
            continue
        if gate_type is GateType.CONST0:
            consts[node] = 0
            continue
        if gate_type is GateType.CONST1:
            consts[node] = 1
            continue
        fanin_consts: list[int] = []
        fanin_lits: list[int] = []
        for fanin in circuit.fanins(node):
            if fanin in consts:
                fanin_consts.append(consts[fanin])
            else:
                fanin_lits.append(lits[fanin])
        value = _fold_gate(cnf, gate_type, fanin_consts, fanin_lits)
        if isinstance(value, bool):
            consts[node] = int(value)
        else:
            lits[node] = value
    return encoding


def check_against_reference(
    circuit: Circuit, fixed, shared_names=(), targets=None
) -> None:
    """Both encoders emit the same CNF and the same target values."""
    results = []
    for encode in (encode_under_assignment, _reference_encode_under_assignment):
        cnf = Cnf()
        shared = {name: cnf.new_var() for name in shared_names}
        encoding = encode(
            circuit, cnf, fixed=fixed, shared_vars=shared, targets=targets
        )
        results.append((cnf, encoding))
    (cnf, encoding), (ref_cnf, ref_encoding) = results
    assert cnf.clauses == ref_cnf.clauses
    assert cnf.num_vars == ref_cnf.num_vars
    for target in circuit.outputs if targets is None else targets:
        assert encoding.consts.get(target) == ref_encoding.consts.get(target)
        assert encoding.lits.get(target) == ref_encoding.lits.get(target)


def check_against_simulation(circuit: Circuit, pattern: int) -> None:
    """Fix all inputs; encoded outputs must constant-fold to sim values."""
    inputs = circuit.inputs
    assignment = {name: (pattern >> i) & 1 for i, name in enumerate(inputs)}
    expected = simulate_pattern(circuit, assignment)
    cnf = Cnf()
    encoding = encode_under_assignment(circuit, cnf, fixed=assignment)
    for out in circuit.outputs:
        assert out in encoding.consts, f"{out} did not constant-fold"
        assert encoding.consts[out] == expected[out]


class TestFullyFixed:
    @pytest.mark.parametrize("pattern", [0, 0b0110, 0b1111, 0b1001])
    def test_paper_example_folds_to_constants(self, pattern):
        check_against_simulation(paper_example_circuit(), pattern)

    @pytest.mark.parametrize("pattern", range(0, 32, 7))
    def test_c17_folds_to_constants(self, pattern):
        check_against_simulation(c17(), pattern)

    def test_no_clauses_emitted_when_fully_fixed(self):
        circuit = paper_example_circuit()
        cnf = Cnf()
        encode_under_assignment(
            circuit, cnf, fixed={"a": 1, "b": 0, "c": 0, "d": 1}
        )
        assert cnf.num_clauses == 0


class TestPartiallyFixed:
    def test_key_cone_stays_symbolic(self):
        locked = lock_sfll_hd(
            paper_example_circuit(), h=1, cube=(1, 0, 0, 1)
        )
        cnf = Cnf()
        key_vars = {name: cnf.new_var() for name in locked.key_names}
        pattern = {"a": 1, "b": 1, "c": 0, "d": 0}
        encoding = encode_under_assignment(
            locked.circuit, cnf, fixed=pattern, shared_vars=key_vars
        )
        out = locked.circuit.outputs[0]
        # The locked output depends on the keys: must be a literal.
        assert out in encoding.lits
        # And the CNF agrees with simulation for every key value.
        solver = Solver()
        solver.add_cnf(cnf)
        for key_value in range(16):
            key_bits = [(key_value >> i) & 1 for i in range(4)]
            assignment = dict(pattern)
            assignment.update(zip(locked.key_names, key_bits))
            expected = simulate_pattern(locked.circuit, assignment)[out]
            assumptions = [
                var if bit else -var
                for var, bit in zip(key_vars.values(), key_bits)
            ]
            lit = encoding.lits[out]
            assumptions.append(lit if expected else -lit)
            assert solver.solve(assumptions=assumptions) is SolveStatus.SAT
            assumptions[-1] = -assumptions[-1]
            assert solver.solve(assumptions=assumptions) is SolveStatus.UNSAT

    def test_assert_node_equals_constant_conflict(self):
        circuit = Circuit("c")
        circuit.add_input("a")
        circuit.add_gate("y", GateType.BUF, ["a"])
        circuit.add_output("y")
        cnf = Cnf()
        encoding = encode_under_assignment(circuit, cnf, fixed={"a": 1})
        encoding.assert_node_equals("y", 0)  # contradicts the constant
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve() is SolveStatus.UNSAT

    def test_assert_node_equals_literal(self):
        circuit = Circuit("c")
        circuit.add_input("a")
        circuit.add_input("k", key=True)
        circuit.add_gate("y", GateType.XOR, ["a", "k"])
        circuit.add_output("y")
        cnf = Cnf()
        k_var = cnf.new_var()
        encoding = encode_under_assignment(
            circuit, cnf, fixed={"a": 1}, shared_vars={"k": k_var}
        )
        encoding.assert_node_equals("y", 1)  # 1 XOR k = 1 => k = 0
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve() is SolveStatus.SAT
        assert solver.model_value(k_var) is False

    def test_free_inputs_get_fresh_vars(self):
        circuit = paper_example_circuit()
        cnf = Cnf()
        encoding = encode_under_assignment(circuit, cnf, fixed={"a": 0})
        assert "b" in encoding.lits
        assert "a" in encoding.consts


class TestGateFolding:
    @pytest.mark.parametrize(
        "gate_type,const_in,expect_const",
        [
            (GateType.AND, 0, 0),
            (GateType.NAND, 0, 1),
            (GateType.OR, 1, 1),
            (GateType.NOR, 1, 0),
        ],
    )
    def test_dominant_constants(self, gate_type, const_in, expect_const):
        circuit = Circuit("g")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("y", gate_type, ["a", "b"])
        circuit.add_output("y")
        cnf = Cnf()
        encoding = encode_under_assignment(circuit, cnf, fixed={"a": const_in})
        assert encoding.consts["y"] == expect_const
        assert cnf.num_clauses == 0

    @pytest.mark.parametrize(
        "gate_type",
        [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR],
    )
    def test_neutral_constants_pass_through(self, gate_type):
        neutral = 1 if gate_type in (GateType.AND, GateType.NAND) else 0
        inverting = gate_type in (GateType.NAND, GateType.NOR)
        circuit = Circuit("g")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("y", gate_type, ["a", "b"])
        circuit.add_output("y")
        cnf = Cnf()
        encoding = encode_under_assignment(circuit, cnf, fixed={"a": neutral})
        lit = encoding.lits["y"]
        b_lit = encoding.lits["b"]
        assert abs(lit) == abs(b_lit)
        assert (lit == -b_lit) == inverting

    def test_xor_parity_folding(self):
        circuit = Circuit("g")
        for name in ("a", "b", "c"):
            circuit.add_input(name)
        circuit.add_gate("y", GateType.XOR, ["a", "b", "c"])
        circuit.add_output("y")
        cnf = Cnf()
        encoding = encode_under_assignment(circuit, cnf, fixed={"a": 1, "b": 1})
        # 1 XOR 1 XOR c = c
        assert encoding.lits["y"] == encoding.lits["c"]

    def test_xnor_with_all_constants(self):
        circuit = Circuit("g")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("y", GateType.XNOR, ["a", "b"])
        circuit.add_output("y")
        cnf = Cnf()
        encoding = encode_under_assignment(circuit, cnf, fixed={"a": 1, "b": 1})
        assert encoding.consts["y"] == 1


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1_000),
    pattern=st.integers(min_value=0, max_value=255),
)
def test_cofactor_matches_simulation_property(seed, pattern):
    """Fully fixed cofactor encoding must equal simulation everywhere."""
    circuit = generate_random_circuit("cf", 8, 3, 50, seed=seed)
    check_against_simulation(circuit, pattern)


def _locked_random_circuit(scheme: str, circuit_seed: int) -> Circuit:
    original = generate_random_circuit("cd", 10, 3, 60, seed=circuit_seed)
    if scheme == "rll":
        locked = lock_random_xor(original, key_width=6, seed=circuit_seed)
    elif scheme == "ttlock":
        locked = lock_ttlock(original, key_width=6, seed=circuit_seed)
    else:
        locked = lock_sfll_hd(original, h=1, key_width=6, seed=circuit_seed)
    return locked.circuit


@seed(20190325)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cone_encoding_matches_full_walk(data):
    """Clause list, variable numbering and target values are unchanged.

    ``fixed`` takes the three shapes callers use: every circuit input (a
    distinguishing input), every key input (probe mining) and a random
    subset of inputs. Each circuit is encoded three times with the same
    targets, so later calls run on a cached plan when the fixed names
    repeat and must build a new one when they do not.
    """
    scheme = data.draw(st.sampled_from(["rll", "ttlock", "sfll_hd"]))
    circuit = _locked_random_circuit(
        scheme, data.draw(st.integers(min_value=0, max_value=10_000))
    )
    targets = data.draw(
        st.none()
        | st.lists(st.sampled_from(circuit.nodes), min_size=1, max_size=4,
                   unique=True)
    )
    for _ in range(3):
        shape = data.draw(st.sampled_from(["dip", "keys", "subset"]))
        if shape == "dip":
            fixed_names = list(circuit.circuit_inputs)
        elif shape == "keys":
            fixed_names = list(circuit.key_inputs)
        else:
            fixed_names = data.draw(
                st.lists(st.sampled_from(circuit.inputs), unique=True)
            )
        free = [name for name in circuit.inputs if name not in fixed_names]
        shared_names = data.draw(
            st.lists(st.sampled_from(free), unique=True) if free
            else st.just([])
        )
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=len(fixed_names),
                     max_size=len(fixed_names))
        )
        check_against_reference(
            circuit, dict(zip(fixed_names, bits)), shared_names, targets
        )


def test_mutation_invalidates_the_cone_plan():
    circuit = _locked_random_circuit("ttlock", 3)
    fixed = {name: 1 for name in circuit.circuit_inputs}
    check_against_reference(circuit, fixed, circuit.key_inputs)
    # A new key-dependent output gate re-pointed in place of output 0.
    old = circuit.outputs[0]
    new = circuit.add_gate(
        circuit.fresh_name("mut"), GateType.XOR, [old, circuit.key_inputs[0]]
    )
    circuit.replace_output(old, new)
    check_against_reference(circuit, fixed, circuit.key_inputs)
    cnf = Cnf()
    key_vars = {name: cnf.new_var() for name in circuit.key_inputs}
    encoding = encode_under_assignment(
        circuit, cnf, fixed=fixed, shared_vars=key_vars
    )
    assert new in encoding.lits or new in encoding.consts
