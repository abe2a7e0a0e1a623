"""Tseitin encoding of circuits into CNF.

Each circuit node gets a CNF variable; gate semantics become clauses.
Multiple circuit instances can share one :class:`~repro.sat.cnf.Cnf`
(and selected variables) — this is how the SAT attack builds its
``C(X, K1, Y1) ∧ C(X, K2, Y2)`` double instantiation with shared inputs,
and how the FALL analyses instantiate a candidate cone twice for the
``HD(Supp(c), Supp(c')) = 2h`` queries.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.circuit.circuit import Circuit
from repro.circuit.compiled import compile_circuit
from repro.circuit.gates import GateType
from repro.errors import EncodingError
from repro.sat.cnf import Cnf


@dataclass
class CircuitEncoding:
    """The result of encoding one circuit instance into a CNF."""

    cnf: Cnf
    var_of: dict[str, int] = field(default_factory=dict)

    def lit(self, node: str, positive: bool = True) -> int:
        """The literal asserting ``node`` is 1 (or 0 if not positive)."""
        if node not in self.var_of:
            raise EncodingError(f"node {node!r} was not encoded")
        var = self.var_of[node]
        return var if positive else -var

    def lits(self, nodes: Sequence[str]) -> list[int]:
        return [self.lit(n) for n in nodes]


def encode_circuit(
    circuit: Circuit,
    cnf: Cnf | None = None,
    shared_vars: Mapping[str, int] | None = None,
    targets: Sequence[str] | None = None,
) -> CircuitEncoding:
    """Encode (the target cones of) a circuit into CNF.

    ``shared_vars`` pre-assigns CNF variables to nodes (typically inputs)
    so several instances can share them. ``targets`` restricts encoding to
    the fanin cones of the given nodes (default: the declared outputs).
    """
    if cnf is None:
        cnf = Cnf()
    if targets is None:
        targets = list(circuit.outputs)
        if not targets:
            raise EncodingError("circuit has no outputs and no targets given")
    encoding = CircuitEncoding(cnf=cnf)
    var_of = encoding.var_of
    if shared_vars:
        var_of.update(shared_vars)

    for node in circuit.topological_order(targets=list(targets)):
        if node in var_of:
            continue  # shared variable supplied by the caller
        gate_type = circuit.gate_type(node)
        var = cnf.new_var()
        var_of[node] = var
        if gate_type is GateType.INPUT:
            continue  # free variable
        if gate_type is GateType.CONST0:
            cnf.add_clause([-var])
            continue
        if gate_type is GateType.CONST1:
            cnf.add_clause([var])
            continue
        fanin_lits = [var_of[f] for f in circuit.fanins(node)]
        _encode_gate(cnf, gate_type, var, fanin_lits)
    return encoding


@dataclass
class CofactorEncoding:
    """Encoding of a circuit specialized under a partial input assignment.

    Every node the encoder visits evaluates either to a constant
    (``consts``) or to a CNF literal (``lits``, signed int — negation is
    free). ``consts`` holds the fixed inputs, the boundary nodes (the
    constant fanins of symbolic gates), the targets and any cone node
    that folded to a constant; constant logic further from the cone is
    never visited. Used by the SAT attack and key confirmation: with
    the distinguishing input fixed, everything outside the key-dependent
    cone constant-folds away and each iteration adds only a few clauses.
    """

    cnf: Cnf
    consts: dict[str, int] = field(default_factory=dict)
    lits: dict[str, int] = field(default_factory=dict)

    def assert_node_equals(self, node: str, bit: int) -> None:
        """Constrain ``node`` to the given 0/1 value."""
        if node in self.consts:
            if self.consts[node] != bit:
                self.cnf.add_clause([])  # contradiction: mark UNSAT
            return
        lit = self.lits[node]
        self.cnf.add_clause([lit if bit else -lit])


def encode_under_assignment(
    circuit: Circuit,
    cnf: Cnf,
    fixed: Mapping[str, int],
    shared_vars: Mapping[str, int] | None = None,
    targets: Sequence[str] | None = None,
) -> CofactorEncoding:
    """Encode a circuit with some inputs pinned to constants.

    ``fixed`` pins inputs to 0/1; ``shared_vars`` supplies CNF variables
    for other nodes (typically the key inputs); remaining inputs get
    fresh variables. Only the symbolic cone — nodes whose fanin cone
    reaches an input that is not fixed — is visited, in topological
    order; the constants it reads (see :class:`CofactorEncoding`) come
    from one compiled simulation. The cone split is cached per circuit
    version, targets and set of fixed names
    (:meth:`CompiledCircuit.cofactor_plan`), so repeated calls with
    fresh values pay only for the cone.
    """
    compiled = compile_circuit(circuit)
    plan = compiled.cofactor_plan(
        tuple(circuit.outputs if targets is None else targets),
        frozenset(fixed),
    )
    encoding = CofactorEncoding(cnf=cnf)
    consts = encoding.consts
    lits = encoding.lits
    if plan.boundary:
        consts.update(
            zip(plan.boundary, compiled.node_values(plan.boundary, fixed))
        )
    shared_vars = shared_vars or {}

    for node, gate_type, fanins in plan.symbolic:
        if gate_type is GateType.INPUT:
            if node in shared_vars:
                lits[node] = shared_vars[node]
            else:
                lits[node] = cnf.new_var()
            continue
        fanin_consts: list[int] = []
        fanin_lits: list[int] = []
        for fanin in fanins:
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


def _fold_gate(
    cnf: Cnf,
    gate_type: GateType,
    fanin_consts: list[int],
    fanin_lits: list[int],
) -> bool | int:
    """Partial-evaluate one gate; returns a bool (constant) or a literal."""
    if gate_type is GateType.BUF:
        return bool(fanin_consts[0]) if fanin_consts else fanin_lits[0]
    if gate_type is GateType.NOT:
        return (not fanin_consts[0]) if fanin_consts else -fanin_lits[0]
    if gate_type in (GateType.AND, GateType.NAND):
        invert = gate_type is GateType.NAND
        if 0 in fanin_consts:
            return invert
        value = _fold_and(cnf, fanin_lits)
        return _negate(value) if invert else value
    if gate_type in (GateType.OR, GateType.NOR):
        invert = gate_type is GateType.NOR
        if 1 in fanin_consts:
            return not invert
        value = _fold_or(cnf, fanin_lits)
        return _negate(value) if invert else value
    # XOR / XNOR
    parity = sum(fanin_consts) % 2
    if gate_type is GateType.XNOR:
        parity ^= 1
    if not fanin_lits:
        return bool(parity)
    acc = fanin_lits[0]
    for lit in fanin_lits[1:]:
        fresh = cnf.new_var()
        _xor2(cnf, fresh, acc, lit)
        acc = fresh
    return -acc if parity else acc


def _fold_and(cnf: Cnf, lits: list[int]) -> bool | int:
    if not lits:
        return True
    if len(lits) == 1:
        return lits[0]
    out = cnf.new_var()
    for lit in lits:
        cnf.add_clause([-out, lit])
    cnf.add_clause([out] + [-lit for lit in lits])
    return out


def _fold_or(cnf: Cnf, lits: list[int]) -> bool | int:
    if not lits:
        return False
    if len(lits) == 1:
        return lits[0]
    out = cnf.new_var()
    for lit in lits:
        cnf.add_clause([out, -lit])
    cnf.add_clause([-out] + list(lits))
    return out


def _negate(value: bool | int) -> bool | int:
    if isinstance(value, bool):
        return not value
    return -value


def _encode_gate(cnf: Cnf, gate_type: GateType, out: int, fanins: list[int]) -> None:
    if gate_type is GateType.BUF:
        cnf.add_clause([-out, fanins[0]])
        cnf.add_clause([out, -fanins[0]])
    elif gate_type is GateType.NOT:
        cnf.add_clause([-out, -fanins[0]])
        cnf.add_clause([out, fanins[0]])
    elif gate_type is GateType.AND:
        for lit in fanins:
            cnf.add_clause([-out, lit])
        cnf.add_clause([out] + [-lit for lit in fanins])
    elif gate_type is GateType.NAND:
        for lit in fanins:
            cnf.add_clause([out, lit])
        cnf.add_clause([-out] + [-lit for lit in fanins])
    elif gate_type is GateType.OR:
        for lit in fanins:
            cnf.add_clause([out, -lit])
        cnf.add_clause([-out] + list(fanins))
    elif gate_type is GateType.NOR:
        for lit in fanins:
            cnf.add_clause([-out, -lit])
        cnf.add_clause([out] + list(fanins))
    elif gate_type in (GateType.XOR, GateType.XNOR):
        _encode_parity(cnf, gate_type, out, fanins)
    else:  # pragma: no cover - exhaustive over gate kinds
        raise EncodingError(f"cannot encode gate type {gate_type.value}")


def _encode_parity(
    cnf: Cnf, gate_type: GateType, out: int, fanins: list[int]
) -> None:
    """XOR/XNOR via a linear chain of 2-input XOR constraints."""
    acc = fanins[0]
    for lit in fanins[1:]:
        fresh = cnf.new_var()
        _xor2(cnf, fresh, acc, lit)
        acc = fresh
    if gate_type is GateType.XOR:
        cnf.add_clause([-out, acc])
        cnf.add_clause([out, -acc])
    else:
        cnf.add_clause([-out, -acc])
        cnf.add_clause([out, acc])


def _xor2(cnf: Cnf, out: int, a: int, b: int) -> None:
    cnf.add_clause([-out, a, b])
    cnf.add_clause([-out, -a, -b])
    cnf.add_clause([out, -a, b])
    cnf.add_clause([out, a, -b])
