"""The two-copy formula of FALL's functional analyses (paper §IV-B).

AnalyzeUnateness, SlidingWindow and Distance2H all query the candidate
cone instantiated twice, ``c(X) ∧ c(X')``, over two fresh input
vectors. SlidingWindow and Distance2H both solve
``c(X) ∧ c(X') ∧ c = c' = 1 ∧ HD(X, X') = 2h``.
"""

from __future__ import annotations

from repro.circuit.circuit import Circuit
from repro.circuit.tseitin import encode_circuit
from repro.sat.cnf import Cnf
from repro.sat.encodings import encode_hamming_distance_equals
from repro.sat.solver import Solver


def encode_cone_pair(
    cone: Circuit,
) -> tuple[Cnf, dict[str, int], dict[str, int], int, int]:
    """``c(X) ∧ c(X')`` for a single-output cone.

    Returns the CNF, the variables of X and of X' (by input name) and
    the two output literals.
    """
    output = cone.outputs[0]
    cnf = Cnf()
    x_vars = {name: cnf.new_var() for name in cone.inputs}
    x2_vars = {name: cnf.new_var() for name in cone.inputs}
    enc = encode_circuit(cone, cnf, shared_vars=x_vars)
    enc2 = encode_circuit(cone, cnf, shared_vars=x2_vars)
    return cnf, x_vars, x2_vars, enc.lit(output), enc2.lit(output)


def distance_pair_solver(
    cone: Circuit, h: int, cardinality_method: str
) -> tuple[Solver, dict[str, int], dict[str, int]]:
    """A solver over ``c(X) ∧ c(X') ∧ c = c' = 1 ∧ HD(X, X') = 2h``.

    Returns the solver and the variables of X and of X'.
    """
    cnf, x_vars, x2_vars, out, out2 = encode_cone_pair(cone)
    cnf.add_clause([out])   # strip(X) = 1
    cnf.add_clause([out2])  # strip(X') = 1
    encode_hamming_distance_equals(
        cnf,
        list(x_vars.values()),
        list(x2_vars.values()),
        2 * h,
        method=cardinality_method,
    )
    solver = Solver()
    solver.add_cnf(cnf)
    return solver, x_vars, x2_vars
