"""CNF formula container.

A :class:`Cnf` is a mutable clause database plus a variable counter. It is
the interchange format between the circuit encoder (:mod:`repro.circuit.
tseitin`), the cardinality encoders and the solvers. Clauses are tuples of
non-zero signed ints (DIMACS convention).

:meth:`Cnf.add_clause` is where encoder-built clauses are checked: it
rejects invalid literals and raises ``num_vars`` to cover every variable
used. :meth:`Solver.add_cnf <repro.sat.solver.Solver.add_cnf>` trusts
both and loads the clauses without checking them again.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import SolverError
from repro.sat.literals import check_literal, var_of


class Cnf:
    """A CNF formula: a variable pool and a list of clauses.

    >>> cnf = Cnf()
    >>> a, b = cnf.new_var(), cnf.new_var()
    >>> cnf.add_clause([a, b])
    >>> cnf.add_clause([-a])
    >>> cnf.num_vars, cnf.num_clauses
    (2, 2)
    """

    def __init__(self, num_vars: int = 0):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.clauses: list[tuple[int, ...]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable and return it (1-based)."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> list[int]:
        """Allocate ``count`` fresh variables."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.new_var() for _ in range(count)]

    def add_clause(self, lits: Iterable[int]) -> None:
        """Append one clause; literals may reference new variables."""
        clause = tuple(check_literal(l) for l in lits)
        for lit in clause:
            v = var_of(lit)
            if v > self.num_vars:
                self.num_vars = v
        self.clauses.append(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def copy(self) -> "Cnf":
        duplicate = Cnf(self.num_vars)
        duplicate.clauses = list(self.clauses)
        return duplicate

    # ------------------------------------------------------------------
    # Evaluation (used by tests and the DPLL reference solver)
    # ------------------------------------------------------------------
    def evaluate(self, assignment: dict[int, bool]) -> bool:
        """Truth value of the formula under a *total* assignment."""
        for clause in self.clauses:
            satisfied = False
            for lit in clause:
                v = var_of(lit)
                if v not in assignment:
                    raise SolverError(f"assignment is missing variable {v}")
                if assignment[v] == (lit > 0):
                    satisfied = True
                    break
            if not satisfied:
                return False
        return True

    def __repr__(self) -> str:
        return f"Cnf(num_vars={self.num_vars}, num_clauses={self.num_clauses})"
