"""The SAT attack [Subramanyan, Ray, Malik — HOST 2015] and the CEGIS
core the oracle-guided attacks share.

The baseline oracle-guided attack (paper §I): iteratively find
*distinguishing input patterns* — inputs on which two candidate keys
produce different outputs — query the oracle, and constrain both key
instances with the observed I/O pair. When no distinguishing input
remains, any key consistent with the observed I/O behaviour is correct.

The SAT attack, Double DIP, AppSAT and key confirmation are all built
from the same pieces, which live here:

- :func:`check_oracle` rejects a keyless netlist and an oracle whose
  inputs or outputs are not the netlist's, before any query;
- :func:`encode_miter` instantiates the netlist ``copies`` times over
  shared inputs X in one CNF and joins the copies with a miter (by
  default the SAT attack's ``Y1 ≠ Y2``);
- :class:`ConstrainedSolver` is an incremental solver whose key
  variables accumulate the observed I/O pairs ``C(Xd, K, Yd)``, one
  cofactor encoding per key-variable set, and reads keys and inputs
  off its model;
- :class:`Cegis` runs the DIP loop: a DIP solver over the miter, a key
  solver whose model is the final key, the budget and iteration limits,
  and the result. Double DIP supplies only its 4-instance miter; AppSAT
  adds its validation rounds between iterations. Key confirmation
  (§V, Algorithm 4) drives its own two-solver loop from the same miter
  and I/O constraint.

Per distinguishing input, the cofactor encodings share one cached split
of the netlist into its key-dependent cone and the constant logic
around it. Each encoding runs one compiled simulation for the constants
at the cone's boundary and folds only the cone's gates, so the encoding
cost follows the cone, not the netlist. What remains is the solve
itself: the instance grows by one cone pair per iteration and each
solve propagates about all of it.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from repro.attacks.base import TelemetryRecorder, telemetry_or_null
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackResult, AttackStatus
from repro.circuit.circuit import Circuit
from repro.circuit.tseitin import encode_circuit, encode_under_assignment
from repro.errors import AttackError
from repro.sat.cnf import Cnf
from repro.sat.encodings import encode_difference_bits
from repro.sat.solver import Solver, SolveStatus
from repro.utils.timer import Budget, Stopwatch

#: ``miter(cnf, output_lits, key_sets)`` constrains the instances of
#: :func:`encode_miter`; ``output_lits[i]`` are copy i's output literals.
Miter = Callable[[Cnf, list[list[int]], list[dict[str, int]]], None]


def check_oracle(locked: Circuit, oracle: IOOracle) -> None:
    """Reject a keyless netlist and an oracle with other inputs or outputs."""
    if not locked.key_inputs:
        raise AttackError("circuit has no key inputs to attack")
    if set(oracle.input_names) != set(locked.circuit_inputs):
        raise AttackError("oracle inputs do not match the locked netlist")
    if set(oracle.output_names) != set(locked.outputs):
        raise AttackError("oracle outputs do not match the locked netlist")


def outputs_differ(cnf: Cnf, output_lits, key_sets) -> None:
    """The SAT-attack miter ``Y1 ≠ Y2``."""
    cnf.add_clause(encode_difference_bits(cnf, output_lits[0], output_lits[1]))


def encode_miter(
    locked: Circuit, copies: int = 2, miter: Miter = outputs_differ
) -> tuple[Cnf, dict[str, int], list[dict[str, int]]]:
    """``C(X, K_1, Y_1) ∧ … ∧ C(X, K_n, Y_n) ∧ miter`` in a fresh CNF.

    Returns the CNF, the shared input variables X and one key-variable
    set per copy (each in key-input order).
    """
    cnf = Cnf()
    x_vars = {name: cnf.new_var() for name in locked.circuit_inputs}
    key_sets = [
        {name: cnf.new_var() for name in locked.key_inputs}
        for _ in range(copies)
    ]
    encodings = [
        encode_circuit(locked, cnf, shared_vars={**x_vars, **key_vars})
        for key_vars in key_sets
    ]
    miter(cnf, [enc.lits(locked.outputs) for enc in encodings], key_sets)
    return cnf, x_vars, key_sets


class ConstrainedSolver:
    """An incremental solver whose key-variable sets learn I/O pairs.

    ``cnf`` only stages clauses on their way into the solver: the
    initial formula and each :meth:`constrain` batch go in with one
    :meth:`Solver.add_cnf` and are then dropped from ``cnf``, which
    keeps its variable counter so later encodings number on from it.
    """

    def __init__(
        self,
        locked: Circuit,
        cnf: Cnf,
        key_sets: Sequence[Mapping[str, int]],
        **solver_options,
    ):
        self.locked = locked
        self.cnf = cnf
        self.key_sets = key_sets
        self.solver = Solver(**solver_options)
        self._load()

    def constrain(
        self, pattern: Mapping[str, int], observed: Mapping[str, int]
    ) -> None:
        """Add ``C(pattern, K, observed)`` for every key-variable set K."""
        for key_vars in self.key_sets:
            enc = encode_under_assignment(
                self.locked, self.cnf, fixed=pattern, shared_vars=key_vars
            )
            for out in self.locked.outputs:
                enc.assert_node_equals(out, observed[out])
        self._load()

    def _load(self) -> None:
        self.solver.add_cnf(self.cnf)
        self.cnf.clauses.clear()

    def model(self, variables: Mapping[str, int]) -> dict[str, int]:
        """The 0/1 value of each named variable in the last model."""
        return {
            name: int(self.solver.model_value(var))
            for name, var in variables.items()
        }

    def solve_key(
        self, budget: Budget | None
    ) -> tuple[SolveStatus, tuple[int, ...] | None]:
        """Solve; on SAT also return the first key set's bits."""
        status = self.solver.solve(budget=budget)
        if status is not SolveStatus.SAT:
            return status, None
        return status, tuple(self.model(self.key_sets[0]).values())


class Cegis:
    """One oracle-guided CEGIS run over ``copies`` joined instances.

    The DIP solver holds the miter and constrains every copy's key set
    with each observation; the key solver accumulates the same
    observations over one key set, and its model is the final key.
    """

    def __init__(
        self,
        attack: str,
        locked: Circuit,
        oracle: IOOracle,
        telemetry: TelemetryRecorder | None,
        random_phase: float,
        copies: int = 2,
        miter: Miter = outputs_differ,
    ):
        self.stopwatch = Stopwatch()
        check_oracle(locked, oracle)
        self.attack = attack
        self.locked = locked
        self.oracle = oracle
        self.telemetry = telemetry_or_null(telemetry)
        self.queries_before = oracle.query_count
        with self.telemetry.stage("encode"):
            cnf, self.x_vars, key_sets = encode_miter(locked, copies, miter)
            # Random polarity decorrelates successive distinguishing
            # inputs (with pure phase saving the solver revisits the
            # same corner of the input space and progress stalls).
            self.dips = ConstrainedSolver(
                locked, cnf, key_sets, random_phase=random_phase
            )
            key_cnf = Cnf()
            key_vars = {name: key_cnf.new_var() for name in locked.key_inputs}
            self.keys = ConstrainedSolver(locked, key_cnf, [key_vars])

    @property
    def queries(self) -> int:
        return self.oracle.query_count - self.queries_before

    def observe(
        self, pattern: Mapping[str, int], observed: Mapping[str, int]
    ) -> None:
        """Constrain both solvers with one observed I/O pair."""
        self.dips.constrain(pattern, observed)
        self.keys.constrain(pattern, observed)

    def result(
        self, status: AttackStatus, key=None, iterations: int = 0, **details
    ) -> AttackResult:
        return AttackResult(
            attack=self.attack,
            status=status,
            key=key,
            key_names=self.locked.key_inputs,
            elapsed_seconds=self.stopwatch.elapsed,
            oracle_queries=self.queries,
            iterations=iterations,
            details={
                **details,
                "solver": self.dips.solver.stats.as_dict(),
                "key_solver": self.keys.solver.stats.as_dict(),
            },
        )

    def run(
        self,
        budget: Budget | None,
        max_iterations: int | None,
        after_dip: Callable[[int], AttackResult | None] | None = None,
    ) -> AttackResult:
        """Query DIPs until none is left, then extract the key.

        ``after_dip(iteration)`` runs after each observed DIP; a result
        it returns ends the attack.
        """
        iteration = 0
        while True:
            if (budget is not None and budget.expired) or (
                max_iterations is not None and iteration >= max_iterations
            ):
                return self.result(AttackStatus.TIMEOUT, iterations=iteration)
            status = self.dips.solver.solve(budget=budget)
            if status is SolveStatus.UNKNOWN:
                return self.result(AttackStatus.TIMEOUT, iterations=iteration)
            if status is SolveStatus.UNSAT:
                break
            iteration += 1
            distinguishing = self.dips.model(self.x_vars)
            observed = self.oracle.query(distinguishing)
            self.telemetry.iteration(
                "cegis",
                iteration,
                oracle_queries=self.queries,
                conflicts=self.dips.solver.stats.conflicts,
            )
            self.observe(distinguishing, observed)
            if after_dip is not None:
                outcome = after_dip(iteration)
                if outcome is not None:
                    return outcome

        with self.telemetry.stage("key_extraction"):
            final, key = self.keys.solve_key(budget)
        if final is SolveStatus.UNKNOWN:
            return self.result(AttackStatus.TIMEOUT, iterations=iteration)
        if final is SolveStatus.UNSAT:
            # No key consistent with the oracle: the netlist/oracle pair
            # is inconsistent (cannot happen for a well-formed locked
            # circuit).
            return self.result(AttackStatus.FAILED, iterations=iteration)
        return self.result(AttackStatus.SUCCESS, key=key, iterations=iteration)


def sat_attack(
    locked: Circuit,
    oracle: IOOracle,
    budget: Budget | None = None,
    max_iterations: int | None = None,
    telemetry: TelemetryRecorder | None = None,
) -> AttackResult:
    """Run the SAT attack on a locked netlist with oracle access."""
    cegis = Cegis("sat-attack", locked, oracle, telemetry, random_phase=0.2)
    return cegis.run(budget, max_iterations)
