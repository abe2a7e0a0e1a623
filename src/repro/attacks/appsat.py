"""AppSAT — approximate SAT attack [Shamsi et al., HOST 2017].

The approximate attack that degraded SARLock (paper §I): interleave
normal SAT-attack iterations with random-query validation rounds. If a
candidate key survives a large random sample, it is *approximately*
correct (wrong on a vanishing fraction of inputs) — exactly the failure
mode of point-corruption schemes, whose effective protection collapses
once the attacker accepts an approximate netlist. Random-sample
disagreements are fed back as additional I/O constraints.

Returns SUCCESS with an exactly-correct key when the underlying SAT loop
converges, or ``details['approximate'] = True`` when the key was
accepted by sampling. The SAT loop, the I/O constraint and the key
extraction are the CEGIS core of :mod:`repro.attacks.sat_attack`; the
validation rounds run between its iterations.
"""

from __future__ import annotations

from repro.attacks.base import TelemetryRecorder
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackResult, AttackStatus
from repro.attacks.sat_attack import Cegis
from repro.circuit.circuit import Circuit
from repro.circuit.sharding import sweep_outputs
from repro.utils.rng import RngLike, make_rng
from repro.utils.timer import Budget


def appsat_attack(
    locked: Circuit,
    oracle: IOOracle,
    budget: Budget | None = None,
    max_iterations: int | None = None,
    settle_rounds: int = 4,
    queries_per_round: int = 64,
    error_threshold: float = 0.0,
    seed: RngLike = 0,
    telemetry: TelemetryRecorder | None = None,
) -> AttackResult:
    """Run AppSAT.

    Every ``settle_rounds`` SAT iterations, the current candidate key is
    validated on ``queries_per_round`` random patterns; if its sampled
    error rate is at most ``error_threshold`` for one full round, the
    key is accepted as approximately correct.
    """
    cegis = Cegis("appsat", locked, oracle, telemetry, random_phase=0.1)
    rng = make_rng(seed)
    input_names = locked.circuit_inputs
    output_names = locked.outputs

    def validate(iteration: int) -> AttackResult | None:
        if iteration % settle_rounds:
            return None
        # Validation round: random sampling against the oracle. The
        # whole round is two packed simulations — one sliced oracle
        # call and one keyed-netlist sweep with sample j in bit j —
        # and the disagreement set is a bitwise diff of packed words.
        _, key = cegis.keys.solve_key(budget)
        if key is None:
            return cegis.result(AttackStatus.FAILED, iterations=iteration)
        key_assignment = dict(zip(locked.key_inputs, key))
        samples = [
            {name: rng.getrandbits(1) for name in input_names}
            for _ in range(queries_per_round)
        ]
        observed_by_name = dict(
            zip(oracle.output_names, oracle.query_sliced(samples))
        )
        predicted_words = sweep_outputs(
            locked, [{**sample, **key_assignment} for sample in samples]
        )
        wrong = 0
        for name, predicted in zip(output_names, predicted_words):
            wrong |= observed_by_name[name] ^ predicted
        errors = wrong.bit_count()
        cegis.telemetry.event(
            "validation_round",
            stage="validate",
            iteration=iteration,
            samples=queries_per_round,
            disagreements=errors,
        )
        for j, sample in enumerate(samples):
            if (wrong >> j) & 1:
                cegis.observe(
                    sample,
                    {
                        name: (observed_by_name[name] >> j) & 1
                        for name in output_names
                    },
                )
        if errors / queries_per_round <= error_threshold:
            return cegis.result(
                AttackStatus.SUCCESS,
                key=key,
                iterations=iteration,
                approximate=True,
            )
        return None

    result = cegis.run(budget, max_iterations, after_dip=validate)
    result.details.setdefault("approximate", False)
    return result
