"""Double DIP [Shen & Zhou, GLSVLSI 2017].

The SAT-attack variant that broke SARLock (paper §I): each iteration
demands a distinguishing input that rules out *at least two* wrong keys
simultaneously (two key instances that agree with each other on the
distinguishing input's output yet both differ from a third/fourth pair).
Against point-corruption schemes like SARLock — where every wrong key is
distinguished only by its own single pattern — requiring 2-wise
distinction exhausts the spurious key space in half the iterations and,
more importantly, terminates with a key whose error count is not 1.

Implementation: four circuit instances C(X,K1,Y1..K4,Y4) with
``Y1 = Y2 ≠ Y3 = Y4``, ``K1 ≠ K2`` and ``K3 ≠ K4``; observed I/O
constrains all four key instances. When no such input remains, any key
consistent with the observations is returned. This is the standard
formulation specialized to s = 2. Only the 4-instance miter is Double
DIP's own; the DIP loop, the I/O constraint and the key extraction are
the CEGIS core of :mod:`repro.attacks.sat_attack`.
"""

from __future__ import annotations

from repro.attacks.base import TelemetryRecorder
from repro.attacks.oracle import IOOracle
from repro.attacks.results import AttackResult
from repro.attacks.sat_attack import Cegis
from repro.circuit.circuit import Circuit
from repro.sat.cnf import Cnf
from repro.sat.encodings import encode_difference_bits
from repro.utils.timer import Budget


def double_dip_attack(
    locked: Circuit,
    oracle: IOOracle,
    budget: Budget | None = None,
    max_iterations: int | None = None,
    telemetry: TelemetryRecorder | None = None,
) -> AttackResult:
    """Run the Double DIP attack (2-distinguishing input patterns)."""
    cegis = Cegis(
        "double-dip",
        locked,
        oracle,
        telemetry,
        random_phase=0.1,
        copies=4,
        miter=_two_key_miter,
    )
    return cegis.run(budget, max_iterations)


def _two_key_miter(cnf: Cnf, output_lits, key_sets) -> None:
    # Y1 == Y2, Y3 == Y4, Y1 != Y3, K1 != K2, K3 != K4: whichever group
    # the oracle contradicts, two distinct keys fall at once.
    for left, right in ((0, 1), (2, 3)):
        for bit in encode_difference_bits(
            cnf, output_lits[left], output_lits[right]
        ):
            cnf.add_clause([-bit])
    cnf.add_clause(encode_difference_bits(cnf, output_lits[0], output_lits[2]))
    for left, right in ((0, 1), (2, 3)):
        cnf.add_clause(
            encode_difference_bits(
                cnf,
                list(key_sets[left].values()),
                list(key_sets[right].values()),
            )
        )
