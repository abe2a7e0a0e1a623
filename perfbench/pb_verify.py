"""The benchmark's own success criterion: a functionally exact key.

An attack's ``SUCCESS`` status is never taken on trust (Hu et al., "On
the One-Key Premise of Logic Locking"). Every returned key is checked
outside the timed region, in three steps:

1. a key equal to the defender's correct key is exact;
2. otherwise, on circuits with at most :data:`EXHAUSTIVE_MAX_INPUTS`
   inputs, one exhaustive bit-sliced simulation of the original and of
   the locked netlist under the key decides;
3. otherwise, a SAT miter (``check_equivalence``) decides.
"""

from __future__ import annotations

from repro.circuit.circuit import Circuit
from repro.circuit.compiled import canonical_input_words, compile_circuit
from repro.circuit.equivalence import check_equivalence
from repro.locking.base import LockedCircuit

EXHAUSTIVE_MAX_INPUTS = 20

EXACT = "exact"
WRONG = "wrong"
UNDECIDED = "undecided"


def key_verdict(
    original: Circuit, locked: LockedCircuit, key
) -> tuple[str, str]:
    """``(verdict, method)`` for ``key`` on ``locked`` against ``original``.

    ``verdict`` is :data:`EXACT`, :data:`WRONG`, or :data:`UNDECIDED`
    (the equivalence check gave no answer); ``method`` names the step
    that decided: ``"correct-key"``, ``"exhaustive"`` or
    ``"equivalence"``.
    """
    key = tuple(int(bit) for bit in key)
    if key == tuple(locked.reveal_correct_key()):
        return EXACT, "correct-key"
    unlocked = locked.unlocked_with(key)
    names = original.inputs
    if len(names) <= EXHAUSTIVE_MAX_INPUTS:
        words = dict(zip(names, canonical_input_words(len(names))))
        width = 1 << len(names)
        expected = compile_circuit(original).eval_outputs_sliced(words, width)
        actual = compile_circuit(unlocked).eval_outputs_sliced(words, width)
        return (EXACT if expected == actual else WRONG), "exhaustive"
    proof = check_equivalence(original, unlocked)
    if proof.proved:
        return EXACT, "equivalence"
    if proof.refuted:
        return WRONG, "equivalence"
    return UNDECIDED, "equivalence"
