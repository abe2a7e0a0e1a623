"""Cheap simulation pre-filters for FALL candidates.

Support-set matching typically shortlists not just the stripper output
but every popcount sum bit of the Hamming-distance comparator (they all
have full support over Compx). Running the SAT-based functional analyses
on each of those wastes most of the attack budget, so we first reject
candidates with bit-parallel random simulation:

- **density**: ``strip_h`` is 1 on exactly C(m, h) of the 2^m input
  patterns — a vanishing fraction for the h values SFLL uses. A node
  whose sampled density is far from both C(m,h)/2^m and its complement
  cannot be (the complement of) a stripping function.
- **monotonicity** (h = 0 only): a cube is unate in every variable, so a
  single packed simulation of both cofactors per variable refutes most
  non-cube candidates without touching the solver.

These are conservative filters (they only *reject*): false negatives are
made statistically negligible by the pattern count, and the subsequent
SAT analyses + equivalence check remain the source of truth.
"""

from __future__ import annotations

from math import comb

from repro.circuit.circuit import Circuit
from repro.circuit.sharding import sweep_outputs
from repro.errors import AttackError
from repro.utils.rng import RngLike, make_rng

_DENSITY_MARGIN = 2.0  # accept densities up to this multiple of expected
_MIN_EXPECTED = 0.02   # but never reject below this absolute density


def strip_density(m: int, h: int) -> float:
    """Fraction of inputs on which strip_h is 1: C(m, h) / 2^m."""
    if not 0 <= h <= m:
        return 0.0
    return comb(m, h) / (1 << m)


def density_polarities(density: float, m: int, h: int) -> tuple[bool, bool]:
    """(try_plain, try_complement) after the density test.

    The netlist may realize F or ¬F, so the pipeline analyses both
    polarities; a candidate's sampled ``density`` (its fraction of
    ones) rules out each polarity whose density is inconsistent with
    ``strip_h`` over ``m`` inputs.
    """
    threshold = max(_MIN_EXPECTED, _DENSITY_MARGIN * strip_density(m, h))
    return density <= threshold, (1.0 - density) <= threshold


def passes_unateness_sim(
    cone: Circuit,
    patterns: int = 256,
    seed: RngLike = 0,
) -> bool:
    """Quick refutation of unateness by cofactor simulation (h = 0).

    For each support variable, simulate both cofactors on shared random
    patterns; witnessing both a 1→0 and a 0→1 flip proves the function
    binate in that variable, so it cannot be a cube (Lemma 1).

    The cone is compiled once and both cofactors of each pivot share a
    single double-width pass: the low cofactor occupies bits
    ``[0, patterns)`` and the high cofactor bits ``[patterns, 2p)``.
    """
    if len(cone.outputs) != 1:
        raise AttackError("passes_unateness_sim expects a single-output cone")
    rng = make_rng(seed)
    inputs = list(cone.inputs)
    base = {name: rng.getrandbits(patterns) for name in inputs}
    mask = (1 << patterns) - 1
    doubled = {name: word | (word << patterns) for name, word in base.items()}
    for pivot in inputs:
        cofactors = dict(doubled)
        cofactors[pivot] = mask << patterns  # low half 0, high half 1
        (word,) = sweep_outputs(cone, cofactors, width=2 * patterns)
        value_low = word & mask
        value_high = (word >> patterns) & mask
        positive_violation = value_low & ~value_high & mask
        negative_violation = ~value_low & value_high & mask
        if positive_violation and negative_violation:
            return False
    return True
