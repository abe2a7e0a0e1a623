"""CNF encodings of the Hamming-distance constraint.

The FALL functional analyses (Distance2H and SlidingWindow) constrain
the Hamming distance between two input vectors; these helpers build
that constraint from XOR difference bits and a cardinality encoding.
The same difference bits build the output miters of the oracle-guided
attacks (:mod:`repro.attacks.sat_attack`) and of
:func:`~repro.circuit.equivalence.check_equivalence`.
Each ``encode_*`` helper allocates fresh variables in the given
:class:`~repro.sat.cnf.Cnf` and appends the defining clauses. The gate
encoders of the circuit layer live in :mod:`repro.circuit.tseitin`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import EncodingError
from repro.sat.cardinality import encode_exactly
from repro.sat.cnf import Cnf


def encode_xor(cnf: Cnf, a: int, b: int) -> int:
    """Fresh ``out`` with ``out <-> a XOR b``."""
    out = cnf.new_var()
    cnf.add_clause([-out, a, b])
    cnf.add_clause([-out, -a, -b])
    cnf.add_clause([out, -a, b])
    cnf.add_clause([out, a, -b])
    return out


def encode_difference_bits(
    cnf: Cnf, xs: Sequence[int], ys: Sequence[int]
) -> list[int]:
    """Literals ``d_i <-> (x_i XOR y_i)``, one per position."""
    if len(xs) != len(ys):
        raise EncodingError(f"width mismatch: {len(xs)} vs {len(ys)}")
    return [encode_xor(cnf, x, y) for x, y in zip(xs, ys)]


def encode_hamming_distance_equals(
    cnf: Cnf,
    xs: Sequence[int],
    ys: Sequence[int],
    distance: int,
    method: str = "seq",
) -> list[int]:
    """Constrain ``HD(xs, ys) == distance``; return the difference bits.

    This is the ``HD(Supp(c), Supp(c')) = 2h`` constraint of Algorithms 2
    and 3 in the paper. The returned difference literals let callers add
    further constraints (e.g. the per-bit probes of Lemma 3).
    """
    if not 0 <= distance <= len(xs):
        raise EncodingError(
            f"Hamming distance {distance} impossible for width {len(xs)}"
        )
    diffs = encode_difference_bits(cnf, xs, ys)
    encode_exactly(cnf, diffs, distance, method=method)
    return diffs
