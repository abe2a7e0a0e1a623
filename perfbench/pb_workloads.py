"""Workloads: the seeded (circuit, defense, attack) cell lists.

A workload's cell list is a pure function of ``(workload, seed)``:
:func:`plan` returns light :class:`CellSpec` records (sizes and seeds,
no circuits), and :func:`build_cells` turns them into generated,
locked circuits with their oracles. The attacks receive only the
generated netlists; the seed never reaches the program.

Cells are listed round-robin over the defenses (FALL: over the
Hamming-distance settings of each profile), so a repeat pass cut short
by the run's deadline still samples every defense.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.attacks.oracle import IOOracle
from repro.circuit.circuit import Circuit
from repro.circuit.random_circuits import generate_random_circuit
from repro.experiments.profiles import TABLE1_PROFILES, h_for
from repro.locking import (
    lock_antisat,
    lock_random_xor,
    lock_sarlock,
    lock_sfll_hd,
    lock_ttlock,
)
from repro.locking.base import LockedCircuit

#: Per-cell attack time limit in seconds: far above the slowest cell
#: (about 2 s), so FALL's wall-clock budget slicing never binds and the
#: results do not depend on timing.
TIME_LIMIT = 120.0


@dataclass(frozen=True)
class CellSpec:
    """Everything needed to regenerate one cell deterministically."""

    cell_id: str
    attack: str
    defense: str
    num_inputs: int
    num_outputs: int
    num_gates: int
    key_width: int
    h: int
    circuit_seed: int
    lock_seed: int
    shortlist: int = 0  # key-confirmation shortlist size (0 = none)


@dataclass
class Cell:
    """A built cell: the original netlist, its lock and the attack input."""

    spec: CellSpec
    original: Circuit
    locked: LockedCircuit
    oracle: IOOracle | None
    candidates: tuple[tuple[int, ...], ...] | None

    def fresh_inputs(self) -> tuple[Circuit, IOOracle | None]:
        """Uncached copies of the locked netlist and the oracle.

        The program memoizes derived structure and compiled simulators
        on circuit objects; every timed run gets fresh copies so that
        each run pays the per-circuit costs one ``fall-attack``
        invocation pays.
        """
        oracle = (
            IOOracle(self.oracle.circuit.copy())
            if self.oracle is not None
            else None
        )
        return self.locked.circuit.copy(), oracle


# ----------------------------------------------------------------------
# sat_cegis: the SAT attack's incremental CEGIS loop
# ----------------------------------------------------------------------
SAT_DEFENSES = (
    # (defense, key width, Hamming distance)
    ("rll", 12, 0),
    ("ttlock", 6, 0),
    ("sfll_hd1", 6, 1),
    ("sarlock", 5, 0),
    ("antisat", 5, 0),
)
SAT_CELLS_PER_DEFENSE = 10
SAT_INPUTS = (10, 13)
SAT_GATES = (40, 80)
SAT_OUTPUTS = 3

# ----------------------------------------------------------------------
# fall_oracle_less: FALL stage 1 on the Table I profiles
# ----------------------------------------------------------------------
FALL_SETTINGS = ("hd0", "m/8", "m/4")
FALL_MAX_KEY = 10
FALL_MAX_GATES = 250
FALL_MAX_INPUTS = 64
FALL_MAX_OUTPUTS = 16

# ----------------------------------------------------------------------
# key_confirm: stage 2 (key confirmation) on shortlists
# ----------------------------------------------------------------------
CONFIRM_DEFENSES = (
    ("ttlock", 0),
    ("sfll_hd2", 2),
    ("sarlock", 0),
    ("antisat", 0),
)
CONFIRM_KEY_WIDTH = 6
CONFIRM_CELLS_PER_DEFENSE = 10
CONFIRM_INPUTS = (12, 16)
CONFIRM_GATES = (40, 70)
CONFIRM_OUTPUTS = 3
CONFIRM_SHORTLISTS = (2, 3, 4)

WORKLOADS = ("sat_cegis", "fall_oracle_less", "key_confirm")


def fall_profiles():
    """The Table I profiles FALL is benchmarked on.

    Profiles whose key covers every input (ex1010, apex4: 10 inputs,
    10-bit key) are left out: every gate then depends on all protected
    inputs, the candidate scan spans the whole netlist, and the cell
    time swings about 8x with the seed (0.8 s to 7.1 s measured).
    """
    return tuple(
        profile
        for profile in TABLE1_PROFILES
        if min(profile.key_width, FALL_MAX_KEY) < profile.num_inputs
    )


def plan(workload: str, seed: int) -> list[CellSpec]:
    """The cell list of ``workload`` for ``seed`` (no circuits built)."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sat_cegis":
        return _plan_sat(rng)
    if workload == "fall_oracle_less":
        return _plan_fall(rng)
    if workload == "key_confirm":
        return _plan_confirm(rng)
    raise ValueError(
        f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}"
    )


def size_grid(
    count: int, inputs: tuple[int, int], gates: tuple[int, int]
) -> list[tuple[int, int]]:
    """``count`` (inputs, gates) pairs spread evenly over both ranges.

    Every seed gets the same sizes for each defense (in a seeded
    order), so the seed varies circuit structure, not circuit size,
    and run-to-run differences stay small.
    """
    span = inputs[1] - inputs[0] + 1
    return [
        (
            inputs[0] + index % span,
            gates[0] + round(index * (gates[1] - gates[0]) / (count - 1)),
        )
        for index in range(count)
    ]


def _shuffled_grids(rng, defenses, count, inputs, gates):
    grids = {}
    for defense in defenses:
        grid = size_grid(count, inputs, gates)
        rng.shuffle(grid)
        grids[defense] = grid
    return grids


def _plan_sat(rng: random.Random) -> list[CellSpec]:
    grids = _shuffled_grids(
        rng, [d for d, _, _ in SAT_DEFENSES], SAT_CELLS_PER_DEFENSE,
        SAT_INPUTS, SAT_GATES,
    )
    cells = []
    for index in range(SAT_CELLS_PER_DEFENSE):
        for defense, key_width, h in SAT_DEFENSES:
            num_inputs, num_gates = grids[defense][index]
            cells.append(
                CellSpec(
                    cell_id=f"sat_cegis/{len(cells):03d}/{defense}",
                    attack="sat",
                    defense=defense,
                    num_inputs=num_inputs,
                    num_outputs=SAT_OUTPUTS,
                    num_gates=num_gates,
                    key_width=key_width,
                    h=h,
                    circuit_seed=rng.getrandbits(31),
                    lock_seed=rng.getrandbits(31),
                )
            )
    return cells


def _plan_fall(rng: random.Random) -> list[CellSpec]:
    cells = []
    for profile in fall_profiles():
        key_width = min(profile.key_width, FALL_MAX_KEY)
        circuit_seed = rng.getrandbits(31)
        for label in FALL_SETTINGS:
            h = h_for(label, key_width)
            cells.append(
                CellSpec(
                    cell_id=f"fall_oracle_less/{len(cells):03d}/"
                    f"{profile.name}/{label}",
                    attack="fall",
                    defense=f"sfll_hd{h}",
                    num_inputs=min(profile.num_inputs, FALL_MAX_INPUTS),
                    num_outputs=min(profile.num_outputs, FALL_MAX_OUTPUTS),
                    num_gates=min(profile.num_gates, FALL_MAX_GATES),
                    key_width=key_width,
                    h=h,
                    circuit_seed=circuit_seed,
                    lock_seed=rng.getrandbits(31),
                )
            )
    return cells


def _plan_confirm(rng: random.Random) -> list[CellSpec]:
    grids = _shuffled_grids(
        rng, [d for d, _ in CONFIRM_DEFENSES], CONFIRM_CELLS_PER_DEFENSE,
        CONFIRM_INPUTS, CONFIRM_GATES,
    )
    cells = []
    for index in range(CONFIRM_CELLS_PER_DEFENSE):
        shortlist = CONFIRM_SHORTLISTS[index % len(CONFIRM_SHORTLISTS)]
        for defense, h in CONFIRM_DEFENSES:
            num_inputs, num_gates = grids[defense][index]
            cells.append(
                CellSpec(
                    cell_id=f"key_confirm/{len(cells):03d}/{defense}",
                    attack="key-confirmation",
                    defense=defense,
                    num_inputs=num_inputs,
                    num_outputs=CONFIRM_OUTPUTS,
                    num_gates=num_gates,
                    key_width=CONFIRM_KEY_WIDTH,
                    h=h,
                    circuit_seed=rng.getrandbits(31),
                    lock_seed=rng.getrandbits(31),
                    shortlist=shortlist,
                )
            )
    return cells


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
def _lock(spec: CellSpec, original: Circuit) -> LockedCircuit:
    width, seed = spec.key_width, spec.lock_seed
    if spec.defense == "rll":
        return lock_random_xor(original, key_width=width, seed=seed)
    if spec.defense == "ttlock":
        return lock_ttlock(original, key_width=width, seed=seed)
    if spec.defense.startswith("sfll_hd"):
        return lock_sfll_hd(original, h=spec.h, key_width=width, seed=seed)
    if spec.defense == "sarlock":
        return lock_sarlock(original, key_width=width, seed=seed)
    if spec.defense == "antisat":
        return lock_antisat(original, key_width=width, seed=seed)
    raise ValueError(f"unknown defense {spec.defense!r}")


def shortlist_for(
    correct: tuple[int, ...], size: int, seed: int
) -> tuple[tuple[int, ...], ...]:
    """The correct key plus ``size - 1`` distinct seeded decoys, shuffled."""
    rng = random.Random(f"shortlist/{seed}")
    keys = {tuple(correct)}
    while len(keys) < size:
        keys.add(tuple(rng.getrandbits(1) for _ in correct))
    shortlist = sorted(keys)
    rng.shuffle(shortlist)
    return tuple(shortlist)


def build_cell(spec: CellSpec) -> Cell:
    """Generate, lock and (for oracle-guided attacks) build the oracle."""
    original = generate_random_circuit(
        spec.cell_id,
        spec.num_inputs,
        spec.num_outputs,
        spec.num_gates,
        seed=spec.circuit_seed,
    )
    locked = _lock(spec, original)
    oracle = IOOracle(original) if spec.attack != "fall" else None
    candidates = None
    if spec.shortlist:
        candidates = shortlist_for(
            locked.reveal_correct_key(), spec.shortlist, spec.lock_seed
        )
    return Cell(spec, original, locked, oracle, candidates)


def build_cells(specs: list[CellSpec]) -> list[Cell]:
    return [build_cell(spec) for spec in specs]
