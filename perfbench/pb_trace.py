"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions of each layer at the names
their callers look up (``from repro.circuit.tseitin import
encode_under_assignment`` copies the function into every importing
module, so each copy is replaced) and records one span per call:
``[name, start, end, parent index, cell id]``. Spans stay in memory and
are written out when the run ends. Counters read at the same boundaries
(solver statistics before and after ``solve``, clause growth of the CNF
an encoder appends to, oracle patterns, sweep widths) are accumulated
per cell.

A call made while a span of the same name is open (``add_cnf`` calling
``add_clause``, ``encode_exactly`` calling ``encode_at_most``) is part
of the enclosing span and records nothing of its own.

Wrappers pass arguments, results and exceptions through unchanged;
the benchmark checks that a traced run reproduces the untraced run's
results exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import weakref
from collections import defaultdict
from collections.abc import Mapping
from time import perf_counter

from repro.attacks.oracle import IOOracle
from repro.sat.solver import Solver

CELL = "cell"

#: Spans of program layers; their union is the traced share of a cell.
LAYER_SPANS = (
    "sat.solver.solve",
    "sat.solver.load",
    "circuit.tseitin.encode",
    "circuit.tseitin.cofactor",
    "circuit.circuit.region_order",
    "sat.cardinality",
    "circuit.equivalence.check",
    "circuit.compiled.compile",
    "circuit.sharding.sweep",
    "attacks.oracle",
)

#: Attack-family entry points called by ``run_attack``.
FAMILY_SPANS = (
    "attacks.fall",
    "attacks.sat_attack",
    "attacks.key_confirmation",
)

# (module, function, span name); each module function is replaced in
# every ``repro`` module that holds it.
_FUNCTIONS = (
    ("repro.circuit.tseitin", "encode_circuit", "circuit.tseitin.encode"),
    ("repro.circuit.tseitin", "encode_under_assignment",
     "circuit.tseitin.cofactor"),
    ("repro.circuit.circuit", "topological_region_order",
     "circuit.circuit.region_order"),
    ("repro.sat.cardinality", "encode_at_most", "sat.cardinality"),
    ("repro.sat.cardinality", "encode_at_least", "sat.cardinality"),
    ("repro.sat.cardinality", "encode_exactly", "sat.cardinality"),
    ("repro.circuit.equivalence", "check_equivalence",
     "circuit.equivalence.check"),
    ("repro.circuit.compiled", "compile_circuit", "circuit.compiled.compile"),
    ("repro.circuit.sharding", "sweep_outputs", "circuit.sharding.sweep"),
    ("repro.circuit.sharding", "sweep_node_values", "circuit.sharding.sweep"),
    ("repro.circuit.sharding", "sweep_popcounts", "circuit.sharding.sweep"),
    ("repro.circuit.sharding", "sweep_truth_table", "circuit.sharding.sweep"),
    ("repro.attacks.fall.sliding_window", "sliding_window",
     "attacks.fall.sliding_window"),
    ("repro.attacks.fall.distance2h", "distance_2h",
     "attacks.fall.distance_2h"),
    ("repro.attacks.fall.unateness", "analyze_unateness",
     "attacks.fall.unateness"),
    ("repro.attacks.fall.equivalence", "confirm_cube",
     "attacks.fall.confirm_cube"),
    ("repro.attacks.fall.pipeline", "fall_attack", "attacks.fall"),
    ("repro.attacks.sat_attack", "sat_attack", "attacks.sat_attack"),
    ("repro.attacks.key_confirmation", "key_confirmation",
     "attacks.key_confirmation"),
)

# (class, method, span name)
_METHODS = (
    (Solver, "solve", "sat.solver.solve"),
    (Solver, "add_clause", "sat.solver.load"),
    (Solver, "add_cnf", "sat.solver.load"),
    (IOOracle, "query", "attacks.oracle"),
    (IOOracle, "query_batch", "attacks.oracle"),
    (IOOracle, "query_sliced", "attacks.oracle"),
    (IOOracle, "query_bits", "attacks.oracle"),
)


class Tracer:
    """Spans and counters of one traced pass over a workload's cells."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.cell: str | None = None
        self._stack: list[int] = []
        self._compiled = weakref.WeakSet()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def run_cell(self, cell_id: str, fn, *args, **kwargs):
        """Call ``fn`` as cell ``cell_id``, under a root :data:`CELL` span."""
        self.cell = cell_id
        try:
            return self._call(CELL, fn, args, kwargs, None)
        finally:
            self.cell = None

    def _call(self, name, fn, args, kwargs, hook):
        stack = self._stack
        if self.cell is None or (stack and self.spans[stack[-1]][0] == name):
            return fn(*args, **kwargs)
        before = hook.before(self, args, kwargs) if hook else None
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.cell]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            stack.pop()
        if hook:
            hook.after(self, before, args, kwargs, result)
        return result

    def count(self, metric: str, amount: int = 1) -> None:
        self.counts[self.cell][metric] += amount

    def maximum(self, metric: str, value: int) -> None:
        cell_counts = self.counts[self.cell]
        if value > cell_counts[metric]:
            cell_counts[metric] = value

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Replace every traced function and method with its wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        originals = [
            (getattr(importlib.import_module(module_name), attr), attr, span)
            for module_name, attr, span in _FUNCTIONS
        ]
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for original, attr, span in originals:
            wrapper = self._wrap(span, original, _HOOKS.get(attr))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for cls, attr, span in _METHODS:
            original = cls.__dict__[attr]
            self._patch(cls, attr, self._wrap(span, original, _HOOKS.get(attr)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, hook)

        return wrapper

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# Counter hooks: ``before`` runs outside the span, ``after`` on success
# ----------------------------------------------------------------------
class _SolveHook:
    @staticmethod
    def before(tracer, args, kwargs):
        stats = args[0].stats
        tracer.maximum("sat.solver.vars_at_solve_max", args[0].num_vars)
        return stats.propagations, stats.conflicts, stats.decisions

    @staticmethod
    def after(tracer, before, args, kwargs, result):
        stats = args[0].stats
        tracer.count("sat.solver.solve_calls")
        tracer.count("sat.solver.propagations", stats.propagations - before[0])
        tracer.count("sat.solver.conflicts", stats.conflicts - before[1])
        tracer.count("sat.solver.decisions", stats.decisions - before[2])


class _EncodeHook:
    """Clause growth of the CNF an encoder appends to (argument 2)."""

    def __init__(self, calls_metric: str):
        self.calls_metric = calls_metric

    @staticmethod
    def _cnf(args, kwargs):
        return kwargs["cnf"] if "cnf" in kwargs else args[1]

    def before(self, tracer, args, kwargs):
        return len(self._cnf(args, kwargs).clauses)

    def after(self, tracer, before, args, kwargs, result):
        tracer.count(self.calls_metric)
        tracer.count(
            "circuit.tseitin.clauses",
            len(self._cnf(args, kwargs).clauses) - before,
        )


class _CountHook:
    def __init__(self, metric: str):
        self.metric = metric

    def before(self, tracer, args, kwargs):
        return None

    def after(self, tracer, before, args, kwargs, result):
        tracer.count(self.metric)


class _CompileHook:
    @staticmethod
    def before(tracer, args, kwargs):
        return None

    @staticmethod
    def after(tracer, before, args, kwargs, result):
        tracer.count("circuit.compiled.compile_calls")
        if result not in tracer._compiled:
            tracer._compiled.add(result)
            tracer.count("circuit.compiled.compile_misses")


class _SweepHook:
    """Counts sweeps and records the widest one (in patterns)."""

    def __init__(self, fn):
        self.signature = inspect.signature(fn)

    def before(self, tracer, args, kwargs):
        bound = self.signature.bind(*args, **kwargs).arguments
        width = bound.get("width")
        patterns = bound.get("patterns")
        if width is None and patterns is not None and not isinstance(
            patterns, Mapping
        ) and hasattr(patterns, "__len__"):
            width = len(patterns)
        return width

    @staticmethod
    def after(tracer, width, args, kwargs, result):
        tracer.count("circuit.sharding.sweep_calls")
        if width is None and isinstance(result, tuple) and len(result) == 2:
            width = 1 << len(result[1])  # truth table: (table, support)
        tracer.maximum("circuit.sharding.sweep_patterns_max", width or 0)


class _OracleHook:
    def __init__(self, batched: bool):
        self.batched = batched

    def before(self, tracer, args, kwargs):
        return None

    def after(self, tracer, before, args, kwargs, result):
        tracer.count("attacks.oracle.calls")
        tracer.count("attacks.oracle.patterns", len(args[1]) if self.batched else 1)


class _ConfirmHook:
    @staticmethod
    def before(tracer, args, kwargs):
        return None

    @staticmethod
    def after(tracer, before, args, kwargs, result):
        tracer.count("attacks.fall.confirm_calls")
        if result:
            tracer.count("attacks.fall.confirmed")


def _sweep_hooks() -> dict:
    from repro.circuit import sharding

    return {
        name: _SweepHook(getattr(sharding, name))
        for name in (
            "sweep_outputs",
            "sweep_node_values",
            "sweep_popcounts",
            "sweep_truth_table",
        )
    }


_HOOKS = {
    "solve": _SolveHook,
    "encode_circuit": _EncodeHook("circuit.tseitin.encode_calls"),
    "encode_under_assignment": _EncodeHook("circuit.tseitin.cofactor_calls"),
    "topological_region_order": _CountHook("circuit.circuit.region_order_calls"),
    "encode_at_most": _CountHook("sat.cardinality.calls"),
    "encode_at_least": _CountHook("sat.cardinality.calls"),
    "encode_exactly": _CountHook("sat.cardinality.calls"),
    "check_equivalence": _CountHook("circuit.equivalence.check_calls"),
    "compile_circuit": _CompileHook,
    "query": _OracleHook(batched=False),
    "query_bits": _OracleHook(batched=False),
    "query_batch": _OracleHook(batched=True),
    "query_sliced": _OracleHook(batched=True),
    "confirm_cube": _ConfirmHook,
    **_sweep_hooks(),
}


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, cell in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - union_length(children.get(index, ()), start, end)
        for index, (name, start, end, parent, cell) in enumerate(spans)
    ]


def uncovered_share(spans) -> float:
    """Share of cell time that no :data:`LAYER_SPANS` span covers."""
    layers = frozenset(LAYER_SPANS)
    roots = {}
    covered: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, cell in spans:
        if name == CELL:
            roots[cell] = (start, end)
        elif name in layers:
            covered[cell].append((start, end))
    total = sum(end - start for start, end in roots.values())
    if total <= 0:
        return 0.0
    inside = sum(
        union_length(covered.get(cell, ()), start, end)
        for cell, (start, end) in roots.items()
    )
    return 1.0 - inside / total
