"""Task-level process parallelism, circuit specs and sweep entry points.

Three things live here:

- **the persistent process pool** — :func:`map_in_processes`, an
  order-preserving map used by the suite runner in
  :mod:`repro.experiments.runner` (its only consumer; attacks and
  attack portfolios always run in the calling process).
  Worker-count selection resolves in priority order: explicit ``jobs=``
  argument, the ``REPRO_SIM_JOBS`` environment variable, then ``auto``
  (the number of usable CPU cores). Pool workers never spawn pools of
  their own;
- **circuit specs** — :func:`circuit_spec` is a compact picklable
  snapshot of a netlist and :func:`circuit_fingerprint` its content
  hash, which attack checkpoints use to check that a resume targets
  the recorded circuit;
- **the sweep entry points** — :func:`sweep_outputs`,
  :func:`sweep_node_values`, :func:`sweep_popcounts` and
  :func:`sweep_truth_table`, through which every wide bit-sliced
  evaluation in the attacks is issued. Each one is a single call into
  the cached compiled engine (:mod:`repro.circuit.compiled`) on the
  calling process.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import weakref
from collections.abc import Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.circuit.circuit import Circuit
from repro.circuit.compiled import compile_circuit
from repro.circuit.gates import GateType
from repro.errors import CircuitError

ENV_JOBS = "REPRO_SIM_JOBS"


def parse_jobs(value: int | str | None) -> int | None:
    """Normalize a jobs request; ``None`` means *auto* (CPU count).

    Accepts a positive int, a positive-int string, ``"auto"``, or
    ``None``/empty (both auto). Anything else raises
    :class:`~repro.errors.CircuitError`.
    """
    if value is None:
        return None
    if isinstance(value, int):
        jobs = value
    else:
        text = value.strip().lower()
        if not text or text == "auto":
            return None
        try:
            jobs = int(text)
        except ValueError:
            raise CircuitError(
                f"invalid jobs value {value!r}: expected a positive "
                "integer or 'auto'"
            ) from None
    if jobs < 1:
        raise CircuitError(f"jobs must be >= 1, got {jobs}")
    return jobs


_CPU_JOBS: int | None = None


def cpu_jobs() -> int:
    """The *auto* worker count: usable CPU cores (affinity-aware).

    Memoized — the affinity mask does not change under us in practice.
    """
    global _CPU_JOBS
    if _CPU_JOBS is None:
        try:
            _CPU_JOBS = max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            _CPU_JOBS = max(1, os.cpu_count() or 1)
    return _CPU_JOBS


def resolve_jobs(jobs: int | str | None = None) -> int:
    """Resolve a jobs request to a concrete worker count.

    ``jobs`` wins over ``REPRO_SIM_JOBS``, which wins over auto
    detection.
    """
    parsed = parse_jobs(
        jobs if jobs is not None else os.environ.get(ENV_JOBS)
    )
    return cpu_jobs() if parsed is None else parsed


# ----------------------------------------------------------------------
# Circuit specs: compact picklable snapshots + fingerprints
# ----------------------------------------------------------------------
def circuit_spec(circuit: Circuit) -> tuple:
    """A compact picklable snapshot sufficient to rebuild ``circuit``."""
    return (
        circuit.name,
        tuple(
            (name, circuit.gate_type(name).value, circuit.fanins(name))
            for name in circuit.nodes
        ),
        circuit.outputs,
        circuit.key_inputs,
    )


def circuit_from_spec(spec: tuple) -> Circuit:
    """Rebuild a :class:`Circuit` from :func:`circuit_spec` output."""
    name, nodes, outputs, key_inputs = spec
    keys = set(key_inputs)
    circuit = Circuit(name)
    for node, type_value, fanins in nodes:
        gate_type = GateType(type_value)
        if gate_type is GateType.INPUT:
            circuit.add_input(node, key=node in keys)
        elif gate_type is GateType.CONST0:
            circuit.add_const(node, 0)
        elif gate_type is GateType.CONST1:
            circuit.add_const(node, 1)
        else:
            circuit.add_gate(node, gate_type, fanins)
    for out in outputs:
        circuit.add_output(out)
    return circuit


_FINGERPRINT_CACHE: "weakref.WeakKeyDictionary[Circuit, tuple[int, str]]" = (
    weakref.WeakKeyDictionary()
)


def circuit_fingerprint(circuit: Circuit) -> str:
    """A stable content hash of the netlist structure.

    Memoized per structural version; attack checkpoints use it to
    verify a resume targets the same circuit the transcript was
    recorded against.
    """
    cached = _FINGERPRINT_CACHE.get(circuit)
    if cached is not None and cached[0] == circuit.structural_version:
        return cached[1]
    fingerprint = hashlib.blake2b(
        repr(circuit_spec(circuit)).encode(), digest_size=16
    ).hexdigest()
    _FINGERPRINT_CACHE[circuit] = (circuit.structural_version, fingerprint)
    return fingerprint


# ----------------------------------------------------------------------
# The persistent pool
# ----------------------------------------------------------------------
_IN_WORKER = False
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0


def _pool_disallowed() -> bool:
    """Whether this process must not spawn (more) pool workers.

    True inside our own pool workers (no nested pools) and inside any
    daemonic multiprocessing worker, where spawning children raises —
    such callers silently take the inline path instead.
    """
    return _IN_WORKER or multiprocessing.current_process().daemon


def _init_worker() -> None:
    """Mark a pool worker: no nested pools, no inherited pool handles."""
    global _IN_WORKER, _POOL, _POOL_WORKERS
    _IN_WORKER = True
    _POOL = None
    _POOL_WORKERS = 0


def _call(fn, item):
    """Top-level apply helper (bound methods don't pickle portably)."""
    return fn(item)


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared executor, grown (never shrunk) to ``workers``."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS < workers:
        _POOL.shutdown(wait=True)
        _POOL = None
    if _POOL is None:
        _POOL = ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker
        )
        _POOL_WORKERS = workers
    return _POOL


def pool_is_running() -> bool:
    """Whether the persistent worker pool has been spun up."""
    return _POOL is not None


def shutdown_pool() -> None:
    """Tear the persistent pool down (it restarts lazily on demand)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


def map_in_processes(fn, items: Sequence, jobs: int | str | None = None):
    """Order-preserving map over the persistent pool.

    ``fn`` and every item must be picklable. With one resolved worker
    (or at most one item, or from inside a pool worker) this degrades to
    a plain in-process loop, so callers need no special-casing.
    """
    items = list(items)
    workers = resolve_jobs(jobs)
    if _pool_disallowed() or workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    pool = _get_pool(min(workers, len(items)))
    try:
        return list(pool.map(_call, [fn] * len(items), items))
    except BrokenProcessPool:
        # A worker died (OOM kill, segfault). Drop the dead executor so
        # the next parallel call starts a fresh one, and finish this
        # call inline rather than failing it.
        shutdown_pool()
        return [fn(item) for item in items]


# ----------------------------------------------------------------------
# Sweep entry points
# ----------------------------------------------------------------------
def sweep_outputs(
    circuit: Circuit, patterns, width: int | None = None
) -> tuple[int, ...]:
    """:meth:`CompiledCircuit.eval_outputs_sliced` on the cached engine."""
    return compile_circuit(circuit).eval_outputs_sliced(patterns, width)


def sweep_node_values(
    circuit: Circuit,
    nodes: Sequence[str],
    patterns,
    width: int | None = None,
) -> tuple[int, ...]:
    """:meth:`CompiledCircuit.node_values_sliced` on the cached engine."""
    return compile_circuit(circuit).node_values_sliced(nodes, patterns, width)


def sweep_popcounts(
    circuit: Circuit,
    input_values: Mapping[str, int],
    width: int,
    targets: Sequence[str] | None = None,
) -> dict[str, int]:
    """:meth:`CompiledCircuit.node_popcounts` on the cached engine."""
    return compile_circuit(circuit).node_popcounts(
        input_values, width, targets=targets
    )


def sweep_truth_table(
    circuit: Circuit, node: str
) -> tuple[int, tuple[str, ...]]:
    """:meth:`CompiledCircuit.truth_table` on the cached engine."""
    return compile_circuit(circuit).truth_table(node)
