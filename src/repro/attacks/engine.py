"""The unified attack engine: lifecycle, checkpoints, portfolios.

:func:`run_attack` is the one entry point every consumer (CLI, suite
runner, benchmarks, tests) drives attacks through. On top of the raw
family functions it provides:

- **applicability** — preconditions (oracle present, key inputs, a
  candidate shortlist for key confirmation) become a uniform
  ``NOT_APPLICABLE`` result instead of per-family exceptions;
- **lifecycle telemetry** — a :class:`~repro.attacks.base.
  TelemetryRecorder` is threaded into the attack, and its snapshot
  (stage timings, iteration events, oracle-query / solver counters) is
  recorded into ``AttackResult.details['telemetry']`` under one schema;
- **checkpoint/resume** — with ``config.checkpoint_path``, the oracle
  transcript streams to JSON and a rerun resumes bit-exactly (see
  :mod:`repro.attacks.checkpoint`);
- **normalization** — results come back JSON-safe (``sanitized``),
  labelled with the registry name, and with ``key_names`` always
  populated from the locked netlist.

:func:`run_portfolio` runs several registered attacks on one benchmark
in the requested order, in the calling process, and stops at the first
conclusive (SUCCESS) result, so its winner never depends on worker
counts or completion order.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import replace

from repro.attacks.base import AttackConfig, TelemetryRecorder
from repro.attacks.checkpoint import CheckpointOracle, open_checkpoint
from repro.attacks.oracle import IOOracle
from repro.attacks.registry import get_attack
from repro.attacks.results import AttackResult, AttackStatus
from repro.circuit.circuit import Circuit
from repro.circuit.sharding import circuit_fingerprint
from repro.errors import AttackError


def run_attack(
    name: str,
    locked: Circuit,
    oracle: IOOracle | None = None,
    config: AttackConfig | None = None,
) -> AttackResult:
    """Run one registered attack with full engine lifecycle support."""
    attack = get_attack(name)
    config = config or AttackConfig()
    reason = attack.applicability(locked, oracle, config)
    if reason is not None:
        return AttackResult(
            attack=attack.name,
            status=AttackStatus.NOT_APPLICABLE,
            key_names=locked.key_inputs,
            details={"reason": reason},
        ).sanitized()

    telemetry = config.telemetry or TelemetryRecorder()
    checkpoint_oracle: CheckpointOracle | None = None
    run_oracle = oracle
    checkpoint_unsupported = bool(
        config.checkpoint_path
        and not (oracle is not None and attack.supports_checkpoint)
    )
    if checkpoint_unsupported:
        # Wall-clock-dependent families (fall, guess, key-confirmation)
        # and oracle-less runs cannot replay a transcript bit-exactly;
        # record that the request was ignored instead of failing later
        # with a misleading replay-divergence error.
        telemetry.event(
            "checkpoint_unsupported",
            attack=attack.name,
            has_oracle=oracle is not None,
        )
    if (
        config.checkpoint_path
        and oracle is not None
        and attack.supports_checkpoint
    ):
        checkpoint = open_checkpoint(
            config.checkpoint_path,
            attack.name,
            circuit_fingerprint(locked),
            config.determinism_key(),
        )
        if checkpoint.completed and checkpoint.result is not None:
            finished = AttackResult.from_json_dict(checkpoint.result)
            finished.details.setdefault("checkpoint", {})[
                "already_completed"
            ] = True
            return finished
        checkpoint_oracle = CheckpointOracle(
            oracle, checkpoint, config.checkpoint_path
        )
        run_oracle = checkpoint_oracle
        telemetry.event(
            "checkpoint_resume"
            if checkpoint.queries
            else "checkpoint_start",
            recorded_queries=len(checkpoint.queries),
        )

    run_config = replace(config, telemetry=telemetry)
    with telemetry.stage("run", attack=attack.name):
        result = attack.run(locked, run_oracle, run_config)
    telemetry.set_counter("oracle_queries", result.oracle_queries)

    if not result.key_names:
        result.key_names = locked.key_inputs
    details = dict(result.details)
    if result.attack != attack.name:
        # Normalize to the registry name; keep the family's own label
        # (e.g. ``fall-hd2``) for human-readable reports.
        details["label"] = result.attack
        result.attack = attack.name
    if checkpoint_unsupported:
        details["checkpoint"] = {"unsupported": True}
    details["telemetry"] = telemetry.snapshot()
    if checkpoint_oracle is not None:
        details["checkpoint"] = {
            "path": config.checkpoint_path,
            "replayed_queries": checkpoint_oracle.replayed_queries,
            "live_queries": checkpoint_oracle.live_queries,
        }
    result.details = details
    result = result.sanitized()
    if checkpoint_oracle is not None:
        if result.status in (AttackStatus.TIMEOUT,):
            checkpoint_oracle.flush()
        else:
            checkpoint_oracle.finalize(result)
    return result


# ----------------------------------------------------------------------
# Portfolios
# ----------------------------------------------------------------------
def portfolio_names(names: Iterable[str]) -> list[str]:
    """Validate a portfolio request: at least one registered name, no
    name twice. Raises :class:`~repro.errors.AttackError` otherwise."""
    names = list(names)
    if not names:
        raise AttackError("portfolio needs at least one attack name")
    seen = set()
    for name in names:
        get_attack(name)  # typo check up front, before any work runs
        if name in seen:
            raise AttackError(f"attack {name!r} listed twice in portfolio")
        seen.add(name)
    return names


def run_portfolio(
    names: Sequence[str],
    locked: Circuit,
    oracle: IOOracle | None = None,
    config: AttackConfig | None = None,
) -> AttackResult:
    """Run several registered attacks in order; the first SUCCESS wins.

    The attacks run one after another in the requested order, in the
    calling process, and the portfolio stops at the first ``SUCCESS``:
    later attacks never start and are reported as ``skipped``. The
    winner therefore depends only on the attacks' own (seeded)
    outcomes. Returns the winner's :class:`AttackResult` with a
    ``details['portfolio']`` summary of every attack (status, timing,
    query count). When no attack succeeds, the result with the
    strongest status (by ``SUCCESS > MULTIPLE_CANDIDATES > TIMEOUT >
    FAILED > NOT_APPLICABLE``, ties to requested order) is returned.
    """
    names = portfolio_names(names)
    config = config or AttackConfig()
    if config.checkpoint_path:
        raise AttackError(
            "checkpointing a portfolio is not supported; checkpoint "
            "individual attacks instead"
        )
    results: dict[str, AttackResult] = {}
    for name in names:
        results[name] = run_attack(name, locked, oracle, config)
        if _conclusive(results[name]):
            break
    return _pick_winner(names, results)


def _conclusive(result: AttackResult) -> bool:
    return result.status is AttackStatus.SUCCESS


_STATUS_RANK = {
    AttackStatus.SUCCESS: 0,
    AttackStatus.MULTIPLE_CANDIDATES: 1,
    AttackStatus.TIMEOUT: 2,
    AttackStatus.FAILED: 3,
    AttackStatus.NOT_APPLICABLE: 4,
}


def _pick_winner(names, results) -> AttackResult:
    # ``results`` is in requested order, and ``min`` keeps the first
    # of equal ranks.
    winner_name = min(
        results, key=lambda name: _STATUS_RANK[results[name].status]
    )
    winner = results[winner_name]
    summary = {}
    for name in names:
        result = results.get(name)
        if result is None:
            summary[name] = {"status": "skipped"}
            continue
        summary[name] = {
            "status": result.status.value,
            "elapsed_seconds": result.elapsed_seconds,
            "oracle_queries": result.oracle_queries,
            "iterations": result.iterations,
        }
    winner.details["portfolio"] = {
        "winner": winner_name,
        "attacks": summary,
        "conclusive": _conclusive(winner),
    }
    return winner.sanitized()
