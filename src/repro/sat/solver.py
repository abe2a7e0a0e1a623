"""CDCL SAT solver.

A conflict-driven clause learning solver in the MiniSat lineage:

- two-watched-literal propagation,
- first-UIP conflict analysis with basic clause minimization,
- VSIDS branching (lazy heap with phase saving),
- Luby restarts,
- LBD-based learned-clause database reduction,
- incremental solving under assumptions (clauses may be added between
  ``solve`` calls).

The solver replaces Lingeling [Biere 2013], which the paper's prototype
used. Budgets are cooperative: ``solve`` checks its wall-clock budget and
conflict limit periodically and returns :data:`SolveStatus.UNKNOWN` when
either is exhausted — that is how the harness implements the paper's
1000-second attack timeout.

External literals are DIMACS-style signed ints; see
:mod:`repro.sat.literals` for the internal even/odd mapping.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Iterable
from heapq import heappop, heappush

from repro.errors import SolverError
from repro.sat.cnf import Cnf
from repro.sat.literals import check_literal, from_internal, to_internal
from repro.utils.timer import Budget

_UNASSIGNED = 0
_TRUE = 1
_FALSE = 2

_VAR_DECAY = 0.95
_RESCALE_LIMIT = 1e100
_LUBY_UNIT = 128
_BUDGET_CHECK_INTERVAL = 128


class SolveStatus(enum.Enum):
    """Result of a ``solve`` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise SolverError(
            "SolveStatus is tri-valued; compare against SolveStatus.SAT "
            "explicitly instead of using truthiness"
        )


class SolverStats:
    """Counters accumulated across all ``solve`` calls of one solver."""

    __slots__ = ("conflicts", "decisions", "propagations", "restarts", "solve_calls")

    def __init__(self):
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.solve_calls = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SolverStats({fields})"


def _luby(x: int) -> int:
    """The x-th element (0-based) of the Luby restart sequence.

    Ported from MiniSat's ``luby(2, x)``: 1, 1, 2, 1, 1, 2, 4, 1, ...
    """
    size = 1
    seq = 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class Solver:
    """Incremental CDCL solver.

    >>> s = Solver()
    >>> a, b = s.new_var(), s.new_var()
    >>> s.add_clause([a, b])
    >>> s.add_clause([-a, b])
    >>> s.solve() is SolveStatus.SAT
    True
    >>> s.model_value(b)
    True
    """

    def __init__(self, random_phase: float = 0.0, seed: int = 0):
        """``random_phase`` is the probability that a branching decision
        uses a random polarity instead of the saved phase (MiniSat's
        ``rnd_pol``). Oracle-guided attacks set it non-zero so that
        successive models are decorrelated — the distinguishing-input
        generators degrade badly when phase saving steers every solve
        into the same corner of the solution space."""
        if not 0.0 <= random_phase <= 1.0:
            raise SolverError(f"random_phase must be in [0, 1], got {random_phase}")
        self._random_phase = random_phase
        self._rng = random.Random(seed)
        self._num_vars = 0
        # Indexed by internal literal (2v / 2v+1); slots 0..3 are padding
        # so that var 1 maps to indices 2 and 3.
        self._values = bytearray(2)
        self._watches: list[list[list[int]]] = [[], []]
        # Indexed by variable (slot 0 padding).
        self._activity: list[float] = [0.0]
        self._reason: list[list[int] | None] = [None]
        self._level: list[int] = [-1]
        self._phase: list[bool] = [False]
        self._seen = bytearray(1)

        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0

        self._heap: list[tuple[float, int]] = []
        self._var_inc = 1.0

        self._learnts: list[list[int]] = []
        self._lbd: dict[int, int] = {}
        # Lazily deleted learnt clauses, marked by id(). The parallel
        # strong-reference list pins those ids: without it CPython
        # recycles the freed list's address, a *new* learnt clause can
        # land on a stale tombstone and be silently skipped by
        # propagation — sound (learnt clauses are redundant) but
        # allocation-dependent, i.e. nondeterministic run to run, which
        # breaks seeded-attack reproducibility, checkpoint resume and
        # portfolio winner determinism. Tombstones are physically swept
        # from the watch lists at the next database reduction.
        self._removed: set[int] = set()
        self._removed_refs: list[list[int]] = []
        self._max_learnts = 4000.0

        self._ok = True
        self._model: list[bool] | None = None
        self.stats = SolverStats()

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self._num_vars += 1
        self._values.extend(b"\x00\x00")
        self._watches.append([])
        self._watches.append([])
        self._activity.append(0.0)
        self._reason.append(None)
        self._level.append(-1)
        self._phase.append(False)
        self._seen.append(0)
        heappush(self._heap, (0.0, self._num_vars))
        return self._num_vars

    def new_vars(self, count: int) -> list[int]:
        return [self.new_var() for _ in range(count)]

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self.new_var()

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause (only legal at decision level 0, i.e. between solves)."""
        if self._trail_lim:
            raise SolverError("add_clause called while search is in progress")
        if not self._ok:
            return
        clause = [check_literal(lit) for lit in lits]
        for lit in clause:
            self._ensure_var(lit if lit > 0 else -lit)
        self._load((clause,))

    def add_cnf(self, cnf: Cnf) -> None:
        """Load every clause of ``cnf`` (variables are shared 1:1).

        The bulk load for encoder-built clauses. :class:`Cnf` checked each
        literal and counted ``num_vars`` when the clause was added, so
        the clauses are trusted here: they are simplified and attached
        exactly as :meth:`add_clause` would, without a second check.
        """
        if self._trail_lim:
            raise SolverError("add_cnf called while search is in progress")
        if not self._ok:
            return
        self._ensure_var(cnf.num_vars)
        self._load(cnf.clauses)

    def _load(self, clauses: Iterable[Iterable[int]]) -> None:
        """Simplify each clause at the root level and attach it.

        Literals must be valid and their variables allocated. Stops at
        the first clause that makes the instance unsatisfiable.
        """
        values = self._values
        for lits in clauses:
            # Dedupe, drop root-false literals, detect tautology/satisfied.
            clause: list[int] = []
            seen_lits: set[int] = set()
            for lit in lits:
                ilit = lit << 1 if lit > 0 else ((-lit) << 1) | 1
                value = values[ilit]
                if value == _TRUE:
                    break  # satisfied at root level
                if value == _FALSE:
                    continue  # permanently false literal
                if ilit ^ 1 in seen_lits:
                    break  # tautology
                if ilit not in seen_lits:
                    seen_lits.add(ilit)
                    clause.append(ilit)
            else:
                if len(clause) > 1:
                    self._attach(clause)
                    continue
                if clause:
                    self._enqueue(clause[0], None)
                    if self._propagate() is None:
                        continue
                self._ok = False
                return

    @property
    def num_vars(self) -> int:
        return self._num_vars

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _attach(self, clause: list[int]) -> None:
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    def _enqueue(self, ilit: int, reason: list[int] | None) -> None:
        values = self._values
        values[ilit] = _TRUE
        values[ilit ^ 1] = _FALSE
        var = ilit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(ilit)

    def _propagate(self) -> list[int] | None:
        """Propagate until fixpoint; return a conflicting clause or None."""
        values = self._values
        watches = self._watches
        trail = self._trail
        removed = self._removed
        level = self._level
        reason = self._reason
        decision_level = len(self._trail_lim)
        qhead = start = self._qhead
        conflict: list[int] | None = None
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watchlist = watches[false_lit]
            i = 0
            j = 0
            n = len(watchlist)
            while i < n:
                clause = watchlist[i]
                i += 1
                if removed and id(clause) in removed:
                    continue  # lazily drop deleted learned clause
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                if values[first] == _TRUE:
                    watchlist[j] = clause
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if values[other] != _FALSE:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other].append(clause)
                        break
                else:
                    # Clause is unit or conflicting.
                    watchlist[j] = clause
                    j += 1
                    if values[first] == _FALSE:
                        conflict = clause
                        while i < n:
                            watchlist[j] = watchlist[i]
                            j += 1
                            i += 1
                        break
                    values[first] = _TRUE
                    values[first ^ 1] = _FALSE
                    var = first >> 1
                    level[var] = decision_level
                    reason[var] = clause
                    trail.append(first)
            del watchlist[j:]
            if conflict is not None:
                break
        self._qhead = qhead
        self.stats.propagations += qhead - start
        return conflict

    def _bump_var(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > _RESCALE_LIMIT:
            inverse = 1.0 / _RESCALE_LIMIT
            for v in range(1, self._num_vars + 1):
                activity[v] *= inverse
            self._var_inc *= inverse
        heappush(self._heap, (-activity[var], var))

    def _decay_activities(self) -> None:
        self._var_inc /= _VAR_DECAY

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int, int]:
        """First-UIP conflict analysis.

        Returns ``(learnt_clause, backtrack_level, lbd)`` where
        ``learnt_clause[0]`` is the asserting literal and, when the clause
        is longer than one literal, ``learnt_clause[1]`` has the highest
        remaining level (watch invariant).
        """
        seen = self._seen
        level = self._level
        reason = self._reason
        trail = self._trail
        current_level = len(self._trail_lim)

        learnt: list[int] = [0]
        to_clear: list[int] = []
        counter = 0
        p = -1
        index = len(trail) - 1
        clause = conflict
        while True:
            for q in clause:
                if q == p:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    to_clear.append(var)
                    self._bump_var(var)
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            counter -= 1
            if counter == 0:
                break
            clause = reason[p >> 1]
        learnt[0] = p ^ 1

        # Basic clause minimization: drop literals whose reason is fully
        # contained in the learnt clause's variables.
        if len(learnt) > 2:
            minimized = [learnt[0]]
            for q in learnt[1:]:
                r = reason[q >> 1]
                if r is None:
                    minimized.append(q)
                    continue
                for other in r:
                    other_var = other >> 1
                    if not seen[other_var] and level[other_var] > 0:
                        minimized.append(q)
                        break
            learnt = minimized

        for var in to_clear:
            seen[var] = 0

        if len(learnt) == 1:
            return learnt, 0, 1
        # Move the highest-level literal (other than the asserting one)
        # to index 1 and compute the backtrack level + LBD.
        max_index = 1
        max_level = level[learnt[1] >> 1]
        for idx in range(2, len(learnt)):
            lvl = level[learnt[idx] >> 1]
            if lvl > max_level:
                max_level = lvl
                max_index = idx
        learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
        lbd = len({level[q >> 1] for q in learnt})
        return learnt, max_level, lbd

    def _cancel_until(self, target_level: int) -> None:
        if len(self._trail_lim) <= target_level:
            return
        values = self._values
        phase = self._phase
        reason = self._reason
        level = self._level
        activity = self._activity
        heap = self._heap
        trail = self._trail
        boundary = self._trail_lim[target_level]
        for ilit in reversed(trail[boundary:]):
            var = ilit >> 1
            phase[var] = not (ilit & 1)
            values[ilit] = _UNASSIGNED
            values[ilit ^ 1] = _UNASSIGNED
            reason[var] = None
            level[var] = -1
            heappush(heap, (-activity[var], var))
        del trail[boundary:]
        del self._trail_lim[target_level:]
        self._qhead = len(trail)

    def _pick_branch_var(self) -> int:
        """Pop the most active unassigned variable.

        Only called while some variable is unassigned; every unassigned
        variable has a heap entry, so the pops end before the heap does.
        """
        values = self._values
        heap = self._heap
        while True:
            _, var = heappop(heap)
            if values[var << 1] == _UNASSIGNED:
                return var

    def _purge_removed(self) -> None:
        """Physically drop tombstoned clauses from every watch list.

        Afterwards no watch list references a removed clause, so the
        tombstone set (and the strong references pinning its ids) can be
        cleared and those ids may recycle safely.
        """
        removed = self._removed
        for watchlist in self._watches:
            watchlist[:] = [c for c in watchlist if id(c) not in removed]
        removed.clear()
        self._removed_refs.clear()

    def _reduce_db(self) -> None:
        """Drop the worst half of learned clauses (by LBD, then length)."""
        if self._removed:
            self._purge_removed()
        learnts = self._learnts
        reason = self._reason
        keep_always = []
        candidates = []
        for clause in learnts:
            # A clause that is currently a reason must stay.
            var0 = clause[0] >> 1
            if reason[var0] is clause or self._lbd.get(id(clause), 9) <= 2:
                keep_always.append(clause)
            else:
                candidates.append(clause)
        candidates.sort(key=lambda c: (self._lbd.get(id(c), 9), len(c)))
        cutoff = len(candidates) // 2
        kept = candidates[:cutoff]
        for clause in candidates[cutoff:]:
            self._removed.add(id(clause))
            self._lbd.pop(id(clause), None)
        # Pin the removed clauses' ids until the next purge.
        self._removed_refs.extend(candidates[cutoff:])
        self._learnts = keep_always + kept

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Iterable[int] = (),
        budget: Budget | None = None,
        conflict_limit: int | None = None,
    ) -> SolveStatus:
        """Solve under ``assumptions``.

        Returns :data:`SolveStatus.UNKNOWN` if the wall-clock ``budget``
        or the ``conflict_limit`` is exhausted first.
        """
        self.stats.solve_calls += 1
        self._model = None
        if not self._ok:
            return SolveStatus.UNSAT
        if budget is not None and budget.expired:
            return SolveStatus.UNKNOWN
        assumed: list[int] = []
        for lit in assumptions:
            check_literal(lit)
            var = lit if lit > 0 else -lit
            self._ensure_var(var)
            assumed.append(to_internal(lit))

        self._cancel_until(0)
        if self._propagate() is not None:
            self._ok = False
            return SolveStatus.UNSAT

        conflicts_at_entry = self.stats.conflicts
        restart_index = 0
        conflicts_until_restart = _luby(restart_index) * _LUBY_UNIT
        budget_countdown = _BUDGET_CHECK_INTERVAL

        values = self._values
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_until_restart -= 1
                budget_countdown -= 1
                if not self._trail_lim:
                    self._ok = False
                    return SolveStatus.UNSAT
                if len(self._trail_lim) <= len(assumed):
                    # Conflict while only assumptions are on the trail:
                    # the assumptions are jointly inconsistent.
                    self._cancel_until(0)
                    return SolveStatus.UNSAT
                learnt, back_level, lbd = self._analyze(conflict)
                self._cancel_until(max(back_level, 0))
                if len(learnt) == 1:
                    # Asserting unit: becomes a root-level fact only if no
                    # assumptions are active below; _cancel_until(0) happens
                    # naturally because back_level is 0.
                    self._enqueue(learnt[0], None)
                else:
                    self._attach(learnt)
                    self._learnts.append(learnt)
                    self._lbd[id(learnt)] = lbd
                    self._enqueue(learnt[0], learnt)
                self._decay_activities()
                if budget_countdown <= 0:
                    budget_countdown = _BUDGET_CHECK_INTERVAL
                    if budget is not None and budget.expired:
                        self._cancel_until(0)
                        return SolveStatus.UNKNOWN
                    if (
                        conflict_limit is not None
                        and self.stats.conflicts - conflicts_at_entry
                        >= conflict_limit
                    ):
                        self._cancel_until(0)
                        return SolveStatus.UNKNOWN
                continue

            if conflicts_until_restart <= 0:
                self.stats.restarts += 1
                restart_index += 1
                conflicts_until_restart = _luby(restart_index) * _LUBY_UNIT
                self._cancel_until(0)
                continue

            if len(self._learnts) >= self._max_learnts:
                self._reduce_db()
                self._max_learnts *= 1.3

            # Decide: assumptions first, then VSIDS.
            current_level = len(self._trail_lim)
            if current_level < len(assumed):
                ilit = assumed[current_level]
                if values[ilit] == _TRUE:
                    # Already implied; open an empty decision level so the
                    # level<->assumption indexing stays aligned.
                    self._trail_lim.append(len(self._trail))
                    continue
                if values[ilit] == _FALSE:
                    self._cancel_until(0)
                    return SolveStatus.UNSAT
                self.stats.decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(ilit, None)
                continue

            if len(self._trail) == self._num_vars:
                # Every variable is assigned, so picking a branch variable
                # would only pop the whole heap: empty it and stop.
                self._heap.clear()
                self._store_model()
                self._cancel_until(0)
                return SolveStatus.SAT
            var = self._pick_branch_var()
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            if self._random_phase and self._rng.random() < self._random_phase:
                phase = self._rng.random() < 0.5
            else:
                phase = self._phase[var]
            ilit = (var << 1) | (0 if phase else 1)
            self._enqueue(ilit, None)

    def _store_model(self) -> None:
        self._model = [False] + [
            value == _TRUE for value in self._values[2::2]
        ]

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def model_value(self, var: int) -> bool:
        """Value of ``var`` in the most recent SAT model."""
        if self._model is None:
            raise SolverError("no model available (last solve was not SAT)")
        if not 1 <= var <= self._num_vars:
            raise SolverError(f"unknown variable {var}")
        return self._model[var]

    def model_lits(self) -> list[int]:
        """The most recent model as a list of signed literals."""
        if self._model is None:
            raise SolverError("no model available (last solve was not SAT)")
        return [
            from_internal((v << 1) | (0 if self._model[v] else 1))
            for v in range(1, self._num_vars + 1)
        ]

    def model_dict(self) -> dict[int, bool]:
        if self._model is None:
            raise SolverError("no model available (last solve was not SAT)")
        return {v: self._model[v] for v in range(1, self._num_vars + 1)}

