"""Unit propagation over a mutable clause database.

The engine keeps two watched literals per clause (positions 0 and 1 of the
stored literal list, swapped in place as watches move) plus a full occurrence
index used for pivot-complement lookups during RAT checks.  The contract is
scheduling-independent: the set of literals at fixpoint and the
conflict-vs-fixpoint outcome do not depend on the internal visit order.

A database owns its assignment exclusively; run parallel verifications on
separate databases, never one propagation across threads.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import MAX_LITERAL, Clause

# Sentinel conflict id for an assumption contradicting the current assignment.
_ASSUMPTION_CONFLICT = -1


def _max_var(lits: Sequence[int]) -> int:
    """Largest variable in ``lits``; ValueError for 0 or beyond MAX_LITERAL."""
    biggest = max(map(abs, lits), default=0)
    if biggest > MAX_LITERAL or 0 in lits:
        bad = next(lit for lit in lits if lit == 0 or abs(lit) > MAX_LITERAL)
        raise ValueError(
            f"literal {bad} out of range: need 0 < |literal| <= {MAX_LITERAL}"
        )
    return biggest


class Assignment:
    """Partial truth assignment with a trail for exact state restore.

    The trail records ``(literal, reason clause id)`` pairs in assignment
    order; popping the trail restores the prior state exactly.  Assumptions
    carry reason ``None``.
    """

    __slots__ = ("_values", "trail")

    def __init__(self) -> None:
        self._values: list[int] = [0]  # indexed by variable; 0 = unassigned
        self.trail: list[tuple[int, int | None]] = []

    def ensure_var(self, var: int) -> None:
        if var >= len(self._values):
            self._values.extend([0] * (var + 1 - len(self._values)))

    def value(self, lit: int) -> int:
        """+1 if lit is true, -1 if false, 0 if unassigned."""
        var = lit if lit > 0 else -lit
        if var >= len(self._values):
            return 0
        v = self._values[var]
        return v if lit > 0 else -v

    def assign(self, lit: int, reason: int | None) -> None:
        var = lit if lit > 0 else -lit
        if var >= len(self._values):
            self.ensure_var(var)
        self._values[var] = 1 if lit > 0 else -1
        self.trail.append((lit, reason))

    def undo_to(self, mark: int) -> None:
        trail = self.trail
        values = self._values
        while len(trail) > mark:
            lit, _ = trail.pop()
            values[lit if lit > 0 else -lit] = 0

    def snapshot(self) -> tuple[tuple[int, int], ...]:
        """Hashable view of the assigned variables, for restore checks."""
        return tuple(
            (var, v) for var, v in enumerate(self._values) if v != 0
        )


class ClauseDatabase:
    """Mutable clause store with watched-literal unit propagation.

    Supports the full checking interface: ``add_clause``, ``delete_clause``,
    ``rup`` and ``rat``.  The compiled backend implements the same interface.
    """

    def __init__(self) -> None:
        self._clauses: list[list[int]] = []
        self._active: list[bool] = []
        self._watch: dict[int, list[int]] = {}
        self._occ: dict[int, list[int]] = {}
        self._units: list[int] = []
        self._has_empty = False
        self.assignment = Assignment()
        self._head = 0

    # -- clause store -----------------------------------------------------

    def add_clause(self, lits: Sequence[int]) -> int:
        """Add a clause; returns its id.  The assignment must be clean."""
        cid = len(self._clauses)
        clause = list(lits)
        self.assignment.ensure_var(_max_var(clause))
        self._clauses.append(clause)
        self._active.append(True)
        occ = self._occ
        for lit in clause:
            occ.setdefault(lit, []).append(cid)
        if not clause:
            self._has_empty = True
        elif len(clause) == 1:
            self._units.append(cid)
        else:
            watch = self._watch
            watch.setdefault(clause[0], []).append(cid)
            watch.setdefault(clause[1], []).append(cid)
        return cid

    def _check_id(self, cid: int) -> None:
        if not 0 <= cid < len(self._clauses):
            raise IndexError("clause id out of range")

    def delete_clause(self, cid: int) -> None:
        """Deactivate a clause; watch/occurrence entries are dropped lazily."""
        self._check_id(cid)
        self._active[cid] = False
        if not self._clauses[cid]:
            self._has_empty = any(
                active and not clause
                for clause, active in zip(self._clauses, self._active)
            )

    def clause(self, cid: int) -> Clause:
        self._check_id(cid)
        return tuple(self._clauses[cid])

    def __len__(self) -> int:
        return sum(self._active)

    # -- propagation ------------------------------------------------------

    def propagate(self) -> int | None:
        """Extend the assignment to the unit-propagation fixpoint.

        Returns the id of a falsified clause on conflict, else None.  Every
        trail entry is processed exactly once; watches move in place.
        """
        if self._has_empty:
            for cid, clause in enumerate(self._clauses):
                if self._active[cid] and not clause:
                    return cid
        clauses = self._clauses
        active = self._active
        watch = self._watch
        value = self.assignment.value
        assign = self.assignment.assign
        trail = self.assignment.trail
        while self._head < len(trail):
            lit = trail[self._head][0]
            self._head += 1
            flit = -lit
            wl = watch.get(flit)
            if not wl:
                continue
            i = 0
            while i < len(wl):
                cid = wl[i]
                if not active[cid]:
                    wl[i] = wl[-1]
                    wl.pop()
                    continue
                cl = clauses[cid]
                if cl[0] == flit:
                    cl[0], cl[1] = cl[1], cl[0]
                first = cl[0]
                fv = value(first)
                if fv > 0:
                    i += 1
                    continue
                moved = False
                for j in range(2, len(cl)):
                    other = cl[j]
                    if value(other) >= 0:
                        cl[1], cl[j] = other, flit
                        watch.setdefault(other, []).append(cid)
                        wl[i] = wl[-1]
                        wl.pop()
                        moved = True
                        break
                if moved:
                    continue
                if fv == 0:
                    assign(first, cid)
                    i += 1
                else:
                    return cid
        return None

    def _seed_units(self) -> int | None:
        units = self._units
        value = self.assignment.value
        i = 0
        while i < len(units):
            cid = units[i]
            if not self._active[cid]:
                units[i] = units[-1]
                units.pop()
                continue
            lit = self._clauses[cid][0]
            v = value(lit)
            if v < 0:
                return cid
            if v == 0:
                self.assignment.assign(lit, cid)
            i += 1
        return None

    def _restore(self, mark: int) -> None:
        self.assignment.undo_to(mark)
        if self._head > mark:
            self._head = mark

    # -- redundancy checks ------------------------------------------------

    def rup(self, lits: Sequence[int]) -> bool:
        """True iff assuming the complement of every literal yields a conflict."""
        self.assignment.ensure_var(_max_var(lits))
        conflict = self._seed_units()
        if conflict is None:
            conflict = self._assume_complements(lits)
        if conflict is None:
            conflict = self.propagate()
        self._restore(0)
        return conflict is not None

    def rat(self, lits: Sequence[int]) -> bool:
        """Resolution-asymmetric-tautology check on the first literal.

        Every clause containing the pivot's complement must resolve with
        ``lits`` into a tautology or a clause implied by unit propagation.
        This is the one check of a non-empty addition, as in the compiled
        core.  The screen comes first: if every resolvent is a tautology,
        ``lits`` is blocked and RAT holds without propagating.  Otherwise
        the complement of every literal, the pivot's included, is
        propagated once; a conflict means ``lits`` is RUP, which implies
        RAT.  Otherwise the resolvents left are checked on that trail.  The
        assumed complement of the pivot changes no verdict there: each
        partner clause contains it, and its other literals are false under
        the complement of the resolvent, so it propagates it anyway.
        """
        pivot = lits[0]
        self.assignment.ensure_var(_max_var(lits))
        cset = set(lits[1:])
        neg_pivot = -pivot
        occ = self._occ.get(neg_pivot, [])
        i = self._next_resolvent(occ, 0, cset, neg_pivot)
        if i == len(occ):
            return True
        conflict = self._seed_units()
        if conflict is None:
            conflict = self._assume_complements(lits)
        if conflict is None:
            conflict = self.propagate()
        result = conflict is not None or self._resolvents_rup(occ, i, cset, neg_pivot)
        self._restore(0)
        return result

    def _resolvents_rup(
        self, occ: list[int], i: int, cset: set[int], neg_pivot: int
    ) -> bool:
        """Is every resolvent from ``occ[i]`` on a tautology or RUP, with the
        complement of the checked clause propagated?"""
        mark = len(self.assignment.trail)
        value = self.assignment.value
        while i < len(occ):
            conflict = None
            for d in self._clauses[occ[i]]:
                if d == neg_pivot:
                    continue
                v = value(-d)
                if v < 0:
                    conflict = _ASSUMPTION_CONFLICT
                    break
                if v == 0:
                    self.assignment.assign(-d, None)
            if conflict is None:
                conflict = self.propagate()
            self._restore(mark)
            if conflict is None:
                return False
            i = self._next_resolvent(occ, i + 1, cset, neg_pivot)
        return True

    def _next_resolvent(
        self, occ: list[int], i: int, cset: set[int], neg_pivot: int
    ) -> int:
        """Index in ``occ``, from ``i`` on, of the next active clause whose
        resolvent with the checked clause (non-pivot literals ``cset``) is
        not a tautology, or ``len(occ)``; inactive entries are dropped."""
        while i < len(occ):
            cid = occ[i]
            if not self._active[cid]:
                occ[i] = occ[-1]
                occ.pop()
                continue
            seen: set[int] = set()
            for d in self._clauses[cid]:
                if d == neg_pivot:
                    continue
                if -d in cset or -d in seen:
                    break
                seen.add(d)
            else:
                return i
            i += 1
        return i

    def _assume_complements(self, lits: Iterable[int]) -> int | None:
        value = self.assignment.value
        for lit in lits:
            v = value(-lit)
            if v < 0:
                return _ASSUMPTION_CONFLICT
            if v == 0:
                self.assignment.assign(-lit, None)
        return None

    def snapshot(self) -> tuple[tuple[int, int], ...]:
        return self.assignment.snapshot()

