"""Unit propagation over a mutable clause database, in pure Python.

This engine is the twin of the compiled core, ``_fastcheck.c``: each
checking function there has a method here, mostly of the same name, that
does the same work in the same order, so the two read side by side and give
the same verdicts.  Both
keep two watched literals per clause (positions 0 and 1 of the stored
literal list, swapped in place as watches move), a full occurrence index
for the pivot-complement lookups of RAT checks, a value by variable
(``_val``), a trail of assigned literals, and counts of active clauses and
of active empty clauses.  The contract is scheduling-independent: the set
of literals at fixpoint and the conflict-vs-fixpoint outcome do not depend
on the internal visit order.

A database owns its assignment exclusively; run parallel verifications on
separate databases, never one propagation across threads.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import MAX_LITERAL, Clause


def _tautology(clause: Sequence[int], cset: set[int], neg_pivot: int) -> bool:
    """Is the resolvent on the pivot of the checked clause (its other
    literals ``cset``) and ``clause`` a tautology?"""
    seen: set[int] = set()
    for d in clause:
        if d != neg_pivot:
            if -d in cset or -d in seen:
                return True
            seen.add(d)
    return False


class ClauseDatabase:
    """Mutable clause store with watched-literal unit propagation.

    Supports the full checking interface: ``add_clause``, ``delete_clause``,
    ``rup`` and ``rat``.  The compiled backend implements the same interface.
    """

    def __init__(self) -> None:
        self._clauses: list[list[int]] = []
        self._active: list[bool] = []
        self._nactive = 0  # active clauses
        self._nempty = 0  # active empty clauses
        self._watch: dict[int, list[int]] = {}
        self._occ: dict[int, list[int]] = {}
        self._units: list[int] = []  # ids of unit clauses, pruned lazily
        self._val: list[int] = [0]  # by variable: +1 true, -1 false, 0 unset
        self._trail: list[int] = []
        self._head = 0

    def _value(self, lit: int) -> int:
        v = self._val[lit if lit > 0 else -lit]
        return v if lit > 0 else -v

    def _assign(self, lit: int) -> None:
        self._val[lit if lit > 0 else -lit] = 1 if lit > 0 else -1
        self._trail.append(lit)

    def _undo_to(self, mark: int) -> None:
        trail = self._trail
        val = self._val
        while len(trail) > mark:
            lit = trail.pop()
            val[lit if lit > 0 else -lit] = 0
        if self._head > mark:
            self._head = mark

    def _cover(self, lits: Sequence[int]) -> None:
        """Grow ``_val`` to cover every literal of ``lits``; ValueError for 0
        or a literal beyond MAX_LITERAL."""
        biggest = max(map(abs, lits), default=0)
        if biggest > MAX_LITERAL or 0 in lits:
            bad = next(lit for lit in lits if lit == 0 or abs(lit) > MAX_LITERAL)
            raise ValueError(
                f"literal {bad} out of range: need 0 < |literal| <= {MAX_LITERAL}"
            )
        if biggest >= len(self._val):
            self._val.extend([0] * (biggest + 1 - len(self._val)))

    def _check_id(self, cid: int) -> None:
        if not 0 <= cid < len(self._clauses):
            raise IndexError("clause id out of range")

    # -- clause store -----------------------------------------------------

    def add_clause(self, lits: Sequence[int]) -> int:
        """Add a clause; returns its id.  The assignment must be clean."""
        clause = list(lits)
        self._cover(clause)
        cid = len(self._clauses)
        occ = self._occ
        for lit in clause:
            occ.setdefault(lit, []).append(cid)
        if not clause:
            self._nempty += 1
        elif len(clause) == 1:
            self._units.append(cid)
        else:
            self._watch.setdefault(clause[0], []).append(cid)
            self._watch.setdefault(clause[1], []).append(cid)
        self._clauses.append(clause)
        self._active.append(True)
        self._nactive += 1
        return cid

    def delete_clause(self, cid: int) -> None:
        """Deactivate a clause; watch/occurrence entries are dropped lazily."""
        self._check_id(cid)
        if self._active[cid]:
            self._active[cid] = False
            self._nactive -= 1
            if not self._clauses[cid]:
                self._nempty -= 1

    def clause(self, cid: int) -> Clause:
        self._check_id(cid)
        return tuple(self._clauses[cid])

    def __len__(self) -> int:
        return self._nactive

    # -- propagation ------------------------------------------------------

    def _propagate(self) -> bool:
        """Unit propagation to fixpoint: True on conflict.  Every trail entry
        is processed exactly once; watches move in place."""
        if self._nempty:
            return True
        clauses = self._clauses
        active = self._active
        watch = self._watch
        value = self._value
        trail = self._trail
        while self._head < len(trail):
            flit = -trail[self._head]
            self._head += 1
            wl = watch.get(flit, ())
            i = 0
            while i < len(wl):
                cid = wl[i]
                if not active[cid]:
                    wl[i] = wl[-1]
                    wl.pop()
                    continue
                cl = clauses[cid]
                if cl[0] == flit:
                    cl[0], cl[1] = cl[1], flit
                first = cl[0]
                fv = value(first)
                if fv > 0:
                    i += 1
                    continue
                for j in range(2, len(cl)):
                    if value(cl[j]) >= 0:  # move the watch from flit to cl[j]
                        watch.setdefault(cl[j], []).append(cid)
                        cl[1], cl[j] = cl[j], flit
                        wl[i] = wl[-1]
                        wl.pop()
                        break
                else:
                    if fv < 0:
                        return True
                    self._assign(first)
                    i += 1
        return False

    def _seed_units(self) -> bool:
        units = self._units
        i = 0
        while i < len(units):
            cid = units[i]
            if not self._active[cid]:
                units[i] = units[-1]
                units.pop()
                continue
            lit = self._clauses[cid][0]
            v = self._value(lit)
            if v < 0:
                return True
            if v == 0:
                self._assign(lit)
            i += 1
        return False

    def _assume_complements(self, lits: Iterable[int], skip: int) -> bool:
        """Assume the complement of every literal except ``skip``; True if
        one of them is already false (a conflict)."""
        for lit in lits:
            if lit == skip:
                continue
            v = self._value(-lit)
            if v < 0:
                return True
            if v == 0:
                self._assign(-lit)
        return False

    # -- redundancy checks ------------------------------------------------

    def _refutes(self, lits: Sequence[int]) -> bool:
        """Do the unit clauses and the complement of every literal of ``lits``
        propagate to a conflict?  The caller undoes the assignment."""
        return (
            self._seed_units()
            or self._assume_complements(lits, 0)  # 0 is never a literal
            or self._propagate()
        )

    def rup(self, lits: Sequence[int]) -> bool:
        """True iff assuming the complement of every literal yields a conflict."""
        self._cover(lits)
        result = self._refutes(lits)
        self._undo_to(0)
        return result

    def _next_resolvent(
        self, occ: list[int], i: int, cset: set[int], neg_pivot: int
    ) -> int:
        """Index in ``occ``, from ``i`` on, of the next active clause whose
        resolvent with the checked clause is not a tautology, or ``len(occ)``
        if none is left.  Inactive entries met on the way are dropped."""
        while i < len(occ):
            cid = occ[i]
            if not self._active[cid]:
                occ[i] = occ[-1]
                occ.pop()
            elif _tautology(self._clauses[cid], cset, neg_pivot):
                i += 1
            else:
                break
        return i

    def _resolvents_rup(
        self, occ: list[int], i: int, cset: set[int], neg_pivot: int
    ) -> bool:
        """Is every resolvent from ``occ[i]`` on a tautology or RUP, with the
        complement of the checked clause propagated?"""
        mark = len(self._trail)
        while i < len(occ):
            conflict = (
                self._assume_complements(self._clauses[occ[i]], neg_pivot)
                or self._propagate()
            )
            self._undo_to(mark)
            if not conflict:
                return False
            i = self._next_resolvent(occ, i + 1, cset, neg_pivot)
        return True

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
        self._cover(lits)
        if not lits:
            raise IndexError("the empty clause has no pivot")
        neg_pivot = -lits[0]
        cset = set(lits[1:])
        occ = self._occ.get(neg_pivot, [])
        i = self._next_resolvent(occ, 0, cset, neg_pivot)
        if i == len(occ):  # blocked
            return True
        result = self._refutes(lits) or self._resolvents_rup(occ, i, cset, neg_pivot)
        self._undo_to(0)
        return result

    def snapshot(self) -> tuple[tuple[int, int], ...]:
        """Hashable view of the assigned variables, for restore checks."""
        return tuple((var, v) for var, v in enumerate(self._val) if v)
