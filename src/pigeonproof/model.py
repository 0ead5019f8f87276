"""Core data model: CNF formulas and clausal proofs.

Literals are nonzero signed integers: ``v`` asserts variable ``v``, ``-v``
negates it.  Clauses preserve construction order exactly; by convention the
first literal of a proof clause is the pivot used for RAT checking.  An empty
literal tuple is the empty clause.
"""

from __future__ import annotations

from operator import countOf, itemgetter
from typing import Iterable, NamedTuple

Clause = tuple[int, ...]

# Largest |literal| accepted anywhere: a literal and its complement fit in a
# 32-bit signed integer, as in the compiled checking core.
MAX_LITERAL = 2**31 - 1


def validate_clause(lits: Iterable[int]) -> Clause:
    """Return ``lits`` as a clause, rejecting zeros and duplicate literals.

    Tautological clauses (both ``v`` and ``-v``) are permitted; a literal
    beyond ``MAX_LITERAL`` in absolute value is rejected.
    """
    clause = tuple(lits)
    seen = set()
    for lit in clause:
        if lit == 0:
            raise ValueError("0 is not a literal (reserved as clause terminator)")
        if not -MAX_LITERAL <= lit <= MAX_LITERAL:
            raise ValueError(f"literal {lit} out of range: |literal| > {MAX_LITERAL}")
        if lit in seen:
            raise ValueError(f"duplicate literal {lit} in clause {clause}")
        seen.add(lit)
    return clause


class CnfFormula(NamedTuple):
    """A CNF formula: declared variable count plus an ordered clause list.

    Immutable; safe to share across threads read-only.
    """

    num_vars: int
    clauses: tuple[Clause, ...]

    def validate(self) -> None:
        """Check clause invariants and that every variable is in range."""
        if self.num_vars < 0:
            raise ValueError("negative variable count")
        for clause in self.clauses:
            validate_clause(clause)
            for lit in clause:
                if not 1 <= abs(lit) <= self.num_vars:
                    raise ValueError(
                        f"literal {lit} out of range 1..{self.num_vars}"
                    )


class ProofLine(NamedTuple):
    """One proof step: a clause addition, or a deletion when ``delete`` is set."""

    delete: bool
    lits: Clause


#: A proof block ``(tag, k, clauses)``: clauses of one kind from iteration k.
Block = tuple[str, int, Iterable[Clause]]
#: Tag of a block whose clauses are all deletions.
DELETE = "delete"


class Proof(NamedTuple):
    """An ordered sequence of proof lines.

    A complete refutation ends with the addition of the empty clause.
    """

    lines: tuple[ProofLine, ...]

    @property
    def added_count(self) -> int:
        """Number of clause additions (deletions excluded)."""
        return count_added(self.lines)

    @property
    def is_complete(self) -> bool:
        """True if the final addition is the empty clause."""
        for line in reversed(self.lines):
            if not line.delete:
                return line.lits == ()
        return False


def count_added(lines: Iterable[ProofLine]) -> int:
    """Count addition lines in a stream without materialising it."""
    return countOf(map(itemgetter(0), lines), False)
