"""Core data model: CNF formulas and clausal proofs.

Literals are nonzero signed integers: ``v`` asserts variable ``v``, ``-v``
negates it.  Clauses preserve construction order exactly; by convention the
first literal of a proof clause is the pivot used for RAT checking.  An empty
literal tuple is the empty clause.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import countOf, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

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


#: A literal of a clause row: an int, the same at every hole, or
#: ``(first, step)`` with step -1 or +1.
RowLiteral = int | tuple[int, int]
#: A clause row of a :class:`HoleRows` block; a clause is a row of ints.
Row = tuple[RowLiteral, ...]


class HoleRows:
    """Clauses written as rows of literals swept over the holes of a layer.

    ``parts`` is a sequence of ``(holes, rows)``.  A row is a tuple of
    literals: an int is the same at every hole, and ``(first, step)`` is
    ``first + step * (h - 1)`` at hole h (from 1).  A part's clauses are its
    rows taken hole by hole, in row order within each hole, and the parts
    follow one another; so a list of clauses is a part of one hole.  A row
    literal ``(first, step)`` exists only here: iterating yields the clauses
    as int tuples, which ``formats`` writes.  The compiled core builds the
    same rows in C, for ``gen-cnf`` and ``gen-proof``, and writes their text
    straight from them.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[tuple[int, tuple[Row, ...]]]) -> None:
        self.parts = tuple(parts)
        if any(holes < 0 for holes, _ in self.parts):
            raise ValueError("negative hole count")

    def __len__(self) -> int:
        return sum(holes * len(rows) for holes, rows in self.parts)

    def __iter__(self) -> Iterator[Clause]:
        return chain.from_iterable(row_clauses(rows, holes) for holes, rows in self.parts)


def _column(lit: RowLiteral, holes: int) -> Iterable[int]:
    """The values of the row literal ``lit`` at holes 1 to ``holes``."""
    if type(lit) is not tuple:
        return repeat(lit, holes)
    first, step = lit
    return range(first, first + step * holes, step)


def row_clauses(rows: Sequence[Row], holes: int) -> Iterator[Clause]:
    """The clauses of ``rows`` at holes 1 to ``holes``, hole by hole."""
    if holes == 1 and tuple not in set(map(type, chain.from_iterable(rows))):
        # At one hole, rows of constants (plain clauses) are their own clauses.
        return iter(rows)
    columns = [
        zip(*[_column(lit, holes) for lit in row]) if row else repeat((), holes)
        for row in rows
    ]
    return chain.from_iterable(zip(*columns))


#: A proof block ``(tag, k, clauses)``: clauses of one kind from iteration k.
Block = tuple[str, int, HoleRows]
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
