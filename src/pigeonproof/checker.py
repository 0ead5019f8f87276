"""Forward DRAT verification.

Each addition must be RUP (propagating the complements of its literals
conflicts) or, failing that, RAT on its first literal.  Additions then join
the working formula; deletions remove one clause with the same literal
multiset.  A proof is accepted the moment the empty clause checks out.

Two interchangeable propagation backends exist: a compiled core (the C
extension ``_fastcheck``, built by ``setup.py`` when a C compiler is present)
and the pure-Python :class:`~pigeonproof.propagation.ClauseDatabase`.  The
faster one available is selected at import time; both produce identical
verdicts and raise the same exceptions on bad input.  A verification session
owns its database, so separate proofs may be checked in parallel threads or
processes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import CnfFormula, Proof, ProofLine, iter_lines
from .propagation import ClauseDatabase

try:  # compiled core is optional; the pure engine is always present
    from . import _fastcheck
except ImportError:  # pragma: no cover - depends on the build environment
    _fastcheck = None

HAVE_NATIVE = _fastcheck is not None
DEFAULT_BACKEND = "native" if HAVE_NATIVE else "python"

ACCEPTED = "ACCEPTED"
REJECTED = "REJECTED"
INCOMPLETE = "INCOMPLETE"


@dataclass(frozen=True)
class Verdict:
    """Checker outcome; ``line`` and ``reason`` are set when rejected."""

    status: str
    line: int | None = None
    reason: str | None = None

    @property
    def accepted(self) -> bool:
        return self.status == ACCEPTED


def select_backend(backend: str | None = None) -> str:
    """Resolve a backend name; ``None`` picks the fastest available."""
    if backend is None or backend == "auto":
        return DEFAULT_BACKEND
    if backend not in ("native", "python"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "native" and not HAVE_NATIVE:
        raise RuntimeError("compiled backend requested but not built")
    return backend


def new_database(formula: CnfFormula | None = None, backend: str | None = None):
    """Fresh clause database, optionally preloaded with a formula."""
    if select_backend(backend) == "native":
        db = _fastcheck.FastDatabase()
    else:
        db = ClauseDatabase()
    if formula is not None:
        for clause in formula.clauses:
            db.add_clause(clause)
    return db


def check_rup(db, clause: Sequence[int]) -> bool:
    """Is the clause implied by the database via unit propagation?

    The complements of all its literals are assumed, propagation runs to a
    conflict or fixpoint, and the assignment is restored exactly.
    """
    return db.rup(list(clause))


def check_rat(db, clause: Sequence[int]) -> bool:
    """Does the clause have the RAT property on its first literal?"""
    if not clause:
        raise ValueError("the empty clause has no pivot; use check_rup")
    return db.rat(list(clause))


def _multiset_key(lits: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(lits))


def verify(
    formula: CnfFormula,
    proof: Proof | Iterable[ProofLine],
    strict_deletions: bool = False,
    backend: str | None = None,
) -> Verdict:
    """Check a proof against a formula, line by line.

    Deleting a clause that is not present is a warning unless
    ``strict_deletions`` is set; among identical copies the most recently
    added one is removed.  Lines after an accepted empty clause are ignored.
    """
    db = new_database(backend=backend)
    by_key: dict[tuple[int, ...], list[int]] = {}
    for clause in formula.clauses:
        cid = db.add_clause(clause)
        by_key.setdefault(_multiset_key(clause), []).append(cid)

    for lineno, line in enumerate(iter_lines(proof), start=1):
        lits = line.lits
        if line.delete:
            stack = by_key.get(_multiset_key(lits))
            if not stack:
                if strict_deletions:
                    return Verdict(
                        REJECTED, lineno, "deletion of a clause not in the formula"
                    )
                warnings.warn(
                    f"proof line {lineno}: deleted clause not in the formula",
                    stacklevel=2,
                )
                continue
            db.delete_clause(stack.pop())
            continue
        if not db.rup(list(lits)):
            if not lits:
                return Verdict(
                    REJECTED,
                    lineno,
                    "empty clause is not RUP (and has no pivot for RAT)",
                )
            if not db.rat(list(lits)):
                return Verdict(REJECTED, lineno, "RUP and RAT checks both failed")
        if not lits:
            return Verdict(ACCEPTED)
        cid = db.add_clause(lits)
        by_key.setdefault(_multiset_key(lits), []).append(cid)
    return Verdict(INCOMPLETE, None, "proof never adds the empty clause")
