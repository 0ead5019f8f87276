"""Forward DRAT verification.

Each addition must be RUP (propagating the complements of its literals
conflicts) or, failing that, RAT on its first literal.  Additions then join
the working formula; deletions remove one clause with the same literal
multiset.  A proof is accepted the moment the empty clause checks out.

RUP implies RAT for a non-empty clause, as every resolvent contains the
clause's other literals, so on both engines ``db.rat`` is the whole check of
a non-empty addition, in three steps on one trail.  First a screen: if every
resolvent on the pivot is a tautology, the clause is blocked and passes with
no propagation; every extension definition is such a clause.  Then the
complement of every literal, the pivot's included, is propagated; a conflict
means the clause is RUP.  Then each resolvent left is checked on that trail.
The native file check runs ``db.rat`` alone on every non-empty addition and
``db.rup`` on the empty clause; the per-line path below still tries
``db.rup`` first.  Both give the same verdicts.

Two interchangeable propagation backends exist: a compiled core (the C
extension ``_fastcheck``, built by ``setup.py`` when a C compiler is present)
and the pure-Python :class:`~pigeonproof.propagation.ClauseDatabase`.  The
faster one available is selected at import time, and the pure-Python engine
is imported only when it is used; both produce identical verdicts and raise
the same exceptions on bad input.  A verification session owns its database,
so separate proofs may be checked in parallel threads or processes.

:func:`verify` takes a proof as lines or as the path of a text DRAT file,
and the formula as a ``CnfFormula`` or as the path of a DIMACS CNF file.
On the compiled core a CNF file is read in chunks by the core, which stores
each clause as it is read, so no clause tuple is built; a proof file is
checked in one pass, which reads it in chunks, parses every byte and finds
deleted clauses through its occurrence lists.  Otherwise, and for lines,
``parse_dimacs`` reads the CNF and ``verify`` feeds the database one line at
a time.  A byte beyond ASCII is comment text or a bad token on both, and
both raise the same errors.  The text formats and the data model are
imported only on the paths that use them, so an accepted check on the
compiled core loads neither.
"""

from __future__ import annotations

import io
import os
import warnings
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from .model import CnfFormula, Proof, ProofLine

try:  # compiled core is optional; the pure engine is always present
    from . import _fastcheck
except ImportError:  # pragma: no cover - depends on the build environment
    _fastcheck = None

HAVE_NATIVE = _fastcheck is not None
DEFAULT_BACKEND = "native" if HAVE_NATIVE else "python"

ACCEPTED = "ACCEPTED"
REJECTED = "REJECTED"
INCOMPLETE = "INCOMPLETE"

_NEVER_EMPTY = "proof never adds the empty clause"
_EMPTY_NOT_RUP = "empty clause is not RUP (and has no pivot for RAT)"
_NOT_RUP_OR_RAT = "RUP and RAT checks both failed"
_NOT_PRESENT = "deletion of a clause not in the formula"

#: Status and reason of each outcome of ``FastDatabase.check_drat``, by its
#: number.
_OUTCOMES = (
    (INCOMPLETE, _NEVER_EMPTY),
    (ACCEPTED, None),
    (REJECTED, _EMPTY_NOT_RUP),
    (REJECTED, _NOT_RUP_OR_RAT),
    (REJECTED, _NOT_PRESENT),
)


class Verdict(NamedTuple):
    """Checker outcome; ``line`` and ``reason`` are set when rejected."""

    status: str
    line: int | None = None
    reason: str | None = None

    @property
    def accepted(self) -> bool:
        return self.status == ACCEPTED


def select_backend(backend: str | None = None) -> str:
    """Resolve a backend name; ``None`` picks the fastest available."""
    if backend is None:
        return DEFAULT_BACKEND
    if backend not in ("native", "python"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "native" and not HAVE_NATIVE:
        raise RuntimeError("compiled backend requested but not built")
    return backend


def new_database(
    formula: CnfFormula | str | os.PathLike | None = None, backend: str | None = None
):
    """Fresh clause database, optionally holding a formula: a
    :class:`~pigeonproof.model.CnfFormula`, or the path of a DIMACS CNF file.

    A path is read once, from start to end, so a pipe will do.  On the
    compiled core the core reads it in chunks and stores each clause as it
    is read, so no clause tuple is built; otherwise
    :func:`~pigeonproof.formats.parse_dimacs` reads it.  Both raise the same
    ``ValueError`` on a malformed file and give the same warning for a
    clause count other than the header's.
    """
    native = select_backend(backend) == "native"
    if isinstance(formula, (str, os.PathLike)):
        with open(formula, "rb") as handle:
            if native:
                try:
                    return _fastcheck.FastDatabase(handle.fileno())
                except ValueError as stop:
                    _raise_dimacs_error(handle, *stop.args)
            from .formats import parse_dimacs

            text = io.TextIOWrapper(handle, encoding="utf-8", errors="surrogateescape")
            formula = parse_dimacs(text)
    if native:
        db = _fastcheck.FastDatabase()
    else:
        from .propagation import ClauseDatabase

        db = ClauseDatabase()
    if formula is not None:
        for clause in formula.clauses:
            db.add_clause(clause)
    return db


def _raise_dimacs_error(
    handle: BinaryIO, line: int, raw: bytes, header: bytes | None, clause: tuple
) -> None:
    """Raise the ``ValueError`` of ``parse_dimacs`` for a CNF the core stopped
    reading at file line ``line``.  ``parse_dimacs`` reads the state at that
    line's start, the ``header`` and the ``clause`` in progress, padded to
    ``line - 1`` lines, and then the file from that line on: ``raw``, the
    bytes the core read from it, and the rest of ``handle``."""
    from itertools import chain, repeat

    from .formats import parse_dimacs

    state = [header.decode()] if header is not None else []
    if clause:
        state.append(" ".join(map(str, clause)))
    rest = (raw + handle.read()).decode("utf-8", "surrogateescape")
    parse_dimacs(
        chain(state, repeat("", line - 1 - len(state)), io.StringIO(rest, newline=None))
    )
    raise RuntimeError(f"CNF line {line}: the native reader rejects what parse_dimacs takes")


def _multiset_key(lits: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(lits))


def _warn_not_present(lineno: int) -> None:
    # stacklevel 4 names the caller of verify, as the core's check_drat does.
    warnings.warn(
        f"proof line {lineno}: deleted clause not in the formula", stacklevel=4
    )


def verify(
    formula: CnfFormula | str | os.PathLike,
    proof: Proof | Iterable[ProofLine] | str | os.PathLike,
    strict_deletions: bool = False,
    backend: str | None = None,
) -> Verdict:
    """Check a proof, given as lines or as the path of a text DRAT file,
    against a formula, given as a ``CnfFormula`` or as the path of a DIMACS
    CNF file (or as a database :func:`new_database` returned, which the
    check then changes).  A database that holds a deleted clause is a
    ``ValueError``: clause ids count deleted clauses, so the line path
    could not tell which ids are active.

    A CNF path is read in full, by :func:`new_database`, before the proof is
    opened.  Deleting a clause that is not present is a warning unless
    ``strict_deletions`` is set; among identical copies the most recently
    added one is removed.  Lines after an accepted empty clause are neither
    checked nor parsed.  A malformed file line raises the ``ValueError`` of
    :func:`~pigeonproof.formats.parse_drat_line`; ``Verdict.line`` counts
    proof lines, not blank or comment lines.  A file is read as a stream,
    from start to end, so a pipe such as ``/dev/stdin`` will do; on the
    compiled core it is checked in one native call.
    """
    if isinstance(formula, (str, os.PathLike)):
        formula = new_database(formula, backend)
    elif hasattr(formula, "rup") and _holds_deleted(formula):
        raise ValueError("the database holds deleted clauses; verify needs one without")
    if not isinstance(proof, (str, os.PathLike)):
        from .model import Proof

        lines = proof.lines if isinstance(proof, Proof) else proof
        return _verify_lines(formula, iter(lines), strict_deletions, backend)
    if not hasattr(formula, "rup"):
        formula = new_database(formula, backend)
    with open(proof, "rb") as handle:
        if hasattr(formula, "check_drat"):
            return _check_file(formula, handle, strict_deletions)
        from .formats import iter_drat_lines

        text = io.TextIOWrapper(handle, encoding="utf-8", errors="surrogateescape")
        return _verify_lines(formula, iter_drat_lines(text), strict_deletions, backend)


def _holds_deleted(db) -> bool:
    """Was a clause of ``db`` deleted?  Ids run over every clause added, so
    id ``len(db)`` exists exactly then."""
    try:
        db.clause(len(db))
    except IndexError:
        return False
    return True


def _check_file(db, handle: BinaryIO, strict_deletions: bool) -> Verdict:
    """Check a DRAT file on a compiled database.

    At a malformed line the core stops with its file line and bytes, decoded
    here as the text reader decodes them, so that
    :func:`~pigeonproof.formats.parse_drat_line` raises the same error.
    """
    try:
        outcome, line, _ = db.check_drat(handle.fileno(), strict_deletions)
    except ValueError as stop:
        from .formats import parse_drat_line

        line, raw = stop.args
        parse_drat_line(raw.decode("utf-8", "surrogateescape"), line)
        raise RuntimeError(f"line {line}: the native parser rejects {raw!r}")
    status, reason = _OUTCOMES[outcome]
    return Verdict(status, line if status == REJECTED else None, reason)


def _verify_lines(
    formula,
    lines: Iterator[ProofLine],
    strict_deletions: bool,
    backend: str | None,
) -> Verdict:
    by_key: dict[tuple[int, ...], list[int]] = {}
    if hasattr(formula, "rup"):  # a database that holds the formula
        db = formula
        for cid in range(len(db)):
            by_key.setdefault(_multiset_key(db.clause(cid)), []).append(cid)
    else:
        db = new_database(backend=backend)
        for clause in formula.clauses:
            cid = db.add_clause(clause)
            by_key.setdefault(_multiset_key(clause), []).append(cid)

    for lineno, line in enumerate(lines, start=1):
        lits = line.lits
        if line.delete:
            stack = by_key.get(_multiset_key(lits))
            if not stack:
                if strict_deletions:
                    return Verdict(REJECTED, lineno, _NOT_PRESENT)
                _warn_not_present(lineno)
                continue
            db.delete_clause(stack.pop())
            continue
        if not db.rup(list(lits)):
            if not lits:
                return Verdict(REJECTED, lineno, _EMPTY_NOT_RUP)
            if not db.rat(list(lits)):
                return Verdict(REJECTED, lineno, _NOT_RUP_OR_RAT)
        if not lits:
            return Verdict(ACCEPTED)
        cid = db.add_clause(lits)
        by_key.setdefault(_multiset_key(lits), []).append(cid)
    return Verdict(INCOMPLETE, None, _NEVER_EMPTY)
