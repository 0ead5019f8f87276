"""DIMACS CNF and text-DRAT parsing and emission.

Emission is canonical and byte-stable: one clause per line, space-separated
literals, a ``0`` terminator, LF line endings.  Deletion lines in DRAT carry
a ``d `` prefix.  Binary DRAT is not supported.

Every writer formats its clauses with one ``%``-template join per chunk of
``_CHUNK`` clauses, a :class:`~pigeonproof.model.HoleRows` block's expanded
hole by hole, and passes the text to ``out.write``, so any handle's newline
translation, encoding or compression applies to every line.  A literal must
be an int: any other raises TypeError rather than be written as a different
number.  The CLI writes ``gen-cnf`` and ``gen-proof`` with the compiled
core's ``write_cnf`` and ``write_proof`` when it imports, which give the
same bytes.
"""

from __future__ import annotations

import io
import re
import warnings
from itertools import chain, groupby, islice
from operator import itemgetter
from typing import IO, Iterable, Iterator

from .model import (
    DELETE,
    MAX_LITERAL,
    Block,
    Clause,
    CnfFormula,
    Proof,
    ProofLine,
    validate_clause,
)


class _Templates(dict):
    """``%`` templates of text lines by clause length, built on first use."""

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, arity: int) -> str:
        template = self[arity] = self.prefix + "%d " * arity + "0\n"
        return template


# _TEMPLATES[delete][len(clause)] % clause is the clause's text line.
_TEMPLATES = (_Templates(""), _Templates("d "))
_CHUNK = 4096  # clauses formatted at a time


def _text_lines(data: str | bytes | Iterable[str]) -> Iterable[str]:
    """Lines of ``data``, broken only at ``\\n``, ``\\r\\n`` and ``\\r`` as a
    file reader breaks them; an iterable of lines is passed through."""
    if isinstance(data, bytes):
        data = data.decode("utf-8", "surrogateescape")
    return io.StringIO(data, newline=None) if isinstance(data, str) else data


# A token is ASCII ``-?[0-9]+``: int() alone would also take "+5", "1_0" and "٣".
_is_token = re.compile(r"-?[0-9]+").fullmatch
_SPACE = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"  # ASCII whitespace, as str.split() sees it


def _split(line: str) -> list[str]:
    """The tokens of a stripped ``line``, split at ASCII whitespace only."""
    return line.split() if line.isascii() else re.split(f"[{_SPACE}]+", line)


def _bad_token(text: str, tokens: list[str]) -> str | None:
    """The first of ``tokens``, split from ``text``, that int() takes although
    it is not ``-?[0-9]+``; None if there is none."""
    # Only "+", "_" or a character beyond ASCII lets int() take more.
    if text.isascii() and "+" not in text and "_" not in text:
        return None
    return next((token for token in tokens if not _is_token(token)), None)


def parse_dimacs(data: str | bytes | Iterable[str]) -> CnfFormula:
    """Parse DIMACS CNF text, or its lines (an open file), into a formula.

    Comment lines start with ``c``; the header is ``p cnf <vars> <clauses>``.
    Tokens are split at ASCII whitespace, as in :func:`parse_drat_line`, so
    a character beyond ASCII outside a comment is a bad token.  Bytes are
    decoded with ``surrogateescape``.  A mismatch between the declared and
    actual clause count is a warning, everything else malformed is an error.
    """
    num_vars: int | None = None
    declared = 0
    clauses: list[Clause] = []
    current: list[int] = []
    for lineno, raw in enumerate(_text_lines(data), start=1):
        line = raw.strip(_SPACE)
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            fields = _split(line)
            if len(fields) != 4 or fields[0] != "p" or fields[1] != "cnf":
                raise ValueError(f"line {lineno}: malformed header {line!r}")
            try:
                if _bad_token(line, fields[2:]) is not None:
                    raise ValueError
                num_vars, declared = int(fields[2]), int(fields[3])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed header {line!r}") from None
            if num_vars < 0 or declared < 0:
                raise ValueError(f"line {lineno}: malformed header {line!r}")
            continue
        if num_vars is None:
            raise ValueError(f"line {lineno}: clause data before header")
        tokens = _split(line)
        bad = _bad_token(line, tokens)
        if bad is not None:
            raise ValueError(f"line {lineno}: bad token {bad!r}")
        for token in tokens:
            try:
                lit = int(token)
            except ValueError:
                raise ValueError(f"line {lineno}: bad token {token!r}") from None
            if lit == 0:
                clause = tuple(current)
                # Its literals are nonzero and within num_vars: validate_clause
                # is needed only to name a duplicate or one beyond MAX_LITERAL.
                if len(set(clause)) < len(clause) or num_vars > MAX_LITERAL:
                    validate_clause(clause)
                clauses.append(clause)
                current = []
            else:
                if abs(lit) > num_vars:
                    raise ValueError(
                        f"line {lineno}: literal {lit} out of range 1..{num_vars}"
                    )
                current.append(lit)
    if num_vars is None:
        raise ValueError("missing DIMACS header")
    if current:
        raise ValueError("last clause is missing its terminating 0")
    if len(clauses) != declared:
        warnings.warn(
            f"header declares {declared} clauses but file contains {len(clauses)}",
            stacklevel=2,
        )
    return CnfFormula(num_vars, tuple(clauses))


def _write_clauses(out: IO[str], delete: bool, clauses: Iterable[Clause]) -> None:
    templates = _TEMPLATES[delete]
    clauses = iter(clauses)
    while chunk := tuple(islice(clauses, _CHUNK)):
        # %d would write a float or a bool as a number, and writes an int subclass by value.
        for kind in set(map(type, chain.from_iterable(chunk))) - {int}:
            if kind is bool or not issubclass(kind, int):
                raise TypeError(f"a literal must be an int, not {kind.__name__}")
        out.write("".join([templates[len(c)] % c for c in chunk]))


def emit_dimacs(formula: CnfFormula) -> str:
    """Serialise a formula to canonical DIMACS text."""
    out = io.StringIO()
    write_dimacs(out, formula.num_vars, formula.clauses, len(formula.clauses))
    return out.getvalue()


def write_dimacs(
    out: IO[str],
    num_vars: int,
    clauses: Iterable[Clause],
    clause_count: int,
) -> None:
    """Stream a formula to ``out`` without materialising it."""
    out.write(f"p cnf {num_vars} {clause_count}\n")
    _write_clauses(out, False, clauses)


def parse_drat_line(line: str, lineno: int = 0) -> ProofLine | None:
    """Parse one DRAT text line; None for blanks and comments.

    Tokens are ``-?[0-9]+`` between ASCII whitespace, the last of them ``0``.
    A line whose first other character is ``c`` is a comment, whatever else
    it holds; any other character beyond ASCII is a bad token.  The compiled
    core parses proof files with the same grammar, byte by byte.
    """
    stripped = line.strip(_SPACE)
    if not stripped or stripped.startswith("c"):
        return None
    delete = False
    if stripped == "d" or stripped.startswith("d "):
        delete = True
        stripped = stripped[1:].strip(_SPACE)
    tokens = stripped.split()
    try:
        if not stripped.isascii() or _bad_token(stripped, tokens) is not None:
            raise ValueError
        values = list(map(int, tokens))
    except ValueError:
        raise ValueError(f"line {lineno}: bad token in {line!r}") from None
    if not values or values[-1] != 0:
        raise ValueError(f"line {lineno}: missing terminating 0")
    if 0 in values[:-1]:
        raise ValueError(f"line {lineno}: 0 inside clause")
    try:
        lits = validate_clause(values[:-1])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    if delete and not lits:
        raise ValueError(f"line {lineno}: deletion of the empty clause")
    return ProofLine(delete, lits)


def iter_drat_lines(source: IO[str] | Iterable[str]) -> Iterator[ProofLine]:
    """Stream proof lines from text lines (a file object works directly)."""
    for lineno, raw in enumerate(source, start=1):
        line = parse_drat_line(raw, lineno)
        if line is not None:
            yield line


def parse_drat(data: str | bytes) -> Proof:
    """Parse text DRAT into a proof; literal order (pivot position) is kept.
    Bytes are decoded as ``verify`` reads a file, with ``surrogateescape``."""
    return Proof(tuple(iter_drat_lines(_text_lines(data))))


def emit_drat(proof: Proof | Iterable[ProofLine]) -> str:
    """Serialise a proof to text DRAT; inverse of :func:`parse_drat`."""
    out = io.StringIO()
    write_drat(out, proof.lines if isinstance(proof, Proof) else proof)
    return out.getvalue()


def write_drat(out: IO[str], lines: Iterable[ProofLine]) -> None:
    """Stream proof lines to ``out``."""
    for delete, run in groupby(lines, itemgetter(0)):
        _write_clauses(out, delete, map(itemgetter(1), run))


def write_drat_blocks(out: IO[str], blocks: Iterable[Block]) -> None:
    """Stream proof blocks to ``out``, as deletions where ``tag == DELETE``."""
    for tag, _, clauses in blocks:
        _write_clauses(out, tag == DELETE, clauses)
