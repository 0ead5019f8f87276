"""Command-line interface.

Subcommands: gen-cnf, gen-proof, check, count, bench, one row each of
``COMMANDS``.  Data goes to stdout (or the file given with --out),
diagnostics to stderr.  Exit codes: 0 on success (proof accepted, for
``check``), 1 for a rejected or incomplete proof, 2 for usage or I/O errors,
among them a stdout that cannot be written (silently when its reader has
gone).  Diagnostics go nowhere when stderr is closed.  No environment
variables are consulted.  Each subcommand imports the modules it needs when
it runs, so ``check`` loads neither the proof generators nor the counting
formulas, and ``gen-cnf`` and ``gen-proof`` on the compiled core load no
module of the package beyond this one, ``_argv`` and the core.

The arguments are read as argparse reads them, without argparse: options
go before, between or after the positionals, as ``--opt value`` or
``--opt=value``, cut to any unique prefix (``--sty``); the last of a repeated
option wins; ``--`` ends the options; ``-`` and negative numbers are
positionals.  A usage error exits 2.  ``main(argv)`` returns the exit code;
``run()``, the entry point of ``python -m pigeonproof.cli`` and of the
console script, ends the process at it.
"""

from __future__ import annotations

import contextlib
import errno
import os
import sys
import time
from importlib import import_module
from types import SimpleNamespace
from typing import IO, Iterator, NoReturn

from . import _check_n
from ._argv import CommandLine, report

#: Module and builder table of the proof family per ``--style``, and the
#: table's layout style (``chained``), which names the family to the compiled
#: core; the one table every subcommand takes its styles from
#: (``counts.TOTALS`` and ``counts.BREAKDOWNS`` share its keys).  A family
#: loads when first used.
GENERATORS = {"ours": ("proof_ours", "OURS", True), "cook": ("proof_cook", "COOK", False)}


def _family(style: str):
    module, name, _ = GENERATORS[style]
    return getattr(import_module(f".{module}", __package__), name)


class UsageError(Exception):
    """Usage or I/O error; reported on stderr with exit code 2."""


@contextlib.contextmanager
def _open_out(path: str | None, raw: bool = False) -> Iterator[IO]:
    """stdout, or the file at ``path``: UTF-8 text that translates no newlines,
    or given ``raw`` an unbuffered binary file for the compiled core."""
    if path is None or path == "-":
        if sys.stdout is None:  # closed by the caller, as with ">&-"
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        yield sys.stdout
        return
    try:
        if raw:
            handle = open(path, "wb", buffering=0)
        else:
            handle = open(path, "w", encoding="utf-8", newline="")
        with handle:
            yield handle
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _positive(text: str) -> int:
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise ValueError("n must be a positive integer")


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _core_write(write, path: str | None, *args) -> int:
    """Write with the compiled core's ``write(*args, sink)`` to ``--out``."""
    with _open_out(path, raw=True) as out:
        write(*args, out.write if out is sys.stdout else out.fileno())
    return 0


def cmd_gen_cnf(args: SimpleNamespace) -> int:
    n, amo = args.n, args.encoding == "amo"
    _check_n(n, minimum=1)  # before --out is opened, and truncated
    try:  # the compiled core builds and writes the whole formula
        from ._fastcheck import write_cnf
    except ImportError:  # no compiled core: the Python encodings, the reference
        from . import encodings, formats

        if amo:
            num_vars, clauses = encodings.php_amo_num_vars(n), encodings.iter_php_amo_clauses(n)
        else:
            num_vars, clauses = n * (n + 1), encodings.iter_php_standard_clauses(n)
        with _open_out(args.out) as out:
            formats.write_dimacs(out, num_vars, clauses, len(clauses))
        return 0
    return _core_write(write_cnf, args.out, n, amo)


def cmd_gen_proof(args: SimpleNamespace) -> int:
    _check_n(args.n, minimum=2)  # before --out is opened, and truncated
    try:  # the compiled core builds and writes the whole proof
        from ._fastcheck import write_proof
    except ImportError:  # no compiled core: the Python builders, the reference
        from . import formats, proof_ours

        blocks = proof_ours.iter_blocks(args.n, _family(args.style), args.deletions)
        with _open_out(args.out) as out:
            formats.write_drat_blocks(out, blocks)
        return 0
    return _core_write(write_proof, args.out, args.n, GENERATORS[args.style][2], args.deletions)


def cmd_check(args: SimpleNamespace) -> int:
    from . import checker

    try:
        db = checker.new_database(args.cnf)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read CNF {args.cnf}: {exc}")
    # verify reads a file once, from start to end, so a pipe will do.
    proof = "/dev/stdin" if args.proof == "-" else args.proof
    try:
        verdict = checker.verify(db, proof, strict_deletions=args.strict_deletions)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read proof {args.proof}: {exc}")
    if verdict.status == checker.ACCEPTED:
        print("ACCEPTED")
        return 0
    if verdict.status == checker.REJECTED:
        print(f"REJECTED line {verdict.line}: {verdict.reason}")
    else:
        print("INCOMPLETE")
    return 1


def cmd_count(args: SimpleNamespace) -> int:
    from . import counts

    if args.breakdown:
        breakdown = counts.BREAKDOWNS[args.style](args.n)
        for row in breakdown.per_iteration:
            print(f"k={row.k}: {row.subtotal}")
        print("empty: 1")
        print(breakdown.total)
    else:
        print(counts.TOTALS[args.style](args.n))
    return 0


def cmd_bench(args: SimpleNamespace) -> int:
    if args.n_max < 2:
        raise UsageError("bench needs n_max >= 2")
    styles = [s.strip() for s in args.styles.split(",") if s.strip()]
    if not styles:
        raise UsageError("bench needs at least one style")
    for style in styles:
        if style not in GENERATORS:
            raise UsageError(f"unknown style {style!r}")
    from . import counts

    failures = 0
    with _open_out(args.out) as out:
        out.write("n," + ",".join(styles) + "\n")
        for n in range(2, args.n_max + 1):
            row = [str(counts.TOTALS[style](n)) for style in styles]
            out.write(f"{n}," + ",".join(row) + "\n")
            if n <= args.verify_up_to:
                failures += _bench_verify(n, styles)
    return 1 if failures else 0


def _bench_verify(n: int, styles: list[str]) -> int:
    from . import checker, encodings, proof_ours

    formula = encodings.php_standard(n)
    failures = 0
    for style in styles:
        start = time.perf_counter()
        verdict = checker.verify(formula, proof_ours.family_lines(n, _family(style)))
        elapsed = time.perf_counter() - start
        report(f"verify n={n} style={style}: {verdict.status} in {elapsed:.2f}s")
        if not verdict.accepted:
            failures += 1
    return failures


#: The subcommands, in the order of the help: name -> (function, help,
#: positionals, options), in the table form that ``_argv`` describes.
COMMANDS = {
    "gen-cnf": (cmd_gen_cnf, "write a pigeonhole CNF in DIMACS", [("n", _positive, "")], [
        ("--encoding", ("standard", "amo"), "standard", ""),
        ("--out", str, None, "output path (default stdout)"),
    ]),
    "gen-proof": (cmd_gen_proof, "write a DRAT refutation", [("n", _positive, "")], [
        ("--style", tuple(GENERATORS), "ours", ""),
        ("--deletions", None, False, "emit deletion lines"),
        ("--out", str, None, ""),
    ]),
    "check": (cmd_check, "verify a DRAT proof against a CNF", [
        ("cnf", str, ""),
        ("proof", str, "DRAT proof path, or - for standard input"),
    ], [
        ("--strict-deletions", None, False, ""),
    ]),
    "count": (cmd_count, "proof length from the closed forms", [("n", _positive, "")], [
        ("--style", tuple(GENERATORS), "ours", ""),
        ("--breakdown", None, False, ""),
    ]),
    "bench": (cmd_bench, "proof-length comparison as CSV", [("n_max", _positive, "")], [
        ("--styles", str, "ours,cook", ""),
        ("--verify-up-to", _integer, 0,
         "also generate and verify both proofs for n up to this bound"),
        ("--out", str, None, ""),
    ]),
}
COMMAND_LINE = CommandLine("pigeonproof", __doc__, COMMANDS)


def main(argv: list[str] | None = None) -> int:
    func, args = COMMAND_LINE.parse(sys.argv[1:] if argv is None else argv)
    try:
        return func(args)
    except (UsageError, ValueError) as exc:
        report(f"error: {exc}")
        return 2
    except MemoryError:
        report("error: out of memory")
        return 2
    except BrokenPipeError:  # the reader of stdout has gone
        return 2
    except OSError as exc:  # the commands turn every other file's errors into UsageError
        report(f"error: cannot write stdout: {exc}")
        return 2


def run() -> NoReturn:
    """Run :func:`main` on ``sys.argv`` and end the process at its exit code.

    stdout is flushed here, so output that stdout cannot take gives exit
    code 2 like any other I/O error, silently when its reader has gone; so
    does a diagnostic that stderr cannot take.
    ``os._exit`` then skips interpreter teardown, which nothing here needs:
    every file is closed by its ``with``, and no thread or atexit hook exists.
    """
    try:
        code = main()
    except SystemExit as exc:  # a usage error or help
        code = exc.code
    except OSError:  # stderr could not take a diagnostic
        code = 2
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            # A run that failed already said why.
            if code != 2 and not isinstance(exc, BrokenPipeError):
                report(f"error: cannot write stdout: {exc}")
            code = 2
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
