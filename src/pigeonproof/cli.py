"""Command-line interface.

Subcommands: gen-cnf, gen-proof, check, count, bench.  Data goes to stdout
(or the file given with --out), diagnostics to stderr.  Exit codes: 0 on
success (proof accepted, for ``check``), 1 for a rejected or incomplete
proof, 2 for usage or I/O errors.  No environment variables are consulted.
Each subcommand imports the modules it needs when it runs, so ``check``
loads neither the proof generators nor the counting formulas, and
``gen-proof`` on the compiled core loads no other module of the package.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from importlib import import_module
from typing import IO, Iterator

from . import _check_n

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
    """stdout, or the file at ``path``: a ``formats.OutputFile``, or given
    ``raw`` an unbuffered binary file for the compiled core to write."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        if raw:
            handle = open(path, "wb", buffering=0)
        else:
            from .formats import OutputFile

            handle = OutputFile(path)
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
    raise argparse.ArgumentTypeError("n must be a positive integer")


def cmd_gen_cnf(args: argparse.Namespace) -> int:
    from . import encodings, formats

    n = args.n
    _check_n(n, minimum=1)  # before --out is opened, and truncated
    if args.encoding == "standard":
        num_vars = n * (n + 1)
        clause_count = encodings.php_standard_clause_count(n)
        clauses = encodings.iter_php_standard_clauses(n)
    else:
        num_vars = encodings.php_amo_num_vars(n)
        clause_count = encodings.php_amo_clause_count(n)
        clauses = encodings.iter_php_amo_clauses(n)
    with _open_out(args.out) as out:
        formats.write_dimacs(out, num_vars, clauses, clause_count)
    return 0


def cmd_gen_proof(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise UsageError("proof generation needs n >= 2")
    _check_n(args.n, minimum=2)  # before --out is opened, and truncated
    try:  # the compiled core builds and writes the whole proof
        from ._fastcheck import write_proof
    except ImportError:  # no compiled core: the Python builders, the reference
        from . import formats, proof_ours

        blocks = proof_ours.iter_blocks(args.n, _family(args.style), args.deletions)
        with _open_out(args.out) as out:
            formats.write_drat_blocks(out, blocks)
        return 0
    with _open_out(args.out, raw=True) as out:
        sink = out.write if out is sys.stdout else out.fileno()
        write_proof(args.n, GENERATORS[args.style][2], args.deletions, sink)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
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


def cmd_count(args: argparse.Namespace) -> int:
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


def cmd_bench(args: argparse.Namespace) -> int:
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
    try:
        with _open_out(args.out) as out:
            out.write("n," + ",".join(styles) + "\n")
            for n in range(2, args.n_max + 1):
                row = [str(counts.TOTALS[style](n)) for style in styles]
                out.write(f"{n}," + ",".join(row) + "\n")
                if n <= args.verify_up_to:
                    failures += _bench_verify(n, styles)
    except OSError as exc:
        raise UsageError(f"I/O failure: {exc}")
    return 1 if failures else 0


def _bench_verify(n: int, styles: list[str]) -> int:
    from . import checker, encodings, proof_ours

    formula = encodings.php_standard(n)
    failures = 0
    for style in styles:
        start = time.perf_counter()
        verdict = checker.verify(formula, proof_ours.family_lines(n, _family(style)))
        elapsed = time.perf_counter() - start
        print(
            f"verify n={n} style={style}: {verdict.status} in {elapsed:.2f}s",
            file=sys.stderr,
        )
        if not verdict.accepted:
            failures += 1
    return failures


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pigeonproof",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-cnf", help="write a pigeonhole CNF in DIMACS")
    p.add_argument("n", type=_positive)
    p.add_argument("--encoding", choices=("standard", "amo"), default="standard")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_gen_cnf)

    p = sub.add_parser("gen-proof", help="write a DRAT refutation")
    p.add_argument("n", type=_positive)
    p.add_argument("--style", choices=tuple(GENERATORS), default="ours")
    p.add_argument("--deletions", action="store_true", help="emit deletion lines")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_proof)

    p = sub.add_parser("check", help="verify a DRAT proof against a CNF")
    p.add_argument("cnf")
    p.add_argument("proof", help="DRAT proof path, or - for standard input")
    p.add_argument("--strict-deletions", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("count", help="proof length from the closed forms")
    p.add_argument("n", type=_positive)
    p.add_argument("--style", choices=tuple(GENERATORS), default="ours")
    p.add_argument("--breakdown", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("bench", help="proof-length comparison as CSV")
    p.add_argument("n_max", type=_positive)
    p.add_argument("--styles", default="ours,cook")
    p.add_argument(
        "--verify-up-to",
        type=int,
        default=0,
        help="also generate and verify both proofs for n up to this bound",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 2


if __name__ == "__main__":
    sys.exit(main())
