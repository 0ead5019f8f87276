import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pigeonproof import parse_dimacs, parse_drat
from pigeonproof.cli import COMMAND_LINE, COMMANDS, main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, capsys=None):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def child_env(src):
    """The environment of a CLI child with the package at ``src`` and stdout
    buffered, as by default: ``PYTHONUNBUFFERED`` would hide a failure that
    shows only when the buffer is flushed at exit."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_child(src, *args):
    """``(exit code, stdout, stderr)`` of the CLI in a child with the package
    at ``src``."""
    result = subprocess.run(
        [sys.executable, "-m", "pigeonproof.cli", *args],
        env=child_env(src),
        capture_output=True,
        text=True,
    )
    return result.returncode, result.stdout, result.stderr


def test_gen_cnf_standard(capsys):
    code, out, _ = run_cli("gen-cnf", "2", "--encoding", "standard", capsys=capsys)
    assert code == 0
    formula = parse_dimacs(out)
    assert len(formula.clauses) == 9
    assert out.startswith("p cnf 6 9\n")


def test_gen_cnf_amo(capsys):
    code, out, _ = run_cli("gen-cnf", "4", "--encoding", "amo", capsys=capsys)
    assert code == 0
    assert len(parse_dimacs(out).clauses) == 45


def test_gen_cnf_rejects_zero():
    with pytest.raises(SystemExit) as exc:
        main(["gen-cnf", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text", ["abc", "1.5", "", "0", "-3"])
@pytest.mark.parametrize("command", ["gen-cnf", "gen-proof", "count", "bench"])
def test_n_that_is_not_a_positive_integer_is_a_usage_error(command, text, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    name = "n_max" if command == "bench" else "n"
    assert err.endswith(f"{command}: error: argument {name}: n must be a positive integer\n")
    assert "_positive" not in err


def test_gen_proof_ours(capsys):
    code, out, _ = run_cli("gen-proof", "2", "--style", "ours", capsys=capsys)
    assert code == 0
    proof = parse_drat(out)
    assert proof.added_count == 10
    assert out.splitlines()[-1] == "0"


def test_gen_proof_rejects_n1(capsys):
    code, _, err = run_cli("gen-proof", "1", capsys=capsys)
    assert code == 2
    assert "n >= 2" in err


def test_gen_proof_count_matches_formula(capsys):
    from pigeonproof import count_ours

    code, out, _ = run_cli("gen-proof", "7", capsys=capsys)
    assert code == 0
    assert parse_drat(out).added_count == count_ours(7)


def test_check_accepts_roundtrip(tmp_path, capsys):
    cnf = tmp_path / "php5.cnf"
    drat = tmp_path / "php5.drat"
    assert main(["gen-cnf", "5", "--out", str(cnf)]) == 0
    assert main(["gen-proof", "5", "--style", "ours", "--out", str(drat)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli("check", str(cnf), str(drat), capsys=capsys)
    assert code == 0
    assert out.strip() == "ACCEPTED"


def test_check_with_deletions_strict(tmp_path, capsys):
    cnf = tmp_path / "php5.cnf"
    drat = tmp_path / "php5.drat"
    main(["gen-cnf", "5", "--out", str(cnf)])
    main(["gen-proof", "5", "--style", "cook", "--deletions", "--out", str(drat)])
    capsys.readouterr()
    code, out, _ = run_cli(
        "check", str(cnf), str(drat), "--strict-deletions", capsys=capsys
    )
    assert code == 0
    assert out.strip() == "ACCEPTED"


def test_check_truncated_proof(tmp_path, capsys):
    cnf = tmp_path / "php3.cnf"
    drat = tmp_path / "php3.drat"
    main(["gen-cnf", "3", "--out", str(cnf)])
    main(["gen-proof", "3", "--out", str(drat)])
    text = drat.read_text()
    drat.write_text(text[: text.rstrip("\n").rfind("\n") + 1])
    capsys.readouterr()
    code, out, _ = run_cli("check", str(cnf), str(drat), capsys=capsys)
    assert code == 1
    assert "INCOMPLETE" in out


def test_check_corrupted_derived_clause(tmp_path, capsys):
    from pigeonproof.proof_ours import iter_tagged_lines

    cnf = tmp_path / "php4.cnf"
    drat = tmp_path / "php4.drat"
    main(["gen-cnf", "4", "--out", str(cnf)])
    lines = []
    corrupted_at = None
    for tag, k, line in iter_tagged_lines(4):
        if tag == "derived" and k == 3 and corrupted_at is None:
            corrupted_at = len(lines) + 1
            lines.append(f"{-line.lits[0]} {line.lits[1]} 0")
        else:
            body = " ".join(map(str, line.lits)) + (" 0" if line.lits else "0")
            lines.append(("d " + body) if line.delete else body)
    assert corrupted_at == 43
    rejected = "REJECTED line 43: RUP and RAT checks both failed\n"
    drat.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("check", str(cnf), str(drat), capsys=capsys)[:2] == (1, rejected)
    # Comment and blank lines are not proof lines.
    drat.write_text("c a comment\n\n" + "\n".join(lines) + "\n")
    assert run_cli("check", str(cnf), str(drat), capsys=capsys)[:2] == (1, rejected)


def test_check_missing_file(capsys):
    code, _, err = run_cli("check", "/nonexistent.cnf", "/nonexistent.drat", capsys=capsys)
    assert code == 2
    assert "error" in err


def test_check_missing_proof_file_exits_2_without_traceback(tmp_path):
    cnf = tmp_path / "php2.cnf"
    assert main(["gen-cnf", "2", "--out", str(cnf)]) == 0
    result = subprocess.run(
        [sys.executable, "-m", "pigeonproof.cli", "check", str(cnf), str(tmp_path / "no.drat")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "cannot read proof" in result.stderr
    assert "Traceback" not in result.stderr


def test_check_reads_a_piped_proof_from_dash(tmp_path):
    cnf = tmp_path / "php6.cnf"
    assert main(["gen-cnf", "6", "--out", str(cnf)]) == 0
    cli = [sys.executable, "-m", "pigeonproof.cli"]
    proof = subprocess.run(cli + ["gen-proof", "6"], capture_output=True, check=True).stdout
    check = cli + ["check", str(cnf), "-"]
    result = subprocess.run(check, input="c café\n".encode() + proof, capture_output=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, b"ACCEPTED\n", b"")
    result = subprocess.run(check, input="1 x 0\n", capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr == "error: cannot read proof -: line 1: bad token in '1 x 0\\n'\n"


def test_check_reads_the_cnf_with_the_proof_grammar(tmp_path, capsys):
    # A comment that is not UTF-8 is read, as in the proof; a character
    # beyond ASCII outside a comment is a bad token on its line.
    cnf, drat = tmp_path / "php3.cnf", tmp_path / "php3.drat"
    assert main(["gen-cnf", "3", "--out", str(cnf)]) == 0
    assert main(["gen-proof", "3", "--out", str(drat)]) == 0
    text = cnf.read_bytes()
    cnf.write_bytes(b"c \xff\n" + text)
    assert run_cli("check", str(cnf), str(drat), capsys=capsys) == (0, "ACCEPTED\n", "")
    cnf.write_bytes(text.replace(b"-1 -4 0", b"-1\xc2\xa0-4 0"))
    code, out, err = run_cli("check", str(cnf), str(drat), capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read CNF {cnf}: line 6: bad token '-1\\xa0-4'\n"


@pytest.mark.parametrize("command", [["gen-cnf", "2"], ["gen-proof", "2"]])
def test_unwritable_out_path_exits_2_without_traceback(command, cli_srcs, tmp_path):
    # With and without the compiled core, which opens --out for gen-proof
    # in its own way: the same exit code and the same one line.
    out = tmp_path / "no-such-dir" / "out.txt"
    expected = (2, "", f"error: cannot write {out}: [Errno 2] No such file or directory: '{out}'\n")
    for backend, src in cli_srcs:
        assert run_child(src, *command, "--out", str(out)) == expected, backend


@pytest.mark.parametrize(
    "command, error",
    [
        (["gen-cnf", "5001"], "n > 5000 is not supported (memory guard)"),
        (["gen-cnf", "5001", "--encoding", "amo"], "n > 5000 is not supported (memory guard)"),
        (["gen-proof", "5001"], "n > 5000 is not supported (memory guard)"),
        (["gen-proof", "5001", "--style", "cook", "--deletions"],
         "n > 5000 is not supported (memory guard)"),
        (["gen-proof", "1"], "n >= 2 is required, got 1"),
    ],
    ids=[f"command{i}" for i in range(5)],
)
def test_failed_run_leaves_an_existing_out_file_untouched(command, error, cli_srcs, tmp_path):
    # n is checked in full, with the memory guard of php_standard, before
    # the file is opened (and truncated), with and without the compiled core.
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier output\n")
    for backend, src in cli_srcs:
        assert run_child(src, *command, "--out", str(out)) == (2, "", f"error: {error}\n"), backend
        assert out.read_bytes() == b"earlier output\n"


def test_check_literal_beyond_the_cap_exits_2_without_traceback(tmp_path):
    cnf = tmp_path / "php2.cnf"
    drat = tmp_path / "huge.drat"
    assert main(["gen-cnf", "2", "--out", str(cnf)]) == 0
    drat.write_text("4294967296 0\n0\n")
    result = subprocess.run(
        [sys.executable, "-m", "pigeonproof.cli", "check", str(cnf), str(drat)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "out of range" in result.stderr
    assert "Traceback" not in result.stderr


def test_check_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    from pigeonproof import checker

    def exhausted(*args, **kwargs):
        raise MemoryError

    cnf = tmp_path / "php2.cnf"
    drat = tmp_path / "php2.drat"
    main(["gen-cnf", "2", "--out", str(cnf)])
    main(["gen-proof", "2", "--out", str(drat)])
    capsys.readouterr()
    monkeypatch.setattr(checker, "verify", exhausted)
    code, _, err = run_cli("check", str(cnf), str(drat), capsys=capsys)
    assert code == 2
    assert "out of memory" in err


def test_count_totals(capsys):
    code, out, _ = run_cli("count", "100", "--style", "ours", capsys=capsys)
    assert code == 0
    assert out.strip() == "2456527"
    code, out, _ = run_cli("count", "100", "--style", "cook", capsys=capsys)
    assert out.strip() == "26169100"


def test_count_breakdown(capsys):
    code, out, _ = run_cli("count", "3", "--style", "ours", "--breakdown", capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["k=2: 29", "k=1: 9", "empty: 1", "39"]


@pytest.mark.parametrize("style", ("ours", "cook"))
@pytest.mark.parametrize("breakdown", ((), ("--breakdown",)))
def test_count_rejects_n1(style, breakdown, capsys):
    code, out, err = run_cli("count", "1", "--style", style, *breakdown, capsys=capsys)
    assert (code, out, err) == (2, "", "error: proof counting needs n >= 2\n")


def test_bench_csv(capsys):
    code, out, err = run_cli("bench", "10", capsys=capsys)
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "n,ours,cook"
    assert rows[1] == "2,10,13"
    assert len(rows) == 10
    assert err == ""


def test_bench_row_100(capsys):
    code, out, _ = run_cli("bench", "100", capsys=capsys)
    assert code == 0
    assert "100,2456527,26169100" in out.splitlines()


def test_bench_is_deterministic(capsys):
    _, first, _ = run_cli("bench", "25", capsys=capsys)
    _, second, _ = run_cli("bench", "25", capsys=capsys)
    assert first == second


def test_bench_verify_reports_to_stderr(capsys):
    code, out, err = run_cli("bench", "5", "--verify-up-to", "4", capsys=capsys)
    assert code == 0
    assert "verify n=4 style=ours" in err
    assert "ACCEPTED" in err
    assert all(not line.startswith("verify") for line in out.splitlines())


def test_bench_styles_subset(capsys):
    code, out, _ = run_cli("bench", "4", "--styles", "ours", capsys=capsys)
    assert code == 0
    assert out.splitlines()[0] == "n,ours"


def test_style_tables_agree():
    from pigeonproof import counts
    from pigeonproof.cli import GENERATORS, _family

    assert set(GENERATORS) == set(counts.TOTALS) == set(counts.BREAKDOWNS)
    # The flag that names a family to the compiled core is its table's own.
    for style, (_, _, chained) in GENERATORS.items():
        assert _family(style)[0] is chained


def test_bench_unknown_style_exits_2_without_traceback():
    result = subprocess.run(
        [sys.executable, "-m", "pigeonproof.cli", "bench", "3", "--styles", "bogus"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "unknown style 'bogus'" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("styles", ("", ",", " , "))
def test_bench_without_styles_exits_2(styles, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    args = ("bench", "3", "--styles", styles, "--out", str(out))
    code, stdout, err = run_cli(*args, capsys=capsys)
    assert (code, stdout, err) == (2, "", "error: bench needs at least one style\n")
    assert not out.exists()


def test_gen_proof_100_add_line_count(tmp_path):
    out = tmp_path / "php100.drat"
    assert main(["gen-proof", "100", "--style", "ours", "--out", str(out)]) == 0
    added = 0
    with open(out) as handle:
        for line in handle:
            if not line.startswith("d "):
                added += 1
    assert added == 2_456_527


def test_console_script_is_the_exiting_entry_point():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    from pigeonproof import cli

    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"pigeonproof": "pigeonproof.cli:run"}
    assert callable(cli.run)


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "pigeonproof.cli", "count", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "10"


def test_gen_proof_60_matches_the_benchmark_pin(cli_srcs, tmp_path):
    # The size and SHA-256 of the n=60 proof that perfbench/run.py pins as
    # OURS_60, so a change to the clause builders, in Python or in the
    # compiled core, fails here as well.
    out = tmp_path / "ours-60.drat"
    for backend, src in cli_srcs:
        out.unlink(missing_ok=True)
        assert run_child(src, "gen-proof", "60", "--style", "ours", "--out", str(out)) == (0, "", "")
        digest = hashlib.sha256()
        with open(out, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
        assert out.stat().st_size == 10_114_414, backend
        assert digest.hexdigest() == (
            "f9253b6a17b21bbee40bcd04bbb912e46a03aaad04f69c48a74ab1cba5df33d7"
        ), backend


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("proof-*.drat")), ids=lambda path: path.stem)
def test_gen_proof_writes_the_golden_proofs(golden, cli_srcs, tmp_path):
    # To --out and to stdout, with and without the compiled core.
    _, style, n, *deletions = golden.stem.split("-")
    args = ["gen-proof", n, "--style", style] + (["--deletions"] if deletions else [])
    expected = golden.read_text()
    out = tmp_path / "out.drat"
    for backend, src in cli_srcs:
        assert run_child(src, *args) == (0, expected, ""), backend
        assert run_child(src, *args, "--out", str(out)) == (0, "", ""), backend
        assert out.read_bytes() == golden.read_bytes(), backend


#: Argument vectors and the ``(exit code, stdout, last stderr line)`` the CLI
#: gave for them when it parsed argv with argparse; stdout given as a path is
#: that golden file's text.  Options go before, between or after positionals,
#: as ``--opt value`` or ``--opt=value``, and may be cut to a unique prefix;
#: ``--`` ends the options; ``-`` and negative numbers are positionals; the
#: last of a repeated option wins.
ARGV_MATRIX = [
    (["gen-proof", "3", "--style=cook"], (0, GOLDEN / "proof-cook-3.drat", "")),
    (["gen-proof", "3", "--sty", "cook", "--del"], (0, GOLDEN / "proof-cook-3-deletions.drat", "")),
    (["gen-proof", "--style", "cook", "--deletions", "3"],
     (0, GOLDEN / "proof-cook-3-deletions.drat", "")),
    (["gen-proof", "--d", "3", "--s=cook"], (0, GOLDEN / "proof-cook-3-deletions.drat", "")),
    (["gen-cnf", "--e=amo", "3", "--o", "-"], (0, GOLDEN / "php-amo-3.cnf", "")),
    (["count", "--style", "cook", "3"], (0, "52\n", "")),
    (["count", "3", "--style", "ours", "--style", "cook"], (0, "52\n", "")),
    (["count", "3", "--b", "--breakdown"], (0, "k=2: 29\nk=1: 9\nempty: 1\n39\n", "")),
    (["count", "--", "3"], (0, "39\n", "")),
    (["count", "3", "--"], (0, "39\n", "")),
    (["count", " 3 "], (0, "39\n", "")),
    (["bench", "3", "--verify-up-to", "-1"], (0, "n,ours,cook\n2,10,13\n3,39,52\n", "")),
    (["bench", "3", "--v=-1", "--styles=ours"], (0, "n,ours\n2,10\n3,39\n", "")),
    (["check", "cnf", "-"],
     (2, "", "error: cannot read CNF cnf: [Errno 2] No such file or directory: 'cnf'")),
    (["check", "--", "-a", "b"],
     (2, "", "error: cannot read CNF -a: [Errno 2] No such file or directory: '-a'")),
    (["check", "--s", "a", "b"],
     (2, "", "error: cannot read CNF a: [Errno 2] No such file or directory: 'a'")),
    (["gen-cnf", "3", "--out="], (2, "", "error: cannot write : [Errno 2] No such file or directory: ''")),
    (["bench", "3", "--styles=-x"], (2, "", "error: unknown style '-x'")),
    (["gen-cnf", "-3"], (2, "", "pigeonproof gen-cnf: error: argument n: n must be a positive integer")),
    (["gen-cnf", ""], (2, "", "pigeonproof gen-cnf: error: argument n: n must be a positive integer")),
    (["count", "--", "--style"], (2, "", "pigeonproof count: error: argument n: n must be a positive integer")),
    (["count", "-", "-"], (2, "", "pigeonproof count: error: argument n: n must be a positive integer")),
    (["count", "abc", "-h"], (2, "", "pigeonproof count: error: argument n: n must be a positive integer")),
    (["check", "a"], (2, "", "pigeonproof check: error: the following arguments are required: proof")),
    (["check"], (2, "", "pigeonproof check: error: the following arguments are required: cnf, proof")),
    (["count", "-1e3"], (2, "", "pigeonproof count: error: the following arguments are required: n")),
    (["count", "--bogus"], (2, "", "pigeonproof count: error: the following arguments are required: n")),
    (["gen-proof", "3", "--style", "x"],
     (2, "", "pigeonproof gen-proof: error: argument --style: invalid choice: 'x' (choose from 'ours', 'cook')")),
    (["count", "3", "--style="],
     (2, "", "pigeonproof count: error: argument --style: invalid choice: '' (choose from 'ours', 'cook')")),
    (["gen-cnf", "3", "--out"], (2, "", "pigeonproof gen-cnf: error: argument --out: expected one argument")),
    (["gen-cnf", "3", "--out", "--encoding", "amo"],
     (2, "", "pigeonproof gen-cnf: error: argument --out: expected one argument")),
    (["gen-cnf", "3", "--out", "--", "x"],
     (2, "", "pigeonproof gen-cnf: error: argument --out: expected one argument")),
    (["bench", "3", "--verify-up-to", "-1e3"],
     (2, "", "pigeonproof bench: error: argument --verify-up-to: expected one argument")),
    (["bench", "3", "--verify-up-to", "x"],
     (2, "", "pigeonproof bench: error: argument --verify-up-to: invalid int value: 'x'")),
    (["count", "3", "--breakdown=1"],
     (2, "", "pigeonproof count: error: argument --breakdown: ignored explicit argument '1'")),
    (["count", "3", "-hx"], (2, "", "pigeonproof count: error: argument -h/--help: ignored explicit argument 'x'")),
    (["count", "3", "--=x"],
     (2, "", "pigeonproof count: error: ambiguous option: --=x could match --help, --style, --breakdown")),
    (["gen-proof", "3", "--bogus"], (2, "", "pigeonproof: error: unrecognized arguments: --bogus")),
    (["count", "3", "--bogus=1", "-x", "-1"], (2, "", "pigeonproof: error: unrecognized arguments: --bogus=1 -x -1")),
    (["count", "3", "4", "--"], (2, "", "pigeonproof: error: unrecognized arguments: 4 --")),
    (["count", "3", "--", "--style"], (2, "", "pigeonproof: error: unrecognized arguments: --style")),
    (["count", "3", "--style", "ours", "--"], (2, "", "pigeonproof: error: unrecognized arguments: --")),
    (["count", "3", ""], (2, "", "pigeonproof: error: unrecognized arguments: ")),
    (["--bogus", "count", "3", "--x"], (2, "", "pigeonproof: error: unrecognized arguments: --bogus --x")),
    (["frob"], (2, "", "pigeonproof: error: argument command: invalid choice: 'frob' "
                "(choose from 'gen-cnf', 'gen-proof', 'check', 'count', 'bench')")),
    (["--", "count", "3"], (2, "", "pigeonproof: error: argument command: invalid choice: '--' "
                            "(choose from 'gen-cnf', 'gen-proof', 'check', 'count', 'bench')")),
    ([], (2, "", "pigeonproof: error: the following arguments are required: command")),
    (["-x"], (2, "", "pigeonproof: error: the following arguments are required: command")),
    (["--help=x"], (2, "", "pigeonproof: error: argument -h/--help: ignored explicit argument 'x'")),
]


def run_argv(argv, capsys):
    """``(exit code, stdout, last stderr line)`` of ``main(argv)`` in process;
    a usage error raises ``SystemExit(2)`` and help ``SystemExit(0)``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err.splitlines()[-1] if err else ""


@pytest.mark.parametrize("argv, expected", ARGV_MATRIX, ids=[" ".join(a) or "-" for a, _ in ARGV_MATRIX])
def test_argv_is_parsed_as_before(argv, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, last = expected
    if isinstance(out, Path):
        out = out.read_text()
    assert run_argv(argv, capsys) == (code, out, last)


def argparse_reference():
    """argparse's parser for the table ``cli.COMMANDS``: the reference that
    the CLI's own reading of argv is compared against."""
    import argparse

    def checked(convert):
        def text_to_value(text):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return text_to_value

    parser = argparse.ArgumentParser(prog="pigeonproof")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, positionals, options) in COMMANDS.items():
        command = commands.add_parser(name, help=text)
        for positional, convert, _ in positionals:
            command.add_argument(positional, type=checked(convert))
        for flag, value, default, _ in options:
            if value is None:
                command.add_argument(flag, action="store_true")
            elif type(value) is tuple:
                command.add_argument(flag, choices=value, default=default)
            else:
                command.add_argument(flag, type=checked(value), default=default)
        command.set_defaults(func=func)
    return parser


def parse_outcome(parse, argv):
    """What ``parse(argv)`` gives: ``("args", function, arguments)``, or
    ``("exit", code, last stderr line, first word of stdout)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            func, args = parse(argv)
        except SystemExit as exc:
            lines = err.getvalue().splitlines()
            return "exit", exc.code, lines[-1] if lines else "", out.getvalue()[:6]
    values = {key: value for key, value in vars(args).items() if key not in ("func", "command")}
    return "args", func, values


def argparse_parse(argv):
    args = argparse_reference().parse_args(argv)
    return args.func, args


#: Words argv is drawn from: the commands, every flag and a prefix of it,
#: choices, numbers and the words argparse reads in its own way.
ARGV_WORDS = sorted({
    *COMMANDS, "Count", "-h", "--help", "--he", "-hh", "-hx", "-h=", "-h=h", "--help=x",
    *(word for _, _, _, options in COMMANDS.values() for flag, value, _, _ in options
      for word in (flag, flag[:4], f"{flag}=cook", f"{flag}=", *(value if type(value) is tuple else ()))),
    "3", " 3", "0", "-3", "-1.5", "-.5", "-1e3", "-1\n", "\u0663", "x", "-", "--", "", "-x", "-x y",
    "--bogus", "--bogus=1", "--=x", "---x", "=",
})


@pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="the grammar is that of argparse in Python 3.10 and 3.11"
)
@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(ARGV_WORDS), max_size=8))
@example(["check", "f.cnf", "--", "--"])
def test_argv_is_read_as_argparse_reads_it(argv):
    # Help texts differ only in line wrapping, so only their first word is compared.
    expected = parse_outcome(argparse_parse, argv)
    if expected[0] == "args" and [] in expected[2].values():
        # A "--" after the one that ended the options is a word, but argparse
        # drops it from a second positional and passes an empty list; the CLI
        # passes the word, so "check f.cnf -- --" reads a proof file named "--".
        values = {key: "--" if value == [] else value for key, value in expected[2].items()}
        expected = ("args", expected[1], values)
    assert parse_outcome(COMMAND_LINE.parse, argv) == expected


#: What the help of each subcommand names: its positionals, options and choices.
HELP_NAMES = {
    "gen-cnf": ["n", "--encoding", "standard", "amo", "--out"],
    "gen-proof": ["n", "--style", "ours", "cook", "--deletions", "--out"],
    "check": ["cnf", "proof", "--strict-deletions"],
    "count": ["n", "--style", "ours", "cook", "--breakdown"],
    "bench": ["n_max", "--styles", "--verify-up-to", "--out"],
}


def test_help_names_cover_the_command_table():
    from pigeonproof.cli import COMMANDS

    assert list(COMMANDS) == list(HELP_NAMES)
    for command, (_, _, positionals, options) in COMMANDS.items():
        names = [name for name, _, _ in positionals]
        for flag, value, _, _ in options:
            names += [flag, *value] if type(value) is tuple else [flag]
        assert sorted(names) == sorted(HELP_NAMES[command]), command


@pytest.mark.parametrize("command", [None, *HELP_NAMES])
@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_names_every_argument(command, flag, capsys):
    argv = [flag] if command is None else [command, "3", flag]
    code, out, last = run_argv(argv, capsys)
    assert (code, last) == (0, "")
    usage = "usage: pigeonproof" + (f" {command}" if command else "")
    assert out.startswith(usage + " [-h] ")
    names = list(HELP_NAMES) if command is None else ["-h", "--help", *HELP_NAMES[command]]
    for name in names:
        assert name in out, name


#: One argument vector per subcommand, each writing its result to stdout; the
#: large ones write more than the stdout buffer holds, so a write fails while
#: the command runs, not only at the final flush.
STDOUT_ARGV = {
    "gen-cnf": ["gen-cnf", "3"],
    "gen-cnf-large": ["gen-cnf", "60"],
    "gen-proof": ["gen-proof", "3"],
    "gen-proof-large": ["gen-proof", "40"],
    "check": ["check", "php3.cnf", "php3.drat"],
    "count": ["count", "3"],
    "bench": ["bench", "3"],
}


def run_with_stdout(src, argv, stdout, cwd, shell_redirect=""):
    """``(exit code, stderr)`` of a CLI child whose stdout is ``stdout``, or,
    given ``shell_redirect``, whatever that redirection of ``sh`` makes it."""
    cmd = [sys.executable, "-m", "pigeonproof.cli", *argv]
    if shell_redirect:
        cmd = ["sh", "-c", f'exec "$@" {shell_redirect}', "sh", *cmd]
    result = subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, env=child_env(src), cwd=cwd)
    return result.returncode, result.stderr.decode()


@pytest.fixture
def check_inputs(tmp_path):
    """``tmp_path``, holding the PHP(3) formula and proof ``check`` reads."""
    assert main(["gen-cnf", "3", "--out", str(tmp_path / "php3.cnf")]) == 0
    assert main(["gen-proof", "3", "--out", str(tmp_path / "php3.drat")]) == 0
    return tmp_path


@pytest.mark.parametrize("name", STDOUT_ARGV)
def test_stdout_pipe_closed_by_its_reader_exits_2_quietly(name, cli_srcs, check_inputs):
    for backend, src in cli_srcs:
        read, write = os.pipe()
        os.close(read)
        try:
            assert run_with_stdout(src, STDOUT_ARGV[name], write, check_inputs) == (2, ""), backend
        finally:
            os.close(write)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("name", STDOUT_ARGV)
def test_stdout_that_cannot_be_written_exits_2_without_traceback(name, cli_srcs, check_inputs):
    expected = (2, "error: cannot write stdout: [Errno 28] No space left on device\n")
    for backend, src in cli_srcs:
        with open("/dev/full", "wb") as full:
            assert run_with_stdout(src, STDOUT_ARGV[name], full, check_inputs) == expected, backend


@pytest.mark.parametrize("name", STDOUT_ARGV)
def test_closed_stdout(name, cli_srcs, check_inputs):
    # check and count print their one line as print() does, to nowhere when
    # stdout is closed; a command whose result is a stream of data fails.
    if name in ("check", "count"):
        expected = (0, "")
    else:
        expected = (2, "error: cannot write stdout: [Errno 9] Bad file descriptor\n")
    for backend, src in cli_srcs:
        assert run_with_stdout(src, STDOUT_ARGV[name], None, check_inputs, ">&-") == expected, backend


@pytest.mark.parametrize(
    "argv", [["count"], ["check", "no.cnf", "no.drat"], ["bench", "3", "--verify-up-to", "3"]],
    ids=["usage", "input", "progress"],
)
def test_unwritable_stderr_exits_2(argv, cli_srcs, tmp_path):
    # A usage error, an unreadable input and bench's progress lines each
    # write to stderr, here open for reading only; the run still ends with
    # exit code 2, not in a failed interpreter teardown.
    for backend, src in cli_srcs:
        code, _ = run_with_stdout(src, argv, subprocess.DEVNULL, tmp_path, "2</dev/null")
        assert code == 2, backend


@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        (["bench", "3", "--verify-up-to", "3"], 0, "n,ours,cook\n2,{},{}\n3,{},{}\n"),
        (["check", "no.cnf", "no.drat"], 2, ""),
        (["count", "abc"], 2, ""),
    ],
    ids=["progress", "input", "usage"],
)
def test_closed_stderr_keeps_diagnostics_off_stdout(argv, code, stdout, cli_srcs, tmp_path):
    # With descriptor 2 closed, sys.stderr is None, and print(file=None)
    # would write to stdout: bench's progress lines would join its CSV.
    from pigeonproof import count_cook, count_ours

    expected = stdout.format(*(count(n) for n in (2, 3) for count in (count_ours, count_cook)))
    for backend, src in cli_srcs:
        result = subprocess.run(
            ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "pigeonproof.cli", *argv],
            stdout=subprocess.PIPE, env=child_env(src), cwd=tmp_path, text=True,
        )
        assert (result.returncode, result.stdout) == (code, expected), backend
