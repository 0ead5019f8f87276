import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pigeonproof import parse_dimacs, parse_drat
from pigeonproof.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, capsys=None):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def run_child(src, *args):
    """``(exit code, stdout, stderr)`` of the CLI in a child with the package
    at ``src``."""
    result = subprocess.run(
        [sys.executable, "-m", "pigeonproof.cli", *args],
        env={**os.environ, "PYTHONPATH": str(src)},
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
        (["gen-proof", "1"], "proof generation needs n >= 2"),
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
