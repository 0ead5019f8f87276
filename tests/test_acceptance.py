"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the mutation report.  Tolerances (exact equalities, ranges, wall
clocks) are pinned here.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import brute_force
from pigeonproof import (
    CnfFormula,
    ProofLine,
    count_cook,
    count_ours,
    emit_dimacs,
    emit_drat,
    generate_cook,
    generate_ours,
    parse_dimacs,
    parse_drat,
    php_amo,
    php_standard,
    verify,
)
from pigeonproof.checker import DEFAULT_BACKEND, new_database
from pigeonproof.counts import count_cook_breakdown, count_ours_breakdown
from pigeonproof.model import count_added
from pigeonproof import proof_cook, proof_ours

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL ({description})")
        raise
    print(f"criterion {number}: PASS ({description})")


def test_criterion_1_count_reproduction():
    with criterion(1, "reference proof lengths at n=100, exact, <1s"):
        start = time.perf_counter()
        assert count_ours(100) == 2_456_527
        assert count_cook(100) == 26_169_100
        assert time.perf_counter() - start < 1.0


def test_criterion_2_closed_form_vs_constructive():
    with criterion(2, "closed forms equal per-iteration sums, n in [2,200]"):
        start = time.perf_counter()
        for n in range(2, 201):
            assert count_ours_breakdown(n).total == count_ours(n), n
            assert count_cook_breakdown(n).total == count_cook(n), n
        assert time.perf_counter() - start < 1.0


def test_criterion_3_generator_count_agreement():
    with criterion(3, "generated added-line counts match formulas, n in [2,60]"):
        start = time.perf_counter()
        for n in range(2, 61):
            assert count_added(proof_ours.iter_proof_lines(n)) == count_ours(n), n
        for n in range(2, 61):
            assert count_added(proof_cook.iter_proof_lines(n)) == count_cook(n), n
        assert time.perf_counter() - start < 120.0


def test_criterion_4_end_to_end_verification():
    with criterion(4, "checker accepts both proof families at desk scale"):
        slowest = 0.0
        for n in range(2, 26):
            formula = php_standard(n)
            start = time.perf_counter()
            verdict = verify(formula, proof_ours.iter_proof_lines(n))
            elapsed = time.perf_counter() - start
            slowest = max(slowest, elapsed)
            assert verdict.accepted, (n, verdict)
            assert elapsed <= 600.0, (n, elapsed)
        for n in range(2, 13):
            formula = php_standard(n)
            start = time.perf_counter()
            verdict = verify(formula, proof_cook.iter_proof_lines(n))
            elapsed = time.perf_counter() - start
            slowest = max(slowest, elapsed)
            assert verdict.accepted, (n, verdict)
            assert elapsed <= 600.0, (n, elapsed)
        print(
            f"\n  [criterion 4] backend={DEFAULT_BACKEND}, "
            f"slowest single verification {slowest:.2f}s"
        )


def test_criterion_5_ratio_claim():
    with criterion(5, "length ratio at n=100 and strict ordering on [2,200]"):
        ratio = count_cook(100) / count_ours(100)
        assert 10.64 <= ratio <= 10.66, ratio
        for n in range(2, 201):
            assert count_ours(n) < count_cook(n), n


def _flip_sign(line, position):
    lits = list(line.lits)
    lits[position] = -lits[position]
    return ProofLine(False, tuple(lits))


def test_criterion_6_checker_soundness():
    with criterion(6, "soundness probes and the mutation sweep"):
        # (a) textbook RAT example is accepted as a valid addition
        textbook = CnfFormula(3, ((1, -2), (-1, 2), (2, -3), (3,)))
        db = new_database(textbook)
        assert db.rat([1])
        verdict = verify(textbook, [ProofLine(False, (1,))])
        assert verdict.status == "INCOMPLETE"  # accepted line, no refutation

        # (b) empty clause as the first line is rejected at line 1
        verdict = verify(php_standard(3), [ProofLine(False, ())])
        assert (verdict.status, verdict.line) == ("REJECTED", 1)

        # (c) dropping the final empty clause leaves the proof incomplete
        verdict = verify(php_standard(3), generate_ours(3).lines[:-1])
        assert verdict.status == "INCOMPLETE"

        # (d) sign-flip mutations on derived clauses
        print("\n  mutation report (single-literal sign flips on derived clauses)")
        for n in range(3, 9):
            formula = php_standard(n)
            base = list(proof_ours.iter_proof_lines(n))
            derived = [
                index
                for index, (tag, _, _) in enumerate(proof_ours.iter_tagged_lines(n))
                if tag == "derived"
            ]
            rng = random.Random(60_000 + n)
            rejected = 0
            for sample in range(20):
                index = rng.choice(derived)
                position = rng.randrange(len(base[index].lits))
                mutated = list(base)
                mutated[index] = _flip_sign(base[index], position)
                verdict = verify(formula, mutated)
                assert verdict.status in ("ACCEPTED", "REJECTED"), verdict
                if verdict.status == "REJECTED":
                    rejected += 1
                    detail = f"rejected at line {verdict.line}"
                else:
                    detail = "still a valid proof"
                if sample < 3 or verdict.status == "ACCEPTED":
                    print(
                        f"  n={n} line {index + 1}: "
                        f"{base[index].lits} -> {mutated[index].lits}: {detail}"
                    )
            print(f"  n={n}: {rejected}/20 mutations rejected")
            assert rejected >= 1, f"no rejected mutation documented for n={n}"


def test_criterion_7_brute_force_oracle():
    with criterion(7, "exhaustive enumeration agrees on UNSAT and models"):
        start = time.perf_counter()
        for n in (1, 2, 3):
            for formula in (php_standard(n), php_amo(n)):
                assert brute_force.is_unsat_exhaustive(
                    formula.num_vars, formula.clauses
                ), n
        # removing pigeon 3 (its at-least-one clause) leaves n=3 satisfiable
        # with identical x-variable projections across the two encodings
        projections = []
        for formula in (php_standard(3), php_amo(3)):
            clauses = list(formula.clauses)
            del clauses[3]
            models = brute_force.enumerate_models(formula.num_vars, clauses)
            assert models
            projections.append({bits[: 3 * 4] for bits in models})
        assert projections[0] == projections[1]
        assert time.perf_counter() - start < 60.0


def test_criterion_8_format_stability():
    with criterion(8, "parse/emit round-trips and byte-identical golden files"):
        for n in range(2, 21):
            for formula in (php_standard(n), php_amo(n)):
                assert parse_dimacs(emit_dimacs(formula)) == formula, n
            for module in (proof_ours, proof_cook):
                text = emit_drat(module.iter_proof_lines(n))
                assert emit_drat(parse_drat(text)) == text, n
        deletions = emit_drat(proof_ours.iter_proof_lines(8, emit_deletions=True))
        assert emit_drat(parse_drat(deletions)) == deletions
        for n in (2, 3, 4):
            pairs = [
                (f"php-standard-{n}.cnf", emit_dimacs(php_standard(n))),
                (f"php-amo-{n}.cnf", emit_dimacs(php_amo(n))),
                (f"proof-ours-{n}.drat", emit_drat(generate_ours(n))),
                (f"proof-cook-{n}.drat", emit_drat(generate_cook(n))),
            ]
            for name, produced in pairs:
                assert (GOLDEN / name).read_bytes() == produced.encode(), name
        deletion_pairs = [
            ("proof-ours-3-deletions.drat", generate_ours(3, emit_deletions=True)),
            ("proof-cook-3-deletions.drat", generate_cook(3, emit_deletions=True)),
        ]
        for name, proof in deletion_pairs:
            assert (GOLDEN / name).read_bytes() == emit_drat(proof).encode(), name
