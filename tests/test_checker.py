import random
import shutil
import subprocess

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import naive_checker
from pigeonproof import (
    CnfFormula,
    Proof,
    ProofLine,
    emit_dimacs,
    emit_drat,
    generate_cook,
    generate_ours,
    php_standard,
    verify,
)
from pigeonproof.checker import new_database


def test_rup_conflict_example(backend):
    db = new_database(CnfFormula(2, ((-1, 2), (-2,), (1,))), backend=backend)
    assert db.rup([])


def test_rup_self_subsuming(backend):
    db = new_database(CnfFormula(2, ((1, 2),)), backend=backend)
    assert db.rup([1, 2])


def test_rup_fails_with_nothing_to_propagate(backend):
    db = new_database(CnfFormula(2, ((1, 2), (-1, -2))), backend=backend)
    assert not db.rup([])


def test_rat_textbook_example(backend):
    # (a or not-b), (not-a or b), (b or not-c), (c): the unit clause (a)
    # resolves only against (not-a or b), and that resolvent propagates.
    db = new_database(
        CnfFormula(3, ((1, -2), (-1, 2), (2, -3), (3,))), backend=backend
    )
    assert db.rat([1])


def test_rat_where_rup_genuinely_fails(backend):
    # assuming not-a propagates nothing, so (a) is not RUP; its single
    # resolvent (b) conflicts through the two clauses on c, so RAT holds.
    db = new_database(
        CnfFormula(3, ((-1, 2), (2, 3), (2, -3))), backend=backend
    )
    assert not db.rup([1])
    assert db.rat([1])


def test_rat_vacuous_for_fresh_pivot(backend):
    db = new_database(CnfFormula(2, ((1, 2),)), backend=backend)
    assert db.rat([3, -1])


def test_rat_skips_tautological_resolvents(backend):
    # the only resolvent of (2, -1) is against (-2, 1): (-1, 1), a tautology
    db = new_database(CnfFormula(2, ((-2, 1),)), backend=backend)
    assert not db.rup([2, -1])
    assert db.rat([2, -1])


def test_rup_implies_acceptance(backend):
    formula = php_standard(2)
    db = new_database(formula, backend=backend)
    clause = (-1, -3)  # already present, trivially RUP
    assert db.rup(list(clause))
    verdict = verify(formula, [ProofLine(False, clause)], backend=backend)
    assert verdict.status == "INCOMPLETE"  # checked fine, no empty clause


def test_verify_accepts_and_ignores_trailing_lines(backend):
    lines = list(generate_ours(3).lines) + [ProofLine(False, (1,))]
    verdict = verify(php_standard(3), lines, backend=backend)
    assert verdict.accepted


def test_verify_rejects_with_line_number(backend):
    lines = [ProofLine(False, ())]
    verdict = verify(php_standard(3), lines, backend=backend)
    assert (verdict.status, verdict.line) == ("REJECTED", 1)
    assert "RUP" in verdict.reason


def test_verify_incomplete(backend):
    verdict = verify(php_standard(3), generate_ours(3).lines[:-1], backend=backend)
    assert verdict.status == "INCOMPLETE"


def test_deletion_of_missing_clause_warns_by_default(backend):
    lines = [ProofLine(True, (1, 2, 3))] + list(generate_ours(2).lines)
    with pytest.warns(UserWarning, match="deleted clause"):
        verdict = verify(php_standard(2), lines, backend=backend)
    assert verdict.accepted


def test_deletion_of_missing_clause_rejected_in_strict_mode(backend):
    lines = [ProofLine(True, (1, 2, 3))] + list(generate_ours(2).lines)
    verdict = verify(php_standard(2), lines, strict_deletions=True, backend=backend)
    assert (verdict.status, verdict.line) == ("REJECTED", 1)


def test_deletion_matches_by_multiset(backend):
    # delete (2, 1) although the formula stores (1, 2)
    formula = CnfFormula(2, ((1, 2), (1,), (2,)))
    lines = [ProofLine(True, (2, 1)), ProofLine(False, ())]
    verdict = verify(formula, lines, strict_deletions=True, backend=backend)
    # with (1, 2) gone the units cannot conflict
    assert verdict.status == "REJECTED"


def test_deletion_removes_one_copy(backend):
    formula = CnfFormula(1, ((1,), (1,), (-1,)))
    lines = [ProofLine(True, (1,)), ProofLine(False, ())]
    verdict = verify(formula, lines, strict_deletions=True, backend=backend)
    assert verdict.accepted  # one copy of (1) remains


def test_verify_refuses_a_database_that_holds_deleted_clauses(backend, tmp_path):
    # Deleting the present (1 3) and the absent (1 2) once clause 0 is gone:
    # ids count deleted clauses, so indexing ids 0..len(db)-1 gets both
    # wrong.  Every backend and proof kind refuses such a database alike.
    formula = CnfFormula(3, ((1, 2), (2, 3), (1, 3)))
    path = tmp_path / "proof.drat"
    for lits in ((1, 3), (1, 2)):
        lines = [ProofLine(True, lits)]
        path.write_text(emit_drat(lines))
        for proof in (lines, path):
            db = new_database(formula, backend)
            assert verify(db, proof, strict_deletions=True).status == "INCOMPLETE"
            db = new_database(formula, backend)
            db.delete_clause(0)
            with pytest.raises(ValueError, match="holds deleted clauses"):
                verify(db, proof, strict_deletions=True)
            assert len(db) == 2  # and leaves it as it was


def test_verdicts_are_deterministic(backend):
    formula = php_standard(4)
    proof = generate_ours(4, emit_deletions=True)
    first = verify(formula, proof, backend=backend)
    second = verify(formula, proof, backend=backend)
    assert first == second


@pytest.mark.parametrize("n", range(2, 7))
def test_checker_agrees_with_rescan_reference(n, backend):
    formula = php_standard(n)
    for generator in (generate_ours, generate_cook):
        proof = generator(n)
        verdict = verify(formula, proof, backend=backend)
        status, line = naive_checker.verify(formula, proof.lines)
        assert (verdict.status, verdict.line) == (status, line)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_agreement_on_mutated_proofs(n, backend):
    rng = random.Random(1000 + n)
    formula = php_standard(n)
    base = list(generate_ours(n).lines)
    for _ in range(6):
        i = rng.randrange(len(base) - 1)
        line = base[i]
        if not line.lits:
            continue
        j = rng.randrange(len(line.lits))
        lits = list(line.lits)
        lits[j] = -lits[j]
        if len(set(map(abs, lits))) != len(lits):
            continue  # sign flip created a duplicate
        mutated = base[:i] + [ProofLine(False, tuple(lits))] + base[i + 1 :]
        verdict = verify(formula, mutated, backend=backend)
        status, lineno = naive_checker.verify(formula, mutated)
        assert (verdict.status, verdict.line) == (status, lineno)


_small_clause = st.lists(
    st.integers(min_value=1, max_value=5).flatmap(lambda v: st.sampled_from([v, -v])),
    min_size=0,
    max_size=4,
    unique_by=abs,
).map(tuple)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.lists(_small_clause, min_size=1, max_size=8),
    st.lists(_small_clause, min_size=1, max_size=6),
)
def test_random_proofs_agree_with_reference(backends, formula_clauses, proof_clauses):
    formula = CnfFormula(5, tuple(formula_clauses))
    lines = [ProofLine(False, lits) for lits in proof_clauses]
    status, lineno = naive_checker.verify(formula, lines)
    for backend_name in backends:
        verdict = verify(formula, lines, backend=backend_name)
        assert (verdict.status, verdict.line) == (status, lineno)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.lists(_small_clause, min_size=2, max_size=8),
    st.lists(st.tuples(st.booleans(), _small_clause), min_size=1, max_size=8),
)
def test_random_proofs_with_deletions_agree(backends, formula_clauses, steps):
    formula = CnfFormula(5, tuple(formula_clauses))
    lines = [
        ProofLine(delete and bool(lits), lits) for delete, lits in steps
    ]
    status, lineno = naive_checker.verify(formula, lines, strict_deletions=True)
    for backend_name in backends:
        verdict = verify(
            formula, lines, strict_deletions=True, backend=backend_name
        )
        assert (verdict.status, verdict.line) == (status, lineno)


def test_state_restored_after_every_line(backend):
    formula = php_standard(3)
    db = new_database(formula, backend=backend)
    clean = db.snapshot()
    for line in generate_ours(3).lines:
        if line.delete or not line.lits:
            continue
        if not db.rup(list(line.lits)):
            assert db.rat(list(line.lits))
        assert db.snapshot() == clean
        db.add_clause(line.lits)


@pytest.mark.skipif(
    shutil.which("drat-trim") is None, reason="external drat-trim not installed"
)
def test_external_checker_accepts_generated_proofs(tmp_path):
    for n in (4, 6):
        cnf = tmp_path / f"php{n}.cnf"
        drat = tmp_path / f"php{n}.drat"
        cnf.write_text(emit_dimacs(php_standard(n)))
        drat.write_text(emit_drat(generate_ours(n)))
        result = subprocess.run(
            ["drat-trim", str(cnf), str(drat), "-f"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert "s VERIFIED" in result.stdout
