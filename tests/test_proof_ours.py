import pytest

import naive_checker
from pigeonproof import ProofLine, count_ours, generate_ours, php_standard, verify
from pigeonproof.encodings import group_count, layer_layout
from pigeonproof.model import count_added
from pigeonproof.proof_ours import (
    alo_clauses,
    definition_clauses,
    derived_group_clauses,
    iter_proof_lines,
    iter_tagged_lines,
    iteration_plan,
    y_definition_clauses,
)


def test_definitions_n2():
    plan = iteration_plan(2, 1)
    assert list(definition_clauses(plan)) == [
        (-7, 1, 2), (-7, 1, 5), (7, -1), (7, -2, -5),
        (8, -3), (8, -4, -5),
    ]


@pytest.mark.parametrize("n,k", [(4, 3), (6, 5), (9, 4), (12, 11)])
def test_definition_count(n, k):
    plan = iteration_plan(n, k)
    assert len(definition_clauses(plan)) == (4 * k + 2) * k


def test_top_pigeon_has_no_negative_pivot_definitions():
    plan = iteration_plan(5, 4)
    top = plan.next.x_var(4, 1)
    negatives = [c for c in list(definition_clauses(plan)) if c[0] == -top]
    assert negatives == []


def test_y_definitions_absent_for_single_group():
    assert list(y_definition_clauses(iteration_plan(4, 3))) == []


def test_y_definitions_k4():
    plan = iteration_plan(5, 4)
    nxt = plan.next
    y0 = nxt.y_var(0, 1)
    x = [nxt.x_var(p, 1) for p in range(5)]
    first_hole = list(y_definition_clauses(plan))[:4]
    assert first_hole == [
        (y0, x[0], x[1], x[2]),
        (-y0, -x[0]),
        (-y0, -x[1]),
        (-y0, -x[2]),
    ]


def test_y_definitions_chain_to_previous_group():
    plan = iteration_plan(7, 6)
    nxt = plan.next
    block = list(y_definition_clauses(plan))
    y0, y1 = nxt.y_var(0, 1), nxt.y_var(1, 1)
    assert block[4] == (y1, -y0, nxt.x_var(3, 1), nxt.x_var(4, 1))
    assert block[5] == (-y1, y0)


def test_y_definition_count():
    for n, k in [(5, 4), (7, 6), (10, 9)]:
        plan = iteration_plan(n, k)
        non_final = group_count(k + 1) - 1
        assert len(y_definition_clauses(plan)) == 4 * non_final * k


def test_derived_single_group_k2():
    plan = iteration_plan(3, 2)
    nxt = plan.next
    x = [nxt.x_var(p, 1) for p in range(3)]
    per_hole = list(derived_group_clauses(plan))[:3]
    assert per_hole == [(-x[1], -x[0]), (-x[2], -x[0]), (-x[2], -x[1])]


def test_derived_final_group_k4():
    plan = iteration_plan(5, 4)
    nxt = plan.next
    y0 = nxt.y_var(0, 1)
    x3, x4 = nxt.x_var(3, 1), nxt.x_var(4, 1)
    hole1 = list(derived_group_clauses(plan))[:6]
    assert hole1[3:] == [(-x3, y0), (-x4, y0), (-x4, -x3)]


def test_group_clause_total_is_k_times_f():
    from pigeonproof.counts import f_group

    for n, k in [(3, 2), (5, 4), (8, 7), (11, 10)]:
        plan = iteration_plan(n, k)
        total = len(y_definition_clauses(plan)) + len(derived_group_clauses(plan))
        assert total == k * f_group(k)


def test_alo_clauses_n2():
    assert list(alo_clauses(iteration_plan(2, 1))) == [(7,), (8,)]


def test_alo_count():
    for n, k in [(6, 5), (9, 2)]:
        assert len(alo_clauses(iteration_plan(n, k))) == k + 1


def test_generate_counts_match_formula():
    for n in range(2, 12):
        proof = generate_ours(n)
        assert proof.added_count == count_ours(n)
        assert proof.is_complete
        with_deletions = generate_ours(n, emit_deletions=True)
        assert with_deletions.added_count == count_ours(n)


def test_pivot_variable_is_from_current_iteration():
    for n in (4, 6, 7):
        for tag, k, line in iter_tagged_lines(n):
            if tag in ("alo", "empty", "delete"):
                continue
            layout = layer_layout(n, k)
            pivot_var = abs(line.lits[0])
            assert pivot_var in layout.id_range, (tag, k, line)


def test_verifies_small(backend):
    for n in range(2, 7):
        verdict = verify(php_standard(n), generate_ours(n), backend=backend)
        assert verdict.accepted, (n, verdict)


def test_verifies_with_deletions_strict(backend):
    for n in range(2, 7):
        verdict = verify(
            php_standard(n),
            generate_ours(n, emit_deletions=True),
            strict_deletions=True,
            backend=backend,
        )
        assert verdict.accepted, (n, verdict)


def test_truncated_proof_is_incomplete():
    proof = list(iter_proof_lines(3))[:-1]
    verdict = verify(php_standard(3), proof)
    assert verdict.status == "INCOMPLETE"


def test_premature_empty_clause_rejected_at_line_1():
    proof = [ProofLine(False, ())] + list(iter_proof_lines(3))
    verdict = verify(php_standard(3), proof)
    assert verdict.status == "REJECTED"
    assert verdict.line == 1


def test_streaming_count_matches_materialised():
    n = 9
    assert count_added(iter_proof_lines(n)) == generate_ours(n).added_count


def test_matches_reference_checker():
    for n in (2, 3, 4):
        formula = php_standard(n)
        status, line = naive_checker.verify(formula, generate_ours(n).lines)
        assert (status, line) == ("ACCEPTED", None)


def test_rejects_bad_n():
    with pytest.raises(ValueError):
        generate_ours(1)
    with pytest.raises(ValueError):
        next(iter_proof_lines(5001))


def test_added_count_at_n100():
    assert count_added(iter_proof_lines(100)) == 2_456_527
