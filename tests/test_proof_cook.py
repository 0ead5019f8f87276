import pytest

import naive_checker
from pigeonproof import count_cook, generate_cook, php_standard, verify
from pigeonproof.counts import cook_iteration_count
from pigeonproof.proof_ours import definition_clauses, iteration_plan
from pigeonproof.proof_cook import cook_pair_clauses, iter_proof_lines, iter_tagged_lines


def cook_plan(n, k):
    return iteration_plan(n, k, chained=False)


def test_definitions_n2_all_four_rows():
    plan = cook_plan(2, 1)
    assert list(definition_clauses(plan)) == [
        (-7, 1, 2), (-7, 1, 5), (7, -1), (7, -2, -5),
        (-8, 3, 4), (-8, 3, 5), (8, -3), (8, -4, -5),
    ]


@pytest.mark.parametrize("n,k", [(4, 3), (7, 6), (10, 2)])
def test_definition_count(n, k):
    assert len(definition_clauses(cook_plan(n, k))) == 4 * (k + 1) * k


def test_definitions_match_chained_style_except_top_pigeon():
    # drop the negative-pivot rows of pigeon k from the pairwise style and
    # the two definition streams coincide (the layouts share their x ids at
    # the first inner layer)
    n, k = 6, 5
    plan = cook_plan(n, k)
    ours = list(definition_clauses(iteration_plan(n, k)))
    cook = list(definition_clauses(plan))
    top_vars = {plan.next.x_var(k, h) for h in range(1, k + 1)}
    filtered = [c for c in cook if not (c[0] < 0 and -c[0] in top_vars)]
    assert filtered == ours
    assert len(cook) == len(ours) + 2 * k


def test_pair_clauses_n2():
    plan = cook_plan(2, 1)
    assert list(cook_pair_clauses(plan)) == [(-7, -8, -2), (-7, -8)]


@pytest.mark.parametrize("n,k", [(4, 3), (7, 6), (9, 8)])
def test_pair_clause_count(n, k):
    assert len(cook_pair_clauses(cook_plan(n, k))) == (k + 1) * k * k


def test_helper_comes_before_target():
    plan = cook_plan(5, 4)
    pairs = list(cook_pair_clauses(plan))
    for helper, target in zip(pairs[::2], pairs[1::2]):
        assert len(helper) == 3
        assert helper[:2] == target


def test_iteration_counts_match_polynomial():
    for n, k in [(3, 2), (6, 5), (9, 4)]:
        plan = cook_plan(n, k)
        total = (
            len(definition_clauses(plan))
            + len(cook_pair_clauses(plan))
            + (k + 1)
        )
        assert total == cook_iteration_count(k)


def test_generate_counts_match_formula():
    for n in range(2, 10):
        proof = generate_cook(n)
        assert proof.added_count == count_cook(n)
        assert proof.is_complete
        assert generate_cook(n, emit_deletions=True).added_count == count_cook(n)


def test_verifies_small(backend):
    for n in range(2, 7):
        verdict = verify(php_standard(n), generate_cook(n), backend=backend)
        assert verdict.accepted, (n, verdict)


def test_verifies_with_deletions_strict(backend):
    for n in (2, 4, 5):
        verdict = verify(
            php_standard(n),
            generate_cook(n, emit_deletions=True),
            strict_deletions=True,
            backend=backend,
        )
        assert verdict.accepted, (n, verdict)


def test_pair_clauses_are_rup_in_context(backend):
    # replay the proof up to the first pair clause of iteration n-1, then
    # check the helper and target pass plain RUP with no resolvent lookups
    from pigeonproof.checker import new_database

    n = 4
    db = new_database(php_standard(n), backend=backend)
    for tag, k, line in iter_tagged_lines(n):
        if tag == "pair":
            assert db.rup(list(line.lits))
            db.add_clause(line.lits)
            if k < n - 1:
                break
            continue
        if tag in ("empty", "delete"):
            continue
        db.add_clause(line.lits)


def test_matches_reference_checker():
    for n in (2, 3):
        status, line = naive_checker.verify(
            php_standard(n), generate_cook(n).lines
        )
        assert (status, line) == ("ACCEPTED", None)


def test_streaming_matches_materialised():
    from pigeonproof.model import count_added

    assert count_added(iter_proof_lines(7)) == count_cook(7)


def test_rejects_bad_n():
    with pytest.raises(ValueError):
        generate_cook(1)
