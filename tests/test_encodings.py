import hashlib
from collections import Counter

import pytest

import brute_force
from pigeonproof import CnfFormula, emit_dimacs, php_amo, php_standard
from pigeonproof.encodings import (
    f_group,
    group_count,
    groups,
    layer_layout,
    member_literal,
    php_amo_clause_count,
)
from pigeonproof.model import row_clauses


def test_php_standard_smallest():
    formula = php_standard(1)
    assert formula.num_vars == 2
    assert formula.clauses == ((1,), (2,), (-1, -2))


def test_php_standard_n2_exact():
    formula = php_standard(2)
    assert formula.num_vars == 6
    assert formula.clauses == (
        (1, 2), (3, 4), (5, 6),
        (-1, -3), (-1, -5), (-3, -5),
        (-2, -4), (-2, -6), (-4, -6),
    )


@pytest.mark.parametrize("n", range(1, 16))
def test_php_standard_clause_count(n):
    formula = php_standard(n)
    assert len(formula.clauses) == (n + 1) + n * n * (n + 1) // 2
    formula.validate()


def test_php_standard_rejects_bad_n():
    with pytest.raises(ValueError):
        php_standard(0)
    with pytest.raises(ValueError):
        php_standard(5001)


def test_php_amo_n2_equals_standard():
    assert Counter(php_amo(2).clauses) == Counter(php_standard(2).clauses)


def test_php_amo_n4_structure():
    formula = php_amo(4)
    assert formula.num_vars == 24  # 20 pigeon/hole vars + 4 auxiliaries
    assert len(formula.clauses) == 45
    formula.validate()


@pytest.mark.parametrize("n", range(2, 16))
def test_php_amo_clause_count(n):
    formula = php_amo(n)
    assert len(formula.clauses) == (n + 1) + n * f_group(n)
    assert len(formula.clauses) == php_amo_clause_count(n)


@pytest.mark.parametrize("n", range(2, 12))
def test_php_amo_clause_lengths(n):
    alo = n + 1
    for i, clause in enumerate(php_amo(n).clauses):
        if i < alo:
            assert len(clause) == n
        else:
            assert len(clause) <= 4


@pytest.mark.parametrize("n", (1, 2, 3))
def test_both_encodings_unsat_small(n):
    for formula in (php_standard(n), php_amo(n)):
        assert brute_force.is_unsat_exhaustive(formula.num_vars, formula.clauses)


def test_both_encodings_unsat_n4_backtracking():
    for formula in (php_standard(4), php_amo(4)):
        assert brute_force.is_unsat_backtracking(formula.num_vars, formula.clauses)


def _drop_pigeon_alo(formula: CnfFormula, pigeon: int) -> CnfFormula:
    # at-least-one clauses come first, in pigeon order
    clauses = list(formula.clauses)
    del clauses[pigeon]
    return CnfFormula(formula.num_vars, tuple(clauses))


def _x_projection(models, n):
    return {bits[: n * (n + 1)] for bits in models}


def test_satisfiable_variant_has_matching_projections_n3():
    standard = _drop_pigeon_alo(php_standard(3), 3)
    chained = _drop_pigeon_alo(php_amo(3), 3)
    std_models = brute_force.enumerate_models(standard.num_vars, standard.clauses)
    amo_models = brute_force.enumerate_models(chained.num_vars, chained.clauses)
    assert std_models, "dropping one pigeon must leave the instance satisfiable"
    assert _x_projection(std_models, 3) == _x_projection(amo_models, 3)
    # three pigeons into three holes, one each
    assert len(_x_projection(std_models, 3)) == 6


def test_satisfiable_variant_has_matching_projections_n4():
    standard = _drop_pigeon_alo(php_standard(4), 4)
    chained = _drop_pigeon_alo(php_amo(4), 4)
    std_models = brute_force.backtrack_models(standard.num_vars, standard.clauses)
    amo_models = brute_force.backtrack_models(chained.num_vars, chained.clauses)
    assert _x_projection(std_models, 4) == _x_projection(amo_models, 4)
    assert len(_x_projection(std_models, 4)) == 24


def test_layer_layout_n2():
    top = layer_layout(2, 2)
    assert [top.x_var(p, h) for p in range(3) for h in (1, 2)] == [1, 2, 3, 4, 5, 6]
    inner = layer_layout(2, 1)
    assert inner.x_var(0, 1) == 7
    assert inner.x_var(1, 1) == 8
    assert inner.y_rows == 0


def test_layer_layout_n4():
    assert layer_layout(4, 4).id_range == range(1, 21)
    inner = layer_layout(4, 3)
    assert inner.x_var(0, 1) == 21
    assert inner.x_var(3, 3) == 32
    assert inner.y_rows == 0  # four pigeons form a single group


@pytest.mark.parametrize("n", (2, 4, 6, 9, 12))
def test_layer_ids_disjoint(n):
    seen: set[int] = set()
    for k in range(n, 0, -1):
        ids = set(layer_layout(n, k).id_range)
        assert not (ids & seen)
        seen |= ids


def test_layer_layout_range_checks():
    with pytest.raises(ValueError):
        layer_layout(4, 0)
    with pytest.raises(ValueError):
        layer_layout(4, 5)


def test_group_count_values():
    assert [group_count(m) for m in range(2, 10)] == [1, 1, 1, 2, 2, 3, 3, 4]


def test_groups_small_is_single_final():
    chain = groups(3)
    assert chain.group_count == 1
    assert chain.groups[0].members == (("x", 0), ("x", 1), ("x", 2))
    assert chain.groups[0].final


def test_groups_m5():
    chain = groups(5)
    assert chain.group_count == 2
    first, last = chain.groups
    assert first.members == (("x", 0), ("x", 1), ("x", 2))
    assert first.y_new == 0
    assert last.members == (("ny", 0), ("x", 3), ("x", 4))
    assert last.final


def test_groups_m6_final_has_three_x():
    chain = groups(6)
    assert chain.group_count == 2
    assert chain.groups[1].members == (("ny", 0), ("x", 3), ("x", 4), ("x", 5))


def test_groups_m8_intermediate():
    chain = groups(8)
    assert chain.group_count == 3
    assert chain.groups[1].members == (("ny", 0), ("x", 3), ("x", 4))
    assert chain.groups[1].y_new == 1
    assert chain.groups[2].members == (("ny", 1), ("x", 5), ("x", 6), ("x", 7))


def test_groups_rejects_single_pigeon():
    with pytest.raises(ValueError):
        groups(1)


@pytest.mark.parametrize("k", range(2, 30))
def test_group_structure_matches_clause_budget(k):
    # 7 clauses per non-final group plus all pairs of the final one = f(k)
    chain = groups(k + 1)
    final = chain.groups[-1]
    size = len(final.members)
    budget = 7 * (chain.group_count - 1) + size * (size - 1) // 2
    assert budget == f_group(k)


def test_member_literal_binding():
    layout = layer_layout(6, 5)
    pigeon, aux = member_literal(("x", 2), layout), member_literal(("ny", 0), layout)
    assert pigeon == (layout.x_var(2, 1), 1)  # hole 1, then one more a hole
    assert aux == (-layout.y_var(0, 1), -1)
    rows = (pigeon,), (aux,), (member_literal(("ny", 0), layout, -1),)
    assert list(row_clauses(rows, 0, 5)) == [
        clause
        for h in range(1, 6)
        for clause in ((layout.x_var(2, h),), (-layout.y_var(0, h),), (layout.y_var(0, h),))
    ]


# SHA-256 of emit_dimacs(php_amo(n)), recorded before members were bound to
# ranges over the holes; the golden files stop at n = 4.
PHP_AMO_DIGESTS = {
    5: "677114aac59ab90630a17d78053d3e49e2f52bbee49fb7976af63a8ca69a7b10",
    6: "d7cb8c81fd2e5a39630376326539a8b988f4ae5749e6691fef8570618929de48",
    7: "4d2a0dba925f21d0b66825816554ca9c4e7a3243764fc25d26eade218d686205",
    8: "3e929a124baae541224d751575a7c8f3a0257330edaa6d813000aaaaf1ea0306",
    9: "92feb4149e8e9226b763eaef38a744f6d49516743f2c7bac7e3ca93002eeb16b",
    10: "41222c3b452be828359ee49fb59af600a10ad79b22fba08a8b108543de48b88f",
    11: "270e22ef5edc144af36f3ed6f9f8584982b729302ad41ba0fe9c9f57f0da08af",
    12: "2166b57f5fa0e052d013b8a3757e1de55b261671f1f569efecc3838b99a58a7f",
}


@pytest.mark.parametrize("n", sorted(PHP_AMO_DIGESTS))
def test_php_amo_text_is_unchanged(n):
    text = emit_dimacs(php_amo(n))
    assert hashlib.sha256(text.encode()).hexdigest() == PHP_AMO_DIGESTS[n]
