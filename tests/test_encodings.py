import hashlib
from collections import Counter

import pytest

import brute_force
from pigeonproof import CnfFormula, emit_dimacs, php_amo, php_standard
from pigeonproof.counts import f_group
from pigeonproof.encodings import (
    group_count,
    group_members,
    layer_layout,
    negated,
    php_amo_clause_count,
)
from pigeonproof.model import HoleRows


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


def _pigeons(layout, *ps):
    return [(layout.x_var(p, 1), 1) for p in ps]


def _not_aux(layout, g):
    return (-layout.y_var(g, 1), -1)


def test_groups_small_is_single_final():
    # up to four pigeons are one group, with no auxiliary
    for k in (1, 2, 3):
        layout = layer_layout(k + 1, k)
        assert group_count(k + 1) == 1
        assert group_members(layout, 0, 1) == _pigeons(layout, *range(k + 1))


def test_groups_m5():
    layout = layer_layout(5, 4)
    assert group_members(layout, 0, 2) == _pigeons(layout, 0, 1, 2)
    assert group_members(layout, 1, 2) == [_not_aux(layout, 0), *_pigeons(layout, 3, 4)]


def test_groups_m6_final_has_three_x():
    layout = layer_layout(6, 5)
    assert group_members(layout, 1, 2) == [_not_aux(layout, 0), *_pigeons(layout, 3, 4, 5)]


def test_groups_m8_intermediate():
    # each group after the first chains in the previous group's auxiliary
    layout = layer_layout(8, 7)
    assert group_count(8) == 3
    assert group_members(layout, 0, 3) == _pigeons(layout, 0, 1, 2)
    assert group_members(layout, 1, 3) == [_not_aux(layout, 0), *_pigeons(layout, 3, 4)]
    assert group_members(layout, 2, 3) == [_not_aux(layout, 1), *_pigeons(layout, 5, 6, 7)]


def test_groups_rejects_single_pigeon():
    with pytest.raises(ValueError):
        group_count(1)


@pytest.mark.parametrize("k", range(2, 30))
def test_group_structure_matches_clause_budget(k):
    # 7 clauses per non-final group plus all pairs of the final one = f(k);
    # the final group holds two or three pigeons after the chained auxiliary
    count = group_count(k + 1)
    final = group_members(layer_layout(k + 1, k), count - 1, count)
    if count > 1:
        assert len(final) - 1 in (2, 3)
    budget = 7 * (count - 1) + len(final) * (len(final) - 1) // 2
    assert budget == f_group(k)


def test_member_literal_binding():
    # a member is made bound to its layer: a row literal over the holes
    layout = layer_layout(6, 5)
    aux, pigeon = group_members(layout, 1, 2)[:2]
    assert pigeon == (layout.x_var(3, 1), 1)  # hole 1, then one more a hole
    assert aux == (-layout.y_var(0, 1), -1)
    rows = (pigeon,), (aux,), (negated(aux),)
    assert list(HoleRows([(5, rows)])) == [
        clause
        for h in range(1, 6)
        for clause in ((layout.x_var(3, h),), (-layout.y_var(0, h),), (layout.y_var(0, h),))
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
