import pytest

from pigeonproof import count_cook, count_ours
from pigeonproof.counts import (
    cook_iteration_count,
    count_cook_breakdown,
    count_ours_breakdown,
    f_group,
    ours_iteration_count,
)


def test_f_group_values():
    assert f_group(1) == 1
    assert f_group(2) == 3
    assert f_group(3) == 6
    assert f_group(4) == 10
    assert f_group(5) == 13  # one chained group (7) plus a 4-literal final (6)
    with pytest.raises(ValueError):
        f_group(0)


def test_count_ours_reference_values():
    assert count_ours(2) == 10
    assert count_ours(3) == 39
    assert count_ours(100) == 2_456_527


def test_count_cook_reference_values():
    assert count_cook(2) == 13
    assert count_cook(100) == 26_169_100


def test_cook_iteration_polynomial():
    assert cook_iteration_count(1) == 12
    assert cook_iteration_count(3) == 27 + 45 + 15 + 1


def test_ours_breakdown_n3():
    breakdown = count_ours_breakdown(3)
    assert [(row.k, row.definitions, row.group_or_pair, row.alo) for row in breakdown.per_iteration] == [
        (2, 20, 6, 3),
        (1, 6, 1, 2),
    ]
    assert [row.subtotal for row in breakdown.per_iteration] == [29, 9]
    assert breakdown.total == 39


def test_cook_breakdown_n3():
    breakdown = count_cook_breakdown(3)
    assert [row.subtotal for row in breakdown.per_iteration] == [
        cook_iteration_count(2),
        cook_iteration_count(1),
    ]
    assert breakdown.total == count_cook(3)


@pytest.mark.parametrize("n", range(2, 201))
def test_closed_forms_match_iteration_sums(n):
    assert count_ours_breakdown(n).total == count_ours(n)
    assert count_cook_breakdown(n).total == count_cook(n)


def test_iteration_helpers_match_breakdowns():
    for n in (5, 10, 17):
        assert sum(ours_iteration_count(k) for k in range(1, n)) + 1 == count_ours(n)
        assert sum(cook_iteration_count(k) for k in range(1, n)) + 1 == count_cook(n)


def test_ours_always_shorter():
    assert all(count_ours(n) < count_cook(n) for n in range(2, 201))


def test_ratio_at_100():
    ratio = count_cook(100) / count_ours(100)
    assert 10.64 <= ratio <= 10.66


def test_ratio_grows_roughly_linearly():
    from fractions import Fraction

    ratios = [Fraction(count_cook(n), count_ours(n)) for n in range(2, 201)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    trend = ratios[200 - 2] / ratios[100 - 2]
    assert Fraction(18, 10) <= trend <= Fraction(22, 10)


def test_rejects_small_n():
    with pytest.raises(ValueError):
        count_ours(1)
    with pytest.raises(ValueError):
        count_cook(1)
