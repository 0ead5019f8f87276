"""Exact clause counting for both proof styles.

Closed forms are evaluated in integer arithmetic, as a numerator over a
fixed denominator that must divide it exactly; the per-iteration breakdowns
are computed structurally, so the two routes cross-check each other.  No
floating point anywhere.
"""

from __future__ import annotations

from typing import Callable, NamedTuple


def f_group(k: int) -> int:
    """Group clauses per hole when a layer has k holes (k+1 pigeons): seven
    per non-final group of the at-most-one chain, then the pairs of the
    final group (see ``encodings.group_members``)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return 1
    return (7 * k) // 2 - 4


class IterationCount(NamedTuple):
    """Additions of one iteration, split by clause family."""

    k: int
    definitions: int
    group_or_pair: int
    alo: int

    @property
    def subtotal(self) -> int:
        return self.definitions + self.group_or_pair + self.alo


class CountBreakdown(NamedTuple):
    """Per-iteration counts; total includes the final empty clause."""

    per_iteration: tuple[IterationCount, ...]
    total: int


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError("proof counting needs n >= 2")


def _exact(numerator: int, denominator: int) -> int:
    total, remainder = divmod(numerator, denominator)
    assert remainder == 0, f"closed form is not integral: {numerator}/{denominator}"
    return total


def _breakdown(rows: tuple[IterationCount, ...]) -> CountBreakdown:
    return CountBreakdown(rows, sum(r.subtotal for r in rows) + 1)


def ours_iteration_count(k: int) -> int:
    """Additions of iteration k of the chained-group proof."""
    return k * (4 * k + 2) + k * f_group(k) + (k + 1)


def count_ours(n: int) -> int:
    """Total additions of the chained-group proof (closed form)."""
    _check_n(n)
    if n % 2 == 0:
        return _exact(20 * n**3 - 35 * n**2 + 22 * n + 16, 8)
    return _exact(20 * n**3 - 35 * n**2 + 24 * n + 15, 8)


def count_ours_breakdown(n: int) -> CountBreakdown:
    """Per-iteration additions of the chained-group proof, structurally."""
    _check_n(n)
    rows = tuple(
        IterationCount(k, k * (4 * k + 2), k * f_group(k), k + 1)
        for k in range(n - 1, 0, -1)
    )
    return _breakdown(rows)


def cook_iteration_count(k: int) -> int:
    """Additions of iteration k of the pairwise proof: k^3 + 5k^2 + 5k + 1."""
    return k**3 + 5 * k**2 + 5 * k + 1


def count_cook(n: int) -> int:
    """Total additions of the pairwise proof (closed form)."""
    _check_n(n)
    return _exact(3 * n**4 + 14 * n**3 + 3 * n**2 - 8 * n, 12)


def count_cook_breakdown(n: int) -> CountBreakdown:
    """Per-iteration additions of the pairwise proof, structurally."""
    _check_n(n)
    rows = tuple(
        IterationCount(k, 4 * (k + 1) * k, (k + 1) * k * k, k + 1)
        for k in range(n - 1, 0, -1)
    )
    return _breakdown(rows)


#: CLI-facing dispatch.
TOTALS: dict[str, Callable[[int], int]] = {"ours": count_ours, "cook": count_cook}
BREAKDOWNS: dict[str, Callable[[int], CountBreakdown]] = {
    "ours": count_ours_breakdown,
    "cook": count_cook_breakdown,
}
