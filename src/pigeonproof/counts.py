"""Exact clause counting for both proof styles.

Closed forms are evaluated in exact rational arithmetic and asserted
integral; the per-iteration breakdowns are computed structurally, so the two
routes cross-check each other.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .encodings import f_group


class IterationCount(NamedTuple):
    """Additions of one iteration, split by clause family."""

    k: int
    definitions: int
    group_or_pair: int
    alo: int

    @property
    def subtotal(self) -> int:
        return self.definitions + self.group_or_pair + self.alo


@dataclass(frozen=True)
class CountBreakdown:
    """Per-iteration counts; total includes the final empty clause."""

    per_iteration: tuple[IterationCount, ...]
    total: int

    def __post_init__(self) -> None:
        assert self.total == sum(it.subtotal for it in self.per_iteration) + 1


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError("proof counting needs n >= 2")


def _as_int(x: Fraction) -> int:
    assert x.denominator == 1, f"closed form is not integral: {x}"
    return int(x)


def ours_iteration_count(k: int) -> int:
    """Additions of iteration k of the chained-group proof."""
    return k * (4 * k + 2) + k * f_group(k) + (k + 1)


def count_ours(n: int) -> int:
    """Total additions of the chained-group proof (closed form)."""
    _check_n(n)
    nf = Fraction(n)
    if n % 2 == 0:
        total = (
            Fraction(5, 2) * nf**3
            - Fraction(35, 8) * nf**2
            + Fraction(11, 4) * nf
            + 2
        )
    else:
        total = (
            Fraction(5, 2) * nf**3
            - Fraction(35, 8) * nf**2
            + 3 * nf
            + Fraction(15, 8)
        )
    return _as_int(total)


def count_ours_breakdown(n: int) -> CountBreakdown:
    """Per-iteration additions of the chained-group proof, structurally."""
    _check_n(n)
    rows = tuple(
        IterationCount(k, k * (4 * k + 2), k * f_group(k), k + 1)
        for k in range(n - 1, 0, -1)
    )
    return CountBreakdown(rows, sum(r.subtotal for r in rows) + 1)


def cook_iteration_count(k: int) -> int:
    """Additions of iteration k of the pairwise proof: k^3 + 5k^2 + 5k + 1."""
    return k**3 + 5 * k**2 + 5 * k + 1


def count_cook(n: int) -> int:
    """Total additions of the pairwise proof (closed form)."""
    _check_n(n)
    nf = Fraction(n)
    total = (
        Fraction(1, 4) * nf**4
        + Fraction(7, 6) * nf**3
        + Fraction(1, 4) * nf**2
        - Fraction(2, 3) * nf
    )
    return _as_int(total)


def count_cook_breakdown(n: int) -> CountBreakdown:
    """Per-iteration additions of the pairwise proof, structurally."""
    _check_n(n)
    rows = tuple(
        IterationCount(k, 4 * (k + 1) * k, (k + 1) * k * k, k + 1)
        for k in range(n - 1, 0, -1)
    )
    return CountBreakdown(rows, sum(r.subtotal for r in rows) + 1)


#: CLI-facing dispatch.
TOTALS: dict[str, Callable[[int], int]] = {"ours": count_ours, "cook": count_cook}
BREAKDOWNS: dict[str, Callable[[int], CountBreakdown]] = {
    "ours": count_ours_breakdown,
    "cook": count_cook_breakdown,
}
