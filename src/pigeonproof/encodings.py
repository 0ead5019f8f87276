"""Pigeonhole CNF encodings and the variable layouts shared with proof output.

Two encodings of "n+1 pigeons, n holes, at most one pigeon per hole":

* ``php_standard``: pairwise at-most-one constraints, x_{ph} = p*n + h.
* ``php_amo``: the hole constraint is decomposed into chained groups of at
  most three source literals, each non-final group introducing one fresh
  variable that is true exactly when all of its group's literals are false.

Both proof generators build "layers": layer n is the input formula; each
layer k < n re-encodes a (k+1)-pigeon, k-hole instance over fresh variables.
Layer id blocks are contiguous and pairwise disjoint: layer k allocates its
(k+1)*k x ids first, then its auxiliary ids, after every previous layer.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from . import _check_n
from .counts import f_group
from .model import CnfFormula, HoleRows, Row, RowLiteral


def group_count(pigeons: int) -> int:
    """Number of groups an at-most-one chain over ``pigeons`` literals uses."""
    if pigeons < 2:
        raise ValueError("a group chain needs at least 2 pigeons")
    return max(1, (pigeons - 1) // 2)


class LayerLayout(NamedTuple):
    """Deterministic variable numbering for one layer.

    Layer k covers pigeons 0..k and holes 1..k; ``x_var(p, h)`` is defined on
    that range and ``y_var(g, h)`` for group indices 0..y_rows-1.  All ids of
    distinct layers are disjoint by construction.
    """

    layer: int
    x_base: int
    y_base: int
    y_rows: int

    def x_var(self, p: int, h: int) -> int:
        return self.x_base + p * self.layer + h

    def y_var(self, g: int, h: int) -> int:
        return self.y_base + g * self.layer + h

    @property
    def y_count(self) -> int:
        return self.y_rows * self.layer

    @property
    def id_range(self) -> range:
        """Half-open id range occupied by this layer."""
        return range(self.x_base + 1, self.y_base + self.y_count + 1)


def negated(lit: RowLiteral) -> RowLiteral:
    """The complement of the row literal ``(first, step)`` at every hole."""
    return -lit[0], -lit[1]


def group_members(layout: LayerLayout, g: int, count: int) -> list[RowLiteral]:
    """The members of group ``g`` of the at-most-one chain over the layer's
    pigeons, in ``count`` groups, as row literals over the holes.

    Up to four pigeons form a single group with no auxiliaries.  Otherwise
    group 0 takes pigeons 0..2; each later group takes the previous group's
    auxiliary, negated, and the next two pigeons; the final group takes the
    two or three that remain.  A member is ±(base + h) in the hole h, since
    x_var(p, h) == x_var(p, 0) + h and y_var(g, h) == y_var(g, 0) + h: the
    row literal ``(first, step)``, step 1 for a pigeon and -1 for a negated
    auxiliary (see :class:`~pigeonproof.model.HoleRows`).
    """
    first = 2 * g + 1 if g else 0
    stop = layout.layer + 1 if g == count - 1 else 2 * g + 3
    members = [(-layout.y_var(g - 1, 1), -1)] if g else []
    return members + [(layout.x_var(p, 1), 1) for p in range(first, stop)]


def aux_definition_rows(layout: LayerLayout, g: int, members: list[RowLiteral]) -> list[Row]:
    """The four rows defining the fresh auxiliary y of the non-final group
    ``g``: the positive clause (y, members...) and (-y, -member) for each
    member."""
    y = (layout.y_var(g, 1), 1)
    return [(y, *members), *((negated(y), negated(m)) for m in members)]


def _layouts_down_to(n: int, k_min: int, chained: bool) -> dict[int, LayerLayout]:
    """Layouts for layers n down to ``k_min``.

    ``chained`` selects whether inner layers reserve auxiliary ids (the
    pairwise-only proof style never does).  The input layer has none either
    way: the proofs always start from the standard encoding.
    """
    layouts = {n: LayerLayout(n, 0, n * (n + 1), 0)}
    base = n * (n + 1)
    for k in range(n - 1, k_min - 1, -1):
        y_rows = group_count(k + 1) - 1 if chained else 0
        x_base = base
        y_base = base + (k + 1) * k
        base = y_base + y_rows * k
        layouts[k] = LayerLayout(k, x_base, y_base, y_rows)
    return layouts


def layer_layout(n: int, k: int, chained: bool = True) -> LayerLayout:
    """Layout of layer ``k`` for problem size ``n`` (layer n = input formula)."""
    _check_n(n, minimum=1)
    if not 1 <= k <= n:
        raise ValueError(f"layer index {k} out of range 1..{n}")
    return _layouts_down_to(n, k, chained)[k]


# -- formulas ---------------------------------------------------------------


def _alo_rows(layout: LayerLayout) -> tuple[Row, ...]:
    """The at-least-one clause of every pigeon, each a row of constants."""
    return tuple(
        tuple(range(layout.x_var(p, 1), layout.x_var(p, layout.layer) + 1))
        for p in range(layout.layer + 1)
    )


def iter_php_standard_clauses(n: int) -> HoleRows:
    """The clauses of ``php_standard(n)`` as rows: the at-least-one clauses
    over one hole, then each pair p < q of pigeons over the n holes."""
    layout = LayerLayout(n, 0, n * (n + 1), 0)
    pairs = combinations([(-layout.x_var(p, 1), -1) for p in range(n + 1)], 2)
    return HoleRows([(1, _alo_rows(layout)), (n, tuple(pairs))])


def php_standard(n: int) -> CnfFormula:
    """Pairwise-encoded pigeonhole formula: n+1 pigeons into n holes.

    Clause order: the n+1 at-least-one clauses in pigeon order, then per
    hole ascending all pairwise at-most-one clauses with p < q.
    """
    _check_n(n, minimum=1)
    return CnfFormula(n * (n + 1), tuple(iter_php_standard_clauses(n)))


def php_amo_num_vars(n: int) -> int:
    return n * (n + 1) + n * (group_count(n + 1) - 1)


def php_amo_clause_count(n: int) -> int:
    return (n + 1) + n * f_group(n)


def iter_php_amo_clauses(n: int) -> HoleRows:
    """The clauses of ``php_amo(n)`` as rows: the at-least-one clauses over
    one hole, then every group's clauses of a hole over the n holes."""
    count = group_count(n + 1)
    layout = LayerLayout(n, 0, n * (n + 1), count - 1)
    rows: list[Row] = []
    for g in range(count):
        members = group_members(layout, g, count)
        if g < count - 1:  # the final group adds no auxiliary
            rows += aux_definition_rows(layout, g, members)
        rows += combinations(map(negated, members), 2)
    return HoleRows([(1, _alo_rows(layout)), (n, tuple(rows))])


def php_amo(n: int) -> CnfFormula:
    """Pigeonhole formula with chained at-most-one hole constraints.

    Per hole, each non-final group contributes seven clauses: one positive
    clause forcing the fresh auxiliary or one of its members (making the
    four variables an exactly-one block), three binaries tying the auxiliary
    to each member, and three pairwise constraints.  The final group is
    purely pairwise.  Auxiliary ids follow all x ids.
    """
    _check_n(n, minimum=1)
    return CnfFormula(php_amo_num_vars(n), tuple(iter_php_amo_clauses(n)))
