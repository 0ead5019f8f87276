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
from .model import CnfFormula, HoleRows, Row, RowLiteral

# Group members are symbolic until bound to a layout (see member_literal):
# ("x", p) stands for the pigeon-p literals x_var(p, h), ("ny", g) for the
# negated group-g auxiliaries -y_var(g, h), over the layer's holes h.
Member = tuple[str, int]


def f_group(k: int) -> int:
    """Group clauses per hole when a layer has k holes (k+1 pigeons)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return 1
    return (7 * k) // 2 - 4


def group_count(pigeons: int) -> int:
    """Number of groups an at-most-one chain over ``pigeons`` literals uses."""
    if pigeons < 2:
        raise ValueError("a group chain needs at least 2 pigeons")
    return max(1, (pigeons - 1) // 2)


class Group(NamedTuple):
    """One link of a hole's at-most-one chain.

    ``members`` are the constrained literals (three of them except in the
    final group); ``y_new`` is the index of the fresh auxiliary introduced
    for this group, or None for the final group.  The field ``index`` hides
    the method ``tuple.index``, which nothing here uses.
    """

    index: int
    members: tuple[Member, ...]
    y_new: int | None

    @property
    def final(self) -> bool:
        return self.y_new is None


class GroupLayout(NamedTuple):
    """Partition of one hole's pigeon literals into chained groups."""

    pigeons: int
    groups: tuple[Group, ...]

    @property
    def group_count(self) -> int:
        return len(self.groups)


def groups(pigeons: int) -> GroupLayout:
    """Group structure for an at-most-one chain over ``pigeons`` literals.

    Up to four pigeons form a single group with no auxiliaries.  Otherwise
    group 0 takes pigeons 0..2 and a fresh auxiliary; each intermediate group
    takes the previous auxiliary (negated) plus the next two pigeons; the
    final group takes the last auxiliary plus the remaining two or three.
    """
    count = group_count(pigeons)
    if count == 1:
        return GroupLayout(
            pigeons,
            (Group(0, tuple(("x", p) for p in range(pigeons)), None),),
        )
    parts: list[Group] = [Group(0, (("x", 0), ("x", 1), ("x", 2)), 0)]
    for g in range(1, count - 1):
        parts.append(
            Group(g, (("ny", g - 1), ("x", 2 * g + 1), ("x", 2 * g + 2)), g)
        )
    first_rest = 2 * (count - 1) + 1
    parts.append(
        Group(
            count - 1,
            (("ny", count - 2),) + tuple(("x", p) for p in range(first_rest, pigeons)),
            None,
        )
    )
    return GroupLayout(pigeons, tuple(parts))


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


def member_literal(member: Member, layout: LayerLayout, sign: int = 1) -> RowLiteral:
    """``sign`` times a group member's literal, as a row literal over the holes.

    A member's literal is ±(base + h), since x_var(p, h) == x_var(p, 0) + h
    and y_var(g, h) == y_var(g, 0) + h, so over the holes it is the row
    literal ``(first, step)``: step 1 for a positive literal, -1 for a
    negative one (see :class:`~pigeonproof.model.HoleRows`).
    """
    kind, index = member
    if kind == "x":
        base = layout.x_var(index, 0)
    else:
        base, sign = layout.y_var(index, 0), -sign
    return sign * (base + 1), sign


def aux_definition_rows(group: Group, layout: LayerLayout) -> list[Row]:
    """The four rows defining a non-final group's fresh auxiliary y: the
    positive clause (y, members...) and (-y, -member) for each member."""
    ny = ("ny", group.y_new)  # the negated auxiliary, as a member
    neg_y = member_literal(ny, layout)
    return [
        (member_literal(ny, layout, -1), *(member_literal(m, layout) for m in group.members)),
        *((neg_y, member_literal(m, layout, -1)) for m in group.members),
    ]


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


def php_standard_clause_count(n: int) -> int:
    return (n + 1) + n * (n + 1) * n // 2


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
    pairs = tuple(
        (member_literal(("x", p), layout, -1), member_literal(("x", q), layout, -1))
        for p, q in combinations(range(n + 1), 2)
    )
    return HoleRows([(1, _alo_rows(layout)), (n, pairs)])


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
    layout = LayerLayout(n, 0, n * (n + 1), group_count(n + 1) - 1)
    rows: list[Row] = []
    for group in groups(n + 1).groups:
        if not group.final:
            rows.extend(aux_definition_rows(group, layout))
        negated = [member_literal(m, layout, -1) for m in group.members]
        rows.extend(combinations(negated, 2))
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
