"""Cubic-size DRAT refutation of the standard pigeonhole formula.

The proof walks k from n-1 down to 1.  Each iteration re-encodes the
(k+2)-pigeon instance of layer k+1 as a (k+1)-pigeon instance on fresh
layer-k variables, with the hole constraints in the chained group encoding:

1. definition clauses binding each fresh x'_{ph} to "pigeon p was in hole h,
   or pigeon p was in the removed hole and the removed pigeon was in h";
2. definition clauses binding each fresh group auxiliary to "none of its
   group's literals hold";
3. derived pairwise constraints inside every group (checked as RAT on the
   first literal -- resolvents against the group's positive clause are
   tautologies, the rest propagate through the previous layer);
4. one at-least-one clause per remaining pigeon (plain RUP).

After iteration 1 the two unit clauses contradict the single pairwise
constraint, so the empty clause closes the proof.  Every clause is written
pivot first; at-least-one clauses and the empty clause need no pivot.

Every literal the builders write is ±(base + h) in the hole h or a
constant; a group member is made bound to its layer, as such a row literal
(``encodings.group_members``).  So every block is a
:class:`~pigeonproof.model.HoleRows`: clause rows of ``(first, step)`` and
int literals swept hole by hole; the at-least-one clauses and the empty
clause are rows of constants over one hole.  Iterating a block yields its
clauses as int tuples, which ``formats`` writes.  The compiled core builds
the same rows with C twins of these builders, line for line, and writes
their text itself.

Both proof families share this module's driver, :func:`iter_blocks`: a
family is a table ``(chained, ((tag, builder), ...))`` naming the layout
style and the builders of one iteration, in order.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, repeat
from typing import Callable, Iterator, NamedTuple

from .encodings import (
    LayerLayout,
    _alo_rows,
    _check_n,
    _layouts_down_to,
    aux_definition_rows,
    group_count,
    group_members,
    iter_php_standard_clauses,
    negated,
)
from .model import DELETE, Block, HoleRows, Proof, ProofLine, Row

# Tags used by iter_tagged_lines (DELETE, from the model, marks deletions).
DEFINITION = "definition"
Y_DEFINITION = "y-definition"
DERIVED = "derived"
ALO = "alo"
EMPTY = "empty"


class IterationPlan(NamedTuple):
    """Everything one iteration needs: both layouts and the proof style.

    ``prev`` is layer k+1 (the standard input layer when k = n-1), ``next``
    the fresh layer k.  ``chained`` is False for the pairwise proof style,
    which introduces no auxiliaries.
    """

    k: int
    prev: LayerLayout
    next: LayerLayout
    chained: bool


def iteration_plan(n: int, k: int, chained: bool = True) -> IterationPlan:
    """Plan for iteration ``k`` of an n-pigeonhole proof."""
    _check_n(n, minimum=2)
    if not 1 <= k <= n - 1:
        raise ValueError(f"iteration index {k} out of range 1..{n - 1}")
    return _plans(n, chained)[k]


def _plans(n: int, chained: bool) -> dict[int, IterationPlan]:
    layouts = _layouts_down_to(n, 1, chained)
    return {
        k: IterationPlan(k, layouts[k + 1], layouts[k], chained)
        for k in range(n - 1, 0, -1)
    }


def definition_clauses(plan: IterationPlan) -> HoleRows:
    """Fresh-variable definitions for every x'_{ph} of the new layer.

    Four clauses per variable, pivot first, as four rows over the holes of
    one part per pigeon.  In the chained style the top pigeon p = k drops
    the two clauses with a negated pivot: propagation only ever walks
    towards lower pigeon indices, so they are never needed.  The pairwise
    style keeps all four rows for every pigeon, as Cook's construction
    does.
    """
    k = plan.k
    prev, nxt = plan.prev, plan.next
    x_top = (prev.x_var(k + 1, 1), 1)  # the removed pigeon, hole by hole
    not_top = (-x_top[0], -1)
    parts = []
    for p in range(k + 1):
        xk, xp = nxt.x_var(p, 1), prev.x_var(p, 1)
        x_moved = prev.x_var(p, k + 1)  # the same in every hole
        rows: tuple[Row, ...] = (((xk, 1), (-xp, -1)), ((xk, 1), -x_moved, not_top))
        if p < k or not plan.chained:
            not_xk = (-xk, -1)
            rows = ((not_xk, (xp, 1), x_moved), (not_xk, (xp, 1), x_top)) + rows
        parts.append((k, rows))
    return HoleRows(parts)


def y_definition_clauses(plan: IterationPlan) -> HoleRows:
    """Definitions of the fresh group auxiliaries, four clauses each.

    The positive four-literal clause is not needed to encode at-most-one,
    but it turns each group into an exactly-one block, which is what keeps
    every later check a plain propagation instead of a case split.
    """
    nxt, count = plan.next, group_count(plan.k + 1)
    rows: list[Row] = []
    for g in range(count - 1):  # the final group adds no auxiliary
        rows += aux_definition_rows(nxt, g, group_members(nxt, g, count))
    return HoleRows([(plan.k, tuple(rows))])


def derived_group_clauses(plan: IterationPlan) -> HoleRows:
    """Pairwise constraints inside every group of the new layer.

    For members l_i, l_j (i < j) the clause is (-l_j, -l_i): the literal
    with the larger pigeon index is the pivot.  Requires the iteration's
    definition clauses to be in the working formula already.
    """
    nxt, count = plan.next, group_count(plan.k + 1)
    rows: list[Row] = []
    for g in range(count):
        members = map(negated, group_members(nxt, g, count))
        rows += ((neg_j, neg_i) for neg_i, neg_j in combinations(members, 2))
    return HoleRows([(plan.k, tuple(rows))])


def alo_clauses(plan: IterationPlan) -> HoleRows:
    """At-least-one clause per remaining pigeon; RUP once the rest is in.
    Each is a row of constants over one hole, as in the input formula."""
    return HoleRows([(1, _alo_rows(plan.next))])


Builder = Callable[[IterationPlan], HoleRows]
Family = tuple[bool, tuple[tuple[str, Builder], ...]]

OURS: Family = (
    True,
    (
        (DEFINITION, definition_clauses),
        (Y_DEFINITION, y_definition_clauses),
        (DERIVED, derived_group_clauses),
        (ALO, alo_clauses),
    ),
)


def iter_blocks(
    n: int, family: Family, emit_deletions: bool = False
) -> Iterator[Block]:
    """Stream a family's refutation of ``php_standard(n)`` as (tag, k, clauses).

    Iteration k yields one block per builder of the family, in table order.
    With ``emit_deletions`` it then yields blocks tagged ``DELETE`` removing
    layer k+1 -- the additions of iteration k+1, rebuilt by the same
    builders, or the input formula when k = n-1 -- since nothing below
    iteration k ever looks at that layer again.  Deletions never change
    whether the proof checks.  The empty clause closes the stream as its own
    block, tagged ``empty`` with k = 0.
    """
    _check_n(n, minimum=2)
    chained, builders = family
    plans = _plans(n, chained)
    for k in range(n - 1, 0, -1):
        for tag, build in builders:
            yield tag, k, build(plans[k])
        if emit_deletions:
            if k == n - 1:
                yield DELETE, k, iter_php_standard_clauses(n)
            else:
                for _, build in builders:
                    yield DELETE, k, build(plans[k + 1])
    yield EMPTY, 0, HoleRows([(1, ((),))])


# tuple.__new__ builds each ProofLine in C, skipping the NamedTuple's Python __new__.
_proof_line = partial(tuple.__new__, ProofLine)


def family_lines(
    n: int, family: Family, emit_deletions: bool = False
) -> Iterator[ProofLine]:
    """Stream a family's refutation of ``php_standard(n)`` as proof lines."""
    for tag, _, clauses in iter_blocks(n, family, emit_deletions):
        yield from map(_proof_line, zip(repeat(tag == DELETE), clauses))


def family_tagged_lines(
    n: int, family: Family, emit_deletions: bool = False
) -> Iterator[tuple[str, int, ProofLine]]:
    """Like :func:`family_lines` but yielding (tag, k, line) triples."""
    for tag, k, clauses in iter_blocks(n, family, emit_deletions):
        for line in map(_proof_line, zip(repeat(tag == DELETE), clauses)):
            yield tag, k, line


def iter_proof_lines(n: int, emit_deletions: bool = False) -> Iterator[ProofLine]:
    """Stream the whole refutation without materialising it."""
    return family_lines(n, OURS, emit_deletions)


def iter_tagged_lines(
    n: int, emit_deletions: bool = False
) -> Iterator[tuple[str, int, ProofLine]]:
    """Like :func:`iter_proof_lines` but yielding (tag, k, line) triples."""
    return family_tagged_lines(n, OURS, emit_deletions)


def generate_ours(n: int, emit_deletions: bool = False) -> Proof:
    """The full chained-group refutation of ``php_standard(n)``."""
    return Proof(tuple(iter_proof_lines(n, emit_deletions)))
