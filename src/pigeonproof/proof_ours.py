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

A group member's literal is ±(base + h) in the hole h, so the group builders
bind each member once to a range over the holes; a clause row of a group is
a zip of such ranges, and the rows are zipped hole by hole.

Both proof families share this module's driver, :func:`iter_blocks`: a
family is a table ``(chained, ((tag, builder), ...))`` naming the layout
style and the builders of one iteration, in order.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, combinations, repeat
from typing import Callable, Iterator, NamedTuple

from .encodings import (
    GroupLayout,
    LayerLayout,
    _check_n,
    _layouts_down_to,
    groups,
    iter_php_standard_clauses,
    member_literals,
)
from .model import DELETE, Block, Clause, Proof, ProofLine

# Tags used by iter_tagged_lines (DELETE, from the model, marks deletions).
DEFINITION = "definition"
Y_DEFINITION = "y-definition"
DERIVED = "derived"
ALO = "alo"
EMPTY = "empty"


class IterationPlan(NamedTuple):
    """Everything one iteration needs: both layouts and the group structure.

    ``prev`` is layer k+1 (the standard input layer when k = n-1), ``next``
    the fresh layer k.  ``group_layout`` is None for the pairwise proof
    style, which introduces no auxiliaries.
    """

    k: int
    prev: LayerLayout
    next: LayerLayout
    group_layout: GroupLayout | None


def iteration_plan(n: int, k: int, chained: bool = True) -> IterationPlan:
    """Plan for iteration ``k`` of an n-pigeonhole proof."""
    _check_n(n, minimum=2)
    if not 1 <= k <= n - 1:
        raise ValueError(f"iteration index {k} out of range 1..{n - 1}")
    return _plans(n, chained)[k]


def _plans(n: int, chained: bool) -> dict[int, IterationPlan]:
    layouts = _layouts_down_to(n, 1, chained)
    return {
        k: IterationPlan(
            k,
            layouts[k + 1],
            layouts[k],
            groups(k + 1) if chained else None,
        )
        for k in range(n - 1, 0, -1)
    }


def definition_clauses(plan: IterationPlan) -> list[Clause]:
    """Fresh-variable definitions for every x'_{ph} of the new layer.

    Four clauses per variable, pivot first.  In the chained style the top
    pigeon p = k drops the two clauses with a negated pivot: propagation
    only ever walks towards lower pigeon indices, so they are never needed.
    The pairwise style (no group layout) keeps all four rows for every
    pigeon, as Cook's construction does.
    """
    k = plan.k
    prev, nxt = plan.prev, plan.next
    out: list[Clause] = []
    append = out.append
    keep_top = plan.group_layout is None
    top_row = prev.x_var(k + 1, 0)  # x_var(p, h) == x_var(p, 0) + h
    for p in range(k + 1):
        prev_row = prev.x_var(p, 0)
        next_row = nxt.x_var(p, 0)
        x_moved = prev_row + k + 1
        negative_rows = p < k or keep_top
        for h in range(1, k + 1):
            xk = next_row + h
            xp = prev_row + h
            x_top = top_row + h
            if negative_rows:
                append((-xk, xp, x_moved))
                append((-xk, xp, x_top))
            append((xk, -xp))
            append((xk, -x_moved, -x_top))
    return out


def y_definition_clauses(plan: IterationPlan) -> list[Clause]:
    """Definitions of the fresh group auxiliaries, four clauses each.

    The positive four-literal clause is not needed to encode at-most-one,
    but it turns each group into an exactly-one block, which is what keeps
    every later check a plain propagation instead of a case split.  Each of
    the four is a row of ranges over the holes (literals are ±(base + h)).
    """
    group_layout = plan.group_layout
    if group_layout is None:
        return []
    nxt = plan.next
    rows: list[Iterator[Clause]] = []
    for group in group_layout.groups[:-1]:  # the final group adds no auxiliary
        ny = ("ny", group.y_new)  # the negated auxiliary, as a member
        members = [member_literals(m, nxt) for m in group.members]
        rows.append(zip(member_literals(ny, nxt, -1), *members))
        neg_y = member_literals(ny, nxt)
        rows.extend(zip(neg_y, member_literals(m, nxt, -1)) for m in group.members)
    return list(chain.from_iterable(zip(*rows)))  # hole by hole, tuples built in C


def derived_group_clauses(plan: IterationPlan) -> list[Clause]:
    """Pairwise constraints inside every group of the new layer.

    For members l_i, l_j (i < j) the clause is (-l_j, -l_i): the literal
    with the larger pigeon index is the pivot.  Each pair is a row of ranges
    over the holes (literals are ±(base + h)).  Requires the iteration's
    definition clauses to be in the working formula already.
    """
    group_layout = plan.group_layout
    if group_layout is None:
        raise ValueError("derived group clauses need a group layout")
    nxt = plan.next
    rows: list[Iterator[Clause]] = []
    for group in group_layout.groups:
        negated = [member_literals(m, nxt, -1) for m in group.members]
        rows.extend(zip(neg_j, neg_i) for neg_i, neg_j in combinations(negated, 2))
    return list(chain.from_iterable(zip(*rows)))


def alo_clauses(plan: IterationPlan) -> list[Clause]:
    """At-least-one clause per remaining pigeon; RUP once the rest is in."""
    k = plan.k
    nxt = plan.next
    return [
        tuple(range(nxt.x_var(p, 1), nxt.x_var(p, k) + 1)) for p in range(k + 1)
    ]


Builder = Callable[[IterationPlan], list[Clause]]
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

    Iteration k yields one list per builder of the family, in table order.
    With ``emit_deletions`` it then yields a block tagged ``DELETE`` removing
    layer k+1 -- the additions of iteration k+1, rebuilt by the same
    builders, or the input formula when k = n-1 -- since nothing below
    iteration k ever looks at that layer again.  Deletions never change
    whether the proof checks.  A delete block is a one-shot iterator, so the
    input formula of a large instance is never held in memory.  The empty
    clause closes the stream as its own block, tagged ``empty`` with k = 0.
    """
    _check_n(n, minimum=2)
    chained, builders = family
    plans = _plans(n, chained)
    for k in range(n - 1, 0, -1):
        for tag, build in builders:
            yield tag, k, build(plans[k])
        if emit_deletions:
            yield DELETE, k, (
                iter_php_standard_clauses(n)
                if k == n - 1
                else chain.from_iterable(build(plans[k + 1]) for _, build in builders)
            )
    yield EMPTY, 0, [()]


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
