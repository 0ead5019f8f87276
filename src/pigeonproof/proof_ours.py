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

Both proof families share this module's driver, :func:`iter_blocks`: a
family is a table ``(chained, ((tag, builder), ...))`` naming the layout
style and the builders of one iteration, in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .encodings import (
    GroupLayout,
    LayerLayout,
    _check_n,
    _layouts_down_to,
    groups,
    iter_php_standard_clauses,
    member_literal,
)
from .model import EMPTY_CLAUSE_LINE, Proof, ProofLine

# Tags used by iter_tagged_lines.
DEFINITION = "definition"
Y_DEFINITION = "y-definition"
DERIVED = "derived"
ALO = "alo"
DELETE = "delete"
EMPTY = "empty"


@dataclass(frozen=True)
class IterationPlan:
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


def definition_clauses(plan: IterationPlan) -> list[ProofLine]:
    """Fresh-variable definitions for every x'_{ph} of the new layer.

    Four clauses per variable, pivot first.  In the chained style the top
    pigeon p = k drops the two clauses with a negated pivot: propagation
    only ever walks towards lower pigeon indices, so they are never needed.
    The pairwise style (no group layout) keeps all four rows for every
    pigeon, as Cook's construction does.
    """
    k = plan.k
    prev, nxt = plan.prev, plan.next
    out: list[ProofLine] = []
    removed_pigeon = k + 1
    removed_hole = k + 1
    keep_top = plan.group_layout is None
    for p in range(k + 1):
        x_moved = prev.x_var(p, removed_hole)
        for h in range(1, k + 1):
            xk = nxt.x_var(p, h)
            xp = prev.x_var(p, h)
            x_top = prev.x_var(removed_pigeon, h)
            if p < k or keep_top:
                out.append(ProofLine(False, (-xk, xp, x_moved)))
                out.append(ProofLine(False, (-xk, xp, x_top)))
            out.append(ProofLine(False, (xk, -xp)))
            out.append(ProofLine(False, (xk, -x_moved, -x_top)))
    return out


def y_definition_clauses(plan: IterationPlan) -> list[ProofLine]:
    """Definitions of the fresh group auxiliaries, four clauses each.

    The positive four-literal clause is not needed to encode at-most-one,
    but it turns each group into an exactly-one block, which is what keeps
    every later check a plain propagation instead of a case split.
    """
    chain = plan.group_layout
    out: list[ProofLine] = []
    if chain is None or chain.group_count == 1:
        return out
    nxt = plan.next
    for h in range(1, plan.k + 1):
        for group in chain.groups:
            if group.final:
                continue
            y = nxt.y_var(group.y_new, h)
            l1, l2, l3 = (member_literal(m, nxt, h) for m in group.members)
            out.append(ProofLine(False, (y, l1, l2, l3)))
            out.append(ProofLine(False, (-y, -l1)))
            out.append(ProofLine(False, (-y, -l2)))
            out.append(ProofLine(False, (-y, -l3)))
    return out


def derived_group_clauses(plan: IterationPlan) -> list[ProofLine]:
    """Pairwise constraints inside every group of the new layer.

    For members l_i, l_j (i < j) the clause is (-l_j, -l_i): the literal
    with the larger pigeon index is the pivot.  Requires the iteration's
    definition clauses to be in the working formula already.
    """
    chain = plan.group_layout
    if chain is None:
        raise ValueError("derived group clauses need a group layout")
    nxt = plan.next
    out: list[ProofLine] = []
    for h in range(1, plan.k + 1):
        for group in chain.groups:
            members = [member_literal(m, nxt, h) for m in group.members]
            count = len(members)
            for i in range(count):
                for j in range(i + 1, count):
                    out.append(ProofLine(False, (-members[j], -members[i])))
    return out


def alo_clauses(plan: IterationPlan) -> list[ProofLine]:
    """At-least-one clause per remaining pigeon; RUP once the rest is in."""
    k = plan.k
    nxt = plan.next
    return [
        ProofLine(False, tuple(nxt.x_var(p, h) for h in range(1, k + 1)))
        for p in range(k + 1)
    ]


Builder = Callable[[IterationPlan], list[ProofLine]]
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
) -> Iterator[tuple[str, int, Iterable[ProofLine]]]:
    """Stream a family's refutation of ``php_standard(n)`` as (tag, k, lines).

    Iteration k yields one list per builder of the family, in table order.
    With ``emit_deletions`` it then yields a ``delete`` block removing layer
    k+1 -- the additions of iteration k+1, rebuilt by the same builders, or
    the input formula when k = n-1 -- since nothing below iteration k ever
    looks at that layer again.  Deletions never change whether the proof
    checks.  A delete block is a one-shot iterator, so the input formula of
    a large instance is never held in memory.  The empty clause closes the
    stream as its own block, tagged ``empty`` with k = 0.
    """
    _check_n(n, minimum=2)
    chained, builders = family
    plans = _plans(n, chained)
    for k in range(n - 1, 0, -1):
        for tag, build in builders:
            yield tag, k, build(plans[k])
        if emit_deletions:
            spent = (
                iter_php_standard_clauses(n)
                if k == n - 1
                else (
                    line.lits for _, build in builders for line in build(plans[k + 1])
                )
            )
            yield DELETE, k, (ProofLine(True, lits) for lits in spent)
    yield EMPTY, 0, (EMPTY_CLAUSE_LINE,)


def iter_proof_lines(n: int, emit_deletions: bool = False) -> Iterator[ProofLine]:
    """Stream the whole refutation without materialising it."""
    for _, _, block in iter_blocks(n, OURS, emit_deletions):
        yield from block


def iter_tagged_lines(
    n: int, emit_deletions: bool = False
) -> Iterator[tuple[str, int, ProofLine]]:
    """Like :func:`iter_proof_lines` but yielding (tag, k, line) triples."""
    for tag, k, block in iter_blocks(n, OURS, emit_deletions):
        for line in block:
            yield tag, k, line


def generate_ours(n: int, emit_deletions: bool = False) -> Proof:
    """The full chained-group refutation of ``php_standard(n)``."""
    return Proof(tuple(iter_proof_lines(n, emit_deletions)))
