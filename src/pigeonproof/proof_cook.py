"""Quartic-size baseline DRAT refutation with pairwise inner layers.

Same layer-by-layer reduction as the chained-group proof, and the same
driver (:func:`proof_ours.iter_blocks`), but every inner layer keeps the
pairwise hole encoding: each iteration adds the four definition clauses for
every fresh variable, no pigeon exempt (``proof_ours.definition_clauses`` on
a plan without a group layout), then for every pair of fresh variables
sharing a hole a helper clause followed by the pairwise target -- both
plain RUP -- and finally the at-least-one clauses.
"""

from __future__ import annotations

from typing import Iterator

from .model import Proof, ProofLine
from .proof_ours import (
    ALO,
    DEFINITION,
    Family,
    IterationPlan,
    alo_clauses,
    definition_clauses,
    iter_blocks,
)

PAIR = "pair"


def cook_pair_clauses(plan: IterationPlan) -> list[ProofLine]:
    """Pairwise at-most-one constraints on the new layer, two clauses a pair.

    The helper (-x'_{ph}, -x'_{qh}, -x_{p(k+1)}) rules out "pigeon p came
    from the removed hole"; with it in place the target (-x'_{ph}, -x'_{qh})
    propagates to a conflict as well, so neither clause needs a resolvent
    check.
    """
    k = plan.k
    prev, nxt = plan.prev, plan.next
    removed_hole = k + 1
    out: list[ProofLine] = []
    for h in range(1, k + 1):
        for p in range(k + 1):
            xp = nxt.x_var(p, h)
            x_moved = prev.x_var(p, removed_hole)
            for q in range(p + 1, k + 1):
                xq = nxt.x_var(q, h)
                out.append(ProofLine(False, (-xp, -xq, -x_moved)))
                out.append(ProofLine(False, (-xp, -xq)))
    return out


COOK: Family = (
    False,
    ((DEFINITION, definition_clauses), (PAIR, cook_pair_clauses), (ALO, alo_clauses)),
)


def iter_proof_lines(n: int, emit_deletions: bool = False) -> Iterator[ProofLine]:
    """Stream the pairwise-style refutation of ``php_standard(n)``."""
    for _, _, block in iter_blocks(n, COOK, emit_deletions):
        yield from block


def iter_tagged_lines(
    n: int, emit_deletions: bool = False
) -> Iterator[tuple[str, int, ProofLine]]:
    """Like :func:`iter_proof_lines` but yielding (tag, k, line) triples."""
    for tag, k, block in iter_blocks(n, COOK, emit_deletions):
        for line in block:
            yield tag, k, line


def generate_cook(n: int, emit_deletions: bool = False) -> Proof:
    """The full pairwise-style refutation of ``php_standard(n)``."""
    return Proof(tuple(iter_proof_lines(n, emit_deletions)))
