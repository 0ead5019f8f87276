"""Quartic-size baseline DRAT refutation with pairwise inner layers.

Same layer-by-layer reduction as the chained-group proof, and the same
driver (:func:`proof_ours.iter_blocks`), but every inner layer keeps the
pairwise hole encoding: each iteration adds the four definition clauses for
every fresh variable, no pigeon exempt (``proof_ours.definition_clauses`` on
a plan that is not chained), then for every pair of fresh variables
sharing a hole a helper clause followed by the pairwise target -- both
plain RUP -- and finally the at-least-one clauses.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .model import HoleRows, Proof, ProofLine
from .proof_ours import (
    ALO,
    DEFINITION,
    Family,
    IterationPlan,
    alo_clauses,
    definition_clauses,
    family_lines,
    family_tagged_lines,
)

PAIR = "pair"


def cook_pair_clauses(plan: IterationPlan) -> HoleRows:
    """Pairwise at-most-one constraints on the new layer, two clauses a pair.

    The helper (-x'_{ph}, -x'_{qh}, -x_{p(k+1)}) rules out "pigeon p came
    from the removed hole"; with it in place the target (-x'_{ph}, -x'_{qh})
    propagates to a conflict as well, so neither clause needs a resolvent
    check.  Both are rows over the holes; -x_{p(k+1)} is the same in each.
    """
    k = plan.k
    prev, nxt = plan.prev, plan.next
    negated = [(-nxt.x_var(p, 1), -1) for p in range(k + 1)]
    rows = []
    for p, q in combinations(range(k + 1), 2):
        pair = (negated[p], negated[q])
        rows += [(*pair, -prev.x_var(p, k + 1)), pair]
    return HoleRows([(k, tuple(rows))])


COOK: Family = (
    False,
    ((DEFINITION, definition_clauses), (PAIR, cook_pair_clauses), (ALO, alo_clauses)),
)


def iter_proof_lines(n: int, emit_deletions: bool = False) -> Iterator[ProofLine]:
    """Stream the pairwise-style refutation of ``php_standard(n)``."""
    return family_lines(n, COOK, emit_deletions)


def iter_tagged_lines(
    n: int, emit_deletions: bool = False
) -> Iterator[tuple[str, int, ProofLine]]:
    """Like :func:`iter_proof_lines` but yielding (tag, k, line) triples."""
    return family_tagged_lines(n, COOK, emit_deletions)


def generate_cook(n: int, emit_deletions: bool = False) -> Proof:
    """The full pairwise-style refutation of ``php_standard(n)``."""
    return Proof(tuple(iter_proof_lines(n, emit_deletions)))
