"""Pigeonhole CNF generators, DRAT proof generators, and a forward checker."""

from .checker import (
    ACCEPTED,
    DEFAULT_BACKEND,
    HAVE_NATIVE,
    INCOMPLETE,
    REJECTED,
    Verdict,
    check_rat,
    check_rup,
    new_database,
    verify,
)
from .counts import (
    cook_iteration_count,
    count_cook,
    count_cook_breakdown,
    count_ours,
    count_ours_breakdown,
    f_group,
    ours_iteration_count,
)
from .encodings import (
    group_count,
    groups,
    layer_layout,
    php_amo,
    php_standard,
)
from .formats import emit_dimacs, emit_drat, parse_dimacs, parse_drat
from .model import Clause, CnfFormula, Proof, ProofLine, count_added
from .proof_cook import cook_pair_clauses, generate_cook
from .proof_ours import (
    alo_clauses,
    definition_clauses,
    derived_group_clauses,
    generate_ours,
    iteration_plan,
    y_definition_clauses,
)
from .propagation import ClauseDatabase, propagate

__version__ = "0.1.0"

__all__ = [
    "ACCEPTED",
    "Clause",
    "ClauseDatabase",
    "CnfFormula",
    "DEFAULT_BACKEND",
    "HAVE_NATIVE",
    "INCOMPLETE",
    "Proof",
    "ProofLine",
    "REJECTED",
    "Verdict",
    "alo_clauses",
    "check_rat",
    "check_rup",
    "cook_iteration_count",
    "cook_pair_clauses",
    "count_added",
    "count_cook",
    "count_cook_breakdown",
    "count_ours",
    "count_ours_breakdown",
    "definition_clauses",
    "derived_group_clauses",
    "emit_dimacs",
    "emit_drat",
    "f_group",
    "generate_cook",
    "generate_ours",
    "group_count",
    "groups",
    "iteration_plan",
    "layer_layout",
    "new_database",
    "ours_iteration_count",
    "parse_dimacs",
    "parse_drat",
    "php_amo",
    "php_standard",
    "propagate",
    "verify",
    "y_definition_clauses",
]
