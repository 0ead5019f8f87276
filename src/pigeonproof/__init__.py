"""Pigeonhole CNF generators, DRAT proof generators, and a forward checker.

Every public name is loaded from its module on first use (PEP 562), so
``import pigeonproof`` imports no submodule and ``pigeonproof check`` loads
only the modules that checking needs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The public names of each submodule; the one list of the package's exports.
_EXPORTS = {
    "checker": (
        "ACCEPTED",
        "DEFAULT_BACKEND",
        "HAVE_NATIVE",
        "INCOMPLETE",
        "REJECTED",
        "Verdict",
        "check_rat",
        "check_rup",
        "new_database",
        "verify",
    ),
    "counts": (
        "cook_iteration_count",
        "count_cook",
        "count_cook_breakdown",
        "count_ours",
        "count_ours_breakdown",
        "f_group",
        "ours_iteration_count",
    ),
    "encodings": ("group_count", "groups", "layer_layout", "php_amo", "php_standard"),
    "formats": ("emit_dimacs", "emit_drat", "parse_dimacs", "parse_drat"),
    "model": ("Clause", "CnfFormula", "Proof", "ProofLine", "count_added"),
    "proof_cook": ("cook_pair_clauses", "generate_cook"),
    "proof_ours": (
        "alo_clauses",
        "definition_clauses",
        "derived_group_clauses",
        "generate_ours",
        "iteration_plan",
        "y_definition_clauses",
    ),
    "propagation": ("ClauseDatabase", "propagate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
