"""Pigeonhole CNF generators, DRAT proof generators, and a forward checker.

The top level holds the paper's workflow: encode PHP(n) (``php_standard``,
``php_amo``), generate a proof (``generate_ours``, ``generate_cook``), count
it (``count_ours``, ``count_cook``), write and read it (``emit_*``,
``parse_*``) and check it (``verify``).  Construction and engine internals
stay in their modules: the clause builders and layouts in ``proof_ours``,
``proof_cook`` and ``encodings``, the per-iteration counts in ``counts``,
the databases in ``checker`` and ``propagation``.

Every public name is loaded from its module on first use (PEP 562), so
``import pigeonproof`` imports no submodule and ``pigeonproof check`` loads
only the modules that checking needs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Largest n the generators accept, a memory guard.  It lives here because
#: every path loads this module: the CLI checks n before it opens ``--out``,
#: also when the compiled core generates the proof and no other module loads.
MAX_N = 5000


def _check_n(n: int, minimum: int) -> None:
    if n < minimum:
        raise ValueError(f"n >= {minimum} is required, got {n}")
    if n > MAX_N:
        raise ValueError(f"n > {MAX_N} is not supported (memory guard)")


#: The top-level names of each submodule; the one list of the package's exports.
_EXPORTS = {
    "checker": ("ACCEPTED", "DEFAULT_BACKEND", "INCOMPLETE", "REJECTED", "Verdict", "verify"),
    "counts": ("count_cook", "count_ours"),
    "encodings": ("php_amo", "php_standard"),
    "formats": ("emit_dimacs", "emit_drat", "parse_dimacs", "parse_drat"),
    "model": ("CnfFormula", "Proof", "ProofLine"),
    "proof_cook": ("generate_cook",),
    "proof_ours": ("generate_ours",),
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
