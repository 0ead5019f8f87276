import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pigeonproof
from pigeonproof.cli import main

SRC = Path(pigeonproof.__file__).resolve().parent.parent

#: Modules no CLI run loads: the CLI parses its argv without ``argparse``,
#: whose help translation imports ``gettext`` and ``locale``.
CLI_NEVER_LOADS = {"argparse", "gettext", "locale"}

#: Modules a ``check`` run must not load: the generators, the counting
#: formulas and ``dataclasses`` (which imports ``inspect``).
CHECK_NEVER_LOADS = CLI_NEVER_LOADS | {
    "dataclasses",
    "pigeonproof.counts",
    "pigeonproof.encodings",
    "pigeonproof.proof_cook",
    "pigeonproof.proof_ours",
}

#: Modules an accepted ``check`` must not load on the compiled core as well:
#: the core reads the CNF and the proof, so neither the Python engine nor
#: the text formats and their data model are needed.
NATIVE_CHECK_NEVER_LOADS = CHECK_NEVER_LOADS | {
    "pigeonproof.formats",
    "pigeonproof.model",
    "pigeonproof.propagation",
}

#: Modules a ``gen-proof`` run must not load: ``dataclasses``, ``fractions``
#: and the checker.
GEN_NEVER_LOADS = CLI_NEVER_LOADS | {
    "dataclasses",
    "fractions",
    "pigeonproof.checker",
    "pigeonproof.propagation",
}

#: The package modules a ``gen-proof`` or ``gen-cnf`` run loads on the
#: compiled core, which builds and writes the whole proof or formula: the
#: builders, the encodings, their data model and the text formats stay
#: unloaded.
NATIVE_GEN_LOADS = {
    "pigeonproof", "pigeonproof.cli", "pigeonproof._argv", "pigeonproof._fastcheck",
}

#: Modules a ``count`` run must not load: the closed forms are integer
#: numerators, so neither ``fractions`` (and ``decimal``) nor ``dataclasses``.
COUNT_NEVER_LOADS = GEN_NEVER_LOADS | {"decimal", "pigeonproof.proof_ours"}

#: The package modules a ``count`` run loads: the counts need neither the
#: encodings nor their data model.
COUNT_LOADS = {"pigeonproof", "pigeonproof.cli", "pigeonproof._argv", "pigeonproof.counts"}

#: The top level: the paper's workflow of encoding, generating, counting,
#: writing, reading and checking proofs.
TOP_LEVEL = {
    "php_standard", "php_amo",
    "generate_ours", "generate_cook",
    "count_ours", "count_cook",
    "verify", "Verdict", "ACCEPTED", "REJECTED", "INCOMPLETE", "DEFAULT_BACKEND",
    "CnfFormula", "Proof", "ProofLine",
    "emit_dimacs", "emit_drat", "parse_dimacs", "parse_drat",
}

#: Construction and engine internals, each importable from its own module only.
INTERNALS = {
    "checker": ("HAVE_NATIVE", "new_database"),
    "counts": (
        "cook_iteration_count",
        "count_cook_breakdown",
        "count_ours_breakdown",
        "f_group",
        "ours_iteration_count",
    ),
    "encodings": ("group_count", "group_members", "layer_layout"),
    "model": ("Clause", "count_added"),
    "proof_cook": ("cook_pair_clauses",),
    "proof_ours": (
        "alo_clauses",
        "definition_clauses",
        "derived_group_clauses",
        "iteration_plan",
        "y_definition_clauses",
    ),
    "propagation": ("ClauseDatabase",),
}


def loaded_by(code: str, src: Path = SRC) -> tuple[str, set[str]]:
    """Last output line of ``code`` in a fresh interpreter with ``src`` on its
    path, and the modules it loaded that were not loaded at start-up."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    *out, modules = result.stdout.splitlines()
    return out[-1] if out else "", set(modules.split())


def loaded_by_check(work: Path, src: Path = SRC) -> tuple[bool, set[str]]:
    """``HAVE_NATIVE`` in a fresh interpreter, and the modules that importing
    the CLI and checking a PHP(3) proof with ``cli.main`` loaded there."""
    cnf, proof = work / "php3.cnf", work / "php3.drat"
    main(["gen-cnf", "3", "--out", str(cnf)])
    main(["gen-proof", "3", "--out", str(proof)])
    code = (
        "from pigeonproof import cli\n"
        f"assert cli.main(['check', {str(cnf)!r}, {str(proof)!r}]) == 0\n"
        "from pigeonproof import checker\n"
        "print(checker.HAVE_NATIVE)"
    )
    have_native, modules = loaded_by(code, src)
    return have_native == "True", modules


def test_top_level_is_the_workflow_api():
    assert len(pigeonproof.__all__) == 19
    assert set(pigeonproof.__all__) == TOP_LEVEL


@pytest.mark.parametrize("module", sorted(INTERNALS))
def test_internals_import_from_their_module_only(module):
    loaded = importlib.import_module(f"pigeonproof.{module}")
    for name in INTERNALS[module]:
        assert hasattr(loaded, name), name
        assert not hasattr(pigeonproof, name), name


def test_compiled_core_exports_only_what_is_used(fastcheck):
    # checker builds a FastDatabase, and cli writes gen-cnf's formula with
    # write_cnf and gen-proof's proof with write_proof; a native entry point
    # that no caller uses fails here.
    public = {name for name in dir(fastcheck) if not name.startswith("_")}
    assert public == {"FastDatabase", "write_cnf", "write_proof"}


def test_python_engine_has_the_public_names_of_the_core(fastcheck):
    # The pure-Python engine is the twin of FastDatabase; only the one-call
    # file check is native alone.
    from pigeonproof.propagation import ClauseDatabase

    def public(db):
        return {name for name in dir(db) if not name.startswith("_")}

    assert public(ClauseDatabase()) == public(fastcheck.FastDatabase()) - {"check_drat"}


def test_removed_wrappers_are_gone():
    from pigeonproof import checker, model

    assert not hasattr(checker, "check_rup")
    assert not hasattr(checker, "check_rat")
    assert not hasattr(model, "iter_lines")
    assert checker.select_backend("python") == "python"
    with pytest.raises(ValueError):
        checker.select_backend("auto")


def test_every_export_resolves():
    missing = [name for name in pigeonproof.__all__ if not hasattr(pigeonproof, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(pigeonproof.__all__) == len(set(pigeonproof.__all__))


def test_dir_covers_every_export():
    assert set(pigeonproof.__all__) <= set(dir(pigeonproof))


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(pigeonproof, "no_such_name")


def test_import_loads_no_submodule():
    _, modules = loaded_by("import pigeonproof")
    assert "pigeonproof" in modules
    assert {m for m in modules if m.startswith("pigeonproof.")} == set()


def test_check_loads_only_the_check_path(tmp_path):
    have_native, modules = loaded_by_check(tmp_path)
    assert "pigeonproof.checker" in modules
    assert modules & CHECK_NEVER_LOADS == set()
    if have_native:
        assert modules & NATIVE_CHECK_NEVER_LOADS == set()


def test_gen_proof_loads_no_checker_and_no_dataclasses(cli_srcs, tmp_path):
    # Without the compiled core the Python builders write the proof; with it
    # the core does, and no other module of the package loads.
    for args in ([], ["--style", "cook", "--deletions"]):
        code = (
            "from pigeonproof import cli\n"
            f"assert cli.main(['gen-proof', '4', *{args!r}, '--out', {str(tmp_path / 'p.drat')!r}]) == 0"
        )
        for backend, src in cli_srcs:
            _, modules = loaded_by(code, src)
            assert modules & GEN_NEVER_LOADS == set()
            package = {m for m in modules if m.split(".")[0] == "pigeonproof"}
            if backend == "python":
                assert "pigeonproof.proof_ours" in package
            else:
                assert package == NATIVE_GEN_LOADS, args


def test_gen_cnf_loads_only_the_core_or_the_encodings(cli_srcs, tmp_path):
    # Without the compiled core the Python encodings and formats write the
    # formula; with it the core does, and no other module of the package loads.
    for encoding in ("standard", "amo"):
        code = (
            "from pigeonproof import cli\n"
            f"assert cli.main(['gen-cnf', '6', '--encoding', {encoding!r}, "
            f"'--out', {str(tmp_path / 'php.cnf')!r}]) == 0"
        )
        for backend, src in cli_srcs:
            _, modules = loaded_by(code, src)
            assert modules & GEN_NEVER_LOADS == set()
            package = {m for m in modules if m.split(".")[0] == "pigeonproof"}
            if backend == "python":
                assert {"pigeonproof.encodings", "pigeonproof.formats"} <= package
            else:
                assert package == NATIVE_GEN_LOADS, encoding


@pytest.mark.parametrize("extra", [[], ["--breakdown"], ["--style", "cook", "--breakdown"]])
def test_count_loads_neither_fractions_nor_dataclasses(extra):
    code = f"from pigeonproof import cli\nassert cli.main(['count', '60', *{extra!r}]) == 0"
    _, modules = loaded_by(code)
    assert modules & COUNT_NEVER_LOADS == set()
    assert {m for m in modules if m.split(".")[0] == "pigeonproof"} == COUNT_LOADS
