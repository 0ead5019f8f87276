"""The compiled checking core, built from source and held to the Python engine.

The suite runs from ``src/`` without a build step, so this module compiles
``_fastcheck.c`` into a temporary directory once per session and loads it
from there.  It is skipped when no C compiler is found.
"""

import importlib.util
import os
import random
import shlex
import shutil
import sysconfig
from pathlib import Path

import pytest

from pigeonproof import ProofLine, checker, php_standard, proof_cook, proof_ours, verify
from pigeonproof.propagation import ClauseDatabase

SOURCE = Path(checker.__file__).with_name("_fastcheck.c")


def _have_compiler() -> bool:
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(shlex.split(cc)[0]) is not None


@pytest.fixture(scope="session")
def fastcheck(tmp_path_factory):
    """The ``_fastcheck`` module compiled from the source tree."""
    if not _have_compiler():
        pytest.skip("no C compiler found")
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("fastcheck")
    ext = Extension("_fastcheck", [str(SOURCE)], extra_compile_args=["-O2"])
    cmd = build_ext(Distribution({"ext_modules": [ext]}))
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "_fastcheck", cmd.get_ext_fullpath("_fastcheck")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def native(fastcheck, monkeypatch):
    """Make ``backend="native"`` use the freshly compiled core."""
    monkeypatch.setattr(checker, "_fastcheck", fastcheck)
    monkeypatch.setattr(checker, "HAVE_NATIVE", True)


@pytest.fixture(params=["python", "native"])
def engine(request):
    """The database class of either backend."""
    if request.param == "native":
        return request.getfixturevalue("fastcheck").FastDatabase
    return ClauseDatabase


def test_api_boundary_is_the_same_on_both_engines(engine):
    db = engine()
    assert db.add_clause([1, 2]) == 0
    assert db.add_clause([-1]) == 1
    for cid in (2, 10**9, -1, -(10**9), 10**30):
        with pytest.raises(IndexError):
            db.delete_clause(cid)
        with pytest.raises(IndexError):
            db.clause(cid)
    for lits in ([2**40], [1, -(2**31)], [2**31], [0], [3, 0], [2**100]):
        for method in (db.add_clause, db.rup, db.rat):
            with pytest.raises(ValueError):
                method(lits)
    with pytest.raises(TypeError):
        db.rup(["1"])
    with pytest.raises(IndexError):
        db.rat([])
    # Rejected calls change nothing.
    assert len(db) == 2
    assert db.clause(0) == (1, 2)
    assert db.snapshot() == ()
    assert db.rup([2]) and not db.rup([3])
    db.delete_clause(1)
    db.delete_clause(1)
    assert len(db) == 1
    assert not db.rup([2])
    assert db.snapshot() == ()


@pytest.mark.parametrize("n", range(2, 9))
def test_verify_agrees_with_python_engine(n, native):
    formula = php_standard(n)
    for module in (proof_ours, proof_cook):
        for deletions in (False, True):
            lines = list(module.iter_proof_lines(n, emit_deletions=deletions))
            got = verify(formula, lines, strict_deletions=True, backend="native")
            want = verify(formula, lines, strict_deletions=True, backend="python")
            assert got.accepted
            assert (got.status, got.line) == (want.status, want.line)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_sign_flip_mutations_agree_with_python_engine(n, native):
    # Single-literal sign flips on derived clauses, as in acceptance criterion 6.
    formula = php_standard(n)
    base = list(proof_ours.iter_proof_lines(n))
    derived = [
        index
        for index, (tag, _, _) in enumerate(proof_ours.iter_tagged_lines(n))
        if tag == "derived"
    ]
    rng = random.Random(60_000 + n)
    for _ in range(20):
        index = rng.choice(derived)
        lits = list(base[index].lits)
        position = rng.randrange(len(lits))
        lits[position] = -lits[position]
        mutated = base[:index] + [ProofLine(False, tuple(lits))] + base[index + 1 :]
        got = verify(formula, mutated, backend="native")
        want = verify(formula, mutated, backend="python")
        assert (got.status, got.line) == (want.status, want.line)


def _same(dbs, method, lits) -> bool:
    (result,) = {getattr(db, method)(lits) for db in dbs}
    assert [db.snapshot() for db in dbs] == [(), ()]
    return result


@pytest.mark.parametrize("module", (proof_ours, proof_cook), ids=("ours", "cook"))
def test_lockstep_replay_matches_python_engine(module, fastcheck):
    """Both engines take every call of a check with deletions side by side.

    RAT is also tried on every addition with its literals reversed, which
    often fails, so failing checks are compared too; the assignment must be
    clean after each call.
    """
    python, native = dbs = (ClauseDatabase(), fastcheck.FastDatabase())
    by_key: dict[tuple[int, ...], list[int]] = {}
    ids = []

    def add(lits):
        (cid,) = {db.add_clause(lits) for db in dbs}
        ids.append(cid)
        by_key.setdefault(tuple(sorted(lits)), []).append(cid)

    for clause in php_standard(4).clauses:
        add(clause)
    for line in module.iter_proof_lines(4, emit_deletions=True):
        lits = list(line.lits)
        if line.delete:
            cid = by_key[tuple(sorted(lits))].pop()
            for db in dbs:
                db.delete_clause(cid)
        elif not lits:
            assert _same(dbs, "rup", lits)
            break
        else:
            _same(dbs, "rat", lits[::-1])
            assert _same(dbs, "rup", lits) or _same(dbs, "rat", lits)
            add(lits)
        assert len(python) == len(native)
    # Watches move literals in place; both engines must move them alike.
    assert [python.clause(cid) for cid in ids] == [native.clause(cid) for cid in ids]
