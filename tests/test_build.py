"""The in-place build: ``setup.py build_ext --inplace`` byte-compiles the
package into ``__pycache__`` with checked-hash pycs (PEP 552), so a CLI child
of a built tree compiles no Python even when writing bytecode is off."""

import compileall
import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from py_compile import PycInvalidationMode

import pytest

import pigeonproof
from pigeonproof.cli import main

SRC = Path(pigeonproof.__file__).resolve().parent.parent
ROOT = SRC.parent

#: The flags word of a checked-hash pyc: hash-based (bit 0), source checked
#: on import (bit 1).
CHECKED_HASH = 3


def build_copy(root, run_before=False):
    """Copy the tree to ``root``, build it in place without a C compiler and
    return its ``src``: ``CC=false`` fails the optional core at once, so the
    build writes only the bytecode.  With ``run_before``, the copy first gets
    the timestamp pycs that a run with bytecode writing on leaves."""
    if not (ROOT / "setup.py").is_file():
        pytest.skip("the package is not run from a source tree")
    shutil.copytree(SRC, root / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info", "*.so"))
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy2(ROOT / name, root / name)
    if run_before:
        assert compileall.compile_dir(root / "src" / "pigeonproof", quiet=1,
                                      invalidation_mode=PycInvalidationMode.TIMESTAMP)
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=root, env={**os.environ, "CC": "false"}, capture_output=True, check=True,
    )
    return root / "src"


@pytest.fixture
def built(tmp_path):
    return build_copy(tmp_path)


def assert_checked_hash_bytecode(package):
    modules = sorted(package.glob("*.py"))
    assert modules
    for source in modules:
        header = Path(importlib.util.cache_from_source(source)).read_bytes()[:8]
        assert header[:4] == importlib.util.MAGIC_NUMBER, source.name
        assert int.from_bytes(header[4:], "little") == CHECKED_HASH, source.name


def child(src, *args, verbose=False):
    """A Python child with the package at ``src`` and bytecode writing off."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *(["-v"] if verbose else []), *args],
        env=env, capture_output=True, text=True, check=True,
    )


def test_build_writes_checked_hash_bytecode_for_every_module(built):
    package = built / "pigeonproof"
    assert not list(package.glob("*.so"))
    assert_checked_hash_bytecode(package)


def test_build_replaces_the_timestamp_bytecode_of_an_earlier_run(tmp_path):
    assert_checked_hash_bytecode(build_copy(tmp_path, run_before=True) / "pigeonproof")


def test_check_child_of_a_built_tree_loads_every_module_from_bytecode(built, tmp_path):
    cnf, proof = tmp_path / "php3.cnf", tmp_path / "php3.drat"
    main(["gen-cnf", "3", "--out", str(cnf)])
    main(["gen-proof", "3", "--out", str(proof)])
    result = child(built, "-m", "pigeonproof.cli", "check", str(cnf), str(proof), verbose=True)
    assert result.stdout.strip() == "ACCEPTED"
    package = built / "pigeonproof"
    # ``-m`` runs ``cli`` as ``__main__``, which ``-v`` reports as no import.
    imported = {"cli"} | set(re.findall(r"^import 'pigeonproof\.(\w+)'", result.stderr, re.M))
    if re.search(r"^import 'pigeonproof'", result.stderr, re.M):
        imported.add("__init__")
    assert {"__init__", "_argv", "checker"} <= imported
    loaded = [Path(path) for path in
              re.findall(r"^# code object from '?(.*?)'?$", result.stderr, re.M)
              if Path(path).parent in (package, package / "__pycache__")]
    assert all(path.parent.name == "__pycache__" for path in loaded), loaded
    assert {path.name.split(".")[0] for path in loaded} == imported


def test_built_tree_sees_an_edit_that_keeps_size_and_mtime(built):
    # A timestamp pyc records the source's mtime and size only, so it would
    # hide this edit; a checked-hash pyc is checked against the source.
    init = built / "pigeonproof" / "__init__.py"
    code = "import pigeonproof; print(pigeonproof.__version__)"
    version = pigeonproof.__version__
    assert child(built, "-c", code).stdout.strip() == version
    stat = init.stat()
    text = init.read_text()
    edited = text.replace(f'__version__ = "{version}"', f'__version__ = "{"x" * len(version)}"')
    assert edited != text and len(edited) == len(text)
    init.write_text(edited)
    os.utime(init, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert init.stat().st_size == stat.st_size
    assert child(built, "-c", code).stdout.strip() == "x" * len(version)
