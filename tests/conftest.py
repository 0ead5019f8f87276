"""Session fixtures: the compiled core built from source, and the backends.

The suite runs from ``src/`` without a build step, so ``_fastcheck.c`` is
compiled into a temporary directory once per session.  Under gcc and clang
warnings are errors, and the undefined-behaviour sanitizer aborts the test
process at the first fault it finds.  Every ``backend="native"`` test runs
on that build, never on a prebuilt extension that may be stale, and is
skipped when no C compiler is found.  CLI children run on a copy of the
package with or without that build (``package_with_core``), so each path of
the CLI is tested whatever the source tree holds.
"""

import importlib.util
import os
import re
import shlex
import shutil
import sysconfig
from pathlib import Path

import pytest

from pigeonproof import checker

SOURCE = Path(checker.__file__).with_name("_fastcheck.c")
STRICT_WARNINGS = ["-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror"]
SANITIZE = ["-fsanitize=undefined", "-fno-sanitize-recover=all"]
BACKENDS = ("python", "native")


def _compiler() -> str | None:
    """The resolved path of the C compiler build_ext runs, or None."""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    found = shutil.which(shlex.split(cc)[0])
    return found and os.path.realpath(found)


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The ``_fastcheck`` module compiled from the source tree, or None when
    no C compiler is found."""
    compiler = _compiler()
    if compiler is None:
        return None
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("fastcheck")
    flags, link = ["-O2"], []
    if re.search("gcc|clang", Path(compiler).name):
        flags += STRICT_WARNINGS + SANITIZE
        link += SANITIZE
    ext = Extension(
        "_fastcheck", [str(SOURCE)], extra_compile_args=flags, extra_link_args=link
    )
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


@pytest.fixture(scope="session")
def fastcheck(compiled):
    """The freshly compiled core; skips the test when there is none."""
    if compiled is None:
        pytest.skip("no C compiler found")
    return compiled


@pytest.fixture
def native(fastcheck, monkeypatch):
    """Make ``backend="native"`` use the freshly compiled core."""
    monkeypatch.setattr(checker, "_fastcheck", fastcheck)
    monkeypatch.setattr(checker, "HAVE_NATIVE", True)


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Each backend name, the native one on the freshly compiled core."""
    if request.param == "native":
        request.getfixturevalue("native")
    return request.param


@pytest.fixture
def backends(request, compiled):
    """Every backend this session can run, the native one on the freshly
    compiled core; for tests that compare all backends in one example."""
    if compiled is None:
        return ["python"]
    request.getfixturevalue("native")
    return list(BACKENDS)


def package_with_core(core, root: Path) -> Path:
    """A copy of the package under ``root/src`` holding the compiled module
    ``core``, or no compiled core when ``core`` is None."""
    package = root / "src" / "pigeonproof"
    shutil.copytree(SOURCE.parent, package, ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    if core is not None:
        shutil.copy2(core.__file__, package)
    return package.parent


@pytest.fixture
def cli_srcs(compiled, tmp_path):
    """``(backend, src)`` for every backend this session can run: a copy of
    the package under ``src`` for CLI children, the native one holding the
    freshly compiled core."""
    cores = {"python": None, "native": compiled}
    return [
        (name, package_with_core(core, tmp_path / name))
        for name, core in cores.items()
        if name == "python" or core is not None
    ]
