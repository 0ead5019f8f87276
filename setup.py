import compileall
from py_compile import PycInvalidationMode

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class build_ext_and_bytecode(build_ext):
    """Build the extensions, then byte-compile the package if built in place.

    Without bytecode in the tree, a CLI child compiles every module it
    imports from source whenever the environment forbids writing bytecode;
    ``pip install`` byte-compiles an installed copy itself.  Checked-hash
    pycs (PEP 552) are validated against the source's hash, not its mtime,
    so an edit that keeps a file's size and mtime is still seen.  ``force``
    rewrites the timestamp pycs that an earlier run may have left, which
    ``compileall`` would otherwise keep while they match the mtime.
    """

    def run(self):
        super().run()
        if self.inplace:
            compileall.compile_dir(
                "src/pigeonproof",
                force=True,
                quiet=1,
                invalidation_mode=PycInvalidationMode.CHECKED_HASH,
            )


# The compiled checking core is optional: without a C compiler the build
# still succeeds and pigeonproof runs on its pure-Python engine.
setup(
    ext_modules=[
        Extension(
            "pigeonproof._fastcheck",
            ["src/pigeonproof/_fastcheck.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": build_ext_and_bytecode},
)
