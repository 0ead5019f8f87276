from setuptools import Extension, setup

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
    ]
)
