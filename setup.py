"""Build script for the optional compiled convolution core.

The core is built from the committed, generated ``src/qmiheat/_convcore.c``
and needs only a C compiler and the numpy headers.  After editing
``_convcore.pyx``, regenerate the C file with
``cython src/qmiheat/_convcore.pyx``.  Where the extension does not build,
the package installs without it and runs the numpy implementation.
"""

import numpy
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "qmiheat._convcore",
            ["src/qmiheat/_convcore.c"],
            include_dirs=[numpy.get_include()],
            extra_compile_args=["-O3"],
            define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
            optional=True,
        )
    ]
)
