"""Package metadata for ``repro`` (setuptools).

The sources live under ``src/``.  ``pip install -e .`` installs the package
and the ``repro-er`` console script.  On hosts without the ``wheel`` package,
where pip cannot build an editable install, ``python setup.py develop`` does
the same job.

The ``compiled`` extra pulls in numba for the optional compiled walk-kernel
backend (``pip install repro[compiled]``); without it the engine runs the
bit-identical numpy reference kernels (see DESIGN.md Contract 9).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def _version() -> str:
    """``repro.__version__``, read without importing the package."""
    init = (Path(__file__).resolve().parent / "src" / "repro" / "__init__.py").read_text(
        encoding="utf-8"
    )
    return re.search(r'^__version__ = "([^"]+)"', init, re.MULTILINE).group(1)


setup(
    name="repro",
    version=_version(),
    description="Efficient estimation of pairwise effective resistance",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    python_requires=">=3.10",
    extras_require={
        "compiled": ["numba>=0.57"],
    },
    entry_points={
        "console_scripts": ["repro-er = repro.cli:main"],
    },
)
