"""Packaging for the Teapot reproduction (works offline: no fetch needed)."""

import os
import re

from setuptools import find_packages, setup


def read_version() -> str:
    """The package version, read textually from ``src/repro/_version.py``.

    Same string ``repro.__version__`` and ``repro --version`` report; read
    without importing so packaging never executes the library.
    """
    path = os.path.join(os.path.dirname(__file__), "src", "repro", "_version.py")
    with open(path, "r", encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.M)
    if match is None:
        raise RuntimeError(f"no __version__ string in {path}")
    return match.group(1)


setup(
    name="teapot-repro",
    version=read_version(),
    description=(
        "Reproduction of 'Teapot: Efficiently Uncovering Spectre Gadgets "
        "in COTS Binaries' (CGO 2025) with campaign-scale fuzzing, "
        "report-guided hardening, and a unified repro.api pipeline facade"
    ),
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    entry_points={
        "console_scripts": [
            "repro=repro.api.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Security",
        "Topic :: Software Development :: Testing",
    ],
)
