"""Project metadata for ``pip install -e .``.

This file is the only packaging metadata the repository has (there is no
``pyproject.toml``); a plain ``setup.py`` also installs in fully offline
environments whose setuptools/pip combination cannot build PEP 660 editable
wheels (no ``wheel`` package available).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of Newtop: A Fault-Tolerant Group Communication "
        "Protocol (ICDCS 1995)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
