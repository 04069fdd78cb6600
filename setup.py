"""Packaging metadata (there is no ``pyproject.toml``).

The repo runs from a checkout with ``PYTHONPATH=src``; this file only
makes ``pip install -e .`` work.  No console script is declared — the
command line is ``python -m repro.cli``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
