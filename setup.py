"""Package metadata of the ``repro`` library.

The package lives under ``src/``; ``pip install -e .`` (or running from
the repository root with ``PYTHONPATH=src``) makes ``import repro`` work.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
