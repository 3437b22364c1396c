"""Package metadata of the ``repro`` library.

The package lives under ``src/``; ``pip install -e .`` (or running from
the repository root with ``PYTHONPATH=src``) makes ``import repro`` work.
The NPN canonical map and structure database ship as package data next
to their loader.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.network": ["npn_canonical.bin", "structure_db.json"]},
)
