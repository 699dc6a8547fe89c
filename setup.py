import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    open(os.path.join(HERE, "src", "repro", "__init__.py")).read(),
    re.M,
).group(1)

DESCRIPTION = (
    "Reproduction of 'Architectural Support for Probabilistic "
    "Branches' (MICRO 2018): PBS hardware model, ISA, simulators, "
    "predictors and the paper's full evaluation"
)

_readme = os.path.join(HERE, "README.md")
LONG_DESCRIPTION = (
    open(_readme).read() if os.path.exists(_readme) else DESCRIPTION
)

setup(
    name="repro-pbs",
    version=VERSION,
    description=DESCRIPTION,
    long_description=LONG_DESCRIPTION,
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.8",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy", "scipy"],
    entry_points={
        "console_scripts": [
            "pbs-experiments = repro.experiments.runner:main",
            "repro-worker = repro.sim.remote:worker_main",
            "repro-coordinator = repro.serve.coordinator:coordinator_main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: System :: Hardware",
    ],
)
