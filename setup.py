"""Setup shim: enables legacy editable installs (``--no-use-pep517``)
in offline environments without the ``wheel`` package.

The package has no hard third-party dependencies; numpy is an optional
extra that unlocks the vectorized batch kernels
(:mod:`repro.sim.batch`) -- without it batched trials run serially per
seed, with identical results (see docs/scaling.md).
"""

from setuptools import find_packages, setup

setup(
    name="repro-anonymous-consensus",
    version="1.0.0",
    description=(
        "Reproduction of 'Fault-tolerant Consensus in Anonymous Dynamic "
        "Network' (ICDCS 2024)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[],
    extras_require={
        # Vectorized batched execution (repro.sim.batch numpy backend).
        "numpy": ["numpy>=1.24"],
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
