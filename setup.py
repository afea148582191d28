"""Package metadata.

This file is the package's only build configuration (there is no
``pyproject.toml``). Install with ``pip install -e .``, or
``pip install -e ".[solver]"`` to add SciPy; offline boxes without the
``wheel`` package can use ``python setup.py develop`` or
``pip install -e . --no-build-isolation``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Similarity skyline queries over graph databases "
        "(reproduction of Abbaci et al., GDM/ICDE 2011)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # NumPy backs repro.index (the vectorized bound kernels, packed
    # feature matrix and VP-tree) and the "vectorized" backend, so
    # installed users always get the fast path. Source checkouts that
    # cannot install it still import cleanly: the backend is simply not
    # registered and the scalar bounds remain in use (tests for the
    # vectorized path skip themselves).
    install_requires=["numpy>=1.22"],
    # SciPy's assignment solver gives the exact GED solver its seed and
    # its pre-search bracket (repro.graph.ged_approx). Without it the seed
    # is the full rewrite, the bracket decides nothing, and answers are
    # the same.
    extras_require={"solver": ["scipy>=1.8"]},
)
