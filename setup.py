"""Package metadata.

This file is the package's only build configuration (there is no
``pyproject.toml``). Install with ``pip install -e .``, or
``pip install -e ".[solver]"`` to add SciPy and ``".[reference]"`` to
add NetworkX; offline boxes without the
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
    # NumPy backs repro.index (the batched bound kernels and the packed
    # feature matrix), which every full run that prunes bounds over; the
    # package does not import without it.
    install_requires=["numpy>=1.22"],
    # SciPy's assignment solver gives the exact GED solver its seed and
    # its pre-search bracket (repro.graph.ged_approx). Only its compiled
    # kernel, scipy.optimize._lsap, is loaded (~15 ms, ~1.2 MB per
    # process), never all of scipy.optimize (~0.4 s, ~49 MB). Without
    # SciPy the seed is the full rewrite, the bracket decides nothing,
    # and answers are the same.
    # NetworkX is the independent exact-GED reference that the solver
    # cross-checks in tests/ compare against; they skip without it.
    extras_require={
        "solver": ["scipy>=1.8"],
        "reference": ["networkx>=2.8"],
    },
)
