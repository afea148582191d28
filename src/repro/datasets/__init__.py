"""Datasets: the paper's worked examples plus synthetic workloads.

* :mod:`repro.datasets.hotels` — Table I (Example 1).
* :mod:`repro.datasets.paper_example` — reconstructions of Figs. 1–3 with
  every published statistic, used by the golden tests and
  ``python -m repro paper-example``.
* :mod:`repro.datasets.synthetic` — molecule-like workload generator for
  the scalability experiments the paper announces as future work.
"""

from repro.datasets.hotels import EXPECTED_SKYLINE, HOTELS, Hotel, hotel_names, hotel_vectors
from repro.datasets.paper_example import (
    EXPECTED_DIVERSE_SUBSET,
    EXPECTED_DOMINANCE,
    EXPECTED_GSS,
    FIGURE1_EDIT_SEQUENCE,
    TABLE2_MCS,
    TABLE3_GCS,
    TABLE4_PAIRWISE_GED_MEASURED,
    TABLE4_PAIRWISE_GED_PAPER,
    TABLE4_PAIRWISE_MCS,
    TABLE4_PAPER,
    TABLE5_PAPER,
    database_by_name,
    figure1_pair,
    figure3_database,
    figure3_query,
)
from repro.datasets.synthetic import (
    ATOMS,
    BONDS,
    SyntheticWorkload,
    make_workload,
    molecule_like_graph,
)

__all__ = [
    "Hotel",
    "HOTELS",
    "EXPECTED_SKYLINE",
    "hotel_names",
    "hotel_vectors",
    "figure1_pair",
    "figure3_database",
    "figure3_query",
    "database_by_name",
    "FIGURE1_EDIT_SEQUENCE",
    "TABLE2_MCS",
    "TABLE3_GCS",
    "TABLE4_PAPER",
    "TABLE4_PAIRWISE_MCS",
    "TABLE4_PAIRWISE_GED_PAPER",
    "TABLE4_PAIRWISE_GED_MEASURED",
    "TABLE5_PAPER",
    "EXPECTED_GSS",
    "EXPECTED_DOMINANCE",
    "EXPECTED_DIVERSE_SUBSET",
    "ATOMS",
    "BONDS",
    "SyntheticWorkload",
    "make_workload",
    "molecule_like_graph",
]
