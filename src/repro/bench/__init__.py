"""The paper-example report and the plain-text tables it prints."""

from repro.bench.harness import PaperExampleReport, compute_paper_example_report
from repro.bench.reporting import format_value, render_table

__all__ = [
    "PaperExampleReport",
    "compute_paper_example_report",
    "render_table",
    "format_value",
]
