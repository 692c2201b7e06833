"""Plain-text table rendering for the paper-reproduction benches."""

from .reporting import format_table, ratio, report

__all__ = ["format_table", "ratio", "report"]
