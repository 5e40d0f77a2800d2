"""The one CSV schema every experiment row uses.

Exact rationals print as ``p/q`` and reals with 12 significant digits, so a
row is both machine-parseable and lossless for the exact mode.  Missing
cells (for example the ratio of a vacuous instance) stay empty.
"""

from __future__ import annotations

from typing import Mapping

CSV_COLUMNS = (
    "instance_id",
    "n",
    "mode",
    "expected_size",
    "ratio",
    "bound",
    "verdict",
    "seed",
    "runtime_ms",
)

CSV_HEADER = ",".join(CSV_COLUMNS)


def fmt_cell(x: object) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def row_line(row: Mapping[str, object]) -> str:
    return ",".join(fmt_cell(row.get(c)) for c in CSV_COLUMNS)


def exact_row(instance_id: str, verdict, runtime_ms: float) -> dict:
    """The row of one exact ratio verdict (a ``probability.RatioVerdict``)."""
    return {
        "instance_id": instance_id,
        "n": verdict.n,
        "mode": "exact",
        "expected_size": verdict.expected,
        "ratio": verdict.ratio,
        "bound": verdict.bound,
        "verdict": "pass" if verdict.holds else "fail",
        "seed": "",
        "runtime_ms": runtime_ms,
    }
