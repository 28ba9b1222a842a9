"""Summary statistics, table fidelity and simulated fingerprints."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import typing as _t

__all__ = [
    "TAIL_PERCENTILES",
    "fingerprint",
    "median",
    "nearest_rank",
    "table_mae_pp",
    "tail",
]

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values: _t.Sequence[float]) -> float:
    """Median of a non-empty sample (0.0 for an empty one)."""
    return float(statistics.median(values)) if values else 0.0


def nearest_rank(values: _t.Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    index = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return float(ordered[index])


def tail(values: _t.Sequence[float], min_beyond: int = 10) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest candidate percentile that has
    at least ``min_beyond`` samples strictly above it, or ``None`` when even
    the median has fewer."""
    for pct in TAIL_PERCENTILES:
        if not values:
            break
        value = nearest_rank(values, pct)
        if sum(1 for v in values if v > value) >= min_beyond:
            return pct, value
    return None


def table_mae_pp(columns: dict[str, dict[str, float]], paper: dict[str, _t.Sequence[float]],
                 labels: _t.Sequence[str]) -> float:
    """Mean absolute difference, in percentage points, between simulated
    factor fractions ``columns[label][row]`` and the paper's percentages
    ``paper[row][i]`` over every (row, column) cell."""
    diffs = [
        abs(100.0 * columns[label][row] - paper_row[i])
        for row, paper_row in paper.items()
        for i, label in enumerate(labels)
    ]
    return sum(diffs) / len(diffs)


def fingerprint(doc: _t.Any) -> str:
    """Short digest of a JSON-serializable document of simulated statistics.

    Floats are written with ``repr`` precision, so any change in a
    simulated value changes the digest.
    """
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
