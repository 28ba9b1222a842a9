"""Percentile rule, table fidelity and fingerprints."""

import pytest

from perfbench.stats import fingerprint, nearest_rank, table_mae_pp, tail
from repro.experiments.paperdata import PAPER


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    # p99 and p95 leave 1 and 5 samples beyond; p90 leaves exactly 10.
    assert tail(values) == (90.0, 90.0)
    assert tail([float(v) for v in range(1, 1001)]) == (99.0, 990.0)
    assert tail([float(v) for v in range(1, 21)]) == (50.0, 10.0)
    assert tail([float(v) for v in range(1, 16)]) is None
    assert tail([]) is None


def test_tail_counts_refused_requests_as_misses():
    # Refusals rank above every served latency, pushing the tail up.
    values = [0.01] * 70 + [0.5] * 10 + [float("inf")] * 20
    assert tail(values) == (75.0, 0.5)


def test_nearest_rank():
    assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert nearest_rank([5.0], 99) == 5.0


def _hand_made(offsets: dict[str, float]) -> dict[str, dict[str, float]]:
    """Table I with every cell shifted by ``offsets[label]`` percentage points."""
    labels = PAPER["config_labels"]
    return {
        label: {row: (values[i] + offsets[label]) / 100.0 for row, values in PAPER["table1"].items()}
        for i, label in enumerate(labels)
    }


def test_table_mae_against_paper():
    labels = PAPER["config_labels"]
    exact = _hand_made({label: 0.0 for label in labels})
    assert table_mae_pp(exact, PAPER["table1"], labels) == pytest.approx(0.0, abs=1e-12)
    # Columns off by +1, -2, +3, -4, +5 pp: mean |diff| = 15 / 5 = 3 pp.
    shifted = _hand_made(dict(zip(labels, (1.0, -2.0, 3.0, -4.0, 5.0))))
    assert table_mae_pp(shifted, PAPER["table1"], labels) == pytest.approx(3.0)


def test_fingerprint_sees_the_last_digit():
    assert fingerprint({"t": 0.1}) == fingerprint({"t": 0.1})
    assert fingerprint({"t": 0.1}) != fingerprint({"t": 0.1 + 1e-17 + 2**-56})
