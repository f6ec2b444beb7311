"""Correlation matrices and quarterly correlation distributions.

Reproduces the paper's Figure 6 (pairwise Spearman over the normalised and
the EWMA series, with p-values, insignificant entries greyed) and Figure 14
(distributions of quarterly pairwise correlations: 18 quarters over 4.5
years, summarised as boxes with median and mean).  Both run on the one
pairwise kernel of :mod:`repro.core.stats`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from repro.core.stats import p_values, pairwise
from repro.util.calendar import StudyCalendar

K = TypeVar("K")


@dataclass
class CorrelationMatrix:
    """Pairwise correlations between labelled series."""

    labels: list[str]
    coefficients: np.ndarray  # (n, n)
    p_values: np.ndarray  # (n, n)
    method: str

    def significant_mask(self, alpha: float = 0.05) -> np.ndarray:
        """Boolean matrix: which entries the paper would print normally."""
        return self.p_values <= alpha


def correlation_matrix(
    series: dict[str, np.ndarray], method: str = "spearman"
) -> CorrelationMatrix:
    """Pairwise correlation matrix over a dict of equal-length series."""
    labels = list(series)
    columns = [series[label] for label in labels]
    coefficients, defined = pairwise(columns, method)
    return CorrelationMatrix(
        labels=labels,
        coefficients=coefficients,
        p_values=p_values(coefficients, defined, len(columns[0])),
        method=method,
    )


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary plus mean (the paper's Figure-14 box rendering)."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    n: int


def box_stats(samples: dict[K, Sequence[float]]) -> dict[K, BoxStats]:
    """Summary statistics of every sample, keyed and ordered as ``samples``.

    Samples of one length are stacked, so each statistic is taken once
    per length along ``axis=1``; a single sample is a group of one.  An
    empty sample raises ``ValueError``.
    """
    by_size: dict[int, list[K]] = {}
    for key, values in samples.items():
        if not len(values):
            raise ValueError(f"empty sample {key!r}")
        by_size.setdefault(len(values), []).append(key)
    boxes: dict[K, BoxStats] = {}
    for size, keys in by_size.items():
        stacked = np.array([samples[key] for key in keys], dtype=np.float64)
        q1, q3 = np.percentile(stacked, (25, 75), axis=1).tolist()
        rows = zip(
            stacked.min(axis=1).tolist(),
            q1,
            np.median(stacked, axis=1).tolist(),
            q3,
            stacked.max(axis=1).tolist(),
            stacked.mean(axis=1).tolist(),
        )
        for key, row in zip(keys, rows):
            boxes[key] = BoxStats(*row, n=size)
    return {key: boxes[key] for key in samples}


def quarterly_correlations(
    series: dict[str, np.ndarray], calendar: StudyCalendar
) -> dict[tuple[str, str], list[float]]:
    """Per-quarter Spearman coefficients of every pair of weekly series.

    Returns one list per pair ``(a, b)``, ``a`` before ``b`` in ``series``
    order, possibly empty.  Quarters with fewer than 4 weeks are skipped;
    within a quarter, a constant sub-series drops only the pairs it is
    in, because their correlation is undefined — matching how sparse IXP
    weeks behave in the paper's Figure 14.
    """
    labels = list(series)
    columns = [np.asarray(series[label], dtype=np.float64) for label in labels]
    coefficients: dict[tuple[str, str], list[float]] = {
        (a, b): [] for i, a in enumerate(labels) for b in labels[i + 1 :]
    }
    for weeks in calendar.quarter_weeks.values():
        if len(weeks) < 4:
            continue
        slices = [column[weeks] for column in columns]
        live = [i for i, values in enumerate(slices) if np.ptp(values) != 0]
        if len(live) < 2:
            continue
        matrix, _ = pairwise([slices[i] for i in live], "spearman")
        for x, i in enumerate(live):
            for y in range(x + 1, len(live)):
                coefficients[(labels[i], labels[live[y]])].append(
                    float(matrix[x, y])
                )
    return coefficients
