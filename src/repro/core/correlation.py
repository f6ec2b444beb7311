"""Correlation matrices and quarterly correlation distributions.

Reproduces the paper's Figure 6 (pairwise Spearman over the normalised and
the EWMA series, with p-values, insignificant entries greyed) and Figure 14
(distributions of quarterly pairwise correlations: 18 quarters over 4.5
years, summarised as boxes with median and mean).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.stats import Correlation, pearson, spearman
from repro.util.calendar import StudyCalendar

Method = Callable[[np.ndarray, np.ndarray], Correlation]

METHODS: dict[str, Method] = {"spearman": spearman, "pearson": pearson}


@dataclass
class CorrelationMatrix:
    """Pairwise correlations between labelled series."""

    labels: list[str]
    coefficients: np.ndarray  # (n, n)
    p_values: np.ndarray  # (n, n)
    method: str

    def pair(self, a: str, b: str) -> Correlation:
        """Correlation between two labelled series."""
        i, j = self.labels.index(a), self.labels.index(b)
        return Correlation(
            coefficient=float(self.coefficients[i, j]),
            p_value=float(self.p_values[i, j]),
            n=0,
        )

    def significant_mask(self, alpha: float = 0.05) -> np.ndarray:
        """Boolean matrix: which entries the paper would print normally."""
        return self.p_values <= alpha


def correlation_matrix(
    series: dict[str, np.ndarray], method: str = "spearman"
) -> CorrelationMatrix:
    """Pairwise correlation matrix over a dict of equal-length series."""
    try:
        correlate = METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; use spearman or pearson")
    labels = list(series)
    n = len(labels)
    if n < 2:
        raise ValueError("need at least two series")
    lengths = {len(values) for values in series.values()}
    if len(lengths) != 1:
        raise ValueError("series must have equal length")
    coefficients = np.eye(n)
    p_values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            result = correlate(series[labels[i]], series[labels[j]])
            coefficients[i, j] = coefficients[j, i] = result.coefficient
            p_values[i, j] = p_values[j, i] = result.p_value
    return CorrelationMatrix(
        labels=labels, coefficients=coefficients, p_values=p_values, method=method
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


def box_stats(values: list[float]) -> BoxStats:
    """Summary statistics of a non-empty sample."""
    if not values:
        raise ValueError("empty sample")
    array = np.asarray(values, dtype=np.float64)
    return BoxStats(
        minimum=float(array.min()),
        q1=float(np.percentile(array, 25)),
        median=float(np.median(array)),
        q3=float(np.percentile(array, 75)),
        maximum=float(array.max()),
        mean=float(array.mean()),
        n=len(array),
    )


def quarterly_correlations(
    a: np.ndarray,
    b: np.ndarray,
    calendar: StudyCalendar,
    method: str = "spearman",
) -> list[float]:
    """Per-quarter correlation coefficients between two weekly series.

    Quarters with fewer than 4 weeks or with an undefined correlation
    (constant sub-series) are skipped — matching how sparse IXP weeks
    behave in the paper's Figure 14.
    """
    correlate = METHODS[method]
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    coefficients: list[float] = []
    for weeks in calendar.quarter_weeks.values():
        if len(weeks) < 4:
            continue
        sub_a, sub_b = a[weeks], b[weeks]
        if np.ptp(sub_a) == 0 or np.ptp(sub_b) == 0:
            continue
        coefficients.append(correlate(sub_a, sub_b).coefficient)
    return coefficients
