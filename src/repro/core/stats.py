"""Correlation statistics: Pearson and Spearman with p-values.

Own implementations (rank transform, t-distributed significance), unit
tested against scipy.  The paper uses Spearman as the primary measure
("less susceptible to outliers than Pearson") and masks coefficients whose
p-value exceeds 0.05; Pearson serves as the cross-check (Section 6.3).

Every correlation in the package goes through one kernel,
:func:`pairwise`: each column is ranked (Spearman), centred and
self-dotted once, and each pair then costs one 1-D dot product.
:func:`p_values` turns a whole coefficient matrix into p-values with one
call of the t distribution.  :func:`pearson` and :func:`spearman` are
its two-column calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import stdtr


@dataclass(frozen=True)
class Correlation:
    """A correlation coefficient with its two-sided p-value."""

    coefficient: float
    p_value: float
    n: int

    @property
    def significant(self) -> bool:
        """Whether the paper would print this value in normal font (p <= .05)."""
        return self.p_value <= 0.05


def rankdata(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean of their rank positions)."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    # First and last sorted position of each tie group.
    first = np.flatnonzero(
        np.concatenate(([True], sorted_values[1:] != sorted_values[:-1]))
    )
    last = np.append(first[1:], len(values)) - 1
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def pairwise(
    columns: Sequence[np.ndarray], method: str = "spearman"
) -> tuple[np.ndarray, np.ndarray]:
    """Correlation coefficients of every pair of equal-length columns.

    Returns ``(coefficients, defined)``: a ``(k, k)`` matrix with a unit
    diagonal, and a boolean matrix that is false where either column of
    a pair is constant.  Such a pair has no defined correlation and gets
    coefficient 0.

    Each pair is one 1-D dot product of centred columns.  A matrix
    product would sum in a different order and change the low bits.
    """
    if method not in ("spearman", "pearson"):
        raise ValueError(f"unknown method {method!r}; use spearman or pearson")
    if len(columns) < 2:
        raise ValueError("need at least two series")
    if len({len(column) for column in columns}) != 1:
        raise ValueError("series must have equal length")
    if len(columns[0]) < 2:
        raise ValueError("need at least two points")
    centred: list[np.ndarray] = []
    self_dots: list[float] = []
    for column in columns:
        values = np.asarray(column, dtype=np.float64)
        if method == "spearman":
            values = rankdata(values)
        deviations = values - values.mean()
        centred.append(deviations)
        self_dots.append(float(deviations @ deviations))
    k = len(columns)
    coefficients = np.eye(k)
    defined = np.ones((k, k), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            denominator = math.sqrt(self_dots[i] * self_dots[j])
            if denominator == 0.0:
                defined[i, j] = defined[j, i] = False
                continue
            r = float(centred[i] @ centred[j]) / denominator
            coefficients[i, j] = coefficients[j, i] = max(-1.0, min(1.0, r))
    return coefficients, defined


def p_values(coefficients: np.ndarray, defined: np.ndarray, n: int) -> np.ndarray:
    """Two-sided t-test p-values of a :func:`pairwise` matrix over ``n`` points.

    The diagonal is 0.  An undefined pair (a constant column) gets 1, so
    it renders as insignificant; so does every pair when ``n < 3``.  A
    pair with ``|r| >= 1`` gets 0.  The rest evaluate
    ``2 * stdtr(n - 2, -|t|)`` in one call, the function
    ``scipy.stats.t.sf`` evaluates.
    """
    k = len(coefficients)
    p = np.ones((k, k))
    np.fill_diagonal(p, 0.0)
    if n < 3:
        return p
    rows, cols = np.nonzero(np.triu(defined, 1))
    r = coefficients[rows, cols]
    values = np.zeros(len(r))
    tested = np.abs(r) < 1.0
    r = r[tested]
    t_statistic = r * np.sqrt((n - 2) / (1.0 - r * r))
    values[tested] = 2.0 * stdtr(n - 2, -np.abs(t_statistic))
    p[rows, cols] = p[cols, rows] = values
    return p


def _pair(x: np.ndarray, y: np.ndarray, method: str) -> Correlation:
    coefficients, defined = pairwise([x, y], method)
    p = p_values(coefficients, defined, len(x))
    return Correlation(
        coefficient=float(coefficients[0, 1]), p_value=float(p[0, 1]), n=len(x)
    )


def pearson(x: np.ndarray, y: np.ndarray) -> Correlation:
    """Pearson product-moment correlation with a t-test p-value."""
    return _pair(x, y, "pearson")


def spearman(x: np.ndarray, y: np.ndarray) -> Correlation:
    """Spearman rank correlation (Pearson of the rank transforms)."""
    return _pair(x, y, "spearman")


def ols_line(values: np.ndarray, start: int = 0) -> tuple[float, float]:
    """Least-squares line ``value = intercept + slope * index`` fitted from
    ``start`` onward.  Returns (slope, intercept) in per-index units."""
    values = np.asarray(values, dtype=np.float64)[start:]
    if len(values) < 2:
        raise ValueError("need at least two points to fit a line")
    x = np.arange(start, start + len(values), dtype=np.float64)
    slope, intercept = np.polyfit(x, values, deg=1)
    return float(slope), float(intercept)
