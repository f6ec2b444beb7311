"""Correlation statistics: Pearson and Spearman with p-values.

Own implementations (rank transform, t-distributed significance), unit
tested against scipy.  The paper uses Spearman as the primary measure
("less susceptible to outliers than Pearson") and masks coefficients whose
p-value exceeds 0.05; Pearson serves as the cross-check (Section 6.3).

Every correlation in the package goes through one kernel,
:func:`pairwise`: each column is ranked (Spearman), centred and
self-dotted once, and each pair then costs one 1-D dot product.
:func:`p_values` turns a whole coefficient matrix into p-values with the
closed form of the t distribution's two-sided tail for integer degrees
of freedom, evaluated from the coefficients themselves.
:func:`pearson` and :func:`spearman` are its two-column calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Where the bound on p falls below this, :func:`two_sided_p` sums the
#: tail series instead of subtracting the head from 1.
_TAIL_BELOW = 1e-3
#: The tail series stops once what is left is below this share of it.
_TAIL_REST = 2.0**-56


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
    pair with ``|r| >= 1`` gets 0.  The rest go through one call of
    :func:`two_sided_p` with ``n - 2`` degrees of freedom.
    """
    k = len(coefficients)
    p = np.ones((k, k))
    np.fill_diagonal(p, 0.0)
    if n < 3:
        return p
    rows, cols = np.nonzero(np.triu(defined, 1))
    s = np.abs(coefficients[rows, cols])
    values = np.zeros(len(s))
    tested = s < 1.0
    values[tested] = two_sided_p(s[tested], n - 2)
    p[rows, cols] = p[cols, rows] = values
    return p


def _term_ratios(count: int, odd: int) -> np.ndarray:
    """Ratios of consecutive series terms 1..``count``: (2k-1)/(2k) for
    even degrees of freedom, 2k/(2k+1) for odd ones."""
    k = np.arange(1, count + 1)
    return (2 * k - 1 + odd) / (2 * k + odd)


def two_sided_p(s: np.ndarray, nu: int) -> np.ndarray:
    """Two-sided p-value of the t statistic of correlations ``|r| = s < 1``
    with ``nu >= 1`` degrees of freedom.

    For ``t = r * sqrt(nu / (1 - r*r))``, the angle ``theta`` of
    Abramowitz & Stegun 26.7 has ``sin(theta) = s`` and
    ``cos(theta) = c = sqrt((1 - s)(1 + s))``, so with ``m = nu // 2``
    their closed forms are series in ``c**2``:

    * even ``nu``: ``p = 1 - s * sum_{k<m} b_k c^2k``, with ``b_0 = 1``
      and ``b_k = b_{k-1} (2k-1)/(2k)``;
    * odd ``nu``: ``p = 1 - (2/pi) (theta + s c sum_{k<m} a_k c^2k)``,
      with ``a_0 = 1`` and ``a_k = a_{k-1} 2k/(2k+1)``.

    The infinite sums are ``1/s`` and ``arcsin(c)/(c s)``, so ``p`` is
    also the all-positive tail ``s sum_{k>=m} b_k c^2k`` or
    ``(2/pi) s c sum_{k>=m} a_k c^2k``.  Every ratio of consecutive
    terms is below ``c**2``, so the tail is at most its first term over
    ``s**2``.  Where that bound is below :data:`_TAIL_BELOW` the
    difference would cancel, and the tail is summed instead, until the
    rest is below :data:`_TAIL_REST` of it.  One ``cumprod`` of the term
    ratios gives the coefficients ``b_k`` or ``a_k`` that every pair
    shares, the powers are ``exp(k log c**2)``, and each pair's sum is
    one row of a matrix-vector product: numpy's own ``einsum``, not a
    BLAS ``gemv``, whose low bits change with the BLAS thread count.
    Below ``s = 0.5``, ``log c**2`` is ``log1p(-s*s)``: the rounding of
    ``(1 - s)(1 + s)`` would break the identity the subtraction relies
    on by about ``eps / s**2``.  Working from ``s`` rather than ``t``
    keeps ``1 - r*r`` from cancelling near ``|r| = 1``.
    """
    m, odd = divmod(nu, 2)
    c2 = (1.0 - s) * (1.0 + s)
    if odd:
        c = np.sqrt(c2)
        scale = 2.0 / math.pi * s * c
        head = 2.0 / math.pi * np.arctan2(s, c)
    else:
        scale, head = s, 0.0
    first = float(np.prod(_term_ratios(m, odd))) * c2**m
    tail = scale * first < _TAIL_BELOW * s * s
    log_c2 = np.where(s < 0.5, np.log1p(-s * s), np.log(c2))
    count = m
    if tail.any():
        tail_terms = np.log(_TAIL_REST * s[tail] ** 2) / log_c2[tail]
        count += int(np.ceil(tail_terms.max()))
    coefficients = np.cumprod(np.append(1.0, _term_ratios(count, odd)))[:count]
    powers = np.exp(np.multiply.outer(log_c2, np.arange(count)))
    return np.where(
        tail,
        scale * np.einsum("ij,j->i", powers[:, m:], coefficients[m:]),
        1.0 - head - scale * np.einsum("ij,j->i", powers[:, :m], coefficients[:m]),
    )


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
