"""Weekly time series: normalisation, smoothing, trend lines.

Implements the paper's Section 5/6 processing:

* weekly attack counts normalised to the **median of the first 15 weeks**
  (an extended version of the normalisation in Feldmann et al., chosen to
  "fit the irregular nature of DDoS attacks" and let providers keep
  absolute counts private);
* **exponentially weighted moving average** with a span of 12 weeks for
  trend visualisation;
* **linear regression lines** starting in 2019, 2020, 2021, and 2022,
  whose slopes the paper reports in its figure legends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.stats import ols_line
from repro.util.calendar import StudyCalendar

#: Weeks whose median forms the normalisation baseline (paper Section 5).
BASELINE_WEEKS = 15

#: EWMA span used for the paper's trend curves (Section 6).
EWMA_SPAN = 12


def normalize(values: np.ndarray, baseline_weeks: int = BASELINE_WEEKS) -> np.ndarray:
    """Normalise counts to the median of the first ``baseline_weeks`` weeks.

    If that median is zero (a sparse series such as IXP blackholing can
    start with empty weeks), the median of the non-zero baseline weeks is
    used; if every baseline week is zero, the overall non-zero median; if
    the series is all-zero it is returned unchanged.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) < baseline_weeks:
        raise ValueError(
            f"series has {len(values)} weeks; need >= {baseline_weeks}"
        )
    window = values[:baseline_weeks]
    baseline = float(np.median(window))
    if baseline == 0.0:
        non_zero = window[window > 0]
        if len(non_zero) == 0:
            non_zero = values[values > 0]
        if len(non_zero) == 0:
            return values.copy()
        baseline = float(np.median(non_zero))
    return values / baseline


def ewma(values: np.ndarray, span: int = EWMA_SPAN) -> np.ndarray:
    """Exponentially weighted moving average (pandas ``adjust=True`` form).

    ``alpha = 2 / (span + 1)``; the adjusted form divides by the sum of the
    weights so early values are unbiased.
    """
    values = np.asarray(values, dtype=np.float64)
    if span < 1:
        raise ValueError("span must be >= 1")
    alpha = 2.0 / (span + 1.0)
    decay = 1.0 - alpha
    out = np.empty_like(values)
    numerator = 0.0
    denominator = 0.0
    for i, value in enumerate(values):
        numerator = numerator * decay + value
        denominator = denominator * decay + 1.0
        out[i] = numerator / denominator
    return out


@dataclass(frozen=True)
class TrendLine:
    """A regression line fitted from ``start_week`` to the series end."""

    start_week: int
    slope_per_week: float
    intercept: float

    @property
    def slope_per_year(self) -> float:
        """Slope in normalised units per year (what figure legends show)."""
        return self.slope_per_week * 52.1775


@dataclass
class WeeklySeries:
    """One observatory time series with its derived products."""

    label: str
    counts: np.ndarray
    calendar: StudyCalendar
    baseline_weeks: int = BASELINE_WEEKS
    _normalized: np.ndarray | None = field(default=None, repr=False)
    _smoothed: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.float64)
        if len(self.counts) != self.calendar.n_weeks:
            raise ValueError(
                f"{self.label}: {len(self.counts)} weeks, calendar has "
                f"{self.calendar.n_weeks}"
            )

    @property
    def normalized(self) -> np.ndarray:
        """Counts normalised to the first-15-week median baseline."""
        if self._normalized is None:
            self._normalized = normalize(self.counts, self.baseline_weeks)
        return self._normalized

    @property
    def smoothed(self) -> np.ndarray:
        """EWMA (span 12) of the normalised series."""
        if self._smoothed is None:
            self._smoothed = ewma(self.normalized, EWMA_SPAN)
        return self._smoothed

    def trend_line(self, start_week: int = 0) -> TrendLine:
        """Regression line over the normalised series from ``start_week``."""
        slope, intercept = ols_line(self.normalized, start=start_week)
        return TrendLine(
            start_week=start_week, slope_per_week=slope, intercept=intercept
        )

    def trend_lines_by_year(self, years: tuple[int, ...] = (2019, 2020, 2021, 2022)) -> dict[int, TrendLine]:
        """The paper's per-figure regression lines starting each January."""
        import datetime as _dt

        lines: dict[int, TrendLine] = {}
        for year in years:
            start_date = _dt.date(year, 1, 1)
            if start_date < self.calendar.start:
                start_week = 0
            elif start_date > self.calendar.week(self.calendar.n_weeks - 1).start_date:
                continue  # regression start outside the (shortened) window
            else:
                start_week = self.calendar.week_of_date(start_date)
            lines[year] = self.trend_line(start_week)
        return lines

    def peak_week(self) -> int:
        """Week index of the normalised maximum."""
        return int(np.argmax(self.normalized))

    def __len__(self) -> int:
        return len(self.counts)
