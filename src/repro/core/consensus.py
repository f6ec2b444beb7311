"""Consensus trend estimation across observatories.

The paper's opening problem: "gaining a consensus view of the state of the
DDoS landscape has proven elusive" — every observatory sees a biased,
partial slice.  This module builds the natural federated estimator the
paper's recommendations point toward: combine the *normalised* weekly
series of all platforms observing one attack class into a consensus trend
with an explicit disagreement band.

Because the reproduction has ground truth (the generator's expected supply
curve), the estimator can be *evaluated*: the consensus-vs-truth error is
compared against each single observatory's error, quantifying the value of
data sharing that the paper argues for qualitatively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.timeseries import WeeklySeries, normalize


@dataclass
class ConsensusView:
    """Per-week consensus across observatories of one attack class."""

    labels: list[str]
    #: (n_platforms, n_weeks) stacked normalised series.
    matrix: np.ndarray
    median: np.ndarray
    q1: np.ndarray
    q3: np.ndarray

    @property
    def dispersion(self) -> np.ndarray:
        """Per-week inter-quartile spread relative to the median.

        High values mean the observatories disagree about that week.
        """
        safe_median = np.where(self.median == 0, 1.0, self.median)
        return (self.q3 - self.q1) / safe_median

    @property
    def mean_dispersion(self) -> float:
        """Scalar disagreement index over the whole window."""
        return float(self.dispersion.mean())


def consensus(series: dict[str, WeeklySeries]) -> ConsensusView:
    """Build the consensus view from named weekly series."""
    if len(series) < 2:
        raise ValueError("need at least two observatories for a consensus")
    labels = list(series)
    lengths = {len(weekly) for weekly in series.values()}
    if len(lengths) != 1:
        raise ValueError("series must cover the same weeks")
    matrix = np.vstack([series[label].normalized for label in labels])
    return ConsensusView(
        labels=labels,
        matrix=matrix,
        median=np.median(matrix, axis=0),
        q1=np.percentile(matrix, 25, axis=0),
        q3=np.percentile(matrix, 75, axis=0),
    )


def shape_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Root-mean-square error between two *shape-normalised* series.

    Both series are rescaled to their own first-15-week median baseline, so
    the comparison is about trend shape, not absolute level — the same
    normalisation the observatories publish under.
    """
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.shape != truth.shape:
        raise ValueError("series must have equal length")
    a = normalize(estimate)
    b = normalize(truth)
    return float(np.sqrt(np.mean((a - b) ** 2)))


@dataclass(frozen=True)
class ConsensusEvaluation:
    """Consensus error vs. the per-observatory errors against ground truth."""

    consensus_error: float
    platform_errors: dict[str, float]

    @property
    def beats_median_platform(self) -> bool:
        """Whether the consensus tracks truth better than the typical
        single observatory."""
        return self.consensus_error < float(
            np.median(list(self.platform_errors.values()))
        )

    @property
    def beats_best_platform(self) -> bool:
        """Whether the consensus beats even the luckiest single platform."""
        return self.consensus_error < min(self.platform_errors.values())


def evaluate_consensus(
    series: dict[str, WeeklySeries], truth_weekly: np.ndarray
) -> ConsensusEvaluation:
    """Score the consensus and each platform against a ground-truth series."""
    view = consensus(series)
    return ConsensusEvaluation(
        consensus_error=shape_error(view.median, truth_weekly),
        platform_errors={
            label: shape_error(series[label].normalized, truth_weekly)
            for label in series
        },
    )
