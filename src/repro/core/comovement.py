"""Co-movement episodes between observatories (paper Section 6.2).

"There were also short periods (3-6 months), in which two or more time
series proceeded similarly" — the paper lists five such episodes for the
reflection-amplification group.  This module detects them: sliding-window
pairwise correlations, thresholded into co-moving groups, merged over
consecutive windows into episodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.stats import spearman
from repro.util.calendar import StudyCalendar


def sliding_correlation(
    a: np.ndarray, b: np.ndarray, window_weeks: int = 13
) -> np.ndarray:
    """Spearman correlation in a sliding window (NaN where undefined).

    Output index ``i`` covers weeks ``[i, i + window_weeks)``; the array
    is ``len(a) - window_weeks + 1`` long.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("series must have equal length")
    if window_weeks < 4:
        raise ValueError("window must be at least 4 weeks")
    n = len(a) - window_weeks + 1
    if n <= 0:
        raise ValueError("series shorter than the window")
    out = np.full(n, np.nan)
    for i in range(n):
        wa = a[i : i + window_weeks]
        wb = b[i : i + window_weeks]
        if np.ptp(wa) == 0 or np.ptp(wb) == 0:
            continue
        out[i] = spearman(wa, wb).coefficient
    return out


@dataclass(frozen=True)
class CoMovement:
    """One episode: a group of series moving together for a period."""

    start_week: int
    end_week: int  # exclusive
    members: frozenset[str]

    @property
    def duration_weeks(self) -> int:
        """Episode length."""
        return self.end_week - self.start_week

    def label(self, calendar: StudyCalendar | None = None) -> str:
        """Readable description, with quarters if a calendar is given."""
        names = " & ".join(sorted(self.members))
        if calendar is None:
            return f"weeks {self.start_week}-{self.end_week}: {names}"
        start = calendar.week(self.start_week).quarter
        end = calendar.week(min(self.end_week, calendar.n_weeks) - 1).quarter
        period = start if start == end else f"{start}-{end}"
        return f"{period}: {names}"


def _connected_components(
    labels: list[str], edges: set[tuple[str, str]]
) -> list[frozenset[str]]:
    parent = {label: label for label in labels}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    groups: dict[str, set[str]] = {}
    for label in labels:
        groups.setdefault(find(label), set()).add(label)
    return [frozenset(group) for group in groups.values() if len(group) >= 2]


def co_movement_episodes(
    series: dict[str, np.ndarray],
    *,
    window_weeks: int = 13,
    threshold: float = 0.6,
    min_members: int = 2,
    min_duration_weeks: int = 4,
) -> list[CoMovement]:
    """Find episodes where groups of series correlate above ``threshold``.

    For each window position, pairs above the threshold are linked and
    connected components of size >= ``min_members`` form the co-moving
    groups; identical groups in consecutive windows merge into one
    episode.  Episodes shorter than ``min_duration_weeks`` are dropped.
    """
    labels = list(series)
    if len(labels) < 2:
        raise ValueError("need at least two series")
    pairwise = {
        (a, b): sliding_correlation(series[a], series[b], window_weeks)
        for i, a in enumerate(labels)
        for b in labels[i + 1 :]
    }
    n_windows = len(next(iter(pairwise.values())))

    raw: list[tuple[int, frozenset[str]]] = []
    for window in range(n_windows):
        edges = {
            pair
            for pair, values in pairwise.items()
            if not np.isnan(values[window]) and values[window] >= threshold
        }
        for group in _connected_components(labels, edges):
            if len(group) >= min_members:
                raw.append((window, group))

    # Merge consecutive windows with identical membership.
    episodes: list[CoMovement] = []
    open_runs: dict[frozenset[str], int] = {}
    previous_groups: set[frozenset[str]] = set()
    for window in range(n_windows + 1):
        groups_here = {group for w, group in raw if w == window}
        # Close runs that ended, in a fixed order: set order follows the
        # per-process string hash, and _coalesce breaks ties by position.
        for group in sorted(previous_groups - groups_here, key=sorted):
            start = open_runs.pop(group)
            end = window + window_weeks - 1  # last covered week
            episodes.append(
                CoMovement(start_week=start, end_week=end, members=group)
            )
        # Open new runs.
        for group in groups_here - previous_groups:
            open_runs[group] = window
        previous_groups = groups_here

    episodes = [
        episode
        for episode in episodes
        if episode.duration_weeks >= min_duration_weeks
    ]
    episodes = _coalesce(episodes)
    episodes.sort(key=lambda episode: (episode.start_week, -len(episode.members)))
    return episodes


def _coalesce(episodes: list[CoMovement], gap_weeks: int = 4) -> list[CoMovement]:
    """Clean up fragmented detections.

    Membership drifts window to window, producing many short episodes
    with similar groups.  Two passes: (1) merge episodes whose windows
    overlap (or nearly) and whose member sets intersect — the merged
    episode keeps the member intersection if it still has two platforms,
    else the union; (2) drop episodes contained in a longer episode with
    a member superset.
    """
    episodes = sorted(episodes, key=lambda e: (e.start_week, e.end_week))
    merged: list[CoMovement] = []
    for episode in episodes:
        if merged:
            last = merged[-1]
            overlaps = episode.start_week <= last.end_week + gap_weeks
            shares = bool(last.members & episode.members)
            if overlaps and shares:
                common = last.members & episode.members
                members = common if len(common) >= 2 else last.members | episode.members
                merged[-1] = CoMovement(
                    start_week=last.start_week,
                    end_week=max(last.end_week, episode.end_week),
                    members=members,
                )
                continue
        merged.append(episode)

    kept: list[CoMovement] = []
    for episode in merged:
        contained = any(
            other is not episode
            and other.start_week <= episode.start_week
            and episode.end_week <= other.end_week
            and episode.members <= other.members
            for other in merged
        )
        if not contained:
            kept.append(episode)
    return kept
