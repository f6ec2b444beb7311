"""The columnar Section-7 target analysis against a set-based reference.

Targets are packed int64 keys ``day << 32 | ip`` (see
``Observations.target_keys``).  The reference below is the earlier
implementation over Python sets of (day, ip) tuples; the property tests
require the columnar functions to reproduce it exactly on random target
sets, including empty sets, days past the window, the extreme addresses
and ties between UpSet row counts.
"""

from __future__ import annotations

import datetime as dt
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.federation import (
    ConfirmationRow,
    FederationResult,
    federate,
    subsample_baseline,
)
from repro.core.overlap import (
    UpsetResult,
    UpsetRow,
    membership,
    pairwise_overlap_shares,
    upset,
)
from repro.core.targets import split_new_recurring, weekly_target_counts
from repro.observatories.base import Observations, unique_keys
from repro.util.calendar import StudyCalendar
from repro.util.rng import RngFactory
from tests.conftest import pack_targets

#: A four-week window, so generated days often fall past its end.
CALENDAR = StudyCalendar(dt.date(2019, 1, 1), dt.date(2019, 1, 28))
IP_MAX = (1 << 32) - 1
_SETTINGS = dict(max_examples=60, deadline=None, derandomize=True)


# -- the set-based reference ---------------------------------------------------


def ref_upset(named_sets: dict[str, set]) -> UpsetResult:
    if len(named_sets) < 2:
        raise ValueError("need at least two sets")
    names = list(named_sets)
    universe: set = set().union(*named_sets.values())
    universe_size = len(universe)
    signature_counts: dict[frozenset[str], int] = {}
    for element in universe:
        signature = frozenset(name for name in names if element in named_sets[name])
        signature_counts[signature] = signature_counts.get(signature, 0) + 1
    rows = [
        UpsetRow(
            members=tuple(sorted(signature)),
            count=count,
            share=count / universe_size if universe_size else 0.0,
        )
        for signature, count in signature_counts.items()
    ]
    rows.sort(key=lambda row: (-row.count, row.members))
    return UpsetResult(
        set_names=names,
        set_sizes={name: len(named_sets[name]) for name in names},
        set_shares={
            name: (len(named_sets[name]) / universe_size if universe_size else 0.0)
            for name in names
        },
        universe_size=universe_size,
        rows=rows,
    )


def ref_pairwise_overlap_shares(named_sets: dict[str, set]) -> dict:
    shares = {}
    for a, b in combinations(named_sets, 2):
        set_a, set_b = named_sets[a], named_sets[b]
        intersection = len(set_a & set_b)
        shares[(a, b)] = intersection / len(set_a) if set_a else 0.0
        shares[(b, a)] = intersection / len(set_b) if set_b else 0.0
    return shares


def ref_subsample_baseline(baseline: set, fraction: float, rng) -> set:
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return set(baseline)
    ordered = sorted(baseline)
    keep = rng.random(len(ordered)) < fraction
    return {element for element, kept in zip(ordered, keep) if kept}


def ref_federate(
    academic_sets: dict[str, set],
    academic_upset: UpsetResult,
    industry_name: str,
    industry_baseline: set,
) -> FederationResult:
    union: set = set().union(*academic_sets.values())
    forward = []
    for row in academic_upset.rows:
        members = row.members
        subset = set.intersection(*(academic_sets[name] for name in members))
        for name in academic_sets:
            if name not in members:
                subset = subset - academic_sets[name]
        forward.append(
            ConfirmationRow(
                members=members,
                academic_count=len(subset),
                confirmed_count=len(subset & industry_baseline),
            )
        )
    reverse = {
        name: (
            len(industry_baseline & academic_sets[name]) / len(industry_baseline)
            if industry_baseline
            else 0.0
        )
        for name in academic_sets
    }
    reverse_union = (
        len(industry_baseline & union) / len(industry_baseline)
        if industry_baseline
        else 0.0
    )
    return FederationResult(
        industry_name=industry_name,
        baseline_size=len(industry_baseline),
        forward=forward,
        reverse=reverse,
        reverse_union=reverse_union,
    )


def ref_weekly_tuple_counts(tuples: set, calendar: StudyCalendar) -> np.ndarray:
    counts = np.zeros(calendar.n_weeks, dtype=np.float64)
    for day, _ in tuples:
        week = day // 7
        if week < calendar.n_weeks:
            counts[week] += 1
    return counts


def ref_split_new_recurring(tuples: set, calendar: StudyCalendar):
    new_counts = np.zeros(calendar.n_weeks, dtype=np.float64)
    recurring_counts = np.zeros(calendar.n_weeks, dtype=np.float64)
    seen: set[int] = set()
    for day, ip in sorted(tuples):
        week = day // 7
        if week >= calendar.n_weeks:
            continue
        if ip in seen:
            recurring_counts[week] += 1
        else:
            seen.add(ip)
            new_counts[week] += 1
    return new_counts, recurring_counts


# -- strategies ----------------------------------------------------------------

#: Few distinct values, so sets overlap; the extremes of the address range.
ips = st.one_of(
    st.sampled_from([0, 1, 2, 1 << 31, IP_MAX - 1, IP_MAX]),
    st.integers(min_value=0, max_value=IP_MAX),
)
days = st.integers(min_value=0, max_value=CALENDAR.n_days + 9)
target_sets = st.sets(st.tuples(days, ips), max_size=30)
named_target_sets = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.fixed_dictionaries(
        {name: target_sets for name in ["ORION", "UCSD", "Hopscotch", "AmpPot"][:n]}
    )
)
fractions = st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=1.0))

#: Ties in row counts: every exclusive intersection holds one target.
TIED = {
    "A": {(0, 1), (0, 3), (0, 5), (0, 7)},
    "B": {(0, 2), (0, 3), (0, 6), (0, 7)},
    "C": {(0, 4), (0, 5), (0, 6), (0, 7)},
}


def packed(named_sets: dict[str, set]) -> dict[str, np.ndarray]:
    return {name: pack_targets(values) for name, values in named_sets.items()}


def unpack(keys: np.ndarray) -> set:
    return {(key >> 32, key & IP_MAX) for key in keys.tolist()}


# -- properties ------------------------------------------------------------------


class TestAgainstReference:
    @settings(**_SETTINGS)
    @given(named_target_sets)
    @example(TIED)
    @example({"A": set(), "B": set()})
    def test_upset_and_pairwise(self, named_sets):
        members = membership(packed(named_sets))
        assert upset(members) == ref_upset(named_sets)
        assert pairwise_overlap_shares(members) == ref_pairwise_overlap_shares(
            named_sets
        )

    @settings(**_SETTINGS)
    @given(named_target_sets, target_sets, fractions, st.integers(0, 2**16))
    @example(TIED, {(0, 7), (0, 1), (3, IP_MAX)}, 1.0, 0)
    @example({"A": set(), "B": set()}, set(), 1.0, 0)
    @example({"A": set(), "B": {(1, 0)}}, set(), 0.5, 0)
    def test_federate_and_subsample(self, named_sets, baseline, fraction, seed):
        sampled = subsample_baseline(
            pack_targets(baseline), fraction, RngFactory(seed).stream("s")
        )
        expected = ref_subsample_baseline(
            baseline, fraction, RngFactory(seed).stream("s")
        )
        assert unpack(sampled) == expected
        members = membership(packed(named_sets))
        result = federate(members, upset(members), "Industry", sampled)
        assert result == ref_federate(
            named_sets, ref_upset(named_sets), "Industry", expected
        )

    @settings(**_SETTINGS)
    @given(target_sets)
    @example(set())
    @example({(0, IP_MAX), (1, IP_MAX), (CALENDAR.n_days, 0), (2, 0)})
    def test_weekly_series(self, tuples):
        keys = pack_targets(tuples)
        assert np.array_equal(
            weekly_target_counts(keys, CALENDAR),
            ref_weekly_tuple_counts(tuples, CALENDAR),
        )
        for got, want in zip(
            split_new_recurring(keys, CALENDAR),
            ref_split_new_recurring(tuples, CALENDAR),
        ):
            assert np.array_equal(got, want)

    def test_fraction_one_draws_nothing(self):
        rng = RngFactory(0).stream("s")
        keys = pack_targets({(0, 1), (2, 3)})
        assert subsample_baseline(keys, 1.0, rng) is keys
        assert rng.random() == RngFactory(0).stream("s").random()

    @settings(**_SETTINGS)
    @given(named_target_sets)
    @example(TIED)
    @example({"A": set(), "B": set()})
    @example({"A": set(), "B": {(0, 1)}, "C": set()})
    @example({"A": {(0, 1), (0, 2)}, "B": {(1, 1), (1, 2)}})
    def test_membership_is_the_searchsorted_union(self, named_sets):
        """The one-argsort union equals the union it replaced:
        ``unique_keys`` of the concatenated sets, then each set's bit set
        at its ``searchsorted`` positions; empty and disjoint sets too."""
        named_keys = packed(named_sets)
        keys = unique_keys(np.concatenate(list(named_keys.values())))
        mask = np.zeros(len(keys), dtype=np.uint8)
        for bit, values in enumerate(named_keys.values()):
            mask[np.searchsorted(keys, values)] |= 1 << bit
        members = membership(named_keys)
        assert members.keys.dtype == keys.dtype and members.mask.dtype == mask.dtype
        assert np.array_equal(members.keys, keys)
        assert np.array_equal(members.mask, mask)

    @settings(**_SETTINGS)
    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=40))
    def test_unique_keys_is_np_unique(self, values):
        keys = np.asarray(values, dtype=np.int64)
        assert np.array_equal(unique_keys(keys), np.unique(keys))


# -- the packing precondition -------------------------------------------------------


def _feed(days, targets) -> Observations:
    n = len(targets)
    return Observations(
        "X",
        np.asarray(days),
        np.asarray(targets, dtype=np.int64),
        np.zeros(n, dtype=np.int8),
        np.zeros(n, dtype=np.int16),
        np.zeros(n, dtype=bool),
        np.ones(n),
    )


class TestTargetKeys:
    def test_sorted_unique_like_the_tuples(self):
        feed = _feed([0, 0, 0, 1, 1], [IP_MAX, 0, IP_MAX, 5, 0])
        keys = feed.target_keys()
        assert keys.dtype == np.int64
        assert [(k >> 32, k & IP_MAX) for k in keys.tolist()] == [
            (0, 0),
            (0, IP_MAX),
            (1, 0),
            (1, 5),
        ]

    @pytest.mark.parametrize("target", [-1, 1 << 32, 1 << 40])
    def test_target_outside_ipv4_rejected(self, target):
        with pytest.raises(ValueError, match="outside"):
            _feed([0, 1], [3, target]).target_keys()

    def test_empty_feed(self):
        assert len(Observations("X").target_keys()) == 0

    def test_keys_are_derived_once_and_read_only(self):
        feed = _feed([0, 0, 1], [5, 3, 5])
        keys = feed.target_keys()
        assert feed.target_keys() is keys
        with pytest.raises(ValueError, match="read-only"):
            keys[0] = 0


class TestOneDerivationPerFeed:
    def test_warm_study_sorts_each_feeds_keys_once(self, small_study, monkeypatch):
        """All 17 artifacts plus conformance on a warm study derive each of
        the 8 feeds' target keys once: 8 ``unique_keys`` calls.  (The
        academic membership union merges the sorted sets without it.)"""
        import repro.observatories.base as base_module
        from repro.core.artifacts import artifact_json_bytes, artifact_names
        from repro.core.study import Study
        from repro.obs import collecting

        calls = []

        def counted(keys):
            calls.append(len(keys))
            return unique_keys(keys)

        monkeypatch.setattr(base_module, "unique_keys", counted)
        with collecting() as registry:
            study = Study(small_study.config, cache=True)
            for name in artifact_names():
                artifact_json_bytes(study.artifact(name))
            study.conformance()
        assert registry.snapshot()["counters"].get("cache.hits") == 1
        assert len(study.observations) == 8
        assert len(calls) == 8
