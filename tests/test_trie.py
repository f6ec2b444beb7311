"""Tests for the longest-prefix-match table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addr import IPV4_MAX, parse_ip, parse_prefix
from repro.net.trie import PrefixTable


def table_from(entries: dict[str, str]) -> PrefixTable:
    table: PrefixTable[str] = PrefixTable()
    for text, value in entries.items():
        table.insert(parse_prefix(text), value)
    return table


class TestBasicOperations:
    def test_insert_and_exact_get(self):
        table = table_from({"10.0.0.0/8": "a"})
        assert table.get(parse_prefix("10.0.0.0/8")) == "a"
        assert table.get(parse_prefix("10.0.0.0/9")) is None
        assert len(table) == 1

    def test_insert_replaces(self):
        table = table_from({"10.0.0.0/8": "a"})
        table.insert(parse_prefix("10.0.0.0/8"), "b")
        assert table.get(parse_prefix("10.0.0.0/8")) == "b"
        assert len(table) == 1

    def test_contains(self):
        table = table_from({"10.0.0.0/8": "a"})
        assert parse_prefix("10.0.0.0/8") in table
        assert parse_prefix("11.0.0.0/8") not in table

    def test_items_sorted_longest_first(self):
        table = table_from({"10.0.0.0/8": "a", "10.1.0.0/16": "b", "0.0.0.0/0": "c"})
        lengths = [prefix.length for prefix, _ in table.items()]
        assert lengths == sorted(lengths, reverse=True)


class TestLongestPrefixMatch:
    def test_most_specific_wins(self):
        table = table_from(
            {"10.0.0.0/8": "wide", "10.1.0.0/16": "mid", "10.1.2.0/24": "narrow"}
        )
        hit = table.lookup(parse_ip("10.1.2.3"))
        assert hit is not None
        assert hit[1] == "narrow"
        assert table.lookup(parse_ip("10.1.3.1"))[1] == "mid"
        assert table.lookup(parse_ip("10.9.9.9"))[1] == "wide"

    def test_no_match(self):
        table = table_from({"10.0.0.0/8": "a"})
        assert table.lookup(parse_ip("11.0.0.0")) is None

    def test_default_route(self):
        table = table_from({"0.0.0.0/0": "default", "10.0.0.0/8": "a"})
        assert table.lookup(parse_ip("200.1.1.1"))[1] == "default"

    @given(st.integers(min_value=0, max_value=IPV4_MAX))
    def test_lpm_matches_brute_force(self, address):
        entries = {
            "0.0.0.0/0": "d",
            "10.0.0.0/8": "a",
            "10.128.0.0/9": "b",
            "10.128.64.0/18": "c",
            "172.16.0.0/12": "e",
            "192.0.2.0/24": "f",
        }
        table = table_from(entries)
        hit = table.lookup(address)
        brute = max(
            (
                (parse_prefix(text), value)
                for text, value in entries.items()
                if parse_prefix(text).contains(address)
            ),
            key=lambda pair: pair[0].length,
            default=None,
        )
        assert (hit is None) == (brute is None)
        if hit is not None:
            assert hit[0] == brute[0]


class TestLongestCoveringAll:
    def test_finds_common_routed_prefix(self):
        table = table_from({"10.0.0.0/8": "a", "10.1.0.0/16": "b"})
        ips = [parse_ip("10.1.0.1"), parse_ip("10.1.255.254")]
        hit = table.longest_covering_all(ips)
        assert str(hit[0]) == "10.1.0.0/16"

    def test_falls_back_to_wider_prefix(self):
        table = table_from({"10.0.0.0/8": "a", "10.1.0.0/16": "b"})
        ips = [parse_ip("10.1.0.1"), parse_ip("10.2.0.1")]
        hit = table.longest_covering_all(ips)
        assert str(hit[0]) == "10.0.0.0/8"

    def test_respects_length_bounds(self):
        table = table_from({"10.0.0.0/8": "a", "10.1.0.0/16": "b"})
        ips = [parse_ip("10.1.0.1"), parse_ip("10.1.0.2")]
        hit = table.longest_covering_all(ips, min_length=11, max_length=28)
        assert str(hit[0]) == "10.1.0.0/16"
        hit = table.longest_covering_all(ips, min_length=11, max_length=12)
        assert hit is None  # /16 too long, /8 too short

    def test_none_when_no_cover(self):
        table = table_from({"192.0.2.0/24": "a"})
        assert table.longest_covering_all([parse_ip("10.0.0.1")]) is None

    def test_empty_list_raises(self):
        table = table_from({"10.0.0.0/8": "a"})
        with pytest.raises(ValueError):
            table.longest_covering_all([])
