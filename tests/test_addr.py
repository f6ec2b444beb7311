"""Tests for IPv4 address and prefix primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addr import (
    IPV4_MAX,
    Prefix,
    common_prefix,
    format_ip,
    parse_ip,
    parse_prefix,
    prefix_of,
)

addresses = st.integers(min_value=0, max_value=IPV4_MAX)
lengths = st.integers(min_value=0, max_value=32)


class TestParseFormat:
    def test_round_trip_known_values(self):
        for text in ("0.0.0.0", "10.0.0.1", "192.0.2.255", "255.255.255.255"):
            assert format_ip(parse_ip(text)) == text

    @given(addresses)
    def test_round_trip_property(self, address):
        assert parse_ip(format_ip(address)) == address

    @pytest.mark.parametrize(
        "bad", ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "01.2.3.4", "-1.0.0.0"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_ip(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_ip(IPV4_MAX + 1)
        with pytest.raises(ValueError):
            format_ip(-1)


class TestPrefix:
    def test_basic_properties(self):
        prefix = parse_prefix("192.0.2.0/24")
        assert prefix.size == 256
        assert prefix.first == parse_ip("192.0.2.0")
        assert prefix.last == parse_ip("192.0.2.255")
        assert str(prefix) == "192.0.2.0/24"

    def test_rejects_unaligned_network(self):
        with pytest.raises(ValueError):
            Prefix(parse_ip("192.0.2.1"), 24)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Prefix(0, 33)

    def test_contains(self):
        prefix = parse_prefix("10.0.0.0/8")
        assert prefix.contains(parse_ip("10.255.0.1"))
        assert not prefix.contains(parse_ip("11.0.0.0"))

    def test_covers_and_overlaps(self):
        big = parse_prefix("10.0.0.0/8")
        small = parse_prefix("10.1.0.0/16")
        other = parse_prefix("11.0.0.0/8")
        assert big.covers(small)
        assert not small.covers(big)
        assert big.overlaps(small)
        assert not big.overlaps(other)

    def test_subnets(self):
        halves = list(parse_prefix("10.0.0.0/8").subnets(9))
        assert [str(p) for p in halves] == ["10.0.0.0/9", "10.128.0.0/9"]
        with pytest.raises(ValueError):
            list(parse_prefix("10.0.0.0/24").subnets(8))

    def test_zero_length_prefix_covers_everything(self):
        everything = Prefix(0, 0)
        assert everything.size == 1 << 32
        assert everything.contains(IPV4_MAX)

    @given(addresses, lengths)
    def test_prefix_of_contains_address(self, address, length):
        assert prefix_of(address, length).contains(address)

    @given(addresses, st.integers(min_value=1, max_value=32))
    def test_subnets_partition_supernet(self, address, length):
        prefix = prefix_of(address, length)
        wider = prefix_of(address, length - 1)
        halves = list(wider.subnets(length))
        assert len(halves) == 2
        assert sum(half.size for half in halves) == wider.size
        assert prefix in halves


class TestParsePrefix:
    def test_rejects_missing_length(self):
        with pytest.raises(ValueError):
            parse_prefix("10.0.0.0")

    def test_round_trip(self):
        assert str(parse_prefix("0.0.0.0/0")) == "0.0.0.0/0"


class TestCommonPrefix:
    def test_single_address(self):
        ip = parse_ip("10.2.3.4")
        result = common_prefix([ip])
        assert result.length == 32
        assert result.network == ip

    def test_two_addresses(self):
        result = common_prefix([parse_ip("10.0.0.1"), parse_ip("10.0.0.200")])
        assert str(result) == "10.0.0.0/24"

    def test_wide_spread(self):
        result = common_prefix([parse_ip("10.0.0.1"), parse_ip("11.0.0.1")])
        assert result.length == 7

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            common_prefix([])

    @given(st.lists(addresses, min_size=1, max_size=20))
    def test_covers_all_inputs(self, pool):
        result = common_prefix(pool)
        assert all(result.contains(ip) for ip in pool)

    @given(st.lists(addresses, min_size=2, max_size=20))
    def test_is_longest_cover(self, pool):
        result = common_prefix(pool)
        if result.length < 32:
            tighter = prefix_of(min(pool), result.length + 1)
            assert not all(tighter.contains(ip) for ip in pool)
