"""Tests for RIR registry, AS registry, and routing table."""

import pytest

from repro.net.addr import parse_ip, parse_prefix
from repro.net.asn import ASInfo, ASKind, ASRegistry
from repro.net.rir import AllocationBlock, RirRegistry
from repro.net.routing import RoutingTable


class TestRirRegistry:
    def test_allocate_and_lookup(self):
        rir = RirRegistry()
        block = rir.allocate(parse_prefix("10.0.0.0/16"), "RIPE", 64500)
        assert rir.block_of(parse_ip("10.0.1.2")) is block
        assert rir.block_of(parse_ip("11.0.0.0")) is None

    def test_rejects_unknown_rir(self):
        with pytest.raises(ValueError):
            AllocationBlock(parse_prefix("10.0.0.0/16"), "NOTRIR", 64500)

    def test_rejects_overlapping_allocation(self):
        rir = RirRegistry()
        rir.allocate(parse_prefix("10.0.0.0/16"), "RIPE", 64500)
        with pytest.raises(ValueError):
            rir.allocate(parse_prefix("10.0.128.0/17"), "ARIN", 64501)

    def test_same_block(self):
        rir = RirRegistry()
        rir.allocate(parse_prefix("10.0.0.0/16"), "RIPE", 64500)
        rir.allocate(parse_prefix("10.1.0.0/16"), "RIPE", 64500)
        assert rir.same_block(parse_ip("10.0.0.1"), parse_ip("10.0.255.1"))
        assert not rir.same_block(parse_ip("10.0.0.1"), parse_ip("10.1.0.1"))
        assert not rir.same_block(parse_ip("99.0.0.1"), parse_ip("10.0.0.1"))

    def test_blocks_in_prefix(self):
        rir = RirRegistry()
        rir.allocate(parse_prefix("10.0.0.0/18"), "RIPE", 1)
        rir.allocate(parse_prefix("10.0.64.0/18"), "ARIN", 2)
        rir.allocate(parse_prefix("10.1.0.0/16"), "APNIC", 3)
        inside = rir.blocks_in(parse_prefix("10.0.0.0/16"))
        assert [block.asn for block in inside] == [1, 2]
        everything = rir.blocks_in(parse_prefix("10.0.0.0/15"))
        assert [block.asn for block in everything] == [1, 2, 3]
        assert rir.blocks_in(parse_prefix("99.0.0.0/16")) == []

    def test_blocks_in_reflects_later_allocations(self):
        rir = RirRegistry()
        rir.allocate(parse_prefix("10.0.0.0/18"), "RIPE", 1)
        assert len(rir.blocks_in(parse_prefix("10.0.0.0/16"))) == 1
        rir.allocate(parse_prefix("10.0.64.0/18"), "ARIN", 2)
        assert len(rir.blocks_in(parse_prefix("10.0.0.0/16"))) == 2

    def test_len_and_iteration(self):
        rir = RirRegistry()
        rir.allocate(parse_prefix("10.0.0.0/16"), "RIPE", 1)
        rir.allocate(parse_prefix("10.1.0.0/16"), "ARIN", 2)
        assert len(rir) == 2
        assert {block.rir for block in rir.blocks()} == {"RIPE", "ARIN"}


class TestASRegistry:
    def test_add_and_get(self):
        registry = ASRegistry()
        info = registry.add(ASInfo(asn=64500, name="Test", kind=ASKind.HOSTING))
        assert registry.get(64500) is info
        assert 64500 in registry
        assert len(registry) == 1

    def test_duplicate_asn_rejected(self):
        registry = ASRegistry()
        registry.add(ASInfo(asn=64500, name="Test", kind=ASKind.HOSTING))
        with pytest.raises(ValueError):
            registry.add(ASInfo(asn=64500, name="Other", kind=ASKind.ISP))

    def test_invalid_asn_rejected(self):
        with pytest.raises(ValueError):
            ASInfo(asn=0, name="Bad", kind=ASKind.ISP)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ASInfo(asn=1, name="Bad", kind=ASKind.ISP, target_weight=-1.0)

    def test_address_count(self):
        info = ASInfo(asn=1, name="A", kind=ASKind.ISP)
        info.prefixes.append(parse_prefix("10.0.0.0/24"))
        info.prefixes.append(parse_prefix("10.1.0.0/24"))
        assert info.address_count == 512


class TestRoutingTable:
    def test_announce_and_origin(self):
        table = RoutingTable()
        table.announce(parse_prefix("10.0.0.0/8"), 100)
        table.announce(parse_prefix("10.1.0.0/16"), 200)
        assert table.origin_as(parse_ip("10.1.2.3")) == 200
        assert table.origin_as(parse_ip("10.2.0.0")) == 100
        assert table.origin_as(parse_ip("11.0.0.0")) is None

    def test_routed_prefix(self):
        table = RoutingTable()
        table.announce(parse_prefix("10.0.0.0/8"), 100)
        assert str(table.routed_prefix(parse_ip("10.5.5.5"))) == "10.0.0.0/8"
        assert table.routed_prefix(parse_ip("11.0.0.0")) is None

    def test_invalid_origin_rejected(self):
        table = RoutingTable()
        with pytest.raises(ValueError):
            table.announce(parse_prefix("10.0.0.0/8"), 0)

    def test_longest_routed_covering(self):
        table = RoutingTable()
        table.announce(parse_prefix("10.0.0.0/8"), 100)
        table.announce(parse_prefix("10.0.0.0/20"), 100)
        ips = [parse_ip("10.0.1.1"), parse_ip("10.0.14.1")]
        assert str(table.longest_routed_covering(ips, 11, 28)) == "10.0.0.0/20"
        ips = [parse_ip("10.0.1.1"), parse_ip("10.200.0.1")]
        assert table.longest_routed_covering(ips, 11, 28) is None

    def test_routes_iteration(self):
        table = RoutingTable()
        table.announce(parse_prefix("10.0.0.0/8"), 100)
        table.announce(parse_prefix("10.1.0.0/16"), 200)
        assert len(table) == 2
        assert {asn for _, asn in table.routes()} == {100, 200}
