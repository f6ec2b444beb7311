"""Tests for packets and sliding-rate estimation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.traffic.packet import (
    FLAG_ACK,
    FLAG_RST,
    FLAG_SYN,
    ICMP,
    TCP,
    UDP,
    Packet,
    protocol_name,
)
from repro.traffic.rates import SlidingRate


def packet(ts=0.0, src="10.0.0.1", dst="10.0.0.2", proto=UDP, flags=0, **kw):
    from repro.net.addr import parse_ip

    return Packet(
        timestamp=ts,
        src_ip=parse_ip(src),
        dst_ip=parse_ip(dst),
        protocol=proto,
        tcp_flags=flags,
        **kw,
    )


class TestPacket:
    def test_protocol_names(self):
        assert protocol_name(TCP) == "TCP"
        assert protocol_name(UDP) == "UDP"
        assert protocol_name(ICMP) == "ICMP"
        assert protocol_name(99) == "99"

    def test_syn_ack_detection(self):
        assert packet(proto=TCP, flags=FLAG_SYN | FLAG_ACK).is_syn_ack
        assert not packet(proto=TCP, flags=FLAG_SYN).is_syn_ack
        assert not packet(proto=UDP, flags=FLAG_SYN | FLAG_ACK).is_syn_ack

    def test_rst_detection(self):
        assert packet(proto=TCP, flags=FLAG_RST).is_rst
        assert not packet(proto=TCP, flags=FLAG_ACK).is_rst

    def test_backscatter_classification(self):
        # Victim replies are backscatter; unsolicited SYNs (scans) are not.
        assert packet(proto=TCP, flags=FLAG_SYN | FLAG_ACK).is_backscatter_candidate
        assert packet(proto=TCP, flags=FLAG_RST).is_backscatter_candidate
        assert packet(proto=ICMP).is_backscatter_candidate
        assert packet(proto=UDP).is_backscatter_candidate
        assert not packet(proto=TCP, flags=FLAG_SYN).is_backscatter_candidate

    def test_validation(self):
        with pytest.raises(ValueError):
            packet(size=0)
        with pytest.raises(ValueError):
            packet(src_port=70_000)


class TestSlidingRate:
    def test_counts_within_window(self):
        rate = SlidingRate(window=60.0, slide=10.0)
        for t in (0.0, 5.0, 15.0, 25.0):
            rate.add(t)
        assert rate.current == 4
        assert rate.peak == 4

    def test_eviction_outside_window(self):
        rate = SlidingRate(window=60.0, slide=10.0)
        rate.add(0.0)
        rate.add(65.0)
        # Bucket 0 falls outside the window ending at bucket 6, so the two
        # packets never coexist in one window: current and peak are both 1.
        assert rate.current == 1
        assert rate.peak == 1

    def test_peak_tracks_maximum(self):
        rate = SlidingRate(window=60.0, slide=10.0)
        for t in (0.0, 1.0, 2.0):
            rate.add(t)
        rate.add(120.0)
        assert rate.current == 1
        assert rate.peak == 3

    def test_bulk_counts(self):
        rate = SlidingRate(window=60.0, slide=10.0)
        rate.add(0.0, count=30)
        assert rate.peak == 30

    def test_slide_must_divide_window(self):
        with pytest.raises(ValueError):
            SlidingRate(window=60.0, slide=7.0)
        with pytest.raises(ValueError):
            SlidingRate(window=0.0, slide=1.0)

    def test_non_decreasing_required(self):
        rate = SlidingRate(window=60.0, slide=10.0)
        rate.add(50.0)
        with pytest.raises(ValueError):
            rate.add(30.0)

    def test_reset(self):
        rate = SlidingRate(window=60.0, slide=10.0)
        rate.add(0.0, count=5)
        rate.reset()
        assert rate.current == 0
        assert rate.peak == 0

    @given(st.lists(st.floats(min_value=0, max_value=1000), min_size=1, max_size=60))
    def test_window_count_matches_brute_force(self, times):
        times = sorted(times)
        window, slide = 60.0, 10.0
        rate = SlidingRate(window=window, slide=slide)
        for t in times:
            rate.add(t)
        # Brute force: count packets whose bucket lies within the window
        # ending at the last packet's bucket.
        last_bucket = int(times[-1] // slide)
        floor = last_bucket - int(window // slide) + 1
        expected = sum(1 for t in times if floor <= int(t // slide) <= last_bucket)
        assert rate.current == expected
