"""Tests for the synthetic Internet plan."""

from collections import Counter

import numpy as np

from repro.net.addr import parse_ip
from repro.net.plan import (
    HEAVY_HITTERS,
    ORION_TELESCOPE_PREFIX,
    PROLEXIC_ASN,
    UCSD_TELESCOPE_PREFIXES,
    PlanConfig,
    build_internet_plan,
)
from repro.util.rng import RngFactory


class TestTelescopeBlocks:
    def test_telescope_sizes_match_paper(self):
        ucsd_size = sum(prefix.size for prefix in UCSD_TELESCOPE_PREFIXES)
        assert ucsd_size == (1 << 23) + (1 << 22)  # /9 + /10 ≈ 12.6M
        assert ORION_TELESCOPE_PREFIX.size == 1 << 19  # /13 ≈ 524k

    def test_telescope_space_is_unrouted(self, plan):
        for prefix in (*UCSD_TELESCOPE_PREFIXES, ORION_TELESCOPE_PREFIX):
            assert plan.origin_as(prefix.network) is None
            assert plan.origin_as(prefix.last) is None


class TestPlanStructure:
    def test_heavy_hitters_present(self, plan):
        for asn, name, _, _ in HEAVY_HITTERS:
            assert asn in plan.ases
            assert plan.ases.get(asn).name == name
            assert plan.ases.get(asn).prefixes

    def test_prolexic_as_attracts_no_targets(self, plan):
        info = plan.ases.get(PROLEXIC_ASN)
        assert info.target_weight == 0.0

    def test_every_allocation_is_routed_to_owner(self, plan):
        for block in plan.rir.blocks():
            assert plan.origin_as(block.prefix.network) == block.asn

    def test_deterministic_for_seed(self):
        a = build_internet_plan(PlanConfig(seed=3, tail_as_count=40))
        b = build_internet_plan(PlanConfig(seed=3, tail_as_count=40))
        assert sorted(i.asn for i in a.ases) == sorted(i.asn for i in b.ases)
        assert list(a.routing.routes()) == list(b.routing.routes())

    def test_different_seeds_produce_different_plans(self):
        a = build_internet_plan(PlanConfig(seed=3, tail_as_count=40))
        b = build_internet_plan(PlanConfig(seed=4, tail_as_count=40))
        assert list(a.routing.routes()) != list(b.routing.routes())


class TestTargetSampling:
    def test_samples_are_routed(self, plan):
        rng = RngFactory(0).stream("sampling")
        targets = plan.targets_from_uniforms(rng.random((2, 500)))[0]
        assert all(plan.origin_as(int(t)) is not None for t in targets)

    def test_heavy_hitter_shares_roughly_match_weights(self, plan):
        rng = RngFactory(0).stream("sampling-shares")
        targets = plan.targets_from_uniforms(rng.random((2, 30_000)))[0]
        counts = Counter(plan.origin_as(int(t)) for t in targets)
        ovh_share = counts[16276] / len(targets)
        # OVH weight is 18.8 out of 100 total.
        assert 0.15 < ovh_share < 0.23

    def test_sample_target_scalar(self, plan):
        rng = RngFactory(0).stream("single")
        (target,) = plan.targets_from_uniforms(rng.random((2, 1)))[0]
        assert plan.origin_as(int(target)) is not None


class TestVantageFootprints:
    """Netscout and the IXP cover a target by its origin AS (the flow
    monitors test ``origin_asn`` membership); Akamai by prefix."""

    def test_netscout_coverage_matches_customers(self, plan):
        for asn in list(plan.netscout_customer_asns)[:10]:
            prefix = plan.ases.get(asn).prefixes[0]
            assert plan.origin_as(prefix.network) in plan.netscout_customer_asns

    def test_ixp_coverage_matches_members(self, plan):
        member = next(iter(plan.ixp_member_asns))
        prefix = plan.ases.get(member).prefixes[0]
        assert plan.origin_as(prefix.network) in plan.ixp_member_asns

    def test_akamai_customers_are_prefix_scoped(self, plan):
        covered = [prefix for prefix, _ in plan.akamai_customers.items()]
        assert covered
        edges = np.array(
            [edge for prefix in covered[:10] for edge in (prefix.network, prefix.last)],
            dtype=np.int64,
        )
        assert plan.akamai_customer_mask(edges).all()

    def test_unrouted_space_is_uncovered(self, plan):
        address = parse_ip("44.0.0.1")  # telescope space
        assert plan.origin_as(address) not in plan.netscout_customer_asns
        assert plan.origin_as(address) not in plan.ixp_member_asns
        assert not plan.akamai_customer_mask(np.array([address], dtype=np.int64))[0]

    def test_footprint_sizes_follow_config(self, plan):
        config = plan.config
        assert len(plan.netscout_customer_asns) <= config.netscout_customer_count
        assert len(plan.akamai_customers) <= config.akamai_customer_prefixes
        total_ases = len(plan.ases) - 1  # minus Prolexic
        assert len(plan.ixp_member_asns) <= total_ases


class TestSamplerInternals:
    def test_sampler_covers_every_targetable_prefix(self, plan):
        rng = RngFactory(1).stream("coverage")
        targets = plan.targets_from_uniforms(rng.random((2, 50_000)))[0]
        asns_hit = {plan.origin_as(int(t)) for t in targets}
        # Most ASes (heavy-tailed) should appear in a big sample.
        targetable = sum(1 for info in plan.ases if info.target_weight > 0)
        assert len(asns_hit) > targetable * 0.5

    def test_sample_batch_dtype(self, plan):
        rng = RngFactory(1).stream("dtype")
        targets = plan.targets_from_uniforms(rng.random((2, 10)))[0]
        assert targets.dtype == np.int64
