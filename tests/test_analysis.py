import random
from dataclasses import replace

import pytest

from zonesim.analysis import (
    AnalysisError,
    GrowthOrder,
    RoutingExceptions,
    _routing_exceptions,
    attached_customers,
    cone_size_order,
    derive_connected_zone,
    local_region,
    local_region_distribution,
    region_summary_csv,
    routing_exceptions,
    synthetic_prefix,
    zone_growth_curve,
)
from zonesim.registry import RegistrySet, Roa
from zonesim.routing import NonConvergenceError, Origination, PolicyHooks, PreferenceOrder
from zonesim.topology import Rel, Topology, customer_cone, load_topology
from zonesim.vipzone import ZoneConfig, zone_policy

from oracles import (
    DISAGREE,
    PeerFirst,
    attached_customers_oracle,
    brute_force_local_region,
    dfs_cone_order,
    exceptions_by_two_solves,
    greedy_curve_oracle,
    oracle_fixpoint,
    protected_count,
    random_connected_members,
    random_topology,
    random_zone_instance,
)


class TestDeriveConnectedZone:
    def test_recursion_rule(self):
        # 4's only provider (3) is not in the roster, so 4 stays out.
        topo = load_topology("1|2|-1\n1|3|-1\n3|4|-1")
        d = derive_connected_zone(topo, {1, 2, 4})
        assert d.connected_members == {1, 2}
        assert d.attached_customers == {3}

    def test_deep_chain(self):
        topo = load_topology("1|2|-1\n2|3|-1\n3|4|-1")
        d = derive_connected_zone(topo, {1, 2, 3, 4})
        assert d.connected_members == {1, 2, 3, 4}
        assert d.attached_customers == frozenset()

    def test_matches_upward_bfs_oracle(self):
        # Independent check: a roster member is connected when some chain
        # of roster-only providers above it reaches a provider-free
        # roster member.
        def oracle(topo, roster):
            connected = set()
            for start in roster:
                stack, seen = [start], {start}
                while stack:
                    node = stack.pop()
                    if not topo.providers_of(node):
                        connected.add(start)
                        break
                    for p in topo.providers_of(node):
                        if p in roster and p not in seen:
                            seen.add(p)
                            stack.append(p)
            return frozenset(connected)

        rng = random.Random(23)
        for _ in range(40):
            topo = random_topology(rng, 12, 4)
            roster = {a for a in topo.asns if rng.random() < 0.5}
            d = derive_connected_zone(topo, roster)
            assert d.connected_members == oracle(topo, roster)
            assert d.attached_customers == attached_customers(topo, d.connected_members)

    def test_monotone_in_roster(self):
        rng = random.Random(29)
        for _ in range(20):
            topo = random_topology(rng, 12, 3)
            asns = sorted(topo.asns)
            small = {a for a in asns if rng.random() < 0.3}
            large = small | {a for a in asns if rng.random() < 0.3}
            d_small = derive_connected_zone(topo, small)
            d_large = derive_connected_zone(topo, large)
            assert d_small.connected_members <= d_large.connected_members

    def test_attached_customers_matches_per_as_oracle(self):
        # Member sets of any shape, with ASNs the graph lacks (ignored).
        rng = random.Random(31)
        for _ in range(60):
            topo = random_topology(rng, rng.randint(2, 60), rng.randint(0, 40))
            asns = sorted(topo.asns)
            members = {a for a in asns if rng.random() < rng.random()}
            members |= set(rng.sample(range(len(asns) + 1, len(asns) + 50), rng.randint(0, 3)))
            want = attached_customers_oracle(topo, members)
            assert attached_customers(topo, members) == want
            assert attached_customers(topo, iter(members)) == want


class TestGrowthCurve:
    def test_star(self):
        k = 7
        topo = load_topology("\n".join(f"1|{i}|-1" for i in range(2, 2 + k)))
        curve = zone_growth_curve(topo, GrowthOrder.BY_CONE_SIZE, [1])
        assert curve == [(1, k + 1)]

    def test_sizes_must_ascend(self):
        topo = load_topology("1|2|-1")
        with pytest.raises(AnalysisError, match="ascending"):
            zone_growth_curve(topo, GrowthOrder.BY_CONE_SIZE, [2, 1])

    def test_by_cone_order_ties_by_lower_asn(self):
        topo = load_topology("1|3|-1\n2|4|-1")
        order = cone_size_order(topo)
        assert order == [1, 2, 3, 4]

    def test_greedy_matches_exhaustive_argmax(self):
        rng = random.Random(37)
        for _ in range(10):
            topo = random_topology(rng, 20, 5)
            n = len(topo.asns)
            sizes = list(range(1, n + 1))
            curve = zone_growth_curve(topo, GrowthOrder.GREEDY_PROTECTED_GAIN, sizes)

            zone: set[int] = set()
            expected = []
            for size in sizes:
                remaining = topo.asns - zone
                chosen = max(
                    remaining,
                    key=lambda c: (
                        protected_count(topo, zone | {c}),
                        len(customer_cone(topo, c)),
                        -c,
                    ),
                )
                zone.add(chosen)
                expected.append((size, protected_count(topo, zone)))
            assert curve == expected

    def test_curves_monotone(self):
        rng = random.Random(41)
        for _ in range(10):
            topo = random_topology(rng, 15, 5)
            sizes = list(range(1, len(topo.asns) + 1))
            for order in GrowthOrder:
                curve = zone_growth_curve(topo, order, sizes)
                counts = [c for _, c in curve]
                assert counts == sorted(counts)

    def test_sizes_clamped(self):
        topo = load_topology("1|2|-1")
        assert zone_growth_curve(topo, GrowthOrder.BY_CONE_SIZE, [5]) == [(2, 2)]

    @pytest.mark.parametrize("order", list(GrowthOrder))
    def test_negative_sizes_rejected(self, order):
        topo = load_topology("1|2|-1\n1|3|-1\n3|4|-1")
        with pytest.raises(AnalysisError, match="non-negative"):
            zone_growth_curve(topo, order, [-2, 1])
        assert zone_growth_curve(topo, order, [0]) == [(0, 0)]

    @pytest.mark.parametrize("order", [o.value for o in GrowthOrder] + [None])
    def test_order_must_be_a_member(self, order):
        # The two orders' curves differ on this graph, so reading a value
        # that is not a member as either order could give a wrong curve.
        topo = load_topology("1|2|-1\n2|3|-1\n2|4|-1\n5|6|-1\n5|7|-1")
        assert zone_growth_curve(topo, GrowthOrder.BY_CONE_SIZE, [1, 2]) != (
            zone_growth_curve(topo, GrowthOrder.GREEDY_PROTECTED_GAIN, [1, 2])
        )
        with pytest.raises(AnalysisError, match="unknown growth order"):
            zone_growth_curve(topo, order, [1, 2])


def tied_topology(rng: random.Random) -> Topology:
    """A random hierarchy of 50-400 ASes plus groups of identical hub-and-stub
    stars, so many candidates tie on gain and cone size and some stubs are
    shared between hubs."""
    base = random_topology(rng, rng.randint(42, 250), rng.randint(0, 150))
    records = base.records()
    parents = sorted(base.asns)
    asn = len(parents)
    for _ in range(rng.randint(2, 6)):
        stubs = rng.randint(1, 4)
        hubs = []
        for _ in range(rng.randint(2, 5)):
            asn += 1
            hubs.append(asn)
            records.append((rng.choice(parents), asn, -1))
            for _ in range(stubs):
                asn += 1
                records.append((hubs[-1], asn, -1))
        if rng.random() < 0.5:
            # one stub of the first hub also buys transit from the second
            records.append((hubs[1], hubs[0] + 1, -1))
    return Topology.from_records(records)


class TestAnalysisOracles:
    def test_cone_size_order_matches_dfs_order(self):
        rng = random.Random(83)
        for _ in range(20):
            topo = tied_topology(rng)
            n = len(topo.asns)
            ranked = dfs_cone_order(topo)
            # Most cones tie (every stub's is empty), so this pins the ties
            # of the stable reverse sort to the oracle's (-size, ASN) order.
            assert len({len(customer_cone(topo, a)) for a in topo.asns}) <= n // 2
            assert cone_size_order(topo) == ranked
            sizes = sorted(rng.sample(range(n + 5), 8))
            assert zone_growth_curve(topo, GrowthOrder.BY_CONE_SIZE, sizes) == [
                (min(s, n), protected_count(topo, ranked[: min(s, n)])) for s in sizes
            ]

    def test_greedy_matches_rescan_oracle(self):
        rng = random.Random(89)
        for _ in range(12):
            topo = tied_topology(rng)
            sizes = list(range(1, len(topo.asns) + 1))
            curve = zone_growth_curve(topo, GrowthOrder.GREEDY_PROTECTED_GAIN, sizes)
            assert curve == greedy_curve_oracle(topo, sizes)


class TestLocalRegion:
    def fig_topology(self):
        # Zone member X=1 provides A=10.  A has customers B=20, G=21, a
        # peer E=30 with customer F=31, and a second, non-member provider
        # H=40 with customer J=41 and peer S=50 whose customer is T=51.
        return load_topology(
            "1|10|-1\n10|20|-1\n10|21|-1\n10|30|0\n30|31|-1\n"
            "40|10|-1\n40|41|-1\n40|50|0\n50|51|-1"
        )

    def test_enumerated_example(self):
        topo = self.fig_topology()
        cfg = ZoneConfig(members=frozenset({1}))
        region = local_region(topo, cfg, 10).region
        assert region == {20, 21, 30, 31, 40, 41, 50, 51}

    def test_recursion_through_non_member_provider_chain(self):
        # Give H a non-member provider with its own customer and peer realm.
        topo = load_topology(
            "1|10|-1\n10|20|-1\n40|10|-1\n60|40|-1\n60|61|-1\n60|70|0\n70|71|-1"
        )
        cfg = ZoneConfig(members=frozenset({1}))
        region = local_region(topo, cfg, 10).region
        assert region == {20, 40, 60, 61, 70, 71}

    def test_stub_with_member_provider_has_empty_region(self):
        topo = load_topology("1|10|-1")
        cfg = ZoneConfig(members=frozenset({1}))
        assert local_region(topo, cfg, 10).region == frozenset()

    def test_member_peer_blocks(self):
        # A peer that is a member contributes nothing.
        topo = load_topology("1|10|-1\n2|10|0\n2|22|-1\n1|2|0")
        cfg = ZoneConfig(members=frozenset({1, 2}))
        assert local_region(topo, cfg, 10).region == frozenset()

    def test_member_rejected_as_customer(self):
        topo = load_topology("1|10|-1")
        cfg = ZoneConfig(members=frozenset({1}))
        with pytest.raises(AnalysisError, match="member"):
            local_region(topo, cfg, 1)

    def test_matches_path_enumeration_oracle(self):
        rng = random.Random(61)
        for _ in range(40):
            topo = random_topology(rng, rng.randint(4, 15), rng.randint(0, 8))
            members = random_connected_members(rng, topo)
            cfg = ZoneConfig(members=members)
            for customer in sorted(topo.asns - members):
                got = local_region(topo, cfg, customer).region
                want = brute_force_local_region(topo, members, customer)
                assert got == want, (topo.records(), members, customer)

    def test_ix_augmentation_grows_region(self):
        rng = random.Random(67)
        from zonesim.topology import augment_with_ix_peering

        for _ in range(20):
            topo = random_topology(rng, 10, 2)
            asns = sorted(topo.asns)
            ix = {"x": frozenset(rng.sample(asns, k=4))}
            members = random_connected_members(rng, topo)
            cfg = ZoneConfig(members=members)
            aug = augment_with_ix_peering(topo, ix)
            for customer in sorted(topo.asns - members):
                plain = local_region(topo, cfg, customer).region
                wide = local_region(aug, cfg, customer).region
                assert plain <= wide


class TestLocalRegionDistribution:
    def test_all_stub_star(self):
        topo = load_topology("\n".join(f"1|{i}|-1" for i in range(2, 8)))
        dist = local_region_distribution(topo, [1])
        assert all(size == 0 for _, _, size in dist.rows)
        summary = dist.summaries[0]
        assert summary.frac_leq_1 == 1.0
        assert summary.p90 == 0.0

    def test_two_cluster_bimodal(self):
        # Member 1 serves three pure stubs and two customers that are
        # double-homed to a big non-member hub; their regions jump to the
        # hub's whole world while the stubs stay at zero.
        recs = ["1|5|-1"]
        recs += [f"1|{a}|-1" for a in (10, 11, 12, 13, 14)]
        recs += [f"5|{a}|-1" for a in (10, 11)]
        recs += [f"5|{a}|-1" for a in range(50, 60)]
        topo = load_topology("\n".join(recs))
        dist = local_region_distribution(topo, [1])
        sizes = {cust: size for _, cust, size in dist.rows}
        assert sizes[12] == sizes[13] == sizes[14] == 0
        assert sizes[10] > 10 and sizes[11] > 10
        # Oracle per customer.
        cfg = ZoneConfig(members=frozenset({1}))
        for cust, size in sizes.items():
            assert size == len(brute_force_local_region(topo, cfg.members, cust))
        summary = dist.summaries[0]
        assert 0 < summary.frac_leq_1 < 1

    def test_rows_match_path_enumeration_oracle(self):
        # The customers of one zone share their member-avoiding cones.
        rng = random.Random(71)
        for _ in range(30):
            topo = random_topology(rng, rng.randint(4, 16), rng.randint(0, 10))
            ranked = cone_size_order(topo)
            sizes = sorted(rng.sample(range(len(ranked) + 1), k=2))
            dist = local_region_distribution(topo, sizes)
            want = [
                (size, cust, len(brute_force_local_region(topo, members, cust)))
                for size in sizes
                for members in [frozenset(ranked[:size])]
                for cust in sorted(attached_customers(topo, members))
            ]
            assert list(dist.rows) == want, topo.records()

    def test_negative_sizes_rejected(self):
        topo = load_topology("1|2|-1\n2|3|-1\n1|4|-1")
        with pytest.raises(AnalysisError, match="non-negative"):
            local_region_distribution(topo, [1, -1])

    def test_sizes_may_be_an_iterator(self):
        topo = random_topology(random.Random(5), 40, 12)
        dist = local_region_distribution(topo, [1, 2])
        assert len(dist.summaries) == 2 and dist.rows
        assert local_region_distribution(topo, iter([1, 2])) == dist

    def test_zone_sizes_use_cone_order(self):
        topo = load_topology("1|2|-1\n2|3|-1\n1|4|-1")
        dist = local_region_distribution(topo, [1, 2])
        assert {z for z, _, _ in dist.rows} == {1, 2}

    def test_summary_csv_bytes(self):
        # Linearly interpolated quantiles between region sizes, and an
        # empty zone with no attached customers, formatted as shipped.
        topo = random_topology(random.Random(5), 40, 12)
        dist = local_region_distribution(topo, [0, 2, 4, 8, 16])
        assert region_summary_csv(dist) == (
            "zone_size,p10,p50,p90,frac_leq_1\n"
            "0,0,0,0,0\n"
            "2,2,11,15.4,0\n"
            "4,0,2.5,13.3,0.277778\n"
            "8,0,2,4,0.4\n"
            "16,0,0,2.1,0.85\n"
        )


class TestRoutingExceptions:
    def test_peering_across_perimeter(self):
        # Member 7 peers with non-member 30; 30 also sells transit to 20,
        # which is a customer of member 6 as well.  The verified route to
        # 20 arrives via provider 6 and must win over the peer route.
        topo = load_topology("6|7|-1\n6|20|-1\n30|20|-1\n6|30|-1\n30|7|0")
        cfg = ZoneConfig(members=frozenset({6, 7}))
        result = routing_exceptions(topo, cfg, 7)
        assert result.count == 1
        assert result.destinations == (20,)

    def test_no_multihoming_no_exceptions(self):
        topo = load_topology("1|2|-1\n2|3|-1")
        cfg = ZoneConfig(members=frozenset({1, 2}))
        for member in (1, 2):
            assert routing_exceptions(topo, cfg, member).count == 0

    def test_requires_member(self):
        topo = load_topology("1|2|-1")
        cfg = ZoneConfig(members=frozenset({1}))
        with pytest.raises(AnalysisError, match="member"):
            routing_exceptions(topo, cfg, 2)

    def test_synthetic_prefix_is_a_disjoint_112_per_as(self):
        asns = (1, 2, 14, 65535, 65536, 4_200_000_000)
        prefixes = [synthetic_prefix(a) for a in asns]
        assert all(p.prefixlen == 112 for p in prefixes)
        assert str(synthetic_prefix(5)) == "2001:db8::5:0/112"
        for i, a in enumerate(prefixes):
            for b in prefixes[i + 1:]:
                assert not a.overlaps(b)

    @pytest.mark.parametrize("seed,member,destination", [(33, 2, 14), (24, 17, 1)])
    def test_nonconvergent_zone_reports_one_prefix(self, seed, member, destination):
        # Toggling one member's preference leaves one destination's probe
        # prefix without a stable state; only that prefix is reported.
        topo, members = random_zone_instance(seed)
        with pytest.raises(NonConvergenceError) as excinfo:
            routing_exceptions(topo, ZoneConfig(members=members), member)
        prefix = synthetic_prefix(destination)
        assert excinfo.value.prefixes == (prefix,)
        assert excinfo.value.oscillating[prefix]
        assert set(excinfo.value.oscillating[prefix]) <= topo.asns

    @pytest.mark.parametrize(
        "seed,member,destinations", [(75, 18, (4, 21, 30, 34)), (226, 14, (23,))]
    )
    def test_closed_form_counterexamples(self, seed, member, destinations):
        # A closed form (flag a destination when the verified best is
        # provider-learned and a customer or peer candidate exists) reports
        # no exceptions on these instances: a member customer that ranks
        # VERIFIED first exports its route up only once the member's best
        # is untagged, so only the second solve finds these destinations.
        topo, members = random_zone_instance(seed)
        result = routing_exceptions(topo, ZoneConfig(members=members), member)
        assert result.destinations == destinations

    @pytest.mark.parametrize("seed", [*range(60), 63, 68, 75, 80, 148, 226])
    def test_matches_two_full_solves(self, seed):
        # Seeds 24 and 33 have mixed solves that do not converge, and 148
        # has two members whose do; 75 and 226 have exceptions only the
        # mixed solve finds.  On 63, 68, 75 and 80 (24, 31, 53 and 18
        # pairs), and on 0, 7, 8, 9 and others below 60, watching every
        # member at every destination flags (member, destination) pairs
        # outside the member's reach, whose mixed solves the bound skips.
        # One all-members call gives the per-member answers, or every
        # failing member's prefixes, merged.
        topo, members = random_zone_instance(seed)
        cfg = ZoneConfig(members=members)

        def outcome(solve, *args):
            try:
                return solve(topo, cfg, *args)
            except NonConvergenceError as exc:
                return exc.oscillating

        per_member = []
        for member in sorted(members):
            want = outcome(exceptions_by_two_solves, member)
            assert outcome(routing_exceptions, member) == want
            per_member.append(want)
        failed = [r for r in per_member if isinstance(r, dict)]
        expected = {p: a for r in failed for p, a in r.items()} if failed else per_member
        assert outcome(_routing_exceptions, sorted(members)) == expected

    def test_failed_verified_solve_raises_before_any_mixed_solve(self, monkeypatch):
        # Every AS of the DISAGREE gadget ranks peer routes first, so the
        # verified solve of 10's probe prefix never settles.
        import zonesim.analysis as analysis

        def peer_first_policy(topo, cfg, reg):
            return replace(zone_policy(topo, cfg, reg), preference_for=lambda asn: PeerFirst())

        verified, mixed = [], []
        real = analysis._propagate_prefix

        def counting(net, prefix, origs, watch=None):
            (verified if watch else mixed).append(prefix)
            return real(net, prefix, origs, watch)

        monkeypatch.setattr(analysis, "zone_policy", peer_first_policy)
        monkeypatch.setattr(analysis, "_propagate_prefix", counting)
        topo = load_topology(DISAGREE)
        with pytest.raises(NonConvergenceError) as excinfo:
            _routing_exceptions(topo, ZoneConfig(members=frozenset({1, 2})), [1, 2])
        assert excinfo.value.oscillating == {synthetic_prefix(10): (1, 2)}
        assert len(verified) == 3
        assert mixed == []

    def test_oscillation_outside_the_reach_is_not_solved(self, monkeypatch):
        # The DISAGREE gadget under PeerFirst, plus stub 3 below member 1.
        # Member 3 has no customers and no peers, so no state of 10's
        # oscillating probe prefix can hold an exception of 3: that prefix
        # is not solved and 3 gets 0 exceptions, where the unbounded
        # two-solve oracle raises.  Member 1 reaches 10 and still raises.
        import zonesim.analysis as analysis
        import zonesim.vipzone as vipzone

        real = vipzone.zone_policy

        def peer_first_policy(topo, cfg, reg):
            return replace(real(topo, cfg, reg), preference_for=lambda asn: PeerFirst())

        monkeypatch.setattr(analysis, "zone_policy", peer_first_policy)
        monkeypatch.setattr(vipzone, "zone_policy", peer_first_policy)
        topo = load_topology(DISAGREE + "\n1|3|-1")
        cfg = ZoneConfig(members=frozenset({1, 2, 3}))
        with pytest.raises(NonConvergenceError) as excinfo:
            exceptions_by_two_solves(topo, cfg, 3)
        assert synthetic_prefix(10) in excinfo.value.oscillating
        assert routing_exceptions(topo, cfg, 3) == RoutingExceptions(3, 0, ())
        for asked in ([1], [1, 3], [3, 1]):
            with pytest.raises(NonConvergenceError) as excinfo:
                _routing_exceptions(topo, cfg, asked)
            assert excinfo.value.oscillating == {synthetic_prefix(10): (1, 2, 3)}

    def test_matches_double_oracle_recomputation(self):
        # Recompute both runs with the independent path-universe solver
        # and diff, then compare against the implementation.
        rng = random.Random(71)
        checked = 0
        for _ in range(8):
            topo = random_topology(rng, rng.randint(4, 9), rng.randint(1, 4))
            members = random_connected_members(rng, topo)
            if not members:
                continue
            cfg = ZoneConfig(members=members)
            member = sorted(members)[0]
            got = routing_exceptions(topo, cfg, member)

            originations = [
                Origination(a, synthetic_prefix(a)) for a in sorted(topo.asns)
            ]
            reg = RegistrySet(
                roas=[Roa(synthetic_prefix(a), a) for a in sorted(topo.asns)]
            )
            base = zone_policy(topo, cfg, reg)
            plain = PreferenceOrder(verified_first=False)
            mixed = PolicyHooks(
                base.import_route,
                base.export_route,
                lambda asn: plain if asn == member else base.preference_for(asn),
            )
            with_v = oracle_fixpoint(topo, originations, base)
            without_v = oracle_fixpoint(topo, originations, mixed)
            expected = []
            for dest in sorted(topo.asns):
                cell = (member, synthetic_prefix(dest))
                a = with_v.get(cell)
                b = without_v.get(cell)
                if a is None or b is None:
                    continue
                if a[0].learned_rel is Rel.PROVIDER and b[0].learned_rel in (
                    Rel.CUSTOMER,
                    Rel.PEER,
                ):
                    expected.append(dest)
            assert got.destinations == tuple(expected)
            checked += 1
        assert checked >= 4
