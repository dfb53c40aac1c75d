import random

import pytest

from zonesim.analysis import local_region
from zonesim.attacks import (
    AttackKind,
    AttackScenario,
    ScenarioError,
    harm_csv,
    load_scenario,
    run_scenario,
    sweep_attackers,
)
from zonesim.registry import KycEntry, RegistrySet, Roa, parse_prefix
from zonesim.routing import Origination, propagate
from zonesim.topology import Rel, load_topology
from zonesim.vipzone import VERIFIED, ZoneConfig

from oracles import (
    classify_harm_oracle,
    given_rib,
    random_connected_members,
    random_registry,
    random_topology,
)

P = parse_prefix
PFX = P("192.0.2.0/24")


class TestScenarioShapes:
    def test_forged_path_required(self):
        with pytest.raises(ScenarioError, match="forged_path"):
            AttackScenario(AttackKind.FORGED_ORIGIN_PATH_HIJACK, 30, PFX, 20)

    def test_forged_path_must_end_at_victim(self):
        with pytest.raises(ScenarioError, match="victim origin"):
            AttackScenario(
                AttackKind.FORGED_ORIGIN_PATH_HIJACK, 30, PFX, 20, forged_path=(21,)
            )

    def test_attacker_not_inside_forged_path(self):
        with pytest.raises(ScenarioError, match="attacker"):
            AttackScenario(
                AttackKind.FORGED_ORIGIN_PATH_HIJACK, 30, PFX, 20, forged_path=(30, 20)
            )

    @pytest.mark.parametrize("asn", [0, -1, 2**32, 10**30])
    def test_forged_path_asns_in_range(self, asn):
        # As in an AS path: 1..2**32-1, AS0 excluded (RFC 7607).
        with pytest.raises(ScenarioError, match=f"^invalid ASN {asn} in forged_path"):
            AttackScenario(
                AttackKind.FORGED_ORIGIN_PATH_HIJACK, 30, PFX, 20, forged_path=(asn, 20)
            )
        assert AttackScenario(
            AttackKind.FORGED_ORIGIN_PATH_HIJACK, 30, PFX, 20, forged_path=(2**32 - 1, 20)
        ).forged_path == (2**32 - 1, 20)

    def test_leak_requires_source(self):
        with pytest.raises(ScenarioError, match="leaked_from"):
            AttackScenario(AttackKind.ROUTE_LEAK, 10, PFX, 20)

    def test_attacker_is_not_the_victim_origin(self):
        with pytest.raises(ScenarioError, match="attacker and victim origin must differ"):
            AttackScenario(AttackKind.ORIGIN_HIJACK, 20, PFX, 20)

    def test_unknown_victim_origin_rejected(self):
        topo = load_topology("1|20|-1\n1|30|-1")
        reg, cfg = RegistrySet(), ZoneConfig(members=frozenset())
        scenario = AttackScenario(AttackKind.ORIGIN_HIJACK, 30, PFX, 99)
        with pytest.raises(ScenarioError, match="^victim_origin AS99 not in topology$"):
            run_scenario(topo, reg, cfg, [(20, PFX)], scenario)
        with pytest.raises(ScenarioError, match="^victim_origin AS99 not in topology$"):
            sweep_attackers(topo, reg, cfg, [(20, PFX)], AttackKind.ORIGIN_HIJACK, PFX, 99)

    def test_subprefix_needs_covering_origination(self):
        topo = load_topology("1|20|-1\n1|30|-1")
        scenario = AttackScenario(AttackKind.SUB_PREFIX_HIJACK, 30, PFX, 20)
        with pytest.raises(ScenarioError, match="supernet"):
            run_scenario(
                topo, RegistrySet(), ZoneConfig(members=frozenset()),
                [(20, PFX)], scenario,
            )


class TestForgedOriginInZone:
    """Forged-origin path hijack against a verified prefix.

         1          zone: {1, 2, 3}; B=20 behind member 2 is the victim,
        / \\         Z=30 behind member 3 forges [30 20].
       2   3
       |   | \\
      20  30  40
    """

    TOPO = load_topology("1|2|-1\n1|3|-1\n2|20|-1\n3|30|-1\n3|40|-1")
    CFG = ZoneConfig(members=frozenset({1, 2, 3}))
    REG = RegistrySet(kyc={(2, 20): KycEntry(allowed_prefixes=frozenset({PFX}))})
    SCENARIO = AttackScenario(
        AttackKind.FORGED_ORIGIN_PATH_HIJACK, 30, PFX, 20, forged_path=(20,)
    )

    def test_zone_blocks_misdirection(self):
        report = run_scenario(self.TOPO, self.REG, self.CFG, [(20, PFX)], self.SCENARIO)
        assert report.misdirected == frozenset()
        assert report.owner_harm is False
        assert VERIFIED in report.per_as_best[1].communities

    def test_without_zone_hijack_spreads(self):
        report = run_scenario(
            self.TOPO, self.REG, ZoneConfig(members=frozenset()), [(20, PFX)],
            self.SCENARIO,
        )
        assert 3 in report.misdirected and 40 in report.misdirected
        assert report.owner_harm is True

    def test_attacker_never_counted(self):
        report = run_scenario(
            self.TOPO, self.REG, ZoneConfig(members=frozenset()), [(20, PFX)],
            self.SCENARIO,
        )
        assert 30 not in report.misdirected


class TestMultihomedCustomer:
    """Customer multihomed to a member and a non-member transit provider.

        1            zone: {1, 5}; victim 20 under member 1; J=40 buys
       /|\\           transit from member 5 and non-member 4; attacker
      5 4 20         Z=60 sits behind 4.
       \\|
        40   4--60
    """

    TOPO = load_topology("1|5|-1\n1|4|-1\n1|20|-1\n5|40|-1\n4|40|-1\n4|60|-1")
    REG = RegistrySet(roas=[Roa(PFX, 20)])
    SCENARIO = AttackScenario(
        AttackKind.FORGED_ORIGIN_PATH_HIJACK, 60, PFX, 20, forged_path=(20,)
    )

    def test_plain_customer_may_pick_hijack(self):
        cfg = ZoneConfig(members=frozenset({1, 5}))
        report = run_scenario(self.TOPO, self.REG, cfg, [(20, PFX)], self.SCENARIO)
        assert 40 in report.misdirected
        assert 4 in report.misdirected
        # members stay clean
        assert not report.misdirected & cfg.members

    def test_opt_in_customer_protected(self):
        cfg = ZoneConfig(
            members=frozenset({1, 5}), honor_verified_non_members=frozenset({40})
        )
        report = run_scenario(self.TOPO, self.REG, cfg, [(20, PFX)], self.SCENARIO)
        assert 40 not in report.misdirected
        assert report.misdirected == {4}

    def test_risk_is_exactly_the_local_region(self):
        cfg = ZoneConfig(members=frozenset({1, 5}))
        region = local_region(self.TOPO, cfg, 40).region
        assert region == {4, 60}
        # sweeping every non-member attacker position: 40 is misdirected
        # only when the attacker sits inside its local region (a member
        # gone rogue is outside the threat model; auditing owns that case)
        reports = sweep_attackers(
            self.TOPO, self.REG, cfg, [(20, PFX)],
            AttackKind.FORGED_ORIGIN_PATH_HIJACK, PFX, 20,
            attackers=self.TOPO.asns - cfg.members - {20},
        )
        for report in reports:
            attacker = report.scenario.attacker
            if 40 in report.misdirected:
                assert attacker in region


class TestEqualLengthHijack:
    """Hijacked route of equal AS-path length via a non-member provider.

        1            zone: {1, 6, 7}; victim 20 under 6; L=40 buys from
       / \\           member 7 (route 7 6 20) and non-member 3 (hijacked
      6   3          route 3 50 20, same length); X=50 is the attacker.
      |\\   \\
     20 7   50
        |___/40 (40 under 7 and 3)
    """

    TOPO = load_topology("1|6|-1\n1|3|-1\n6|20|-1\n6|7|-1\n3|50|-1\n7|40|-1\n3|40|-1")
    REG = RegistrySet(roas=[Roa(PFX, 20)])
    SCENARIO = AttackScenario(
        AttackKind.FORGED_ORIGIN_PATH_HIJACK, 50, PFX, 20, forged_path=(20,)
    )

    def test_plain_customer_tiebreaks_into_hijack(self):
        cfg = ZoneConfig(members=frozenset({1, 6, 7}))
        report = run_scenario(self.TOPO, self.REG, cfg, [(20, PFX)], self.SCENARIO)
        assert report.per_as_best[40].as_path == (3, 50, 20)
        assert 40 in report.misdirected

    def test_opt_in_prefers_verified_route(self):
        cfg = ZoneConfig(
            members=frozenset({1, 6, 7}), honor_verified_non_members=frozenset({40})
        )
        report = run_scenario(self.TOPO, self.REG, cfg, [(20, PFX)], self.SCENARIO)
        assert report.per_as_best[40].as_path == (7, 6, 20)
        assert VERIFIED in report.per_as_best[40].communities
        assert 40 not in report.misdirected


class TestRouteLeak:
    """Multihomed non-member leaks a provider-learned route to its other
    provider.

        1            zone: {1, 3, 4}; victim 20 under member 3; leaker 10
       / \\           buys from 3 and 4 and leaks 3's routes to 4;
      3   4          bystander 50 under member 4.
      |\\  |\\
     20 10-+ 50      (10 under 3 and 4)
    """

    TOPO = load_topology("1|3|-1\n1|4|-1\n3|20|-1\n3|10|-1\n4|10|-1\n4|50|-1")
    REG = RegistrySet(roas=[Roa(PFX, 20)])
    SCENARIO = AttackScenario(AttackKind.ROUTE_LEAK, 10, PFX, 20, leaked_from=3)

    def test_leak_has_no_effect_inside_zone(self):
        cfg = ZoneConfig(members=frozenset({1, 3, 4}))
        report = run_scenario(self.TOPO, self.REG, cfg, [(20, PFX)], self.SCENARIO)
        assert report.misdirected == frozenset()
        assert report.owner_harm is False
        best_at_4 = report.per_as_best[4]
        assert best_at_4.as_path == (1, 3, 20)
        assert VERIFIED in best_at_4.communities

    def test_leaked_tag_stripped_on_reentry(self):
        cfg = ZoneConfig(members=frozenset({1, 3, 4}))
        from zonesim.attacks import scenario_rib

        rib = scenario_rib(self.TOPO, self.REG, cfg, [(20, PFX)], self.SCENARIO)
        leaked = [r for r in rib.candidates(4, PFX) if r.as_path[0] == 10]
        assert leaked and all(VERIFIED not in r.communities for r in leaked)

    def test_without_member_4_leak_draws_traffic(self):
        cfg = ZoneConfig(members=frozenset({1, 3}))
        report = run_scenario(self.TOPO, self.REG, cfg, [(20, PFX)], self.SCENARIO)
        assert report.misdirected == {4, 50}
        assert report.owner_harm is True

    @pytest.mark.parametrize(
        "leaker, leaked_from, message",
        [
            (10, 50, "AS50 is not a provider of leaker AS10"),
            (10, 99, "leaked_from AS99 not in topology"),
            (10, 1, "AS1 is not a provider of leaker AS10"),
            (50, 4, "leaker AS50 has no provider to leak to besides AS4"),
        ],
    )
    def test_impossible_leak_rejected(self, leaker, leaked_from, message):
        from zonesim.attacks import scenario_rib

        scenario = AttackScenario(AttackKind.ROUTE_LEAK, leaker, PFX, 20, leaked_from=leaked_from)
        cfg = ZoneConfig(members=frozenset({1, 3}))
        for solve in (scenario_rib, run_scenario):
            with pytest.raises(ScenarioError, match=message):
                solve(self.TOPO, self.REG, cfg, [(20, PFX)], scenario)


class TestSubPrefix:
    TOPO = load_topology("1|2|-1\n1|3|-1\n2|20|-1\n3|30|-1\n3|40|-1")
    CFG = ZoneConfig(members=frozenset({1, 2, 3}))
    WIDE = P("192.0.2.0/23")
    SUB = P("192.0.2.0/24")

    def test_roa_protected_subprefix_dropped_at_perimeter(self):
        reg = RegistrySet(roas=[Roa(self.WIDE, 20)])
        scenario = AttackScenario(AttackKind.SUB_PREFIX_HIJACK, 30, self.SUB, 20)
        report = run_scenario(self.TOPO, reg, self.CFG, [(20, self.WIDE)], scenario)
        assert report.misdirected == frozenset()
        # no member even holds the sub-prefix route
        from zonesim.attacks import scenario_rib

        rib = scenario_rib(self.TOPO, reg, self.CFG, [(20, self.WIDE)], scenario)
        for member in self.CFG.members:
            assert rib.best(member, self.SUB) is None

    def test_unprotected_subprefix_penetrates(self):
        # Negative control: without any ROA the more-specific wins the
        # data plane everywhere, zone or not.
        reg = RegistrySet(
            kyc={(2, 20): KycEntry(allowed_prefixes=frozenset({self.WIDE}))}
        )
        scenario = AttackScenario(AttackKind.SUB_PREFIX_HIJACK, 30, self.SUB, 20)
        report = run_scenario(self.TOPO, reg, self.CFG, [(20, self.WIDE)], scenario)
        assert report.misdirected == self.TOPO.asns - {30}

    def test_victim_competing_more_specific_restores_traffic(self):
        reg = RegistrySet(
            kyc={(2, 20): KycEntry(allowed_prefixes=frozenset({self.WIDE, self.SUB}))}
        )
        scenario = AttackScenario(AttackKind.SUB_PREFIX_HIJACK, 30, self.SUB, 20)
        report = run_scenario(
            self.TOPO, reg, self.CFG, [(20, self.WIDE), (20, self.SUB)], scenario
        )
        assert report.misdirected == frozenset()


class TestSweep:
    def test_origin_hijack_with_roa_never_enters_zone(self):
        topo = load_topology("1|2|-1\n1|3|-1\n2|20|-1\n3|30|-1")
        cfg = ZoneConfig(members=frozenset({1, 2, 3}))
        reg = RegistrySet(roas=[Roa(PFX, 20)])
        reports = sweep_attackers(
            topo, reg, cfg, [(20, PFX)], AttackKind.ORIGIN_HIJACK, PFX, 20
        )
        assert len(reports) == len(topo.asns) - 1
        for report in reports:
            assert not report.misdirected & cfg.members

    def test_empty_zone_reduces_to_plain_hijack(self):
        topo = load_topology("1|2|-1\n1|3|-1")
        cfg = ZoneConfig(members=frozenset())
        reports = sweep_attackers(
            topo, RegistrySet(), cfg, [(3, PFX)],
            AttackKind.ORIGIN_HIJACK, PFX, 3,
        )
        by_attacker = {r.scenario.attacker: r for r in reports}
        # 1 hears two equal customer routes and tiebreaks to the lower
        # neighbor, which is the attacker
        assert by_attacker[2].misdirected == {1}
        assert by_attacker[2].owner_harm is True
        # the top provider hijacking captures 2, whose only route is the
        # forgery; the victim keeps its own route
        assert by_attacker[1].misdirected == {2}

    def test_explicit_attackers_skip_the_victim_origin(self):
        topo = load_topology("1|2|-1\n1|3|-1")
        reports = sweep_attackers(
            topo, RegistrySet(), ZoneConfig(members=frozenset()),
            [(2, PFX)], AttackKind.ORIGIN_HIJACK, PFX, 2, attackers=[2, 3],
        )
        assert [r.scenario.attacker for r in reports] == [3]

    def test_csv_shape(self):
        topo = load_topology("1|2|-1\n1|3|-1")
        reports = sweep_attackers(
            topo, RegistrySet(), ZoneConfig(members=frozenset()),
            [(2, PFX)], AttackKind.ORIGIN_HIJACK, PFX, 2,
        )
        text = harm_csv(reports)
        lines = text.splitlines()
        assert lines[0] == "attacker,owner_harm,misdirected_count,misdirected_asns"
        assert len(lines) == len(reports) + 1

    def test_exhaustive_random_sweeps_respect_local_regions(self):
        # For every attacker outside a customer's local region (and not a
        # member), an exact-prefix forged-origin hijack never captures
        # that customer.
        rng = random.Random(83)
        for _ in range(10):
            topo = random_topology(rng, rng.randint(5, 10), rng.randint(0, 4))
            members = random_connected_members(rng, topo)
            if not members:
                continue
            cfg = ZoneConfig(members=members)
            victims = sorted(
                a for a in topo.asns - members
                if topo.providers_of(a) & members
            )
            if not victims:
                continue
            victim = victims[0]
            reg = RegistrySet(roas=[Roa(PFX, victim)])
            reports = sweep_attackers(
                topo, reg, cfg, [(victim, PFX)],
                AttackKind.FORGED_ORIGIN_PATH_HIJACK, PFX, victim,
                attackers=topo.asns - members - {victim},
            )
            regions = {
                c: local_region(topo, cfg, c).region
                for c in topo.asns - members
            }
            for report in reports:
                attacker = report.scenario.attacker
                # a verified route exists (the perimeter member is honest),
                # so no member is ever misdirected
                assert any(
                    VERIFIED in r.communities
                    for m in members
                    if (r := report.per_as_best.get(m)) is not None
                )
                assert not report.misdirected & members
                for cust, region in regions.items():
                    if attacker not in region:
                        assert cust not in report.misdirected, (
                            topo.records(), members, victim, attacker, cust
                        )


class TestScenarioFile:
    def test_roundtrip_fields(self):
        text = (
            "kind=ForgedOriginPathHijack\nattacker=30\n"
            "victim_prefix=192.0.2.0/24\nvictim_origin=20\nforged_path=20\n"
        )
        s = load_scenario(text)
        assert s.kind is AttackKind.FORGED_ORIGIN_PATH_HIJACK
        assert s.attacker == 30
        assert s.forged_path == (20,)

    def test_leak_fields(self):
        s = load_scenario(
            "kind=RouteLeak\nattacker=10\nvictim_prefix=192.0.2.0/24\n"
            "victim_origin=20\nleaked_from=3\n"
        )
        assert s.leaked_from == 3

    def test_unknown_key(self):
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenario("sneaky=1\n")

    def test_missing_field(self):
        with pytest.raises(ScenarioError, match="missing"):
            load_scenario("kind=OriginHijack\nattacker=30\n")


class TestLeakInvariantRandomized:
    def test_leak_never_changes_member_bests_with_verified_route(self):
        # Property: a leak by a non-member never changes any member's best
        # route for a prefix that has a VERIFIED route in the zone.
        import random as _random
        from zonesim.attacks import scenario_rib
        from zonesim.routing import propagate
        from zonesim.vipzone import zone_policy
        from oracles import random_connected_members, random_topology

        rng = _random.Random(4711)
        checked = 0
        for _ in range(40):
            topo = random_topology(rng, rng.randint(5, 10), rng.randint(0, 4))
            members = random_connected_members(rng, topo)
            victims = sorted(
                a for a in topo.asns - members if topo.providers_of(a) & members
            )
            leakers = sorted(
                a for a in topo.asns - members
                if len(topo.providers_of(a)) >= 2 and a not in victims[:1]
            )
            if not victims or not leakers:
                continue
            victim = victims[0]
            cfg = ZoneConfig(members=members)
            reg = RegistrySet(roas=[Roa(PFX, victim)])
            origs = [Origination(victim, PFX)]
            baseline = propagate(topo, origs, zone_policy(topo, cfg, reg))
            if not any(
                (b := baseline.best(m, PFX)) and VERIFIED in b.communities
                for m in members
            ):
                continue
            for leaker in leakers:
                best = baseline.best(leaker, PFX)
                if best is None or best.learned_from not in topo.providers_of(leaker):
                    continue
                scenario = AttackScenario(
                    AttackKind.ROUTE_LEAK, leaker, PFX, victim,
                    leaked_from=best.learned_from,
                )
                leaked = scenario_rib(topo, reg, cfg, origs, scenario)
                for m in members:
                    assert leaked.best(m, PFX) == baseline.best(m, PFX), (
                        topo.records(), members, victim, leaker
                    )
                checked += 1
        assert checked >= 10


class TestLeakSweep:
    def test_sweep_skips_singlehomed_and_leaks_the_learned_provider(self):
        topo = load_topology("1|3|-1\n1|4|-1\n3|20|-1\n3|10|-1\n4|10|-1\n4|50|-1")
        cfg = ZoneConfig(members=frozenset({1, 3, 4}))
        reg = RegistrySet(roas=[Roa(PFX, 20)])
        reports = sweep_attackers(
            topo, reg, cfg, [(20, PFX)], AttackKind.ROUTE_LEAK, PFX, 20
        )
        # only 10 is multihomed with a provider-learned route
        assert [r.scenario.attacker for r in reports] == [10]
        assert reports[0].scenario.leaked_from == 3
        assert reports[0].misdirected == frozenset()


# Prefixes for the differential corpora: IPv4 and IPv6, with covering and
# more-specific pairs, so longest-prefix matches can leave the victim prefix.
POOL = [
    P("10.0.0.0/16"), P("10.0.0.0/24"), P("10.0.1.0/24"), P("10.0.0.0/25"),
    P("198.51.100.0/24"),
    P("2001:db8::/32"), P("2001:db8::/48"), P("2001:db8:1::/48"),
]


def random_scenario_instance(rng):
    """One seeded network with legitimate originations from the pool and a
    random scenario of any kind, or None when the draw has no valid one."""
    topo = random_topology(rng, rng.randint(6, 16), rng.randint(0, 10))
    members = random_connected_members(rng, topo)
    asns = sorted(topo.asns)
    origs = [
        Origination(asn, prefix)
        for prefix in rng.sample(POOL, k=rng.randint(2, 6))
        for asn in rng.sample(asns, k=rng.randint(1, 2))
    ]
    reg = random_registry(rng, topo, members, origs)
    cfg = ZoneConfig(members=members, aspa_extension=rng.random() < 0.5)
    kind = rng.choice(list(AttackKind))
    victim = rng.choice(origs)
    prefix, origin = victim.prefix, victim.asn
    if kind is AttackKind.SUB_PREFIX_HIJACK:
        prefix = rng.choice(list(prefix.subnets(prefixlen_diff=rng.randint(1, 2))))
    if kind is AttackKind.ROUTE_LEAK:
        leakers = [a for a in asns if len(topo.providers_of(a)) >= 2]
        if not leakers:
            return None
        attacker = rng.choice(leakers)
        leaked_from = rng.choice(sorted(topo.providers_of(attacker)))
        scenario = AttackScenario(kind, attacker, prefix, origin, leaked_from=leaked_from)
    else:
        attacker = rng.choice([a for a in asns if a != origin])
        forged = None
        if kind is AttackKind.FORGED_ORIGIN_PATH_HIJACK:
            middle = [a for a in asns if a not in (attacker, origin)]
            forged = (origin,) if rng.random() < 0.5 or not middle else (
                rng.choice(middle), origin
            )
        scenario = AttackScenario(kind, attacker, prefix, origin, forged_path=forged)
    return topo, reg, cfg, origs, scenario


class TestClassifyHarmDifferential:
    def test_matches_per_as_trace_oracle(self):
        # classify_harm's next-hop map against one data_plane_trace per AS,
        # on scenario RIBs with every kind and both IP versions.  A solved
        # RIB never forwards in a loop (each hop holds the route it offered,
        # or a longer match), so each instance is also checked on a mixed
        # snapshot: every (AS, prefix) entry taken from the scenario solve
        # or the attack-free one, or left out.
        from zonesim.attacks import classify_harm, scenario_rib
        from zonesim.routing import NonConvergenceError, TraceOutcome, data_plane_trace
        from zonesim.vipzone import zone_policy

        rng = random.Random(2024)
        outcomes = {o: 0 for o in TraceOutcome}
        kinds, versions, misdirected = set(), set(), 0
        for _ in range(300):
            instance = random_scenario_instance(rng)
            if instance is None:
                continue
            topo, reg, cfg, origs, scenario = instance
            try:
                rib = scenario_rib(topo, reg, cfg, origs, scenario)
                clean = propagate(topo, origs, zone_policy(topo, cfg, reg))
            except NonConvergenceError:
                continue
            mixed = given_rib({
                asn: {
                    prefix: entry
                    for prefix in {**rib.per_as[asn], **clean.per_as[asn]}
                    if (entry := rng.choice([rib, clean]).per_as[asn].get(prefix))
                    and rng.random() < 0.9
                }
                for asn in rib.per_as
            })
            for snapshot in (rib, mixed):
                got = classify_harm(topo, snapshot, scenario)
                assert got == classify_harm_oracle(topo, snapshot, scenario), (
                    topo.records(), origs, scenario
                )
                misdirected += len(got.misdirected)
                for asn in topo.asns:
                    address = scenario.victim_prefix.network_address
                    outcomes[data_plane_trace(snapshot, asn, address)[1]] += 1
            kinds.add(scenario.kind)
            versions.add(scenario.victim_prefix.version)
        assert kinds == set(AttackKind) and versions == {4, 6}
        assert misdirected > 0
        # The corpus reaches forwarding loops and ASes without a route.
        assert outcomes[TraceOutcome.LOOP] > 0
        assert outcomes[TraceOutcome.NO_ROUTE] > 0

    def test_scoped_run_scenario_and_sweep_match_full_solve(self):
        # run_scenario and sweep_attackers solve only the prefixes holding
        # the victim address; their reports equal classify_harm on the
        # full scenario RIB.
        from zonesim.attacks import classify_harm, scenario_rib
        from zonesim.routing import NonConvergenceError
        from zonesim.vipzone import zone_policy

        rng = random.Random(77)
        checked = swept = 0
        for _ in range(150):
            instance = random_scenario_instance(rng)
            if instance is None:
                continue
            topo, reg, cfg, origs, scenario = instance
            try:
                full = classify_harm(topo, scenario_rib(topo, reg, cfg, origs, scenario), scenario)
            except NonConvergenceError:
                continue
            assert run_scenario(topo, reg, cfg, origs, scenario) == full
            checked += 1

            positions = sorted(topo.asns - {scenario.victim_origin})
            attackers = rng.sample(positions, k=min(4, len(positions)))
            reports = sweep_attackers(
                topo, reg, cfg, origs, scenario.kind, scenario.victim_prefix,
                scenario.victim_origin, attackers=attackers,
            )
            if scenario.kind is AttackKind.ROUTE_LEAK:
                baseline = propagate(topo, origs, zone_policy(topo, cfg, reg))
                expected = []
                for a in sorted(attackers):
                    best = baseline.best(a, scenario.victim_prefix)
                    multihomed = len(topo.providers_of(a)) >= 2
                    if multihomed and best and best.learned_rel is Rel.PROVIDER:
                        expected.append((a, best.learned_from))
                assert [(r.scenario.attacker, r.scenario.leaked_from) for r in reports] == expected
            for report in reports:
                rib = scenario_rib(topo, reg, cfg, origs, report.scenario)
                assert report == classify_harm(topo, rib, report.scenario)
                swept += 1
        assert checked > 100 and swept > 200

    def test_run_scenario_solves_only_prefixes_holding_the_victim_address(self, monkeypatch):
        import zonesim.attacks as attacks

        solved = []
        real = attacks.propagate

        def recording(topo, originations, hooks=None, **kwargs):
            originations = list(originations)
            solved.append(sorted({str(o.prefix) for o in originations}))
            return real(topo, originations, hooks, **kwargs)

        monkeypatch.setattr(attacks, "propagate", recording)
        topo = load_topology("1|2|-1\n1|3|-1\n1|4|-1")
        origs = [(2, "10.0.0.0/16"), (2, P("10.0.0.0/24")), (3, P("10.0.1.0/24")),
                 (4, P("2001:db8::/32"))]
        cfg = ZoneConfig(members=frozenset())
        scenario = AttackScenario(AttackKind.SUB_PREFIX_HIJACK, 3, P("10.0.0.0/25"), 2)
        run_scenario(topo, RegistrySet(), cfg, origs, scenario)
        assert solved == [["10.0.0.0/16", "10.0.0.0/24", "10.0.0.0/25"]]

        solved.clear()
        leak = AttackKind.ROUTE_LEAK
        sweep_attackers(topo, RegistrySet(), cfg, origs, leak, P("10.0.0.0/24"), 2)
        assert solved == [["10.0.0.0/24"]]  # the baseline; no AS is multihomed

    def test_run_scenario_still_validates_every_origination(self):
        from zonesim.routing import RoutingError

        topo = load_topology("1|2|-1\n1|3|-1")
        scenario = AttackScenario(AttackKind.ORIGIN_HIJACK, 3, PFX, 2)
        cfg = ZoneConfig(members=frozenset())
        with pytest.raises(RoutingError, match="unknown AS99"):
            run_scenario(
                topo, RegistrySet(), cfg, [(2, PFX), (99, P("10.9.0.0/16"))], scenario
            )
        unknown_attacker = AttackScenario(AttackKind.ORIGIN_HIJACK, 42, PFX, 2)
        with pytest.raises(ScenarioError, match="attacker AS42"):
            run_scenario(topo, RegistrySet(), cfg, [(2, PFX)], unknown_attacker)
        # run_scenario validates the originations before scenario_rib checks
        # the attacker.
        with pytest.raises(RoutingError, match="unknown AS99"):
            run_scenario(topo, RegistrySet(), cfg, [(99, PFX)], unknown_attacker)

    @pytest.mark.parametrize("kind", list(AttackKind))
    def test_sweep_rejects_an_unknown_attacker_alike_for_every_kind(self, kind):
        # 3 is multihomed, so a leak sweep would run it; the victim
        # originates a supernet, so a sub-prefix sweep would too.
        topo = load_topology("1|2|-1\n1|3|-1\n4|3|-1")
        cfg = ZoneConfig(members=frozenset())
        with pytest.raises(ScenarioError, match="^attacker AS99 not in topology$"):
            sweep_attackers(
                topo, RegistrySet(), cfg, [(2, P("192.0.0.0/16"))], kind, PFX, 2,
                attackers=[3, 99],
            )

    @pytest.mark.parametrize("kind", list(AttackKind))
    def test_sweep_validates_originations_when_every_candidate_is_skipped(self, kind):
        from zonesim.routing import RoutingError

        topo = load_topology("1|2|-1\n1|3|-1")
        origs = [(2, P("192.0.0.0/16")), (99, P("10.9.0.0/16"))]
        with pytest.raises(RoutingError, match="unknown AS99"):
            sweep_attackers(
                topo, RegistrySet(), ZoneConfig(members=frozenset()), origs, kind, PFX, 2,
                attackers=[2],
            )

    def test_subprefix_check_skips_other_ip_version(self):
        # The victim also originates an IPv6 prefix, which the covering
        # check used to compare with the IPv4 victim prefix (TypeError); a
        # prefix given as text, like propagate accepts, used to fail too.
        from zonesim.attacks import scenario_rib

        topo = load_topology("1|2|-1\n1|3|-1")
        origs = [(2, P("2001:db8::/32")), (2, "10.0.0.0/16")]
        cfg = ZoneConfig(members=frozenset())
        scenario = AttackScenario(AttackKind.SUB_PREFIX_HIJACK, 3, P("10.0.0.0/24"), 2)
        rib = scenario_rib(topo, RegistrySet(), cfg, origs, scenario)
        assert rib.best(1, P("10.0.0.0/24")).origin == 3
        with pytest.raises(ScenarioError, match="strict supernet"):
            scenario_rib(topo, RegistrySet(), cfg, origs[:1], scenario)
