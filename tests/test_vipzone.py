import itertools
import random
from dataclasses import replace

import pytest

from zonesim.registry import (
    KycEntry,
    OriginVerdict,
    RegistrySet,
    Roa,
    parse_prefix,
    verify_customer_origin,
)
from zonesim.routing import Origination, PolicyHooks, Route, dump_rib, propagate
from zonesim.topology import Rel, load_topology
from zonesim.vipzone import (
    VERIFIED,
    Outcome,
    ZoneConfig,
    ZoneValidationError,
    load_zone_config,
    member_import,
    member_preference,
    validate_zone,
    zone_policy,
)

from oracles import (
    PREFIX_POOL,
    member_import_oracle,
    random_connected_members,
    random_originations,
    random_registry,
    random_topology,
)

P = parse_prefix
PFX = P("192.0.2.0/24")


def route(path, communities=(), rel=Rel.CUSTOMER, prefix=PFX):
    return Route(prefix, tuple(path), frozenset(communities), rel)


class TestValidateZone:
    def test_member_under_tier1_member(self):
        topo = load_topology("1|2|-1")
        cfg = validate_zone(topo, {1, 2})
        assert cfg.members == {1, 2}

    def test_disconnected_member_listed(self):
        # 3's only provider is non-member 2.
        topo = load_topology("1|2|-1\n2|3|-1")
        with pytest.raises(ZoneValidationError) as excinfo:
            validate_zone(topo, {1, 3})
        assert excinfo.value.violations == [3]

    def test_unknown_member(self):
        topo = load_topology("1|2|-1")
        with pytest.raises(Exception, match="unknown"):
            validate_zone(topo, {1, 99})

    def test_recursive_construction_always_valid(self):
        rng = random.Random(19)
        for _ in range(30):
            topo = random_topology(rng, 12, 4)
            members = random_connected_members(rng, topo)
            if members:
                validate_zone(topo, members)


class TestMemberImport:
    # Member 1 with customer 20 (non-member), peer 3 (member), etc. are
    # modeled directly through arguments; only the registries matter here.

    def test_r5_acl_verifies_single_hop(self):
        cfg = ZoneConfig(members=frozenset({1, 2}))
        reg = RegistrySet(
            kyc={(1, 20): KycEntry(allowed_prefixes=frozenset({PFX}))}
        )
        outcome, admitted = member_import(
            cfg, reg, 1, 20, Rel.CUSTOMER, route([20])
        )
        assert outcome.outcome is Outcome.FORWARD_VERIFIED
        assert outcome.reason == "R5"
        assert VERIFIED in admitted.communities

    def test_r5_roa_verifies_single_hop(self):
        cfg = ZoneConfig(members=frozenset({1}))
        reg = RegistrySet(roas=[Roa(PFX, 20)])
        outcome, admitted = member_import(cfg, reg, 1, 20, Rel.CUSTOMER, route([20]))
        assert outcome.outcome is Outcome.FORWARD_VERIFIED

    def test_r5_unknown_forwards_unverified(self):
        cfg = ZoneConfig(members=frozenset({1}))
        outcome, admitted = member_import(
            cfg, RegistrySet(), 1, 20, Rel.CUSTOMER, route([20])
        )
        assert outcome.outcome is Outcome.FORWARD_UNVERIFIED
        assert outcome.reason == "R6"
        assert VERIFIED not in admitted.communities

    def test_r5_rejected_drops(self):
        cfg = ZoneConfig(members=frozenset({1}))
        reg = RegistrySet(kyc={(1, 20): KycEntry(allowed_asns=frozenset({77}))})
        outcome, admitted = member_import(cfg, reg, 1, 20, Rel.CUSTOMER, route([20]))
        assert outcome.outcome is Outcome.DROP
        assert admitted is None

    def test_r5_applies_to_peers(self):
        cfg = ZoneConfig(members=frozenset({1}))
        reg = RegistrySet(roas=[Roa(PFX, 20)])
        outcome, admitted = member_import(cfg, reg, 1, 20, Rel.PEER, route([20], rel=Rel.PEER))
        assert outcome.outcome is Outcome.FORWARD_VERIFIED

    def test_r5_not_applied_to_providers(self):
        cfg = ZoneConfig(members=frozenset({1}))
        reg = RegistrySet(roas=[Roa(PFX, 20)])
        outcome, _ = member_import(cfg, reg, 1, 20, Rel.PROVIDER, route([20], rel=Rel.PROVIDER))
        assert outcome.outcome is Outcome.FORWARD_UNVERIFIED

    def test_r5_extends_to_member_single_hop(self):
        # A member customer originating its own prefix is verified the same way.
        cfg = ZoneConfig(members=frozenset({1, 20}))
        reg = RegistrySet(roas=[Roa(PFX, 20)])
        outcome, admitted = member_import(cfg, reg, 1, 20, Rel.CUSTOMER, route([20]))
        assert outcome.outcome is Outcome.FORWARD_VERIFIED
        assert VERIFIED in admitted.communities

    def test_r1_strips_tag_from_non_member(self):
        cfg = ZoneConfig(members=frozenset({1}))
        outcome, admitted = member_import(
            cfg, RegistrySet(), 1, 30, Rel.CUSTOMER,
            route([30, 20], communities={VERIFIED}),
        )
        assert outcome.outcome is Outcome.FORWARD_UNVERIFIED
        assert VERIFIED not in admitted.communities

    def test_r4_retains_tag_from_member(self):
        cfg = ZoneConfig(members=frozenset({1, 2}))
        outcome, admitted = member_import(
            cfg, RegistrySet(), 1, 2, Rel.PEER,
            route([2, 20], communities={VERIFIED}, rel=Rel.PEER),
        )
        assert outcome.outcome is Outcome.FORWARD_VERIFIED
        assert outcome.reason == "R4"
        assert VERIFIED in admitted.communities

    def test_r2_drops_invalid_origin_from_anyone(self):
        cfg = ZoneConfig(members=frozenset({1, 2}))
        reg = RegistrySet(roas=[Roa(PFX, 99)])
        for neighbor, rel in ((20, Rel.CUSTOMER), (2, Rel.PEER)):
            outcome, admitted = member_import(
                cfg, reg, 1, neighbor, rel, route([neighbor, 20], rel=rel)
            )
            assert outcome.outcome is Outcome.DROP
            assert outcome.reason == "R2"

    def test_r2_beats_verified_tag(self):
        cfg = ZoneConfig(members=frozenset({1, 2}))
        reg = RegistrySet(roas=[Roa(PFX, 99)])
        outcome, _ = member_import(
            cfg, reg, 1, 2, Rel.PEER, route([2, 20], communities={VERIFIED}, rel=Rel.PEER)
        )
        assert outcome.outcome is Outcome.DROP

    def test_r3_drops_session_asn_mismatch(self):
        # The neighbor used ASN 21 on a session the member established for 20.
        cfg = ZoneConfig(members=frozenset({1}))
        outcome, _ = member_import(
            cfg, RegistrySet(), 1, 20, Rel.CUSTOMER, route([21])
        )
        assert outcome.outcome is Outcome.DROP
        assert outcome.reason == "R3"

    def test_r3_explicit_allow_list(self):
        cfg = ZoneConfig(members=frozenset({1}))
        reg = RegistrySet(kyc={(1, 20): KycEntry(allowed_asns=frozenset({20, 21}))})
        outcome, _ = member_import(
            cfg, reg, 1, 20, Rel.CUSTOMER, route([21, 22])
        )
        assert outcome.outcome is Outcome.FORWARD_UNVERIFIED

    def test_rejected_single_hop_origins_fall_to_r2_or_r3(self):
        # R5 has no drop of its own: every single-hop customer or peer route
        # whose origin verify_customer_origin rejects is already dropped.
        rng = random.Random(515)
        rejected = 0
        for _ in range(40):
            topo = random_topology(rng, 12, 6)
            members = random_connected_members(rng, topo)
            origs = random_originations(rng, topo)
            reg = random_registry(rng, topo, members, origs)
            cfg = ZoneConfig(members=members)
            for member in sorted(members):
                sessions = [(n, Rel.CUSTOMER) for n in sorted(topo.customers_of(member))]
                sessions += [(n, Rel.PEER) for n in sorted(topo.peers_of(member))]
                for neighbor, rel in sessions:
                    for prefix, path in itertools.product(
                        PREFIX_POOL, [(neighbor,), (neighbor, neighbor)]
                    ):
                        verdict = verify_customer_origin(reg, member, neighbor, prefix, neighbor)
                        if verdict is not OriginVerdict.REJECTED:
                            continue
                        rejected += 1
                        outcome, admitted = member_import(
                            cfg, reg, member, neighbor, rel, route(path, rel=rel, prefix=prefix)
                        )
                        assert admitted is None
                        assert (outcome.outcome, outcome.reason) in {
                            (Outcome.DROP, "R2"), (Outcome.DROP, "R3"),
                        }
        assert rejected > 0

    def test_forged_two_hop_unverified_without_extension(self):
        cfg = ZoneConfig(members=frozenset({1}), aspa_extension=False)
        reg = RegistrySet(aspas={20: frozenset({10})})
        outcome, admitted = member_import(
            cfg, reg, 1, 10, Rel.CUSTOMER, route([10, 20])
        )
        assert outcome.outcome is Outcome.FORWARD_UNVERIFIED
        assert VERIFIED not in admitted.communities


SESSIONS = (Rel.CUSTOMER, Rel.PEER, Rel.PROVIDER)
TAG_SETS = [frozenset(), frozenset({VERIFIED}), frozenset({VERIFIED, "65000:1"}), frozenset({"65000:1"})]


def _import_instances(seeds):
    """Seeded zones, each with registries over many (origin, prefix) pairs,
    so ROAs, ASPA records and KYC lists (one-ASN, the neighbor's own, and
    empty) all reach the rules."""
    for seed in seeds:
        rng = random.Random(seed)
        topo = random_topology(rng, rng.randint(6, 14), rng.randint(0, 6))
        members = random_connected_members(rng, topo)
        if not members:
            continue
        asns = sorted(topo.asns)
        origs = [Origination(rng.choice(asns), p) for p in PREFIX_POOL for _ in range(4)]
        yield rng, topo, members, random_registry(rng, topo, members, origs)


def _paths(rng, asns, importer, neighbor):
    # Single-hop, prepended single-hop, two- and three-hop paths through the
    # neighbor, and paths whose first hop is another ASN (R3); none holds
    # the importer, as after the engine's loop check.
    others = [a for a in asns if a not in (importer, neighbor)]
    if not others:
        return [(neighbor,), (neighbor, neighbor)]
    x, y = rng.choice(others), rng.choice(others)
    return [(neighbor,), (neighbor, neighbor), (neighbor, x), (neighbor, x, y), (x,), (x, neighbor)]


class TestMemberImportOracle:
    """member_import against the copy of its earlier body in
    tests/oracles.py: equal outcomes and routes, one shared outcome object
    per rule, and the very input object wherever nothing was re-tagged."""

    def test_rules_match_the_oracle(self):
        hit, shared, calls = set(), {}, 0
        for rng, topo, members, reg in _import_instances(range(40)):
            cfg = ZoneConfig(members=members, aspa_extension=rng.random() < 0.5)
            asns = sorted(topo.asns)
            for member in sorted(members):
                for neighbor in sorted(topo.neighbors_of(member)):
                    entry = reg.kyc.get((member, neighbor))
                    listed = bool(entry and entry.allowed_asns)
                    paths = _paths(rng, asns, member, neighbor)
                    for rel, path, tags in itertools.product(SESSIONS, paths, TAG_SETS):
                        given = route(path, tags, rel, rng.choice(PREFIX_POOL))
                        expected = member_import_oracle(cfg, reg, member, neighbor, rel, given)
                        got = member_import(cfg, reg, member, neighbor, rel, given)
                        calls += 1
                        assert got == expected, (member, neighbor, rel, given)
                        assert shared.setdefault(got[0].reason, got[0]) is got[0]
                        if expected[1] is given:
                            assert got[1] is given
                        else:
                            assert got[1] is not given
                        stripped = neighbor not in members and VERIFIED in tags
                        hit.add(("R1", stripped))
                        hit.add((got[0].reason, listed if got[0].reason == "R3" else None))
                        hit.add((rel, neighbor in members, VERIFIED in tags))
        assert calls > 10000, calls
        rules = {"R2", "R4", "R5", "ASPA-EXT", "R6"}
        assert {(rule, None) for rule in rules} | {("R3", True), ("R3", False)} <= hit
        assert {("R1", True), ("R1", False)} <= hit
        assert {
            (rel, in_zone, tagged)
            for rel in SESSIONS
            for in_zone in (False, True)
            for tagged in (False, True)
        } <= hit

    def test_zone_policy_hook_matches_the_oracle(self):
        # Members import through member_import; opted-in non-members strip
        # tags that arrive over non-member sessions; anyone else takes the
        # route as offered.
        strips = kept = 0
        for rng, topo, members, reg in _import_instances(range(40)):
            outside = sorted(topo.asns - members)
            honor = frozenset(a for a in outside if rng.random() < 0.5)
            cfg = ZoneConfig(members, rng.random() < 0.5, honor)
            hook = zone_policy(topo, cfg, reg).import_route
            asns = sorted(topo.asns)
            for importer in asns:
                for neighbor in sorted(topo.neighbors_of(importer)):
                    for rel, tags in itertools.product(SESSIONS, TAG_SETS):
                        path = rng.choice(_paths(rng, asns, importer, neighbor))
                        given = route(path, tags, rel, rng.choice(PREFIX_POOL))
                        if importer in members:
                            _, expected = member_import_oracle(
                                cfg, reg, importer, neighbor, rel, given
                            )
                        elif importer in honor and neighbor not in members and VERIFIED in tags:
                            expected = route(path, tags - {VERIFIED}, rel, given.prefix)
                            strips += 1
                        else:
                            expected = given
                            kept += importer in honor
                        got = hook(importer, neighbor, rel, given)
                        assert got == expected, (importer, neighbor, rel, given)
                        assert (got is given) == (expected is given)
        assert strips > 100 and kept > 100, (strips, kept)


class TestAspaExtension:
    CFG = ZoneConfig(members=frozenset({1, 2}), aspa_extension=True)

    def test_two_hop_confirmed_verified(self):
        reg = RegistrySet(
            aspas={20: frozenset({10})},
            kyc={(2, 10): KycEntry(allowed_asns=frozenset({10}))},
        )
        outcome, admitted = member_import(
            self.CFG, reg, 2, 10, Rel.CUSTOMER, route([10, 20])
        )
        assert outcome.outcome is Outcome.FORWARD_VERIFIED
        assert outcome.reason == "ASPA-EXT"
        assert VERIFIED in admitted.communities

    def test_two_hop_contradicted_unverified(self):
        reg = RegistrySet(aspas={20: frozenset({10})})
        outcome, admitted = member_import(
            self.CFG, reg, 2, 30, Rel.CUSTOMER, route([30, 20])
        )
        assert outcome.outcome is Outcome.FORWARD_UNVERIFIED
        assert VERIFIED not in admitted.communities

    def test_two_hop_no_record_unverified(self):
        outcome, _ = member_import(
            self.CFG, RegistrySet(), 2, 10, Rel.CUSTOMER, route([10, 20])
        )
        assert outcome.outcome is Outcome.FORWARD_UNVERIFIED

    def test_three_outside_ases_never_verified(self):
        # Attacker Q prepends a confirmed pair: path Q A B is three ASes
        # outside the zone and must not be marked.
        reg = RegistrySet(aspas={20: frozenset({10})})
        outcome, admitted = member_import(
            self.CFG, reg, 2, 30, Rel.CUSTOMER, route([30, 10, 20])
        )
        assert outcome.outcome is Outcome.FORWARD_UNVERIFIED
        assert VERIFIED not in admitted.communities


class TestExportAndPreference:
    def test_export_keeps_tag(self):
        # The engine sends exports unchanged, so the tag is neither removed
        # nor added on export (test_attached_customer_receives_verified_route);
        # the zone policy forces nothing past the economic export rule.
        # Member 1 has providers 9 and 30: a route from 9 may not go to 30.
        topo = load_topology("9|1|-1\n30|1|-1")
        cfg = ZoneConfig(members=frozenset({1, 9, 30}))
        export = zone_policy(topo, cfg, RegistrySet()).export_route
        for tags in ({VERIFIED}, ()):
            assert export(1, 30, Rel.PROVIDER, route([9, 20], tags, Rel.PROVIDER)) is False

    def test_member_prefers_verified_over_relationship(self):
        cfg = ZoneConfig(members=frozenset({1}))
        order = member_preference(cfg, 1)
        customer_plain = route([20], rel=Rel.CUSTOMER)
        provider_tagged = route([9, 5, 20], communities={VERIFIED}, rel=Rel.PROVIDER)
        assert order.best([customer_plain, provider_tagged]) == provider_tagged

    def test_non_member_ignores_tag(self):
        cfg = ZoneConfig(members=frozenset({1}))
        order = member_preference(cfg, 40)
        customer_plain = route([20], rel=Rel.CUSTOMER)
        provider_tagged = route([9, 20], communities={VERIFIED}, rel=Rel.PROVIDER)
        assert order.best([customer_plain, provider_tagged]) == customer_plain

    def test_opt_in_non_member_honors_tag(self):
        cfg = ZoneConfig(members=frozenset({1}), honor_verified_non_members=frozenset({40}))
        order = member_preference(cfg, 40)
        tagged = route([6, 20], communities={VERIFIED}, rel=Rel.PROVIDER)
        untagged = route([5, 20], rel=Rel.PROVIDER)
        assert order.best([tagged, untagged]) == tagged

    def test_orders_are_shared(self):
        # One frozen order per kind, whatever the config or the AS.
        a = ZoneConfig(members=frozenset({1}), honor_verified_non_members=frozenset({40}))
        b = ZoneConfig(members=frozenset({2}))
        verified = member_preference(a, 1)
        assert verified.verified_first
        assert member_preference(a, 40) is verified
        assert member_preference(b, 2) is verified
        plain = member_preference(a, 3)
        assert not plain.verified_first
        assert member_preference(b, 1) is plain
        assert member_preference(b, 40) is plain


class TestZonePropagation:
    """Whole-network behavior of the hooks, including the basic defended
    hijack: a verified customer route beats a forged route entering
    elsewhere at every member.

         1          zone: {1, 2, 3}
        / \\
       2   3
       |   | \\
      20  30  40    20 = victim origin, 30 = attacker, 40 = bystander
    """

    TOPO = load_topology("1|2|-1\n1|3|-1\n2|20|-1\n3|30|-1\n3|40|-1")
    CFG = ZoneConfig(members=frozenset({1, 2, 3}))
    REG = RegistrySet(kyc={(2, 20): KycEntry(allowed_prefixes=frozenset({PFX}))})

    def run(self, cfg=None, injection=True):
        origs = [Origination(20, PFX)]
        if injection:
            origs.append(Origination(30, PFX, (30, 20)))
        hooks = zone_policy(self.TOPO, cfg or self.CFG, self.REG)
        return propagate(self.TOPO, origs, hooks)

    def test_members_select_verified_route(self):
        rib = self.run()
        for member in (1, 2, 3):
            best = rib.best(member, PFX)
            assert VERIFIED in best.communities
            assert best.origin == 20
            assert 30 not in best.as_path

    def test_attached_customer_receives_verified_route(self):
        rib = self.run()
        best = rib.best(40, PFX)
        assert best.as_path == (3, 1, 2, 20)
        assert VERIFIED in best.communities  # tag survives export outside

    def test_forged_route_held_unverified_not_best(self):
        rib = self.run()
        cands = rib.candidates(3, PFX)
        forged = [r for r in cands if 30 in r.as_path]
        assert forged and all(VERIFIED not in r.communities for r in forged)
        assert rib.best(3, PFX).origin == 20

    def test_without_zone_forgery_wins_at_member3(self):
        rib = self.run(cfg=ZoneConfig(members=frozenset()))
        assert rib.best(3, PFX).as_path == (30, 20)
        assert rib.best(40, PFX).as_path == (3, 30, 20)

    def test_attacker_cannot_inject_tag(self):
        # Forged route arrives pre-tagged; the perimeter strip makes it
        # indistinguishable from an untagged forgery.
        origs = [
            Origination(20, PFX),
            Origination(30, PFX, (30, 20), frozenset({VERIFIED})),
        ]
        rib = propagate(self.TOPO, origs, zone_policy(self.TOPO, self.CFG, self.REG))
        for member in (1, 2, 3):
            best = rib.best(member, PFX)
            assert best.origin == 20 and 30 not in best.as_path
        for r in rib.candidates(3, PFX):
            if 30 in r.as_path:
                assert VERIFIED not in r.communities

    def test_tag_does_not_survive_reentry(self):
        # Route exits the zone at 3 toward 40... 40 is a stub; use the
        # leak-like shape instead: verified route exported to non-member 40
        # keeps its tag, but anything 40 sends back in is stripped (R1)
        # even if 40 kept the tag.
        rib = self.run(injection=False)
        outside = rib.best(40, PFX)
        assert VERIFIED in outside.communities
        from zonesim.vipzone import member_import

        outcome, admitted = member_import(
            self.CFG,
            self.REG,
            3,
            40,
            Rel.CUSTOMER,
            Route(PFX, (40,) + outside.as_path, outside.communities, Rel.CUSTOMER),
        )
        assert VERIFIED not in admitted.communities

    def test_valid_and_unknown_rov_share_a_class(self):
        # R2 reads only whether an origin is RPKI-invalid: a prefix with a
        # valid ROA and one with none, both on AS2's prefix list for AS20,
        # route alike, so they are solved once.
        other = P("198.51.100.0/24")
        reg = RegistrySet(
            roas=[Roa(PFX, 20)],
            kyc={(2, 20): KycEntry(allowed_prefixes=frozenset({PFX, other}))},
        )
        origs = [Origination(20, PFX), Origination(20, other)]
        hooks = zone_policy(self.TOPO, self.CFG, reg)
        rib = propagate(self.TOPO, origs, hooks)
        assert rib._records[PFX] is rib._records[other]
        alone = propagate(self.TOPO, origs, replace(hooks, prefix_class=PolicyHooks.prefix_class))
        assert alone._records[PFX] is not alone._records[other]
        assert rib == alone and dump_rib(rib) == dump_rib(alone)
        assert VERIFIED in rib.best(1, other).communities


class TestZoneHygiene:
    """Tag provenance on random zone runs: any VERIFIED route held by a
    member must have entered via a short perimeter verification and crossed
    only members since."""

    def test_random_runs(self):
        rng = random.Random(4242)
        checked = 0
        for _ in range(30):
            topo = random_topology(rng, 10, 4)
            members = random_connected_members(rng, topo)
            if not members:
                continue
            cfg = ZoneConfig(members=members, aspa_extension=rng.random() < 0.5)
            origs = random_originations(rng, topo)
            reg = RegistrySet(
                roas=[Roa(o.prefix, o.asn) for o in origs if rng.random() < 0.7]
            )
            rib = propagate(topo, origs, zone_policy(topo, cfg, reg))
            for member in members:
                for entry in rib.per_as[member].values():
                    for r in entry.candidates:
                        if VERIFIED not in r.communities or r.learned_rel is Rel.SELF:
                            continue
                        checked += 1
                        path = r.as_path
                        non_members = [a for a in path if a not in members]
                        limit = 2 if cfg.aspa_extension else 1
                        assert len(set(non_members)) <= limit
                        # every hop after the entry member is a member
                        entry_idx = max(
                            i for i, a in enumerate(path) if a in members
                        ) if any(a in members for a in path) else None
                        if entry_idx is not None:
                            assert all(a in members for a in path[:entry_idx])
        assert checked > 0


def test_load_zone_config():
    cfg = load_zone_config("# zone\naspa_extension=true\nhonor_verified=40;41\n1\n2\n")
    assert cfg.members == {1, 2}
    assert cfg.aspa_extension is True
    assert cfg.honor_verified_non_members == {40, 41}
    with pytest.raises(ValueError, match="line 1"):
        load_zone_config("aspa_extension=banana")
    with pytest.raises(ValueError, match="unknown zone config key"):
        load_zone_config("frobnicate=1")


class TestCustomersPeeringOutsideZone:
    """Two attached customers that also peer directly: without opting in
    they keep today's policy and use the peering link, tags notwithstanding.

        1        member 1; customers 20 and 30 peer with each other
       / \
      20==30
    """

    TOPO = load_topology("1|20|-1\n1|30|-1\n20|30|0")
    REG = RegistrySet(
        roas=[Roa(PFX, 20), Roa(P("198.51.100.0/24"), 30)]
    )

    def test_plain_customers_keep_peer_routes(self):
        cfg = ZoneConfig(members=frozenset({1}))
        rib = propagate(
            self.TOPO,
            [Origination(20, PFX), Origination(30, P("198.51.100.0/24"))],
            zone_policy(self.TOPO, cfg, self.REG),
        )
        # 30 hears 20's prefix both ways: verified via provider 1 and
        # unverified over the peering; relationship preference wins.
        cands = rib.candidates(30, PFX)
        assert any(VERIFIED in r.communities for r in cands)
        assert rib.best(30, PFX).learned_rel is Rel.PEER

    def test_opted_in_customer_pays_with_a_provider_path(self):
        cfg = ZoneConfig(
            members=frozenset({1}), honor_verified_non_members=frozenset({30})
        )
        rib = propagate(
            self.TOPO,
            [Origination(20, PFX), Origination(30, P("198.51.100.0/24"))],
            zone_policy(self.TOPO, cfg, self.REG),
        )
        best = rib.best(30, PFX)
        assert best.learned_rel is Rel.PROVIDER
        assert VERIFIED in best.communities
