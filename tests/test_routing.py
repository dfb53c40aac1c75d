import gc
import random
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest

from zonesim.analysis import routing_exceptions, synthetic_prefix
from zonesim.attacks import (
    AttackKind,
    AttackScenario,
    _leak_hooks,
    classify_harm,
    load_scenario,
    scenario_rib,
)
from zonesim.audit import views_from_rib
from zonesim.registry import (
    RegistrySet,
    Roa,
    load_aspas,
    load_irr,
    load_kyc,
    load_roas,
    parse_prefix,
)
from zonesim.routing import (
    VERIFIED,
    NonConvergenceError,
    Origination,
    PolicyHooks,
    PreferenceOrder,
    Rib,
    RibEntry,
    Route,
    RoutingError,
    ScopedImport,
    TraceOutcome,
    _PLAIN_ORDER,
    _Network,
    _propagate_prefix,
    _replay,
    data_plane_trace,
    dump_rib,
    gao_rexford_hooks,
    load_originations,
    origination_class,
    parse_rib_dump,
    propagate,
)
from zonesim.topology import Rel, Topology, _gc_paused, load_topology
from zonesim.vipzone import ZoneConfig, load_zone_config, zone_policy

from oracles import (
    DISAGREE,
    PREFIX_POOL,
    PeerFirst,
    dump_rib_oracle,
    exceptions_by_two_solves,
    full_rerank_prefix,
    given_rib,
    oracle_fixpoint,
    parse_rib_dump_oracle,
    random_connected_members,
    random_originations,
    random_registry,
    random_topology,
    random_zone_instance,
    ranked_rows_oracle,
    rib_as_cells,
)

P = parse_prefix
PFX = P("10.0.0.0/24")


def chain_topology():
    # 1 <- 2 <- 3   (3 is 2's customer, 2 is 1's customer)
    return load_topology("1|2|-1\n2|3|-1")


class TestPropagateBasics:
    def test_single_path_chain(self):
        rib = propagate(chain_topology(), [(3, PFX)])
        assert rib.best(3, PFX).as_path == (3,)
        assert rib.best(3, PFX).learned_rel is Rel.SELF
        assert rib.best(2, PFX).as_path == (3,)
        assert rib.best(2, PFX).learned_rel is Rel.CUSTOMER
        assert rib.best(1, PFX).as_path == (2, 3)

    def test_peer_routes_not_transited(self):
        # 2 and 4 peer; 2's provider 1 must not learn the peer route.
        #   1
        #   |
        #   2 --- 4
        topo = load_topology("1|2|-1\n2|4|0")
        rib = propagate(topo, [(4, PFX)])
        assert rib.best(2, PFX).as_path == (4,)
        assert rib.best(1, PFX) is None

    def test_provider_routes_only_to_customers(self):
        #   1
        #  / \
        # 2   3     origination at 1: both customers learn it, and
        # |         2's customer 4 learns it transitively.
        # 4
        topo = load_topology("1|2|-1\n1|3|-1\n2|4|-1")
        rib = propagate(topo, [(1, PFX)])
        assert rib.best(2, PFX).as_path == (1,)
        assert rib.best(4, PFX).as_path == (2, 1)
        assert rib.best(3, PFX).as_path == (1,)

    def test_customer_preferred_over_peer_and_provider(self):
        # 5 hears the prefix from its customer 6, peer 2, and provider 1;
        # relationship rank must pick the customer route even when longer.
        #    1 ------- 9
        #    | \       |
        #    5--2      |
        #    |         |
        #    6 --------+   (6 originates; 6 is customer of 5 and of 9;
        #                   2 peers 5; 9 customer of 1)
        topo = load_topology("1|5|-1\n1|2|-1\n5|2|0\n5|6|-1\n1|9|-1\n9|6|-1")
        rib = propagate(topo, [(6, PFX)])
        best = rib.best(5, PFX)
        assert best.learned_rel is Rel.CUSTOMER
        assert best.as_path == (6,)

    def test_shorter_path_wins_within_tier(self):
        #  1 -> 2 -> 3 -> 4 and 1 -> 4: provider routes at 4's... use customers:
        # origin 1; 4 hears via provider 3 (path 3 2 1) and provider 1 (path 1).
        topo = load_topology("1|2|-1\n2|3|-1\n3|4|-1\n1|4|-1")
        rib = propagate(topo, [(1, PFX)])
        assert rib.best(4, PFX).as_path == (1,)

    def test_tiebreak_lower_neighbor(self):
        # Equal relationship and length: lower neighbor ASN wins.
        topo = load_topology("2|4|-1\n3|4|-1\n1|2|-1\n1|3|-1")
        rib = propagate(topo, [(1, PFX)])
        assert rib.best(4, PFX).as_path == (2, 1)

    def test_self_origination_beats_learned(self):
        topo = load_topology("1|2|-1")
        rib = propagate(topo, [(1, PFX), (2, PFX)])
        assert rib.best(2, PFX).learned_rel is Rel.SELF
        assert rib.best(1, PFX).learned_rel is Rel.SELF

    def test_forged_injection_path(self):
        topo = load_topology("1|2|-1\n1|3|-1")
        inj = Origination(3, PFX, (3, 2))
        rib = propagate(topo, [inj])
        assert rib.best(3, PFX).as_path == (3, 2)
        # 2 drops the route since its own ASN is inside the forged path.
        assert rib.best(2, PFX) is None
        assert rib.best(1, PFX).as_path == (3, 2)

    def test_unknown_origination_rejected(self):
        with pytest.raises(RoutingError, match="unknown"):
            propagate(chain_topology(), [(99, PFX)])

    def test_bad_injection_rejected(self):
        topo = chain_topology()
        with pytest.raises(RoutingError, match="start with"):
            propagate(topo, [Origination(1, PFX, (2, 1))])
        with pytest.raises(RoutingError, match="repeats"):
            propagate(topo, [Origination(1, PFX, (1, 2, 1))])

    def test_empty_originations(self):
        rib = propagate(chain_topology(), [])
        assert rib.per_as[1] == {}

    def test_entries_are_frozen_rib_entries(self):
        topo = load_topology("1|2|-1\n1|3|-1\n2|4|-1\n3|4|-1")
        # 10.2.0.0/24 shares PFX's class, so its entries are relabelled.
        origs = [(4, PFX), (1, P("10.1.0.0/24")), (4, P("10.2.0.0/24"))]
        rib = propagate(topo, origs, gao_rexford_hooks())
        for entries in rib.per_as.values():
            for entry in entries.values():
                assert entry == RibEntry(entry.best, entry.candidates)
                assert entry.best is entry.candidates[0]
                for field in ("best", "candidates"):
                    with pytest.raises(FrozenInstanceError):
                        setattr(entry, field, None)
        assert len(rib.candidates(1, P("10.2.0.0/24"))) == 2


class TestInvariants:
    def test_determinism(self):
        rng = random.Random(101)
        for _ in range(15):
            topo = random_topology(rng, 10, 4)
            origs = random_originations(rng, topo)
            assert dump_rib(propagate(topo, origs)) == dump_rib(propagate(topo, origs))

    def test_insertion_order_independence(self):
        # The solve walks the adjacency sets as they iterate.  ASNs are
        # multiples of 8, so they collide in small hash tables and a set
        # iterates in the order its members were inserted: the rebuild from
        # shuffled records walks some sets in another order.
        rng = random.Random(55)
        reordered = leaks = 0
        for _ in range(20):
            records = [(8 * a, 8 * b, code) for a, b, code in random_topology(rng, 10, 4).records()]
            topo = Topology.from_records(records)
            rng.shuffle(records)
            shuffled = Topology.from_records(records)
            reordered += any(
                list(ours[asn]) != list(theirs[asn])
                for ours, theirs in (
                    (topo.customers, shuffled.customers),
                    (topo.peers, shuffled.peers),
                    (topo.providers, shuffled.providers),
                )
                for asn in topo.asns
            )
            origs = random_originations(rng, topo)
            members = random_connected_members(rng, topo)
            cfg, reg = ZoneConfig(members=members), random_registry(rng, topo, members, origs)
            policies = [lambda t: gao_rexford_hooks(), lambda t: zone_policy(t, cfg, reg)]
            leakers = sorted(a for a in topo.asns if len(topo.providers[a]) >= 2)
            if leakers:
                leaker = rng.choice(leakers)
                scenario = AttackScenario(
                    AttackKind.ROUTE_LEAK, leaker, origs[0].prefix, origs[0].asn,
                    leaked_from=rng.choice(sorted(topo.providers[leaker])),
                )
                policies.append(lambda t: _leak_hooks(t, zone_policy(t, cfg, reg), scenario))
                leaks += 1
            for policy in policies:
                rib = _solve(topo, origs, policy(topo))
                again = _solve(shuffled, origs, policy(shuffled))
                assert rib == again
                if isinstance(rib, Rib):
                    assert dump_rib(rib) == dump_rib(again)
        assert reordered >= 10 and leaks >= 5

    def test_loop_freedom(self):
        rng = random.Random(77)
        for _ in range(20):
            topo = random_topology(rng, 12, 5)
            rib = propagate(topo, random_originations(rng, topo))
            for asn, entries in rib.per_as.items():
                for entry in entries.values():
                    for route in entry.candidates:
                        assert len(set(route.as_path)) == len(route.as_path)
                        if route.learned_rel is not Rel.SELF:
                            assert asn not in route.as_path

    def test_valley_free_replay(self):
        # Replay each best path against edge labels: after the route has
        # crossed a peer or provider edge (in traffic direction), it never
        # again uses a customer-learned hop.
        rng = random.Random(88)
        for _ in range(20):
            topo = random_topology(rng, 14, 6)
            rib = propagate(topo, random_originations(rng, topo))
            for asn, entries in rib.per_as.items():
                for entry in entries.values():
                    route = entry.best
                    if route.learned_rel is Rel.SELF:
                        continue
                    hops = (asn,) + route.as_path
                    # hops[i] learned the route from hops[i+1]
                    rels = [
                        topo.rel_from(hops[i], hops[i + 1])
                        for i in range(len(hops) - 1)
                    ]
                    seen_nondown = False
                    for rel in reversed(rels):  # origin side first
                        if rel in (Rel.PEER, Rel.PROVIDER):
                            # provider edge from the receiver's view means
                            # the sender exported downhill; receiver-side
                            # customer edges must not follow.
                            seen_nondown = True
                        elif seen_nondown:
                            assert rel is Rel.PROVIDER or rel is Rel.PEER

    def test_oracle_equivalence_small(self):
        rng = random.Random(2024)
        for _ in range(40):
            topo = random_topology(rng, rng.randint(3, 10), rng.randint(0, 5))
            origs = random_originations(rng, topo)
            rib = propagate(topo, origs)
            oracle = oracle_fixpoint(topo, origs)
            assert oracle is not None
            assert rib_as_cells(rib) == oracle


def _differential_corpus(seed, count=260):
    rng = random.Random(seed)
    for _ in range(count):
        topo = random_topology(rng, rng.randint(4, 12), rng.randint(0, 6))
        members = random_connected_members(rng, topo)
        origs = random_originations(rng, topo)
        yield rng, topo, members, origs, random_registry(rng, topo, members, origs)


def _check_against_oracle(topo, origs, hooks):
    """Engine equals the path-universe oracle (both converge or both fail);
    returns the RIB or None."""
    oracle = oracle_fixpoint(topo, origs, hooks)
    if oracle is None:
        with pytest.raises(NonConvergenceError):
            propagate(topo, origs, hooks)
        return None
    rib = propagate(topo, origs, hooks)
    assert rib_as_cells(rib) == oracle
    return rib


class TestEdgeIncrementalDifferential:
    """Policies whose edge results change after first being set: withdrawn
    forced exports, opted-in non-members, duplicate and forged origins."""

    def test_leak_hooks_over_zone_policy(self):
        solved = withdrawn = 0
        for rng, topo, members, origs, reg in _differential_corpus(301):
            leakers = sorted(a for a in topo.asns if len(topo.providers_of(a)) >= 2)
            if not leakers:
                continue
            leaker = rng.choice(leakers)
            leaked_from = rng.choice(sorted(topo.providers_of(leaker)))
            victim = origs[0]
            scenario = AttackScenario(
                AttackKind.ROUTE_LEAK, leaker, victim.prefix, victim.asn,
                leaked_from=leaked_from,
            )
            base = zone_policy(topo, ZoneConfig(members=members), reg)
            leak = _leak_hooks(topo, base, scenario)
            forced = []

            def export_route(exporter, neighbor, rel, route):
                sent = leak.export_route(exporter, neighbor, rel, route)
                if sent:
                    forced.append(exporter)
                return sent

            hooks = PolicyHooks(leak.import_route, export_route, leak.preference_for)
            rib = _check_against_oracle(topo, origs, hooks)
            if rib is None:
                continue
            solved += 1
            final = rib.best(leaker, victim.prefix)
            if forced and (final is None or final.learned_from != leaked_from):
                withdrawn += 1
        assert solved >= 200
        assert withdrawn > 0

    def test_honor_verified_stub_customers_of_members(self):
        solved = opted_in = 0
        for rng, topo, members, origs, reg in _differential_corpus(302):
            stubs = frozenset(
                a for a in topo.asns - members
                if not topo.customers_of(a) and topo.providers_of(a) & members
            )
            cfg = ZoneConfig(
                members=members,
                aspa_extension=rng.random() < 0.5,
                honor_verified_non_members=stubs,
            )
            if _check_against_oracle(topo, origs, zone_policy(topo, cfg, reg)):
                solved += 1
                opted_in += bool(stubs)
        assert solved >= 200
        assert opted_in >= 50

    def test_duplicate_originations_and_forged_injection(self):
        solved = 0
        for rng, topo, members, origs, reg in _differential_corpus(303):
            victim = origs[0]
            others = sorted(topo.asns - {victim.asn})
            attacker = rng.choice(others)
            forged = (attacker, rng.choice([a for a in others if a != attacker]), victim.asn)
            extra = [
                victim,
                Origination(rng.choice(others), victim.prefix),
                Origination(attacker, victim.prefix, forged),
            ]
            if rng.random() < 0.5:
                extra.append(Origination(attacker, rng.choice(PREFIX_POOL)))
            cfg = ZoneConfig(members=members)
            hooks = zone_policy(topo, cfg, reg)
            if _check_against_oracle(topo, list(origs) + extra, hooks):
                solved += 1
        assert solved >= 200


def _probe_policies(seed):
    """The policies and destinations of _probe_solves(seed): (topology,
    zone config, registry, the 8 sampled probe originations) per config."""
    topo, members = random_zone_instance(seed)
    rng = random.Random(seed)
    origs = [Origination(d, synthetic_prefix(d)) for d in sorted(topo.asns)]
    reg = random_registry(rng, topo, members, origs)
    honor = frozenset(a for a in sorted(topo.asns - members) if rng.random() < 0.5)
    for cfg in (
        ZoneConfig(members=members),
        ZoneConfig(members=members, aspa_extension=True, honor_verified_non_members=honor),
    ):
        yield topo, cfg, reg, rng.sample(origs, min(8, len(origs)))


def _probe_solves(seed):
    """One-destination solves on random_zone_instance(seed), as the
    exceptions pass runs them: probe prefixes of 8 sampled destinations,
    under a random registry, solved under the zone policy (members rank
    VERIFIED first) and under the same with the ASPA extension and half the
    non-members, transit ones too, opted in to VERIFIED, which some of
    these prefixes never settle under."""
    for topo, cfg, reg, sample in _probe_policies(seed):
        net = _Network(topo, zone_policy(topo, cfg, reg))
        for orig in sample:
            yield net, orig.prefix, [orig]


class TestRoundSelection:
    """A round compares an AS's arrivals with its best, and re-ranks its
    whole table only when that best's entry is dropped or displaced by one
    not ranked strictly above it, or when keys tie.  The bests, and the
    ASes still changing when a solve is cut, equal those of re-ranking
    every touched AS's whole table every round (full_rerank_prefix)."""

    def test_matches_full_rerank(self):
        solves = stuck = 0
        for seed in range(400):
            for net, prefix, origs in _probe_solves(seed):
                best, _, _, still = _propagate_prefix(net, prefix, origs)
                assert (best, still) == full_rerank_prefix(net, prefix, origs)
                solves += 1
                stuck += bool(still)
        assert solves == 6400
        assert stuck >= 3

    @pytest.mark.parametrize("seed,member,destination", [(226, 14, 23), (33, 2, 14)])
    def test_mixed_order_matches_full_rerank(self, seed, member, destination):
        # routing_exceptions' mixed solves: member ranking plain in a zone
        # that ranks VERIFIED first.  On 226 the member's pick is a
        # customer or peer route only this solve finds; 33 never settles.
        topo, members = random_zone_instance(seed)
        prefix = synthetic_prefix(destination)
        reg = RegistrySet(roas=[Roa(prefix, destination)])
        net = _Network(topo, zone_policy(topo, ZoneConfig(members=members), reg))
        mixed = net.with_order(member, _PLAIN_ORDER)
        origs = [Origination(destination, prefix)]
        best, _, _, stuck = _propagate_prefix(mixed, prefix, origs)
        assert (best, stuck) == full_rerank_prefix(mixed, prefix, origs)
        if seed == 226:
            assert not stuck
            assert best[net.index[member]][1].learned_rel in (Rel.CUSTOMER, Rel.PEER)
        else:
            assert stuck


class TestScopedImport:
    """The zone's import hook is a ScopedImport over the members and the
    opted-in non-members: a solve calls it there alone and admits every
    other AS's offers unchanged without a call.  That is exact: the same
    hooks with the import wrapped in a plain function, which a solve calls
    at every AS, give equal RIBs (replayed candidates included) and the
    same oscillating ASes, over _probe_solves' corpus."""

    def test_matches_the_unscoped_hook(self):
        solves = stuck = outside = 0
        for seed in range(400):
            for topo, cfg, reg, sample in _probe_policies(seed):
                hooks = zone_policy(topo, cfg, reg)
                scoped = hooks.import_route
                assert isinstance(scoped, ScopedImport)
                assert scoped.scope == cfg.members | cfg.honor_verified_non_members
                importers, everywhere = set(), set()

                def counted(importer, neighbor, rel, route, inner=scoped.hook, seen=importers):
                    seen.add(importer)
                    return inner(importer, neighbor, rel, route)

                def plain(importer, neighbor, rel, route, inner=scoped, seen=everywhere):
                    seen.add(importer)
                    return inner(importer, neighbor, rel, route)

                within = replace(hooks, import_route=replace(scoped, hook=counted))
                unscoped = replace(hooks, import_route=plain)
                for orig in sample:
                    rib = _solve(topo, [orig], within)
                    assert rib == _solve(topo, [orig], unscoped)
                    solves += 1
                    stuck += not isinstance(rib, Rib)
                assert importers <= scoped.scope
                outside += bool(everywhere - scoped.scope)
        assert solves == 6400 and stuck >= 3 and outside >= 700


def _tagging_hooks(origin, taggers, verified_first, order=PreferenceOrder):
    # Each AS of taggers tags what it imports from origin; the ASes of
    # verified_first rank tagged routes first, every other AS plain.
    def import_route(importer, neighbor, rel, route):
        if importer in taggers and neighbor == origin:
            return replace(route, communities=route.communities | {VERIFIED})
        return route

    orders = {flag: order(verified_first=flag) for flag in (False, True)}
    return PolicyHooks(
        import_route=import_route, preference_for=lambda asn: orders[asn in verified_first]
    )


class _NoNeighborTiebreak(PreferenceOrder):
    # The stock order without its neighbor and path tiebreaks: routes of
    # one relationship and length from different neighbors tie.
    def key(self, route):
        rel = route.learned_rel
        return (
            rel is Rel.SELF,
            self.verified_first and VERIFIED in route.communities,
            {Rel.CUSTOMER: 3, Rel.PEER: 2, Rel.PROVIDER: 1}.get(rel, 0),
            -len(route.as_path),
        )


def _turning_solve(with_b=True):
    # 10 originates; its providers 30 and 40 tag what they import from it.
    # 2, also 10's provider and 30's customer, ranks VERIFIED first: it
    # holds the untagged customer route (10) in round 2, sending it to its
    # peer 3 and its customer 60, and turns to the tagged provider route
    # (30, 10) in round 3.  3 peers with 2 and 40 and picks 2's route (the
    # lower neighbor); 50 is 3's customer.
    text = "2|10|-1\n30|10|-1\n30|2|-1\n3|2|0\n2|60|-1\n3|50|-1\n"
    if with_b:
        text += "40|10|-1\n3|40|0\n"
    topo = load_topology(text)
    hooks = _tagging_hooks(10, {30, 40}, {2})
    rib = propagate(topo, [(10, PFX)], hooks)
    assert rib_as_cells(rib) == oracle_fixpoint(topo, [(10, PFX)], hooks)
    return rib


class TestRoundSelectionFallbacks:
    """Pinned cases for each time a round re-ranks an AS's whole table."""

    def test_best_entry_withdrawn_when_neighbor_turns_provider_learned(self):
        # Once 2's best is provider-learned, 2 withdraws its route from its
        # peer 3, whose best it was: 3 falls back to 40's tagged route.
        rib = _turning_solve()
        assert rib.best(3, PFX) == Route(PFX, (40, 10), frozenset({VERIFIED}), Rel.PEER)
        # Without 40, 3 is left with nothing, and withdraws in turn what
        # was its customer 50's best.
        rib = _turning_solve(with_b=False)
        assert rib.best(3, PFX) is None and rib.best(50, PFX) is None

    def test_best_entry_replaced_by_one_not_ranked_above_it(self):
        # 2's customer 60 held (2, 10); 2 now sends (2, 30, 10), longer,
        # in the same entry.  50 held (3, 2, 10); 3 now sends (3, 40, 10),
        # which plain 50 ranks equal, but tagged: its dump row must show
        # the tag.
        rib = _turning_solve()
        rows = dump_rib(rib).splitlines()
        assert f"60|{PFX}|2 30 10|{VERIFIED}|provider" in rows
        assert f"50|{PFX}|3 40 10|{VERIFIED}|provider" in rows

    @pytest.mark.parametrize("text,origin,taggers,verified_first,asn,path", [
        # 1 hears (6, 4, 3) and (5, 4, 3) in one round, keyed equal.  6's
        # arrives first, but 5's entry is first in 1's table (5 sent it
        # (5, 3) a round before), so 5's route wins.
        ("4|3|-1\n4|6|-1\n5|1|-1\n5|2|-1\n5|3|-1\n5|4|-1\n6|1|-1", 3, {4}, {1, 3, 5},
         1, (5, 4, 3)),
        # 4 holds 1's (1, 3, 2) when its entry from 5, first in its table,
        # turns to (5, 3, 2), keyed equal: 5's route wins.
        ("1|2|-1\n1|4|-1\n3|2|-1\n5|1|-1\n5|3|-1\n5|4|-1\n1|3|0\n2|5|0", 2, {3, 5}, {1, 2, 4},
         4, (5, 3, 2)),
    ], ids=["arrivals-tie", "arrival-ties-best"])
    def test_tied_keys_pick_what_max_picks(self, text, origin, taggers, verified_first, asn, path):
        # A key that ties across neighbors: the first tied entry in the
        # AS's table wins, as max over the whole table picks it.
        topo = load_topology(text)
        hooks = _tagging_hooks(origin, taggers, verified_first, _NoNeighborTiebreak)
        net = _Network(topo, hooks)
        origs = [Origination(origin, PFX)]
        best, _, _, stuck = _propagate_prefix(net, PFX, origs)
        assert (best, stuck) == full_rerank_prefix(net, PFX, origs)
        assert best[net.index[asn]][1].as_path == path


def _full_walk(hooks):
    # The same policy with a behaviour-identical export hook: any hook other
    # than the default makes propagate walk all of each exporter's neighbors.
    inner = hooks.export_route

    def export_route(exporter, neighbor, rel, route):
        return inner(exporter, neighbor, rel, route)

    return replace(hooks, export_route=export_route)


class TestExportContract:
    """The export hook is asked only about an edge the economic rule
    refuses, and True sends the exporter's best over exactly that edge.
    Under the default hook the refused edges are not visited at all: that
    fast path must equal the full walk."""

    @pytest.mark.parametrize(
        "hooks", [None, gao_rexford_hooks(), PolicyHooks()],
        ids=["none", "gao_rexford_hooks", "no_class"],
    )
    def test_plain_fast_path_matches_full_walk_and_oracle(self, hooks):
        full = _full_walk(hooks or gao_rexford_hooks())
        for rng, topo, members, origs, reg in _differential_corpus(304, 160):
            rib = _check_against_oracle(topo, origs, hooks)
            assert rib == propagate(topo, origs, full)

    def test_flip_to_provider_route_withdraws_from_peers_and_providers(self):
        # Zone {1, 2, 3}; 20 buys transit from member 2 and from 30, a
        # customer of member 3; 4 peers with 3.  In round 3, 3 selects the
        # untagged customer route (30, 20) and sends it everywhere; in
        # round 4 the tagged (1, 2, 20) arrives from its provider and wins
        # under VERIFIED-first, so 1 and 4 must lose what 3 sent them.
        topo = load_topology("1|2|-1\n1|3|-1\n2|20|-1\n3|30|-1\n30|20|-1\n3|4|0")
        origs = [Origination(20, PFX)]
        reg = RegistrySet(roas=[Roa(PFX, 20)])
        hooks = zone_policy(topo, ZoneConfig(members=frozenset({1, 2, 3})), reg)
        sent = []

        def import_route(importer, neighbor, rel, route, inner=hooks.import_route):
            admitted = inner(importer, neighbor, rel, route)
            if neighbor == 3 and admitted is not None:
                sent.append((importer, route.as_path))
            return admitted

        rib = propagate(topo, origs, replace(hooks, import_route=import_route))
        assert (1, (3, 30, 20)) in sent and (4, (3, 30, 20)) in sent
        assert rib_as_cells(rib) == oracle_fixpoint(topo, origs, hooks)
        assert rib.best(3, PFX) == Route(PFX, (1, 2, 20), frozenset({VERIFIED}), Rel.PROVIDER)
        for asn in topo.providers_of(3) | topo.peers_of(3):
            assert all(r.learned_from != 3 for r in rib.candidates(asn, PFX))
        assert rib.best(4, PFX) is None
        assert rib == propagate(topo, origs, hooks) == propagate(topo, origs, _full_walk(hooks))

    def test_hook_never_asked_about_allowed_edges(self):
        # The counting hook is not the default, so `counted` walks every
        # row; on zone instances `hooks` takes the fast path, so the two
        # solves also compare the fast path with the full walk.
        asked = []
        solved = 0
        for rng, topo, members, origs, reg in _differential_corpus(305, 120):
            hooks = zone_policy(topo, ZoneConfig(members=members), reg)
            leakers = sorted(a for a in topo.asns if len(topo.providers_of(a)) >= 2)
            if leakers and rng.random() < 0.5:
                leaker = rng.choice(leakers)
                scenario = AttackScenario(
                    AttackKind.ROUTE_LEAK, leaker, origs[0].prefix, origs[0].asn,
                    leaked_from=rng.choice(sorted(topo.providers_of(leaker))),
                )
                hooks = _leak_hooks(topo, hooks, scenario)

            def export_route(exporter, neighbor, rel, route, inner=hooks.export_route):
                asked.append((route.learned_rel, rel, topo.rel_from(exporter, neighbor)))
                return inner(exporter, neighbor, rel, route)

            counted = replace(hooks, export_route=export_route)
            result = _solve(topo, origs, counted)
            assert result == _solve(topo, origs, hooks)
            solved += isinstance(result, Rib)
        assert solved >= 100
        assert asked
        for learned_rel, rel, rel_in_topology in asked:
            assert rel is rel_in_topology
            assert learned_rel in (Rel.PEER, Rel.PROVIDER) and rel is not Rel.CUSTOMER

    def test_true_forces_exactly_that_edge(self):
        # 10 buys transit from 1 and 2, and 20, the origin, from 1: 2 hears
        # of the prefix only if 10 re-exports its provider-learned route.
        topo = load_topology("1|10|-1\n2|10|-1\n1|20|-1")
        plain = propagate(topo, [(20, PFX)])
        assert plain.best(2, PFX) is None
        asked = []

        def export_route(exporter, neighbor, rel, route):
            asked.append((exporter, neighbor))
            return (exporter, neighbor) == (10, 2)

        hooks = PolicyHooks(export_route=export_route)
        rib = _check_against_oracle(topo, [(20, PFX)], hooks)
        assert (10, 2) in asked
        assert rib.best(2, PFX) == Route(PFX, (10, 1, 20), frozenset(), Rel.CUSTOMER)
        assert rib.candidates(2, PFX) == (rib.best(2, PFX),)
        for asn in (1, 10, 20):
            assert rib.per_as[asn] == plain.per_as[asn]


class TestRouteFields:
    def test_learned_from_is_the_path_head(self):
        # On seeded zone RIBs, and on the rows parsed back from their dumps.
        checked = 0
        for rng, topo, members, origs, reg in _differential_corpus(306, 60):
            cfg = ZoneConfig(members=members)
            try:
                rib = propagate(topo, origs, zone_policy(topo, cfg, reg))
            except NonConvergenceError:
                continue
            rows = [
                (asn, route)
                for asn, entries in rib.per_as.items()
                for entry in entries.values()
                for route in entry.candidates
            ]
            rows += parse_rib_dump(dump_rib(rib))
            for asn, route in rows:
                if route.learned_rel is Rel.SELF:
                    assert route.learned_from is None
                    assert route.as_path[0] == asn
                else:
                    assert route.learned_from == route.as_path[0]
                    assert route.learned_from in topo.neighbors_of(asn)
            checked += 1
        assert checked >= 50

    def test_fields(self):
        assert [f.name for f in fields(Route)] == [
            "prefix", "as_path", "communities", "learned_rel",
        ]
        # Hook sets are rebuilt positionally from their first three fields.
        assert [f.name for f in fields(PolicyHooks)] == [
            "import_route", "export_route", "preference_for", "prefix_class",
        ]
        with pytest.raises(TypeError):
            Route(PFX, (2, 9), frozenset(), 2, Rel.PROVIDER)
        assert isinstance(Route.learned_from, property) and Route.learned_from.fset is None


# Prefixes for the class-solving corpus: a covering /16 and /24s under it
# (so a /16 ROA can make a /24 invalid), and an IPv6 prefix.
CLASS_POOL = [P("10.0.0.0/16")] + [P(f"10.0.{k}.0/24") for k in range(6)] + [P("2001:db8::/48")]


def _class_corpus(seed, count):
    """Seeded zones where a few origins announce many prefixes, so prefixes
    share classes or split on their ROV state and R5 verdicts; with
    duplicate and multi-origin originations and forged-path injections."""
    rng = random.Random(seed)
    for _ in range(count):
        topo = random_topology(rng, rng.randint(4, 14), rng.randint(0, 8))
        members = random_connected_members(rng, topo)
        asns = sorted(topo.asns)
        origins = rng.sample(asns, k=min(len(asns), rng.randint(1, 3)))
        origs = []
        for prefix in rng.sample(CLASS_POOL, k=rng.randint(2, len(CLASS_POOL))):
            origs.append(Origination(rng.choice(origins), prefix))
            roll = rng.random()
            if roll < 0.15:
                origs.append(origs[-1])
            elif roll < 0.3:
                origs.append(Origination(rng.choice(asns), prefix))
        reg = random_registry(rng, topo, members, origs)
        if len(asns) >= 3 and rng.random() < 0.5:
            victim = rng.choice(origs)
            attacker, via = rng.sample([a for a in asns if a != victim.asn], k=2)
            origs.append(Origination(attacker, victim.prefix, (attacker, via, victim.asn)))
        stubs = frozenset(
            a for a in topo.asns - members
            if not topo.customers_of(a) and topo.providers_of(a) & members
        )
        cfg = ZoneConfig(
            members=members,
            aspa_extension=rng.random() < 0.5,
            honor_verified_non_members=stubs if rng.random() < 0.3 else frozenset(),
        )
        yield rng, topo, cfg, origs, reg


def _per_prefix(hooks):
    # The same policy without a class key: every prefix solved on its own.
    return PolicyHooks(hooks.import_route, hooks.export_route, hooks.preference_for)


def _solve(topo, origs, hooks):
    try:
        return propagate(topo, origs, hooks)
    except NonConvergenceError as exc:
        return exc.oscillating


def _class_count(topo, origs, hooks):
    by_prefix = {}
    for orig in origs:
        by_prefix.setdefault(orig.prefix, []).append(orig)
    return len(by_prefix), len({hooks.prefix_class(p, o) for p, o in by_prefix.items()})


class TestClassSolving:
    """One solve per routing-equivalence class, relabelled, equals a solve
    per prefix: same Rib (candidate order too), same cells, same dump."""

    def _check(self, topo, origs, hooks):
        classed = _solve(topo, origs, hooks)
        alone = _solve(topo, origs, _per_prefix(hooks))
        if isinstance(alone, dict):
            assert classed == alone
            return False
        assert classed == alone
        assert rib_as_cells(classed) == rib_as_cells(alone)
        assert dump_rib(classed) == dump_rib(alone)
        return True

    def test_zone_policy(self):
        solved = shared = 0
        for rng, topo, cfg, origs, reg in _class_corpus(701, 240):
            hooks = zone_policy(topo, cfg, reg)
            prefixes, classes = _class_count(topo, origs, hooks)
            solved += self._check(topo, origs, hooks)
            shared += classes < prefixes
        assert solved >= 200
        assert shared >= 100

    def test_leak_hooks(self):
        # scenario_rib solves a leak's victim prefix under the leak hooks
        # and the other prefixes, by class, under the zone's own: the same
        # Rib, dump and failing prefixes as one per-prefix solve whose
        # export hook leaks the victim prefix alone.
        solved = 0
        for rng, topo, cfg, origs, reg in _class_corpus(702, 120):
            leakers = sorted(a for a in topo.asns if len(topo.providers_of(a)) >= 2)
            if not leakers:
                continue
            leaker = rng.choice(leakers)
            victim = origs[0]
            scenario = AttackScenario(
                AttackKind.ROUTE_LEAK, leaker, victim.prefix, victim.asn,
                leaked_from=rng.choice(sorted(topo.providers_of(leaker))),
            )
            base = zone_policy(topo, cfg, reg)
            leak = _leak_hooks(topo, base, scenario)
            assert leak.prefix_class is base.prefix_class

            def export_route(exporter, neighbor, rel, route):
                hooks = leak if route.prefix == victim.prefix else base
                return hooks.export_route(exporter, neighbor, rel, route)

            single = _solve(topo, origs, _per_prefix(replace(base, export_route=export_route)))
            try:
                split = scenario_rib(topo, reg, cfg, origs, scenario)
            except NonConvergenceError as exc:
                split = exc.oscillating
            if isinstance(single, dict):
                assert isinstance(split, dict) and list(split.items()) == list(single.items())
                continue
            assert split == single
            assert rib_as_cells(split) == rib_as_cells(single)
            assert dump_rib(split) == dump_rib(single)
            solved += 1
        assert solved >= 40

    def test_leak_non_convergence_names_both_solves(self, monkeypatch):
        # On the DISAGREE gadget every prefix oscillates: the victim
        # prefix's solve and the other prefixes' solve each fail, and one
        # error names them all in prefix order, the victim's last here.
        import zonesim.attacks as attacks

        monkeypatch.setattr(
            attacks, "zone_policy",
            lambda topo, cfg, reg: PolicyHooks(
                preference_for=lambda asn: PeerFirst(), prefix_class=origination_class
            ),
        )
        topo = load_topology(DISAGREE)
        victim = P("10.1.0.0/24")
        scenario = AttackScenario(AttackKind.ROUTE_LEAK, 10, victim, 10, leaked_from=1)
        origs = [(10, victim), (10, P("192.0.2.0/24")), (10, PFX)]
        with pytest.raises(NonConvergenceError) as excinfo:
            scenario_rib(topo, RegistrySet(), ZoneConfig(frozenset()), origs, scenario)
        assert excinfo.value.prefixes == (PFX, victim, P("192.0.2.0/24"))
        assert set(excinfo.value.oscillating.values()) == {(1, 2)}

    def test_keys_split_on_what_r2_and_r5_read(self):
        # Same origin, same announcement: a prefix with a matching ROA and
        # one without split (R5 verifies only the first); two without share.
        topo = chain_topology()
        cfg = ZoneConfig(members=frozenset({1, 2}))
        a, b, c = P("10.0.1.0/24"), P("10.0.2.0/24"), P("10.0.3.0/24")
        reg = RegistrySet(roas=[Roa(a, 3)])
        hooks = zone_policy(topo, cfg, reg)
        key = {p: hooks.prefix_class(p, [Origination(3, p)]) for p in (a, b, c)}
        assert key[a] != key[b] == key[c]
        rib = propagate(topo, [(3, a), (3, b), (3, c)], hooks)
        assert VERIFIED in rib.best(2, a).communities
        assert rib.best(1, b) == Route(b, (2, 3), frozenset(), Rel.CUSTOMER)
        assert rib.best(1, c).prefix is c

    def test_forged_origin_outside_the_topology(self):
        # A forged path may end at an ASN the topology lacks; the zone
        # policy's class key then finds no member adjacent to that origin.
        # No ROA covers the prefixes, so R2 does not settle the key first.
        topo = chain_topology()
        other = P("10.1.0.0/24")
        hooks = zone_policy(topo, ZoneConfig(members=frozenset({1, 2})), RegistrySet())
        origs = [Origination(2, p) for p in (PFX, other)]
        origs += [Origination(3, p, (3, 99)) for p in (PFX, other)]
        prefixes, classes = _class_count(topo, origs, hooks)
        assert (prefixes, classes) == (2, 1)
        assert self._check(topo, origs, hooks)

    def test_non_converging_class_names_every_prefix(self):
        # The DISAGREE gadget, for two prefixes of one class.
        topo = load_topology(DISAGREE)
        hooks = PolicyHooks(preference_for=lambda asn: PeerFirst(), prefix_class=origination_class)
        other = P("10.1.0.0/24")
        with pytest.raises(NonConvergenceError) as excinfo:
            propagate(topo, [(10, other), (10, PFX)], hooks)
        assert excinfo.value.oscillating == {PFX: (1, 2), other: (1, 2)}
        assert excinfo.value.prefixes == (PFX, other)


class TestPathFreeRank:
    def test_orders_candidates_as_key_does(self):
        # Within one AS, learned routes come from distinct neighbors and
        # are ranked without the path tiebreak; local routes keep the full
        # key.  Relationships, lengths and tags collide often here.
        rng = random.Random(11)
        rels = (Rel.CUSTOMER, Rel.PEER, Rel.PROVIDER)
        for _ in range(500):
            order = PreferenceOrder(verified_first=rng.random() < 0.5)
            cands = []
            for neighbor in rng.sample(range(1, 40), k=rng.randint(1, 8)):
                path = (neighbor,) + tuple(rng.sample(range(50, 60), k=rng.randint(0, 2)))
                tags = frozenset({VERIFIED}) if rng.random() < 0.4 else frozenset()
                cands.append(Route(PFX, path, tags, rng.choice(rels)))
            for _ in range(rng.randint(0, 3)):
                path = (99,) + tuple(rng.sample(range(50, 60), k=rng.randint(0, 2)))
                tags = frozenset({VERIFIED}) if rng.random() < 0.4 else frozenset()
                cands.append(Route(PFX, path, tags))
            rng.shuffle(cands)

            def engine_key(route):
                return order.key(route) if route.learned_rel is Rel.SELF else order._rank(route)

            assert sorted(cands, key=engine_key) == sorted(cands, key=order.key)


class TestOwnOriginations:
    """An AS's own originations share one candidate table with the routes
    it learns.  Forged paths of one head and length, listed worse path
    first, must rank by the full preference key, path tiebreak included."""

    def test_several_originations_at_one_learning_as(self):
        solved = learning = 0
        for rng, topo, members, origs, reg in _differential_corpus(318, 160):
            prefix, origin = origs[0].prefix, origs[0].asn
            injector = rng.choice(sorted(topo.asns - {origin}))
            others = sorted(topo.asns - {injector})
            length = rng.randint(2, 3)
            paths = {(injector, *rng.sample(others, length - 1)) for _ in range(rng.randint(2, 3))}
            if len(paths) < 2:
                continue
            injections = [
                Origination(injector, prefix, path, frozenset({VERIFIED}) if rng.random() < 0.5
                            else frozenset())
                for path in sorted(paths, reverse=True)
            ]
            cfg = ZoneConfig(members=members, aspa_extension=rng.random() < 0.5)
            hooks = zone_policy(topo, cfg, reg)
            rib = _check_against_oracle(topo, origs + injections, hooks)
            if rib is None:
                continue
            solved += 1
            for asn in sorted(topo.asns):
                cands = rib.candidates(asn, prefix)
                key = hooks.preference_for(asn).key
                assert cands == tuple(sorted(cands, key=key, reverse=True))
            learning += any(r.learned_rel is not Rel.SELF for r in rib.candidates(injector, prefix))
            if members:
                member = rng.choice(sorted(members))
                try:
                    expected = exceptions_by_two_solves(topo, cfg, member)
                except NonConvergenceError:
                    with pytest.raises(NonConvergenceError):
                        routing_exceptions(topo, cfg, member)
                else:
                    assert routing_exceptions(topo, cfg, member) == expected
        assert solved >= 120
        assert learning >= 80


class TestNonConvergence:
    def test_peer_over_customer_preference_oscillates(self):
        # DISAGREE gadget: 1 and 2 peer, both provide transit to 0.  A
        # pathological preference that ranks peer routes above customer
        # routes makes the pair flip-flop between the direct route and the
        # route through each other; the round cap must catch it.
        topo = load_topology(DISAGREE)
        hooks = PolicyHooks(preference_for=lambda asn: PeerFirst())
        with pytest.raises(NonConvergenceError) as excinfo:
            propagate(topo, [(10, PFX)], hooks)
        assert PFX in excinfo.value.prefixes
        # The DISAGREE pair is still flipping when the cap is hit; the
        # origin's own route never changes.
        assert excinfo.value.oscillating[PFX] == (1, 2)
        assert "AS1, AS2" in str(excinfo.value)


def _raising_import(importer, neighbor, rel, route):
    raise LookupError("import hook failed")


class TestCollectorPause:
    """propagate and dump_rib pause the cyclic collector for the whole call
    and leave it as they found it, however the call ends."""

    # Each case solves two prefixes on the DISAGREE gadget.
    CASES = {
        "solve": (PolicyHooks(), None),
        "non-convergence": (PolicyHooks(preference_for=lambda asn: PeerFirst()), NonConvergenceError),
        "raising-hook": (PolicyHooks(import_route=_raising_import), LookupError),
    }

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("case", list(CASES))
    def test_collector_state_is_restored(self, case):
        hooks, error = self.CASES[case]
        topo = load_topology(DISAGREE)
        origs = [(10, PFX), (1, P("10.1.0.0/24"))]
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            if error is None:
                dump_rib(propagate(topo, origs, hooks))
            else:
                with pytest.raises(error):
                    propagate(topo, origs, hooks)
            assert gc.isenabled() is enabled

    def test_paused_from_class_keys_to_last_import(self):
        seen = []

        def prefix_class(prefix, originations):
            seen.append(gc.isenabled())
            return None

        def import_route(importer, neighbor, rel, route):
            seen.append(gc.isenabled())
            return route

        gc.enable()
        hooks = PolicyHooks(import_route=import_route, prefix_class=prefix_class)
        propagate(chain_topology(), [(3, PFX)], hooks)
        assert len(seen) == 3 and not any(seen)
        assert gc.isenabled()

    def test_dump_sink_runs_paused(self):
        rib = propagate(chain_topology(), [(3, PFX), (3, P("10.1.0.0/24"))])
        seen = []

        def failing(text):
            raise LookupError("sink failed")

        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            dump_rib(rib, lambda text: seen.append(gc.isenabled()))
            assert gc.isenabled() is enabled
            with pytest.raises(LookupError):
                dump_rib(rib, failing)
            assert gc.isenabled() is enabled
        assert seen == [False] * 6

    def test_nested_call_leaves_collector_paused(self):
        topo = chain_topology()
        after_inner = []

        def import_route(importer, neighbor, rel, route):
            propagate(topo, [(3, PFX)])
            after_inner.append(gc.isenabled())
            return route

        gc.enable()
        with _gc_paused():
            propagate(topo, [(3, PFX)])
            assert not gc.isenabled()
        assert gc.isenabled()
        propagate(topo, [(3, PFX)], PolicyHooks(import_route=import_route))
        assert after_inner and not any(after_inner)
        assert gc.isenabled()


class TestPreferenceKeyCalls:
    def test_key_computed_once_per_admitted_route(self):
        # Every candidate's preference key is computed when the route is
        # admitted (or originated) and cached; ranking never recomputes it.
        calls = []

        class Counting(PreferenceOrder):
            def key(self, route):
                calls.append(route)
                return super().key(route)

        admitted = []

        def import_route(importer, neighbor, rel, route):
            admitted.append(route)
            return route

        hooks = PolicyHooks(import_route=import_route, preference_for=lambda asn: Counting())
        topo = load_topology(
            "1|2|-1\n1|3|-1\n2|4|-1\n3|4|-1\n2|3|0\n4|5|-1\n3|5|-1\n1|6|0"
        )
        origs = [(5, PFX), (6, PFX), (4, P("10.1.0.0/24")), (4, P("10.1.0.0/24"))]
        rib = propagate(topo, origs, hooks)
        local_routes = 3  # the duplicate origination is one route
        assert admitted
        assert len(calls) <= len(admitted) + local_routes
        assert rib == propagate(topo, origs, PolicyHooks())


def _fresh_imports(hooks):
    # The same policy, but every admitted route is a new object equal to
    # the hook's answer, so no importer reuses another's entry.
    inner = hooks.import_route

    def import_route(importer, neighbor, rel, route):
        admitted = inner(importer, neighbor, rel, route)
        return None if admitted is None else replace(admitted)

    return replace(hooks, import_route=import_route)


def _fresh_orders(hooks):
    # The same policy, but each AS gets its own order object, equal to the
    # shared one, so no AS shares another's rank callable.
    inner = hooks.preference_for
    return replace(hooks, preference_for=lambda asn: replace(inner(asn)))


class TestSharedOffers:
    """An exporter builds one route per relationship and each order keys it
    once.  Solves that defeat the sharing (fresh admitted routes, fresh
    orders) must equal the stock solve, and, on plain instances, the
    path-universe oracle."""

    def _check(self, topo, origs, hooks, oracle=False):
        result = _solve(topo, origs, hooks)
        assert result == _solve(topo, origs, _fresh_imports(hooks))
        assert result == _solve(topo, origs, _fresh_orders(hooks))
        if oracle:
            expected = oracle_fixpoint(topo, origs, hooks)
            if expected is None:
                assert isinstance(result, dict)
            else:
                assert rib_as_cells(result) == expected
        return isinstance(result, Rib)

    def test_zone_policy_with_opted_in_non_members(self):
        solved = opted_in = 0
        for rng, topo, members, origs, reg in _differential_corpus(306, 160):
            non_members = sorted(topo.asns - members)
            honor = frozenset(a for a in non_members if rng.random() < 0.4)
            cfg = ZoneConfig(
                members=members,
                aspa_extension=rng.random() < 0.5,
                honor_verified_non_members=honor,
            )
            if self._check(topo, origs, zone_policy(topo, cfg, reg)):
                solved += 1
                opted_in += bool(honor)
        assert solved >= 100
        assert opted_in >= 50

    def test_plain_gao_rexford(self):
        solved = 0
        for rng, topo, members, origs, reg in _differential_corpus(307, 160):
            solved += self._check(topo, origs, gao_rexford_hooks(), oracle=True)
        assert solved == 160

    def test_leak_hooks(self):
        leaked = 0
        for rng, topo, members, origs, reg in _differential_corpus(308, 160):
            leakers = sorted(a for a in topo.asns if len(topo.providers_of(a)) >= 2)
            if not leakers:
                continue
            leaker = rng.choice(leakers)
            scenario = AttackScenario(
                AttackKind.ROUTE_LEAK, leaker, origs[0].prefix, origs[0].asn,
                leaked_from=rng.choice(sorted(topo.providers_of(leaker))),
            )
            base = zone_policy(topo, ZoneConfig(members=members), reg)
            self._check(topo, origs, _leak_hooks(topo, base, scenario))
            self._check(topo, origs, _leak_hooks(topo, gao_rexford_hooks(), scenario), oracle=True)
            leaked += 1
        assert leaked >= 100

    def test_one_tagged_offer_ranked_under_each_order(self):
        # Member 1 tags its customer 20's origination and offers it, as
        # their provider, to member 3 and to plain non-member 4.  Both also
        # hear the untagged customer route (30, 20).  Verified-first 3 must
        # prefer the tagged provider route; plain 4, its customer route.
        topo = load_topology("1|20|-1\n1|3|-1\n1|4|-1\n3|30|-1\n4|30|-1\n30|20|-1")
        origs = [Origination(20, PFX)]
        reg = RegistrySet(roas=[Roa(PFX, 20)])
        hooks = zone_policy(topo, ZoneConfig(members=frozenset({1, 3})), reg)
        offered = []

        def import_route(importer, neighbor, rel, route, inner=hooks.import_route):
            admitted = inner(importer, neighbor, rel, route)
            if neighbor == 1 and importer in (3, 4):
                offered.append((route, admitted is route))
            return admitted

        rib = propagate(topo, origs, replace(hooks, import_route=import_route))
        tagged = Route(PFX, (1, 20), frozenset({VERIFIED}), Rel.PROVIDER)
        untagged = Route(PFX, (30, 20), frozenset(), Rel.CUSTOMER)
        # One offer object, admitted unchanged by both.
        assert len(offered) == 2 and offered[0][0] is offered[1][0] == tagged
        assert offered[0][1] and offered[1][1]
        assert rib.candidates(3, PFX) == (tagged, untagged)
        assert rib.candidates(4, PFX) == (untagged, tagged)
        assert rib_as_cells(rib) == oracle_fixpoint(topo, origs, hooks)
        assert self._check(topo, origs, hooks)

    def test_one_key_per_offer_and_order(self):
        # 1 originates and offers one route, as their provider, to 2, 3
        # and 4.  With one order object for every AS that route is keyed
        # once; with an order object per AS, once per importer.
        calls = []

        class Counting(PreferenceOrder):
            def key(self, route):
                calls.append(route)
                return super().key(route)

        topo = load_topology("1|2|-1\n1|3|-1\n1|4|-1")
        shared = Counting()
        rib = propagate(topo, [(1, PFX)], PolicyHooks(preference_for=lambda asn: shared))
        assert len(calls) == 2  # the local route and the one offer
        calls.clear()
        fresh = propagate(topo, [(1, PFX)], PolicyHooks(preference_for=lambda asn: Counting()))
        assert len(calls) == 4
        # Compared after counting: == replays candidates, keying them again.
        assert rib == fresh == propagate(topo, [(1, PFX)])


class TestTrace:
    def test_delivery_at_origin(self):
        rib = propagate(chain_topology(), [(3, P("10.0.0.0/23"))])
        hops, outcome = data_plane_trace(rib, 1, "10.0.0.9")
        assert outcome is TraceOutcome.DELIVERED
        assert hops == [1, 2, 3]

    def test_longest_prefix_wins(self):
        # 3 originates the /23; 2 originates a /24 inside it.  Traffic for
        # an address in the /24 must leave toward 2 even where the /23
        # route exists.
        topo = load_topology("1|2|-1\n2|3|-1")
        rib = propagate(topo, [(3, P("10.0.0.0/23")), (2, P("10.0.1.0/24"))])
        hops, outcome = data_plane_trace(rib, 1, "10.0.1.1")
        assert outcome is TraceOutcome.DELIVERED
        assert hops == [1, 2]
        hops, outcome = data_plane_trace(rib, 1, "10.0.0.1")
        assert hops == [1, 2, 3]

    def test_no_route(self):
        rib = propagate(chain_topology(), [(3, PFX)])
        hops, outcome = data_plane_trace(rib, 1, "192.0.2.1")
        assert outcome is TraceOutcome.NO_ROUTE
        assert hops == [1]


class TestDump:
    def test_dump_format_and_roundtrip(self):
        topo = load_topology("1|2|-1\n2|3|-1")
        rib = propagate(topo, [(3, PFX)])
        text = dump_rib(rib)
        assert "1|10.0.0.0/24|2 3||customer" in text
        assert "3|10.0.0.0/24|3||self" in text
        rows = parse_rib_dump(text)
        assert (1, rib.best(1, PFX)) in rows
        assert (3, rib.best(3, PFX)) in rows

    def test_dump_sorted(self):
        rng = random.Random(9)
        topo = random_topology(rng, 8, 3)
        rib = propagate(topo, random_originations(rng, topo, 3))
        lines = dump_rib(rib).splitlines()
        keys = [(int(l.split("|")[0]), l.split("|")[1]) for l in lines]
        assert keys == sorted(keys)

    def test_parse_errors(self):
        with pytest.raises(RoutingError, match="line 1"):
            parse_rib_dump("not|a|row")
        with pytest.raises(RoutingError, match="line 1"):
            parse_rib_dump("x|10.0.0.0/24|1||self")
        with pytest.raises(RoutingError, match="line 2: invalid prefix"):
            parse_rib_dump("1|10.0.0.0/24|1||self\n1|10.0.0.1/24|1||self")
        with pytest.raises(RoutingError, match="^line 1: empty AS path$"):
            parse_rib_dump("1|10.0.0.0/24|||self")

    def test_origination_parse_errors(self):
        with pytest.raises(RoutingError, match="^line 3: expected asn,prefix$"):
            load_originations("asn,prefix\n1,10.0.0.0/24\n1,10.0.0.0/24,x\n")

    def test_matches_formatter_oracle(self):
        # Zone-policy RIBs: VERIFIED tags, forged paths, shared classes.
        compared = 0
        for rng, topo, cfg, origs, reg in _class_corpus(703, 60):
            rib = _solve(topo, origs, zone_policy(topo, cfg, reg))
            if isinstance(rib, Rib):
                assert dump_rib(rib) == dump_rib_oracle(rib)
                compared += 1
        assert compared >= 50
        # Hand-built RIBs: every Rel, empty and multi-tag communities, each
        # set built afresh (equal but distinct frozensets), IPv4 beside
        # IPv6, and per-AS dicts in shuffled prefix order.
        rng = random.Random(704)
        prefixes = [P("10.0.0.0/24"), P("10.0.0.0/16"), P("9.0.0.0/8"), P("2001:db8::/48"),
                    P("2001:db8::/32"), P("::/0"), P("0.0.0.0/0")]
        tags = ["65000:1", VERIFIED, "65001:7", "0:0"]
        seen = set()
        for _ in range(200):
            per_as = {}
            for asn in rng.sample(range(1, 60), k=rng.randint(0, 8)):
                entries = {}
                for prefix in rng.sample(prefixes, k=rng.randint(1, len(prefixes))):
                    rel = rng.choice(list(Rel))
                    path = tuple(rng.sample(range(1, 60), k=rng.randint(1, 4)))
                    communities = frozenset(rng.sample(tags, k=rng.randint(0, len(tags))))
                    route = Route(prefix, path, communities, rel)
                    entries[prefix] = RibEntry(route, (route,))
                    seen.add((rel, len(communities) > 1, prefix.version))
                per_as[asn] = entries
            rib = given_rib(per_as)
            assert dump_rib(rib) == dump_rib_oracle(rib)
        assert {(rel, multi) for rel, multi, _ in seen} == {(r, m) for r in Rel for m in (False, True)}
        assert {version for *_, version in seen} == {4, 6}
        assert dump_rib(given_rib({})) == dump_rib_oracle(given_rib({})) == ""

    def test_sink_gets_each_as_rows_as_one_text(self):
        # With a sink, dump_rib passes each AS's rows, ASNs ascending, as
        # one text and returns None; an AS holding no route passes nothing.
        # Solved zone RIBs with shared classes, and given_rib copies of them
        # with ASes given no entry.
        ribs = []
        for rng, topo, cfg, origs, reg in _class_corpus(708, 40):
            rib = _solve(topo, origs, zone_policy(topo, cfg, reg))
            if isinstance(rib, Rib):
                ribs += [rib, given_rib({**rib.per_as, min(topo.asns): {}, max(topo.asns) + 1: {}})]
        idle = 0
        for rib in ribs:
            chunks = []
            assert dump_rib(rib, chunks.append) is None
            assert "".join(chunks) == dump_rib(rib)
            heads = []
            for chunk in chunks:
                asns = {line.split("|", 1)[0] for line in chunk.splitlines()}
                assert len(asns) == 1 and chunk.endswith("\n")
                heads.append(int(asns.pop()))
            holders = {asn for asn, entries in rib.per_as.items() if entries}
            assert heads == sorted(holders)
            idle += len(rib.per_as) > len(holders)
        assert len(ribs) >= 60 and idle >= 30

    def test_row_text_once_per_route_object(self):
        # Solved RIBs: one best Route object held by many ASes, and class
        # members whose rows are their representative's, relabelled.
        held = relabelled = 0
        for rng, topo, cfg, origs, reg in _class_corpus(705, 40):
            rib = _solve(topo, origs, zone_policy(topo, cfg, reg))
            if not isinstance(rib, Rib):
                continue
            for prefix, record in rib._records.items():
                holders = Counter(map(id, record.bests.values()))
                held = max(held, *holders.values())
                relabelled += record.rep is not prefix
            assert dump_rib(rib) == dump_rib_oracle(rib)
        assert held >= 3 and relabelled > 0
        # Hand-built: one Route object under two prefixes and at two ASes,
        # an equal but distinct twin, and a route sharing its path tuple
        # but not its communities or relationship.
        a, b = P("10.0.0.0/24"), P("2001:db8::/48")
        one = Route(a, (7, 9), frozenset({VERIFIED, "65000:1"}), Rel.PEER)
        twin = Route(a, (7, 9), frozenset({"65000:1", VERIFIED}), Rel.PEER)
        other = replace(one, communities=frozenset(), learned_rel=Rel.PROVIDER)
        assert twin == one and twin is not one and other.as_path is one.as_path
        rib = given_rib({
            1: {a: RibEntry(one, (one,)), b: RibEntry(one, (one, twin))},
            2: {a: RibEntry(twin, (twin,)), b: RibEntry(other, (other,))},
            3: {b: RibEntry(one, (one,))},
        })
        assert dump_rib(rib) == dump_rib_oracle(rib) == (
            "1|10.0.0.0/24|7 9|65000:1;VERIFIED:1|peer\n"
            "1|2001:db8::/48|7 9|65000:1;VERIFIED:1|peer\n"
            "2|10.0.0.0/24|7 9|65000:1;VERIFIED:1|peer\n"
            "2|2001:db8::/48|7 9||provider\n"
            "3|2001:db8::/48|7 9|65000:1;VERIFIED:1|peer\n"
        )
        # Seeded: a few Route objects spread over prefixes and ASes, some
        # rows holding an equal copy instead.
        rng = random.Random(706)
        prefixes = [P("10.0.0.0/24"), P("10.0.0.0/16"), P("2001:db8::/32")]
        for _ in range(100):
            pool = [
                Route(rng.choice(prefixes), tuple(rng.sample(range(1, 30), k=rng.randint(1, 3))),
                      frozenset(rng.sample(["65000:1", VERIFIED], k=rng.randint(0, 2))),
                      rng.choice(list(Rel)))
                for _ in range(rng.randint(1, 4))
            ]
            per_as = {}
            for asn in rng.sample(range(1, 30), k=rng.randint(1, 6)):
                per_as[asn] = {}
                for prefix in rng.sample(prefixes, k=rng.randint(1, len(prefixes))):
                    route = rng.choice(pool)
                    route = replace(route) if rng.random() < 0.3 else route
                    per_as[asn][prefix] = RibEntry(route, (route,))
            rib = given_rib(per_as)
            assert dump_rib(rib) == dump_rib_oracle(rib)

    def test_parse_matches_oracle(self):
        # Member views cut from solved dumps, parsed in turn with shared
        # memos, as an audit parses them; rows are copied, re-spaced, and
        # some replaced by malformed ones, which must fail on the same line
        # with the same reason.  A malformed row may reuse a parsed tail or
        # prefix text.
        bad = [
            "no pipes", "1|10.0.0.0/24|1|self", "1|10.0.0.0/24|1||self|x",
            "x|10.0.0.0/24|1||self", "1|10.0.0.0/24|1 y||self", "1|10.0.0.0/24|||self",
            "1|10.0.0.0/24| ||self", "1|10.0.0.0/24|1||sibling", "1|10.0.0.0/24|1||Self",
            "1|10.0.0.300/24|1||self", "1|10.0.0.1/24|1||self", "1||1||self", "|10.0.0.0/24|1||self",
            # Several faults in one row: the first one checked is reported.
            "x|10.0.0.300/24|1 y||sibling", "x|10.0.0.300/24|||sibling",
            "x|10.0.0.300/24|1||sibling", "x|10.0.0.300/24|1||self",
        ]
        parsed = failed = 0
        for rng, topo, cfg, origs, reg in _class_corpus(707, 60):
            rib = _solve(topo, origs, zone_policy(topo, cfg, reg))
            if not isinstance(rib, Rib):
                continue
            lines = dump_rib(rib).splitlines()
            views = {}
            for line in lines:
                views.setdefault(line.split("|", 1)[0], []).append(line)
            memos, oracle_prefixes = ({}, {}), {}
            for rows in views.values():
                rows = list(rows)
                for _ in range(rng.randint(0, 3)):
                    rows.insert(rng.randint(0, len(rows)), rng.choice(lines))
                if rng.random() < 0.3:
                    rows.insert(rng.randint(0, len(rows)), rng.choice(["", "# note", "  "]))
                if rng.random() < 0.3:
                    row = rng.choice(lines)
                    head, _, tail = row.partition("|")
                    rows.insert(rng.randint(0, len(rows)), rng.choice([
                        rng.choice(bad), "x|" + tail, head + "|10.0.0.1/24|" + tail.split("|", 1)[1],
                        row.replace(" ", "  "), row + "|",
                    ]))
                text = rng.choice(["\n", "\r\n"]).join(rows) + rng.choice(["", "\n"])
                try:
                    expected = parse_rib_dump_oracle(text, oracle_prefixes)
                except RoutingError as exc:
                    with pytest.raises(RoutingError) as excinfo:
                        parse_rib_dump(text, *memos)
                    assert str(excinfo.value) == str(exc)
                    failed += 1
                    continue
                got = parse_rib_dump(text, *memos)
                assert got == expected
                assert all(route.prefix is memos[0][str(route.prefix)] for _, route in got)
                parsed += 1
        assert parsed >= 200 and failed >= 20

    def test_prefix_texts_parsed_once(self):
        known = {}
        first = parse_rib_dump("1|10.0.0.0/24|1||self\n2|10.0.0.0/24|1||customer", known)
        second = parse_rib_dump("3|10.0.0.0/24|2 1||customer", known)
        assert list(known) == ["10.0.0.0/24"]
        assert all(route.prefix is known["10.0.0.0/24"] for _, route in first + second)


class TestTraceLoop:
    def test_inconsistent_rib_reported_as_loop(self):
        # Hand-built inconsistent state: 1 and 2 each claim they learned
        # the prefix from the other.
        r12 = Route(PFX, (2, 9), learned_rel=Rel.PROVIDER)
        r21 = Route(PFX, (1, 9), learned_rel=Rel.PROVIDER)
        rib = given_rib({1: {PFX: RibEntry(r12, (r12,))}, 2: {PFX: RibEntry(r21, (r21,))}})
        hops, outcome = data_plane_trace(rib, 1, "10.0.0.1")
        assert outcome is TraceOutcome.LOOP
        assert hops == [1, 2, 1]



FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture_case(path):
    """One fixture's topology, zone, originations and simulate RIB; a
    fixture without originations routes every AS's probe prefix."""
    def read(name, load, default):
        return load((path / name).read_text()) if (path / name).exists() else default

    topo = load_topology((path / "topology.txt").read_text())
    cfg = read("zone.txt", load_zone_config, ZoneConfig(frozenset()))
    reg = RegistrySet(
        roas=read("roas.csv", load_roas, ()), aspas=read("aspas.csv", load_aspas, {}),
        irr_prefixes=read("irr.csv", load_irr, {}), kyc=read("kyc.csv", load_kyc, {}),
    )
    origs = read("originations.csv", load_originations,
                 [Origination(a, synthetic_prefix(a)) for a in sorted(topo.asns)])
    scenario = read("scenario.txt", load_scenario, None)
    if scenario is not None:
        return topo, cfg, origs, scenario_rib(topo, reg, cfg, origs, scenario)
    return topo, cfg, origs, propagate(topo, origs, zone_policy(topo, cfg, reg))


def _layout_cases():
    # Seeded zones whose two origins announce nested and IPv6 prefixes, so
    # prefixes share classes and rows; then the fixtures.
    for seed in range(60):
        topo, members = random_zone_instance(seed)
        rng = random.Random(seed)
        origins = rng.sample(sorted(topo.asns), k=2)
        origs = [Origination(rng.choice(origins), p) for p in rng.sample(CLASS_POOL, k=5)]
        cfg = ZoneConfig(members=members, aspa_extension=rng.random() < 0.5)
        reg = random_registry(rng, topo, members, origs)
        rib = _solve(topo, origs, zone_policy(topo, cfg, reg))
        if isinstance(rib, Rib):
            yield topo, cfg, origs, rib
    fixtures = sorted(p for p in FIXTURES.iterdir() if p.is_dir())
    assert len(fixtures) == 10
    for path in fixtures:
        yield _fixture_case(path)


def _scenarios(topo, victim):
    # One scenario of each attack kind against one origination; a leak
    # needs an AS with two providers.
    prefix, origin = victim.prefix, victim.asn
    attacker = max(topo.asns - {origin})
    yield AttackScenario(AttackKind.ORIGIN_HIJACK, attacker, prefix, origin)
    yield AttackScenario(AttackKind.FORGED_ORIGIN_PATH_HIJACK, attacker, prefix, origin, (origin,))
    sub = next(prefix.subnets(prefixlen_diff=1))
    yield AttackScenario(AttackKind.SUB_PREFIX_HIJACK, attacker, sub, origin)
    leakers = [a for a in sorted(topo.asns) if len(topo.providers_of(a)) >= 2]
    if leakers:
        leaker = leakers[0]
        yield AttackScenario(
            AttackKind.ROUTE_LEAK, leaker, prefix, origin, leaked_from=min(topo.providers_of(leaker))
        )


class TestRibLayout:
    """propagate keeps the RIB per prefix, a class member sharing its
    representative's record, and builds per_as only when it is read: best
    reads one stored route, candidates replays one AS.  given_rib maps
    that view back into an equal RIB."""

    def test_view_round_trips_and_readers_leave_it_unbuilt(self):
        ribs = shared = 0
        kinds = set()
        for topo, cfg, origs, rib in _layout_cases():
            # Every reader first, on the RIB as propagate returned it.
            dumped = dump_rib(rib)
            views = views_from_rib(rib, cfg)
            scenarios = [s for o in origs[:3] for s in _scenarios(topo, o)]
            reports = [classify_harm(topo, rib, s) for s in scenarios]
            addresses = {o.prefix.network_address for o in origs}
            traces = [data_plane_trace(rib, a, d) for a in sorted(topo.asns) for d in addresses]
            # Every (ASN, prefix), and an ASN without routes and a prefix
            # the RIB lacks.
            lookups = {
                (asn, prefix): (rib.best(asn, prefix), rib.candidates(asn, prefix))
                for asn in [*sorted(topo.asns), max(topo.asns) + 1]
                for prefix in [*rib._records, P("203.0.113.0/24")]
            }
            assert "per_as" not in vars(rib)
            shared += sum(p is not record.rep for p, record in rib._records.items())

            copy = given_rib(rib.per_as)
            assert copy == rib and set(rib.per_as) == topo.asns
            for (asn, prefix), looked_up in lookups.items():
                entry = rib.per_as.get(asn, {}).get(prefix)
                assert looked_up == ((entry.best, entry.candidates) if entry else (None, ()))
            for asn, entries in rib.per_as.items():
                for prefix, entry in entries.items():
                    assert all(r.prefix == prefix for r in (entry.best, *entry.candidates))
                    assert entry.best is entry.candidates[0]
                    assert copy.per_as[asn][prefix] == entry
            assert dump_rib(copy) == dumped
            assert views_from_rib(copy, cfg) == views
            for scenario, report in zip(scenarios, reports):
                again = classify_harm(topo, copy, scenario)
                assert again == report and dict(again.per_as_best) == dict(report.per_as_best)
                kinds.add(scenario.kind)
            again = [data_plane_trace(copy, a, d) for a in sorted(topo.asns) for d in addresses]
            assert again == traces
            ribs += 1
        assert ribs >= 50
        assert shared >= 50
        assert kinds == set(AttackKind)


def _replay_cases():
    """Converged RIBs with their reference rows (ranked_rows_oracle) and
    their kind: class members, duplicate and forged-path originations and
    opted-in stubs (the class corpus), half of them with an origination
    repeated with another community, which ties with it in rank; every
    non-member opted in at random, transit ones too; merged leak RIBs,
    whose victim prefix replays under the leak hooks."""
    for rng, topo, cfg, origs, reg in _class_corpus(708, 120):
        if rng.random() < 0.5:
            twin = rng.choice(origs)
            origs = origs + [replace(twin, communities=twin.communities | {"65000:1"})]
        hooks = zone_policy(topo, cfg, reg)
        rib = _solve(topo, origs, hooks)
        if isinstance(rib, Rib):
            yield "class", topo, rib, ranked_rows_oracle(topo, origs, hooks)
    for rng, topo, members, origs, reg in _differential_corpus(709, 120):
        honor = frozenset(a for a in sorted(topo.asns - members) if rng.random() < 0.4)
        hooks = zone_policy(topo, ZoneConfig(members=members, honor_verified_non_members=honor), reg)
        rib = _solve(topo, origs, hooks)
        if isinstance(rib, Rib):
            yield "honor" if honor else "zone", topo, rib, ranked_rows_oracle(topo, origs, hooks)
    for rng, topo, cfg, origs, reg in _class_corpus(710, 120):
        leakers = sorted(a for a in topo.asns if len(topo.providers_of(a)) >= 2)
        if not leakers:
            continue
        victim, leaker = origs[0], rng.choice(leakers)
        scenario = AttackScenario(
            AttackKind.ROUTE_LEAK, leaker, victim.prefix, victim.asn,
            leaked_from=rng.choice(sorted(topo.providers_of(leaker))),
        )
        try:
            rib = scenario_rib(topo, reg, cfg, origs, scenario)
        except NonConvergenceError:
            continue
        base = zone_policy(topo, cfg, reg)
        cells = ranked_rows_oracle(
            topo, [o for o in origs if o.prefix == victim.prefix], _leak_hooks(topo, base, scenario)
        )
        cells.update(ranked_rows_oracle(topo, [o for o in origs if o.prefix != victim.prefix], base))
        yield "leak", topo, rib, cells


def _unstable(topo, record):
    # The ASes at which a solved record's bests are not a fixpoint: a
    # holder whose top replayed candidate is not its stored best, or an AS
    # without a best that replays any candidate.
    unstable = []
    for asn in sorted(topo.asns):
        replayed = _replay(record.net, record.rep, record.origs, record.bests, asn)
        best = record.bests.get(asn)
        stable = not replayed if best is None else bool(replayed) and replayed[0] is best
        if not stable:
            unstable.append(asn)
    return unstable


def _counting_net(topo, net, calls):
    # net's hooks and orders, with each hook call counted by its edge into
    # the importer; the export hook is no longer the default, so a replay
    # asks it about every refused edge it walks.
    def import_route(importer, neighbor, rel, route):
        calls["import", importer, neighbor] += 1
        return net.import_route(importer, neighbor, rel, route)

    def export_route(exporter, neighbor, rel, route):
        calls["export", neighbor, exporter] += 1
        return net.export_route(exporter, neighbor, rel, route)

    def preference_for(asn):
        return net.orders[net.index[asn]]

    return _Network(topo, PolicyHooks(import_route, export_route, preference_for))


class TestReplay:
    """A solve keeps each AS's best alone; candidates are replayed from the
    fixpoint.  They equal the ranked tables the solve used to store, and
    the stored bests are a fixpoint of the replay."""

    def test_hook_calls_are_the_edges_into_the_as(self):
        # Replaying AS a imports once over each edge into a from a neighbor
        # holding a best that the export rule (or the export hook) and the
        # loop check pass, and asks the export hook once about each refused
        # edge into a; no other edge is walked.
        replays = imports = refused = 0
        for _, topo, rib, _ in _replay_cases():
            for record in {id(r): r for r in rib._records.values()}.values():
                calls = Counter()
                net = _counting_net(topo, record.net, calls)
                for asn in sorted(topo.asns):
                    expected = Counter()
                    # What asn is to its providers, peers and customers.
                    for rel_back, neighbors in (
                        (Rel.CUSTOMER, topo.providers[asn]), (Rel.PEER, topo.peers[asn]),
                        (Rel.PROVIDER, topo.customers[asn]),
                    ):
                        for neighbor in neighbors:
                            best = record.bests.get(neighbor)
                            if best is None:
                                continue
                            sends = (
                                best.learned_rel in (Rel.CUSTOMER, Rel.SELF)
                                or rel_back is Rel.CUSTOMER
                            )
                            if not sends:
                                expected["export", asn, neighbor] += 1
                                sends = record.net.export_route(neighbor, asn, rel_back, best)
                            if sends and asn not in best.as_path:
                                expected["import", asn, neighbor] += 1
                    calls.clear()
                    _replay(net, record.rep, record.origs, record.bests, asn)
                    assert calls == expected, (asn, record.rep)
                    replays += 1
                    imports += sum(n for (kind, *_), n in expected.items() if kind == "import")
                    refused += sum(n for (kind, *_), n in expected.items() if kind == "export")
        assert replays >= 10000 and imports >= 12000 and refused >= 10000

    def test_matches_ranked_rows_oracle(self):
        kinds = Counter()
        relabelled = forged = tied = 0
        for kind, topo, rib, cells in _replay_cases():
            assert cells is not None
            missing = P("203.0.113.0/24")
            for asn in [*sorted(topo.asns), max(topo.asns) + 1]:
                for prefix in [*rib._records, missing]:
                    expected = cells.get((asn, prefix), ())
                    assert rib.candidates(asn, prefix) == expected
                    assert rib.best(asn, prefix) == (expected[0] if expected else None)
            for entries in rib.per_as.values():
                for entry in entries.values():
                    assert entry.best is entry.candidates[0]
            kinds[kind] += 1
            relabelled += sum(p is not record.rep for p, record in rib._records.items())
            local = [[r for r in ranked if r.learned_rel is Rel.SELF] for ranked in cells.values()]
            forged += any(len(r.as_path) > 1 for routes in local for r in routes)
            tied += any(len({r.as_path for r in routes}) < len(routes) for routes in local)
        assert kinds["class"] >= 100 and kinds["honor"] >= 80 and kinds["leak"] >= 80
        assert relabelled >= 150 and forged >= 80 and tied >= 40

    def test_stored_bests_are_a_fixpoint(self):
        checked = perturbed = 0
        cases = [(topo, rib) for _, topo, rib, _ in _replay_cases()]
        cases += [(topo, rib) for topo, _, _, rib in _layout_cases()]
        for topo, rib in cases:
            records = {id(record): record for record in rib._records.values()}.values()
            for record in records:
                assert _unstable(topo, record) == []
                checked += 1
                # The check is not vacuous: a holder that keeps its second
                # candidate, or drops its best, is caught.
                holder = next((a for a in record.bests if len(record.candidates(a)) > 1), None)
                if holder is not None:
                    second = record.candidates(holder)[1]
                    moved = replace(record, bests={**record.bests, holder: second})
                    assert holder in _unstable(topo, moved)
                    dropped = {a: r for a, r in record.bests.items() if a != holder}
                    assert holder in _unstable(topo, replace(record, bests=dropped))
                    perturbed += 1
        assert checked >= 1200 and perturbed >= 1000
