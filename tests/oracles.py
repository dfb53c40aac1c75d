"""Independent brute-force oracles and random-instance generators.

Apart from the references below, nothing here calls the engine's
propagation internals: routes are rebuilt by enumerating
export-rule-compatible simple paths from every origination and replaying
the policy hooks along each path, then solving for the stable selection
by iterating neighbor-consistency over that path universe.  (A plain max
over all valley-free paths is NOT the right oracle: an AS only ever
exports its selected best, so a path can be economically valid yet
unavailable because some hop on it preferred a different route.  The
consistency iteration restores exactly that export-the-best constraint
without reusing any engine code.)

Five references are earlier versions of the package's own code, kept so
that their replacements can be compared with them: ranked_rows_oracle (a
solve that stored every AS's ranked candidate table), full_rerank_prefix
(a solve's rounds as they re-ranked every touched AS's whole table, over
the engine's own export step), parse_rib_dump_oracle (the dump parser
before row tails were memoized), audit_views_oracle (the audit before its
per-path and per-(prefix, origin) memos, which logged one coverage warning
per route) and attached_customers_oracle (one provider-set intersection
per AS).
"""

from __future__ import annotations

import logging
import random
from collections import defaultdict
from dataclasses import replace

from zonesim._lines import decode, read_lines
from zonesim.registry import parse_prefix
from zonesim.routing import (
    Origination,
    PolicyHooks,
    PreferenceOrder,
    Rib,
    Route,
    RoutingError,
    TraceOutcome,
    _Network,
    _export_round,
    _normalize_originations,
    _prefix_sort_key,
    _propagate_prefix,
    data_plane_trace,
    gao_rexford_hooks,
)
from zonesim.topology import (
    Rel,
    Relationship,
    Topology,
    TopologyError,
    _check_c2p_acyclic,
    _parse_record,
)

REVERSE = {Rel.CUSTOMER: Rel.PROVIDER, Rel.PROVIDER: Rel.CUSTOMER, Rel.PEER: Rel.PEER}

# 1 and 2 peer and both provide transit to 10.
DISAGREE = "1|10|-1\n2|10|-1\n1|2|0"


class PeerFirst(PreferenceOrder):
    # Ranks peer routes above customer routes: with DISAGREE, the pair
    # 1, 2 never settles.
    def key(self, route):
        return (
            route.learned_rel is Rel.SELF,
            route.learned_rel is Rel.PEER,
            -len(route.as_path),
            -(route.learned_from or 0),
        )


def serialize_topology(topo: Topology) -> str:
    """Render the edge set back to serial-1 text; inverse of load_topology."""
    return "\n".join("|".join(str(f) for f in rec) for rec in topo.records()) + "\n"


def random_topology(rng: random.Random, n: int, extra_peer_edges: int = 0) -> Topology:
    """Random acyclic transit hierarchy with optional extra peering.

    ASNs are 1..n shuffled into a strict rank order; every non-top AS buys
    transit from at least one higher-ranked AS, so the provider graph is
    acyclic and fully reachable upward.
    """
    asns = list(range(1, n + 1))
    rng.shuffle(asns)
    records = []
    connected_pairs = set()
    for i, asn in enumerate(asns[1:], start=1):
        n_providers = 1 + (rng.random() < 0.3)
        providers = rng.sample(asns[:i], k=min(n_providers, i))
        for p in providers:
            records.append((p, asn, -1))
            connected_pairs.add(frozenset((p, asn)))
    for _ in range(extra_peer_edges):
        a, b = rng.sample(asns, k=2)
        pair = frozenset((a, b))
        if pair in connected_pairs:
            continue
        connected_pairs.add(pair)
        records.append((a, b, 0))
    return Topology.from_records(records)


PREFIX_POOL = [parse_prefix(p) for p in ("10.0.0.0/24", "10.1.0.0/24", "10.2.0.0/23")]


def random_originations(rng: random.Random, topo: Topology, max_prefixes: int = 3):
    asns = sorted(topo.asns)
    count = rng.randint(1, max_prefixes)
    return [
        Origination(rng.choice(asns), prefix)
        for prefix in rng.sample(PREFIX_POOL, k=count)
    ]


def random_connected_members(rng: random.Random, topo: Topology) -> frozenset[int]:
    """A random membership set satisfying zone connectivity, possibly empty."""
    from zonesim.analysis import derive_connected_zone

    asns = sorted(topo.asns)
    roster = {a for a in asns if rng.random() < 0.4}
    roster |= {a for a in asns if not topo.providers_of(a) and rng.random() < 0.8}
    return derive_connected_zone(topo, roster).connected_members


def attached_customers_oracle(topo: Topology, members) -> frozenset[int]:
    """Non-members with a transit provider among `members`, one AS at a time."""
    member_set = frozenset(members)
    return frozenset(
        a
        for a in topo.asns
        if a not in member_set and topo.providers[a] & member_set
    )


def protected_count(topo: Topology, members) -> int:
    """The members plus their attached customers (attached_customers_oracle)."""
    member_set = frozenset(members)
    return len(member_set) + len(attached_customers_oracle(topo, member_set))


def random_zone_instance(seed: int) -> tuple[Topology, frozenset[int]]:
    """One seeded topology of 8-40 ASes and a connected zone on it.

    Seeds 33 (member 2) and 24 (member 17) give zones on which
    routing_exceptions' mixed-preference solve does not converge.
    """
    rng = random.Random(seed)
    topo = random_topology(rng, rng.randint(8, 40), rng.randint(0, 40))
    return topo, random_connected_members(rng, topo)


def random_registry(rng: random.Random, topo: Topology, members, origs):
    """Registries exercising every verification source, honest and not.

    ROAs mostly match originations but are sometimes missing or bound to a
    different origin; provider-authorization records mix true and bogus
    provider claims; KYC entries sometimes block their own neighbor, which
    legitimately drops routes at that session.
    """
    from zonesim.registry import KycEntry, RegistrySet, Roa

    asns = sorted(topo.asns)
    roas = []
    for orig in origs:
        roll = rng.random()
        if roll < 0.5:
            roas.append(Roa(orig.prefix, orig.asn))
        elif roll < 0.65:
            roas.append(Roa(orig.prefix, rng.choice(asns)))

    aspas = {}
    for asn in asns:
        if rng.random() < 0.25:
            claimed = set()
            if topo.providers_of(asn) and rng.random() < 0.7:
                claimed |= set(
                    rng.sample(
                        sorted(topo.providers_of(asn)),
                        k=rng.randint(1, len(topo.providers_of(asn))),
                    )
                )
            if rng.random() < 0.3:
                claimed.add(rng.choice([a for a in asns if a != asn]))
            if claimed:
                aspas[asn] = frozenset(claimed)

    irr = {}
    for orig in origs:
        if rng.random() < 0.3:
            irr[orig.asn] = irr.get(orig.asn, frozenset()) | {orig.prefix}

    kyc = {}
    for member in sorted(members):
        for neighbor in sorted(topo.neighbors_of(member)):
            if rng.random() >= 0.2:
                continue
            if rng.random() < 0.15:
                allowed_asns = frozenset({rng.choice(asns)})  # may block
            elif rng.random() < 0.5:
                allowed_asns = frozenset({neighbor})
            else:
                allowed_asns = frozenset()
            allowed_prefixes = frozenset(
                o.prefix for o in origs if rng.random() < 0.3
            )
            kyc[(member, neighbor)] = KycEntry(allowed_asns, allowed_prefixes)

    return RegistrySet(roas=roas, aspas=aspas, irr_prefixes=irr, kyc=kyc)


def oracle_load_topology(source: str | bytes) -> Topology:
    """The per-line topology loader: every data line parsed and checked on
    its own, then each added to the adjacency sets in a second pass over
    the lines, with a pair set that catches the first duplicate (or
    2-cycle) on its line as it is added.
    """
    if isinstance(source, bytes):
        source = decode(source, TopologyError)
    read_lines(source, _parse_record, TopologyError)
    providers: dict[int, set[int]] = defaultdict(set)
    customers: dict[int, set[int]] = defaultdict(set)
    peers: dict[int, set[int]] = defaultdict(set)
    pairs: set[tuple[int, int]] = set()

    def add(line):
        a, b, code = _parse_record(line)
        pair = (a, b) if a < b else (b, a)
        if pair in pairs:
            if code == Relationship.P2C and a in customers.get(b, ()):
                raise TopologyError(f"provider-customer cycle through AS{a} and AS{b}")
            raise TopologyError(f"duplicate edge between AS{a} and AS{b}")
        pairs.add(pair)
        if code:
            customers[a].add(b)
            providers[b].add(a)
        else:
            peers[a].add(b)
            peers[b].add(a)
        return a, b, code

    records = read_lines(source, add, TopologyError)
    asns = dict.fromkeys(asn for a, b, _ in records for asn in (a, b))
    _check_c2p_acyclic(asns, customers)

    def freeze(adjacency):
        return {a: frozenset(adjacency.get(a, ())) for a in asns}

    return Topology(freeze(providers), freeze(customers), freeze(peers))


def dfs_customer_cone(topo: Topology, asn: int) -> frozenset[int]:
    """Recursive definition of the cone, written independently."""

    def walk(node, seen):
        for cust in topo.customers_of(node):
            if cust not in seen:
                seen.add(cust)
                walk(cust, seen)
        return seen

    return frozenset(walk(asn, set()))


def dfs_cone_order(topo: Topology) -> list[int]:
    """All ASNs by descending cone size (one DFS per AS), ties by lower ASN."""
    return sorted(topo.asns, key=lambda a: (-len(dfs_customer_cone(topo, a)), a))


def greedy_curve_oracle(topo: Topology, sizes) -> list[tuple[int, int]]:
    """Greedy protected-AS curve by full rescans: every step re-scores every
    remaining AS by (marginal protected gain, cone size, -ASN) and admits the
    maximum.  Sizes beyond the AS count are clamped."""
    cone = {a: len(dfs_customer_cone(topo, a)) for a in topo.asns}
    zone: set[int] = set()
    protected: set[int] = set()
    remaining = set(topo.asns)

    def gain_key(cand: int):
        gain = len(({cand} | set(topo.customers_of(cand))) - protected)
        return (gain, cone[cand], -cand)

    curve = []
    for size in (min(s, len(topo.asns)) for s in sizes):
        while len(zone) < size:
            chosen = max(remaining, key=gain_key)
            zone.add(chosen)
            remaining.discard(chosen)
            protected |= {chosen} | set(topo.customers_of(chosen))
        curve.append((size, len(protected)))
    return curve


def enumerate_route_universe(topo: Topology, originations, hooks: PolicyHooks):
    """All routes any AS could ever hold, with their upstream parent route.

    Depth-first expansion from each origination over steps the export rule
    (plus hooks) permits, replaying import hooks at every hop.  Returns
    {(asn, prefix): {route: parent}} where parent is (neighbor, its route)
    or None for a local origination.
    """
    universe: dict[tuple[int, object], dict[Route, tuple | None]] = {}
    stack = []
    for orig in originations:
        orig = orig if isinstance(orig, Origination) else Origination(*orig)
        route = orig.route()
        slot = universe.setdefault((orig.asn, orig.prefix), {})
        if route not in slot:
            slot[route] = None
            stack.append((orig.asn, route))

    while stack:
        holder, route = stack.pop()
        for neighbor in sorted(topo.neighbors_of(holder)):
            rel_back = topo.rel_from(neighbor, holder)  # holder, seen from neighbor
            rel_fwd = REVERSE[rel_back]  # neighbor, seen from holder... inverse edge
            rule_allows = (
                route.learned_rel in (Rel.CUSTOMER, Rel.SELF)
                or rel_fwd is Rel.CUSTOMER
            )
            if not (rule_allows or hooks.export_route(holder, neighbor, rel_fwd, route)):
                continue
            path = route.as_path
            if path[0] != holder:
                path = (holder,) + path
            if neighbor in path:
                continue
            incoming = Route(route.prefix, path, route.communities, rel_back)
            admitted = hooks.import_route(neighbor, holder, rel_back, incoming)
            if admitted is None:
                continue
            slot = universe.setdefault((neighbor, route.prefix), {})
            if admitted not in slot:
                slot[admitted] = (holder, route)
                stack.append((neighbor, admitted))
    return universe


def oracle_fixpoint(topo: Topology, originations, hooks: PolicyHooks | None = None):
    """Stable route selection recomputed from the enumerated path universe.

    Iterates: a route is available at an AS when its parent route is the
    current selection at the parent AS (originations are always
    available); each AS then selects per its preference order.  Returns
    {(asn, prefix): (best, frozenset of available candidates)} or None if
    the iteration failed to stabilize.
    """
    hooks = hooks or gao_rexford_hooks()
    origs = [o if isinstance(o, Origination) else Origination(*o) for o in originations]
    universe = enumerate_route_universe(topo, origs, hooks)
    prefixes = sorted({o.prefix for o in origs}, key=str)
    cells = sorted(universe, key=lambda c: (c[0], str(c[1])))
    orders = {asn: hooks.preference_for(asn) for asn in sorted(topo.asns)}

    best: dict[tuple, Route] = {}
    cap = 2 * len(topo.asns) + 10
    for _ in range(cap + 1):
        snapshot = dict(best)
        new_best = {}
        avail_map = {}
        for cell in cells:
            asn, prefix = cell
            available = []
            for route, parent in universe[cell].items():
                if parent is None:
                    available.append(route)
                else:
                    parent_as, parent_route = parent
                    if snapshot.get((parent_as, prefix)) == parent_route:
                        available.append(route)
            if available:
                new_best[cell] = orders[asn].best(available)
                avail_map[cell] = frozenset(available)
        if new_best == best:
            return {cell: (new_best[cell], avail_map[cell]) for cell in new_best}
        best = new_best
    return None


def classify_harm_oracle(topo: Topology, rib, scenario):
    """attacks.classify_harm by brute force: one data_plane_trace per AS,
    each hop scanning that AS's whole RIB."""
    from zonesim.attacks import AttackKind, HarmReport, _injection, _is_attacker_route

    victim_addr = scenario.victim_prefix.network_address
    attacker = scenario.attacker
    leak = scenario.kind is AttackKind.ROUTE_LEAK
    providers = topo.providers_of(attacker)

    misdirected = set()
    for asn in sorted(topo.asns):
        if asn == attacker:
            continue
        hops, outcome = data_plane_trace(rib, asn, victim_addr)
        if outcome is not TraceOutcome.DELIVERED:
            continue
        if leak:
            if any(
                hops[i + 1] == attacker and hops[i] in providers
                for i in range(len(hops) - 1)
            ):
                misdirected.add(asn)
        elif hops[-1] == attacker:
            misdirected.add(asn)

    injected = _injection(scenario).route().as_path
    per_as_best = {}
    owner_harm = False
    for asn in sorted(topo.asns):
        best = rib.best(asn, scenario.victim_prefix)
        if best is None:
            continue
        per_as_best[asn] = best
        if asn != attacker and _is_attacker_route(
            best, scenario, asn, topo, injected
        ):
            owner_harm = True
    return HarmReport(scenario, owner_harm, frozenset(misdirected), per_as_best)


class _GivenRecord:
    """A prefix of given_rib: the candidates given, best first."""

    def __init__(self, prefix, rows):
        self.rep, self._given = prefix, rows
        self.bests = {asn: ranked[0] for asn, ranked in rows.items()}

    def candidates(self, asn):
        return self._given.get(asn, ())


def given_rib(per_as):
    """A Rib holding per_as, {ASN: {prefix: RibEntry}}, as given: a test
    double for states no solve reaches (forwarding loops, mixed snapshots,
    any Rel at any AS) and for a solved RIB's per_as view copied back.
    Its per_as equals the mapping, in which each entry's best must be its
    first candidate."""
    rows = {}
    for asn, entries in per_as.items():
        for prefix, entry in entries.items():
            assert entry.candidates[:1] == (entry.best,), (asn, prefix)
            rows.setdefault(prefix, {})[asn] = entry.candidates
    rib = object.__new__(Rib)
    rib._asns = list(per_as)
    rib._records = {p: _GivenRecord(p, rows[p]) for p in sorted(rows, key=_prefix_sort_key)}
    return rib


def rib_as_cells(rib):
    """Engine Rib flattened to the oracle's comparison shape."""
    cells = {}
    for asn, entries in rib.per_as.items():
        for prefix, entry in entries.items():
            cells[(asn, prefix)] = (entry.best, frozenset(entry.candidates))
    return cells


def valley_free_paths_avoiding(
    topo: Topology, source: int, target: int, blocked: frozenset[int]
) -> bool:
    """Whether an announcement from `source` can reach `target` along an
    export-rule-compatible simple path that never enters a blocked AS.

    Independent check used by the local-region tests: walks the
    up*-peer?-down* grammar explicitly with a phase automaton.
    """
    # phase 0: still climbing c2p; phase 1: peer taken or descending.
    stack = [(source, 0, frozenset({source}))]
    while stack:
        node, phase, seen = stack.pop()
        if node == target:
            return True
        for nxt in sorted(topo.neighbors_of(node)):
            if nxt in seen or (nxt in blocked and nxt != target):
                continue
            rel = topo.rel_from(node, nxt)  # what nxt is to node
            if rel is Rel.PROVIDER and phase == 0:
                stack.append((nxt, 0, seen | {nxt}))
            elif rel is Rel.PEER and phase == 0:
                stack.append((nxt, 1, seen | {nxt}))
            elif rel is Rel.CUSTOMER:
                stack.append((nxt, 1, seen | {nxt}))
    return False


def brute_force_local_region(topo: Topology, members: frozenset[int], customer: int):
    """Local region by the formal path criterion, one source at a time."""
    region = set()
    for source in topo.asns:
        if source == customer or source in members:
            continue
        if valley_free_paths_avoiding(topo, source, customer, members):
            region.add(source)
    return frozenset(region)


def r3_witness_scan(members: frozenset[int], views):
    """R3-TagStripped by the direct scan: every untagged route a view holds
    from a member is checked against each route in that member's view.
    Returns (culprit, witness, prefix, path) tuples."""
    from zonesim.routing import VERIFIED

    by_member = {v.member: v for v in views}
    found = set()
    for view in views:
        for route in view.routes:
            neighbor = route.as_path[0]
            witness = by_member.get(neighbor)
            if (
                route.learned_rel is Rel.SELF
                or neighbor not in members
                or VERIFIED in route.communities
                or witness is None
            ):
                continue
            for upstream in witness.routes:
                if (
                    upstream.prefix == route.prefix
                    and upstream.as_path == route.as_path[1:]
                    and VERIFIED in upstream.communities
                ):
                    found.add((view.member, neighbor, route.prefix, route.as_path))
    return found


def member_import_oracle(cfg, reg, member, neighbor, neighbor_rel, route):
    """vipzone.member_import as it was before its outcomes became shared
    constants and its re-tags slot writes: a new VerificationOutcome per
    call, every re-tag through dataclasses.replace, R3's fallback as a
    one-ASN set and the path's set built on every branch."""
    from dataclasses import replace

    from zonesim.registry import (
        AspaState,
        OriginVerdict,
        RovState,
        aspa_pair_valid,
        rov_validate,
        verify_customer_origin,
    )
    from zonesim.routing import VERIFIED
    from zonesim.vipzone import Outcome, VerificationOutcome

    in_zone = neighbor in cfg.members

    # R1: no tag survives entry from outside the zone.
    if not in_zone and VERIFIED in route.communities:
        route = replace(route, communities=route.communities - {VERIFIED})

    # R2: RPKI-invalid origins are dropped no matter the source.
    if rov_validate(reg, route.prefix, route.origin) is RovState.INVALID:
        return VerificationOutcome(Outcome.DROP, "R2"), None

    # R3: the ASN the neighbor used must be one the member knows is theirs.
    entry = reg.kyc.get((member, neighbor))
    allowed = entry.allowed_asns if entry and entry.allowed_asns else frozenset({neighbor})
    if route.as_path[0] not in allowed:
        return VerificationOutcome(Outcome.DROP, "R3"), None

    # R4: trust tags relayed by other members.
    if in_zone and VERIFIED in route.communities:
        return VerificationOutcome(Outcome.FORWARD_VERIFIED, "R4"), route

    uniq = len(set(route.as_path))
    if neighbor_rel in (Rel.CUSTOMER, Rel.PEER):
        # R5: verify single-hop originations from directly attached
        # sessions.  Members announcing their own prefixes over a direct
        # session are verified the same way.  R2 and R3 have already
        # dropped every origin the verdict would reject.
        if uniq == 1:
            verdict = verify_customer_origin(
                reg, member, neighbor, route.prefix, route.origin
            )
            if verdict is OriginVerdict.VERIFIED:
                tagged = replace(route, communities=route.communities | {VERIFIED})
                return VerificationOutcome(Outcome.FORWARD_VERIFIED, "R5"), tagged
        # ASPA-EXT: a two-hop path may be verified when the origin has
        # registered the adjacent AS as a provider; never longer paths.
        elif (
            cfg.aspa_extension
            and not in_zone
            and uniq == 2
            and len(route.as_path) == 2
            and not (set(route.as_path) & cfg.members)
            and aspa_pair_valid(reg, route.origin, route.as_path[0])
            is AspaState.CONFIRMED
        ):
            tagged = replace(route, communities=route.communities | {VERIFIED})
            return VerificationOutcome(Outcome.FORWARD_VERIFIED, "ASPA-EXT"), tagged

    # R6: not established as valid; forward without the tag.
    return VerificationOutcome(Outcome.FORWARD_UNVERIFIED, "R6"), route


def dump_rib_oracle(rib) -> str:
    """dump_rib as it was before community texts were memoized and the
    relationship joined as a str: one f-string per row, prefixes sorted
    by (version, network address, length) within each AS."""
    formatted = {}
    lines = []
    for asn in sorted(rib.per_as):
        rows = []
        for prefix, entry in rib.per_as[asn].items():
            shown = formatted.get(id(prefix))
            if shown is None:
                shown = formatted[id(prefix)] = (
                    (prefix.version, int(prefix.network_address), prefix.prefixlen),
                    str(prefix),
                )
            rows.append((shown, entry.best))
        rows.sort(key=lambda row: row[0])
        head = f"{asn}|"
        for (_, text), route in rows:
            lines.append(
                f"{head}{text}|{' '.join(map(str, route.as_path))}"
                f"|{';'.join(sorted(route.communities))}|{route.learned_rel.value}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def exceptions_by_two_solves(topo: Topology, cfg, member: int):
    """routing_exceptions as two full solves through the public propagate:
    every probe prefix under the zone policy, then again with only
    `member` ranking by plain economic preference, and the member's best
    routes diffed.  A NonConvergenceError of either solve propagates."""
    from dataclasses import replace

    from zonesim.analysis import RoutingExceptions, synthetic_prefix
    from zonesim.registry import RegistrySet, Roa
    from zonesim.routing import PreferenceOrder, propagate
    from zonesim.vipzone import zone_policy

    asns = sorted(topo.asns)
    originations = [Origination(a, synthetic_prefix(a)) for a in asns]
    reg = RegistrySet(roas=[Roa(synthetic_prefix(a), a) for a in asns])
    hooks = zone_policy(topo, cfg, reg)
    plain = PreferenceOrder(verified_first=False)
    verified_rib = propagate(topo, originations, hooks)
    mixed_rib = propagate(topo, originations, replace(
        hooks, preference_for=lambda asn: plain if asn == member else hooks.preference_for(asn)
    ))
    exceptions = []
    for dest in asns:
        with_v = verified_rib.best(member, synthetic_prefix(dest))
        without_v = mixed_rib.best(member, synthetic_prefix(dest))
        if (
            with_v is not None and without_v is not None
            and with_v.learned_rel is Rel.PROVIDER
            and without_v.learned_rel in (Rel.CUSTOMER, Rel.PEER)
        ):
            exceptions.append(dest)
    return RoutingExceptions(member, len(exceptions), tuple(exceptions))


def ranked_rows_oracle(topo: Topology, originations, hooks: PolicyHooks):
    """Every holder's candidates, best first, as propagate stored them
    before it kept only bests: each prefix solved on its own by
    routing._propagate_prefix, then each AS's learned table sorted by
    preference key.  Returns {(asn, prefix): ranked tuple} over the
    holders, or None if a prefix does not converge."""
    net = _Network(topo, hooks)
    by_prefix: dict = {}
    for orig in _normalize_originations(topo, originations):
        by_prefix.setdefault(orig.prefix, []).append(orig)
    cells = {}
    for prefix, origs in by_prefix.items():
        best, learned, _, stuck = _propagate_prefix(net, prefix, origs)
        if stuck:
            return None
        for asn, selected in best.items():
            if selected is not None:
                ranked = sorted(learned[asn].values(), key=lambda pair: pair[0], reverse=True)
                cells[(asn, prefix)] = tuple(route for _, route in ranked)
    return cells


def full_rerank_prefix(net: _Network, prefix, origs):
    """One prefix solved as routing._propagate_prefix solved it before
    rounds read the arrivals' hints: each round re-ranks the whole table of
    every AS the export step touched (the keys of its result), in the order
    they were touched.  Returns (best, stuck) as _propagate_prefix does."""
    learned = {asn: {} for asn in net.asns}
    for asn, route in dict.fromkeys((o.asn, o.route()) for o in origs):
        slots = learned[asn]
        slots[-1 - len(slots)] = (net.orders[asn].key(route), route)
    best = net.unset.copy()
    touched = dict.fromkeys(o.asn for o in origs)
    rounds = 0
    while touched:
        changed = {}
        for asn in touched:
            new_best = max(learned[asn].values(), key=lambda pair: pair[0], default=None)
            old_best = best[asn]
            if new_best is not old_best and new_best != old_best:
                changed[asn] = old_best
                best[asn] = new_best
        rounds += 1
        if changed and rounds == 2 * len(net.asns) + 10:
            return best, tuple(sorted(changed))
        touched = _export_round(net, prefix, changed, best, learned).keys()
    return best, ()


def parse_rib_dump_oracle(text: str, prefixes: dict | None = None) -> list[tuple[int, Route]]:
    """routing.parse_rib_dump before row tails were memoized: every row's
    path, communities and relationship parsed anew, prefix texts once."""
    known = {} if prefixes is None else prefixes

    def parse_row(line: str) -> tuple[int, Route]:
        parts = line.split("|")
        if len(parts) != 5:
            raise RoutingError(f"malformed RIB row {line!r}")
        path = tuple(map(int, parts[2].split()))
        if not path:
            raise RoutingError("empty AS path")
        rel = Rel(parts[4])
        communities = frozenset(c for c in parts[3].split(";") if c)
        prefix = known.get(parts[1])
        if prefix is None:
            prefix = known[parts[1]] = parse_prefix(parts[1])
        return int(parts[0]), Route(prefix, path, communities, rel)

    return read_lines(text, parse_row, RoutingError)


def _entry_member_oracle(path, members, owner):
    # audit._entry_member before it left the member-less case to its caller.
    for i in range(len(path) - 1, -1, -1):
        if path[i] in members:
            tail = path[i + 1 :]
            return path[i], tuple(dict.fromkeys(tail))
    return owner, tuple(dict.fromkeys(path))


def _tagged_by_path_oracle(view):
    from zonesim.routing import VERIFIED

    index = {}
    for route in view.routes:
        if VERIFIED in route.communities:
            index.setdefault(route.as_path, []).append(route.prefix)
    return index


def audit_views_oracle(cfg, topo, reg, views, waivers=()):
    """audit.audit_views before its memos: the entry member, R1 and R2
    worked out on every route (rov_validate asked once per route), and one
    coverage warning logged per route whose R3 check lacks the witness's
    view."""
    from zonesim.audit import AuditFinding, AuditRule, check_owner
    from zonesim.registry import AspaState, RovState, aspa_pair_valid, rov_validate
    from zonesim.routing import VERIFIED, _prefix_sort_key

    log = logging.getLogger(__name__)
    if not views:
        return []
    members = cfg.members
    for view in views:
        check_owner(cfg, view)

    by_member = {v.member: v for v in views}
    tagged = {}
    found = {}

    def record(rule, culprit, observed_at, route, canonical):
        key = (rule, culprit, _prefix_sort_key(route.prefix), canonical)
        existing = found.get(key)
        if existing is None or observed_at < existing.observed_at:
            found[key] = AuditFinding(rule, culprit, observed_at, route)

    for view in views:
        for route in view.routes:
            entry, pre = _entry_member_oracle(route.as_path, members, view.member)

            if VERIFIED in route.communities:
                limit = 1
                if cfg.aspa_extension and len(pre) == 2:
                    if aspa_pair_valid(reg, pre[-1], pre[0]) is AspaState.CONFIRMED:
                        limit = 2
                if len(pre) > limit:
                    record(AuditRule.R1_FALSE_VERIFIED, entry, view.member, route, pre)

            if rov_validate(reg, route.prefix, route.origin) is RovState.INVALID:
                record(AuditRule.R2_INVALID_ORIGIN, entry, view.member, route, pre)

            neighbor = route.as_path[0]
            if (
                route.learned_rel is not Rel.SELF
                and neighbor in members
                and VERIFIED not in route.communities
            ):
                witness = by_member.get(neighbor)
                if witness is None:
                    log.warning(
                        "no view from AS%d; cannot audit tag forwarding at AS%d",
                        neighbor,
                        view.member,
                    )
                    continue
                index = tagged.get(neighbor)
                if index is None:
                    index = tagged[neighbor] = _tagged_by_path_oracle(witness)
                if route.prefix in index.get(route.as_path[1:], ()):
                    record(AuditRule.R3_TAG_STRIPPED, view.member, neighbor, route, route.as_path)

    waiver_keys = {(w.member, w.prefix): w for w in waivers}
    findings = []
    for finding in found.values():
        waiver = waiver_keys.get((finding.culprit, finding.evidence.prefix))
        if waiver is not None:
            finding = replace(finding, waived=True, note=waiver.note)
        findings.append(finding)
    findings.sort(
        key=lambda f: (
            f.rule.value,
            f.culprit,
            _prefix_sort_key(f.evidence.prefix),
            f.evidence.as_path,
        )
    )
    return findings
