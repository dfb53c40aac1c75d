"""Topology-level analyses: zone derivation, protection counts, local regions.

"Protected" counts an AS that is either a zone member or a non-member with
at least one member transit provider; peering-only attachment does not
count.  A customer's local region is every AS that could deliver an
announcement to it without the announcement crossing a zone member --
its residual attack surface.

Zone derivation is a single pass over the graph, cone sizes are read
from the graph (``Topology.cone_sizes``: one bottom-up pass of set unions,
kept with the graph and in the CLI's graph cache), and the greedy growth
curve is a lazy heap: nothing rescans every AS at every step.
"""

from __future__ import annotations

import enum
import heapq
import ipaddress
from dataclasses import dataclass
from typing import Iterable, Sequence

from ._lines import read_lines, table
from .registry import Prefix, RegistrySet, Roa
from .routing import (
    _PLAIN_ORDER, NonConvergenceError, Origination, _Network, _propagate_prefix,
)
from .topology import Rel, Topology, _cone_avoiding, _gc_paused, customer_cone
from .vipzone import ZoneConfig, zone_policy


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class ZoneDerivation:
    """Connected-membership fixpoint of a roster, plus its attached customers."""

    input_roster: frozenset[int]
    connected_members: frozenset[int]
    attached_customers: frozenset[int]


def load_roster(source: str) -> list[int]:
    """Parse a roster file: one ASN per line."""
    return read_lines(source, int, AnalysisError)


def derive_connected_zone(topo: Topology, roster: Iterable[int]) -> ZoneDerivation:
    """Reduce a membership roster to its connected core.

    A roster member is connected when a chain of roster members links it
    down from a provider-free roster member: one walk down customer edges
    from those seeds, never leaving the roster.  Attached customers are all
    non-members with at least one provider in the connected core.
    """
    roster_set = frozenset(roster)
    for asn in roster_set:
        topo._require(asn)
    connected = {a for a in roster_set if not topo.providers[a]}
    stack = list(connected)
    while stack:
        for cust in topo.customers[stack.pop()]:
            if cust in roster_set and cust not in connected:
                connected.add(cust)
                stack.append(cust)
    attached = attached_customers(topo, connected)
    return ZoneDerivation(roster_set, frozenset(connected), attached)


def attached_customers(topo: Topology, members: Iterable[int]) -> frozenset[int]:
    """Non-members having at least one transit provider in the member set.

    The members' customers, less the members; a member outside the graph
    has no customers.
    """
    member_set = frozenset(members)
    customers = topo.customers
    return frozenset().union(*(customers.get(m, ()) for m in member_set)) - member_set


class GrowthOrder(enum.Enum):
    BY_CONE_SIZE = "by_cone_size"
    GREEDY_PROTECTED_GAIN = "greedy_protected_gain"


def cone_size_order(topo: Topology) -> list[int]:
    """All ASNs by descending customer-cone size, ties broken by lower ASN."""
    return sorted(sorted(topo.asns), key=topo.cone_sizes.__getitem__, reverse=True)


def zone_growth_curve(
    topo: Topology, order: GrowthOrder, steps: Sequence[int]
) -> list[tuple[int, int]]:
    """Protected-AS counts for hypothetical zones of the given sizes.

    BY_CONE_SIZE admits ASes in descending cone-size order.
    GREEDY_PROTECTED_GAIN admits, at each step, the AS with the largest
    marginal protected count (ties: larger cone, then lower ASN).  Any
    other order is an error.  Sizes must be non-negative and ascending;
    sizes beyond the AS count are clamped.

    Both orders grow one protected set, members plus their customers:
    the zone so far and its attached customers.  The greedy order is lazy
    (CELF): a gain only shrinks as the zone grows, so heap entries keyed
    (-gain, -cone size, ASN) hold upper bounds, and the top entry whose
    re-scored gain is unchanged is the exact maximum.
    """
    if not isinstance(order, GrowthOrder):
        raise AnalysisError(f"unknown growth order {order!r}")
    steps = list(steps)
    if steps != sorted(steps):
        raise AnalysisError("zone sizes must be ascending")
    if steps and steps[0] < 0:
        raise AnalysisError("zone sizes must be non-negative")
    n = len(topo.asns)
    targets = [min(s, n) for s in steps]
    customers = topo.customers
    protected: set[int] = set()
    curve = []
    if order is GrowthOrder.BY_CONE_SIZE:
        ranked = cone_size_order(topo)
        admitted = 0
        for size in targets:
            for asn in ranked[admitted:size]:
                protected.add(asn)
                protected |= customers[asn]
            admitted = size
            curve.append((size, len(protected)))
        return curve

    sizes = topo.cone_sizes
    heap = [(-1 - len(customers[a]), -sizes[a], a) for a in topo.asns]
    heapq.heapify(heap)
    admitted = 0
    for size in targets:
        while admitted < size:
            bound, neg_cone, asn = heap[0]
            gain = (asn not in protected) + len(customers[asn] - protected)
            if gain == -bound:
                heapq.heappop(heap)
                protected.add(asn)
                protected |= customers[asn]
                admitted += 1
            else:
                heapq.heapreplace(heap, (-gain, neg_cone, asn))
        curve.append((size, len(protected)))
    return curve


@dataclass(frozen=True)
class LocalRegion:
    """ASes able to reach `customer` with an announcement that never
    crosses a zone member."""

    customer: int
    region: frozenset[int]


def local_region(
    topo: Topology,
    cfg: ZoneConfig,
    customer: int,
) -> LocalRegion:
    """Member-avoiding reverse reachability over valid export paths.

    Walks upward through every non-member provider chain above the
    customer; at each rung collects the member-avoiding customer cone and
    each non-member peer with its cone.
    """
    topo._require(customer)
    if customer in cfg.members:
        raise AnalysisError(f"AS{customer} is a zone member")
    return LocalRegion(customer, frozenset(_region(topo, cfg.members, customer, {})))


def _region(
    topo: Topology,
    members: frozenset[int],
    customer: int,
    cones: dict[int, frozenset[int]],
) -> set[int]:
    """local_region's walk; returns the new set it builds, which callers
    may keep or freeze.  cones memoizes member-avoiding customer cones by
    root, so the callers for one zone share them; a cone is walked
    (_cone_avoiding) only on a miss."""
    customers, peers, providers = topo.customers, topo.peers, topo.providers
    # Members never enter the region: every step skips them.
    region: set[int] = set()
    rungs: set[int] = set()
    stack = [customer]
    while stack:
        node = stack.pop()
        if node in rungs:
            continue
        rungs.add(node)
        cone = cones.get(node)
        if cone is None:
            cone = cones[node] = _cone_avoiding(customers, members, node)
        region |= cone
        for peer in peers[node]:
            if peer in members:
                continue
            region.add(peer)
            cone = cones.get(peer)
            if cone is None:
                cone = cones[peer] = _cone_avoiding(customers, members, peer)
            region |= cone
        for provider in providers[node]:
            if provider not in members:
                region.add(provider)
                stack.append(provider)
    region |= rungs
    region.discard(customer)
    return region


@dataclass(frozen=True)
class RegionSummary:
    zone_size: int
    p10: float
    p50: float
    p90: float
    frac_leq_1: float


@dataclass(frozen=True)
class LocalRegionDistribution:
    """Per-customer region sizes and quantile summaries at each zone size.

    Region sizes exclude the customer itself; a stub whose only provider is
    a member therefore reports 0.
    """

    rows: tuple[tuple[int, int, int], ...]  # (zone_size, customer, region_size)
    summaries: tuple[RegionSummary, ...]


def local_region_distribution(
    topo: Topology, zone_sizes: Sequence[int]
) -> LocalRegionDistribution:
    """Region-size distribution for attached customers of cone-ordered zones.

    To count IX peering, pass the result of augment_with_ix_peering.
    """
    zone_sizes = list(zone_sizes)
    if any(size < 0 for size in zone_sizes):
        raise AnalysisError("zone sizes must be non-negative")
    ranked = cone_size_order(topo)
    rows: list[tuple[int, int, int]] = []
    summaries = []
    for size in zone_sizes:
        members = frozenset(ranked[: min(size, len(ranked))])
        cones: dict[int, frozenset[int]] = {}
        sizes = []
        for cust in sorted(attached_customers(topo, members)):
            region_size = len(_region(topo, members, cust, cones))
            rows.append((size, cust, region_size))
            sizes.append(region_size)
        if sizes:
            sizes.sort()
            p10, p50, p90 = (_percentile(sizes, q) for q in (10, 50, 90))
            frac = sum(1 for s in sizes if s <= 1) / len(sizes)
        else:
            p10 = p50 = p90 = frac = 0.0
        summaries.append(RegionSummary(size, p10, p50, p90, frac))
    return LocalRegionDistribution(tuple(rows), tuple(summaries))


def _percentile(ordered: Sequence[int], q: float) -> float:
    """Linearly interpolated percentile of sorted values, numpy.percentile's
    default; stepping from the nearer neighbor reproduces its floats."""
    pos = (len(ordered) - 1) * (q / 100)
    lo = int(pos)
    t = pos - lo
    a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


@dataclass(frozen=True)
class RoutingExceptions:
    """Destinations a member must reach via a provider only because it
    prefers VERIFIED routes."""

    member: int
    count: int
    destinations: tuple[int, ...]


def synthetic_prefix(asn: int) -> Prefix:
    """Deterministic per-AS probe prefix used by whole-topology analyses:
    a /112 in 2001:db8::/32 with the ASN in address bits 16-47, so distinct
    ASNs never overlap (AS5 gets 2001:db8::5:0/112)."""
    return ipaddress.IPv6Network(((0x20010DB8 << 96) | (asn << 16), 112))


def routing_exceptions(topo: Topology, cfg: ZoneConfig, member: int) -> RoutingExceptions:
    """Count destinations where VERIFIED-first selection at `member` picks a
    provider route while plain economic preference would have used a
    customer or peer route.

    Each destination in the member's reach (its customer cone, each peer
    and each peer's cone) originates a synthetic probe prefix backed by a
    matching ROA, so perimeter verification succeeds wherever the zone
    rules allow it.  Under the Gao-Rexford export rule, customers and peers
    send the member only customer-learned or local routes, so no other
    destination can be an exception in any state, and none is solved.  The
    member's best under the cold synchronous solve of the zone is diffed
    against its best under the cold synchronous solve in which this member
    alone ranks plain, still applying the zone import rules.
    """
    return _routing_exceptions(topo, cfg, [member])[0]


@_gc_paused()
def _routing_exceptions(
    topo: Topology, cfg: ZoneConfig, members: Sequence[int]
) -> list[RoutingExceptions]:
    """routing_exceptions for each of `members` in order: one solve per
    probe prefix in the union of the members' reaches watches the
    plain-order pick of each member whose reach holds that destination,
    and only where that pick diverged is the prefix solved again, cold,
    with the member ranking plain (README, Model notes).  A destination
    outside every member's reach is not solved, so its oscillation raises
    nothing.  Failed verified solves raise before any mixed solve runs;
    failed mixed solves raise once every member's have run, naming them
    all in member order.  The cyclic collector is paused, as in propagate."""
    for member in members:
        if member not in cfg.members:
            raise AnalysisError(f"AS{member} is not a zone member")
    if not members:
        return []
    # watchers[dest]: the members whose reach holds dest, each watched
    # under the plain order.
    watchers: dict[int, dict] = {}
    for member in members:
        peers = topo.peers[member]
        reach = customer_cone(topo, member).union(peers, *(customer_cone(topo, p) for p in peers))
        for dest in reach:
            watchers.setdefault(dest, {})[member] = _PLAIN_ORDER
    prefixes = {dest: synthetic_prefix(dest) for dest in sorted(watchers)}
    reg = RegistrySet(roas=[Roa(prefix, dest) for dest, prefix in prefixes.items()])
    net = _Network(topo, zone_policy(topo, cfg, reg))
    # diverged[member]: (destination, verified best is provider-learned).
    diverged: dict[int, list[tuple[int, bool]]] = {member: [] for member in members}
    oscillating = {}
    for dest, prefix in prefixes.items():
        best, *_, flips, stuck = _propagate_prefix(
            net, prefix, [Origination(dest, prefix)], watchers[dest]
        )
        if stuck:
            oscillating[prefix] = stuck
        for member in flips:
            pair = best[net.index[member]]
            provider = pair is not None and pair[1].learned_rel is Rel.PROVIDER
            diverged[member].append((dest, provider))
    if oscillating:
        raise NonConvergenceError(oscillating)
    results = []
    for member in members:
        mixed = net.with_order(member, _PLAIN_ORDER)
        exceptions = []
        for dest, provider in diverged[member]:
            prefix = prefixes[dest]
            best, *_, stuck = _propagate_prefix(mixed, prefix, [Origination(dest, prefix)])
            pair = best[net.index[member]]
            if stuck:
                oscillating[prefix] = stuck
            elif provider and pair and pair[1].learned_rel in (Rel.CUSTOMER, Rel.PEER):
                exceptions.append(dest)
        results.append(RoutingExceptions(member, len(exceptions), tuple(exceptions)))
    if oscillating:
        raise NonConvergenceError(oscillating)
    return results


def growth_csv(curve: Sequence[tuple[int, int]]) -> str:
    return table("zone_size,protected_count", (f"{size},{count}" for size, count in curve))


def region_rows_csv(dist: LocalRegionDistribution) -> str:
    return table("zone_size,customer_asn,region_size", (f"{z},{c},{s}" for z, c, s in dist.rows))


def region_summary_csv(dist: LocalRegionDistribution) -> str:
    # region_size excludes the customer itself; the common convention that
    # counts the AS too reads these as size+1.
    rows = (f"{s.zone_size},{s.p10:g},{s.p50:g},{s.p90:g},{s.frac_leq_1:g}" for s in dist.summaries)
    return table("zone_size,p10,p50,p90,frac_leq_1", rows)


def exceptions_csv(results: Sequence[RoutingExceptions]) -> str:
    rows = (f"{r.member},{r.count},{';'.join(map(str, r.destinations))}" for r in results)
    return table("member,exception_count,destination_asns", rows)
