"""
Who would a zone protect?
=========================

Topology-level analyses: derive the connected core of a membership
roster, grow hypothetical zones and count protected ASes, and measure
each attached customer's local region -- the set of ASes that could
still deliver a hijack to it without crossing the zone.
"""

import random

from zonesim import (
    GrowthOrder,
    Topology,
    ZoneConfig,
    derive_connected_zone,
    local_region,
    local_region_distribution,
    routing_exceptions,
    zone_growth_curve,
)

# Build a synthetic 60-AS hierarchy: a small transit-free core, regional
# providers below it, and stubs at the edge, with light random peering.
rng = random.Random(7)
records = []
core = [1, 2, 3]
records += [(1, 2, 0), (1, 3, 0), (2, 3, 0)]
regionals = list(range(10, 22))
for r in regionals:
    for p in rng.sample(core, k=rng.randint(1, 2)):
        records.append((p, r, -1))
stubs = list(range(100, 145))
for s in stubs:
    for p in rng.sample(regionals, k=rng.randint(1, 2)):
        records.append((p, s, -1))
# light peering among regionals, the kind that later crosses the
# zone perimeter
seen = set()
for _ in range(6):
    a, b = rng.sample(regionals, k=2)
    if frozenset((a, b)) not in seen:
        seen.add(frozenset((a, b)))
        records.append((a, b, 0))
topo = Topology.from_records(records)
print(topo)

# A roster is only useful where it is connected: members whose providers
# are all outside the roster cannot anchor the zone.
roster = set(core) | set(rng.sample(regionals, k=8)) | {100, 101}
derivation = derive_connected_zone(topo, roster)
print(f"roster {len(roster)} -> connected {len(derivation.connected_members)}, "
      f"attached customers {len(derivation.attached_customers)}")

# Protected ASes as the zone grows, under both admission orders.
sizes = [1, 2, 3, 5, 8, 12, 15]
for order in GrowthOrder:
    curve = zone_growth_curve(topo, order, sizes)
    print(f"{order.value:>22}: " + "  ".join(f"{s}->{c}" for s, c in curve))

# Local regions for the attached customers of a 6-member zone.
dist = local_region_distribution(topo, [6])
sizes = [s for _, _, s in dist.rows]
summary = dist.summaries[0]
print(f"\nlocal regions at zone size 6: n={len(sizes)}, "
      f"p10/p50/p90 = {summary.p10:g}/{summary.p50:g}/{summary.p90:g}, "
      f"share at <=1: {summary.frac_leq_1:.0%}")

# One multihomed customer in detail: its region is exactly the world
# reachable through its out-of-zone provider.
cfg = ZoneConfig(members=frozenset(derivation.connected_members))
multihomed = [
    a for a in sorted(derivation.attached_customers)
    if len(topo.providers_of(a)) > 1
]
exposed = [a for a in multihomed if local_region(topo, cfg, a).region]
if exposed:
    customer = exposed[0]
    region = sorted(local_region(topo, cfg, customer).region)
    print(f"AS{customer} local region ({len(region)} ASes): {region[:12]}")

# The price members pay: destinations they must reach via a provider
# because the verified route arrives there, instead of a peer or
# customer path they would normally prefer.
for member in sorted(cfg.members):
    exc = routing_exceptions(topo, cfg, member)
    if exc.count:
        print(f"routing exceptions at member AS{member}: {exc.count} "
              f"(destinations {list(exc.destinations)[:6]})")
