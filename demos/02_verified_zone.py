"""
A zone of trust in action
=========================

Members of a connected zone verify what their directly attached
customers announce, tag the good routes with a VERIFIED community, and
prefer tagged routes over untagged ones for the same prefix.  This demo
replays the core defense: a forged-origin path hijack enters the zone
beside the victim and loses everywhere inside it.
"""

from zonesim import (
    KycEntry,
    Origination,
    RegistrySet,
    data_plane_trace,
    dump_rib,
    load_topology,
    parse_prefix,
    propagate,
    validate_zone,
    zone_policy,
)

#       1         members: 1, 2, 3
#      / \
#     2   3       victim 20 announces 192.0.2.0/24 to member 2
#     |   |\
#    20  30 40    attacker 30 forges the path "30 20"; 40 is a bystander
#
topo = load_topology("1|2|-1\n1|3|-1\n2|20|-1\n3|30|-1\n3|40|-1")
victim_prefix = parse_prefix("192.0.2.0/24")

cfg = validate_zone(topo, {1, 2, 3})
print("zone validated:", sorted(cfg.members))

# Member 2 has established out-of-band that its customer 20 may announce
# this prefix (a manually configured prefix list; a ROA or an IRR entry
# would work the same way).
reg = RegistrySet(
    kyc={(2, 20): KycEntry(allowed_prefixes=frozenset({victim_prefix}))}
)

originations = [
    Origination(20, victim_prefix),
    Origination(30, victim_prefix, (30, 20)),  # the forgery
]

rib = propagate(topo, originations, zone_policy(topo, cfg, reg))
print("\nfixpoint RIB with the zone active:")
print(dump_rib(rib))

# Member 3 heard the forgery from its own customer -- the route plain
# economics would prefer -- yet selects the tagged route via its provider.
best = rib.best(3, victim_prefix)
print(f"member 3 selects {best.as_path} ({sorted(best.communities)})")

hops, outcome = data_plane_trace(rib, 40, "192.0.2.1")
print(f"bystander 40 traffic: {' -> '.join(map(str, hops))} ({outcome.value})")

# Rerun with no zone at all: the forged customer route wins at 3 and
# drags the bystander with it.
plain = propagate(topo, originations)
hops, outcome = data_plane_trace(plain, 40, "192.0.2.1")
print(f"without the zone:     {' -> '.join(map(str, hops))} ({outcome.value})")
