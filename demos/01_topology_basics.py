"""
Loading an AS topology and asking it questions
==============================================

The simulator works on the standard AS-relationship exchange format:
one line per inter-AS link, ``provider|customer|-1`` for paid transit
and ``peerA|peerB|0`` for settlement-free peering.
"""

from zonesim import (
    augment_with_ix_peering,
    customer_cone,
    load_topology,
    tier1_clique,
    tier1_mesh_gaps,
)

# A small hierarchy: two transit-free networks at the top (1 and 2),
# regional providers 10 and 11, and a handful of edge networks.
#
#      1 ===== 2          (=== is peering)
#     / \       \
#   10   11     12
#   / \    \    /
# 100 101  102-+          (102 buys from 11 and 12)
#
text = """
1|2|0
1|10|-1
1|11|-1
2|12|-1
10|100|-1
10|101|-1
11|102|-1
12|102|-1
"""
topo = load_topology(text)
print(topo)

# The customer cone is everything reachable walking provider->customer.
for asn in (1, 10, 100):
    print(f"customer cone of AS{asn}: {sorted(customer_cone(topo, asn)) or '(stub)'}")

# Provider-free ASes form the top of the hierarchy.  They are expected
# to peer in a full mesh; gaps are reported as warnings, not errors.
print("transit-free clique:", sorted(tier1_clique(topo)))
print("missing mesh edges:", tier1_mesh_gaps(topo))

# Exchange-point memberships widen the peering fabric: any two ASes at
# the same IX are assumed to peer.  Transit links are never rewritten.
augmented = augment_with_ix_peering(topo, {"IX-A": {10, 11, 12}})
for asn in (10, 11, 12):
    print(f"AS{asn} peers after IX closure: {sorted(augmented.peers_of(asn))}")
