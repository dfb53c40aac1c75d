"""
Off-path conformance auditing
=============================

Every member exports its best routes to a collector; the auditor
cross-checks the views against three rules without touching any router:
no VERIFIED tag on paths that were long before entering the zone, no
RPKI-invalid origins, and no tag dropped between members.  Declared
exceptions are reported as waived instead of silently ignored.
"""

from dataclasses import replace

from zonesim import (
    MemberView,
    Origination,
    RegistrySet,
    Roa,
    VERIFIED,
    audit_views,
    findings_csv,
    load_topology,
    parse_prefix,
    propagate,
    register_exception,
    validate_zone,
    views_from_rib,
    zone_policy,
)

topo = load_topology("1|2|-1\n1|3|-1\n2|20|-1\n3|30|-1")
cfg = validate_zone(topo, {1, 2, 3})
prefix = parse_prefix("192.0.2.0/24")
reg = RegistrySet(roas=[Roa(prefix, 20)])

rib = propagate(topo, [Origination(20, prefix)], zone_policy(topo, cfg, reg))
views = views_from_rib(rib, cfg)

print("conformant views:")
print(findings_csv(audit_views(cfg, topo, reg, views)))

# Corrupt member 3's export: it claims the tag survived a strip it
# actually performed... i.e. its view shows the route untagged while
# member 1's view shows the same path suffix tagged.
corrupted = []
for view in views:
    if view.member != 3:
        corrupted.append(view)
        continue
    routes = tuple(
        replace(r, communities=r.communities - {VERIFIED}) for r in view.routes
    )
    corrupted.append(MemberView(3, routes))

findings = audit_views(cfg, topo, reg, corrupted)
print("after member 3 drops the tag:")
print(findings_csv(findings))

# A registered exception downgrades the finding to a waiver -- visible,
# never discarded.
waiver = register_exception(cfg, 3, prefix, "traffic engineering trial")
print("with a registered exception:")
print(findings_csv(audit_views(cfg, topo, reg, corrupted, [waiver])))
