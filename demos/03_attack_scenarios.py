"""
Attack scenarios and harm classification
========================================

The scenario harness injects one bad announcement, solves the network,
and reports who suffers: owner harm (the victim's prefix is hijacked
somewhere) and misdirection harm (an AS's traffic is drawn to the
attacker).  Sweeping the attacker over every position maps the residual
attack surface.
"""

from zonesim import (
    AttackKind,
    AttackScenario,
    Origination,
    RegistrySet,
    Roa,
    ZoneConfig,
    harm_csv,
    load_topology,
    parse_prefix,
    run_scenario,
    sweep_attackers,
)

topo = load_topology("1|2|-1\n1|3|-1\n2|20|-1\n3|30|-1\n3|40|-1")
cfg = ZoneConfig(members=frozenset({1, 2, 3}))
wide = parse_prefix("192.0.2.0/23")
sub = parse_prefix("192.0.2.0/24")

# -- 1. Origin hijacks against a registered prefix die at the perimeter.
#       (Members are defenders, not attacker positions.)
reg = RegistrySet(roas=[Roa(sub, 20)])
reports = sweep_attackers(
    topo, reg, cfg, [Origination(20, sub)], AttackKind.ORIGIN_HIJACK, sub, 20,
    attackers=topo.asns - cfg.members - {20},
)
print("origin hijack sweep with a registered prefix:")
print(harm_csv(reports))

# -- 2. A sub-prefix hijack against an unregistered block penetrates
#       everything: longest-prefix match is a forwarding-time rule that
#       no community can override.
bare = RegistrySet()
scenario = AttackScenario(AttackKind.SUB_PREFIX_HIJACK, 30, sub, 20)
report = run_scenario(topo, bare, cfg, [Origination(20, wide)], scenario)
print(f"unprotected sub-prefix: misdirected = {sorted(report.misdirected)}")

# Registering the exact sub-prefix restores the perimeter drop.
report = run_scenario(
    topo, RegistrySet(roas=[Roa(wide, 20), Roa(sub, 20)]), cfg,
    [Origination(20, wide), Origination(20, sub)], scenario,
)
print(f"with registration:      misdirected = {sorted(report.misdirected)}")

# -- 3. A route leak outside the zone draws no traffic through the
#       leaker as long as a verified path exists.
leak_topo = load_topology("1|3|-1\n1|4|-1\n3|20|-1\n3|10|-1\n4|10|-1\n4|50|-1")
leak_cfg = ZoneConfig(members=frozenset({1, 3, 4}))
leak = AttackScenario(AttackKind.ROUTE_LEAK, 10, sub, 20, leaked_from=3)
report = run_scenario(
    leak_topo, RegistrySet(roas=[Roa(sub, 20)]), leak_cfg,
    [Origination(20, sub)], leak,
)
print(f"route leak inside zone: misdirected = {sorted(report.misdirected)}")

report = run_scenario(
    leak_topo, RegistrySet(roas=[Roa(sub, 20)]),
    ZoneConfig(members=frozenset({1, 3})), [Origination(20, sub)], leak,
)
print(f"member 4 removed:       misdirected = {sorted(report.misdirected)}")
