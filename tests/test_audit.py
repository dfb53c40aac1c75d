import random
from collections import Counter
from dataclasses import replace

import pytest

from zonesim.analysis import synthetic_prefix
from zonesim.audit import (
    AuditError,
    AuditRule,
    MemberView,
    Waiver,
    audit_views,
    findings_csv,
    load_member_view,
    register_exception,
    views_from_rib,
)
from zonesim.registry import RegistrySet, Roa, parse_prefix
from zonesim.routing import VERIFIED, Origination, dump_rib, propagate
from zonesim.topology import load_topology
from zonesim.vipzone import ZoneConfig, zone_policy

from fault_injection import (
    accept_invalid_hooks,
    false_verified_hooks,
    manifested,
    run_with_fault,
    strip_tag_hooks,
)
from oracles import (
    PREFIX_POOL,
    audit_views_oracle,
    r3_witness_scan,
    random_connected_members,
    random_originations,
    random_registry,
    random_topology,
)

P = parse_prefix
VICTIM = P("192.0.2.0/24")
ROGUE = P("198.51.100.0/24")

#      1        zone: {1, 2, 3}
#     / \
#    2   3      20 under 2 announces VICTIM (ROA-backed)
#    |   |\     30 under 3; 31 under 30 announces ROGUE (two hops out)
#   20  30 40
#           |
#          (31 under 30)
TOPO = load_topology("1|2|-1\n1|3|-1\n2|20|-1\n3|30|-1\n3|40|-1\n30|31|-1")
CFG = ZoneConfig(members=frozenset({1, 2, 3}))
REG = RegistrySet(roas=[Roa(VICTIM, 20)])
ORIGS = [Origination(20, VICTIM), Origination(31, ROGUE)]


def conformant_views():
    rib = propagate(TOPO, ORIGS, zone_policy(TOPO, CFG, REG))
    return views_from_rib(rib, CFG)


class TestConformantRuns:
    def test_zero_findings(self):
        assert audit_views(CFG, TOPO, REG, conformant_views()) == []

    def test_random_conformant_runs_clean(self):
        rng = random.Random(303)
        runs = 0
        for _ in range(30):
            topo = random_topology(rng, 10, 4)
            members = random_connected_members(rng, topo)
            if len(members) < 2:
                continue
            cfg = ZoneConfig(members=members, aspa_extension=rng.random() < 0.5)
            origs = random_originations(rng, topo)
            reg = RegistrySet(
                roas=[Roa(o.prefix, o.asn) for o in origs if rng.random() < 0.6]
            )
            rib = propagate(topo, origs, zone_policy(topo, cfg, reg))
            views = views_from_rib(rib, cfg)
            assert audit_views(cfg, topo, reg, views) == []
            runs += 1
        assert runs >= 10


class TestSeededFaults:
    def test_r1_false_verified_exactly_one_finding(self):
        hooks = false_verified_hooks(TOPO, CFG, REG, 3, ROGUE)
        views, _ = run_with_fault(TOPO, CFG, ORIGS, hooks)
        assert manifested(views, CFG, REG, AuditRule.R1_FALSE_VERIFIED, 3, ROGUE)
        findings = audit_views(CFG, TOPO, REG, views)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule is AuditRule.R1_FALSE_VERIFIED
        assert f.culprit == 3
        assert f.evidence.prefix == ROGUE
        assert not f.waived

    def test_r1_detected_from_neighbor_views_alone(self):
        # Even without the culprit's own export, the tagged route that
        # propagated into the neighbors' views names the entry member.
        hooks = false_verified_hooks(TOPO, CFG, REG, 3, ROGUE)
        views, _ = run_with_fault(TOPO, CFG, ORIGS, hooks)
        others = [v for v in views if v.member != 3]
        findings = audit_views(CFG, TOPO, REG, others)
        assert [(f.rule, f.culprit) for f in findings] == [
            (AuditRule.R1_FALSE_VERIFIED, 3)
        ]

    def test_r2_invalid_origin(self):
        # 31 squats on VICTIM while its owner is not announcing; the ROA
        # binds it to 20, so every member drops the squat except the
        # faulty one, which then has nothing better and selects it.
        origs = [Origination(31, ROGUE), Origination(31, VICTIM)]
        hooks = accept_invalid_hooks(TOPO, CFG, REG, 3, VICTIM)
        views, _ = run_with_fault(TOPO, CFG, origs, hooks)
        assert manifested(views, CFG, REG, AuditRule.R2_INVALID_ORIGIN, 3, VICTIM)
        findings = audit_views(CFG, TOPO, REG, views)
        assert [(f.rule, f.culprit) for f in findings] == [
            (AuditRule.R2_INVALID_ORIGIN, 3)
        ]

    def test_r3_strip_detected_via_neighbor_diff(self):
        hooks = strip_tag_hooks(TOPO, CFG, REG, 3, 1, VICTIM)
        views, _ = run_with_fault(TOPO, CFG, ORIGS, hooks)
        assert manifested(views, CFG, REG, AuditRule.R3_TAG_STRIPPED, 3, VICTIM)
        findings = audit_views(CFG, TOPO, REG, views)
        assert [(f.rule, f.culprit, f.observed_at) for f in findings] == [
            (AuditRule.R3_TAG_STRIPPED, 3, 1)
        ]

    def test_r3_without_witness_view_warns_not_accuses(self, caplog):
        hooks = strip_tag_hooks(TOPO, CFG, REG, 3, 1, VICTIM)
        views, _ = run_with_fault(TOPO, CFG, ORIGS, hooks)
        without_witness = [v for v in views if v.member != 1]
        with caplog.at_level("WARNING"):
            findings = audit_views(CFG, TOPO, REG, without_witness)
        assert findings == []
        assert any("no view from AS1" in r.message for r in caplog.records)


class TestCoverageWarnings:
    def test_one_warning_per_owner_and_missing_witness(self, caplog):
        # A seeded zone with every AS announcing its probe prefix under a
        # matching ROA, and about half of the views dropped: 37 routes lose
        # their R3 check, over 4 (owner, missing witness) pairs.
        rng = random.Random(24)
        topo = random_topology(rng, 30, 12)
        cfg = ZoneConfig(members=random_connected_members(rng, topo))
        origs = [Origination(a, synthetic_prefix(a)) for a in sorted(topo.asns)]
        reg = RegistrySet(roas=[Roa(o.prefix, o.asn) for o in origs])
        views = views_from_rib(propagate(topo, origs, zone_policy(topo, cfg, reg)), cfg)
        kept = [v for v in views if rng.random() < 0.5]
        with caplog.at_level("WARNING"):
            assert audit_views_oracle(cfg, topo, reg, kept) == []
        per_route = Counter(r.args for r in caplog.records)  # (witness, owner): routes
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert audit_views(cfg, topo, reg, kept) == []
        assert sum(per_route.values()) == 37
        assert len(caplog.records) == len(per_route) == 4
        assert {r.args[:2]: r.args[2] for r in caplog.records} == per_route
        for r in caplog.records:
            assert r.getMessage().startswith(f"no view from AS{r.args[0]};")
            assert r.getMessage().endswith(f" on {r.args[2]} routes")


TWIN = P("203.0.113.0/24")


def _rows(rib, prefix):
    # Each AS's ranked candidates for prefix, without the prefix label.
    return {
        asn: [(r.as_path, r.communities, r.learned_rel) for r in entries[prefix].candidates]
        for asn, entries in rib.per_as.items()
        if prefix in entries
    }


class TestFaultStaysOnItsPrefix:
    """An injected fault reads route.prefix, which the zone's class key
    cannot see, so the injectors drop prefix_class: a faulted prefix that
    the zone policy classes with a clean twin is still solved on its own."""

    CASES = {
        "r1": (
            lambda reg: false_verified_hooks(TOPO, CFG, reg, 3, ROGUE), ROGUE,
            [Origination(20, VICTIM), Origination(31, ROGUE), Origination(31, TWIN)],
            [Roa(VICTIM, 20)],
        ),
        "r2": (
            lambda reg: accept_invalid_hooks(TOPO, CFG, reg, 3, VICTIM), VICTIM,
            [Origination(31, ROGUE), Origination(31, VICTIM), Origination(31, TWIN)],
            [Roa(VICTIM, 20), Roa(TWIN, 20)],
        ),
        "r3": (
            lambda reg: strip_tag_hooks(TOPO, CFG, reg, 3, 1, VICTIM), VICTIM,
            [Origination(20, VICTIM), Origination(20, TWIN), Origination(31, ROGUE)],
            [Roa(VICTIM, 20), Roa(TWIN, 20)],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fault_shows_on_its_prefix_only(self, case):
        inject, target, origs, roas = self.CASES[case]
        reg = RegistrySet(roas=roas)
        clean_hooks = zone_policy(TOPO, CFG, reg)
        by_prefix = {p: [o for o in origs if o.prefix == p] for p in (target, TWIN)}
        assert len({clean_hooks.prefix_class(p, o) for p, o in by_prefix.items()}) == 1
        clean = propagate(TOPO, origs, clean_hooks)
        assert _rows(clean, target) == _rows(clean, TWIN)

        faulted = propagate(TOPO, origs, inject(reg))
        assert _rows(faulted, target) != _rows(clean, target)
        assert _rows(faulted, TWIN) == _rows(clean, TWIN)
        # Keeping the class key would route both prefixes alike, so the
        # fault could not show on one of them alone.
        shared = propagate(
            TOPO, origs, replace(inject(reg), prefix_class=clean_hooks.prefix_class)
        )
        assert _rows(shared, target) == _rows(shared, TWIN)


class TestRandomizedInjection:
    def test_detection_matches_injected_faults(self):
        rng = random.Random(909)
        detected = 0
        attempts = 0
        while detected < 40 and attempts < 400:
            attempts += 1
            topo = random_topology(rng, rng.randint(6, 12), rng.randint(0, 4))
            members = random_connected_members(rng, topo)
            if len(members) < 2:
                continue
            cfg = ZoneConfig(members=members)
            origs = random_originations(rng, topo)
            roas = [Roa(o.prefix, o.asn) for o in origs if rng.random() < 0.6]
            reg = RegistrySet(roas=roas)
            member = rng.choice(sorted(members))
            rule = rng.choice(list(AuditRule))
            orig = rng.choice(origs)
            target = orig.prefix

            if rule is AuditRule.R1_FALSE_VERIFIED:
                hooks = false_verified_hooks(topo, cfg, reg, member, target)
            elif rule is AuditRule.R2_INVALID_ORIGIN:
                # a non-member squats on a registered, unannounced prefix
                outsiders = sorted(topo.asns - members)
                unused = [p for p in PREFIX_POOL if all(o.prefix != p for o in origs)]
                if not outsiders or not unused:
                    continue
                target = unused[0]
                reg = RegistrySet(roas=list(roas) + [Roa(target, orig.asn)])
                squatter = rng.choice(outsiders)
                if squatter == orig.asn:
                    continue
                origs = origs + [Origination(squatter, target)]
                hooks = accept_invalid_hooks(topo, cfg, reg, member, target)
            else:
                uplinks = sorted(
                    (topo.providers_of(member) | topo.peers_of(member)
                     | topo.customers_of(member)) & members
                )
                if not uplinks:
                    continue
                hooks = strip_tag_hooks(
                    topo, cfg, reg, member, rng.choice(uplinks), target
                )

            views, _ = run_with_fault(topo, cfg, origs, hooks)
            if not manifested(views, cfg, reg, rule, member, target):
                continue
            findings = audit_views(cfg, topo, reg, views)
            assert (rule, member) in {(f.rule, f.culprit) for f in findings}, (
                topo.records(), members, rule, member
            )
            detected += 1
        assert detected == 40


class TestR3Differential:
    def test_path_index_matches_witness_scan(self):
        # Seeded zones, half of them with no registry data (so nothing is
        # tagged until a view is perturbed); each view loses some tags,
        # gains others, and sometimes goes missing.
        rng = random.Random(1213)
        hits = untagged_zones = 0
        for i in range(80):
            topo = random_topology(rng, rng.randint(6, 16), rng.randint(0, 6))
            members = random_connected_members(rng, topo)
            if len(members) < 2:
                continue
            cfg = ZoneConfig(members=members)
            origs = random_originations(rng, topo)
            if i % 2:
                reg = random_registry(rng, topo, members, origs)
            else:
                reg = RegistrySet()
                untagged_zones += 1
            views = []
            for view in views_from_rib(propagate(topo, origs, zone_policy(topo, cfg, reg)), cfg):
                if rng.random() < 0.15:
                    continue
                routes = tuple(
                    replace(r, communities=r.communities ^ {VERIFIED})
                    if rng.random() < 0.25 else r
                    for r in view.routes
                )
                views.append(MemberView(view.member, routes))
            got = {
                (f.culprit, f.observed_at, f.evidence.prefix, f.evidence.as_path)
                for f in audit_views(cfg, topo, reg, views)
                if f.rule is AuditRule.R3_TAG_STRIPPED
            }
            assert got == r3_witness_scan(members, views), (topo.records(), members)
            hits += len(got)
        assert untagged_zones >= 10 and hits >= 20


class TestWaivers:
    def test_waived_finding_reported_not_dropped(self):
        hooks = false_verified_hooks(TOPO, CFG, REG, 3, ROGUE)
        views, _ = run_with_fault(TOPO, CFG, ORIGS, hooks)
        waiver = register_exception(CFG, 3, ROGUE, "customer onboarding")
        findings = audit_views(CFG, TOPO, REG, views, [waiver])
        assert len(findings) == 1
        assert findings[0].waived is True
        assert findings[0].note == "customer onboarding"

    def test_waiver_for_other_prefix_does_not_apply(self):
        hooks = false_verified_hooks(TOPO, CFG, REG, 3, ROGUE)
        views, _ = run_with_fault(TOPO, CFG, ORIGS, hooks)
        waiver = register_exception(CFG, 3, VICTIM)
        findings = audit_views(CFG, TOPO, REG, views, [waiver])
        assert findings[0].waived is False

    def test_waiver_for_other_member_does_not_apply(self):
        hooks = false_verified_hooks(TOPO, CFG, REG, 3, ROGUE)
        views, _ = run_with_fault(TOPO, CFG, ORIGS, hooks)
        waiver = register_exception(CFG, 2, ROGUE)
        findings = audit_views(CFG, TOPO, REG, views, [waiver])
        assert findings[0].waived is False

    def test_unknown_member_rejected(self):
        with pytest.raises(AuditError, match="member"):
            register_exception(CFG, 99, ROGUE)


class TestViewsPlumbing:
    def test_view_file_roundtrip(self):
        rib = propagate(TOPO, ORIGS, zone_policy(TOPO, CFG, REG))
        dump = dump_rib(rib)
        member_rows = "\n".join(
            l for l in dump.splitlines() if l.startswith("1|")
        )
        view = load_member_view(member_rows + "\n")
        assert view.member == 1
        assert view.routes == views_from_rib(rib, CFG)[0].routes

    def test_mixed_view_rejected(self):
        rib = propagate(TOPO, ORIGS, zone_policy(TOPO, CFG, REG))
        with pytest.raises(AuditError, match="mixes"):
            load_member_view(dump_rib(rib))

    def test_non_member_view_rejected(self):
        views = conformant_views()
        bogus = MemberView(40, views[0].routes)
        with pytest.raises(AuditError, match="not a zone member"):
            audit_views(CFG, TOPO, REG, views + [bogus])

    def test_findings_csv_shape(self):
        hooks = false_verified_hooks(TOPO, CFG, REG, 3, ROGUE)
        views, _ = run_with_fault(TOPO, CFG, ORIGS, hooks)
        findings = audit_views(CFG, TOPO, REG, views)
        text = findings_csv(findings)
        lines = text.splitlines()
        assert lines[0] == "rule,culprit,observed_at,prefix,as_path,waived,note"
        assert lines[1].startswith("R1-FalseVerified,3,")

    def test_determinism(self):
        hooks = false_verified_hooks(TOPO, CFG, REG, 3, ROGUE)
        views, _ = run_with_fault(TOPO, CFG, ORIGS, hooks)
        a = audit_views(CFG, TOPO, REG, views)
        b = audit_views(CFG, TOPO, REG, list(reversed(views)))
        assert a == b


def _oracle_case(seed: int):
    """A seeded zone audited against a registry drawn apart from the one it
    was solved under, so that routes the members accepted can be
    ROV-invalid (R2) and ASPA can lift R1's limit.  One member may run a
    fault injector; views are cut from the dump and parsed, about half
    of them with one shared prefix memo and the rest each with their own,
    so equal prefixes arrive as distinct objects; some views are dropped
    and some routes gain or lose VERIFIED (R1 and R3); a second origin may
    announce a prefix already announced.  Returns None for a zone with
    fewer than two members."""
    rng = random.Random(seed)
    topo = random_topology(rng, rng.randint(6, 16), rng.randint(0, 6))
    members = random_connected_members(rng, topo)
    if len(members) < 2:
        return None
    cfg = ZoneConfig(members=members, aspa_extension=rng.random() < 0.5)
    origs = random_originations(rng, topo)
    if rng.random() < 0.6:
        origs.append(Origination(rng.choice(sorted(topo.asns)), origs[0].prefix))
    solve_reg = random_registry(rng, topo, members, origs)
    audit_reg = random_registry(rng, topo, members, origs)
    hooks = zone_policy(topo, cfg, solve_reg)
    inject = rng.choice([None, false_verified_hooks, accept_invalid_hooks, strip_tag_hooks])
    member, prefix = rng.choice(sorted(members)), rng.choice(origs).prefix
    if inject is strip_tag_hooks:
        hooks = inject(topo, cfg, solve_reg, member, rng.choice(sorted(members)), prefix)
    elif inject is not None:
        hooks = inject(topo, cfg, solve_reg, member, prefix)
    dump = dump_rib(propagate(topo, origs, hooks))
    shared: dict = {}
    views = []
    for owner in sorted(members):
        rows = "".join(line + "\n" for line in dump.splitlines() if line.startswith(f"{owner}|"))
        if not rows or rng.random() < 0.15:
            continue
        view = load_member_view(rows, prefixes=shared if rng.random() < 0.5 else None)
        routes = tuple(
            replace(r, communities=r.communities ^ {VERIFIED}) if rng.random() < 0.15 else r
            for r in view.routes
        )
        views.append(MemberView(view.member, routes))
    waivers = [
        Waiver(rng.choice(sorted(members)), rng.choice(PREFIX_POOL), f"note {k}")
        for k in range(rng.randint(0, 3))
    ]
    return cfg, topo, audit_reg, views, waivers


def _finding_rows(findings):
    return [
        (f.rule, f.culprit, f.observed_at, f.evidence, f.waived, f.note) for f in findings
    ]


class TestAuditViewsOracle:
    """audit_views against audit_views_oracle, its form before the per-path
    and per-(prefix, origin) memos: the same findings, field by field, in
    the same order."""

    def test_findings_match_the_oracle(self):
        seen = dict.fromkeys(
            ["R1", "R2", "R3", "waived", "shared_memberless_path", "split_prefix", "moas"], 0
        )
        rules = {AuditRule.R1_FALSE_VERIFIED: "R1", AuditRule.R2_INVALID_ORIGIN: "R2",
                 AuditRule.R3_TAG_STRIPPED: "R3"}
        for seed in range(200):
            case = _oracle_case(seed)
            if case is None:
                continue
            cfg, topo, reg, views, waivers = case
            expected = audit_views_oracle(cfg, topo, reg, views, waivers)
            # Waive some real findings as well as the random picks.
            waivers += [
                Waiver(f.culprit, f.evidence.prefix, "planted") for f in expected[::3]
            ]
            expected = audit_views_oracle(cfg, topo, reg, views, waivers)
            got = audit_views(cfg, topo, reg, views, waivers)
            assert _finding_rows(got) == _finding_rows(expected), seed
            for f in expected:
                seen[rules[f.rule]] += 1
                seen["waived"] += f.waived
            owners_by_path: dict = {}
            objects_by_prefix: dict = {}
            origins_by_prefix: dict = {}
            for view in views:
                for r in view.routes:
                    if not set(r.as_path) & cfg.members:
                        owners_by_path.setdefault(r.as_path, set()).add(view.member)
                    objects_by_prefix.setdefault(r.prefix, set()).add(id(r.prefix))
                    origins_by_prefix.setdefault(r.prefix, set()).add(r.origin)
            seen["shared_memberless_path"] += any(len(o) > 1 for o in owners_by_path.values())
            seen["split_prefix"] += any(len(o) > 1 for o in objects_by_prefix.values())
            seen["moas"] += any(len(o) > 1 for o in origins_by_prefix.values())
        assert all(count >= 15 for count in seen.values()), seen
