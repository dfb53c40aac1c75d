"""Release acceptance suite.

One test per criterion; each prints an ``ACCEPTANCE <name>: PASS|FAIL``
line so the suite can be read as a checklist (run with ``pytest -s``).
The desk-scale criteria run on a shared 500-instance random corpus; the
full-Internet dataset criterion is skipped unless the snapshot files are
supplied via environment variables.
"""

import bz2
import functools
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from zonesim.analysis import (
    GrowthOrder,
    derive_connected_zone,
    local_region,
    local_region_distribution,
    zone_growth_curve,
)
from zonesim.attacks import AttackKind, AttackScenario, run_scenario, sweep_attackers
from zonesim.audit import AuditRule, audit_views, views_from_rib
from zonesim.cli import main
from zonesim.registry import RegistrySet, Roa, RovState, parse_prefix, rov_validate
from zonesim.routing import Origination, propagate
from zonesim.topology import load_topology
from zonesim.vipzone import VERIFIED, ZoneConfig, zone_policy

from fault_injection import (
    accept_invalid_hooks,
    false_verified_hooks,
    manifested,
    run_with_fault,
    strip_tag_hooks,
)
from oracles import (
    PREFIX_POOL,
    brute_force_local_region,
    oracle_fixpoint,
    random_connected_members,
    random_originations,
    random_registry,
    random_topology,
    rib_as_cells,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

WIDE = parse_prefix("10.2.0.0/23")
SUB = parse_prefix("10.2.0.0/24")


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except (pytest.skip.Exception,):
                print(f"ACCEPTANCE {label}: SKIPPED", flush=True)
                raise
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {label}: PASS", flush=True)

        return wrapper

    return deco


@dataclass(frozen=True)
class Instance:
    topo: object
    cfg: object
    reg: object
    origs: tuple


@pytest.fixture(scope="session")
def corpus():
    rng = random.Random(20230501)
    instances = []
    for _ in range(500):
        topo = random_topology(rng, rng.randint(4, 12), rng.randint(0, 6))
        members = random_connected_members(rng, topo)
        origs = tuple(random_originations(rng, topo))
        reg = random_registry(rng, topo, members, origs)
        honor = frozenset(
            a for a in sorted(topo.asns - members) if rng.random() < 0.15
        )
        cfg = ZoneConfig(
            members=members,
            aspa_extension=rng.random() < 0.3,
            honor_verified_non_members=honor,
        )
        instances.append(Instance(topo, cfg, reg, origs))
    return instances


# Fixture name -> (command argv sans --out-dir, qualitative claims on outputs)
def _fx(dir_, *extra):
    base = [
        "simulate",
        "--topology", str(FIXTURES / dir_ / "topology.txt"),
        "--zone", str(FIXTURES / dir_ / "zone.txt"),
        "--originations", str(FIXTURES / dir_ / "originations.csv"),
    ]
    for flag, name in extra:
        base += [flag, str(FIXTURES / dir_ / name)]
    return base


FIXTURE_COMMANDS = {
    "pzone": _fx("pzone", ("--kyc", "kyc.csv"), ("--scenario", "scenario.txt")),
    "aspa": _fx(
        "aspa", ("--roas", "roas.csv"), ("--aspas", "aspas.csv"),
        ("--kyc", "kyc.csv"), ("--scenario", "scenario.txt"),
    ),
    "aspa_noext": _fx(
        "aspa_noext", ("--roas", "roas.csv"), ("--aspas", "aspas.csv"),
        ("--kyc", "kyc.csv"), ("--scenario", "scenario.txt"),
    ),
    "mh3": _fx("mh3", ("--roas", "roas.csv"), ("--scenario", "scenario.txt")),
    "mh3_optin": _fx("mh3_optin", ("--roas", "roas.csv"), ("--scenario", "scenario.txt")),
    "mh2": _fx("mh2", ("--roas", "roas.csv"), ("--scenario", "scenario.txt")),
    "mh2_optin": _fx("mh2_optin", ("--roas", "roas.csv"), ("--scenario", "scenario.txt")),
    "transitpeering": _fx("transitpeering", ("--irr", "irr.csv")),
    "transitpeering_exceptions": [
        "exceptions",
        "--topology", str(FIXTURES / "transitpeering_exceptions" / "topology.txt"),
        "--zone", str(FIXTURES / "transitpeering_exceptions" / "zone.txt"),
        "--member", "7",
    ],
    "leak": _fx("leak", ("--roas", "roas.csv"), ("--scenario", "scenario.txt")),
}


def run_fixture(name, out_dir):
    argv = list(FIXTURE_COMMANDS[name]) + ["--out-dir", str(out_dir)]
    assert main(argv) == 0, name
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


def expected_outputs(name):
    exp = FIXTURES / name / "expected"
    return {p.name: p.read_bytes() for p in sorted(exp.iterdir())}


QUALITATIVE = {
    # hijacked route via 30 does not propagate in the zone
    "pzone": lambda rib, harm: (
        all("30" not in line.split("|")[2].split() for line in rib
            if line.split("|")[0] in ("1", "2", "3"))
        and harm[1] == "30,false,0,"
    ),
    # two-hop path verified through the provider authorization; the
    # three-outside-AS forgery is not marked and not selected
    "aspa": lambda rib, harm: (
        "2|192.0.2.0/24|10 20|VERIFIED:1|customer" in rib
        and all("30" not in line.split("|")[2].split() for line in rib
                if line.split("|")[0] in ("1", "2"))
    ),
    # extension off: the same two-hop path stays unverified
    "aspa_noext": lambda rib, harm: not any("VERIFIED:1" in line for line in rib),
    # plain multihomed customer follows the tiebreak into the hijack
    "mh3": lambda rib, harm: (
        "40|192.0.2.0/24|4 60 20||provider" in rib and "40" in harm[1].split(",")[3]
    ),
    # opting in to the verified community protects it
    "mh3_optin": lambda rib, harm: (
        "40|192.0.2.0/24|5 1 20|VERIFIED:1|provider" in rib
        and "40" not in harm[1].split(",")[3]
    ),
    # equal-length hijacked route wins at the plain customer
    "mh2": lambda rib, harm: (
        "40|192.0.2.0/24|3 50 20||provider" in rib
        and "40" in harm[1].split(",")[3]
    ),
    "mh2_optin": lambda rib, harm: (
        "40|192.0.2.0/24|7 6 20|VERIFIED:1|provider" in rib
        and "40" not in harm[1].split(",")[3]
    ),
    # traffic to the doubly-homed customer goes through the zone provider,
    # not over the peering link
    "transitpeering": lambda rib, harm: (
        "7|192.0.2.0/24|6 20|VERIFIED:1|provider" in rib
    ),
    "transitpeering_exceptions": lambda rows, _: rows[1] == "7,1,20",
    # the leak has no effect: the member keeps the verified zone path
    "leak": lambda rib, harm: (
        "4|192.0.2.0/24|1 3 20|VERIFIED:1|provider" in rib
        and harm[1] == "10,false,0,"
    ),
}


@criterion("1 figure-fixtures")
def test_criterion_1_figure_fixtures(tmp_path):
    for name in FIXTURE_COMMANDS:
        start = time.monotonic()
        got = run_fixture(name, tmp_path / name)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
        assert got == expected_outputs(name), f"{name}: outputs differ from expected"
        if name == "transitpeering_exceptions":
            rows = got["exceptions.csv"].decode().splitlines()
            assert QUALITATIVE[name](rows, None), name
        else:
            rib = got["rib.txt"].decode().splitlines()
            harm = (
                got["harm.csv"].decode().splitlines() if "harm.csv" in got else None
            )
            assert QUALITATIVE[name](rib, harm), name


@criterion("2 oracle-equivalence")
def test_criterion_2_oracle_equivalence(corpus):
    start = time.monotonic()
    for inst in corpus:
        hooks = zone_policy(inst.topo, inst.cfg, inst.reg)
        rib = propagate(inst.topo, inst.origs, hooks)
        oracle = oracle_fixpoint(inst.topo, inst.origs, hooks)
        assert oracle is not None
        assert rib_as_cells(rib) == oracle
    elapsed = time.monotonic() - start
    assert len(corpus) >= 500
    assert elapsed < 120, f"oracle sweep took {elapsed:.1f}s"


def _pick_victim(inst):
    """An attached customer of the zone, if any (lowest ASN for
    reproducibility)."""
    candidates = sorted(
        a
        for a in inst.topo.asns - inst.cfg.members
        if inst.topo.providers_of(a) & inst.cfg.members
    )
    return candidates[0] if candidates else None


@criterion("3 security-properties")
def test_criterion_3_security_properties(corpus):
    pfx = PREFIX_POOL[0]
    checked_a = checked_b = checked_c = 0
    for inst in corpus:
        victim = _pick_victim(inst)
        if victim is None:
            continue
        reg = RegistrySet(roas=[Roa(pfx, victim)])
        origs = [Origination(victim, pfx)]

        # (a) exact-prefix path hijack never misdirects a member while a
        # verified route exists
        reports = sweep_attackers(
            inst.topo, reg, inst.cfg, origs,
            AttackKind.FORGED_ORIGIN_PATH_HIJACK, pfx, victim,
            attackers=inst.topo.asns - inst.cfg.members - {victim},
        )
        for report in reports:
            assert any(
                (r := report.per_as_best.get(m)) is not None
                and VERIFIED in r.communities
                for m in inst.cfg.members
            )
            assert not report.misdirected & inst.cfg.members, (
                inst.topo.records(), inst.cfg.members, victim,
                report.scenario.attacker,
            )
            checked_a += 1

        # (b) covered origin hijacks are dropped at every member perimeter
        reports = sweep_attackers(
            inst.topo, reg, inst.cfg, origs, AttackKind.ORIGIN_HIJACK, pfx, victim,
        )
        for report in reports:
            attacker = report.scenario.attacker
            rib = propagate(
                inst.topo,
                origs + [Origination(attacker, pfx)],
                zone_policy(inst.topo, inst.cfg, reg),
            )
            for m in inst.cfg.members - {attacker}:
                assert all(
                    r.origin != attacker for r in rib.candidates(m, pfx)
                ), (inst.topo.records(), inst.cfg.members, victim, attacker)
                assert m not in report.misdirected
            checked_b += 1

        # (c) negative control: an unprotected sub-prefix penetrates every
        # AS that hears it
        bare = RegistrySet()
        for attacker in sorted(inst.topo.asns - {victim}):
            scenario = AttackScenario(
                AttackKind.SUB_PREFIX_HIJACK, attacker, SUB, victim
            )
            report = run_scenario(
                inst.topo, bare, inst.cfg, [Origination(victim, WIDE)], scenario
            )
            holders = set(report.per_as_best) - {attacker}
            assert report.misdirected == frozenset(holders)
            assert report.misdirected, (inst.topo.records(), attacker)
            checked_c += 1
    assert checked_a > 1000 and checked_b > 1000 and checked_c > 1000


@criterion("4 audit-soundness-completeness")
def test_criterion_4_audit(corpus):
    # Soundness: runs with conformant members yield zero findings.  The
    # corpus registry deliberately contains ROAs contradicting some
    # originations; a member originating such a prefix is genuinely
    # non-conformant, and the audit must flag exactly those members (their
    # conformant neighbors drop the announcement, so it shows up only in
    # the originator's own export).
    audited = 0
    for inst in corpus:
        if not inst.cfg.members:
            continue
        rib = propagate(inst.topo, inst.origs, zone_policy(inst.topo, inst.cfg, inst.reg))
        views = views_from_rib(rib, inst.cfg)
        findings = audit_views(inst.cfg, inst.topo, inst.reg, views)
        expected = {
            (AuditRule.R2_INVALID_ORIGIN, o.asn)
            for o in inst.origs
            if o.asn in inst.cfg.members
            and rov_validate(inst.reg, o.prefix, o.asn) is RovState.INVALID
        }
        assert {(f.rule, f.culprit) for f in findings} == expected, (
            inst.topo.records(), inst.cfg.members,
        )
        audited += 1
    assert audited >= 300

    # Completeness: 100% detection over >= 200 manifested injections.
    rng = random.Random(616)
    detected = 0
    attempts = 0
    per_rule = {rule: 0 for rule in AuditRule}
    while detected < 200 and attempts < 4000:
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
            outsiders = sorted(topo.asns - members - {orig.asn})
            unused = [p for p in PREFIX_POOL if all(o.prefix != p for o in origs)]
            if not outsiders or not unused:
                continue
            target = unused[0]
            reg = RegistrySet(roas=list(roas) + [Roa(target, orig.asn)])
            origs = list(origs) + [Origination(rng.choice(outsiders), target)]
            hooks = accept_invalid_hooks(topo, cfg, reg, member, target)
        else:
            uplinks = sorted(topo.neighbors_of(member) & members)
            if not uplinks:
                continue
            hooks = strip_tag_hooks(topo, cfg, reg, member, rng.choice(uplinks), target)

        views, _ = run_with_fault(topo, cfg, origs, hooks)
        if not manifested(views, cfg, reg, rule, member, target):
            continue
        findings = audit_views(cfg, topo, reg, views)
        assert (rule, member) in {(f.rule, f.culprit) for f in findings}, (
            topo.records(), members, rule, member
        )
        detected += 1
        per_rule[rule] += 1
    assert detected >= 200
    assert all(count > 20 for count in per_rule.values()), per_rule


@criterion("5 analysis-oracles")
def test_criterion_5_analysis_oracles():
    rng = random.Random(1515)
    regions_checked = 0
    for _ in range(150):
        topo = random_topology(rng, rng.randint(4, 15), rng.randint(0, 8))
        members = random_connected_members(rng, topo)
        cfg = ZoneConfig(members=members)

        # local regions vs the formal path criterion
        for customer in sorted(topo.asns - members):
            got = local_region(topo, cfg, customer).region
            want = brute_force_local_region(topo, members, customer)
            assert got == want, (topo.records(), members, customer)
            regions_checked += 1

        # connected-zone derivation vs upward BFS through the roster
        roster = {a for a in topo.asns if rng.random() < 0.5}
        derivation = derive_connected_zone(topo, roster)
        for start in roster:
            stack, seen, reachable = [start], {start}, False
            while stack:
                node = stack.pop()
                if not topo.providers_of(node):
                    reachable = True
                    break
                stack.extend(
                    p for p in topo.providers_of(node)
                    if p in roster and p not in seen and not seen.add(p)
                )
            assert reachable == (start in derivation.connected_members)

        # growth curves monotone under both orders
        sizes = list(range(1, len(topo.asns) + 1))
        for order in GrowthOrder:
            counts = [c for _, c in zone_growth_curve(topo, order, sizes)]
            assert counts == sorted(counts)
    assert regions_checked > 500


@criterion("6 dataset-reproduction")
def test_criterion_6_dataset_reproduction():
    asrel = os.environ.get("ZONESIM_CAIDA_ASREL")
    roster_path = os.environ.get("ZONESIM_MANRS_ROSTER")
    if not asrel or not roster_path:
        pytest.skip(
            "May 2023 CAIDA AS-relationship snapshot and MANRS roster not "
            "supplied (set ZONESIM_CAIDA_ASREL and ZONESIM_MANRS_ROSTER)"
        )
    raw = Path(asrel).read_bytes()
    if asrel.endswith(".bz2"):
        raw = bz2.decompress(raw)
    topo = load_topology(raw)
    roster = [
        int(line)
        for line in Path(roster_path).read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    derivation = derive_connected_zone(topo, roster)
    assert len(derivation.connected_members) == 613
    assert len(derivation.attached_customers) == 25916

    curve = zone_growth_curve(topo, GrowthOrder.BY_CONE_SIZE, [600])
    assert curve[0][1] == 53112
    transit = sum(1 for a in topo.asns if topo.customers_of(a))
    assert transit == 11458

    dist = local_region_distribution(topo, [600])
    assert 0.3 <= dist.summaries[0].frac_leq_1 <= 0.6


@criterion("7 cli-determinism")
def test_criterion_7_cli_determinism(tmp_path):
    for name in FIXTURE_COMMANDS:
        first = run_fixture(name, tmp_path / f"{name}-a")
        second = run_fixture(name, tmp_path / f"{name}-b")
        assert first == second, f"{name}: repeated runs differ"
        assert first == expected_outputs(name)
