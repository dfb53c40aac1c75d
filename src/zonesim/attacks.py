"""Hijack and leak scenarios, with owner-harm and misdirection classification.

A scenario injects one bad announcement into an otherwise legitimate
network, solves the fixpoint under the zone policy, and then traces the
data plane from every AS toward a representative victim address (the
numerically lowest address of the attacked prefix, so traces are
reproducible).  An AS suffers misdirection when its traffic ends up at the
attacker: for hijacks, when its trace terminates at the attacker; for route
leaks, when its trace enters the leaker over one of the leaker's provider
links, i.e. takes the leaked detour.  The attacker itself is never counted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ._lines import read_lines
from .registry import Prefix, RegistrySet, parse_prefix
from .routing import (
    Origination,
    PolicyHooks,
    Rib,
    Route,
    TraceOutcome,
    data_plane_trace,
    propagate,
)
from .topology import Rel, Topology
from .vipzone import ZoneConfig, zone_policy


class ScenarioError(ValueError):
    """Raised for scenarios whose shape is invalid."""


class AttackKind(enum.Enum):
    ORIGIN_HIJACK = "OriginHijack"
    FORGED_ORIGIN_PATH_HIJACK = "ForgedOriginPathHijack"
    SUB_PREFIX_HIJACK = "SubPrefixHijack"
    ROUTE_LEAK = "RouteLeak"


@dataclass(frozen=True)
class AttackScenario:
    """One attack: who, what prefix, and how the announcement is shaped.

    forged_path (origin last, excluding the attacker) applies to forged
    path hijacks; leaked_from names the provider whose routes the leaker
    re-exports to its other providers.
    """

    kind: AttackKind
    attacker: int
    victim_prefix: Prefix
    victim_origin: int
    forged_path: tuple[int, ...] | None = None
    leaked_from: int | None = None

    def __post_init__(self):
        if self.kind is AttackKind.FORGED_ORIGIN_PATH_HIJACK:
            if not self.forged_path:
                raise ScenarioError("forged path hijack requires forged_path")
            if self.forged_path[-1] != self.victim_origin:
                raise ScenarioError("forged_path must end with the victim origin")
            if self.attacker in self.forged_path:
                raise ScenarioError("attacker may not appear inside forged_path")
        if self.kind is AttackKind.ROUTE_LEAK and self.leaked_from is None:
            raise ScenarioError("route leak requires leaked_from")
        if self.kind is not AttackKind.ROUTE_LEAK and self.attacker == self.victim_origin:
            raise ScenarioError("attacker and victim origin must differ")


@dataclass(frozen=True)
class HarmReport:
    """Outcome of one scenario run.

    owner_harm: the attacker's announcement is someone's best route for the
    attacked prefix within the watch set (all ASes but the attacker, unless
    narrowed).  misdirected: ASes whose forwarding trace toward the victim
    address is captured by the attacker.  per_as_best summarizes each AS's
    selected route for the attacked prefix.
    """

    scenario: AttackScenario
    owner_harm: bool
    misdirected: frozenset[int]
    per_as_best: Mapping[int, Route] = field(default_factory=dict)

    def csv_row(self) -> str:
        asns = ";".join(str(a) for a in sorted(self.misdirected))
        return (
            f"{self.scenario.attacker},{str(self.owner_harm).lower()},"
            f"{len(self.misdirected)},{asns}"
        )


HARM_CSV_HEADER = "attacker,owner_harm,misdirected_count,misdirected_asns"


def _injection(scenario: AttackScenario) -> Origination:
    if scenario.kind is AttackKind.FORGED_ORIGIN_PATH_HIJACK:
        path = (scenario.attacker,) + tuple(scenario.forged_path)
        return Origination(scenario.attacker, scenario.victim_prefix, path)
    return Origination(scenario.attacker, scenario.victim_prefix)


def _leak_hooks(topo: Topology, base: PolicyHooks, scenario: AttackScenario) -> PolicyHooks:
    """Force the leaker to re-export its provider-learned victim route to
    every other provider; everything else follows the base policy."""
    leaker = scenario.attacker
    leaked_from = scenario.leaked_from
    other_providers = topo.providers_of(leaker) - {leaked_from}

    def export_route(exporter, neighbor, rel, route, gr_allows):
        if (
            exporter == leaker
            and neighbor in other_providers
            and route.prefix == scenario.victim_prefix
            and route.learned_from == leaked_from
        ):
            return route
        return base.export_route(exporter, neighbor, rel, route, gr_allows)

    return PolicyHooks(base.import_route, export_route, base.preference_for)


def _is_attacker_route(route: Route, scenario: AttackScenario, holder: int, topo: Topology) -> bool:
    if scenario.kind is AttackKind.ROUTE_LEAK:
        return _is_leaked_copy(route, scenario, holder, topo)
    injected = _injection(scenario)
    inj_path = injected.route().as_path
    return route.as_path[-len(inj_path):] == inj_path


def _is_leaked_copy(route: Route, scenario: AttackScenario, holder: int, topo: Topology) -> bool:
    path = route.as_path
    leaker, leaked_from = scenario.attacker, scenario.leaked_from
    for i, asn in enumerate(path):
        if asn != leaker or i + 1 >= len(path) or path[i + 1] != leaked_from:
            continue
        before = path[i - 1] if i > 0 else holder
        if before in topo.providers_of(leaker):
            return True
    return False


def scenario_rib(
    topo: Topology,
    reg: RegistrySet,
    cfg: ZoneConfig,
    legitimate_originations: Iterable,
    scenario: AttackScenario,
    *,
    workers: int = 1,
) -> Rib:
    """Solve the network with the scenario's injection (or leak) in place."""
    if scenario.attacker not in topo.asns:
        raise ScenarioError(f"attacker AS{scenario.attacker} not in topology")
    legits = list(legitimate_originations)
    if scenario.kind is AttackKind.SUB_PREFIX_HIJACK:
        covering = [
            o for o in _prefixes_of(legits, scenario.victim_origin)
            if scenario.victim_prefix != o and scenario.victim_prefix.subnet_of(o)
        ]
        if not covering:
            raise ScenarioError(
                "sub-prefix hijack requires the victim to originate a strict supernet"
            )

    hooks = zone_policy(topo, cfg, reg)
    originations = list(legits)
    if scenario.kind is AttackKind.ROUTE_LEAK:
        hooks = _leak_hooks(topo, hooks, scenario)
    else:
        originations.append(_injection(scenario))
    return propagate(topo, originations, hooks, workers=workers)


def run_scenario(
    topo: Topology,
    reg: RegistrySet,
    cfg: ZoneConfig,
    legitimate_originations: Iterable,
    scenario: AttackScenario,
    *,
    watch: Iterable[int] | None = None,
    workers: int = 1,
) -> HarmReport:
    """Inject the scenario, solve the network, and classify the harm."""
    rib = scenario_rib(
        topo, reg, cfg, legitimate_originations, scenario, workers=workers
    )
    return classify_harm(topo, rib, scenario, watch=watch)


def classify_harm(
    topo: Topology,
    rib: Rib,
    scenario: AttackScenario,
    *,
    watch: Iterable[int] | None = None,
) -> HarmReport:
    """Evaluate an already-solved RIB against the scenario."""
    victim_addr = scenario.victim_prefix.network_address
    attacker = scenario.attacker
    watch_set = frozenset(watch) if watch is not None else topo.asns - {attacker}

    misdirected = set()
    for asn in sorted(topo.asns):
        if asn == attacker:
            continue
        hops, outcome = data_plane_trace(rib, asn, victim_addr)
        if outcome is not TraceOutcome.DELIVERED:
            continue
        if scenario.kind is AttackKind.ROUTE_LEAK:
            if _trace_takes_leak_detour(hops, scenario, topo):
                misdirected.add(asn)
        elif hops[-1] == attacker:
            misdirected.add(asn)

    per_as_best = {}
    owner_harm = False
    for asn in sorted(topo.asns):
        best = rib.best(asn, scenario.victim_prefix)
        if best is None:
            continue
        per_as_best[asn] = best
        if asn in watch_set and asn != attacker and _is_attacker_route(
            best, scenario, asn, topo
        ):
            owner_harm = True
    return HarmReport(scenario, owner_harm, frozenset(misdirected), per_as_best)


def _trace_takes_leak_detour(
    hops: Sequence[int], scenario: AttackScenario, topo: Topology
) -> bool:
    leaker = scenario.attacker
    providers = topo.providers_of(leaker)
    return any(
        hops[i + 1] == leaker and hops[i] in providers for i in range(len(hops) - 1)
    )


def _prefixes_of(originations: Iterable, asn: int) -> list[Prefix]:
    prefixes = []
    for item in originations:
        orig = item if isinstance(item, Origination) else Origination(*item)
        if orig.asn == asn:
            prefixes.append(orig.prefix)
    return prefixes


def sweep_attackers(
    topo: Topology,
    reg: RegistrySet,
    cfg: ZoneConfig,
    originations: Iterable,
    kind: AttackKind,
    victim_prefix: Prefix,
    victim_origin: int,
    *,
    attackers: Iterable[int] | None = None,
    watch: Iterable[int] | None = None,
) -> list[HarmReport]:
    """Run one scenario per candidate attacker position.

    Defaults to every AS other than the victim origin.  Forged-path sweeps
    use the minimal forgery (attacker prepended straight to the victim
    origin).  Leak sweeps only consider multi-homed ASes and leak the
    provider their route actually arrived on; positions without a
    provider-learned route are skipped.
    """
    legits = list(originations)
    if attackers is None:
        candidates = sorted(topo.asns - {victim_origin})
    else:
        candidates = sorted(attackers)

    baseline = None
    if kind is AttackKind.ROUTE_LEAK:
        baseline = propagate(topo, legits, zone_policy(topo, cfg, reg))

    reports = []
    for attacker in candidates:
        if kind is AttackKind.ROUTE_LEAK:
            if len(topo.providers_of(attacker)) < 2:
                continue
            best = baseline.best(attacker, victim_prefix)
            if best is None or best.learned_rel is not Rel.PROVIDER:
                continue
            scenario = AttackScenario(
                kind, attacker, victim_prefix, victim_origin,
                leaked_from=best.learned_from,
            )
        elif kind is AttackKind.FORGED_ORIGIN_PATH_HIJACK:
            scenario = AttackScenario(
                kind, attacker, victim_prefix, victim_origin,
                forged_path=(victim_origin,),
            )
        else:
            scenario = AttackScenario(kind, attacker, victim_prefix, victim_origin)
        reports.append(
            run_scenario(topo, reg, cfg, legits, scenario, watch=watch)
        )
    return reports


def harm_csv(reports: Sequence[HarmReport]) -> str:
    lines = [HARM_CSV_HEADER]
    lines += [r.csv_row() for r in reports]
    return "\n".join(lines) + "\n"


# Scenario file keys, named after the AttackScenario fields they set.
_SCENARIO_FIELDS = {
    "kind": AttackKind,
    "attacker": int,
    "victim_prefix": parse_prefix,
    "victim_origin": int,
    "forged_path": lambda v: tuple(int(a) for a in v.split()) or None,
    "leaked_from": int,
}
_REQUIRED_FIELDS = ("kind", "attacker", "victim_prefix", "victim_origin")


def load_scenario(source: str) -> AttackScenario:
    """Parse a key-value scenario file.

    Keys: kind, attacker, victim_prefix, victim_origin, forged_path
    (space-separated, origin last), leaked_from.
    """
    fields = {}

    def parse(line: str) -> None:
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _SCENARIO_FIELDS:
            raise ScenarioError(f"malformed scenario line {line!r}")
        fields[key] = _SCENARIO_FIELDS[key](value.strip())

    read_lines(source, parse, ScenarioError)
    for key in _REQUIRED_FIELDS:
        if key not in fields:
            raise ScenarioError(f"scenario file missing field {key!r}")
    return AttackScenario(**fields)
