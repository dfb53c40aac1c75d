"""Hijack and leak scenarios, with owner-harm and misdirection classification.

A scenario injects one bad announcement into an otherwise legitimate
network, solves the fixpoint under the zone policy, and then traces the
data plane from every AS toward a representative victim address (the
numerically lowest address of the attacked prefix, so traces are
reproducible).  An AS suffers misdirection when its traffic ends up at the
attacker: for hijacks, when its trace terminates at the attacker; for route
leaks, when its trace enters the leaker over one of the leaker's provider
links, i.e. takes the leaked detour.  The attacker itself is never counted.

run_scenario and sweep_attackers solve only what the harm report reads: the
legitimate originations whose prefix contains the victim address, plus the
injection (a leak sweep's baseline solves only the victim prefix).  Every
origination is still validated.  Prefixes are solved independently, and the
trace, the victim prefix's bests and the sub-prefix check's covering prefix
all lie among those containing the victim address, so reports are the same
as from a full solve; a prefix that does not contain it can no longer make
them raise NonConvergenceError.  scenario_rib, and so ``simulate
--scenario``, still solves every prefix; for a leak, the victim prefix
under the leak's hooks and the others under the zone's own, and a
NonConvergenceError names the failing prefixes of both solves.

classify_harm reads only the RIB's prefixes that hold the victim address:
one pass over their rows gives each AS's best for the victim prefix (owner
harm) and its longest match for the victim address (its next hop).  One
walk over the ASes, memoized, then settles whether each one's traffic is
delivered, and whether to the attacker or via the leak.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from ._lines import read_lines, table
from .registry import Prefix, RegistrySet, _prefix_reader, parse_prefix
from .routing import (
    NonConvergenceError,
    Origination,
    PolicyHooks,
    Rib,
    Route,
    _merged_rib,
    _normalize_originations,
    _prefix_sort_key,
    propagate,
)
from .topology import MAX_ASN, Rel, Topology
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
        _check_forged_path(self.forged_path or ())
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


def _check_forged_path(path: Sequence[int]) -> Sequence[int]:
    # A forged path's ASNs, as an AS path may hold them: 1..2**32-1 (RFC 7607).
    for asn in path:
        if not 0 < asn <= MAX_ASN:
            raise ScenarioError(f"invalid ASN {asn} in forged_path: must be in 1..{MAX_ASN}")
    return path


@dataclass(frozen=True)
class HarmReport:
    """Outcome of one scenario run.

    owner_harm: the attacker's announcement is the best route for the
    attacked prefix of some AS other than the attacker.  misdirected: ASes
    whose forwarding trace toward the victim address is captured by the
    attacker.  per_as_best summarizes each AS's selected route for the
    attacked prefix.
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
    """Force the leaker to re-export its provider-learned route to every
    other provider; everything else follows the base policy.  scenario_rib
    solves only the victim prefix under these hooks."""
    leaker = scenario.attacker
    leaked_from = scenario.leaked_from
    other_providers = topo.providers_of(leaker) - {leaked_from}

    def export_route(exporter, neighbor, rel, route):
        return (
            exporter == leaker
            and neighbor in other_providers
            and route.learned_from == leaked_from
        ) or base.export_route(exporter, neighbor, rel, route)

    return replace(base, export_route=export_route)


def _is_attacker_route(
    route: Route, scenario: AttackScenario, holder: int, topo: Topology, injected: tuple
) -> bool:
    """The leaked copy for a leak, else a route ending with the injected path."""
    if scenario.kind is AttackKind.ROUTE_LEAK:
        return _is_leaked_copy(route, scenario, holder, topo)
    return route.as_path[-len(injected):] == injected


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
) -> Rib:
    """Solve the network with the scenario's injection (or leak) in place."""
    _check_asns(topo, vars(scenario))
    if scenario.kind is AttackKind.ROUTE_LEAK:
        leaker, source = f"leaker AS{scenario.attacker}", f"AS{scenario.leaked_from}"
        providers = topo.providers_of(scenario.attacker)
        if scenario.leaked_from not in providers:
            raise ScenarioError(f"leaked_from {source} is not a provider of {leaker}")
        if len(providers) < 2:
            raise ScenarioError(f"{leaker} has no provider to leak to besides {source}")
    legits = _normalize_originations(topo, legitimate_originations)
    if scenario.kind is AttackKind.SUB_PREFIX_HIJACK:
        victim = scenario.victim_prefix
        covering = [
            o for o in legits
            if o.asn == scenario.victim_origin and o.prefix.version == victim.version
            and victim != o.prefix and victim.subnet_of(o.prefix)
        ]
        if not covering:
            raise ScenarioError(
                "sub-prefix hijack requires the victim to originate a strict supernet"
            )

    hooks = zone_policy(topo, cfg, reg)
    if scenario.kind is not AttackKind.ROUTE_LEAK:
        return propagate(topo, legits + [_injection(scenario)], hooks)
    # A leak changes only the victim prefix's export: it is solved under
    # the leak hooks, every other prefix under the zone's own.
    victim = scenario.victim_prefix
    solves = (
        ([o for o in legits if o.prefix == victim], _leak_hooks(topo, hooks, scenario)),
        ([o for o in legits if o.prefix != victim], hooks),
    )
    ribs, oscillating = [], {}
    for originations, solve_hooks in solves:
        try:
            ribs.append(propagate(topo, originations, solve_hooks))
        except NonConvergenceError as exc:
            oscillating.update(exc.oscillating)
    if oscillating:
        raise NonConvergenceError(
            {p: oscillating[p] for p in sorted(oscillating, key=_prefix_sort_key)}
        )
    return _merged_rib(*ribs)


def run_scenario(
    topo: Topology,
    reg: RegistrySet,
    cfg: ZoneConfig,
    legitimate_originations: Iterable,
    scenario: AttackScenario,
) -> HarmReport:
    """Inject the scenario, solve the network, and classify the harm.

    Only the legitimate originations whose prefix contains the victim
    address are solved (see the module docstring); all are validated.
    """
    legits = _holding_victim(topo, legitimate_originations, scenario.victim_prefix)
    rib = scenario_rib(topo, reg, cfg, legits, scenario)
    return classify_harm(topo, rib, scenario)


def _holding_victim(topo: Topology, originations: Iterable, victim_prefix: Prefix) -> list:
    # The originations, all validated, whose prefix holds the victim address.
    address = victim_prefix.network_address
    return [
        o for o in _normalize_originations(topo, originations)
        if o.prefix.version == address.version and address in o.prefix
    ]


def classify_harm(
    topo: Topology,
    rib: Rib,
    scenario: AttackScenario,
) -> HarmReport:
    """Evaluate an already-solved RIB against the scenario in one pass over
    the bests of the prefixes holding the victim address and one walk over
    the ASes, O(ASes + those rows).  Misdirection is what data_plane_trace
    from every AS but the attacker would find.
    """
    attacker = scenario.attacker
    injected = _injection(scenario).route().as_path

    # next_hop[asn]: where the AS's longest match for the victim address
    # sends traffic, the AS itself for a local route; absent without one.
    # The prefixes holding the address come shortest first, so each AS's
    # last one is its longest match; the one of the victim prefix's length
    # is the victim prefix.
    next_hop: dict[int, int] = {}
    per_as_best = {}
    for prefix, bests in rib._prefixes(scenario.victim_prefix.network_address):
        for asn, route in bests.items():
            next_hop[asn] = asn if route.learned_rel is Rel.SELF else route.as_path[0]
        if prefix.prefixlen == scenario.victim_prefix.prefixlen:
            per_as_best = rib._bests(prefix)
    owner_harm = any(
        asn != attacker and _is_attacker_route(best, scenario, asn, topo, injected)
        for asn, best in per_as_best.items()
    )

    # captured[asn]: whether the AS's traffic is delivered to the attacker
    # (for a leak: enters the leaker from one of its providers), or None if
    # it is not delivered.  An AS on the current walk reads None until the
    # walk is settled, so a walk that comes back to it ends in a loop.
    leak = scenario.kind is AttackKind.ROUTE_LEAK
    leaker_providers = topo.providers_of(attacker) if leak else frozenset()
    captured: dict[int, bool | None] = {}
    misdirected = set()
    for src in topo.asns:
        walk = []
        asn = src
        while asn not in captured:
            hop = next_hop.get(asn)
            if hop is None or hop == asn:
                captured[asn] = None if hop is None else asn == attacker and not leak
            else:
                captured[asn] = None
                walk.append(asn)
                asn = hop
        tail = captured[asn]
        for asn in reversed(walk):
            if tail is not None:
                tail = tail or (next_hop[asn] == attacker and asn in leaker_providers)
                if tail and asn != attacker:
                    misdirected.add(asn)
            captured[asn] = tail
    return HarmReport(scenario, owner_harm, frozenset(misdirected), per_as_best)


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
) -> list[HarmReport]:
    """Run one scenario per candidate attacker position.

    The candidates are `attackers` (by default every AS) less the victim
    origin, which is skipped, never an error.  Forged-path sweeps
    use the minimal forgery (attacker prepended straight to the victim
    origin).  Leak sweeps only consider multi-homed ASes and leak the
    provider their route actually arrived on; positions without a
    provider-learned route are skipped.  The originations are validated
    and filtered once, before any candidate is run or skipped, and every
    candidate is checked against the topology.
    """
    legits = _holding_victim(topo, originations, victim_prefix)
    candidates = topo.asns if attackers is None else attackers
    candidates = sorted(a for a in candidates if a != victim_origin)
    for attacker in candidates:
        _check_asns(topo, {"attacker": attacker})

    baseline = None
    if kind is AttackKind.ROUTE_LEAK:
        # The baseline is read only for the victim prefix.
        victim_legits = [o for o in legits if o.prefix == victim_prefix]
        baseline = propagate(topo, victim_legits, zone_policy(topo, cfg, reg))

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
        rib = scenario_rib(topo, reg, cfg, legits, scenario)
        reports.append(classify_harm(topo, rib, scenario))
    return reports


def harm_csv(reports: Sequence[HarmReport]) -> str:
    return table(HARM_CSV_HEADER, (r.csv_row() for r in reports))


# Scenario file keys, named after the AttackScenario fields they set.
_SCENARIO_FIELDS = {
    "kind": AttackKind,
    "attacker": int,
    "victim_prefix": parse_prefix,
    "victim_origin": int,
    "forged_path": lambda v: _check_forged_path(tuple(map(int, v.split()))) or None,
    "leaked_from": int,
}
_REQUIRED_FIELDS = ("kind", "attacker", "victim_prefix", "victim_origin")


def load_scenario(source: str) -> AttackScenario:
    """Parse a key-value scenario file.

    Keys: kind, attacker, victim_prefix, victim_origin, forged_path
    (space-separated, origin last), leaked_from.
    """
    return _scenario(_scenario_fields(source))


def _scenario_fields(source: str, prefixes: dict[str, Prefix] | None = None) -> dict:
    """A scenario file's fields by key; each line is parsed on its own, and
    the last line naming a key wins.  prefixes is parse_rib_dump's optional
    memo of parsed prefix texts, for the victim prefix."""
    fields = {}
    parsers = {**_SCENARIO_FIELDS, "victim_prefix": _prefix_reader(prefixes)}

    def parse(line: str) -> None:
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in parsers:
            raise ScenarioError(f"malformed scenario line {line!r}")
        fields[key] = parsers[key](value.strip())

    read_lines(source, parse, ScenarioError)
    return fields


def _scenario(fields: dict) -> AttackScenario:
    for key in _REQUIRED_FIELDS:
        if key not in fields:
            raise ScenarioError(f"scenario file missing field {key!r}")
    return AttackScenario(**fields)


def _check_asns(topo: Topology, fields: Mapping) -> None:
    """Reject an attacker, victim origin or leak source, when present in a
    scenario file's or a scenario's fields, that the topology lacks."""
    for key in ("attacker", "victim_origin", "leaked_from"):
        asn = fields.get(key)
        if asn is not None and asn not in topo.asns:
            raise ScenarioError(f"{key} AS{asn} not in topology")
