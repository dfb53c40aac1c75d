"""Zone-of-trust policy: perimeter verification and the VERIFIED community.

Members of a connected zone verify single-hop announcements from directly
attached neighbors and tag the good ones with a VERIFIED community; tagged
routes are preferred over untagged ones for the same prefix everywhere
inside the zone.  The import rules applied at each member, in order:

  R1  strip VERIFIED from anything arriving from a non-member;
  R2  drop announcements whose origin is RPKI-invalid;
  R3  drop announcements whose first-hop ASN fails the know-your-customer
      check for that session;
  R4  retain VERIFIED arriving from another member;
  R5  for a single-hop route from a directly attached customer or peer,
      verify the origin: add VERIFIED or pass through unverified;
  ASPA-EXT  optionally extend R5 to two-hop routes whose far pair is
      confirmed by a provider-authorization record (never longer paths);
  R6  anything else is forwarded without the tag.

Tags change only on import: the engine sends each export unchanged and the
zone policy forces none, so customers of members can see which routes were
verified on entry.  Rule 7 (route-collector export) is realized by the RIB
dump in the routing module.

Only R2 and R5 read a route's prefix, and only through whether its origin
is RPKI-invalid and the R5 verdict at a member adjacent to the origin.  The
zone policy's class key is built from those, so prefixes that agree on them
are solved once (see routing.propagate).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from ._lines import read_lines
from .registry import (
    AspaState,
    OriginVerdict,
    RegistrySet,
    RovState,
    aspa_pair_valid,
    rov_validate,
    verify_customer_origin,
)
from .routing import (
    _PLAIN_ORDER, VERIFIED, Origination, PolicyHooks, PreferenceOrder, Route, _route,
)
from .topology import Rel, Topology


class ZoneValidationError(ValueError):
    """Raised when a membership set is not a connected zone."""

    def __init__(self, violations: list[int]):
        self.violations = list(violations)
        names = ", ".join(f"AS{a}" for a in self.violations)
        super().__init__(f"members without a member transit provider: {names}")


@dataclass(frozen=True)
class ZoneConfig:
    """Zone membership plus rule toggles.

    honor_verified_non_members lists non-members that opt in to preferring
    VERIFIED routes from their member neighbors (stripping tags arriving
    from non-members first).
    """

    members: frozenset[int]
    aspa_extension: bool = False
    honor_verified_non_members: frozenset[int] = frozenset()


class Outcome(enum.Enum):
    DROP = "drop"
    FORWARD_VERIFIED = "forward_verified"
    FORWARD_UNVERIFIED = "forward_unverified"


@dataclass(frozen=True)
class VerificationOutcome:
    outcome: Outcome
    reason: str


def validate_zone(topo: Topology, members: Iterable[int]) -> ZoneConfig:
    """Check zone connectivity: every member is provider-free or has a
    member transit provider.  Raises ZoneValidationError listing each
    disconnected member; unknown ASNs are a TopologyError.
    """
    member_set = frozenset(members)
    for asn in member_set:
        topo._require(asn)
    violations = sorted(
        asn
        for asn in member_set
        if topo.providers_of(asn) and not (topo.providers_of(asn) & member_set)
    )
    if violations:
        raise ZoneValidationError(violations)
    return ZoneConfig(members=member_set)


# Shared by every import: one frozen outcome per rule, and the tag as a set.
_R2, _R3 = (VerificationOutcome(Outcome.DROP, rule) for rule in ("R2", "R3"))
_R4, _R5, _ASPA_EXT = (
    VerificationOutcome(Outcome.FORWARD_VERIFIED, rule) for rule in ("R4", "R5", "ASPA-EXT")
)
_R6, _TAG = VerificationOutcome(Outcome.FORWARD_UNVERIFIED, "R6"), frozenset({VERIFIED})


def member_import(
    cfg: ZoneConfig,
    reg: RegistrySet,
    member: int,
    neighbor: int,
    neighbor_rel: Rel,
    route: Route,
) -> tuple[VerificationOutcome, Route | None]:
    """Apply the zone import rules at a member; the route has already
    passed the engine's loop check.

    Returns the decided outcome, one shared constant per rule, and the
    route: the very object passed in unless re-tagged, None when dropped.
    """
    in_zone = neighbor in cfg.members
    prefix, path = route.prefix, route.as_path

    # R1: no tag survives entry from outside the zone.
    if not in_zone and VERIFIED in route.communities:
        route = _route(prefix, path, route.communities - _TAG, route.learned_rel)

    # R2: RPKI-invalid origins are dropped no matter the source.
    if rov_validate(reg, prefix, path[-1]) is RovState.INVALID:
        return _R2, None

    # R3: the ASN the neighbor used must be one the member knows is theirs.
    entry = reg.kyc.get((member, neighbor))
    allowed = entry.allowed_asns if entry else None
    if (path[0] not in allowed) if allowed else path[0] != neighbor:
        return _R3, None

    # R4: trust tags relayed by other members.
    if in_zone and VERIFIED in route.communities:
        return _R4, route

    if neighbor_rel in (Rel.CUSTOMER, Rel.PEER):
        hops = set(path)
        # R5: verify single-hop originations from directly attached
        # sessions.  Members announcing their own prefixes over a direct
        # session are verified the same way.  R2 and R3 have already
        # dropped every origin the verdict would reject.
        if len(hops) == 1:
            verdict = verify_customer_origin(reg, member, neighbor, prefix, route.origin)
            if verdict is OriginVerdict.VERIFIED:
                return _R5, _route(prefix, path, route.communities | _TAG, route.learned_rel)
        # ASPA-EXT: a two-hop path may be verified when the origin has
        # registered the adjacent AS as a provider; never longer paths.
        elif (
            cfg.aspa_extension and not in_zone and len(hops) == len(path) == 2
            and hops.isdisjoint(cfg.members)
            and aspa_pair_valid(reg, route.origin, path[0]) is AspaState.CONFIRMED
        ):
            return _ASPA_EXT, _route(prefix, path, route.communities | _TAG, route.learned_rel)

    # R6: not established as valid; forward without the tag.
    return _R6, route


_VERIFIED_FIRST_ORDER = PreferenceOrder(verified_first=True)


def member_preference(cfg: ZoneConfig, asn: int) -> PreferenceOrder:
    """Members and opted-in non-members rank VERIFIED routes first.

    Orders are frozen, so every AS shares one of the two.
    """
    if asn in cfg.members or asn in cfg.honor_verified_non_members:
        return _VERIFIED_FIRST_ORDER
    return _PLAIN_ORDER


def zone_policy(topo: Topology, cfg: ZoneConfig, reg: RegistrySet) -> PolicyHooks:
    """Bundle the zone rules as hooks for the propagation engine."""
    members = cfg.members
    honor = cfg.honor_verified_non_members

    def import_route(importer: int, neighbor: int, rel: Rel, route: Route) -> Route | None:
        if importer in members:
            _, admitted = member_import(cfg, reg, importer, neighbor, rel, route)
            return admitted
        if importer in honor and neighbor not in members and VERIFIED in route.communities:
            # Opted-in non-members only trust tags from member sessions.
            return _route(route.prefix, route.as_path, route.communities - _TAG, route.learned_rel)
        return route

    def preference_for(asn: int) -> PreferenceOrder:
        return member_preference(cfg, asn)

    def prefix_class(prefix, originations: list[Origination]) -> tuple:
        # Per origination: its announcement, whether R2 drops its origin
        # as RPKI-invalid (R2 reads no more of the ROV state), and the
        # verdict R5 would reach at each member adjacent to the origin
        # (none if R2 drops the origin first, or if a forged path's origin
        # is outside the topology).
        key = []
        for orig in originations:
            route = orig.route()
            origin = route.origin
            invalid = rov_validate(reg, prefix, origin) is RovState.INVALID
            adjacent = topo.neighbors_of(origin) & members if origin in topo.asns else ()
            verdicts = () if invalid else tuple(
                verify_customer_origin(reg, member, origin, prefix, origin)
                for member in sorted(adjacent)
            )
            key.append((orig.asn, route.as_path, route.communities, invalid, verdicts))
        return tuple(key)

    return PolicyHooks(import_route, preference_for=preference_for, prefix_class=prefix_class)


def load_zone_config(source: str) -> ZoneConfig:
    """Parse a zone config file: one member ASN per line plus key-value
    header lines (``aspa_extension=true|false``, optional
    ``honor_verified=<asn;asn;...>``).
    """
    members: set[int] = set()
    aspa_extension = False
    honor: frozenset[int] = frozenset()

    def parse(line: str) -> None:
        nonlocal aspa_extension, honor
        if "=" not in line:
            members.add(int(line))
            return
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "aspa_extension":
            if value not in ("true", "false"):
                raise ValueError("aspa_extension must be true|false")
            aspa_extension = value == "true"
        elif key == "honor_verified":
            honor = frozenset(int(a) for a in value.split(";") if a)
        else:
            raise ValueError(f"unknown zone config key {key!r}")

    read_lines(source, parse, ValueError)
    return ZoneConfig(
        members=frozenset(members),
        aspa_extension=aspa_extension,
        honor_verified_non_members=honor,
    )
