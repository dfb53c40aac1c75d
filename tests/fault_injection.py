"""Non-conformant member behaviors for audit testing.

Each injector wraps the zone policy hooks so one member misbehaves in a
specific way while everyone else stays conformant; the returned ground
truth names the rule broken and the culprit.  Detection tests then demand
the auditor reproduce exactly that ground truth from the exported views.
"""

from __future__ import annotations

from dataclasses import replace

from zonesim.audit import AuditRule, views_from_rib
from zonesim.registry import RegistrySet, RovState, rov_validate
from zonesim.routing import VERIFIED, PolicyHooks, propagate
from zonesim.topology import Topology
from zonesim.vipzone import ZoneConfig, zone_policy


def false_verified_hooks(
    topo: Topology, cfg: ZoneConfig, reg: RegistrySet, member: int, prefix
) -> PolicyHooks:
    """The member tags multi-hop perimeter imports of `prefix` as VERIFIED."""
    base = zone_policy(topo, cfg, reg)

    def import_route(importer, neighbor, rel, route):
        admitted = base.import_route(importer, neighbor, rel, route)
        if (
            admitted is not None
            and importer == member
            and neighbor not in cfg.members
            and route.prefix == prefix
            and len(set(admitted.as_path)) > 1
            # only cleanly attributable faults: a path that already crossed
            # the zone pins the entry on the earlier member, not this one
            and not (set(admitted.as_path) & cfg.members)
        ):
            return replace(admitted, communities=admitted.communities | {VERIFIED})
        return admitted

    # Rebuilt without the zone's prefix_class on purpose: import_route reads
    # route.prefix == prefix, which the class key cannot see, so keeping it
    # would let the faulted prefix share a solve with clean ones.
    return PolicyHooks(import_route, base.export_route, base.preference_for)


def accept_invalid_hooks(
    topo: Topology, cfg: ZoneConfig, reg: RegistrySet, member: int, prefix
) -> PolicyHooks:
    """The member forwards RPKI-invalid announcements for `prefix` instead
    of dropping them."""
    base = zone_policy(topo, cfg, reg)

    def import_route(importer, neighbor, rel, route):
        admitted = base.import_route(importer, neighbor, rel, route)
        if (
            admitted is None
            and importer == member
            and route.prefix == prefix
            and rov_validate(reg, route.prefix, route.origin) is RovState.INVALID
        ):
            return replace(route, communities=route.communities - {VERIFIED})
        return admitted

    # Without prefix_class on purpose, as in false_verified_hooks: this
    # import_route reads route.prefix too.
    return PolicyHooks(import_route, base.export_route, base.preference_for)


def strip_tag_hooks(
    topo: Topology, cfg: ZoneConfig, reg: RegistrySet, member: int, upstream: int, prefix
) -> PolicyHooks:
    """The member drops the VERIFIED tag on routes learned from a fellow
    member for `prefix`."""
    base = zone_policy(topo, cfg, reg)

    def import_route(importer, neighbor, rel, route):
        admitted = base.import_route(importer, neighbor, rel, route)
        if (
            admitted is not None
            and importer == member
            and neighbor == upstream
            and route.prefix == prefix
        ):
            return replace(admitted, communities=admitted.communities - {VERIFIED})
        return admitted

    # Without prefix_class on purpose, as in false_verified_hooks: this
    # import_route reads route.prefix too.
    return PolicyHooks(import_route, base.export_route, base.preference_for)


def run_with_fault(topo, cfg, origs, hooks):
    rib = propagate(topo, origs, hooks)
    return views_from_rib(rib, cfg), rib


def manifested(views, cfg, reg, rule: AuditRule, culprit: int, prefix) -> bool:
    """Whether the injected fault actually shows in the exported views.

    An injected behavior that never fires (the member never saw a matching
    route, or never selected it) leaves nothing to detect and is resampled
    by the callers.
    """
    by_member = {v.member: v for v in views}
    view = by_member.get(culprit)
    if view is None:
        return False
    if rule is AuditRule.R1_FALSE_VERIFIED:
        for r in view.routes:
            if (
                r.prefix == prefix
                and VERIFIED in r.communities
                and not (set(r.as_path) & cfg.members)
                and len(set(r.as_path)) > 1
            ):
                return True
        return False
    if rule is AuditRule.R2_INVALID_ORIGIN:
        return any(
            r.prefix == prefix
            and rov_validate(reg, r.prefix, r.origin) is RovState.INVALID
            for r in view.routes
        )
    if rule is AuditRule.R3_TAG_STRIPPED:
        for r in view.routes:
            if r.prefix != prefix or VERIFIED in r.communities or not r.as_path:
                continue
            upstream = by_member.get(r.as_path[0])
            if upstream is None:
                continue
            if any(
                u.prefix == prefix
                and u.as_path == r.as_path[1:]
                and VERIFIED in u.communities
                for u in upstream.routes
            ):
                return True
        return False
    raise AssertionError(rule)
