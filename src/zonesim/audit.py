"""Off-path conformance auditing of member-exported route views.

Three checks run over route-collector views, one view per member; the
caller passes views of one snapshot, which the audit cannot check:

  R1-FalseVerified  a VERIFIED route whose path had more than one unique
      ASN before it entered the zone (more than two when the
      provider-authorization extension is on and a confirming record
      exists) indicts the member that introduced it;
  R2-InvalidOrigin  a route whose origin is RPKI-invalid indicts the
      member that introduced it;
  R3-TagStripped    a member whose view lacks VERIFIED on a route that the
      neighboring member it learned it from shows as VERIFIED for the same
      prefix and path suffix failed to forward the tag.

The entry member is the member closest to the origin in the path; when the
path contains no member, the view's owner introduced the route itself.  A
member's exported view is evidence against that member (it advertised the
route), so R1/R2 findings may rest on the culprit's own view; R3 always
needs both sides of the member-member edge, and missing views degrade to a
logged coverage warning rather than an accusation: one per (view owner,
missing witness) pair, naming how many routes went unchecked.

The audit's cost follows what the views share, not their route count: the
entry member and R1 are decided once per distinct AS path, and R2 once per
distinct (prefix, origin) when the views are parsed with one prefix memo
(``load_member_view``'s ``prefixes``, which ``load_waivers`` also takes).
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from ._lines import read_lines, table
from .registry import (
    Prefix, RegistrySet, RovState, AspaState, _prefix_reader, aspa_pair_valid, rov_validate,
)
from .routing import VERIFIED, Rib, Route, _prefix_sort_key, parse_rib_dump
from .topology import Rel, Topology
from .vipzone import ZoneConfig

log = logging.getLogger(__name__)


class AuditError(ValueError):
    pass


class AuditRule(enum.Enum):
    R1_FALSE_VERIFIED = "R1-FalseVerified"
    R2_INVALID_ORIGIN = "R2-InvalidOrigin"
    R3_TAG_STRIPPED = "R3-TagStripped"


@dataclass(frozen=True)
class MemberView:
    """One member's route-collector export: its best routes at a snapshot."""

    member: int
    routes: tuple[Route, ...]


@dataclass(frozen=True)
class AuditFinding:
    """One non-conformance, pinned on a member.

    observed_at names the view supplying the evidence: the owner of the
    view holding the offending route for R1/R2, and the upstream witness
    whose view shows the tag the culprit dropped for R3.
    """

    rule: AuditRule
    culprit: int
    observed_at: int
    evidence: Route
    waived: bool = False
    note: str = ""

    def csv_row(self) -> str:
        path = " ".join(str(a) for a in self.evidence.as_path)
        return (
            f"{self.rule.value},{self.culprit},{self.observed_at},"
            f"{self.evidence.prefix},{path},{str(self.waived).lower()},{self.note}"
        )


FINDINGS_CSV_HEADER = "rule,culprit,observed_at,prefix,as_path,waived,note"


@dataclass(frozen=True)
class Waiver:
    """A registered intent to announce a non-conformant route."""

    member: int
    prefix: Prefix
    note: str = ""


def register_exception(cfg: ZoneConfig, member: int, prefix: Prefix, note: str = "") -> Waiver:
    """Record a member's declared exception; audit findings matching the
    (member, prefix) pair are reported as waived, never dropped."""
    if member not in cfg.members:
        raise AuditError(f"AS{member} is not a zone member")
    return Waiver(member, prefix, note)


def load_waivers(
    source: str, cfg: ZoneConfig, prefixes: dict[str, Prefix] | None = None
) -> list[Waiver]:
    """Parse waiver CSV ``member,prefix,note``; the note may hold commas.
    prefixes is parse_rib_dump's optional memo of parsed prefix texts."""
    read_prefix = _prefix_reader(prefixes)

    def parse(line: str) -> Waiver:
        parts = [p.strip() for p in line.split(",", 2)]
        if len(parts) < 2:
            raise AuditError("expected member,prefix[,note]")
        note = parts[2] if len(parts) > 2 else ""
        return register_exception(cfg, int(parts[0]), read_prefix(parts[1]), note)

    return read_lines(source, parse, AuditError, header="member,prefix,note")


def views_from_rib(rib: Rib, cfg: ZoneConfig) -> list[MemberView]:
    """Rule 7: every member exports its best routes to the collector."""
    routes: dict[int, list[Route]] = {member: [] for member in sorted(cfg.members)}
    for prefix, _ in rib._prefixes():
        for member, best in rib._bests(prefix, routes.keys()).items():
            routes[member].append(best)
    return [MemberView(member, tuple(r)) for member, r in routes.items()]


def load_member_view(
    text: str,
    prefixes: dict[str, Prefix] | None = None,
    tails: dict[str, tuple] | None = None,
) -> MemberView:
    """Parse a view file: a RIB dump filtered to a single ASN's rows.

    prefixes and tails are parse_rib_dump's memos of parsed prefix texts
    and row tails, shared by the views of one audit."""
    rows = parse_rib_dump(text, prefixes, tails)
    if not rows:
        raise AuditError("view file contains no routes")
    owners = {asn for asn, _ in rows}
    if len(owners) != 1:
        raise AuditError(f"view file mixes rows for ASes {sorted(owners)}")
    member = owners.pop()
    return MemberView(member, tuple(r for _, r in rows))


def check_owner(cfg: ZoneConfig, view: MemberView) -> None:
    """Raise AuditError unless the view's owner is a zone member."""
    if view.member not in cfg.members:
        raise AuditError(f"view owner AS{view.member} is not a zone member")


def _entry_member(path: Sequence[int], members: frozenset[int]) -> tuple[int | None, tuple[int, ...]]:
    """The member closest to the origin, and the unique pre-entry ASNs.

    Scanning from the origin end, the first member in the path introduced
    the route; if none appears, the entry is None (the view's owner
    imported the route directly) and the whole path is pre-entry.
    """
    for i in range(len(path) - 1, -1, -1):
        if path[i] in members:
            tail = path[i + 1 :]
            return path[i], tuple(dict.fromkeys(tail))
    return None, tuple(dict.fromkeys(path))


def _tagged_by_path(view: MemberView) -> dict[tuple[int, ...], list[Prefix]]:
    """The prefixes of a view's VERIFIED routes, keyed by AS path."""
    index: dict[tuple[int, ...], list[Prefix]] = {}
    for route in view.routes:
        if VERIFIED in route.communities:
            index.setdefault(route.as_path, []).append(route.prefix)
    return index


def audit_views(
    cfg: ZoneConfig,
    topo: Topology,
    reg: RegistrySet,
    views: Sequence[MemberView],
    waivers: Iterable[Waiver] = (),
) -> list[AuditFinding]:
    """Run the three conformance checks over the given member views, which
    must all come from one snapshot.

    Findings are deduplicated per underlying announcement (the same tagged
    route seen in several views yields one finding, observed at the lowest
    ASN) and sorted by (rule, culprit, prefix, path).

    The entry member, the pre-entry ASNs and R1's limit are worked out once
    per distinct AS path, and R2's ROV verdict once per distinct (prefix
    object, origin): parse the views with one shared prefix memo
    (load_member_view's prefixes) and that is once per (prefix, origin).
    One warning is logged per (view owner, missing witness) pair whose R3
    checks could not run, with the number of routes affected.
    """
    if not views:
        return []
    members = cfg.members
    for view in views:
        check_owner(cfg, view)

    by_member = {v.member: v for v in views}
    # R3 witnesses' _tagged_by_path indexes, built on first consultation.
    tagged: dict[int, dict[tuple[int, ...], list[Prefix]]] = {}
    # paths[as_path]: (entry member or None, pre-entry ASNs, whether a
    # VERIFIED route on the path breaks R1); none of it depends on the view.
    paths: dict[tuple[int, ...], tuple[int | None, tuple[int, ...], bool]] = {}
    # invalid[(id(prefix), origin)]: whether ROV finds the pair INVALID.  The
    # views hold every route's prefix for the whole call, so no id is reused.
    invalid: dict[tuple[int, int], bool] = {}
    # uncovered[(owner, witness)]: routes whose R3 check needed a missing view.
    uncovered: dict[tuple[int, int], int] = {}
    # keyed by (rule, culprit, prefix, canonical evidence path)
    found: dict[tuple, AuditFinding] = {}

    def record(rule: AuditRule, culprit: int, observed_at: int, route: Route, canonical: tuple):
        key = (rule, culprit, _prefix_sort_key(route.prefix), canonical)
        existing = found.get(key)
        if existing is None or observed_at < existing.observed_at:
            found[key] = AuditFinding(rule, culprit, observed_at, route)

    for view in views:
        owner = view.member
        for route in view.routes:
            path = route.as_path
            facts = paths.get(path)
            if facts is None:
                entry, pre = _entry_member(path, members)
                limit = 1
                if cfg.aspa_extension and len(pre) == 2:
                    if aspa_pair_valid(reg, pre[-1], pre[0]) is AspaState.CONFIRMED:
                        limit = 2
                facts = paths[path] = entry, pre, len(pre) > limit
            entry, pre, false_verified = facts
            if entry is None:
                entry = owner
            verified = VERIFIED in route.communities

            if verified and false_verified:
                record(AuditRule.R1_FALSE_VERIFIED, entry, owner, route, pre)

            prefix = route.prefix
            pair = (id(prefix), path[-1])
            bad = invalid.get(pair)
            if bad is None:
                bad = invalid[pair] = rov_validate(reg, prefix, path[-1]) is RovState.INVALID
            if bad:
                record(AuditRule.R2_INVALID_ORIGIN, entry, owner, route, pre)

            neighbor = path[0]
            if route.learned_rel is not Rel.SELF and neighbor in members and not verified:
                index = tagged.get(neighbor)
                if index is None:
                    witness = by_member.get(neighbor)
                    if witness is None:
                        uncovered[owner, neighbor] = uncovered.get((owner, neighbor), 0) + 1
                        continue
                    index = tagged[neighbor] = _tagged_by_path(witness)
                if prefix in index.get(path[1:], ()):
                    record(AuditRule.R3_TAG_STRIPPED, owner, neighbor, route, path)

    for (owner, neighbor), count in sorted(uncovered.items()):
        log.warning(
            "no view from AS%d; cannot audit tag forwarding at AS%d on %d routes",
            neighbor, owner, count,
        )

    waiver_keys = {(w.member, w.prefix): w for w in waivers}
    findings = []
    for finding in found.values():
        waiver = waiver_keys.get((finding.culprit, finding.evidence.prefix))
        if waiver is not None:
            finding = replace(finding, waived=True, note=waiver.note)
        findings.append(finding)
    findings.sort(
        key=lambda f: (
            f.rule.value,
            f.culprit,
            _prefix_sort_key(f.evidence.prefix),
            f.evidence.as_path,
        )
    )
    return findings


def findings_csv(findings: Sequence[AuditFinding]) -> str:
    return table(FINDINGS_CSV_HEADER, (f.csv_row() for f in findings))
