"""Deterministic per-prefix route propagation under export-policy routing.

The engine runs synchronous rounds: in each round every AS imports its
neighbors' previous-round best routes (through pluggable policy hooks),
selects one best route per prefix under a total preference order, and the
resulting bests become the next round's exports.  Export scope follows the
standard economic rule: routes learned from a customer (or originated
locally) are exported to all neighbors; routes learned from a peer or
provider are exported to customers only.  Because every AS updates from the
same previous-round snapshot, the fixpoint is independent of iteration
order, and repeated runs are bit-identical.

Hooks can drop or transform routes on import (community edits), replace the
per-AS preference order, and veto or force exports.  The default hook set
implements plain economic routing with no community handling.
"""

from __future__ import annotations

import enum
import ipaddress
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from ._lines import read_lines
from .registry import Prefix, parse_prefix
from .topology import Rel, Topology


class RoutingError(ValueError):
    """Raised for invalid originations or malformed RIB dumps."""


class NonConvergenceError(RuntimeError):
    """Propagation failed to reach a fixpoint within the round cap."""

    def __init__(self, prefixes: Sequence[Prefix]):
        self.prefixes = tuple(prefixes)
        names = ", ".join(str(p) for p in self.prefixes)
        super().__init__(f"propagation did not converge for: {names}")


@dataclass(frozen=True, slots=True)
class Route:
    """One announcement as held by an AS.

    as_path is ordered with the origin last and never contains the holder;
    its head is the neighbor the route was learned from.  A locally
    originated route has learned_from None, learned_rel SELF, and a path
    whose head is the holder itself (the whole path may be caller-supplied
    for attack injections).
    """

    prefix: Prefix
    as_path: tuple[int, ...]
    communities: frozenset[str] = frozenset()
    learned_from: int | None = None
    learned_rel: Rel = Rel.SELF

    @property
    def origin(self) -> int:
        return self.as_path[-1]


_REL_RANK = {Rel.CUSTOMER: 3, Rel.PEER: 2, Rel.PROVIDER: 1, Rel.SELF: 0}


@dataclass(frozen=True)
class PreferenceOrder:
    """Total order over candidate routes for one prefix at one AS.

    Locally originated routes always win.  For ASes honoring the verified
    community, a tagged route beats any untagged one; then customer routes
    beat peer routes beat provider routes; then shorter paths; the final
    tiebreaks (lower neighbor ASN, then lexicographically smaller path)
    make the order total.
    """

    verified_first: bool = False
    verified_tag: str = "VERIFIED:1"

    def key(self, route: Route):
        verified = self.verified_first and self.verified_tag in route.communities
        return (
            route.learned_rel is Rel.SELF,
            verified,
            _REL_RANK[route.learned_rel] if route.learned_rel is not Rel.SELF else 0,
            -len(route.as_path),
            -(route.learned_from if route.learned_from is not None else 0),
            tuple(-a for a in route.as_path),
        )

    def best(self, candidates: Iterable[Route]) -> Route:
        return max(candidates, key=self.key)


ImportHook = Callable[[int, int, Rel, Route], "Route | None"]
ExportHook = Callable[[int, int, Rel, Route, bool], "Route | None"]
PreferenceHook = Callable[[int], PreferenceOrder]


def _default_import(importer: int, neighbor: int, rel: Rel, route: Route) -> Route | None:
    return route


def _default_export(
    exporter: int, neighbor: int, rel: Rel, route: Route, gr_allows: bool
) -> Route | None:
    return route if gr_allows else None


_PLAIN_ORDER = PreferenceOrder(verified_first=False)


def _default_preference(asn: int) -> PreferenceOrder:
    return _PLAIN_ORDER


@dataclass(frozen=True)
class PolicyHooks:
    """Per-AS policy plugged into the propagation rounds.

    import_route(importer, neighbor, rel-of-neighbor, route) returns the
    route to admit as a candidate (possibly transformed) or None to drop.
    export_route(exporter, neighbor, rel-of-neighbor, route, gr_allows)
    returns the route to offer or None to suppress; gr_allows reports
    whether the standard export rule would send it, so a hook can both
    filter and (for leak scenarios) force an export.
    """

    import_route: ImportHook = _default_import
    export_route: ExportHook = _default_export
    preference_for: PreferenceHook = _default_preference


def gao_rexford_hooks() -> PolicyHooks:
    """Plain economic routing with no community handling."""
    return PolicyHooks()


@dataclass(frozen=True)
class Origination:
    """A locally originated announcement, legitimate or injected.

    For attack injections, as_path carries the forged path; it must start
    with the originating AS and contain no repeats.
    """

    asn: int
    prefix: Prefix
    as_path: tuple[int, ...] | None = None
    communities: frozenset[str] = frozenset()

    def route(self) -> Route:
        path = self.as_path if self.as_path is not None else (self.asn,)
        return Route(self.prefix, tuple(path), frozenset(self.communities))


@dataclass(frozen=True)
class RibEntry:
    best: Route
    candidates: tuple[Route, ...]


class Rib:
    """Per-AS, per-prefix route state at the propagation fixpoint."""

    def __init__(self, per_as: Mapping[int, Mapping[Prefix, RibEntry]]):
        self.per_as = {a: dict(m) for a, m in per_as.items()}

    def best(self, asn: int, prefix: Prefix) -> Route | None:
        entry = self.per_as.get(asn, {}).get(prefix)
        return entry.best if entry else None

    def candidates(self, asn: int, prefix: Prefix) -> tuple[Route, ...]:
        entry = self.per_as.get(asn, {}).get(prefix)
        return entry.candidates if entry else ()

    def entries(self, asn: int) -> dict[Prefix, RibEntry]:
        return dict(self.per_as.get(asn, {}))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rib):
            return NotImplemented
        return self.per_as == other.per_as


def _normalize_originations(
    topo: Topology, originations: Iterable
) -> list[Origination]:
    normalized = []
    for item in originations:
        if isinstance(item, Origination):
            orig = item
        else:
            asn, prefix = item
            if isinstance(prefix, str):
                prefix = parse_prefix(prefix)
            orig = Origination(asn, prefix)
        if orig.asn not in topo.asns:
            raise RoutingError(f"origination from unknown AS{orig.asn}")
        path = orig.as_path
        if path is not None:
            if not path or path[0] != orig.asn:
                raise RoutingError(
                    f"injected path for AS{orig.asn} must start with the injector"
                )
            if len(set(path)) != len(path):
                raise RoutingError(f"injected path {path} repeats an ASN")
        normalized.append(orig)
    return normalized


def propagate(
    topo: Topology,
    originations: Iterable,
    hooks: PolicyHooks | None = None,
    *,
    workers: int = 1,
) -> Rib:
    """Run per-prefix propagation to its unique fixpoint.

    originations is a sequence of Origination objects or (asn, prefix)
    pairs; injections are Originations with an explicit forged path.
    Distinct prefixes are independent and may be computed by parallel
    workers; results are identical for any worker count.

    Raises NonConvergenceError naming every oscillating prefix if any
    prefix exceeds 2*|ASes|+10 rounds.
    """
    hooks = hooks or gao_rexford_hooks()
    origs = _normalize_originations(topo, originations)
    by_prefix: dict[Prefix, list[Origination]] = {}
    for orig in origs:
        by_prefix.setdefault(orig.prefix, []).append(orig)

    # Deterministic adjacency: (neighbor, rel-of-neighbor-from-asn) pairs.
    adjacency = {
        asn: [(n, topo.rel_from(asn, n)) for n in sorted(topo.neighbors_of(asn))]
        for asn in sorted(topo.asns)
    }
    order = {asn: hooks.preference_for(asn) for asn in adjacency}

    prefixes = sorted(by_prefix, key=_prefix_sort_key)
    cap = 2 * len(topo.asns) + 10

    def solve(prefix: Prefix):
        return _propagate_prefix(
            adjacency, order, hooks, prefix, by_prefix[prefix], cap
        )

    if workers > 1 and len(prefixes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(solve, prefixes))
    else:
        results = [solve(p) for p in prefixes]

    failed = [p for p, r in zip(prefixes, results) if r is None]
    if failed:
        raise NonConvergenceError(failed)

    per_as: dict[int, dict[Prefix, RibEntry]] = {asn: {} for asn in adjacency}
    for prefix, state in zip(prefixes, results):
        for asn, entry in state.items():
            per_as[asn][prefix] = entry
    return Rib(per_as)


def _propagate_prefix(
    adjacency: dict[int, list[tuple[int, Rel]]],
    order: dict[int, PreferenceOrder],
    hooks: PolicyHooks,
    prefix: Prefix,
    origs: list[Origination],
    cap: int,
) -> dict[int, RibEntry] | None:
    local: dict[int, list[Route]] = {}
    for orig in origs:
        local.setdefault(orig.asn, []).append(orig.route())

    export_route = hooks.export_route
    import_route = hooks.import_route
    keys = {asn: order[asn].key for asn in adjacency}

    best: dict[int, Route] = {}
    candidates: dict[int, tuple[Route, ...]] = {}
    # An AS's candidate set is a function of its locals and its neighbors'
    # current bests, so each round only ASes adjacent to a best-change can
    # move: recomputing exactly those is the same synchronous iteration
    # with the provably-unchanged work skipped.
    dirty = set(local)
    for _ in range(cap + 1):
        if not dirty:
            return {
                asn: RibEntry(best[asn], candidates[asn]) for asn in best
            }
        updates: list[tuple[int, Route, tuple[Route, ...]]] = []
        for asn in dirty:
            cands: set[Route] = set(local.get(asn, ()))
            for neighbor, rel in adjacency[asn]:
                offered = best.get(neighbor)
                if offered is None:
                    continue
                # rel is what `neighbor` is to `asn`; the reverse edge view
                # (what `asn` is to `neighbor`) drives the export rule.
                rel_back = _REVERSE[rel]
                gr_allows = (
                    offered.learned_rel in (Rel.CUSTOMER, Rel.SELF)
                    or rel_back is Rel.CUSTOMER
                )
                sent = export_route(neighbor, asn, rel_back, offered, gr_allows)
                if sent is None:
                    continue
                path = sent.as_path
                if path[0] != neighbor:
                    path = (neighbor,) + path
                if asn in path:
                    continue
                incoming = Route(prefix, path, sent.communities, neighbor, rel)
                admitted = import_route(asn, neighbor, rel, incoming)
                if admitted is not None:
                    cands.add(admitted)
            ranked = tuple(sorted(cands, key=keys[asn], reverse=True))
            if ranked != candidates.get(asn, ()):
                updates.append((asn, ranked[0] if ranked else None, ranked))
        # Apply after the sweep: every recomputation above read the
        # previous round's bests, keeping the update synchronous.
        dirty = set()
        for asn, new_best, ranked in updates:
            if ranked:
                candidates[asn] = ranked
            else:
                candidates.pop(asn, None)
            if new_best != best.get(asn):
                if new_best is None:
                    best.pop(asn, None)
                else:
                    best[asn] = new_best
                # only a best-change is visible to neighbors
                dirty.update(n for n, _ in adjacency[asn])
    return None


_REVERSE = {Rel.CUSTOMER: Rel.PROVIDER, Rel.PROVIDER: Rel.CUSTOMER, Rel.PEER: Rel.PEER}


class TraceOutcome(enum.Enum):
    DELIVERED = "delivered"
    NO_ROUTE = "no_route"
    LOOP = "loop"


def data_plane_trace(
    rib: Rib, src: int, dst: str | ipaddress.IPv4Address | ipaddress.IPv6Address
) -> tuple[list[int], TraceOutcome]:
    """Follow longest-prefix-match forwarding from src toward an address.

    At each hop the best route whose prefix most specifically covers dst is
    chosen and the trace steps to the AS it was learned from.  Terminates at
    the AS holding a locally originated matching route (DELIVERED), when no
    route matches (NO_ROUTE), or when an AS repeats (LOOP).
    """
    if isinstance(dst, str):
        dst = ipaddress.ip_address(dst)
    hops = [src]
    seen = {src}
    current = src
    while True:
        entries = rib.per_as.get(current, {})
        matches = [
            e for p, e in entries.items() if p.version == dst.version and dst in p
        ]
        if not matches:
            return hops, TraceOutcome.NO_ROUTE
        entry = max(matches, key=lambda e: e.best.prefix.prefixlen)
        route = entry.best
        if route.learned_rel is Rel.SELF:
            return hops, TraceOutcome.DELIVERED
        nxt = route.learned_from
        if nxt in seen:
            hops.append(nxt)
            return hops, TraceOutcome.LOOP
        hops.append(nxt)
        seen.add(nxt)
        current = nxt


def _prefix_sort_key(prefix: Prefix):
    return (prefix.version, int(prefix.network_address), prefix.prefixlen)


def dump_rib(rib: Rib) -> str:
    """Serialize best routes, one line per (asn, prefix), sorted.

    Line format: ``asn|prefix|as_path|communities|learned_rel`` with the
    path space-separated (origin last) and communities ``;``-separated.
    A member's route-collector view is this dump filtered to its own rows.
    """
    lines = []
    for asn in sorted(rib.per_as):
        entries = rib.per_as[asn]
        for prefix in sorted(entries, key=_prefix_sort_key):
            route = entries[prefix].best
            lines.append(
                "|".join(
                    (
                        str(asn),
                        str(prefix),
                        " ".join(str(a) for a in route.as_path),
                        ";".join(sorted(route.communities)),
                        route.learned_rel.value,
                    )
                )
            )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_rib_dump(text: str) -> list[tuple[int, Route]]:
    """Parse dump lines back into (holder asn, Route) rows."""
    return read_lines(text, _parse_rib_row, RoutingError)


def _parse_rib_row(line: str) -> tuple[int, Route]:
    parts = line.split("|")
    if len(parts) != 5:
        raise RoutingError(f"malformed RIB row {line!r}")
    path = tuple(int(a) for a in parts[2].split())
    if not path:
        raise RoutingError("empty AS path")
    rel = Rel(parts[4])
    learned_from = None if rel is Rel.SELF else path[0]
    communities = frozenset(c for c in parts[3].split(";") if c)
    return int(parts[0]), Route(parse_prefix(parts[1]), path, communities, learned_from, rel)


def load_originations(text: str) -> list[Origination]:
    """Parse originations CSV: ``asn,prefix`` with an optional header."""
    return read_lines(text, _parse_origination, RoutingError, header="asn,prefix")


def _parse_origination(line: str) -> Origination:
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != 2:
        raise RoutingError("expected asn,prefix")
    return Origination(int(parts[0]), parse_prefix(parts[1]))
