"""Deterministic per-prefix route propagation under export-policy routing.

The engine solves one prefix at a time in synchronous rounds: in each round
every AS imports its neighbors' previous-round best routes (through
pluggable policy hooks), selects one best route under a total preference
order, and the resulting bests become the next round's exports.  Export
scope follows the standard economic rule: routes learned from a customer
(or originated locally) are exported to all neighbors; routes learned from
a peer or provider are exported to customers only.  Because every AS
updates from the same previous-round snapshot, the fixpoint is independent
of iteration order, and repeated runs are bit-identical.

Rounds are edge-incremental.  What an AS holds from one neighbor depends
only on that neighbor's current best, so during a solve each AS keeps one
table of candidates: its own originations, and one cached (preference key,
route) entry per neighbor, the result of export, loop check and import
over that edge.  The first round ranks the originators; each later round
is one export step (_export_round) from the ASes whose best changed in the
round before, then a selection at each AS whose entries changed.  Such an
AS compares only the entries that arrived that round with its best, which
no other entry outranks.  It re-ranks its whole table only when its best
entry was dropped or replaced by one not ranked strictly above it, or when
two keys tie, which the table's order settles as max does.  Under the
default export hook the edges the rule refuses are not visited: a peer- or
provider-learned best goes down the exporter's customer edges alone, and
every edge is walked once only when such a best replaces one that went
everywhere, to withdraw it.  Any other export hook is asked about each
refused edge.  A preference key is computed once per offer and order
(below), and ranking compares keys alone.  Propagation stops when a round
changes no best; a prefix still changing after 2*|ASes|+10 rounds is
reported with the ASes that changed in the last round.

A solve walks the topology's own adjacency sets, customers, peers and
providers, as they are: per prefix, bests and cached entries are dicts
keyed by ASN, and nothing is built per edge.  The export rule's half that
depends only on the exporter is computed once per exporter.  In one round
an exporter offers at most three routes, one per relationship it has to
its neighbors; each, with the exporter prepended to its path, is built on
first use and the same frozen Route is handed to every importer it goes
to, and an exporter with no neighbor to walk builds none.  When the import
hook returns that very object, the entry's key is computed once per offer
and preference order (ASes sharing an order object share it); a route the
hook replaces is keyed on its own.  Hooks still see ASNs and Routes, and
routes in flight keep their prefix, because import hooks may read it.
Learned routes at one AS each come from a different neighbor, so the stock
preference order ranks them without its final path tiebreak.

A solve can also watch ASes under alternative orders: it reports each AS
whose pick under its alternative ever differs from its actual pick, so
analysis.routing_exceptions re-solves only where a member's pick diverged.

Prefixes are solved once per routing-equivalence class.  The hooks' per-
prefix step maps a prefix and its originations to a class key; prefixes
with equal keys are routed identically up to the prefix label, so one
representative is solved and the others share its record.  A prefix whose
key is None is solved on its own.  Callers that read only some prefixes
(attacks.run_scenario) pass only those.

A solve keeps each AS's best Route alone; the tables are dropped.  The
same edge rule holds at the fixpoint, so Rib.candidates replays one AS
(_replay): its own originations, then one export round of the solve's own
step from every neighbor holding a best, over the edges into the AS alone,
ranked as the solve ranks them, with the stored best first.  The hooks are
called again, which is why they must be functions of their arguments.  The
Rib keeps per prefix what the replay needs and builds its per-AS view,
Rib.per_as, only when that is read; the dump, scenario and audit readers
read the bests of the prefixes they need, and a lookup reads one.  The
dump builds a row's text once per best Route object, which holders share.
Replayed at any state, the edge rule is a stability check: a state is a
fixpoint exactly where each holder's best is its top replayed candidate
and every other AS replays nothing.

Hooks can drop or transform routes on import (community edits), replace the
per-AS preference order, and force an export the economic rule refuses (a
route leak).  Exports are never changed, so a learned route's path starts
with the neighbor it was learned from.  The default hook set implements
plain economic routing with no community handling.

The cyclic garbage collector is paused for each propagate and dump_rib
call, a dump's sink calls included: nothing a solve or a dump builds
holds a reference cycle, so a collection midway frees nothing and only
re-walks the growing RIB or the dump's row-text memo; cyclic garbage a
hook or a sink makes waits until the call ends.  The pause is
process-wide, so other threads also run without the collector while a
solve or a dump is in progress.
"""

from __future__ import annotations

import copy
import enum
import ipaddress
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, neg
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from ._lines import read_lines
from .registry import Prefix, _prefix_reader, parse_prefix
from .topology import Rel, Topology, _gc_paused


# The community zone members attach to routes verified on entry; an AS that
# ranks VERIFIED first prefers tagged routes (see vipzone).
VERIFIED = "VERIFIED:1"


class RoutingError(ValueError):
    """Raised for invalid originations or malformed RIB dumps."""


class NonConvergenceError(RuntimeError):
    """Propagation failed to reach a fixpoint within the round cap.

    oscillating maps each failed prefix to the sorted ASNs whose best route
    still changed in the last round; prefixes lists the failed prefixes.
    Every prefix of a failed routing-equivalence class is listed, with the
    ASes of the class's solve.
    """

    def __init__(self, oscillating: Mapping[Prefix, tuple[int, ...]]):
        self.oscillating = dict(oscillating)
        self.prefixes = tuple(self.oscillating)
        names = "; ".join(
            f"{p} (oscillating: {', '.join(f'AS{a}' for a in asns)})"
            for p, asns in self.oscillating.items()
        )
        super().__init__(f"propagation did not converge for: {names}")


@dataclass(frozen=True, slots=True)
class Route:
    """One announcement as held by an AS.

    as_path is ordered with the origin last and never contains the holder;
    its head is the neighbor the route was learned from (learned_from).  A
    locally originated route has learned_rel SELF, learned_from None, and a
    path whose head is the holder itself (the whole path may be
    caller-supplied for attack injections).
    """

    prefix: Prefix
    as_path: tuple[int, ...]
    communities: frozenset[str] = frozenset()
    learned_rel: Rel = Rel.SELF

    @property
    def origin(self) -> int:
        return self.as_path[-1]

    @property
    def learned_from(self) -> int | None:
        return None if self.learned_rel is Rel.SELF else self.as_path[0]


# Relationships as module globals: the propagation loop and the preference
# key compare against them by identity, and reading an enum member through
# its class is slower than a global lookup.
_CUSTOMER, _PEER, _PROVIDER, _SELF = Rel.CUSTOMER, Rel.PEER, Rel.PROVIDER, Rel.SELF


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

    def key(self, route: Route):
        return self._rank(route) + (tuple(map(neg, route.as_path)),)

    def _rank(self, route: Route):
        # key() without the path tiebreak: enough to order routes learned
        # from distinct neighbors, which differ in as_path[0].
        rel = route.learned_rel
        return (
            rel is _SELF,
            self.verified_first and VERIFIED in route.communities,
            3 if rel is _CUSTOMER else 2 if rel is _PEER else 1 if rel is _PROVIDER else 0,
            -len(route.as_path),
            -route.as_path[0],
        )

    def best(self, candidates: Iterable[Route]) -> Route:
        return max(candidates, key=self.key)


ImportHook = Callable[[int, int, Rel, Route], "Route | None"]
ExportHook = Callable[[int, int, Rel, Route], bool]
PreferenceHook = Callable[[int], PreferenceOrder]
ClassHook = Callable[[Prefix, Sequence["Origination"]], "Hashable | None"]


def _default_import(importer: int, neighbor: int, rel: Rel, route: Route) -> Route | None:
    return route


def _default_export(exporter: int, neighbor: int, rel: Rel, route: Route) -> bool:
    return False


_PLAIN_ORDER = PreferenceOrder(verified_first=False)


def _default_preference(asn: int) -> PreferenceOrder:
    return _PLAIN_ORDER


def _no_class(prefix: Prefix, originations: Sequence["Origination"]) -> None:
    return None


def origination_class(prefix: Prefix, originations: Sequence["Origination"]) -> tuple:
    """Class key for hooks that never read a route's prefix: the
    originations' announcements, in order, without the prefix."""
    return tuple((o.asn, r.as_path, r.communities) for o in originations for r in (o.route(),))


@dataclass(frozen=True)
class PolicyHooks:
    """Per-AS policy plugged into the propagation rounds.

    import_route(importer, neighbor, rel-of-neighbor, route) returns the
    route to admit as a candidate (possibly with other communities) or
    None to drop; it keeps the route's as_path and learned_rel, which
    learned_from is read from.  The same frozen Route may be handed to
    several importers, and the preference key of a route returned
    unchanged is computed once per order object, so a key must depend on
    the route alone.
    export_route(exporter, neighbor, rel-of-neighbor, route) is asked only
    about an edge the standard export rule refuses; True sends the
    exporter's best, unchanged, anyway (a route leak).  The default never
    does, so under it propagate does not visit refused edges at all.  The
    order of export_route calls within one exporter's walk is unspecified.
    Both hooks must be functions of their arguments: Rib.candidates (and
    so Rib.per_as and ==) calls them again on the fixpoint's bests.
    prefix_class(prefix, originations) is called once per prefix.  It
    returns a hashable class key, or None to have the prefix solved on
    its own (the default).  Prefixes with equal keys must be routed alike
    up to the prefix label: the key captures their originations and
    everything the hooks read from a route's prefix.
    """

    import_route: ImportHook = _default_import
    export_route: ExportHook = _default_export
    preference_for: PreferenceHook = _default_preference
    prefix_class: ClassHook = _no_class


def gao_rexford_hooks() -> PolicyHooks:
    """Plain economic routing with no community handling."""
    return PolicyHooks(prefix_class=origination_class)


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


@dataclass(frozen=True, slots=True)
class RibEntry:
    best: Route
    candidates: tuple[Route, ...]


class Rib:
    """Route state at the propagation fixpoint, kept per prefix: prefixes in
    _prefix_sort_key order, each with its solved record, which a class's
    members share.  A record holds the representative prefix, bests {ASN:
    best Route} of the ASes holding one, and answers candidates(asn), best
    first, by replaying the AS's edges.  Routes carry the representative's
    prefix and are relabelled when read.  best reads one dict entry;
    candidates replays one AS.  per_as, {ASN: {prefix: RibEntry}} over
    every ASN of the topology, is a view built on first read and cached;
    == reads it.  propagate builds a Rib; _merged_rib joins several.
    """

    def _prefixes(self, address=None) -> Iterator[tuple[Prefix, dict[int, Route]]]:
        # Each prefix, or each holding address (shortest first: a prefix
        # sorts before those inside it), with its bests; their routes may
        # carry the class representative's prefix, which _bests relabels.
        for prefix, record in self._records.items():
            if address is None or (prefix.version == address.version and address in prefix):
                yield prefix, record.bests

    def _bests(self, prefix: Prefix, asns: Iterable[int] | None = None) -> dict[int, Route]:
        # The best route for prefix of each AS of asns (all by default) holding it.
        record = self._records[prefix]
        bests = record.bests
        holders = bests.keys() if asns is None else bests.keys() & asns
        return {asn: _labelled(prefix, record.rep, bests[asn]) for asn in holders}

    @cached_property
    def per_as(self) -> dict[int, dict[Prefix, RibEntry]]:
        per_as: dict[int, dict[Prefix, RibEntry]] = {asn: {} for asn in self._asns}
        for prefix, record in self._records.items():
            for asn in record.bests:
                ranked = self.candidates(asn, prefix)
                per_as[asn][prefix] = RibEntry(ranked[0], ranked)
        return per_as

    def best(self, asn: int, prefix: Prefix) -> Route | None:
        record = self._records.get(prefix)
        route = None if record is None else record.bests.get(asn)
        return None if route is None else _labelled(prefix, record.rep, route)

    def candidates(self, asn: int, prefix: Prefix) -> tuple[Route, ...]:
        record = self._records.get(prefix)
        if record is None:
            return ()
        return tuple([_labelled(prefix, record.rep, r) for r in record.candidates(asn)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rib):
            return NotImplemented
        return self.per_as == other.per_as


@dataclass(slots=True)
class _Solved:
    """A solved class: its representative prefix, the bests of the ASes
    holding one, and the network and originations it was solved with,
    which candidates(asn) replays."""

    rep: Prefix
    bests: dict[int, Route]
    net: _Network
    origs: list[Origination]

    def candidates(self, asn: int) -> tuple[Route, ...]:
        if asn not in self.bests:
            return ()
        return _replay(self.net, self.rep, self.origs, self.bests, asn)


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


class _Network:
    """What every prefix solve over (topology, hooks) shares: the hooks;
    `every`, the topology's three adjacency maps (not copies), each with
    what its neighbors are to the exporter and what it is to them; `down`,
    the maps a peer- or provider-learned best walks (customers alone under
    the default export hook, else every map, so a leak hook sees each
    refused edge); the ASNs in ascending order and `unset`, the all-None
    bests a solve copies; and per-ASN orders and ranks, shared per order."""

    def __init__(self, topo: Topology, hooks: PolicyHooks):
        self.import_route, self.export_route = hooks.import_route, hooks.export_route
        customers = (topo.customers, _CUSTOMER, _PROVIDER)
        self.every = (customers, (topo.peers, _PEER, _PEER), (topo.providers, _PROVIDER, _CUSTOMER))
        self.down = (customers,) if hooks.export_route is _default_export else self.every
        self.asns = sorted(topo.asns)
        self.unset = dict.fromkeys(self.asns)
        self.orders = {asn: hooks.preference_for(asn) for asn in self.asns}
        rank_of = {id(order): _rank_of(order) for order in self.orders.values()}
        self.ranks = {asn: rank_of[id(order)] for asn, order in self.orders.items()}

    def with_order(self, asn: int, order: PreferenceOrder) -> _Network:
        """This network, maps and hooks shared, with AS asn ranking by order."""
        net = copy.copy(self)
        net.orders, net.ranks = self.orders.copy(), self.ranks.copy()
        net.orders[asn], net.ranks[asn] = order, _rank_of(order)
        return net


def _rank_of(order: PreferenceOrder) -> Callable[[Route], object]:
    # Local routes are ranked by the full preference key.  Learned routes
    # at one AS come from distinct neighbors, so the stock order ranks them
    # without the path tiebreak; an order that overrides key() keeps it.
    return order._rank if type(order).key is PreferenceOrder.key else order.key


@_gc_paused()
def propagate(
    topo: Topology,
    originations: Iterable,
    hooks: PolicyHooks | None = None,
) -> Rib:
    """Run per-prefix propagation to its unique fixpoint.

    originations is a sequence of Origination objects or (asn, prefix)
    pairs; injections are Originations with an explicit forged path.
    Distinct prefixes are independent; one prefix per routing-equivalence
    class (hooks.prefix_class) is solved, one after another.

    Raises NonConvergenceError naming every oscillating prefix, and the
    ASes still changing in it, if any prefix exceeds 2*|ASes|+10 rounds.
    """
    hooks = hooks or gao_rexford_hooks()
    origs = _normalize_originations(topo, originations)
    by_prefix: dict[Prefix, list[Origination]] = {}
    for orig in origs:
        by_prefix.setdefault(orig.prefix, []).append(orig)
    prefixes = sorted(by_prefix, key=_prefix_sort_key)
    # classes: class key -> its prefixes in order; the first is solved.
    classes: dict[Hashable, list[Prefix]] = {}
    for prefix in prefixes:
        key = hooks.prefix_class(prefix, by_prefix[prefix])
        classes.setdefault(("prefix", prefix) if key is None else ("class", key), []).append(prefix)

    net = _Network(topo, hooks)
    # solved[prefix]: its class's record, or the ASNs still changing if the
    # class did not converge.
    solved = {}
    for members in classes.values():
        rep = members[0]
        best, _, _, stuck = _propagate_prefix(net, rep, by_prefix[rep])
        record = stuck or _Solved(
            rep, {asn: pair[1] for asn, pair in best.items() if pair is not None},
            net, by_prefix[rep],
        )
        for prefix in members:
            solved[prefix] = record

    oscillating = {p: solved[p] for p in prefixes if isinstance(solved[p], tuple)}
    if oscillating:
        raise NonConvergenceError(oscillating)
    rib = _new(Rib)
    rib._asns, rib._records = net.asns, {p: solved[p] for p in prefixes}
    return rib


def _merged_rib(*ribs: Rib) -> Rib:
    """One Rib holding the records of solves over one topology that share
    no prefix, prefixes in _prefix_sort_key order; each record keeps its
    own solve's network and hooks."""
    records = {}
    for rib in ribs:
        records.update(rib._records)
    merged = _new(Rib)
    merged._asns = ribs[0]._asns
    merged._records = {p: records[p] for p in sorted(records, key=_prefix_sort_key)}
    return merged


_first = itemgetter(0)
# The hint (_export_round) of an AS whose whole table a round re-ranks.
_RERANK = object()
_new = object.__new__
_set_prefix, _set_path, _set_communities, _set_learned_rel = (
    Route.__dict__[name].__set__ for name in ("prefix", "as_path", "communities", "learned_rel")
)


def _route(prefix, as_path, communities, learned_rel) -> Route:
    # Route(...) without the frozen dataclass's per-field object.__setattr__
    # calls: the slots are written directly, about 1 us less per import.
    route = _new(Route)
    _set_prefix(route, prefix)
    _set_path(route, as_path)
    _set_communities(route, communities)
    _set_learned_rel(route, learned_rel)
    return route


def _labelled(prefix: Prefix, rep: Prefix, route: Route) -> Route:
    # A class member's route: its representative's, relabelled.
    if prefix is rep:
        return route
    return _route(prefix, route.as_path, route.communities, route.learned_rel)


def _propagate_prefix(
    net: _Network,
    prefix: Prefix,
    origs: list[Origination],
    watch: Mapping[int, PreferenceOrder] | None = None,
) -> tuple[dict, dict[int, dict], set[int], tuple[int, ...]]:
    """Solve one prefix over net, walking the topology's adjacency sets in
    their own iteration order.  Returns best and learned (below), both
    keyed by ASN in ascending order; the ASes of watch, {ASN: alternative
    order}, whose pick under that order ever differed from their actual
    pick; and the sorted ASNs whose best still changed in round
    2*|ASes|+10, or () if it converged."""
    # Candidates are (preference key, route) pairs, keyed on admission and
    # ranked by the key alone.  learned[a][e]: what AS e's current best
    # yields at AS a after export, loop check and import, keyed by
    # ranks[a], once per offer and rank callable when admitted unchanged;
    # AS a's own originations sit first, under -1, -2, ..., which no ASN
    # takes, keyed by orders[a].key.
    learned: dict[int, dict[int, tuple[object, Route]]] = {asn: {} for asn in net.asns}
    for asn, route in dict.fromkeys((o.asn, o.route()) for o in origs):
        slots = learned[asn]
        slots[-1 - len(slots)] = (net.orders[asn].key(route), route)
    # best[a]: AS a's selected (preference key, route) pair, or None.
    best: dict[int, tuple[object, Route] | None] = net.unset.copy()
    diverged = set()

    # touched[a]: AS a's hint (_export_round); round 1 ranks the
    # originators, and each later round first re-evaluates the edges out of
    # the ASes whose best changed.
    touched = dict.fromkeys((o.asn for o in origs), _RERANK)
    rounds = 0
    while touched:
        # Bests are replaced only after every edge has read the old ones;
        # changed[e]: the best AS e replaced.
        changed = {}
        for asn, hint in touched.items():
            if hint is None:
                continue
            old_best = best[asn]
            if hint is not _RERANK:
                # Every entry that did not arrive ranks at most old_best.
                if old_best is None or hint[0] > old_best[0]:
                    changed[asn] = old_best
                    best[asn] = hint
                    continue
                if old_best[0] > hint[0]:
                    continue
            # A re-rank, or a tie that table order settles.
            new_best = max(learned[asn].values(), key=_first, default=None)
            # Routes are compared only when their keys tie.
            if new_best is not old_best and new_best != old_best:
                changed[asn] = old_best
                best[asn] = new_best
        if watch:
            diverged.update(_diverged(watch, touched, best, learned))
        rounds += 1
        if changed and rounds == 2 * len(net.asns) + 10:
            return best, learned, diverged, tuple(sorted(changed))
        # Synchronous round: every edge out of an AS whose best changed is
        # re-evaluated against the previous round's bests, so the fixpoint
        # is independent of iteration order.
        touched = _export_round(net, prefix, changed, best, learned)
    return best, learned, diverged, ()


def _diverged(watch, touched, best, learned) -> Iterator[int]:
    # The watched ASes of `touched` whose pick under their watched order,
    # made as a round makes it, is not their best route.
    for asn in watch.keys() & touched:
        order, rank = watch[asn], _rank_of(watch[asn])
        cands = [((order.key if e < 0 else rank)(r), r) for e, (_, r) in learned[asn].items()]
        if max(cands, key=_first, default=(None, None))[1] is not (best[asn] or (None, None))[1]:
            yield asn


def _export_round(net: _Network, prefix: Prefix, changed, best, learned) -> dict:
    """A round's export step over net's maps.  Each exporter of changed,
    {ASN: the (key, route) best it replaced, or None}, offers best[exporter]
    to its neighbors, or withdraws if that is None, and each neighbor's
    learned entry from it is set or dropped.  Returns {ASN: hint} over
    those neighbors whose entries changed.  A hint is read against the
    AS's best, its pick from its entries before the round: _RERANK if that
    best's entry was dropped or replaced by one not ranked strictly above
    it, or if two arrivals' keys tied; else the highest-keyed entry that
    arrived, or None if entries were only dropped."""
    every, down, ranks = net.every, net.down, net.ranks
    import_route, export_route = net.import_route, net.export_route
    touched = {}
    for exporter, replaced in changed.items():
        current = best[exporter]
        if current is None:
            for adjacency, _, _ in every:
                for asn in adjacency[exporter]:
                    gone = learned[asn].pop(exporter, None)
                    if gone is not None:
                        if gone is best[asn]:
                            touched[asn] = _RERANK
                        else:
                            touched.setdefault(asn, None)
            continue
        offered = current[1]
        # Per exporter: the economic export rule's "learned from a
        # customer or originated" half.  No AS neighbors itself, so the
        # loop check reads the path before the exporter is prepended.
        rel_out = offered.learned_rel
        anywhere = rel_out is _CUSTOMER or rel_out is _SELF
        held = offered.as_path
        # Peers and providers are walked only when the route may go to
        # them, when a hook may force it there (down is every map), or
        # to withdraw what a replaced best that went everywhere sent.
        walk = every if anywhere or (
            replaced is not None and replaced[1].learned_rel in (_CUSTOMER, _SELF)
        ) else down
        for adjacency, rel_back, rel in walk:
            group = adjacency[exporter]
            if not group:
                continue
            # offer: the one route every neighbor in this map receives,
            # built on first use; keyed[rank]: its entry under one
            # order, for each importer that admits it unchanged.
            sends = anywhere or rel_back is _CUSTOMER
            offer = None
            for asn in group:
                # rel_back is what `asn` is to `exporter`, and drives the
                # export rule; rel, what `exporter` is to `asn`.  The hook
                # is asked only about an edge the rule refuses.
                entry = None
                if (
                    (sends or export_route(exporter, asn, rel_back, offered))
                    and asn not in held
                ):
                    if offer is None:
                        path = held if held[0] == exporter else (exporter,) + held
                        offer, keyed = _route(prefix, path, offered.communities, rel), {}
                    admitted = import_route(asn, exporter, rel, offer)
                    if admitted is offer:
                        rank = ranks[asn]
                        entry = keyed.get(rank)
                        if entry is None:
                            entry = keyed[rank] = (rank(offer), offer)
                    elif admitted is not None:
                        entry = (ranks[asn](admitted), admitted)
                slots = learned[asn]
                if entry is None:
                    gone = slots.pop(exporter, None)
                    if gone is None:
                        continue
                    if gone is best[asn]:
                        touched[asn] = _RERANK
                    else:
                        touched.setdefault(asn, None)
                    continue
                # An entry replacing asn's best forces a re-rank unless it
                # ranks strictly above it.  (No best is _RERANK, and no slot
                # holds None.)
                selected = best[asn]
                if slots.get(exporter, _RERANK) is selected and not entry[0] > selected[0]:
                    slots[exporter], touched[asn] = entry, _RERANK
                    continue
                slots[exporter] = entry
                hint = touched.get(asn)
                if hint is None:
                    touched[asn] = entry
                elif hint is not _RERANK:
                    if entry[0] > hint[0]:
                        touched[asn] = entry
                    elif not hint[0] > entry[0]:
                        touched[asn] = _RERANK
    return touched


def _replay(
    net: _Network, prefix: Prefix, origs: list[Origination], bests: Mapping[int, Route], asn: int
) -> tuple[Route, ...]:
    """AS asn's candidates for prefix at the state bests, {ASN: best Route},
    ranked as a solve ranks them: asn's originations, then one export round
    from every neighbor holding a best, over the edges into asn alone.  A
    first candidate equal to bests[asn] is that stored object."""
    cut, held, maps = copy.copy(net), {}, []
    # Read in reverse, net's maps give asn's neighbors of one kind, what they
    # are to asn and what asn is to them, and the cut maps come out in net's
    # order (down's customer map first); a cut group is (asn,) or empty.
    for adjacency, rel, rel_back in reversed(net.every):
        group = defaultdict(tuple)
        for neighbor in adjacency[asn]:
            if neighbor in bests:
                group[neighbor], held[neighbor] = (asn,), (None, bests[neighbor])
        maps.append((group, rel_back, rel))
    cut.every = tuple(maps)
    cut.down = cut.every if net.down is net.every else cut.every[:1]
    slots = {}
    for route in dict.fromkeys(o.route() for o in origs if o.asn == asn):
        slots[-1 - len(slots)] = (net.orders[asn].key(route), route)
    # The round reads asn's best too: none, since asn's entries are ranked below.
    changed = dict.fromkeys(held)
    held[asn] = None
    _export_round(cut, prefix, changed, held, {asn: slots})
    # Stable, as the solve's max is: equal keys (only equal local routes
    # can tie) keep the originations' order.
    ranked = [route for _, route in sorted(slots.values(), key=_first, reverse=True)]
    best = bests.get(asn)
    if ranked and ranked[0] == best:
        ranked[0] = best
    return tuple(ranked)


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
    covering = [bests for _, bests in rib._prefixes(dst)][::-1]
    hops = [src]
    seen = {src}
    current = src
    while True:
        # The longest match: the first covering prefix the AS holds.
        route = next((bests[current] for bests in covering if current in bests), None)
        if route is None:
            return hops, TraceOutcome.NO_ROUTE
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


@_gc_paused()
def dump_rib(rib: Rib, sink: Callable[[str], object] | None = None) -> str | None:
    """Serialize best routes, one line per (asn, prefix), sorted.

    Line format: ``asn|prefix|as_path|communities|learned_rel`` with the
    path space-separated (origin last) and communities ``;``-separated.
    A member's route-collector view is this dump filtered to its own rows.

    The rows are formed one AS at a time, ASNs ascending, by a walk of the
    prefix records for each AS, and each AS's rows are passed to sink as
    one text as soon as they are formed; an AS holding no route passes
    nothing.  A sink that writes each text out keeps the whole dump from
    ever existing at once.  Without a sink the texts are joined and
    returned.
    """
    chunks: list[str] = []
    put = chunks.append if sink is None else sink
    # after[id(route)]: the row text after the prefix, once per best Route (holders
    # share offers, class members bests); rib keeps each alive, so no id is reused.
    after: dict[int, str] = {}
    # Each prefix's text and its bests' lookup, in prefix order.
    held = [(f"{prefix}|", bests.get) for prefix, bests in rib._prefixes()]
    for asn in sorted(rib._asns):
        rows = []
        for text, best in held:
            route = best(asn)
            if route is None:
                continue
            shown = after.get(id(route))
            if shown is None:
                # Rel is a str enum: join reads its value without a .value call.
                shown = after[id(route)] = "|".join((
                    " ".join(map(str, route.as_path)), ";".join(sorted(route.communities)),
                    route.learned_rel,
                ))
            rows.append(text + shown)
        if rows:
            head = f"{asn}|"
            put(head + f"\n{head}".join(rows) + "\n")
    return "".join(chunks) if sink is None else None


def parse_rib_dump(
    text: str,
    prefixes: dict[str, Prefix] | None = None,
    tails: dict[str, tuple] | None = None,
) -> list[tuple[int, Route]]:
    """Parse dump lines back into (holder asn, Route) rows.

    Each distinct prefix text, and each distinct row text after the prefix
    (path, communities, relationship), is parsed once.  prefixes maps
    prefix texts already parsed to their Prefix, tails maps row tails to
    their (path, communities, Rel), and both gain the new ones; pass the
    same dicts to share that work across the dumps of one run (member
    views repeat prefixes and routes).  The registry loaders and
    load_originations take the same prefixes dict.
    """
    read_prefix = _prefix_reader({} if prefixes is None else prefixes)
    parsed = {} if tails is None else tails

    def parse_row(line: str) -> tuple[int, Route]:
        head = line.split("|", 2)
        if len(head) != 3:
            raise RoutingError(f"malformed RIB row {line!r}")
        tail = parsed.get(head[2])
        if tail is None:
            fields = head[2].split("|")
            if len(fields) != 3:
                raise RoutingError(f"malformed RIB row {line!r}")
            path = tuple(map(int, fields[0].split()))
            if not path:
                raise RoutingError("empty AS path")
            # Rel(text) only to word the error for an unknown relationship.
            rel = _RELS.get(fields[2]) or Rel(fields[2])
            communities = frozenset(c for c in fields[1].split(";") if c)
            tail = parsed[head[2]] = (path, communities, rel)
        prefix = read_prefix(head[1])
        return int(head[0]), _route(prefix, *tail)

    return read_lines(text, parse_row, RoutingError)


_RELS = {rel.value: rel for rel in Rel}


def load_originations(
    text: str, prefixes: dict[str, Prefix] | None = None
) -> list[Origination]:
    """Parse originations CSV: ``asn,prefix`` with an optional header.
    prefixes is parse_rib_dump's optional memo of parsed prefix texts."""
    read_prefix = _prefix_reader(prefixes)

    def parse(line: str) -> Origination:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise RoutingError("expected asn,prefix")
        return Origination(int(parts[0]), read_prefix(parts[1]))

    return read_lines(text, parse, RoutingError, header="asn,prefix")
