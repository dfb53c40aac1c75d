"""AS-level topology: relationships, customer cones, and the provider-free clique.

The graph is loaded from the standard serial-1 AS-relationship format:
``<asnA>|<asnB>|-1`` records that asnA is a transit provider of asnB, and
``<asnA>|<asnB>|0`` records a settlement-free peering.  Provider chains must
be acyclic; the propagation engine relies on that to converge.

Every AS's customer-cone size is one bottom-up pass of set unions
(``_cone_sizes``), run on a graph's first read of ``Topology.cone_sizes``
and kept with the graph.  So is the graph's dense view
(``Topology.dense``), the routing engine's numbering of the ASes, built on
first read.

This module also owns the on-disk graph cache the command line reads
through (``_load_cached``): one file per distinct topology text, holding
a parsed graph's three adjacency maps as one ``marshal`` blob each, a
SHA-256 over the blobs, and the cone sizes once a command that reads
them has loaded it.  A graph read from an entry decodes each map on its
first read of it, so a command pays only for the maps it reads.
"""

from __future__ import annotations

import enum
import functools
import gc
import hashlib
import logging
import marshal
import os
import sys
from collections import defaultdict
from contextlib import contextmanager, suppress
from itertools import chain, repeat
from operator import eq
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from . import _lines
from ._lines import data_lines, decode, read_lines

log = logging.getLogger(__name__)

MAX_ASN = 2**32 - 1


class TopologyError(ValueError):
    """Raised for malformed relationship data or invariant violations."""


class Relationship(enum.IntEnum):
    """Relationship code as recorded in a serial-1 data line."""

    P2C = -1
    P2P = 0


_CODES = frozenset(Relationship)
_EMPTY: frozenset[int] = frozenset()


class Rel(str, enum.Enum):
    """What a neighbor (or route source) is, from one AS's point of view.

    SELF is not a topology relation; it marks locally originated routes in
    the routing engine.
    """

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"
    SELF = "self"


def _check_asn(asn: int) -> int:
    if not isinstance(asn, int) or isinstance(asn, bool) or not 0 < asn <= MAX_ASN:
        raise TopologyError(f"invalid ASN {asn!r}: must be a positive 32-bit integer")
    return asn


def _check_record(a: int, b: int, code: int) -> None:
    _check_asn(a)
    _check_asn(b)
    if a == b:
        raise TopologyError(f"self-loop on AS{a}")
    if code not in _CODES:
        raise TopologyError(f"unknown relationship code {code}")


class Topology:
    """Immutable AS graph with provider/customer/peer adjacency.

    Construct via :meth:`from_records` or :func:`load_topology`; the graph
    never changes after construction.
    """

    def __init__(
        self,
        providers: Mapping[int, frozenset[int]],
        customers: Mapping[int, frozenset[int]],
        peers: Mapping[int, frozenset[int]],
    ):
        self.providers = dict(providers)
        self.customers = dict(customers)
        self.peers = dict(peers)
        self.asns = frozenset(self.providers)

    @classmethod
    def from_records(cls, records: Iterable[tuple[int, int, int]]) -> "Topology":
        """Build and validate a topology from (asnA, asnB, code) records.

        Code -1 means asnA is the provider of asnB; 0 means they peer.
        Rejects self-loops, duplicate edges between the same ASN pair, and
        cycles in the provider-customer subgraph.
        """
        records = list(records)
        for a, b, code in records:
            _check_record(a, b, code)
        a_col, b_col, codes = map(list, zip(*records)) if records else ([], [], [])
        asns = dict.fromkeys(chain.from_iterable(zip(a_col, b_col)))
        with _gc_paused():
            return cls._from_columns(asns, a_col, b_col, codes)

    @classmethod
    def _from_columns(
        cls, asns: Mapping[int, None], a_col: list[int], b_col: list[int], codes: list[int]
    ) -> "Topology":
        # Build from checked record columns and their ASNs by first appearance.
        providers: dict[int, set[int]] = defaultdict(set)
        customers: dict[int, set[int]] = defaultdict(set)
        peers: dict[int, set[int]] = defaultdict(set)
        for a, b, code in zip(a_col, b_col, codes):
            if code:  # P2C: a provides b
                customers[a].add(b)
                providers[b].add(a)
            else:
                peers[a].add(b)
                peers[b].add(a)

        def size(adjacency):
            return sum(map(len, adjacency.values()))

        # A pair recorded twice leaves the sets short of the record count
        # (the same p2c or p2p edge again) or puts a neighbor in two of an
        # AS's sets; only then are the records walked to name the first.
        n_p2c = sum(map(bool, codes))
        if (
            size(customers) != n_p2c
            or size(peers) != 2 * (len(codes) - n_p2c)
            or not all(
                c.isdisjoint(providers.get(a, ())) and c.isdisjoint(peers.get(a, ()))
                for a, c in customers.items()
            )
        ):
            check = _pair_check()
            for record in zip(a_col, b_col, codes):
                check(record)
        # Kahn's count-down: an AS is released once all its providers are.
        # Only if one never is does the walk run, to name a cycle.
        left = dict(zip(providers, map(len, providers.values())))
        released = [a for a in customers if a not in left]
        for a in released:
            for c in customers.get(a, _EMPTY):
                left[c] -= 1
                if not left[c]:
                    released.append(c)
        if any(left.values()):
            _check_c2p_acyclic(asns, customers)
        del left, released

        def freeze(adjacency):
            # Each set is popped as its frozenset is made, so it is freed
            # before the next is built.  Sets made in `asns` order lie in
            # memory in the order a full collection walks them: at 75k ASes,
            # half the time of a pass over sets made in another order.
            return dict(zip(asns, map(frozenset, map(adjacency.pop, asns, repeat(_EMPTY)))))

        # The fresh maps, with one key set, become the graph's own;
        # `__init__` would copy them.
        topo = cls.__new__(cls)
        topo.providers, topo.customers, topo.peers = (
            freeze(providers), freeze(customers), freeze(peers))
        topo.asns = frozenset(topo.providers)
        return topo

    @functools.cached_property
    def dense(self) -> DenseView:
        """The graph's dense view, from one pass on first read; the view is
        the graph's, not a copy."""
        return _dense_view(self)

    @functools.cached_property
    def cone_sizes(self) -> dict[int, int]:
        """Every AS's customer-cone size, ``len(customer_cone(self, asn))``,
        from one pass on first read; the dict is the graph's, not a copy."""
        return _cone_sizes(self.customers, self.providers)

    def providers_of(self, asn: int) -> frozenset[int]:
        self._require(asn)
        return self.providers[asn]

    def customers_of(self, asn: int) -> frozenset[int]:
        self._require(asn)
        return self.customers[asn]

    def peers_of(self, asn: int) -> frozenset[int]:
        self._require(asn)
        return self.peers[asn]

    def neighbors_of(self, asn: int) -> frozenset[int]:
        self._require(asn)
        return self.providers[asn] | self.customers[asn] | self.peers[asn]

    def rel_from(self, asn: int, neighbor: int) -> Rel:
        """Classify `neighbor` from `asn`'s point of view."""
        if neighbor in self.customers[asn]:
            return Rel.CUSTOMER
        if neighbor in self.peers[asn]:
            return Rel.PEER
        if neighbor in self.providers[asn]:
            return Rel.PROVIDER
        raise TopologyError(f"AS{neighbor} is not adjacent to AS{asn}")

    def records(self) -> list[tuple[int, int, int]]:
        """Edge list in serial-1 record form, deterministically sorted."""
        recs = [
            (p, c, int(Relationship.P2C))
            for p in sorted(self.customers)
            for c in sorted(self.customers[p])
        ]
        recs += [
            (a, b, int(Relationship.P2P))
            for a in sorted(self.peers)
            for b in sorted(self.peers[a])
            if a < b
        ]
        return recs

    def _require(self, asn: int) -> None:
        if asn not in self.asns:
            raise TopologyError(f"unknown ASN {asn}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self.providers == other.providers and self.peers == other.peers

    def __repr__(self) -> str:
        n_p2c = sum(len(c) for c in self.customers.values())
        n_p2p = sum(len(p) for p in self.peers.values()) // 2
        return f"Topology({len(self.asns)} ASes, {n_p2c} p2c, {n_p2p} p2p)"


def _pair_check() -> Callable[[tuple[int, int, int]], tuple[int, int, int]]:
    # A check to apply to records in order: it returns each record and
    # raises for the first whose AS pair came before, a p2c edge against an
    # earlier reversed one being a 2-cycle.
    seen: dict[tuple[int, int], tuple[int, int, int]] = {}

    def check(record: tuple[int, int, int]) -> tuple[int, int, int]:
        a, b, code = record
        first = seen.setdefault((a, b) if a < b else (b, a), record)
        if first is not record:
            if code == Relationship.P2C and first == (b, a, code):
                raise TopologyError(f"provider-customer cycle through AS{a} and AS{b}")
            raise TopologyError(f"duplicate edge between AS{a} and AS{b}")
        return record

    return check


def _check_c2p_acyclic(asns: Iterable[int], customers: Mapping[int, Iterable[int]]) -> None:
    # Iterative three-color DFS over provider->customer edges, rooted in
    # `asns` order; an AS without a color is white.
    GRAY, BLACK = 1, 2
    color: dict[int, int] = {}
    for root in asns:
        if root in color or root not in customers:
            continue
        stack: list[tuple[int, Iterable[int]]] = [(root, iter(sorted(customers[root])))]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                state = color.get(nxt)
                if state == GRAY:
                    raise TopologyError(
                        f"provider-customer cycle through AS{nxt} and AS{node}"
                    )
                if state is None:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(sorted(customers.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()


@contextmanager
def _gc_paused() -> Iterator[None]:
    # The graph being built is acyclic containers of ints, so a collection
    # during the build frees nothing; it only re-walks what exists so far.
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class DenseView(NamedTuple):
    """The ASes numbered 0..n-1 in ascending ASN order: asns[i] is AS i's
    ASN and index maps each ASN back to i.  customers, peers and providers
    hold, per index, that AS's neighbors of one kind as a sorted tuple of
    indices, so a walk of them visits neighbors in ascending ASN order."""

    asns: list[int]
    index: dict[int, int]
    customers: list[tuple[int, ...]]
    peers: list[tuple[int, ...]]
    providers: list[tuple[int, ...]]


@_gc_paused()
def _dense_view(topo: Topology) -> DenseView:
    # Index tuples of ints from one range share those int objects; the
    # collector is paused, since the tuples hold ints alone.
    asns = sorted(topo.asns)
    index = dict(zip(asns, range(len(asns))))
    number = index.__getitem__

    def indexed(adjacency: Mapping[int, frozenset[int]]) -> list[tuple[int, ...]]:
        return [tuple(sorted(map(number, adjacency[asn]))) for asn in asns]

    return DenseView(asns, index, indexed(topo.customers), indexed(topo.peers),
                     indexed(topo.providers))


def load_topology(source: str | bytes) -> Topology:
    """Parse AS-relationship text into a validated Topology.

    Data lines are ``asnA|asnB|code`` with code -1 (asnA provider of asnB)
    or 0 (peers); fields after the third (a source tag) are ignored, and
    line ends and comments follow the shared line format (``_lines``).
    Per-record errors, a repeated AS pair (or reversed p2c pair) included,
    report the 1-based line number, and so does a byte of a bytes source
    that is not UTF-8; a longer cycle names none.

    The text is read in bulk, with the cyclic garbage collector paused: the
    data lines are split once, as one text, into a flat field list whose
    columns are stride slices; each distinct field text becomes an int
    once, so an ASN is one int object; the columns are checked as columns,
    each adjacency is built once, and a count-down over provider counts
    checks acyclicity.  Each adjacency set is freed as its frozenset is
    made, so on three-field lines the load peaks near 1.4 times the graph
    it returns.  The per-line pass, the ordered record walk and the sorted
    cycle walk run only after a failed check, to word its error the way a
    line-by-line reader would.
    """
    if isinstance(source, bytes):
        source = decode(source, TopologyError)
    with _gc_paused():
        try:
            columns = _columns(data_lines(source))
        except ValueError:
            read_lines(source, _parse_record, TopologyError)  # raises for the bad line
            raise
        try:
            return Topology._from_columns(*columns)
        except TopologyError:
            # A repeated pair is named on its line; a longer cycle has none.
            check = _pair_check()
            read_lines(source, lambda line: check(_parse_record(line)), TopologyError)
            raise


def _columns(lines: list[str]) -> tuple[dict[int, None], list[int], list[int], list[int]]:
    # The ASNs by first appearance (a before b) and the three int columns of
    # the data lines, as stride slices of the flat field list; a ValueError
    # if a line has fewer than three fields, a non-int field or a value out
    # of range.  Each distinct field text is converted to an int once.
    if not lines:
        return {}, [], [], []
    fields, width = _fields(lines)
    if not width:
        # Lines of different field counts: cut each to its first three.
        fields, width = _fields([
            line if line.count("|") == 2 else "|".join(line.split("|", 3)[:3]) for line in lines
        ])
    if width < 3:
        raise ValueError("short record")
    step = width + 1
    a_txt, b_txt, code_txt = fields[0::step], fields[1::step], fields[2::step]
    del fields
    asn_of = {text: int(text) for text in dict.fromkeys(chain.from_iterable(zip(a_txt, b_txt)))}
    code_of = {text: int(text) for text in set(code_txt)}
    asns = dict.fromkeys(asn_of.values())
    a_col, b_col = list(map(asn_of.__getitem__, a_txt)), list(map(asn_of.__getitem__, b_txt))
    if not (0 < min(asns) and max(asns) <= MAX_ASN and set(code_of.values()) <= _CODES
            and not any(map(eq, a_col, b_col))):
        raise ValueError("record out of range")
    return asns, a_col, b_col, list(map(code_of.__getitem__, code_txt))


def _fields(lines: list[str]) -> tuple[list[str], int]:
    # One split of the lines joined by "|\n|": a flat field list in which
    # each line end is a "\n" field, and the field count of every line.
    # ([], 0) if the lines differ in field count: seen from the pipe total
    # when it does not divide evenly, else from "\n" fields off the stride.
    n = len(lines)
    text = "|\n|".join(lines)
    width, uneven = divmod(text.count("|") + 2 - n, n)
    if uneven:
        return [], 0
    fields = text.split("|")
    del text
    if fields[width::width + 1].count("\n") != n - 1:
        return [], 0
    return fields, width


def _parse_record(line: str) -> tuple[int, int, int]:
    parts = line.split("|")
    if len(parts) < 3:
        raise TopologyError(f"malformed record {line!r}")
    a, b, code = int(parts[0]), int(parts[1]), int(parts[2])
    _check_record(a, b, code)
    return a, b, code


def _load_cached(data: bytes, digest: str, cone_sizes: bool = False) -> Topology:
    """``load_topology(data)``, through the on-disk graph cache.

    `digest` is the SHA-256 of `data`, hex.  An entry is the ``marshal`` of
    a tuple: a SHA-256 over the three map blobs, the blobs themselves (each
    adjacency map marshalled on its own), and, if a caller that read them
    wrote it, the cone sizes with their own SHA-256.  It is named by a key
    over that digest, the interpreter's bytecode tag, the marshal format
    version and this loader's own source (which holds the cone-size pass),
    so an entry that a loader which parses text or sizes cones differently
    wrote is never read.  A hit checks the blobs against their digest, so
    they are byte for byte what the writer wrote and unmarshal to its maps,
    and returns a graph that decodes each map on its first read of it
    (``_CachedTopology``); a command pays only for the maps it reads.
    Marshal keeps shared objects shared within a blob, so each ASN is one
    int within each decoded map.  The maps keep their key order, but a
    frozenset may iterate in another order than the parsed one (since
    Python 3.11, marshal writes a frozenset's elements sorted).  The
    routing engine does not see that order: it walks the graph's dense
    view (``Topology.dense``), whose neighbor tuples are sorted, so a
    solve under a preference order whose keys tie picks the same routes on
    a hit as on a parse.  Anything else is a miss:
    no entry, an error reading or unmarshalling it, a wrong shape or a
    digest that does not match.  A miss parses `data` exactly as
    ``load_topology`` does, errors included, and only a graph that passed
    its checks is written, to a temporary file moved into place.  A write
    that fails with ``OSError`` is let go, so the graph returned is the
    same on a hit, a miss or a failed write.

    With `cone_sizes`, for a caller that reads ``Topology.cone_sizes``, a
    hit presets them from the entry, and an entry without them (or with
    sizes that do not match their digest) is written again with them, from
    the blobs it was read from; a miss writes them too.  They are computed
    for an entry only once its file is open, so a cache that cannot be
    written costs no cone pass.  Without it, the sizes are neither
    computed, nor decoded, nor written.
    """
    try:
        path = _cache_path(digest)
    except (OSError, RuntimeError):  # no loader source, or no home directory
        return load_topology(data)
    cached = _read_cached(path)
    if cached is None:
        topo, maps = load_topology(data), None
    else:
        topo, maps, sizes = cached
        if not cone_sizes or _preset_cone_sizes(topo, sizes):
            return topo
    _write_cached(path, topo, maps, cone_sizes)
    return topo


_MAPS = ("providers", "customers", "peers")


class _CachedTopology(Topology):
    """A graph read from a graph-cache entry: each adjacency map is
    unmarshalled from its blob on the graph's first read of it, and
    ``asns`` is made from ``customers``; each is then a plain instance
    attribute, read as on a parsed graph."""

    def __init__(self, blobs: Iterable[bytes]):
        self._blobs = dict(zip(_MAPS, blobs))

    def _decode(self, name: str) -> dict[int, frozenset[int]]:
        # The blob is dropped once decoded; the entry's digest was checked
        # on read, so this cannot fail.
        return marshal.loads(self._blobs.pop(name))

    @functools.cached_property
    def providers(self) -> dict[int, frozenset[int]]:
        return self._decode("providers")

    @functools.cached_property
    def customers(self) -> dict[int, frozenset[int]]:
        return self._decode("customers")

    @functools.cached_property
    def peers(self) -> dict[int, frozenset[int]]:
        return self._decode("peers")

    @functools.cached_property
    def asns(self) -> frozenset[int]:
        return frozenset(self.customers)


@functools.cache
def _loader_digest() -> str:
    # The loader's source: this module and the shared line format.
    digest = hashlib.sha256()
    for source in (__file__, _lines.__file__):
        digest.update(Path(source).read_bytes())
    return digest.hexdigest()


def _cache_path(digest: str) -> Path:
    # $XDG_CACHE_HOME/zonesim, or ~/.cache/zonesim, resolved per call.  The
    # XDG Base Directory spec calls a relative XDG_CACHE_HOME invalid, so
    # it is ignored, as an unset or empty one is.
    base = Path(os.environ.get("XDG_CACHE_HOME", ""))
    if not base.is_absolute():
        base = Path.home() / ".cache"
    key = "\0".join(
        (digest, str(sys.implementation.cache_tag), str(marshal.version), _loader_digest()))
    return base / "zonesim" / f"{hashlib.sha256(key.encode()).hexdigest()}.graph"


def _blobs_digest(*blobs: bytes) -> bytes:
    # SHA-256 over the blobs and their lengths.
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    return digest.digest()


def _read_cached(path: Path) -> tuple[Topology, tuple[bytes, ...], object] | None:
    # The graph a well-formed entry holds, the entry's digest and map blobs
    # (for a writer to reuse) and its cone sizes, still unchecked; else None.
    try:
        entry = marshal.loads(path.read_bytes())
    except (OSError, EOFError, ValueError, TypeError):
        return None
    if not (type(entry) is tuple and len(entry) == 5 and {*map(type, entry[:4])} == {bytes}):
        return None
    digest, *blobs, sizes = entry
    if digest != _blobs_digest(*blobs):
        return None
    return _CachedTopology(blobs), entry[:4], sizes


def _preset_cone_sizes(topo: Topology, sizes: object) -> bool:
    # An entry's sizes are a digest and the marshalled tuple it is over,
    # one int per AS in `customers` key order, so the dict's keys are that
    # map's own ints.  False if there are none, or the digest does not
    # match.
    if not (type(sizes) is tuple and len(sizes) == 2 and {*map(type, sizes)} == {bytes}
            and sizes[0] == _blobs_digest(sizes[1])):
        return False
    topo.cone_sizes = dict(zip(topo.customers, marshal.loads(sizes[1])))
    return True


def _write_cached(
    path: Path, topo: Topology, maps: tuple[bytes, ...] | None, cone_sizes: bool
) -> None:
    # Written whole under a name no other writer picks, then moved into
    # place, so a reader never sees a partial entry.  (`tempfile` would add
    # its imports to every command's start.)  `maps` is the digest and map
    # blobs of the entry the graph was read from, written again as they
    # are; without it the maps are marshalled.  The maps and the cone sizes
    # are read only once the file is open, so a cache that cannot be
    # written costs no marshalling and no cone pass.
    tmp = path.with_name(f".{os.urandom(8).hex()}.tmp")
    with suppress(OSError):
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "xb") as out:
                if maps is None:
                    blobs = [marshal.dumps(getattr(topo, name)) for name in _MAPS]
                    maps = (_blobs_digest(*blobs), *blobs)
                sizes = None
                if cone_sizes:
                    values = marshal.dumps(tuple(map(topo.cone_sizes.__getitem__, topo.customers)))
                    sizes = (_blobs_digest(values), values)
                marshal.dump((*maps, sizes), out)
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                tmp.unlink()
            raise


def load_ix_memberships(source: str) -> dict[str, frozenset[int]]:
    """Parse IX membership text: lines ``ix-id|asn``."""
    members: dict[str, set[int]] = defaultdict(set)
    for ix, asn in read_lines(source, _parse_ix_member, TopologyError):
        members[ix].add(asn)
    return {ix: frozenset(s) for ix, s in members.items()}


def _parse_ix_member(line: str) -> tuple[str, int]:
    parts = line.split("|")
    if len(parts) != 2:
        raise TopologyError(f"malformed IX record {line!r}")
    return parts[0], _check_asn(int(parts[1]))


def customer_cone(topo: Topology, asn: int) -> frozenset[int]:
    """All ASes reachable from `asn` by descending provider->customer edges.

    Excludes `asn` itself.
    """
    topo._require(asn)
    return _cone_avoiding(topo.customers, _EMPTY, asn)


def _cone_sizes(
    customers: Mapping[int, frozenset[int]], providers: Mapping[int, frozenset[int]]
) -> dict[int, int]:
    # Bottom-up: an AS is taken once all its customers are, and its cone is
    # its customers plus their kept cones.  A cone is kept only for an AS
    # with providers, and dropped once every provider has read it.
    waiting = {a: len(c) for a, c in customers.items()}  # customers not yet taken
    ready = [a for a, n in waiting.items() if not n]
    cones: dict[int, frozenset[int]] = {}
    unread: dict[int, int] = {}  # providers that have not yet read a kept cone
    sizes: dict[int, int] = {}
    while ready:
        asn = ready.pop()
        below = customers[asn]
        kept = [c for c in below if c in cones]
        cone = below.union(*map(cones.__getitem__, kept)) if kept else below
        for cust in kept:
            unread[cust] -= 1
            if not unread[cust]:
                del cones[cust], unread[cust]
        sizes[asn] = len(cone)
        if cone and providers[asn]:
            cones[asn] = cone
            unread[asn] = len(providers[asn])
        for prov in providers[asn]:
            waiting[prov] -= 1
            if not waiting[prov]:
                ready.append(prov)
    return sizes


def _cone_avoiding(
    customers: Mapping[int, frozenset[int]], avoid: frozenset[int], root: int
) -> frozenset[int]:
    # root's customer cone, less the ASes in `avoid` and what lies only below them.
    seen: set[int] = set()
    stack = [c for c in customers[root] if c not in avoid]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(c for c in customers[node] if c not in avoid and c not in seen)
    return frozenset(seen)


def tier1_clique(topo: Topology) -> frozenset[int]:
    """ASes with no transit provider.

    The group is expected to interconnect in a full peering mesh; any
    provider-free pair without a p2p edge is logged as a warning rather
    than treated as an error, because inter-AS payments are not observable.
    """
    clique = frozenset(a for a in topo.asns if not topo.providers[a])
    for a, b in tier1_mesh_gaps(topo):
        log.warning("provider-free ASes %d and %d are not peering", a, b)
    return clique


def tier1_mesh_gaps(topo: Topology) -> list[tuple[int, int]]:
    """Provider-free AS pairs missing a p2p edge, sorted."""
    clique = sorted(a for a in topo.asns if not topo.providers[a])
    return [
        (a, b)
        for i, a in enumerate(clique)
        for b in clique[i + 1 :]
        if b not in topo.peers[a]
    ]


def augment_with_ix_peering(
    topo: Topology, ix_memberships: Mapping[str, Iterable[int]]
) -> Topology:
    """Add a p2p edge for every co-located IX pair not already connected.

    ix_memberships maps an IX id to its member ASNs; a member absent from
    the graph joins it with no other edges.  Existing provider-customer
    edges are never rewritten: demoting a transit link to peering would
    corrupt customer cones.  Idempotent.
    """
    if not ix_memberships:
        raise TopologyError("no IX membership data")
    peers = {a: set(s) for a, s in topo.peers.items()}
    providers = dict(topo.providers)
    customers = dict(topo.customers)
    for members in ix_memberships.values():
        members = dict.fromkeys(_check_asn(m) for m in members)
        for a in members:
            if a not in providers:
                providers[a] = frozenset()
                customers[a] = frozenset()
                peers[a] = set()
        ordered = sorted(members)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                if b in peers[a] or b in providers[a] or b in customers[a]:
                    continue
                peers[a].add(b)
                peers[b].add(a)
    return Topology(providers, customers, {a: frozenset(s) for a, s in peers.items()})
