"""Trusted out-of-band databases: ROAs, provider authorizations, IRR, KYC.

These stores are modeled as already-authenticated data; no cryptography.
All lookups are total functions over a :class:`RegistrySet`, which is
immutable apart from its memo of ROV verdicts.

The loaders that read prefixes (``load_roas``, ``load_irr``, ``load_kyc``)
take an optional ``prefixes`` dict, the memo of parsed prefix texts that
``routing.parse_rib_dump`` also takes: each text not yet in it is parsed
once and added, so the files of one run share one Prefix per text.  Without
it, every occurrence is parsed.  Nothing is cached at module level.
"""

from __future__ import annotations

import enum
import ipaddress
import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ._lines import read_lines
from .topology import MAX_ASN

log = logging.getLogger(__name__)

Prefix = ipaddress.IPv4Network | ipaddress.IPv6Network


class RegistryError(ValueError):
    """Raised for malformed registry files or invalid records."""


def parse_prefix(text: str) -> Prefix:
    """Parse a prefix in canonical form (no host bits set)."""
    try:
        return ipaddress.ip_network(text.strip())
    except ValueError as exc:
        raise RegistryError(f"invalid prefix {text!r}: {exc}") from exc


def _prefix_reader(prefixes: dict[str, Prefix] | None) -> Callable[[str], Prefix]:
    """parse_prefix, or, given a memo of parsed prefix texts, a parser that
    parses each text not in it once and adds it."""
    if prefixes is None:
        return parse_prefix

    def read(text: str) -> Prefix:
        prefix = prefixes.get(text)
        if prefix is None:
            prefix = prefixes[text] = parse_prefix(text)
        return prefix

    return read


class RovState(enum.Enum):
    VALID = "valid"
    INVALID = "invalid"
    NOT_FOUND = "not_found"


class AspaState(enum.Enum):
    CONFIRMED = "confirmed"
    CONTRADICTED = "contradicted"
    NO_RECORD = "no_record"


class OriginVerdict(enum.Enum):
    VERIFIED = "verified"
    REJECTED = "rejected"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Roa:
    """Authorization for `origin_asn` to originate `prefix`.

    When max_length is absent the effective maximum equals the ROA prefix
    length, so only exact-length announcements validate.
    """

    prefix: Prefix
    origin_asn: int
    max_length: int | None = None

    def __post_init__(self):
        if self.max_length is not None:
            if not self.prefix.prefixlen <= self.max_length <= self.prefix.max_prefixlen:
                raise RegistryError(
                    f"ROA {self.prefix} maxLength {self.max_length} out of range"
                )

    @property
    def effective_max_length(self) -> int:
        return self.max_length if self.max_length is not None else self.prefix.prefixlen


@dataclass(frozen=True)
class AspaRecord:
    """A customer's registered set of transit providers."""

    customer_asn: int
    provider_asns: frozenset[int]

    def __post_init__(self):
        if not self.provider_asns:
            raise RegistryError(f"ASPA for AS{self.customer_asn} lists no providers")
        if self.customer_asn in self.provider_asns:
            raise RegistryError(f"ASPA for AS{self.customer_asn} lists itself")


@dataclass(frozen=True)
class KycEntry:
    """What a member has established a directly connected neighbor may announce.

    allowed_asns empty means the member has no explicit ASN list, in which
    case only the neighbor's own ASN is considered legitimate.
    """

    allowed_asns: frozenset[int] = frozenset()
    allowed_prefixes: frozenset[Prefix] = frozenset()


class _RovMemo:
    """rov_validate's memo: `states`, the ROV states by prefix and then
    origin; `last`, the prefix asked about last, paired with its states."""

    __slots__ = ("states", "last")

    def __init__(self):
        self.states: dict[Prefix, dict[int, RovState]] = {}
        self.last: tuple = (None, None)


@dataclass(frozen=True)
class RegistrySet:
    """Bundle of all verification sources used during a run, immutable
    apart from its ROV memo: `roas` is kept as a tuple and indexed once."""

    roas: tuple[Roa, ...] = ()
    aspas: Mapping[int, frozenset[int]] = field(default_factory=dict)
    irr_prefixes: Mapping[int, frozenset[Prefix]] = field(default_factory=dict)
    kyc: Mapping[tuple[int, int], KycEntry] = field(default_factory=dict)
    _index: _RoaIndex = field(init=False, repr=False, compare=False)
    _rov: _RovMemo = field(default_factory=_RovMemo, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "roas", tuple(self.roas))
        object.__setattr__(self, "_index", _RoaIndex(self.roas))


class _RoaIndex:
    """ROAs bucketed by (version, length, network bits).

    A covering ROA must sit at some length not exceeding the query's, with
    matching leading bits, so lookup probes one bucket per registered
    length instead of scanning the store.
    """

    def __init__(self, roas: Iterable[Roa]):
        self.buckets: dict[tuple[int, int, int], list[Roa]] = {}
        self.lengths: dict[int, list[int]] = {4: [], 6: []}
        for roa in roas:
            version = roa.prefix.version
            length = roa.prefix.prefixlen
            key = (version, length, int(roa.prefix.network_address))
            if key not in self.buckets:
                self.buckets[key] = []
                self.lengths[version].append(length)
            self.buckets[key].append(roa)
        for version in self.lengths:
            self.lengths[version] = sorted(set(self.lengths[version]))

    def covering(self, prefix: Prefix) -> list[Roa]:
        version = prefix.version
        bits = prefix.max_prefixlen
        net = int(prefix.network_address)
        found: list[Roa] = []
        for length in self.lengths[version]:
            if length > prefix.prefixlen:
                break
            shift = bits - length
            hit = self.buckets.get((version, length, (net >> shift) << shift))
            if hit:
                found.extend(hit)
        return found


def rov_validate(reg: RegistrySet, prefix: Prefix, origin: int) -> RovState:
    """Classify a (prefix, origin) pair against the ROA store.

    NOT_FOUND when no ROA prefix contains the announced prefix; VALID when
    any covering ROA matches the origin and the announced length does not
    exceed that ROA's effective maxLength; INVALID otherwise.  Results are
    memoized on the registry, per prefix and then per origin.
    """
    # A solve asks about one prefix object throughout, so the last prefix's
    # states are found by identity, which implies equality, without hashing
    # the network.  The pair is read and replaced as one tuple, so a caller
    # on another thread never pairs one prefix with another's states.
    memo = reg._rov
    last, states = memo.last
    if last is not prefix:
        states = memo.states.get(prefix)
        if states is None:
            states = memo.states[prefix] = {}
        memo.last = prefix, states
    state = states.get(origin)
    if state is None:
        covered = False
        for roa in reg._index.covering(prefix):
            covered = True
            if roa.origin_asn == origin and prefix.prefixlen <= roa.effective_max_length:
                state = RovState.VALID
                break
        else:
            state = RovState.INVALID if covered else RovState.NOT_FOUND
        states[origin] = state
    return state


def aspa_pair_valid(reg: RegistrySet, customer: int, alleged_provider: int) -> AspaState:
    """Check whether `customer` has registered `alleged_provider` as a provider."""
    providers = reg.aspas.get(customer)
    if providers is None:
        return AspaState.NO_RECORD
    if alleged_provider in providers:
        return AspaState.CONFIRMED
    return AspaState.CONTRADICTED


def verify_customer_origin(
    reg: RegistrySet, member: int, neighbor: int, prefix: Prefix, origin: int
) -> OriginVerdict:
    """Decide whether a single-hop origination from a direct neighbor is legitimate.

    An RPKI-invalid origin is always REJECTED, as is an origin outside the
    member's explicit KYC ASN list for that neighbor.  Otherwise any one
    positive source suffices for VERIFIED: a valid ROA, an authenticated IRR
    entry, or the member's configured prefix list.  With no basis either way
    the verdict is UNKNOWN and the caller forwards the route unverified.
    """
    rov = rov_validate(reg, prefix, origin)
    entry = reg.kyc.get((member, neighbor))
    if rov is RovState.INVALID:
        if prefix in reg.irr_prefixes.get(origin, frozenset()) or (
            entry is not None and prefix in entry.allowed_prefixes
        ):
            # A covering ROA contradicts a positive IRR/prefix-list entry;
            # the drop rule dominates, but the conflict is worth surfacing.
            log.warning(
                "AS%d: %s from AS%d is RPKI-invalid despite an IRR/prefix-list "
                "entry; dropping per the covering ROA",
                member,
                prefix,
                origin,
            )
        return OriginVerdict.REJECTED
    if entry is not None and entry.allowed_asns and origin not in entry.allowed_asns:
        return OriginVerdict.REJECTED
    if rov is RovState.VALID:
        return OriginVerdict.VERIFIED
    if prefix in reg.irr_prefixes.get(origin, frozenset()):
        return OriginVerdict.VERIFIED
    if entry is not None and prefix in entry.allowed_prefixes:
        return OriginVerdict.VERIFIED
    return OriginVerdict.UNKNOWN


def _asn(text: str) -> int:
    # An ASN field; AS0 is valid here, as it is in RPKI objects.
    asn = int(text)
    if not 0 <= asn <= MAX_ASN:
        raise RegistryError(f"invalid ASN {asn}: must be in 0..{MAX_ASN}")
    return asn


def _load_csv(source: str, header: str, parse: Callable[[list[str]], object]) -> list:
    """Parse each row of a registry CSV with a required header, fields stripped."""
    width = header.count(",") + 1

    def row(line: str):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < width:
            raise RegistryError(f"expected {width} fields ({header})")
        return parse(fields)

    return read_lines(source, row, RegistryError, header, header_required=True)


def load_roas(source: str, prefixes: dict[str, Prefix] | None = None) -> tuple[Roa, ...]:
    """Parse ROA CSV: ``prefix,maxlen,asn``; empty maxlen means absent.
    prefixes is the optional memo of parsed prefix texts (module docstring)."""
    read = _prefix_reader(prefixes)

    def roa(row: list[str]) -> Roa:
        return Roa(read(row[0]), _asn(row[2]), int(row[1]) if row[1] else None)

    return tuple(_load_csv(source, "prefix,maxlen,asn", roa))


def load_aspas(source: str) -> dict[int, frozenset[int]]:
    """Parse ASPA CSV: ``customer_asn,provider_asns`` with ``;``-separated providers."""
    records: dict[int, frozenset[int]] = {}

    def record(row: list[str]) -> None:
        rec = AspaRecord(_asn(row[0]), frozenset(_asn(p) for p in row[1].split(";") if p))
        if rec.customer_asn in records:
            raise RegistryError(f"duplicate record for AS{rec.customer_asn}")
        records[rec.customer_asn] = rec.provider_asns

    _load_csv(source, "customer_asn,provider_asns", record)
    return records


def load_irr(
    source: str, prefixes: dict[str, Prefix] | None = None
) -> dict[int, frozenset[Prefix]]:
    """Parse IRR CSV: ``asn,prefix``.  prefixes is the optional memo of
    parsed prefix texts (module docstring)."""
    read = _prefix_reader(prefixes)
    irr: dict[int, set[Prefix]] = {}
    for asn, prefix in _load_csv(
        source, "asn,prefix", lambda row: (_asn(row[0]), read(row[1]))
    ):
        irr.setdefault(asn, set()).add(prefix)
    return {a: frozenset(s) for a, s in irr.items()}


def load_kyc(
    source: str, prefixes: dict[str, Prefix] | None = None
) -> dict[tuple[int, int], KycEntry]:
    """Parse KYC CSV: ``member_asn,neighbor_asn,allowed_asns,allowed_prefixes``.

    The list fields are ``;``-separated; an empty list means absent.
    prefixes is the optional memo of parsed prefix texts (module docstring).
    """
    read = _prefix_reader(prefixes)
    kyc: dict[tuple[int, int], KycEntry] = {}

    def entry(row: list[str]) -> None:
        key = (_asn(row[0]), _asn(row[1]))
        if key in kyc:
            raise RegistryError(f"duplicate entry for {key}")
        kyc[key] = KycEntry(
            frozenset(_asn(a) for a in row[2].split(";") if a),
            frozenset(read(p) for p in row[3].split(";") if p),
        )

    _load_csv(source, "member_asn,neighbor_asn,allowed_asns,allowed_prefixes", entry)
    return kyc


def check_kyc_adjacency(kyc: Mapping[tuple[int, int], KycEntry], topo) -> None:
    """Scenario-assembly check: KYC keys must reference adjacent ASN pairs."""
    for member, neighbor in kyc:
        if neighbor not in topo.neighbors_of(member):
            raise RegistryError(
                f"KYC entry ({member}, {neighbor}) references non-adjacent ASes"
            )
