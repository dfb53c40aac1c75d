"""Seeded, stdlib-only input generator for the zonesim benchmark.

Topologies are CAIDA-like rather than uniform: a full peering mesh of
provider-free tier-1 ASes, a transit core that grows by preferential
attachment (so customer counts follow a power law), a stub edge that buys
transit from that core, and dense peering concentrated on well-connected
ASes.  Provider edges always point from an earlier to a later AS in the
growth order, so the provider graph is acyclic by construction; every
topology is still loaded back through ``zonesim.load_topology`` so the
library's own acyclicity check runs on it.

Everything written depends only on the workload, the seed and the size
table, so the same seed gives byte-identical files.  Run on its own to inspect a workload's
inputs:

    python3 perfbench/gen.py --workload full_rib_audit --seed 1 --out /tmp/in
"""

from __future__ import annotations

import argparse
import ipaddress
import itertools
import json
import random
import sys
from pathlib import Path

WORKLOADS = ("scenario_resolve", "full_rib_audit", "caida_analysis")

# Input sizes per scale.  "full" is what the benchmark measures; "tiny" keeps
# the same shape at a size the smoke test can run in seconds.
SIZES = {
    "full": {
        "scenario_resolve": {
            "ases": 300, "tier1": 12, "prefixes": 16, "sweep_attackers": 2,
            "exc_ases": 50, "exc_tier1": 5, "exc_members": 2,
        },
        "full_rib_audit": {"ases": 160, "tier1": 10, "prefixes": 112, "plant_each": 2},
        "caida_analysis": {
            "ases": 6000, "tier1": 16,
            "curve_sizes": "100,200,300,400,500,600",
            "greedy_sizes": "5,10,15",
            "region_sizes": "600",
        },
    },
    "tiny": {
        "scenario_resolve": {
            "ases": 80, "tier1": 4, "prefixes": 8, "sweep_attackers": 2,
            "exc_ases": 40, "exc_tier1": 3, "exc_members": 2,
        },
        "full_rib_audit": {"ases": 80, "tier1": 4, "prefixes": 16, "plant_each": 1},
        "caida_analysis": {
            "ases": 400, "tier1": 5,
            "curve_sizes": "10,20,40",
            "greedy_sizes": "2,4",
            "region_sizes": "20,40",
        },
    },
}

# How often each repetition repeats its set-up: the 6k-AS topology parses in
# about 0.2 s, the other workloads' inputs in milliseconds.
SETUP_REPEATS = {"scenario_resolve": 7, "full_rib_audit": 7, "caida_analysis": 3}

TRANSIT_SHARE = 0.15  # ASes after the tier-1 mesh that may sell transit
PROVIDER_COUNTS = ((1, 0.42), (2, 0.33), (3, 0.15), (4, 0.06), (5, 0.04))
PEERS_PER_AS = 2.6


class Graph:
    """A generated AS graph in growth order (index 0 is the first tier-1)."""

    def __init__(self, asns: list[int], tier1: int, transit: int):
        self.asns = asns
        self.tier1 = tier1
        self.transit = transit  # indices [0, transit) may have customers
        self.providers: list[list[int]] = [[] for _ in asns]
        self.customers: list[list[int]] = [[] for _ in asns]
        self.peers: set[tuple[int, int]] = set()
        self.pairs: set[tuple[int, int]] = set()

    def link(self, provider: int, customer: int) -> None:
        self.providers[customer].append(provider)
        self.customers[provider].append(customer)
        self.pairs.add((min(provider, customer), max(provider, customer)))

    def peer(self, a: int, b: int) -> None:
        """Add a peering unless the two are the same AS or already linked."""
        pair = (min(a, b), max(a, b))
        if a != b and pair not in self.pairs:
            self.pairs.add(pair)
            self.peers.add(pair)

    def records(self) -> list[tuple[int, int, int]]:
        asn = self.asns
        recs = [(asn[p], asn[c], -1) for c, ps in enumerate(self.providers) for p in ps]
        recs += [(asn[a], asn[b], 0) for a, b in self.peers]
        return sorted(recs)

    def levels(self) -> list[int]:
        """Each AS's longest provider chain, in edges, up to a provider-free AS."""
        level = [0] * len(self.asns)
        for i, ps in enumerate(self.providers):
            if ps:
                level[i] = 1 + max(level[p] for p in ps)
        return level

    def depth(self) -> int:
        return max(self.levels())


def _provider_count(rng: random.Random) -> int:
    x = rng.random()
    for count, p in PROVIDER_COUNTS:
        if x < p:
            return count
        x -= p
    return PROVIDER_COUNTS[-1][0]


def build_graph(rng: random.Random, n: int, tier1: int) -> Graph:
    asns = rng.sample(range(1, 400_000), n)
    transit = max(tier1 + 1, tier1 + int(TRANSIT_SHARE * (n - tier1)))
    g = Graph(asns, tier1, transit)
    for a in range(tier1):
        for b in range(a + 1, tier1):
            g.peer(a, b)
    # Preferential attachment: a transit AS appears in the urn once plus once
    # per customer it has gained, so well-connected providers keep winning.
    urn = list(range(tier1))
    for i in range(tier1, n):
        want = min(_provider_count(rng), min(i, transit))  # distinct ASes in the urn
        chosen: set[int] = set()
        while len(chosen) < want:
            chosen.add(urn[rng.randrange(len(urn))])
        for p in sorted(chosen):
            g.link(p, i)
            urn.append(p)
        if i < transit:
            urn.append(i)
    # Dense peering, half between degree-weighted endpoints (the transit
    # core meeting at exchanges), half from a uniform draw of edge ASes.
    weights = [i for i in range(n) for _ in range(1 + len(g.customers[i]) + len(g.providers[i]))]
    target = int(PEERS_PER_AS * n)
    attempts = 0
    while len(g.peers) < target and attempts < 20 * target:
        attempts += 1
        a = weights[rng.randrange(len(weights))]
        b = weights[rng.randrange(len(weights))] if attempts % 2 else rng.randrange(n)
        g.peer(a, b)
    return g


def load_and_summarize(g: Graph, text: str) -> dict:
    """Load the written topology through zonesim and describe its shape."""
    from zonesim import load_topology, tier1_mesh_gaps

    topo = load_topology(text)
    n = len(topo.asns)
    return {
        "ases": n,
        "p2c_edges": sum(len(c) for c in topo.customers.values()),
        "p2p_edges": sum(len(p) for p in topo.peers.values()) // 2,
        "transit_share": round(sum(1 for c in topo.customers.values() if c) / n, 4),
        "tier1": sum(1 for p in topo.providers.values() if not p),
        "tier1_mesh_gaps": len(tier1_mesh_gaps(topo)),
        "hierarchy_depth": g.depth(),
    }


def write_topology(path: Path, g: Graph, seed: int) -> dict:
    lines = [f"# synthetic CAIDA-like serial-1 relationships, seed {seed}"]
    lines += [f"{a}|{b}|{code}" for a, b, code in g.records()]
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    return load_and_summarize(g, text)


# --- prefixes and registries -------------------------------------------------

def _v4(block: int, length: int, offset: int = 0) -> ipaddress.IPv4Network:
    base = (16 << 24) + block * (1 << 16) + offset
    return ipaddress.IPv4Network((base, length))


def originations(rng: random.Random, g: Graph, count: int) -> list[tuple[int, ipaddress._BaseNetwork]]:
    """Legitimate (asn, prefix) pairs from stub origins, with covering and
    more-specific pairs.

    A repeating eight-step pattern gives a new /20, a /24 inside it from the
    same origin, another /20, a /22 inside that from a different origin (a
    customer sub-allocation), a /16, a /20 inside it from another origin, an
    IPv6 /32 and a /48 inside it from the same origin.
    """
    out = []
    block = 0
    last_net = None
    last_asn = None

    # Origins are edge (stub) networks, as most announced space is.  They are
    # drawn stratified by depth and multihoming, one stratum per origin, so
    # the per-prefix work does not swing with a lucky or unlucky draw.
    level = g.levels()
    stubs = sorted(range(g.transit, len(g.asns)), key=lambda i: (level[i], len(g.providers[i]), i))
    draws = itertools.count()

    def pick() -> int:
        k = next(draws) % count
        lo, hi = k * len(stubs) // count, (k + 1) * len(stubs) // count
        return g.asns[stubs[rng.randrange(lo, max(hi, lo + 1))]]

    for i in range(count):
        step = i % 8
        if step in (0, 2):
            block += 1
            last_asn, last_net = pick(), _v4(block, 20)
            out.append((last_asn, last_net))
        elif step == 1:
            out.append((last_asn, _v4(block, 24, 3 * 256)))
        elif step == 3:
            other = pick()
            while other == last_asn:
                other = pick()
            out.append((other, _v4(block, 22, 8 * 256)))
        elif step == 4:
            block += 1
            last_asn = pick()
            out.append((last_asn, _v4(block, 16)))
        elif step == 5:
            other = pick()
            while other == last_asn:
                other = pick()
            out.append((other, _v4(block, 20, 5 * 4096)))
        elif step == 6:
            last_asn = pick()
            last_net = ipaddress.IPv6Network(((0x2A00 << 112) | (block << 96), 32))
            block += 1
            out.append((last_asn, last_net))
        else:
            sub = ipaddress.IPv6Network((int(last_net.network_address) | (7 << 80), 48))
            out.append((last_asn, sub))
    return out


def write_originations(path: Path, origs) -> None:
    path.write_text("asn,prefix\n" + "".join(f"{a},{p}\n" for a, p in origs))


def _quota(rng: random.Random, n: int, shares: list[tuple[str, float]]) -> list[str]:
    """n labels in the given shares, exactly, in seeded order.  Exact counts
    keep the amount of work from swinging between seeds."""
    labels = [label for label, share in shares for _ in range(round(share * n))]
    labels = (labels + [shares[0][0]] * n)[:n]
    rng.shuffle(labels)
    return labels


def roas_for(rng: random.Random, g: Graph, origs, invalid_share: float) -> list[tuple]:
    """(prefix, maxlen-or-None, asn) ROAs: most with maxLength headroom, some
    exact, some missing, and a few bound to another origin (RPKI-invalid)."""
    shares = [("maxlen", 0.6), ("exact", 0.25), ("invalid", invalid_share),
              ("missing", 0.15 - invalid_share)]
    roas = []
    for (asn, prefix), kind in zip(origs, _quota(rng, len(origs), shares)):
        if kind == "maxlen":
            roas.append((prefix, min(prefix.max_prefixlen, prefix.prefixlen + 4), asn))
        elif kind == "exact":
            roas.append((prefix, None, asn))
        elif kind == "invalid":
            other = g.asns[rng.randrange(len(g.asns))]
            if other != asn:
                roas.append((prefix, None, other))
    return roas


def write_roas(path: Path, roas) -> None:
    rows = [f"{p},{'' if m is None else m},{a}\n" for p, m, a in roas]
    path.write_text("prefix,maxlen,asn\n" + "".join(rows))


def zone_members(rng: random.Random, g: Graph, transit_prob: float, stub_prob: float) -> list[int]:
    """A connected zone: the tier-1s, then transit and stub ASes in growth
    order, each joining only when one of its providers is already a member.

    The zone takes transit_prob of the transit ASes and stub_prob of the
    stubs, exactly where connectivity allows, so its size is the same for
    every seed; the seed picks which ones.
    """
    member = [i < g.tier1 for i in range(len(g.asns))]
    for lo, hi, prob in ((g.tier1, g.transit, transit_prob), (g.transit, len(g.asns), stub_prob)):
        want = round(prob * (hi - lo))
        order = list(range(lo, hi))
        rng.shuffle(order)
        while want:
            joinable = [i for i in order if not member[i] and any(member[p] for p in g.providers[i])]
            if not joinable:
                break
            member[joinable[0]] = True
            want -= 1
    return [i for i, m in enumerate(member) if m]


def write_zone(path: Path, g: Graph, members, *, aspa_ext=False, honor=()) -> None:
    lines = [f"aspa_extension={'true' if aspa_ext else 'false'}"]
    if honor:
        lines.append("honor_verified=" + ";".join(str(g.asns[i]) for i in sorted(honor)))
    lines += [str(g.asns[i]) for i in sorted(members)]
    path.write_text("\n".join(lines) + "\n")


def _scenario(path: Path, **fields) -> None:
    path.write_text("".join(f"{k}={v}\n" for k, v in fields.items()))


# --- workloads ---------------------------------------------------------------

def snapshot(workload: str, name: str, size: dict, ases: str = "ases", tier1: str = "tier1") -> Graph:
    """The workload's fixed AS graph, drawn from its own structural seed.

    The graph plays the part of one AS-relationship snapshot: every seed of
    a workload studies the same graph, and the seed draws what is placed on
    it.  A graph drawn per seed moves the solve work by 10-20% between seeds
    (hierarchy depth and hub sizes vary), which would hide real changes.
    """
    return build_graph(random.Random(f"{workload}:{name}"), size[ases], size[tier1])


def gen_scenario_resolve(rng: random.Random, out: Path, size: dict, seed: int) -> dict:
    g = snapshot("scenario_resolve", "main", size)
    summary = {"main": write_topology(out / "topology.txt", g, seed)}
    origs = originations(rng, g, size["prefixes"])
    write_originations(out / "originations.csv", origs)
    write_roas(out / "roas.csv", roas_for(rng, g, origs, invalid_share=0.0))
    members = zone_members(rng, g, transit_prob=0.5, stub_prob=0.02)
    write_zone(out / "zone.txt", g, members)

    victim, victim_prefix = origs[0]
    stubs = [g.asns[i] for i in range(g.transit, len(g.asns)) if g.asns[i] != victim]
    multihomed = [
        i for i in range(g.transit, len(g.asns))
        if len(g.providers[i]) >= 2 and g.asns[i] != victim
    ]
    attackers = rng.sample(stubs, 3 + size["sweep_attackers"])
    leaker = rng.choice(multihomed)
    sub = ipaddress.IPv4Network((int(victim_prefix.network_address) + 4 * 256, 22))
    common = {"victim_origin": victim}
    _scenario(out / "scenario_origin.txt", kind="OriginHijack", attacker=attackers[0],
              victim_prefix=victim_prefix, **common)
    _scenario(out / "scenario_forged.txt", kind="ForgedOriginPathHijack",
              attacker=attackers[1], victim_prefix=victim_prefix, forged_path=victim, **common)
    _scenario(out / "scenario_subprefix.txt", kind="SubPrefixHijack", attacker=attackers[2],
              victim_prefix=sub, **common)
    _scenario(out / "scenario_leak.txt", kind="RouteLeak", attacker=g.asns[leaker],
              victim_prefix=victim_prefix, leaked_from=g.asns[rng.choice(g.providers[leaker])],
              **common)

    # Exceptions run on a small graph: two solves of one probe prefix per AS
    # for each member asked about.
    small = snapshot("scenario_resolve", "exceptions", size, "exc_ases", "exc_tier1")
    summary["exceptions"] = write_topology(out / "exc_topology.txt", small, seed)
    exc_members = zone_members(rng, small, transit_prob=0.4, stub_prob=0.25)
    write_zone(out / "exc_zone.txt", small, exc_members)
    # Members with both providers and customers, so that a verified route
    # from a provider can displace a customer route: an exception.
    askable = [i for i in exc_members if small.providers[i] and small.customers[i]]
    asked = sorted(rng.sample(askable, size["exc_members"]))

    scen = ["scenario_origin.txt", "scenario_forged.txt",
            "scenario_subprefix.txt", "scenario_leak.txt"]
    base = ["--topology", "topology.txt", "--zone", "zone.txt", "--roas", "roas.csv",
            "--originations", "originations.csv"]
    ops = [{"op": "scenario", "argv": ["simulate", *base, "--scenario", s], "exit": 0,
            "outputs": ["rib.txt", "harm.csv"]} for s in scen]
    ops.append({"op": "sweep", "call": "sweep_attackers", "kind": "OriginHijack",
                "victim_prefix": str(victim_prefix), "victim_origin": victim,
                "attackers": attackers[3:]})
    ops += [{"op": "exceptions",
             "argv": ["exceptions", "--topology", "exc_topology.txt", "--zone", "exc_zone.txt",
                      "--member", str(small.asns[m])],
             "exit": 0, "outputs": ["exceptions.csv"]} for m in asked]
    setup = [["topology", "topology.txt"], ["roas", "roas.csv"],
             ["zone", "zone.txt", "topology.txt"], ["originations", "originations.csv"]]
    setup += [["scenario", s] for s in scen]
    setup += [["topology", "exc_topology.txt"], ["zone", "exc_zone.txt", "exc_topology.txt"]]
    return {"summary": summary, "setup": setup, "ops": ops}


def gen_full_rib_audit(rng: random.Random, out: Path, size: dict, seed: int) -> dict:
    g = snapshot("full_rib_audit", "main", size)
    summary = {"main": write_topology(out / "topology.txt", g, seed)}
    origs = originations(rng, g, size["prefixes"])
    write_originations(out / "originations.csv", origs)
    roas = roas_for(rng, g, origs, invalid_share=0.05)
    write_roas(out / "roas.csv", roas)
    roa_origins = {a for _, _, a in roas}

    # ASPA: a third of the ASes with providers register them; a tenth of the
    # multihomed ones leave one out, so some claims are contradicted.
    aspa = []
    for i in range(len(g.asns)):
        ps = g.providers[i]
        if ps and rng.random() < 0.33:
            listed = ps[:-1] if len(ps) > 1 and rng.random() < 0.1 else ps
            aspa.append((g.asns[i], sorted(g.asns[p] for p in listed)))
    (out / "aspas.csv").write_text(
        "customer_asn,provider_asns\n"
        + "".join(f"{c},{';'.join(map(str, ps))}\n" for c, ps in aspa))

    irr = [(a, p) for a, p in origs if a not in roa_origins or rng.random() < 0.3]
    (out / "irr.csv").write_text("asn,prefix\n" + "".join(f"{a},{p}\n" for a, p in irr))

    members = zone_members(rng, g, transit_prob=0.6, stub_prob=0.03)
    member_set = set(members)
    by_origin: dict[int, list] = {}
    for a, p in origs:
        by_origin.setdefault(a, []).append(p)
    kyc = []
    for m in members:
        for c in g.customers[m]:
            if c in member_set or rng.random() > 0.4:
                continue
            allowed = sorted({g.asns[c]} | {g.asns[x] for x in g.customers[c]})
            prefixes = by_origin.get(g.asns[c], [])
            kyc.append((g.asns[m], g.asns[c], ";".join(map(str, allowed)),
                        ";".join(map(str, prefixes))))
    (out / "kyc.csv").write_text(
        "member_asn,neighbor_asn,allowed_asns,allowed_prefixes\n"
        + "".join(",".join(map(str, row)) + "\n" for row in kyc))

    # Opted-in non-members are stub customers of members, as in the
    # mh2_optin/mh3_optin fixtures.  A stub re-exports nothing it learns, so
    # its verified-first preference cannot feed back into anyone's choice.
    stubs = sorted({c for m in members for c in g.customers[m] if not g.customers[c]} - member_set)
    honor = rng.sample(stubs, len(stubs) // 5)
    write_zone(out / "zone.txt", g, members, aspa_ext=True, honor=honor)

    regs = ["--roas", "roas.csv", "--aspas", "aspas.csv", "--irr", "irr.csv", "--kyc", "kyc.csv"]
    ops = [
        {"op": "simulate",
         "argv": ["simulate", "--topology", "topology.txt", "--zone", "zone.txt", *regs,
                  "--originations", "originations.csv"],
         "exit": 0, "outputs": ["rib.txt"]},
        # The views are cut from the simulate op's rib.txt before this runs.
        {"op": "audit",
         "argv": ["audit", "--topology", "topology.txt", "--zone", "zone.txt", *regs,
                  "--waivers", "waivers.csv", "--views", "@views"],
         "exit": 3, "outputs": ["findings.csv"]},
    ]
    setup = [["topology", "topology.txt"], ["roas", "roas.csv"], ["aspas", "aspas.csv"],
             ["irr", "irr.csv"], ["kyc", "kyc.csv"], ["zone", "zone.txt", "topology.txt"],
             ["originations", "originations.csv"]]
    return {
        "summary": summary, "setup": setup, "ops": ops,
        "views": {"members": sorted(g.asns[m] for m in members),
                  "roas": [[str(p), a] for p, _, a in roas],
                  "aspas": {str(c): ps for c, ps in aspa},
                  "plant_each": size["plant_each"], "seed": seed},
    }


def gen_caida_analysis(rng: random.Random, out: Path, size: dict, seed: int) -> dict:
    g = snapshot("caida_analysis", "main", size)
    summary = {"main": write_topology(out / "topology.txt", g, seed)}
    # A MANRS-like roster: most tier-1s, a sample of transit ASes (some of
    # them not connected to the rest) and a sprinkling of stubs.
    roster = [i for i in range(g.tier1) if rng.random() < 0.8]
    roster += [i for i in range(g.tier1, g.transit) if rng.random() < 0.08]
    roster += [i for i in range(g.transit, len(g.asns)) if rng.random() < 0.005]
    (out / "roster.txt").write_text("".join(f"{g.asns[i]}\n" for i in roster))
    topo = ["--topology", "topology.txt"]
    ops = [
        {"op": "zone", "argv": ["zone", *topo, "--roster", "roster.txt"], "exit": 0,
         "outputs": ["zone_report.csv"]},
        {"op": "curve", "argv": ["curve", *topo, "--sizes", size["curve_sizes"]], "exit": 0,
         "outputs": ["growth.csv"]},
        {"op": "greedy_curve",
         "argv": ["curve", *topo, "--order", "greedy", "--sizes", size["greedy_sizes"]],
         "exit": 0, "outputs": ["growth.csv"]},
        {"op": "local_region", "argv": ["local-region", *topo, "--sizes", size["region_sizes"]],
         "exit": 0, "outputs": ["regions.csv", "region_summary.csv"]},
    ]
    return {"summary": summary, "setup": [["topology", "topology.txt"]], "ops": ops}


GENERATORS = {
    "scenario_resolve": gen_scenario_resolve,
    "full_rib_audit": gen_full_rib_audit,
    "caida_analysis": gen_caida_analysis,
}


def generate(workload: str, seed: int, out: Path, scale: str = "full") -> dict:
    """Write one workload's inputs into `out` and return its run plan."""
    out.mkdir(parents=True, exist_ok=True)
    # Each workload draws from its own stream, so adding one never shifts another.
    rng = random.Random(f"{workload}:{seed}")
    plan = GENERATORS[workload](rng, out, SIZES[scale][workload], seed)
    plan.update({"workload": workload, "seed": seed, "scale": scale,
                 "setup_repeats": SETUP_REPEATS[workload]})
    (out / "plan.json").write_text(json.dumps(plan, indent=1, sort_keys=True) + "\n")
    return plan


# --- member views with planted faults ----------------------------------------

def cut_views(rib_text: str, spec: dict) -> tuple[dict[int, list[str]], list[dict]]:
    """Split a RIB dump into per-member views and plant audit faults.

    Plants `plant_each` faults of each kind in seeded rows.  The culprit is
    the entry member, the member nearest the origin on the path (the view's
    owner when the path has none), as the audit rules define it:
    R1 tags a route that crossed more unique ASes before entering the zone
    than verification allows (one, or two with a confirming provider
    authorization); R2 rewrites the origin of a route under a covering ROA
    to an ASN no ROA authorizes; R3 drops the tag from a route whose member
    neighbor's view shows it tagged.  Returns the view lines by member and
    the planted (rule, culprit, prefix) ground truth.
    """
    members = set(spec["members"])
    views: dict[int, list[str]] = {m: [] for m in sorted(members)}
    for line in rib_text.splitlines():
        asn = int(line.split("|", 1)[0])
        if asn in members:
            views[asn].append(line)
    roas = [(ipaddress.ip_network(p), a) for p, a in spec["roas"]]
    providers = {int(c): set(ps) for c, ps in spec["aspas"].items()}
    rng = random.Random(f"views:{spec['seed']}")
    tag = "VERIFIED:1"

    def fields(line):
        asn, prefix, path, comms, rel = line.split("|")
        return asn, prefix, path.split(), [c for c in comms.split(";") if c], rel

    def entry(path, owner):
        ases = [int(a) for a in path]
        for i in range(len(ases) - 1, -1, -1):
            if ases[i] in members:
                return ases[i], tuple(dict.fromkeys(ases[i + 1:]))
        return owner, tuple(dict.fromkeys(ases))

    def rewrite(m, k, path, comms):
        asn, prefix, _, _, rel = fields(views[m][k])
        views[m][k] = "|".join((asn, prefix, " ".join(path), ";".join(sorted(comms)), rel))
        return prefix

    def under_roa(prefix):
        prefix = ipaddress.ip_network(prefix)
        return any(prefix.version == r.version and prefix.subnet_of(r) for r, _ in roas)

    tagged = {m: {(f[1], tuple(f[2])) for f in map(fields, rows) if tag in f[3]}
              for m, rows in views.items()}
    too_far, invalidable, relayed = [], [], []
    for m, rows in views.items():
        for k, (_, prefix, path, comms, rel) in enumerate(map(fields, rows)):
            if rel == "self":
                continue
            _, pre = entry(path, m)
            confirmed = len(pre) == 2 and pre[0] in providers.get(pre[-1], ())
            if tag not in comms and len(pre) > (2 if confirmed else 1):
                too_far.append((m, k))
            elif len(path) > 1 and under_roa(prefix):
                invalidable.append((m, k))
            if tag in comms and (prefix, tuple(path[1:])) in tagged.get(int(path[0]), ()):
                relayed.append((m, k))

    planted = []
    n = spec["plant_each"]
    r1 = rng.sample(too_far, min(n, len(too_far)))
    for m, k in r1:
        _, _, path, comms, _ = fields(views[m][k])
        prefix = rewrite(m, k, path, comms + [tag])
        planted.append({"rule": "R1-FalseVerified", "culprit": entry(path, m)[0], "prefix": prefix})
    r2 = rng.sample(invalidable, min(n, len(invalidable)))
    for m, k in r2:
        _, _, path, comms, _ = fields(views[m][k])
        # A private-use ASN: no ROA authorizes it and it is no member.
        path = path[:-1] + [str(4_200_000_000 + rng.randrange(1000))]
        prefix = rewrite(m, k, path, comms)
        planted.append({"rule": "R2-InvalidOrigin", "culprit": entry(path, m)[0], "prefix": prefix})
    relayed = [row for row in relayed if row not in r2]
    for m, k in rng.sample(relayed, min(n, len(relayed))):
        _, _, path, comms, _ = fields(views[m][k])
        prefix = rewrite(m, k, path, [c for c in comms if c != tag])
        planted.append({"rule": "R3-TagStripped", "culprit": m, "prefix": prefix})
    return {m: rows for m, rows in views.items() if rows}, planted


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", required=True, help="directory to write inputs into")
    args = parser.parse_args(argv)
    plan = generate(args.workload, args.seed, Path(args.out), args.scale)
    print(json.dumps(plan["summary"], indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
