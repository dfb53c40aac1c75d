"""One-shot propagation probe at CAIDA scale (about 75k ASes).

Builds the benchmark generator's CAIDA-like graph
(``perfbench.gen.build_graph(Random(7), 75000, 16)``), loads it through
``load_topology``, solves one prefix under a zone policy three times and
dumps the last RIB with ``dump_rib``, then prints one JSON object: graph
size, wall-clock seconds of the load, the solve and the dump (raw, not
calibrated; propagate_s is the median of the three solves, whose times
propagate_runs_s lists in order), RIB rows (the dump's lines), the
resident set right after the load (``load_rss_mb``, read from
``/proc/self/statm``; null where that file does not exist) and the peak
resident set, read before the dump.  Each solve drops the RIB before it
first, so one RIB at most exists at a time.  Before the timed solves it
builds the graph's dense view (``Topology.dense``), which every solve on
the graph shares, and reports that one-time build apart as network_s.
After the dump it solves once more with the zone's scoped import hook
counting the calls of the hook inside it, and reports them as hook_calls:
the import decisions the timed solves leave to the zone's rules, which
run only at members and opted-in ASes.

Then it solves once more with counting wrappers around the import and
export hooks, checks that this RIB equals the last timed one, and reports
refused_edge_checks (export hook calls: edges the valley-free rule
refuses) and imports (import hook calls) of that solve alone.  The
counting import wrapper is a plain function, so it drops the zone hook's
scope and counts every import decision, at every AS.  A wrapped export
hook is not the default, so the counting solve visits every refused edge;
the timed solves, under the zone policy's default export hook, do not, so
refused_edge_checks counts the edge visits they skip.
The comparison replays every holder's candidates in both RIBs, the
counting RIB's through the counting hooks; their calls during it are
reported apart, as replay_imports and replay_refused_edge_checks.  A
replay walks only the edges into its AS from neighbors holding a best, so
these count those edges that pass the export rule (or hook) and the loop
check, and those the rule refuses.
Last, after every other reading, it loads the text once more, untimed,
under ``tracemalloc``, and reports the graph that load returns
(``load_traced_mb``) and the load's traced peak (``load_traced_peak_mb``).
The process's peak resident set cannot give the load's own peak, since it
also counts the graph generation.

The zone is the connected core of the 300 ASes (--cones) with the largest
customer cones; the prefix is the synthetic probe prefix of the lowest-numbered
stub AS, with a matching ROA.

With --exceptions the probe times one routing_exceptions call instead of
the solves, for the lowest-numbered zone member that has a provider (a
transit member; the provider-free tier-1 members can have no exception).
It prints the load time, load_rss_mb, exceptions_s, exception_count, the
peak resident set, which here is that call's, and the call's
verified_solves (the probe prefixes of the member's reach, each solved
under the zone policy) and mixed_solves (those solved again with the
member ranking plain), counted by a wrapper around
analysis._propagate_prefix.

With --audit the probe times one audit_views call instead: it solves the
probe prefixes of 50 stubs (a fixed sample, seeded), each with a matching
ROA, under the zone policy, cuts every member's honest view with
``audit.views_from_rib`` and audits them.  It prints the load time,
load_rss_mb, audit_s, view_routes (the routes of all views), findings (an
honest zone is never accused, so 0), prefix_origins (the distinct (prefix,
origin) pairs of the views), rov_validations (the audit's rov_validate
calls, counted by a wrapper around audit.rov_validate; one per distinct
pair) and the peak resident set.

With --cli the probe times three commands end to end instead: it writes
the graph and a roster of the N largest cones, with N the --cones value,
to a temporary directory and runs ``zonesim.cli.main`` twice on
``local-region --sizes N`` (the region-size distribution of the attached
customers of the N largest cones), then twice on ``curve --sizes N`` (the
protected count of the N largest cones), then twice on ``zone --roster``
with that roster, in this fresh process.  Each command's pair has its
own new empty graph cache (XDG_CACHE_HOME) inside the temporary
directory, so its first call is cold: it parses the topology, runs the
cone-size pass (local-region and curve only) and writes the cache entry.
The second call reads the graph, and its cone sizes, from that
entry.  It prints the first nonzero exit code of the cold calls (or 0);
cli_s and cli_warm_s (the two local-region calls' wall-clock seconds),
region_rows (the regions.csv data rows), outputs_identical (whether the
two wrote byte-identical files) and cache_entries (the entries in their
cache afterwards); curve_s, curve_warm_s, curve_outputs_identical and
curve_cache_entries, the same for the two curve calls; zone_s,
zone_warm_s, zone_outputs_identical and zone_cache_entries, the same for
the two zone calls, whose cold call writes no cone sizes; and the peak
resident set.

With --simulate N the probe times one ``simulate`` end to end instead: it
writes the graph and N originations, each a /24 (10.0.0.0/24, 10.0.1.0/24,
...) from one of N stub ASes drawn with a fixed seed, to a temporary
directory and runs ``zonesim.cli.main`` once on them, with no zone or
registry, in this fresh process.  It prints the command's exit code,
cli_s (the call's wall-clock seconds, which include the topology parse),
rib_rows and rib_mb (rib.txt's lines and size), the peak resident set,
read right after that call (it also counts the graph generation), and,
from a second, untimed run of the same command under ``tracemalloc``,
simulate_traced_peak_mb: that call's traced peak.  Each of the two runs
has its own new empty graph cache, so both parse the topology.

    python3 tools/scale_probe.py            # 75k ASes
    python3 tools/scale_probe.py --ases 2000
    python3 tools/scale_probe.py --ases 500 --cones 30 --exceptions
    python3 tools/scale_probe.py --ases 2000 --audit
    python3 tools/scale_probe.py --ases 2000 --cli
    python3 tools/scale_probe.py --ases 2000 --simulate 20

This probe is not part of the benchmark or the tests.  CI parses only its
JSON line.  At 2000 ASes it requires every AS loaded, reported load and
dump times, rib_rows 2000, refused_edge_checks 15998, imports 4416,
hook_calls 675 and load_traced_peak_mb at most 1.6 times load_traced_mb; with
--cones 30 --exceptions at 500 ASes, every AS loaded, exception_count 11,
verified_solves 75 and mixed_solves 11; with --audit at 2000 ASes,
view_routes 15000, findings 0 and rov_validations equal to prefix_origins;
with --cli at 2000 ASes, exit code 0, a positive region_rows, and for the
local-region pair, the curve pair and the zone pair each, identical
outputs and one cache entry; with --simulate 20 at 2000 ASes, exit code 0, rib_rows 40000
(every AS holds every prefix) and simulate_traced_peak_mb at most 3 times
rib_mb.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from random import Random
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def rss_mb() -> float | None:
    """The process's current resident set in MB; None without /proc/self/statm."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except OSError:
        return None
    return round(pages * resource.getpagesize() / 2**20, 1)


def traced_load(text: str) -> dict[str, float]:
    """Load `text` under tracemalloc: the graph's traced MB and the load's traced peak."""
    from zonesim import load_topology

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        topo = load_topology(text)  # held while the traced sizes are read
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "load_traced_mb": round((current - base) / 2**20, 2),
        "load_traced_peak_mb": round((peak - base) / 2**20, 2),
    }


def new_graph_cache(path: Path) -> Path:
    """Point the CLI's graph cache at `path`, an empty directory, for what
    runs next in this process; return the cache's own directory."""
    os.environ["XDG_CACHE_HOME"] = str(path)
    return path / "zonesim"


def outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def cold_and_warm(tmp: Path, name: str, argv: list[str]) -> dict:
    """Run ``zonesim.cli.main`` on argv twice over a new empty graph cache
    under tmp: the first call cold, the second from the entry it wrote."""
    from zonesim import cli

    cache = new_graph_cache(tmp / f"cache-{name}")
    runs = []
    for out in (tmp / f"{name}-cold", tmp / f"{name}-warm"):
        t = perf_counter()
        code = cli.main(argv + ["--out-dir", str(out)])
        runs.append((code, perf_counter() - t, outputs(out) if out.is_dir() else {}))
    (code, cold_s, cold), (warm_code, warm_s, warm) = runs
    return {
        "exit": code, "cold_s": cold_s, "warm_s": warm_s, "cold": cold,
        "identical": warm_code == code and warm == cold,
        "entries": len(list(cache.glob("*.graph"))),
    }


def probe_cli(text: str, ases: int, roster: list[int]) -> int:
    """Time ``local-region --sizes N`` and then ``curve --sizes N`` on the
    graph text, N the roster's length, and then ``zone --roster`` on the
    roster, each cold and then from the graph cache; return the first
    nonzero exit code of the cold calls, or 0."""
    cones = len(roster)
    with tempfile.TemporaryDirectory() as tmp:
        topo_file, roster_file = Path(tmp) / "topology.txt", Path(tmp) / "roster.txt"
        topo_file.write_text(text)
        roster_file.write_text("".join(f"{asn}\n" for asn in roster))
        common = ["--topology", str(topo_file), "--sizes", str(cones)]
        region = cold_and_warm(Path(tmp), "region", ["local-region", *common])
        curve = cold_and_warm(Path(tmp), "curve", ["curve", *common])
        zone = cold_and_warm(Path(tmp), "zone", [
            "zone", "--topology", str(topo_file), "--roster", str(roster_file)])
    code = region["exit"] or curve["exit"] or zone["exit"]
    regions = region["cold"]["regions.csv"] if region["exit"] == 0 else None
    print(json.dumps({
        "ases": ases,
        "cones": cones,
        "exit": code,
        "cli_s": round(region["cold_s"], 3),
        "cli_warm_s": round(region["warm_s"], 3),
        "region_rows": None if regions is None else regions.count(b"\n") - 1,
        "outputs_identical": region["identical"],
        "cache_entries": region["entries"],
        "curve_s": round(curve["cold_s"], 3),
        "curve_warm_s": round(curve["warm_s"], 3),
        "curve_outputs_identical": curve["identical"],
        "curve_cache_entries": curve["entries"],
        "zone_s": round(zone["cold_s"], 3),
        "zone_warm_s": round(zone["warm_s"], 3),
        "zone_outputs_identical": zone["identical"],
        "zone_cache_entries": zone["entries"],
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "python": platform.python_version(),
    }))
    return code


def probe_simulate(text: str, ases: int, origins: list[int]) -> int:
    """Time ``simulate`` of one /24 from each of `origins` on the graph text,
    then run it again under tracemalloc; return the first nonzero exit code
    of the two, or 0."""
    from zonesim import cli

    with tempfile.TemporaryDirectory() as tmp:
        topo_file, orig_file = Path(tmp) / "topology.txt", Path(tmp) / "originations.csv"
        topo_file.write_text(text)
        orig_file.write_text("asn,prefix\n" + "".join(
            f"{asn},10.{i >> 8}.{i & 255}.0/24\n" for i, asn in enumerate(origins)
        ))
        argv = ["simulate", "--topology", str(topo_file), "--originations", str(orig_file)]
        out = Path(tmp) / "out"
        new_graph_cache(Path(tmp) / "cache")
        t = perf_counter()
        code = cli.main(argv + ["--out-dir", str(out)])
        cli_s = perf_counter() - t
        peak_rss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        rib = (out / "rib.txt").read_bytes() if code == 0 else b""
        new_graph_cache(Path(tmp) / "cache-traced")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            traced_code = cli.main(argv + ["--out-dir", str(Path(tmp) / "traced")])
            traced_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    print(json.dumps({
        "ases": ases,
        "origins": len(origins),
        "exit": code or traced_code,
        "cli_s": round(cli_s, 3),
        "rib_rows": rib.count(b"\n"),
        "rib_mb": round(len(rib) / 2**20, 2),
        "peak_rss_mb": peak_rss_mb,
        "simulate_traced_peak_mb": round(traced_peak / 2**20, 2),
        "python": platform.python_version(),
    }))
    return code or traced_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ases", type=int, default=75000)
    parser.add_argument("--cones", type=int, default=300, help="zone: core of the N largest cones")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--exceptions", action="store_true", help="time routing_exceptions")
    mode.add_argument("--audit", action="store_true", help="time audit_views on honest views")
    mode.add_argument(
        "--cli", action="store_true", help="time local-region, curve and zone, cold and warm"
    )
    mode.add_argument(
        "--simulate", type=int, metavar="N", help="time one simulate command of N stub /24s"
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.gen import build_graph
    from zonesim import (
        Origination, RegistrySet, Roa, cone_size_order, derive_connected_zone, dump_rib,
        load_topology, propagate, routing_exceptions, synthetic_prefix, zone_policy,
    )
    from zonesim.vipzone import ZoneConfig

    graph = build_graph(Random(7), args.ases, 16)
    text = "\n".join(f"{a}|{b}|{code}" for a, b, code in graph.records()) + "\n"
    if args.cli:
        return probe_cli(text, len(graph.asns), cone_size_order(load_topology(text))[:args.cones])
    if args.simulate is not None:
        stubs = sorted(a for a, customers in zip(graph.asns, graph.customers) if not customers)
        origins = sorted(Random(1).sample(stubs, args.simulate))
        del graph
        return probe_simulate(text, args.ases, origins)
    t = perf_counter()
    topo = load_topology(text)
    load_s = perf_counter() - t
    load_rss_mb = rss_mb()

    members = derive_connected_zone(topo, cone_size_order(topo)[:args.cones]).connected_members
    if args.exceptions:
        from zonesim import analysis

        member = min(a for a in members if topo.providers_of(a))
        solves = {"verified_solves": 0, "mixed_solves": 0}

        def counting(net, prefix, origs, watch=None, inner=analysis._propagate_prefix):
            solves["verified_solves" if watch else "mixed_solves"] += 1
            return inner(net, prefix, origs, watch)

        analysis._propagate_prefix = counting
        t = perf_counter()
        result = routing_exceptions(topo, ZoneConfig(members=members), member)
        exceptions_s = perf_counter() - t
        print(json.dumps({
            "ases": len(topo.asns),
            "members": len(members),
            "member": member,
            "load_s": round(load_s, 3),
            "load_rss_mb": load_rss_mb,
            "exceptions_s": round(exceptions_s, 3),
            "exception_count": result.count,
            **solves,
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "python": platform.python_version(),
        }))
        return 0
    if args.audit:
        from zonesim import audit

        stubs = sorted(a for a in topo.asns if not topo.customers[a])
        origs = [Origination(a, synthetic_prefix(a)) for a in sorted(Random(1).sample(stubs, 50))]
        reg = RegistrySet(roas=[Roa(o.prefix, o.asn) for o in origs])
        cfg = ZoneConfig(members=members)
        views = audit.views_from_rib(propagate(topo, origs, zone_policy(topo, cfg, reg)), cfg)
        counts = {"rov_validations": 0}

        def counting(reg, prefix, origin, inner=audit.rov_validate):
            counts["rov_validations"] += 1
            return inner(reg, prefix, origin)

        audit.rov_validate = counting
        t = perf_counter()
        findings = audit.audit_views(cfg, topo, reg, views)
        audit_s = perf_counter() - t
        print(json.dumps({
            "ases": len(topo.asns),
            "members": len(members),
            "load_s": round(load_s, 3),
            "load_rss_mb": load_rss_mb,
            "audit_s": round(audit_s, 3),
            "view_routes": sum(len(v.routes) for v in views),
            "findings": len(findings),
            "prefix_origins": len({(r.prefix, r.origin) for v in views for r in v.routes}),
            **counts,
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "python": platform.python_version(),
        }))
        return 0
    origin = min(a for a in topo.asns if not topo.customers[a])
    prefix = synthetic_prefix(origin)
    reg = RegistrySet(roas=[Roa(prefix, origin)])
    hooks = zone_policy(topo, ZoneConfig(members=members), reg)
    t = perf_counter()
    topo.dense
    network_s = perf_counter() - t
    runs = []
    for _ in range(3):
        rib = None
        t = perf_counter()
        rib = propagate(topo, [Origination(origin, prefix)], hooks)
        runs.append(perf_counter() - t)
    # The peak of the load and the timed solves, before a second RIB exists.
    peak_rss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    t = perf_counter()
    dumped = dump_rib(rib)
    dump_s = perf_counter() - t

    scoped = {"hook_calls": 0}

    def zone_hook(importer, neighbor, rel, route, inner=hooks.import_route.hook):
        scoped["hook_calls"] += 1
        return inner(importer, neighbor, rel, route)

    propagate(topo, [Origination(origin, prefix)],
              replace(hooks, import_route=replace(hooks.import_route, hook=zone_hook)))

    counts = {"refused_edge_checks": 0, "imports": 0}

    def export_route(exporter, neighbor, rel, route, inner=hooks.export_route):
        counts["refused_edge_checks"] += 1
        return inner(exporter, neighbor, rel, route)

    def import_route(importer, neighbor, rel, route, inner=hooks.import_route):
        counts["imports"] += 1
        return inner(importer, neighbor, rel, route)

    counted = replace(hooks, export_route=export_route, import_route=import_route)
    counted_rib = propagate(topo, [Origination(origin, prefix)], counted)
    # Copied first: comparing RIBs replays every holder's candidates, the
    # counting RIB's through the counting hooks.
    solve_counts = dict(counts)
    if counted_rib != rib:
        raise SystemExit("the counting solve disagrees with the timed solve")
    replay_counts = {f"replay_{name}": counts[name] - solve_counts[name] for name in counts}
    traced = traced_load(text)

    print(json.dumps({
        "ases": len(topo.asns),
        "edges": sum(len(c) for c in topo.customers.values())
        + sum(len(p) for p in topo.peers.values()) // 2,
        "members": len(members),
        "load_s": round(load_s, 3),
        "load_rss_mb": load_rss_mb,
        "network_s": round(network_s, 3),
        "propagate_s": round(median(runs), 3),
        "propagate_runs_s": [round(run, 3) for run in runs],
        "dump_s": round(dump_s, 3),
        "rib_rows": dumped.count("\n"),
        **scoped,
        **solve_counts,
        **replay_counts,
        "peak_rss_mb": peak_rss_mb,
        **traced,
        "python": platform.python_version(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
