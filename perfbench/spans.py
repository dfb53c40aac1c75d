"""In-memory span tracing around zonesim's public functions.

The tracer interposes on layer boundaries from the outside: each wrapped
public function is replaced, in every ``zonesim`` module namespace that
holds it, by a wrapper that records a span (id, name, parent, start, end)
and the counts that call produced.  The program itself is unchanged, so a
traced run executes exactly the steps of an untraced one.

The zone policy's import hook runs millions of times per solve, so it gets
no span per call: its time, call count and admitted count accumulate while a
``routing.propagate`` span is open and are emitted as one aggregate child
span when it closes.  A span's self time is its duration minus the time its
children cover.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _edges(topo) -> int:
    p2c = sum(len(c) for c in topo.customers.values())
    return p2c + sum(len(p) for p in topo.peers.values()) // 2


def _rib_counts(rib) -> tuple[int, int]:
    rows = cands = 0
    for entries in rib.per_as.values():
        rows += len(entries)
        cands += sum(len(e.candidates) for e in entries.values())
    return rows, cands


class Tracer:
    def __init__(self):
        self.hook = [0.0, 0, 0]  # import-hook seconds, calls, admitted
        self.reset()

    def reset(self) -> None:
        """Forget recorded spans and counts; the wrappers stay installed."""
        self.t0 = perf_counter()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"id": sid, "name": name, "parent": parent,
                           "start": perf_counter() - self.t0, "end": None})
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid]["end"] = perf_counter() - self.t0
        self.stack.pop()

    def wrap(self, name, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if count is not None:
                count(tracer.counters, result)
            return result

        return traced

    # -- the interposition table -------------------------------------------

    def install(self) -> None:
        """Wrap the public layer entry points in every zonesim namespace."""
        from zonesim import analysis, attacks, audit, cli, registry, routing, topology, vipzone

        def add(key):
            def count(c, result):
                c[key] += len(result)
            return count

        def irr_records(c, result):
            c["registry.records"] += sum(len(v) for v in result.values())

        def topo_counts(c, topo):
            c["topology.ases"] += len(topo.asns)
            c["topology.edges"] += _edges(topo)

        def rib_counts(c, rib):
            rows, cands = _rib_counts(rib)
            c["routing.rib_rows"] += rows
            c["routing.candidates"] += cands

        def scenario_count(c, result):
            c["attacks.scenarios"] += 1

        def misdirected(c, report):
            c["attacks.misdirected"] += len(report.misdirected)

        def regions(c, dist):
            c["analysis.regions"] += len(dist.rows)

        def exceptions(c, result):
            c["analysis.exception_count"] += result.count

        def views(c, view):
            c["audit.view_routes"] += len(view.routes)

        def curve_name(args, kwargs):
            order = args[1] if len(args) > 1 else kwargs["order"]
            greedy = order is analysis.GrowthOrder.GREEDY_PROTECTED_GAIN
            return "analysis.greedy" if greedy else "analysis.curve"

        def cli_name(args, kwargs):
            argv = args[0] if args else kwargs.get("argv") or []
            return f"cli.{argv[0]}" if argv else "cli.main"

        table = [
            (topology, "load_topology", "topology.load", topo_counts),
            (registry, "load_roas", "registry.load", add("registry.records")),
            (registry, "load_aspas", "registry.load", add("registry.records")),
            (registry, "load_irr", "registry.load", irr_records),
            (registry, "load_kyc", "registry.load", add("registry.records")),
            (vipzone, "load_zone_config", "vipzone.validate", None),
            (vipzone, "validate_zone", "vipzone.validate", None),
            (routing, "dump_rib", "routing.dump", None),
            (routing, "parse_rib_dump", "routing.parse_dump", None),
            (attacks, "load_scenario", "attacks.load_scenario", None),
            (attacks, "scenario_rib", "attacks.scenario_rib", scenario_count),
            (attacks, "classify_harm", "attacks.classify", misdirected),
            (attacks, "run_scenario", "attacks.run_scenario", None),
            (attacks, "sweep_attackers", "attacks.sweep", None),
            (analysis, "derive_connected_zone", "analysis.derive", None),
            (analysis, "cone_size_order", "analysis.cone_order", None),
            (analysis, "zone_growth_curve", curve_name, None),
            (analysis, "local_region_distribution", "analysis.regions", regions),
            (analysis, "routing_exceptions", "analysis.exceptions", exceptions),
            (audit, "load_member_view", "audit.load_view", views),
            (audit, "audit_views", "audit.audit", add("audit.findings")),
            (cli, "main", cli_name, None),
        ]
        for module, attr, name, count in table:
            fn = getattr(module, attr, None)
            if fn is not None:
                self._replace(fn, self.wrap(name, fn, count))
        self._replace(routing.propagate, self._traced_propagate(routing.propagate, rib_counts))
        self._replace(vipzone.zone_policy, self._traced_zone_policy(vipzone.zone_policy))

    def _replace(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "zonesim" and not name.startswith("zonesim."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _traced_propagate(self, propagate, rib_counts):
        tracer = self

        def traced(topo, originations, hooks=None, **kwargs):
            origs = list(originations)
            prefixes = {o.prefix if hasattr(o, "prefix") else o[1] for o in origs}
            tracer.counters["routing.prefixes_solved"] += len(prefixes)
            tracer.hook[:] = [0.0, 0, 0]
            sid = tracer.open("routing.propagate")
            try:
                rib = propagate(topo, origs, hooks, **kwargs)
            finally:
                tracer.close(sid)
                span = tracer.spans[sid]
                seconds, calls, admitted = tracer.hook
                if calls:
                    tracer.spans.append({
                        "id": len(tracer.spans), "name": "vipzone.import_route",
                        "parent": sid, "start": span["start"],
                        "end": span["start"] + seconds, "calls": calls,
                        "admitted": admitted, "aggregate": True,
                    })
                tracer.counters["vipzone.import_calls"] += calls
                tracer.counters["vipzone.admitted"] += admitted
            rib_counts(tracer.counters, rib)
            return rib

        return traced

    def _traced_zone_policy(self, zone_policy):
        tracer = self

        def traced(*args, **kwargs):
            hooks = zone_policy(*args, **kwargs)
            inner = hooks.import_route
            acc = tracer.hook

            def import_route(importer, neighbor, rel, route, _clock=perf_counter):
                t = _clock()
                admitted = inner(importer, neighbor, rel, route)
                acc[0] += _clock() - t
                acc[1] += 1
                if admitted is not None:
                    acc[2] += 1
                return admitted

            return type(hooks)(import_route, hooks.export_route, hooks.preference_for)

        return traced

    # -- results ------------------------------------------------------------

    def finished_spans(self) -> list[dict]:
        """Spans with durations and self times (duration minus children)."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = []
        for s in self.spans:
            d = dict(s)
            d["duration"] = s["end"] - s["start"]
            d["self"] = d["duration"] - child_time[s["id"]]
            out.append(d)
        return out

    def totals(self) -> dict[str, float]:
        """Summed duration and self time per span name."""
        tot: dict[str, float] = defaultdict(float)
        for s in self.finished_spans():
            tot[s["name"]] += s["duration"]
            tot[s["name"] + ":self"] += s["self"]
        return tot

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.finished_spans(), indent=0) + "\n")
