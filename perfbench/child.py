"""Repeated passes over a workload, in one fresh process.

Each pass loads the workload's inputs through zonesim's public loaders
several times (the set-up), then runs its operations in order: CLI
subcommands through ``zonesim.cli.main`` in-process and library calls such
as ``sweep_attackers``.  Every knob stays at its default.  Each operation is
timed, bracketed by calibration-loop timings, its exit code checked and its
outputs digested; a raised exception (``NonConvergenceError`` included) or
an unexpected exit code is a failed operation.  Passes start until
``--seconds`` have gone by.  With ``--trace 1`` the same steps run under the
span tracer.

    python3 perfbench/child.py --inputs DIR --out DIR --result FILE --seconds 15 [--trace 1]

The parent, ``run.py``, creates the inputs and reads the result file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import gen  # noqa: E402
from zonesim import attacks, cli, registry, routing, topology, vipzone  # noqa: E402


def _origination_rows(text: str) -> list:
    rows = []
    for line in text.splitlines()[1:]:
        if line.strip():
            asn, prefix = line.split(",")
            rows.append(routing.Origination(int(asn), registry.parse_prefix(prefix)))
    return rows


def setup(inputs: Path, steps: list) -> tuple[float, dict]:
    """Parse and validate every input once; return the seconds and objects."""
    loaded: dict = {"topology": {}, "zone": {}}
    t = perf_counter()
    for kind, name, *rest in steps:
        text = (inputs / name).read_text()
        if kind == "topology":
            loaded["topology"][name] = topology.load_topology(text)
        elif kind == "zone":
            cfg = vipzone.load_zone_config(text)
            vipzone.validate_zone(loaded["topology"][rest[0]], cfg.members)
            loaded["zone"][name] = cfg
        elif kind == "scenario":
            attacks.load_scenario(text)
        elif kind == "originations":
            loaded[kind] = _origination_rows(text)
        else:
            loaded[kind] = getattr(registry, f"load_{kind}")(text)
    return perf_counter() - t, loaded


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _resolve(argv: list[str], inputs: Path, views_dir: Path, out: Path) -> list[str]:
    resolved = []
    for arg in argv:
        if arg == "@views":
            resolved += sorted(str(p) for p in views_dir.glob("view-*.txt"))
        elif arg == "waivers.csv":
            resolved.append(str(views_dir / arg))
        elif (inputs / arg).is_file():
            resolved.append(str(inputs / arg))
        else:
            resolved.append(arg)
    return resolved + ["--out-dir", str(out)]


def write_views(rib_text: str, spec: dict, views_dir: Path) -> list[dict]:
    """Cut member views from a RIB dump, plant faults, waive the first one."""
    views, planted = gen.cut_views(rib_text, spec)
    views_dir.mkdir(parents=True, exist_ok=True)
    for member, rows in views.items():
        (views_dir / f"view-{member}.txt").write_text("\n".join(rows) + "\n")
    waivers = "member,prefix,note\n"
    if planted:
        waivers += f"{planted[0]['culprit']},{planted[0]['prefix']},declared\n"
    (views_dir / "waivers.csv").write_text(waivers)
    return planted


def planted_recall(findings_csv: str, planted: list[dict]) -> float:
    found = set()
    for line in findings_csv.splitlines()[1:]:
        rule, culprit, _observed, prefix, *_ = line.split(",")
        found.add((rule, int(culprit), prefix))
    if not planted:
        return 0.0
    hits = sum((p["rule"], p["culprit"], p["prefix"]) in found for p in planted)
    return hits / len(planted)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of dict, set and tuple work.

    Run twice before and twice after each timed step, it tells how fast the
    host was running this process at the time; see ``run.py``.
    """
    t = perf_counter()
    d: dict = {}
    seen: set = set()
    for i in range(20000):
        key = ((i * 7919) % 5003, i & 15)
        d[key] = d.get(key, 0) + 1
        if key[0] & 1:
            seen.add(key)
        else:
            seen.discard((key[0] - 1, key[1]))
    return perf_counter() - t


def run_op(op: dict, inputs: Path, out: Path, loaded: dict) -> dict:
    """Run one operation; return its timing, verdict and output digests."""
    record = {"op": op["op"], "ok": False, "digests": {}}
    views_dir = out.parent / "views"
    try:
        if "call" in op:
            topo = next(iter(loaded["topology"].values()))
            reg = registry.RegistrySet(roas=loaded.get("roas", ()))
            cfg = next(iter(loaded["zone"].values()))
            t = perf_counter()
            reports = attacks.sweep_attackers(
                topo, reg, cfg, loaded["originations"], attacks.AttackKind(op["kind"]),
                registry.parse_prefix(op["victim_prefix"]), op["victim_origin"],
                attackers=op["attackers"],
            )
            record["seconds"] = perf_counter() - t
            text = attacks.harm_csv(reports)
            record["digests"]["sweep.csv"] = _digest(text.encode())
            record["ok"] = len(reports) == len(op["attackers"])
            return record
        argv = _resolve(op["argv"], inputs, views_dir, out)
        t = perf_counter()
        code = cli.main(argv)
        record["seconds"] = perf_counter() - t
        record["exit"] = code
        for name in op["outputs"]:
            record["digests"][name] = _digest((out / name).read_bytes())
        record["ok"] = code == op["exit"]
        if not record["ok"]:
            record["error"] = f"exit code {code}, expected {op['exit']}"
    except (Exception, SystemExit) as exc:  # a failed op is counted, never hidden
        record["seconds"] = record.get("seconds", 0.0)
        record["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return record


def one_pass(plan: dict, inputs: Path, out: Path, tracer) -> dict:
    """Set up, then run every operation once; return the pass's record."""
    start = perf_counter()
    if tracer:
        tracer.reset()
        sid = tracer.open("bench.setup")
    setup_calib = [calibrate(), calibrate()]
    times = []
    for _ in range(plan["setup_repeats"]):
        seconds, loaded = setup(inputs, plan["setup"])
        times.append(seconds)
    setup_calib += [calibrate(), calibrate()]
    if tracer:
        tracer.close(sid)

    ops, planted, recall = [], [], None
    for index, op in enumerate(plan["ops"]):
        op_out = out / f"{index:02d}-{op['op']}"
        cal = [calibrate(), calibrate()]
        record = run_op(op, inputs, op_out, loaded)
        record["calib"] = cal + [calibrate(), calibrate()]
        ops.append(record)
        if "views" in plan and op["op"] == "simulate" and record["ok"]:
            planted = write_views((op_out / "rib.txt").read_text(), plan["views"], out / "views")
        if op["op"] == "audit" and record["ok"]:
            recall = planted_recall((op_out / "findings.csv").read_text(), planted)
    result = {
        "setup": times,
        "setup_calib": setup_calib,
        "work_s": perf_counter() - start,
        "traced": tracer is not None,
        "ops": ops,
        "planted": len(planted),
        "planted_recall": recall,
        "out_bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
    }
    if tracer:
        result["totals"] = tracer.totals()
        result["counters"] = dict(tracer.counters)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0,
                        help="start passes until this much time has passed (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced run writes its last pass's spans")
    args = parser.parse_args(argv)
    inputs, out = Path(args.inputs), Path(args.out)
    plan = json.loads((inputs / "plan.json").read_text())

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        pass_out = out / f"pass{len(passes)}"
        passes.append(one_pass(plan, inputs, pass_out, tracer))
        shutil.rmtree(pass_out, ignore_errors=True)
    if tracer and args.spans:
        tracer.write(Path(args.spans))
    Path(args.result).write_text(json.dumps(passes, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
