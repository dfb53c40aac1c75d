"""zonesim benchmark: one command, three workloads, a correctness verdict.

    python3 perfbench/run.py --workload scenario_resolve --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed (``gen.py``), then starts one
fresh child process (``child.py``) that repeats the workload until
``--seconds`` have passed.

On shared virtual machines (measured on a 2-vCPU x86-64 guest), other
tenants slow a process down by up to about 1.8x, in bursts from
milliseconds to minutes that the guest cannot see, and raw times of
identical runs spread by 20-40%.  So the child also times a fixed pure-Python calibration loop twice before and twice
after every timed step, and each step's time is reported as it would be on
a host where that loop takes ``CALIBRATION_REF_S``: the measured seconds
divided by the median of the loop's four times around it, times that
constant.  ``ops_s`` sums, over the workload's operation calls, each call's
median calibrated time over the repetitions; ``setup_s`` is the median over
repetitions of the calibrated median set-up time.  Raw times stay in the
results file.

``--trace 0`` reports the end-to-end metrics from untraced repetitions.
``--trace 1`` gives half the time to an untraced child and half to a traced
one, and reports the per-layer metrics from the fastest traced repetition,
so its spans add up;
``trace.overhead_s`` is its work time minus the fastest untraced one, and
the last traced repetition's spans are written to ``perfbench/results/``.

Outputs are checked on every run: each operation must exit with its
expected code, the digests of its outputs must agree across repetitions
(traced and untraced), the audit must find every planted fault, and on the
default seed the digests must equal ``reference.json``, recorded from the
commit that introduced the benchmark.  Other seeds print their digests so
two commits can be compared.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
# The calibration loop's time (child.calibrate) on an idle core of the
# 2-vCPU x86-64 host the benchmark was written on, under Python 3.11.
CALIBRATION_REF_S = 0.008
CHILD_GRACE_S = 100  # time a child may overrun its budget to finish a pass

# Operations whose untraced total time is reported per workload.
OP_METRICS = {
    "scenario": "op.scenario_s", "sweep": "op.sweep_s", "exceptions": "op.exceptions_s",
    "simulate": "op.simulate_s", "audit": "op.audit_s", "zone": "op.zone_s",
    "curve": "op.curve_s", "greedy_curve": "op.greedy_curve_s",
    "local_region": "op.local_region_s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # numpy is imported by zonesim; keep its BLAS from starting a thread pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(inputs: Path, work: Path, seconds: float, traced: bool,
              spans: Path | None) -> list[dict]:
    """Run one child for `seconds`; return its passes, or one crash record."""
    name = "traced" if traced else "untraced"
    result_file = work / f"{name}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--inputs", str(inputs),
           "--out", str(work / name), "--result", str(result_file),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        err = f"timed out after {seconds + CHILD_GRACE_S:.0f} s\n{err}"
    if proc.returncode != 0 or not result_file.is_file():
        return [{"traced": traced, "crashed": err.strip()[-2000:] or "no result"}]
    return json.loads(result_file.read_text())


def median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def clean(reps: list[dict]) -> list[dict]:
    return [r for r in reps if "crashed" not in r and all(o["ok"] for o in r["ops"])]


def calibrated(seconds: float, calib: list[float]) -> float:
    """A step's time as it would be on a host where the calibration loop
    takes CALIBRATION_REF_S, using the loop's runs around that step."""
    return seconds / statistics.median(calib) * CALIBRATION_REF_S


def calibrated_calls(reps: list[dict]) -> list[tuple[str, float]]:
    """Each operation call's median calibrated time over the clean repetitions."""
    reps = clean(reps)
    if not reps:
        return []
    return [(op["op"], statistics.median(calibrated(r["ops"][i]["seconds"], r["ops"][i]["calib"])
                                         for r in reps))
            for i, op in enumerate(reps[0]["ops"])]


def calibrated_setup(reps: list[dict]) -> float:
    return median(calibrated(statistics.median(r["setup"]), r["setup_calib"]) for r in clean(reps))


def op_digests(rep: dict) -> list:
    return [[r["op"], r["digests"]] for r in rep["ops"]]


def check(reps: list[dict], plan: dict) -> tuple[list[str], list | None]:
    """Every correctness problem found, and the digests of the first clean run."""
    problems = []
    digests = None
    for i, rep in enumerate(reps):
        if "crashed" in rep:
            problems.append(f"repetition {i} crashed: {rep['crashed']}")
            continue
        for r in rep["ops"]:
            if not r["ok"]:
                problems.append(f"repetition {i} op {r['op']} failed: {r.get('error')}")
        if rep["planted"] and rep["planted_recall"] != 1.0:
            problems.append(f"repetition {i}: planted recall {rep['planted_recall']}")
        if any(not r["ok"] for r in rep["ops"]):
            continue
        if digests is None:
            digests = op_digests(rep)
        elif op_digests(rep) != digests:
            problems.append(f"repetition {i}: outputs differ from repetition 0")
    if "views" in plan and not any(rep.get("planted") for rep in reps):
        problems.append("no audit fault could be planted")
    return problems, digests


def end_to_end(untraced: list[dict], attempted: int, failed: int) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "ops_s": (sum(t for _, t in calibrated_calls(untraced)), "s"),
        "setup_s": (calibrated_setup(untraced), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Layer times come from the fastest traced repetition as a whole, so its
    spans add up; counts are the same in every clean repetition."""
    best = min(clean(traced), key=lambda r: r["work_s"], default=None)
    fastest_untraced = min((r["work_s"] for r in clean(untraced)), default=0.0)

    def tot(name):
        return best["totals"].get(name, 0.0) if best else 0.0

    def cnt(name):
        return best["counters"].get(name, 0.0) if best else 0.0

    propagate = tot("routing.propagate")
    prefixes = cnt("routing.prefixes_solved")
    calls = cnt("vipzone.import_calls")
    m = {
        "topology.load_s": (tot("topology.load"), "s"),
        "topology.ases": (cnt("topology.ases"), "count"),
        "topology.edges": (cnt("topology.edges"), "count"),
        "registry.load_s": (tot("registry.load"), "s"),
        "registry.records": (cnt("registry.records"), "count"),
        "vipzone.validate_s": (tot("vipzone.validate"), "s"),
        "vipzone.import_s": (tot("vipzone.import_route"), "s"),
        "vipzone.import_calls": (calls, "count"),
        "vipzone.admit_ratio": (cnt("vipzone.admitted") / calls if calls else 0.0, "ratio"),
        "routing.propagate_s": (propagate, "s"),
        "routing.self_s": (tot("routing.propagate:self"), "s"),
        "routing.prefixes_solved": (prefixes, "count"),
        "routing.ms_per_prefix": (1000 * propagate / prefixes if prefixes else 0.0, "ms"),
        "routing.rib_rows": (cnt("routing.rib_rows"), "count"),
        "routing.candidates": (cnt("routing.candidates"), "count"),
        "routing.dump_s": (tot("routing.dump"), "s"),
        "routing.parse_dump_s": (tot("routing.parse_dump"), "s"),
        "attacks.scenario_rib_s": (tot("attacks.scenario_rib"), "s"),
        "attacks.classify_s": (tot("attacks.classify"), "s"),
        "attacks.scenarios": (cnt("attacks.scenarios"), "count"),
        "attacks.misdirected": (cnt("attacks.misdirected"), "count"),
        "analysis.derive_s": (tot("analysis.derive"), "s"),
        "analysis.cone_order_s": (tot("analysis.cone_order"), "s"),
        "analysis.curve_s": (tot("analysis.curve"), "s"),
        "analysis.greedy_s": (tot("analysis.greedy"), "s"),
        "analysis.regions_s": (tot("analysis.regions"), "s"),
        "analysis.regions": (cnt("analysis.regions"), "count"),
        "analysis.exceptions_s": (tot("analysis.exceptions"), "s"),
        "analysis.exception_count": (cnt("analysis.exception_count"), "count"),
        "audit.load_views_s": (tot("audit.load_view"), "s"),
        "audit.view_routes": (cnt("audit.view_routes"), "count"),
        "audit.audit_s": (tot("audit.audit"), "s"),
        "audit.findings": (cnt("audit.findings"), "count"),
        "audit.planted_recall": ((best["planted_recall"] or 0.0) if best else 0.0, "ratio"),
        "cli.out_bytes": (best["out_bytes"] if best else 0, "bytes"),
        "trace.overhead_s": ((best["work_s"] if best else 0.0) - fastest_untraced, "s"),
    }
    for name in OP_METRICS.values():
        m[name] = (0.0, "s")
    for op, seconds in calibrated_calls(untraced):
        m[OP_METRICS[op]] = (m[OP_METRICS[op]][0] + seconds, "s")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the smoke test")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's digests as the default seed's reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zonesim" / "__init__.py").is_file():
        print(f"error: no zonesim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        plan = gen.generate(args.workload, args.seed, work / "inputs", args.scale)
        if args.trace:
            spans = results / f"{args.workload}-seed{args.seed}.spans.json"
            reps = run_child(work / "inputs", work, args.seconds / 2, False, None)
            reps += run_child(work / "inputs", work, args.seconds / 2, True, spans)
        else:
            reps = run_child(work / "inputs", work, args.seconds, False, None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    n_ops = len(plan["ops"])
    attempted = n_ops * len(reps)
    failed = sum(n_ops if "crashed" in r else sum(not o["ok"] for o in r["ops"]) for r in reps)
    problems, digests = check(reps, plan)
    ref_file = HERE / "reference.json"
    reference = json.loads(ref_file.read_text()) if ref_file.is_file() else {}
    if args.record_reference:
        if problems or args.seed != DEFAULT_SEED or args.scale != "full":
            print("error: a reference needs a clean full-scale run on the default seed",
                  file=sys.stderr)
            return 1
        reference[args.workload] = digests
        ref_file.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    elif args.seed == DEFAULT_SEED and args.scale == "full" and digests is not None:
        if reference.get(args.workload) != digests:
            problems.append("outputs differ from reference.json for the default seed")

    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced, attempted, failed)
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "platform": platform.platform(), "seed": args.seed, "scale": args.scale,
           "repetitions": {"untraced": len(untraced), "traced": len(traced)}}
    correct = not problems and failed == 0

    print(f"zonesim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("inputs: " + json.dumps(plan["summary"], sort_keys=True))
    print("digests: " + json.dumps(digests))
    calib = [c for r in clean(untraced) for o in r["ops"] for c in o["calib"]]
    fastest = [sum(o["seconds"] for o in r["ops"]) for r in clean(untraced)]
    print(f"raw: fastest repetition's operations {min(fastest, default=0):.4f} s, "
          f"calibration loop median {median(calib):.5f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"correct: {correct} ({attempted - failed}/{attempted} ops ok)")
    for p in problems:
        print(f"  problem: {p}")

    (results / f"{stem}.json").write_text(json.dumps(
        {"environment": env, "inputs": plan["summary"], "digests": digests,
         "correct": correct, "problems": problems,
         "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
         "repetitions": reps}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
