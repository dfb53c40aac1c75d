"""File-in, file-out command-line front end.

Every subcommand reads local files, writes its results plus a run manifest
into --out-dir, and signals findings through the exit code:

  0  clean run
  1  usage, input or parse error; a malformed line in any input file is
     reported on stderr as <file>: line N: <reason>
  2  scenario misdirection detected and --fail-on-harm was set
  3  audit produced non-waived findings
  4  synchronous rounds did not converge, so no unique stable routing
     state was reached (the prefix may have several, or none); the
     message names each prefix and the ASes still changing in it

Outputs are deterministic: identical inputs produce byte-identical files.
`main` reads --topology for every subcommand and writes the manifest last,
so a run that fails leaves none in --out-dir; it records every flag given.
Each output is encoded, written and hashed as its text arrives: simulate
writes rib.txt one AS's rows at a time as dump_rib forms them, so neither
the dump's text nor its bytes exist whole in memory.  A run that fails
midway may leave a partial output beside no manifest.

The topology is the one input read through a cache: `main` hands its
bytes and SHA-256 (the manifest's digest) to `topology._load_cached`,
which keeps each parsed graph under $XDG_CACHE_HOME/zonesim (or
~/.cache/zonesim), so a later call on the same text rebuilds the graph
from that entry instead of parsing it.  A command that reads the graph's
customer-cone sizes (curve, and local-region --sizes without --ix) has
them kept in the entry too, and reads them from there on later calls.
Outputs, the manifest, stderr and the exit code are the same whether the
graph came from the cache or not, and whether or not the entry could be
written.  Every other input is parsed afresh on each call.

`main` runs each command, from the first input read to the manifest, with
the cyclic garbage collector paused, and restores the collector's previous
state on return or error.  What a command builds holds no reference cycles,
so a collection midway frees nothing and only re-walks the freshly loaded
graph.  The pause is process-wide: other threads of a process that calls
`main` also run without the collector until it returns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from . import __version__, analysis, attacks, audit, registry, routing, topology, vipzone
from ._lines import data_lines, decode, json_rows, read_lines, table


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _set_flags(args: argparse.Namespace) -> dict:
    """The parsed flags that were set: not None, and not False for a switch."""
    return {k: v for k, v in vars(args).items() if v is not None and v is not False}


class _Run:
    """Collects input/output digests and writes the manifest last.

    prefixes is the run's memo of parsed prefix texts, passed to every
    loader that reads prefixes, so each distinct text is parsed once per
    run; it lives as long as the run, and nothing outlives main().

    The manifest's parameters are the parsed flags, less the output
    directory and those left unset (None, or False for a switch).  File
    flags, typed as paths, are recorded by basename: content hashes carry
    identity, so a run is reproducible from any checkout location."""

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self.params = {}
        for key, value in _set_flags(args).items():
            if key in ("func", "command", "out_dir"):
                continue
            if isinstance(value, list):
                value = [v.name for v in value]
            elif isinstance(value, Path):
                value = value.name
            self.params[key] = value
        self.out_dir = args.out_dir
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}
        self.prefixes: dict[str, registry.Prefix] = {}
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / "manifest.json").unlink(missing_ok=True)

    def parse(self, path: Path, parser, raw: bool = False):
        """Read, record and parse one input, annotating errors with the file
        path so messages read file: line N: ...  The parser is given the
        text, or with raw the bytes and their SHA-256."""
        data = path.read_bytes()
        name = path.name
        digest = _sha256(data)
        if self.inputs.get(name, digest) != digest:
            suffix = 2
            while self.inputs.get(f"{name}#{suffix}", digest) != digest:
                suffix += 1
            name = f"{name}#{suffix}"
        self.inputs[name] = digest
        try:
            return parser(data, digest) if raw else parser(decode(data))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    @contextmanager
    def output(self, name: str) -> Iterator[Callable[[str], None]]:
        """Open output name and yield its writer: each text chunk it is
        given is encoded, written and hashed as it arrives.  The digest is
        recorded when the block ends; a block that raises leaves what was
        written and records none."""
        digest = hashlib.sha256()
        with open(self.out_dir / name, "wb") as out:
            def put(text: str) -> None:
                data = text.encode("utf-8")
                out.write(data)
                digest.update(data)

            yield put
        self.outputs[name] = digest.hexdigest()

    def write(self, name: str, text: str) -> None:
        with self.output(name) as put:
            put(text)

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "parameters": self.params,
            "tool_version": __version__,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }
        self.write("manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_registries(run: _Run, args, check_kyc=lambda kyc: None) -> registry.RegistrySet:
    def memo(load):
        return partial(load, prefixes=run.prefixes)

    return registry.RegistrySet(
        roas=run.parse(args.roas, memo(registry.load_roas)) if args.roas else (),
        aspas=run.parse(args.aspas, registry.load_aspas) if args.aspas else {},
        irr_prefixes=run.parse(args.irr, memo(registry.load_irr)) if args.irr else {},
        kyc=_parse_checked(run, args.kyc, memo(registry.load_kyc), check_kyc) if args.kyc else {},
    )


def _parse_checked(run: _Run, path: Path, load, check, build=None):
    """run.parse(path, load), then check(parsed), and return build(parsed)
    if a build step is given.  If the check raises, each data line is loaded
    again after the file's first data line (a CSV header, if any) and
    checked, so the error names the first line it fails on:
    <file>: line N: <reason>."""

    def parse(text: str):
        parsed = load(text)
        try:
            check(parsed)
        except ValueError:
            head = data_lines(text)[0]
            read_lines(
                text, lambda line: check(load(line if line == head else f"{head}\n{line}")),
                ValueError,
            )
            raise
        return build(parsed) if build else parsed

    return run.parse(path, parse)


def _load_zone(run: _Run, topo: topology.Topology, path: Path) -> vipzone.ZoneConfig:
    cfg = _parse_checked(
        run, path, vipzone.load_zone_config,
        lambda cfg: [topo._require(a) for a in cfg.members | cfg.honor_verified_non_members],
    )
    vipzone.validate_zone(topo, cfg.members)
    return cfg


def _emit(run: _Run, stem: str, csv_text: str, fmt: str) -> None:
    if fmt == "json":
        run.write(f"{stem}.json", json_rows(csv_text))
    else:
        run.write(f"{stem}.csv", csv_text)


def cmd_simulate(run: _Run, args, topo: topology.Topology) -> int:
    reg = _load_registries(run, args, lambda kyc: registry.check_kyc_adjacency(kyc, topo))
    origs = _parse_checked(
        run, args.originations, partial(routing.load_originations, prefixes=run.prefixes),
        lambda origs: routing._normalize_originations(topo, origs),
    )
    cfg = _load_zone(run, topo, args.zone) if args.zone else vipzone.ZoneConfig(frozenset())
    if not args.scenario:
        rib = routing.propagate(topo, origs, vipzone.zone_policy(topo, cfg, reg))
        with run.output("rib.txt") as put:
            routing.dump_rib(rib, put)
        return 0
    # The ASNs are checked on the fields, before they are built into a
    # scenario, so that an unknown one names its line.
    scenario = _parse_checked(
        run, args.scenario, partial(attacks._scenario_fields, prefixes=run.prefixes),
        lambda fields: attacks._check_asns(topo, fields), attacks._scenario,
    )
    rib = attacks.scenario_rib(topo, reg, cfg, origs, scenario)
    report = attacks.classify_harm(topo, rib, scenario)
    with run.output("rib.txt") as put:
        routing.dump_rib(rib, put)
    _emit(run, "harm", attacks.harm_csv([report]), args.format)
    return 2 if args.fail_on_harm and report.misdirected else 0


def cmd_zone(run: _Run, args, topo: topology.Topology) -> int:
    roster = _parse_checked(
        run, args.roster, analysis.load_roster, lambda roster: [topo._require(a) for a in roster]
    )
    derivation = analysis.derive_connected_zone(topo, roster)
    rows = [f"{a},member" for a in sorted(derivation.connected_members)]
    rows += [f"{a},attached_customer" for a in sorted(derivation.attached_customers)]
    _emit(run, "zone_report", table("asn,role", rows), args.format)
    print(
        f"roster {len(derivation.input_roster)} ASNs; "
        f"connected members {len(derivation.connected_members)}; "
        f"attached customers {len(derivation.attached_customers)}"
    )
    return 0


def _sizes(args) -> list[int]:
    try:
        return [int(s) for s in args.sizes.split(",") if s]
    except ValueError as exc:
        raise ValueError(f"--sizes: {exc}") from exc


def cmd_curve(run: _Run, args, topo: topology.Topology) -> int:
    order = (
        analysis.GrowthOrder.GREEDY_PROTECTED_GAIN
        if args.order == "greedy"
        else analysis.GrowthOrder.BY_CONE_SIZE
    )
    curve = analysis.zone_growth_curve(topo, order, _sizes(args))
    _emit(run, "growth", analysis.growth_csv(curve), args.format)
    return 0


def cmd_local_region(run: _Run, args, topo: topology.Topology) -> int:
    ix = run.parse(args.ix, topology.load_ix_memberships) if args.ix else None
    # The zone is checked against the AS graph alone: an ASN that only the
    # IX file names is not a valid member.
    cfg = _load_zone(run, topo, args.zone) if args.customer is not None else None
    if ix is not None:
        topo = topology.augment_with_ix_peering(topo, ix)

    if cfg is not None:
        region = analysis.local_region(topo, cfg, args.customer)
        rows = "\n".join(str(a) for a in sorted(region.region))
        run.write("region.txt", rows + ("\n" if rows else ""))
    else:
        dist = analysis.local_region_distribution(topo, _sizes(args))
        _emit(run, "regions", analysis.region_rows_csv(dist), args.format)
        _emit(run, "region_summary", analysis.region_summary_csv(dist), args.format)
    return 0


def cmd_exceptions(run: _Run, args, topo: topology.Topology) -> int:
    cfg = _load_zone(run, topo, args.zone)
    members = [args.member] if args.member is not None else sorted(cfg.members)
    results = analysis._routing_exceptions(topo, cfg, members)
    _emit(run, "exceptions", analysis.exceptions_csv(results), args.format)
    return 0


def cmd_audit(run: _Run, args, topo: topology.Topology) -> int:
    reg = _load_registries(run, args)
    cfg = _load_zone(run, topo, args.zone)
    tails: dict = {}
    views = [
        _parse_checked(
            run, p, partial(audit.load_member_view, prefixes=run.prefixes, tails=tails),
            lambda view: audit.check_owner(cfg, view),
        )
        for p in args.views
    ]
    waivers = []
    if args.waivers:
        waivers = run.parse(
            args.waivers, partial(audit.load_waivers, cfg=cfg, prefixes=run.prefixes)
        )
    findings = audit.audit_views(cfg, topo, reg, views, waivers)
    _emit(run, "findings", audit.findings_csv(findings), args.format)
    return 3 if any(not f.waived for f in findings) else 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error with exit code 1, the input-error code; argparse
    would exit 2, which here means misdirection.  Subparsers inherit it."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", type=Path, required=True, help="AS-relationship file")
    parser.add_argument("--out-dir", type=Path, required=True, help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_registries(parser: argparse.ArgumentParser) -> None:
    for flag, kind in (("--roas", "ROA"), ("--aspas", "ASPA"), ("--irr", "IRR"), ("--kyc", "KYC")):
        parser.add_argument(flag, type=Path, help=f"{kind} CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zonesim",
        description="AS-level routing simulator with verified-route zones of trust",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="propagate routes, optionally under attack")
    _add_common(p)
    _add_registries(p)
    p.add_argument("--zone", type=Path, help="zone config file")
    p.add_argument("--originations", type=Path, required=True, help="originations CSV (asn,prefix)")
    p.add_argument("--scenario", type=Path, help="attack scenario file")
    p.add_argument("--fail-on-harm", action="store_true", help="exit 2 on misdirection")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("zone", help="derive the connected zone from a roster")
    _add_common(p)
    p.add_argument("--roster", type=Path, required=True, help="roster file, one ASN per line")
    p.set_defaults(func=cmd_zone)

    p = sub.add_parser("curve", help="protected-AS growth curve")
    _add_common(p)
    p.add_argument("--order", choices=("by_cone_size", "greedy"), default="by_cone_size")
    p.add_argument("--sizes", required=True, help="comma-separated zone sizes")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("local-region", help="local-region sizes for attached customers")
    _add_common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--customer", type=int, help="report one customer's region")
    mode.add_argument("--sizes", help="comma-separated zone sizes for distributions")
    p.add_argument("--zone", type=Path, help="zone config file; required with --customer")
    p.add_argument("--ix", type=Path, help="IX membership file; enables peering augmentation")
    p.set_defaults(func=cmd_local_region)

    p = sub.add_parser("exceptions", help="verified-first routing exceptions per member")
    _add_common(p)
    p.add_argument("--zone", type=Path, required=True, help="zone config file")
    p.add_argument("--member", type=int, help="restrict to one member")
    p.set_defaults(func=cmd_exceptions)

    p = sub.add_parser("audit", help="check member views for rule violations")
    _add_common(p)
    _add_registries(p)
    p.add_argument("--zone", type=Path, required=True, help="zone config file")
    p.add_argument("--views", type=Path, nargs="+", required=True, help="member view files")
    p.add_argument("--waivers", type=Path, help="waiver CSV (member,prefix,note)")
    p.set_defaults(func=cmd_audit)
    return parser


# Flags a subcommand reads only beside another: (command, flag, needed flag).
_NEEDS = (
    ("simulate", "--fail-on-harm", "--scenario"),
    ("local-region", "--customer", "--zone"),
    ("local-region", "--zone", "--customer"),
)


def _reads_cone_sizes(args) -> bool:
    # Whether the command reads the loaded graph's cone sizes, which the
    # graph cache then keeps; an IX-augmented graph is another graph.
    return args.command == "curve" or (
        args.command == "local-region" and args.sizes is not None and args.ix is None)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    given = {"--" + key.replace("_", "-") for key in _set_flags(args)}
    for command, flag, needed in _NEEDS:
        if args.command == command and flag in given and needed not in given:
            parser.error(f"argument {flag}: requires {needed}")
    try:
        with topology._gc_paused():
            run = _Run(args)
            load = partial(topology._load_cached, cone_sizes=_reads_cone_sizes(args))
            code = args.func(run, args, run.parse(args.topology, load, raw=True))
            run.finish()
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except routing.NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
