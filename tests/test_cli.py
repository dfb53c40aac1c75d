import argparse
import contextlib
import gc
import hashlib
import ipaddress
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from zonesim import analysis, cli, routing, topology
from zonesim.attacks import AttackKind, AttackScenario, scenario_rib
from zonesim.cli import main
from zonesim.registry import RovState, parse_prefix, rov_validate
from zonesim.routing import Origination, dump_rib, gao_rexford_hooks, propagate
from zonesim.vipzone import ZoneConfig, zone_policy

from oracles import (
    given_rib, random_originations, random_registry, random_topology, random_zone_instance,
    serialize_topology,
)
from test_acceptance import FIXTURE_COMMANDS

TOPO = "1|2|-1\n1|3|-1\n2|20|-1\n3|30|-1\n3|40|-1\n"
ZONE = "aspa_extension=false\n1\n2\n3\n"
ORIGINATIONS = "asn,prefix\n20,192.0.2.0/24\n"
ROAS = "prefix,maxlen,asn\n192.0.2.0/24,,20\n"
SCENARIO = (
    "kind=ForgedOriginPathHijack\nattacker=30\nvictim_prefix=192.0.2.0/24\n"
    "victim_origin=20\nforged_path=20\n"
)
VIEW = "1|192.0.2.0/24|2 20|VERIFIED:1|customer\n"


@pytest.fixture
def inputs(tmp_path):
    paths = {}
    for name, text in {
        "topo.txt": TOPO,
        "zone.txt": ZONE,
        "originations.csv": ORIGINATIONS,
        "roas.csv": ROAS,
        "scenario.txt": SCENARIO,
        "view.txt": VIEW,
    }.items():
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(args):
    return main(args)


class TestSimulate:
    def test_plain_run_writes_rib_and_manifest(self, inputs, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "simulate",
                "--topology", inputs["topo.txt"],
                "--originations", inputs["originations.csv"],
                "--zone", inputs["zone.txt"],
                "--roas", inputs["roas.csv"],
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        rib = (out / "rib.txt").read_text()
        assert "1|192.0.2.0/24|2 20|VERIFIED:1|customer" in rib
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert set(manifest["outputs"]) == {"rib.txt"}
        assert len(manifest["inputs"]) == 4

    def test_scenario_writes_harm(self, inputs, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "simulate",
                "--topology", inputs["topo.txt"],
                "--originations", inputs["originations.csv"],
                "--zone", inputs["zone.txt"],
                "--roas", inputs["roas.csv"],
                "--scenario", inputs["scenario.txt"],
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        harm = (out / "harm.csv").read_text().splitlines()
        assert harm[0] == "attacker,owner_harm,misdirected_count,misdirected_asns"
        assert harm[1] == "30,false,0,"

    def test_fail_on_harm_exit_2(self, inputs, tmp_path):
        # without the zone the forged route wins at 3 and spreads to 40
        out = tmp_path / "out"
        code = run(
            [
                "simulate",
                "--topology", inputs["topo.txt"],
                "--originations", inputs["originations.csv"],
                "--roas", inputs["roas.csv"],
                "--scenario", inputs["scenario.txt"],
                "--fail-on-harm",
                "--out-dir", str(out),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "leaked_from,reason",
        [
            # The check spans two fields, so it names no line.
            (50, "leaked_from AS50 is not a provider of leaker AS10"),
            (99, "{scenario}: line 5: leaked_from AS99 not in topology"),
        ],
        ids=["50", "99"],
    )
    def test_leak_from_a_non_provider_exit_1(self, tmp_path, capsys, leaked_from, reason):
        # Leaker 10 buys from 3 and 4; 50 is another AS, 99 is no AS.
        files = {
            "topo.txt": "1|3|-1\n1|4|-1\n3|20|-1\n3|10|-1\n4|10|-1\n4|50|-1\n",
            "originations.csv": ORIGINATIONS,
            "scenario.txt": (
                "kind=RouteLeak\nattacker=10\nvictim_prefix=192.0.2.0/24\n"
                f"victim_origin=20\nleaked_from={leaked_from}\n"
            ),
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code = run(
            [
                "simulate",
                "--topology", str(tmp_path / "topo.txt"),
                "--originations", str(tmp_path / "originations.csv"),
                "--scenario", str(tmp_path / "scenario.txt"),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        reason = reason.format(scenario=tmp_path / "scenario.txt")
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_parse_error_exit_1(self, inputs, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1|2|-1\nnonsense\n")
        code = run(
            [
                "simulate",
                "--topology", str(bad),
                "--originations", inputs["originations.csv"],
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "bad.txt" in err

    def test_non_utf8_input_names_its_line(self, inputs, tmp_path, capsys):
        # Lines are counted as the loaders count them, \r\n and \r each
        # ending one, whatever the characters before the bad byte.
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1|2|-1\r\n2|3|-1\r# caf\xc3\xa9\n3|\xff4|-1\n")
        code = run([
            "simulate", "--topology", str(bad), "--originations", inputs["originations.csv"],
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: line 4: not UTF-8 text (invalid start byte)\n"
        )

    def test_missing_file_exit_1(self, inputs, tmp_path, capsys):
        code = run(
            [
                "simulate",
                "--topology", str(tmp_path / "absent.txt"),
                "--originations", inputs["originations.csv"],
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 1

    def test_repeated_runs_write_identical_outputs(self, inputs, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run(
                [
                    "simulate",
                    "--topology", inputs["topo.txt"],
                    "--originations", inputs["originations.csv"],
                    "--zone", inputs["zone.txt"],
                    "--roas", inputs["roas.csv"],
                    "--scenario", inputs["scenario.txt"],
                    "--out-dir", str(out),
                ]
            )
            assert code == 0
            outs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert outs[0] == outs[1]


SIMULATE = ["simulate", "--topology", "topo.txt", "--originations", "originations.csv"]
AUDIT = ["audit", "--topology", "topo.txt", "--zone", "zone.txt"]

# (flag, file name, text, malformed line, rest of the command); names in
# the command refer to the well-formed inputs.
MALFORMED = [
    ("--topology", "topo.txt", TOPO + "7|7|0\n", 6, ["curve", "--sizes", "1"]),
    ("--topology", "topo.txt", "1|2|-1\n\n2|3|5\n", 3, ["curve", "--sizes", "1"]),
    ("--topology", "topo.txt", "# asn 0\n0|2|-1\n", 2, ["curve", "--sizes", "1"]),
    ("--ix", "ix.txt", "ix1|2\nix1|0\n", 2,
     ["local-region", "--topology", "topo.txt", "--sizes", "1"]),
    ("--zone", "zone.txt", "1\nhonor_verified=1;x\n", 2,
     ["exceptions", "--topology", "topo.txt"]),
    ("--scenario", "scenario.txt", SCENARIO.replace("attacker=30", "attacker=x"), 2,
     SIMULATE),
    ("--originations", "originations.csv", ORIGINATIONS + "20,nonsense\n", 3,
     ["simulate", "--topology", "topo.txt"]),
    ("--roster", "roster.txt", "1\n# two\nx\n", 3, ["zone", "--topology", "topo.txt"]),
    ("--roas", "roas.csv", "prefix,maxlen,asn\n192.0.2.0/24,,x\n", 2, SIMULATE),
    ("--aspas", "aspas.csv", "customer_asn,provider_asns\n20,2\n20,3\n", 3, SIMULATE),
    ("--irr", "irr.csv", "asn,prefix\n20,192.0.2.1/24\n", 2, SIMULATE),
    ("--kyc", "kyc.csv", "member_asn,neighbor_asn,allowed_asns,allowed_prefixes\n2,20\n",
     2, SIMULATE),
    ("--views", "view.txt", VIEW + "2|bad\n", 2, AUDIT),
    ("--waivers", "waivers.csv", "member,prefix,note\n40,192.0.2.0/24,x\n", 2,
     AUDIT + ["--views", "view.txt"]),
    ("--waivers", "waivers.csv", "3\n", 1, AUDIT + ["--views", "view.txt"]),
    # ASNs the topology lacks: an origination, and a zone member or opted-in
    # non-member under every command that reads --zone.
    ("--originations", "originations.csv",
     "asn,prefix\n# AS9 is not in the topology\n20,192.0.2.0/24\n\n9,192.0.3.0/24\n", 5,
     ["simulate", "--topology", "topo.txt"]),
] + [
    ("--zone", "zone.txt", text, lineno, command)
    for text, lineno in [
        ("aspa_extension=false\n1\n# seventy-seven\n77\n2\n", 4),
        ("1\n2\nhonor_verified=20;77\n", 3),
    ]
    for command in [
        SIMULATE,
        ["local-region", "--topology", "topo.txt", "--customer", "20"],
        ["exceptions", "--topology", "topo.txt"],
        ["audit", "--topology", "topo.txt", "--views", "view.txt"],
    ]
]
# Files that load but name an AS the topology lacks, or a view owner that
# is no zone member (in the topology or not), caught only after the whole
# file is parsed: the library's reason follows file and line.
UNKNOWN_ASN = {
    "roster": ("--roster", "roster.txt", "1\n# ninety-nine\n99\n", 3,
               ["zone", "--topology", "topo.txt"], "unknown ASN 99"),
    "kyc": ("--kyc", "kyc.csv",
            "member_asn,neighbor_asn,allowed_asns,allowed_prefixes\n2,20,,\n2,99,,\n", 3,
            SIMULATE, "KYC entry (2, 99) references non-adjacent ASes"),
    "scenario": ("--scenario", "scenario.txt", SCENARIO.replace("attacker=30", "attacker=99"), 2,
                 SIMULATE, "attacker AS99 not in topology"),
    "scenario-victim_origin": (
        "--scenario", "scenario.txt",
        "kind=OriginHijack\nattacker=30\nvictim_prefix=192.0.2.0/24\nvictim_origin=99\n", 4,
        SIMULATE, "victim_origin AS99 not in topology"),
    "scenario-leaked_from": (
        "--scenario", "scenario.txt",
        "kind=RouteLeak\nattacker=30\nvictim_prefix=192.0.2.0/24\nvictim_origin=20\n"
        "leaked_from=99\n", 5, SIMULATE, "leaked_from AS99 not in topology"),
    "view-owner": ("--views", "view.txt", VIEW.replace("1|", "99|", 1), 1, AUDIT,
                   "view owner AS99 is not a zone member"),
    "view-owner-non_member": ("--views", "view.txt", VIEW.replace("1|", "40|", 1), 1, AUDIT,
                              "view owner AS40 is not a zone member"),
}
MALFORMED += [case[:5] for case in UNKNOWN_ASN.values()]
MALFORMED += [
    # A repeated AS pair, and a registry ASN outside 0..2**32-1.
    ("--topology", "topo.txt", "1|2|-1\n2|3|-1\n1|2|-1\n", 3, ["curve", "--sizes", "1"]),
    ("--roas", "roas.csv", "prefix,maxlen,asn\n192.0.2.0/24,,-1\n", 2, SIMULATE),
    # A forged path ASN outside 1..2**32-1.
    ("--scenario", "scenario.txt", SCENARIO.replace("forged_path=20", "forged_path=-1 20"), 5,
     SIMULATE),
    ("--scenario", "scenario.txt",
     SCENARIO.replace("forged_path=20", f"forged_path={10**30} 20"), 5, SIMULATE),
]


# The test ids recorded while ids were each case's position in MALFORMED;
# those cases keep them, so results stay comparable across runs.
RECORDED_IDS = {
    "topology-curve-line6": "topology-0", "topology-curve-line3": "topology-1",
    "topology-curve-line2": "topology-2", "ix-local-region-line2": "ix-3",
    "zone-exceptions-line2": "zone-4", "scenario-simulate-line2": "scenario-5",
    "originations-simulate-line3": "originations-6", "roster-zone-line3": "roster-7",
    "roas-simulate-line2": "roas-8", "aspas-simulate-line3": "aspas-9",
    "irr-simulate-line2": "irr-10", "kyc-simulate-line2": "kyc-11",
    "views-audit-line2": "views-12", "waivers-audit-line2": "waivers-13",
    "waivers-audit-line1": "waivers-14", "originations-simulate-line5": "originations-15",
    "zone-simulate-line4": "zone-16", "zone-local-region-line4": "zone-17",
    "zone-exceptions-line4": "zone-18", "zone-audit-line4": "zone-19",
    "zone-simulate-line3": "zone-20", "zone-local-region-line3": "zone-21",
    "zone-exceptions-line3": "zone-22", "zone-audit-line3": "zone-23",
    "roster-zone-line3-2": "roster-24", "kyc-simulate-line3": "kyc-25",
    "scenario-simulate-line2-2": "scenario-26", "scenario-simulate-line4": "scenario-27",
    "scenario-simulate-line5": "scenario-28", "views-audit-line1": "views-29",
    "views-audit-line1-2": "views-30", "topology-curve-line3-2": "topology-31",
    "roas-simulate-line2-2": "roas-32",
}


def malformed_ids(cases):
    """Each case's test id, from the case alone, so inserting a case renames
    no other: the flag, the command and the malformed line, with -2, -3, ...
    on the second and later of identical ones; a recorded id where there is
    one."""
    seen = Counter()
    ids = []
    for flag, _, _, lineno, command in cases:
        case_id = f"{flag[2:]}-{command[0]}-line{lineno}"
        seen[case_id] += 1
        if seen[case_id] > 1:
            case_id += f"-{seen[case_id]}"
        ids.append(RECORDED_IDS.get(case_id, case_id))
    assert len(set(ids)) == len(ids)
    return ids


@pytest.mark.parametrize("flag,name,text,lineno,command", MALFORMED, ids=malformed_ids(MALFORMED))
def test_malformed_line_exit_1(inputs, tmp_path, capsys, flag, name, text, lineno, command):
    bad = tmp_path / "bad" / name
    bad.parent.mkdir()
    bad.write_text(text)
    argv = [inputs.get(a, a) for a in command]
    code = run(argv + [flag, str(bad), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert f"{name}: line {lineno}: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


# Seeded mutations of one fixture input each, run through main: whatever the
# bytes, a command exits 0, 1 or 4, and a failure is one error line, without
# a traceback or a manifest.
_BIG_NUMBERS = [b"0", b"-1", b"4294967296", b"18446744073709551616", b"1" + b"0" * 30]


def _mutate(data: bytes, rng: random.Random) -> bytes:
    lines = data.split(b"\n")
    at = rng.randrange(len(lines))
    kind = rng.choice(["delete", "duplicate", "truncate", "reverse", "flip", "number",
                       "separator", "prefix", "empty"])
    if kind == "delete":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "truncate":
        lines[at] = lines[at][:rng.randrange(len(lines[at]) + 1)]
    elif kind == "reverse":
        lines.reverse()
    elif kind == "flip" and data:
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(flipped)
    elif kind == "number":
        numbers = list(re.finditer(rb"\d+", data))
        if numbers:
            number = rng.choice(numbers)
            return data[:number.start()] + rng.choice(_BIG_NUMBERS) + data[number.end():]
    elif kind == "separator":
        lines[at] += rng.choice([b"|", b",", b";", b"="])
    elif kind == "prefix":
        return rng.choice([b"\xef\xbb\xbf", b"\x00", b"\r"]) + data
    elif kind == "empty":
        return b""
    return b"\n".join(lines)


@pytest.mark.parametrize("fixture", sorted(FIXTURE_COMMANDS))
def test_mutated_fixture_inputs_fail_cleanly(fixture, tmp_path, capsys):
    rng = random.Random(f"fuzz-{fixture}")
    argv = FIXTURE_COMMANDS[fixture]
    files = [i for i, arg in enumerate(argv) if argv[i - 1][:2] == "--" and Path(arg).is_file()]
    for case in range(25):
        at = rng.choice(files)
        data = Path(argv[at]).read_bytes()
        for _ in range(rng.randint(1, 3)):
            data = _mutate(data, rng)
        mutated = tmp_path / f"{case}" / Path(argv[at]).name
        mutated.parent.mkdir()
        mutated.write_bytes(data)
        out = tmp_path / f"{case}" / "out"
        code = run([*argv[:at], str(mutated), *argv[at + 1:], "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1, 4), (case, data)
        if code:
            errors = [line for line in err.splitlines() if line.startswith("error: ")]
            assert len(errors) == 1 and "Traceback" not in err, (case, data, err)
            assert not (out / "manifest.json").exists(), (case, data)


def test_malformed_ids_do_not_depend_on_position():
    ids = malformed_ids(MALFORMED)
    new = ("--roster", "roster.txt", "1\n2\n\nx\n", 4, ["zone", "--topology", "topo.txt"])
    assert malformed_ids([new, *MALFORMED]) == ["roster-zone-line4", *ids]


@pytest.mark.parametrize(
    "flag,name,text,lineno,command,reason", UNKNOWN_ASN.values(), ids=list(UNKNOWN_ASN)
)
def test_unknown_asn_keeps_the_library_reason(
    inputs, tmp_path, capsys, flag, name, text, lineno, command, reason
):
    bad = tmp_path / "bad" / name
    bad.parent.mkdir()
    bad.write_text(text)
    argv = [inputs.get(a, a) for a in command]
    assert run(argv + [flag, str(bad), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: line {lineno}: {reason}\n"


class TestZone:
    def test_report_and_counts(self, inputs, tmp_path, capsys):
        roster = tmp_path / "roster.txt"
        roster.write_text("1\n2\n40\n")
        out = tmp_path / "out"
        code = run(
            [
                "zone",
                "--topology", inputs["topo.txt"],
                "--roster", str(roster),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "connected members 2" in printed
        report = (out / "zone_report.csv").read_text().splitlines()
        assert "1,member" in report and "2,member" in report
        assert "20,attached_customer" in report
        assert "40,attached_customer" not in report

    def test_out_dir_that_is_a_file_exit_1(self, inputs, tmp_path, capsys):
        roster = tmp_path / "roster.txt"
        roster.write_text("1\n")
        argv = ["zone", "--topology", inputs["topo.txt"], "--roster", str(roster)]
        assert run(argv + ["--out-dir", str(roster)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_failed_run_removes_stale_manifest(self, inputs, tmp_path):
        roster = tmp_path / "roster.txt"
        roster.write_text("1\n")
        out = tmp_path / "out"
        argv = ["zone", "--roster", str(roster), "--out-dir", str(out)]
        assert run(argv + ["--topology", inputs["topo.txt"]]) == 0
        assert (out / "manifest.json").exists()
        bad = tmp_path / "loop.txt"
        bad.write_text("1|1|0\n")
        assert run(argv + ["--topology", str(bad)]) == 1
        assert not (out / "manifest.json").exists()


class TestCurve:
    def test_monotone_csv(self, inputs, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "curve",
                "--topology", inputs["topo.txt"],
                "--sizes", "1,2,3",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        lines = (out / "growth.csv").read_text().splitlines()
        assert lines[0] == "zone_size,protected_count"
        counts = [int(l.split(",")[1]) for l in lines[1:]]
        assert counts == sorted(counts)

    def test_greedy_order(self, inputs, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "curve",
                "--topology", inputs["topo.txt"],
                "--order", "greedy",
                "--sizes", "1",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        # the top provider protects everything except the leaf ASes under
        # other providers; with this topology AS1 covers 1,2,3 directly
        assert (out / "growth.csv").read_text().splitlines()[1] == "1,3"


    @pytest.mark.parametrize("order", ["by_cone_size", "greedy"])
    def test_negative_size_exit_1(self, inputs, tmp_path, capsys, order):
        out = tmp_path / "out"
        code = run(
            [
                "curve",
                "--topology", inputs["topo.txt"],
                "--order", order,
                "--sizes=-2,1",
                "--out-dir", str(out),
            ]
        )
        assert code == 1
        assert "zone sizes must be non-negative" in capsys.readouterr().err
        assert not (out / "growth.csv").exists()


    @pytest.mark.parametrize("command", ["curve", "local-region"])
    def test_non_integer_size_names_the_flag(self, inputs, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [command, "--topology", inputs["topo.txt"], "--out-dir", str(out)]
        assert run(argv + ["--sizes", "1,x"]) == 1
        assert capsys.readouterr().err == (
            "error: --sizes: invalid literal for int() with base 10: 'x'\n"
        )
        assert not (out / "manifest.json").exists()
        assert run(argv + ["--sizes", "1,2,"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["sizes"] == "1,2,"


class TestLocalRegion:
    def test_single_customer(self, inputs, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "local-region",
                "--topology", inputs["topo.txt"],
                "--zone", inputs["zone.txt"],
                "--customer", "40",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert (out / "region.txt").read_text() == ""

    def test_distribution(self, inputs, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "local-region",
                "--topology", inputs["topo.txt"],
                "--sizes", "1,2",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        rows = (out / "regions.csv").read_text().splitlines()
        assert rows[0] == "zone_size,customer_asn,region_size"
        summary = (out / "region_summary.csv").read_text().splitlines()
        assert summary[0] == "zone_size,p10,p50,p90,frac_leq_1"

    def test_negative_size_exit_1(self, inputs, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            [
                "local-region",
                "--topology", inputs["topo.txt"],
                "--sizes=-1",
                "--out-dir", str(out),
            ]
        )
        assert code == 1
        assert "zone sizes must be non-negative" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_json_format(self, inputs, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "local-region",
                "--topology", inputs["topo.txt"],
                "--sizes", "1",
                "--format", "json",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        rows = json.loads((out / "regions.json").read_text())
        assert all(set(r) == {"zone_size", "customer_asn", "region_size"} for r in rows)


class TestLocalRegionIx:
    # Bytes `local-region --ix` wrote while IX memberships were a Topology
    # field; AS99 is known only from the IX file, and 21-50 is a transit
    # link the IX closure must not turn into peering.
    TOPO = "1|2|-1\n1|3|-1\n2|20|-1\n3|30|-1\n3|40|-1\n2|21|-1\n21|50|-1\n30|60|0\n"
    IX = "ix1|20\nix1|40\nix1|99\nix2|30\nix2|21\nix2|50\n"
    CASES = {
        "customer": (
            ["--zone", "zone.txt", "--customer", "40"],
            {"region.txt": "20\n99\n"},
            "1b988401b0ae03531cf38fe6d5bcf7871fa334a815d6b320945cbc487b05ef24",
        ),
        "ix-only-customer": (
            ["--zone", "zone.txt", "--customer", "99"],
            {"region.txt": "20\n40\n"},
            "e3bc22c364ec7d4fac688f13b4fef98ee4f48e34d5dfdcc72c3237ed8cab73fb",
        ),
        "sizes": (
            ["--sizes", "0,1,3"],
            {
                "regions.csv": "zone_size,customer_asn,region_size\n1,2,3\n1,3,2\n"
                               "3,20,2\n3,21,2\n3,30,3\n3,40,2\n",
                "region_summary.csv": "zone_size,p10,p50,p90,frac_leq_1\n0,0,0,0,0\n"
                                      "1,2.1,2.5,2.9,0\n3,2,2,2.7,0\n",
            },
            "68bec20615c925d28b57178f4dd3074f5b50d8d7b3a1f2f9084d2125aa037fb0",
        ),
        "sizes-json": (
            ["--sizes", "1,3", "--format", "json"],
            {},
            "c8cf6dec03df1d186f499557a0ca85cec3dab82bf679dcf82a5bf9d99e8327d7",
        ),
    }

    def files(self, tmp_path, **extra):
        for name, text in {"topo.txt": self.TOPO, "zone.txt": ZONE, "ix.txt": self.IX,
                           **extra}.items():
            (tmp_path / name).write_text(text)
        return ["local-region", "--topology", str(tmp_path / "topo.txt")]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outputs_pinned(self, tmp_path, case):
        flags, expected, manifest_sha = self.CASES[case]
        argv = self.files(tmp_path) + ["--ix", str(tmp_path / "ix.txt")]
        argv += [str(tmp_path / f) if f.endswith(".txt") else f for f in flags]
        out = tmp_path / "out"
        assert run(argv + ["--out-dir", str(out)]) == 0
        for name, text in expected.items():
            assert (out / name).read_text() == text
        # The manifest holds every output's digest, so this pins them all.
        assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == manifest_sha

    def test_ix_only_zone_member_is_unknown(self, tmp_path, capsys):
        argv = self.files(tmp_path, **{"zone99.txt": "1\n2\n3\n99\n"})
        argv += ["--ix", str(tmp_path / "ix.txt"), "--zone", str(tmp_path / "zone99.txt"),
                 "--customer", "40", "--out-dir", str(tmp_path / "out")]
        assert run(argv) == 1
        assert "unknown ASN 99" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["--sizes", "1"], ["--zone", "zone.txt", "--customer", "40"]])
    def test_empty_ix_file_exit_1(self, tmp_path, capsys, mode):
        argv = self.files(tmp_path, **{"empty.txt": "# no IX\n"})
        argv += ["--ix", str(tmp_path / "empty.txt"), "--out-dir", str(tmp_path / "out")]
        argv += [str(tmp_path / f) if f.endswith(".txt") else f for f in mode]
        assert run(argv) == 1
        assert "IX membership" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()


class TestExceptions:
    def test_exceptions_csv(self, tmp_path):
        topo = tmp_path / "topo.txt"
        topo.write_text("6|7|-1\n6|20|-1\n30|20|-1\n6|30|-1\n30|7|0\n")
        zone = tmp_path / "zone.txt"
        zone.write_text("6\n7\n")
        out = tmp_path / "out"
        code = run(
            [
                "exceptions",
                "--topology", str(topo),
                "--zone", str(zone),
                "--member", "7",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        lines = (out / "exceptions.csv").read_text().splitlines()
        assert lines == ["member,exception_count,destination_asns", "7,1,20"]

    def test_memberless_zone_writes_only_the_header(self, tmp_path):
        topo = tmp_path / "topo.txt"
        topo.write_text(TOPO)
        zone = tmp_path / "zone.txt"
        zone.write_text("aspa_extension=false\n")
        out = tmp_path / "out"
        code = run(
            ["exceptions", "--topology", str(topo), "--zone", str(zone), "--out-dir", str(out)]
        )
        assert code == 0
        assert (out / "exceptions.csv").read_text() == "member,exception_count,destination_asns\n"


    # exceptions.csv of every member of random_zone_instance(seed), as the
    # one-member-at-a-time computation wrote it.
    ALL_MEMBERS = {
        14: "member,exception_count,destination_asns\n1,0,\n2,0,\n5,3,4;12;13\n"
            "6,2,12;13\n7,0,\n8,0,\n11,0,\n14,1,13\n",
        43: "member,exception_count,destination_asns\n1,2,3;9\n4,1,3\n5,0,\n"
            "6,3,3;9;10\n8,3,3;9;10\n",
    }

    @pytest.mark.parametrize("seed", sorted(ALL_MEMBERS))
    def test_all_members_share_one_verified_solve(self, tmp_path, monkeypatch, seed):
        # Per-prefix solves: each probe prefix in the union of the asked
        # members' reaches (customer cone, peers and their cones) once under
        # the zone policy, watching the members, then once more per
        # (member, destination) whose pick under the plain order diverged.
        import zonesim.analysis as analysis
        from zonesim.vipzone import ZoneConfig

        verified, mixed, diverged = [], [], []
        real = analysis._propagate_prefix

        def counting(net, prefix, origs, watch=None):
            result = real(net, prefix, origs, watch)
            (verified if watch else mixed).append(prefix)
            if watch:
                _, _, flips, _ = result
                diverged.append(len(flips))
            return result

        monkeypatch.setattr(analysis, "_propagate_prefix", counting)
        topo, members = random_zone_instance(seed)
        topo_file = tmp_path / "topo.txt"
        topo_file.write_text("".join(f"{a}|{b}|{r}\n" for a, b, r in topo.records()))
        zone = tmp_path / "zone.txt"
        zone.write_text("".join(f"{a}\n" for a in sorted(members)))
        out = tmp_path / "out"
        argv = ["exceptions", "--topology", str(topo_file), "--zone", str(zone)]
        assert run(argv + ["--out-dir", str(out)]) == 0
        assert (out / "exceptions.csv").read_text() == self.ALL_MEMBERS[seed]

        def reach(member):
            peers = topo.peers_of(member)
            return topology.customer_cone(topo, member).union(
                peers, *(topology.customer_cone(topo, p) for p in peers)
            )

        assert len(verified) == len(set().union(*map(reach, members)))
        assert len(mixed) == sum(diverged)
        assert len(verified) + len(mixed) < len(members) * len(topo.asns)
        expected = analysis.exceptions_csv(
            [analysis.routing_exceptions(topo, ZoneConfig(members), m)
             for m in sorted(members)]
        )
        assert (out / "exceptions.csv").read_text() == expected

        for solves in (verified, mixed, diverged):
            solves.clear()
        member = sorted(members)[0]
        assert run(argv + ["--member", str(member), "--out-dir", str(out)]) == 0
        assert len(verified) == len(reach(member)) < len(topo.asns)
        assert len(mixed) == sum(diverged)

    @pytest.mark.parametrize("seed,member", [(33, 2), (24, 17)])
    def test_no_stable_state_exit_4(self, tmp_path, capsys, seed, member):
        topo, members = random_zone_instance(seed)
        topo_file = tmp_path / "topo.txt"
        topo_file.write_text("".join(f"{a}|{b}|{r}\n" for a, b, r in topo.records()))
        zone = tmp_path / "zone.txt"
        zone.write_text("".join(f"{a}\n" for a in sorted(members)))
        out = tmp_path / "out"
        code = run(
            [
                "exceptions",
                "--topology", str(topo_file),
                "--zone", str(zone),
                "--member", str(member),
                "--out-dir", str(out),
            ]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: propagation did not converge for: 2001:db8::")
        assert "oscillating: AS" in err
        assert not (out / "manifest.json").exists()


LOCAL_REGION = ["local-region", "--topology", "t", "--out-dir", "o"]


class TestUsageErrors:
    # Exit code 2 means misdirection, so argparse's usage errors exit 1.
    @pytest.mark.parametrize(
        "argv,message",
        [
            ([], "required: command"),
            (["simulate", "--originations", "o.csv"], "required: --topology, --out-dir"),
            (SIMULATE + ["--out-dir", "out", "--bogus"], "unrecognized arguments: --bogus"),
            (SIMULATE + ["--out-dir", "out", "--workers", "2"],
             "unrecognized arguments: --workers 2"),
            (["curve", "--topology", "t", "--out-dir", "o", "--sizes", "1", "--roas", "r.csv"],
             "unrecognized arguments: --roas r.csv"),
            (["zone", "--topology", "t", "--out-dir", "o", "--roster", "r", "--zone", "z.txt"],
             "unrecognized arguments: --zone z.txt"),
            (["curve", "--topology", "t", "--out-dir", "o", "--sizes", "1", "--order", "z"],
             "--order: invalid choice"),
            (["exceptions", "--topology", "t", "--out-dir", "o"],
             "error: the following arguments are required: --zone"),
            (["audit", "--topology", "t", "--out-dir", "o", "--views", "v"],
             "error: the following arguments are required: --zone"),
            # Flags a mode does not read are rejected, not ignored.
            (LOCAL_REGION + ["--sizes", "1", "--zone", "missing.txt"],
             "argument --zone: requires --customer"),
            (LOCAL_REGION + ["--customer", "20", "--zone", "z.txt", "--sizes", "x,y"],
             "argument --sizes: not allowed with argument --customer"),
            (LOCAL_REGION + ["--customer", "20"], "argument --customer: requires --zone"),
            (LOCAL_REGION, "one of the arguments --customer --sizes is required"),
            (SIMULATE + ["--out-dir", "out", "--fail-on-harm"],
             "argument --fail-on-harm: requires --scenario"),
        ],
    )
    def test_usage_error_exit_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: zonesim")
        assert "\nerror: " in err and message in err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["simulate", "--help"]])
    def test_help_and_version_exit_0(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0


# Every flag each subcommand takes but --out-dir, with its argv value;
# file names refer to MANIFEST_FILES or the `inputs` fixture, and None
# marks a switch.  local-region's two modes take different flags, so the
# distribution mode is its own case.
ALL_FLAGS = {
    "simulate": {
        "--topology": "topo.txt", "--originations": "originations.csv",
        "--roas": "roas.csv", "--aspas": "aspas.csv", "--irr": "irr.csv",
        "--kyc": "kyc.csv", "--zone": "zone.txt", "--scenario": "scenario.txt",
        "--fail-on-harm": None, "--format": "json",
    },
    "zone": {"--topology": "topo.txt", "--roster": "roster.txt", "--format": "json"},
    "curve": {
        "--topology": "topo.txt", "--order": "greedy", "--sizes": "1,2", "--format": "json",
    },
    "local-region": {
        "--topology": "topo.txt", "--zone": "zone.txt", "--customer": "40",
        "--ix": "ix.txt", "--format": "json",
    },
    "local-region-sizes": {
        "--topology": "topo.txt", "--sizes": "1,2", "--ix": "ix.txt", "--format": "json",
    },
    "exceptions": {
        "--topology": "topo.txt", "--zone": "zone.txt", "--member": "2", "--format": "json",
    },
    "audit": {
        "--topology": "topo.txt", "--roas": "roas.csv", "--aspas": "aspas.csv",
        "--irr": "irr.csv", "--kyc": "kyc.csv", "--zone": "zone.txt",
        "--views": "view.txt", "--waivers": "waivers.csv", "--format": "json",
    },
}
MANIFEST_FILES = {
    "aspas.csv": "customer_asn,provider_asns\n20,2\n",
    "irr.csv": "asn,prefix\n20,192.0.2.0/24\n",
    "kyc.csv": "member_asn,neighbor_asn,allowed_asns,allowed_prefixes\n2,20,20,\n",
    "roster.txt": "1\n2\n",
    "ix.txt": "ix1|2\nix1|3\n",
    "waivers.csv": "member,prefix,note\n1,192.0.2.0/24,ok\n",
}


@pytest.mark.parametrize("command", sorted(ALL_FLAGS))
def test_manifest_records_every_flag(inputs, tmp_path, command):
    paths = dict(inputs)
    for name, text in MANIFEST_FILES.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    argv, expected = [command.removesuffix("-sizes")], {}
    for flag, value in ALL_FLAGS[command].items():
        key = flag[2:].replace("-", "_")
        if value is None:
            argv.append(flag)
            expected[key] = True
        elif value in paths:
            argv += [flag, paths[value]]
            expected[key] = [value] if flag == "--views" else value
        else:
            argv.append(f"{flag}={value}")
            expected[key] = int(value) if flag in ("--customer", "--member") else value
    out = tmp_path / "out"
    assert run(argv + ["--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"] == expected


# A command line per table a subcommand writes, and the tables it writes.
# Member 3's view lost the tag that member 1 exported to it, and the waiver
# note for it holds commas and a form feed, so the findings table's last
# column does too; only "\n" ends a table row.
JSON_TABLES = {
    "simulate": (SIMULATE + ["--zone", "zone.txt", "--roas", "roas.csv",
                             "--scenario", "scenario.txt"], ["harm"]),
    "zone": (["zone", "--topology", "topo.txt", "--roster", "roster.txt"], ["zone_report"]),
    "curve": (["curve", "--topology", "topo.txt", "--sizes", "1,2"], ["growth"]),
    "local-region": (["local-region", "--topology", "topo.txt", "--sizes", "1,2"],
                     ["regions", "region_summary"]),
    "exceptions": (["exceptions", "--topology", "topo.txt", "--zone", "zone.txt"],
                   ["exceptions"]),
    "audit": (AUDIT + ["--roas", "roas.csv", "--views", "view.txt", "view3.txt",
                       "--waivers", "waivers.csv"], ["findings"]),
}
JSON_FILES = {
    "roster.txt": "1\n2\n",
    "view3.txt": "3|192.0.2.0/24|1 2 20||provider\n",
    "waivers.csv": "member,prefix,note\n3,192.0.2.0/24,maintenance, window 3,\fticket 7\n",
}


@pytest.mark.parametrize("command", sorted(JSON_TABLES))
def test_json_rows_are_the_csv_rows_keyed_by_header(inputs, tmp_path, command):
    paths = dict(inputs)
    for name, text in JSON_FILES.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    argv, stems = JSON_TABLES[command]
    argv = [paths.get(a, a) for a in argv]
    for fmt in ("csv", "json"):
        assert run(argv + ["--format", fmt, "--out-dir", str(tmp_path / fmt)]) == 0
    for stem in stems:
        header, *lines = (tmp_path / "csv" / f"{stem}.csv").read_text().split("\n")[:-1]
        keys = header.split(",")
        rows = json.loads((tmp_path / "json" / f"{stem}.json").read_text())
        assert lines and len(rows) == len(lines)
        for row, line in zip(rows, lines):
            assert sorted(row) == sorted(keys)
            assert ",".join(row[k] for k in keys) == line
    if command == "audit":
        assert [r["note"] for r in rows] == ["maintenance, window 3,\fticket 7"]


class TestAudit:
    def make_views(self, tmp_path, inputs, strip=False):
        # Build views from a simulation; optionally corrupt member 3's
        # view by stripping the tag (a seeded R3 violation).
        from zonesim import (
            dump_rib,
            load_roas,
            load_topology,
            load_zone_config,
            propagate,
            zone_policy,
        )
        from zonesim.registry import RegistrySet
        from zonesim.routing import Origination
        from zonesim.registry import parse_prefix

        topo = load_topology(TOPO)
        cfg = load_zone_config(ZONE)
        reg = RegistrySet(roas=load_roas(ROAS))
        rib = propagate(
            topo, [Origination(20, parse_prefix("192.0.2.0/24"))],
            zone_policy(topo, cfg, reg),
        )
        dump = dump_rib(rib)
        paths = []
        for member in (1, 2, 3):
            rows = [l for l in dump.splitlines() if l.startswith(f"{member}|")]
            if strip and member == 3:
                rows = [r.replace("|VERIFIED:1|", "||") for r in rows]
            p = tmp_path / f"view{member}.txt"
            p.write_text("\n".join(rows) + "\n")
            paths.append(str(p))
        return paths

    def test_empty_view_exit_1(self, inputs, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# no rows\n")
        argv = AUDIT + ["--views", inputs["view.txt"], str(empty)]
        code = run([inputs.get(a, a) for a in argv] + ["--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {empty}: view file contains no routes\n"
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_views_sharing_a_basename_are_recorded_apart(self, inputs, tmp_path):
        views = []
        for name, path in zip("ab", self.make_views(tmp_path, inputs)):
            (tmp_path / name).mkdir()
            views.append(tmp_path / name / "view.txt")
            views[-1].write_bytes(Path(path).read_bytes())
        out = tmp_path / "out"
        argv = AUDIT + ["--roas", "roas.csv", "--views", *map(str, views)]
        assert run([inputs.get(a, a) for a in argv] + ["--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["views"] == ["view.txt", "view.txt"]
        assert {k: v for k, v in manifest["inputs"].items() if k.startswith("view")} == {
            "view.txt": hashlib.sha256(views[0].read_bytes()).hexdigest(),
            "view.txt#2": hashlib.sha256(views[1].read_bytes()).hexdigest(),
        }

    def test_clean_views_exit_0(self, inputs, tmp_path):
        views = self.make_views(tmp_path, inputs)
        out = tmp_path / "out"
        code = run(
            [
                "audit",
                "--topology", inputs["topo.txt"],
                "--zone", inputs["zone.txt"],
                "--roas", inputs["roas.csv"],
                "--views", *views,
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert (out / "findings.csv").read_text().splitlines() == [
            "rule,culprit,observed_at,prefix,as_path,waived,note"
        ]

    def test_seeded_violation_exit_3(self, inputs, tmp_path):
        views = self.make_views(tmp_path, inputs, strip=True)
        out = tmp_path / "out"
        code = run(
            [
                "audit",
                "--topology", inputs["topo.txt"],
                "--zone", inputs["zone.txt"],
                "--roas", inputs["roas.csv"],
                "--views", *views,
                "--out-dir", str(out),
            ]
        )
        assert code == 3
        lines = (out / "findings.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("R3-TagStripped,3,1,192.0.2.0/24")

    def test_waived_violation_exit_0(self, inputs, tmp_path):
        views = self.make_views(tmp_path, inputs, strip=True)
        waivers = tmp_path / "waivers.csv"
        waivers.write_text("member,prefix,note\n3,192.0.2.0/24,maintenance\n")
        out = tmp_path / "out"
        code = run(
            [
                "audit",
                "--topology", inputs["topo.txt"],
                "--zone", inputs["zone.txt"],
                "--roas", inputs["roas.csv"],
                "--views", *views,
                "--waivers", str(waivers),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        lines = (out / "findings.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].endswith("true,maintenance")


class TestCollectorPause:
    """main runs a command, from the topology read to the manifest, with the
    cyclic collector paused, and leaves it as it found it, whatever the
    exit."""

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    @staticmethod
    def _zone_argv(topo_file, tmp_path, roster=(1,)):
        roster_file = tmp_path / "roster.txt"
        roster_file.write_text("".join(f"{a}\n" for a in roster))
        return [
            "zone", "--topology", str(topo_file), "--roster", str(roster_file),
            "--out-dir", str(tmp_path / "out"),
        ]

    def test_command_runs_paused(self, inputs, tmp_path, monkeypatch):
        seen = []

        def watched(fn):
            def call(*args, **kwargs):
                seen.append((fn.__name__, gc.isenabled()))
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(topology, "load_topology", watched(topology.load_topology))
        monkeypatch.setattr(
            analysis, "derive_connected_zone", watched(analysis.derive_connected_zone)
        )
        monkeypatch.setattr(cli._Run, "finish", watched(cli._Run.finish))
        gc.enable()
        assert run(self._zone_argv(inputs["topo.txt"], tmp_path)) == 0
        assert seen == [
            ("load_topology", False), ("derive_connected_zone", False), ("finish", False),
        ]
        assert gc.isenabled()

    def _exit_argv(self, code, inputs, tmp_path):
        if code == 0:
            return self._zone_argv(inputs["topo.txt"], tmp_path)
        if code == 1:
            bad = tmp_path / "loop.txt"
            bad.write_text("1|1|0\n")
            return self._zone_argv(bad, tmp_path)
        if code == 2:
            argv = SIMULATE + ["--roas", "roas.csv", "--scenario", "scenario.txt"]
            argv += ["--fail-on-harm", "--out-dir", str(tmp_path / "out")]
            return [inputs.get(a, a) for a in argv]
        if code == 3:
            views = TestAudit().make_views(tmp_path, inputs, strip=True)
            argv = AUDIT + ["--roas", "roas.csv", "--views", *views]
            return [inputs.get(a, a) for a in argv] + ["--out-dir", str(tmp_path / "out")]
        topo, members = random_zone_instance(33)
        topo_file = tmp_path / "topo.txt"
        topo_file.write_text(serialize_topology(topo))
        zone = tmp_path / "zone.txt"
        zone.write_text("".join(f"{a}\n" for a in sorted(members)))
        return [
            "exceptions", "--topology", str(topo_file), "--zone", str(zone),
            "--member", "2", "--out-dir", str(tmp_path / "out"),
        ]

    @pytest.mark.parametrize("code", [0, 1, 2, 3, 4])
    def test_state_restored_on_every_exit(self, inputs, tmp_path, capsys, code):
        argv = self._exit_argv(code, inputs, tmp_path)
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert run(argv) == code
            assert gc.isenabled() is enabled

    def test_state_restored_on_a_raised_error(self, inputs, tmp_path, monkeypatch):
        def fail(topo, roster):
            raise LookupError("analysis failed")

        monkeypatch.setattr(analysis, "derive_connected_zone", fail)
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(LookupError):
                run(self._zone_argv(inputs["topo.txt"], tmp_path))
            assert gc.isenabled() is enabled

    def test_garbage_does_not_grow_with_the_input(self, tmp_path, capsys):
        # What a command leaves for the collector is the argument parser's
        # object graph, whatever the size of the graph it loaded.
        big = random_topology(random.Random(5), 2000, 400)
        big_file = tmp_path / "big.txt"
        big_file.write_text(serialize_topology(big))
        unreachable = []
        for topo_file, roster in (
            (Path(__file__).resolve().parent.parent / "fixtures/pzone/topology.txt", (1,)),
            (big_file, sorted(big.asns)[:50]),
        ):
            argv = self._zone_argv(topo_file, tmp_path, roster)
            gc.collect()
            gc.disable()
            assert run(argv) == 0
            unreachable.append(gc.collect())
        assert unreachable[0] == unreachable[1], unreachable


def _registry_csvs(reg) -> dict[str, str]:
    """A RegistrySet as the four registry files simulate reads."""

    def join(items) -> str:
        return ";".join(sorted(map(str, items)))

    roas = [f"{r.prefix},{r.max_length or ''},{r.origin_asn}" for r in reg.roas]
    aspas = [f"{c},{join(ps)}" for c, ps in sorted(reg.aspas.items())]
    irr = [f"{a},{p}" for a, ps in sorted(reg.irr_prefixes.items()) for p in sorted(ps)]
    kyc = [
        f"{m},{n},{join(e.allowed_asns)},{join(e.allowed_prefixes)}"
        for (m, n), e in sorted(reg.kyc.items())
    ]
    return {
        "--roas": "\n".join(["prefix,maxlen,asn", *roas]) + "\n",
        "--aspas": "\n".join(["customer_asn,provider_asns", *aspas]) + "\n",
        "--irr": "\n".join(["asn,prefix", *irr]) + "\n",
        "--kyc": "\n".join(["member_asn,neighbor_asn,allowed_asns,allowed_prefixes", *kyc]) + "\n",
    }


def test_zone_less_simulate_matches_the_plain_solve(tmp_path):
    # Without --zone, simulate solves under the empty zone's policy.  No AS
    # is a member, so the registries change no route, not even where an
    # origin is ROV-invalid: rib.txt is the plain Gao-Rexford solve.
    # Each kind of registry record, and a ROV-invalid origin, must turn up
    # in some instance, so that each is shown to change nothing.
    seen = dict.fromkeys(["invalid", "roas", "aspas", "irr_prefixes", "kyc"], 0)
    for seed in range(40):
        rng = random.Random(seed)
        topo, members = random_zone_instance(seed)
        origs = random_originations(rng, topo)
        reg = random_registry(rng, topo, members, origs)
        for kind in ("roas", "aspas", "irr_prefixes", "kyc"):
            seen[kind] += bool(getattr(reg, kind))
        seen["invalid"] += any(
            rov_validate(reg, o.prefix, o.asn) is RovState.INVALID for o in origs
        )
        files = {
            "--topology": serialize_topology(topo),
            "--originations": "asn,prefix\n" + "".join(f"{o.asn},{o.prefix}\n" for o in origs),
            **_registry_csvs(reg),
        }
        argv = ["simulate", "--out-dir", str(tmp_path / f"out{seed}")]
        for flag, text in files.items():
            path = tmp_path / f"{seed}{flag[1:]}.txt"
            path.write_text(text)
            argv += [flag, str(path)]
        assert run(argv) == 0
        expected = dump_rib(propagate(topo, origs, gao_rexford_hooks()))
        assert (tmp_path / f"out{seed}" / "rib.txt").read_text() == expected
    assert all(seen.values()), seen


class TestPrefixMemo:
    """A CLI run parses each distinct prefix text once, into a memo that
    the run owns and drops when main() returns."""

    TEXT = re.compile(r"[0-9a-f.:]+/[0-9]+")
    REGISTRIES = ["--roas", "--aspas", "--irr", "--kyc"]
    SIMULATE = ["--topology", "--zone", "--originations", *REGISTRIES, "--scenario"]
    AUDIT = ["--topology", "--zone", *REGISTRIES, "--views", "--waivers"]

    @pytest.fixture
    def parsed(self, monkeypatch):
        # (text, Prefix) per ipaddress.ip_network call.
        calls = []
        real = ipaddress.ip_network

        def counting(text, *args, **kwargs):
            prefix = real(text, *args, **kwargs)
            calls.append((text, prefix))
            return prefix

        monkeypatch.setattr(ipaddress, "ip_network", counting)
        return calls

    @staticmethod
    def write_inputs(tmp_path) -> tuple[dict[str, Path], list[int]]:
        # A seeded zone whose registries and originations name the same
        # prefix texts in several files.
        rng = random.Random(10)
        topo, members = random_zone_instance(10)
        origs = random_originations(rng, topo)
        reg = random_registry(rng, topo, members, origs)
        victim = origs[0]
        attacker = min(topo.asns - members - {victim.asn})
        files = {
            "--topology": serialize_topology(topo),
            "--zone": "".join(f"{m}\n" for m in sorted(members)),
            "--originations": "asn,prefix\n" + "".join(f"{o.asn},{o.prefix}\n" for o in origs),
            "--scenario": (
                f"kind=OriginHijack\nattacker={attacker}\n"
                f"victim_prefix={victim.prefix}\nvictim_origin={victim.asn}\n"
            ),
            **_registry_csvs(reg),
        }
        paths = {}
        for flag, text in files.items():
            paths[flag] = tmp_path / f"{flag[2:]}.txt"
            paths[flag].write_text(text)
        return paths, sorted(members)

    def texts(self, *paths) -> list[str]:
        return [t for p in paths for t in self.TEXT.findall(Path(p).read_text())]

    @staticmethod
    def argv(command, paths, flags, out) -> list[str]:
        argv = [command, "--out-dir", str(out)]
        for flag in flags:
            argv += [flag, *map(str, paths[flag])] if flag == "--views" else [flag, str(paths[flag])]
        return argv

    def audit_inputs(self, tmp_path, paths, members) -> None:
        # Views cut from the unattacked solve, and a waiver for one prefix.
        assert main(self.argv("simulate", paths, self.SIMULATE[:-1], tmp_path / "rib")) == 0
        dump = (tmp_path / "rib" / "rib.txt").read_text().splitlines()
        paths["--views"] = []
        for member in members:
            rows = [line for line in dump if line.startswith(f"{member}|")]
            if rows:
                paths["--views"].append(tmp_path / f"view{member}.txt")
                paths["--views"][-1].write_text("\n".join(rows) + "\n")
        prefix = dump[0].split("|")[1]
        paths["--waivers"] = tmp_path / "waivers.txt"
        paths["--waivers"].write_text(f"member,prefix,note\n{members[0]},{prefix},kept\n")

    def test_each_text_parsed_once_per_command(self, tmp_path, parsed):
        paths, members = self.write_inputs(tmp_path)
        parsed.clear()
        assert main(self.argv("simulate", paths, self.SIMULATE, tmp_path / "sim")) == 0
        texts = self.texts(*(paths[f] for f in self.SIMULATE))
        assert len(texts) > len(set(texts))
        assert sorted(t for t, _ in parsed) == sorted(set(texts))

        self.audit_inputs(tmp_path, paths, members)
        parsed.clear()
        assert main(self.argv("audit", paths, self.AUDIT, tmp_path / "audit")) in (0, 3)
        texts = self.texts(*(paths[f] for f in self.AUDIT if f != "--views"), *paths["--views"])
        assert len(texts) > len(set(texts))
        assert sorted(t for t, _ in parsed) == sorted(set(texts))

    def test_runs_share_nothing(self, tmp_path, parsed):
        # The second run reads a ROA file that binds every ROA to another
        # origin: it must answer as a fresh process does, re-parse every
        # text, and hold none of the first run's Prefix objects.
        paths, members = self.write_inputs(tmp_path)
        self.audit_inputs(tmp_path, paths, members)
        roas = paths["--roas"].read_text().splitlines()
        rebound = tmp_path / "rebound.txt"
        rebound.write_text(
            "\n".join([roas[0]] + [r.rsplit(",", 1)[0] + ",999999" for r in roas[1:]]) + "\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        prefixes, outputs = [], []
        for k, roa_file in enumerate((paths["--roas"], rebound)):
            paths["--roas"] = roa_file
            parsed.clear()
            code = main(self.argv("audit", paths, self.AUDIT, tmp_path / f"run{k}"))
            prefixes.append([p for _, p in parsed])
            fresh = subprocess.run(
                [sys.executable, "-m", "zonesim.cli",
                 *self.argv("audit", paths, self.AUDIT, tmp_path / f"fresh{k}")],
                env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120,
            )
            assert code == fresh.returncode
            findings = (tmp_path / f"run{k}" / "findings.csv").read_bytes()
            assert findings == (tmp_path / f"fresh{k}" / "findings.csv").read_bytes()
            outputs.append(findings)
        assert outputs[0] != outputs[1]
        assert sorted(map(str, prefixes[0])) == sorted(map(str, prefixes[1]))
        assert not {id(p) for p in prefixes[0]} & {id(p) for p in prefixes[1]}


ROOT = Path(__file__).resolve().parents[1]
FLAGS = {
    "topology.txt": "--topology", "zone.txt": "--zone", "originations.csv": "--originations",
    "roas.csv": "--roas", "aspas.csv": "--aspas", "irr.csv": "--irr", "kyc.csv": "--kyc",
    "scenario.txt": "--scenario",
}
SIMULATE_FIXTURES = sorted(p.parent.name for p in (ROOT / "fixtures").glob("*/originations.csv"))


def _dump_corpus():
    """Seeded (what it shows, Rib) pairs of every shape simulate dumps: zone
    solves whose prefixes share classes, route leaks' merged RIBs, per_as
    mappings held as given (given_rib), and ASes holding no route."""
    for seed in range(30):
        rng = random.Random(seed)
        topo, members = random_zone_instance(seed)
        origs = random_originations(rng, topo)
        # One origin's own /24s: under an empty registry they share a class.
        origin = rng.choice(sorted(topo.asns))
        origs += [Origination(origin, parse_prefix(f"10.9.{i}.0/24")) for i in range(3)]
        reg = random_registry(rng, topo, members, origs)
        cfg = ZoneConfig(members=members)
        rib = propagate(topo, origs, zone_policy(topo, cfg, reg))
        shows = {"solve"}
        if any(record.rep is not prefix for prefix, record in rib._records.items()):
            shows.add("class-sharing")
        if any(not entries for entries in rib.per_as.values()):
            shows.add("no route")
        yield shows, rib
        per_as = dict(rib.per_as)
        per_as[min(per_as)] = {}
        yield {"per_as", "no route"}, given_rib(per_as)
        leakers = sorted(a for a in topo.asns if len(topo.providers_of(a)) >= 2)
        if leakers:
            leaker = rng.choice(leakers)
            victim = origs[0]
            scenario = AttackScenario(
                AttackKind.ROUTE_LEAK, leaker, victim.prefix, victim.asn,
                leaked_from=min(topo.providers_of(leaker)),
            )
            yield {"leak"}, scenario_rib(topo, reg, cfg, origs, scenario)


class TestStreamedOutput:
    """simulate writes rib.txt as dump_rib forms it: the file is the dump's
    text, its manifest digest the SHA-256 of the file's bytes, the run's
    traced peak stays within a small multiple of the file, and a write
    failing midway leaves no manifest."""

    @staticmethod
    def fixture_argv(name, out):
        argv = ["simulate", "--out-dir", str(out)]
        for path in sorted((ROOT / "fixtures" / name).iterdir()):
            if path.name in FLAGS:
                argv += [FLAGS[path.name], str(path)]
        return argv

    @staticmethod
    def new_run(out_dir):
        return cli._Run(argparse.Namespace(command="simulate", out_dir=out_dir))

    @staticmethod
    def check_digests(out):
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("name", SIMULATE_FIXTURES)
    def test_fixture_rib_is_the_dump(self, name, tmp_path, monkeypatch):
        ribs = []
        real = routing.dump_rib

        def capturing(rib, sink=None):
            ribs.append(rib)
            return real(rib, sink)

        monkeypatch.setattr(routing, "dump_rib", capturing)
        out = tmp_path / "out"
        assert main(self.fixture_argv(name, out)) == 0
        assert len(ribs) == 1
        assert (out / "rib.txt").read_bytes() == real(ribs[0]).encode()
        self.check_digests(out)

    def test_corpus_streams_the_dump(self, tmp_path):
        seen = set()
        for k, (shows, rib) in enumerate(_dump_corpus()):
            seen |= shows
            run_ = self.new_run(tmp_path / str(k))
            with run_.output("rib.txt") as put:
                dump_rib(rib, put)
            data = (tmp_path / str(k) / "rib.txt").read_bytes()
            assert data == dump_rib(rib).encode()
            assert run_.outputs == {"rib.txt": hashlib.sha256(data).hexdigest()}
        assert seen == {"solve", "class-sharing", "no route", "per_as", "leak"}

    def test_one_and_many_chunks_write_the_same(self, tmp_path):
        rng = random.Random(3)
        text = "".join(rng.choice(["1|10.0.0.0/24|1 2||self\n", "é;", "∅", "\n", "x"])
                       for _ in range(5000))
        cuts = sorted(rng.sample(range(1, len(text)), 300))
        one, many = self.new_run(tmp_path / "one"), self.new_run(tmp_path / "many")
        one.write("rib.txt", text)
        with many.output("rib.txt") as put:
            for a, b in zip([0, *cuts], [*cuts, None]):
                put(text[a:b])
        data = text.encode()
        assert (tmp_path / "one" / "rib.txt").read_bytes() == data
        assert (tmp_path / "many" / "rib.txt").read_bytes() == data
        assert one.outputs == many.outputs == {"rib.txt": hashlib.sha256(data).hexdigest()}

    def test_simulate_peak_within_three_times_the_dump(self, tmp_path, monkeypatch):
        # The CAIDA-like benchmark graph at 2000 ASes, 20 stub /24s: every AS
        # holds every prefix.  Held whole, the dump's rows, text and bytes
        # alone come to about 4 times rib.txt.
        monkeypatch.syspath_prepend(str(ROOT))
        from perfbench.gen import build_graph

        graph = build_graph(random.Random(7), 2000, 16)
        stubs = sorted(a for a, customers in zip(graph.asns, graph.customers) if not customers)
        topo_file, orig_file = tmp_path / "topology.txt", tmp_path / "originations.csv"
        topo_file.write_text("".join(f"{a}|{b}|{c}\n" for a, b, c in graph.records()))
        orig_file.write_text("asn,prefix\n" + "".join(
            f"{asn},10.0.{i}.0/24\n" for i, asn in enumerate(sorted(random.Random(1).sample(stubs, 20)))
        ))
        del graph
        argv = ["simulate", "--topology", str(topo_file), "--originations", str(orig_file),
                "--out-dir", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        rib = (tmp_path / "out" / "rib.txt").read_bytes()
        assert rib.count(b"\n") == 2000 * 20
        assert peak <= 3 * len(rib), (peak, len(rib))

    @pytest.mark.parametrize("scenario", [False, True], ids=["plain", "scenario"])
    def test_failed_stream_leaves_no_manifest(self, scenario, inputs, tmp_path, monkeypatch, capsys):
        real = cli._Run.output

        @contextlib.contextmanager
        def failing(self, name):
            with real(self, name) as put:
                if name != "rib.txt":
                    yield put
                    return
                calls = []

                def once(text):
                    if calls:
                        raise OSError("disk full")
                    calls.append(text)
                    put(text)

                yield once

        monkeypatch.setattr(cli._Run, "output", failing)
        out = tmp_path / "out"
        argv = SIMULATE + ["--zone", "zone.txt", "--roas", "roas.csv"]
        argv += ["--scenario", "scenario.txt"] if scenario else []
        assert main([inputs.get(a, a) for a in argv] + ["--out-dir", str(out)]) == 1
        assert "error: disk full" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        partial_rib = (out / "rib.txt").read_text()
        assert partial_rib and partial_rib.count("\n") < 5 and partial_rib.startswith("1|")
