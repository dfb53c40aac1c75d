import gc
import random
import tracemalloc
from pathlib import Path

import pytest

from zonesim.topology import (
    Rel,
    Topology,
    TopologyError,
    augment_with_ix_peering,
    customer_cone,
    load_ix_memberships,
    load_topology,
    tier1_clique,
    tier1_mesh_gaps,
)

from oracles import (
    dfs_customer_cone, oracle_load_topology, random_topology, serialize_topology,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestLoadTopology:
    def test_three_records(self):
        # 1 provides 2, 2 provides 3, 2 peers 4.
        topo = load_topology("1|2|-1\n2|3|-1\n4|2|0")
        assert topo.asns == {1, 2, 3, 4}
        assert topo.customers_of(1) == {2}
        assert topo.providers_of(3) == {2}
        assert topo.peers_of(2) == {4}
        assert topo.rel_from(2, 1) == Rel.PROVIDER
        assert topo.rel_from(2, 3) == Rel.CUSTOMER
        assert topo.rel_from(2, 4) == Rel.PEER

    def test_comments_and_blank_lines(self):
        topo = load_topology("# header\n\n1|2|-1\n")
        assert topo.asns == {1, 2}

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            load_topology("1|1|0")

    def test_two_node_cycle_rejected(self):
        with pytest.raises(TopologyError, match="cycle"):
            load_topology("1|2|-1\n2|1|-1")

    def test_longer_cycle_rejected(self):
        with pytest.raises(TopologyError, match="cycle"):
            load_topology("1|2|-1\n2|3|-1\n3|1|-1")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(TopologyError, match="duplicate"):
            load_topology("1|2|-1\n2|1|0")

    def test_malformed_line_reports_number(self):
        with pytest.raises(TopologyError, match="line 2"):
            load_topology("1|2|-1\nbogus\n")

    def test_unknown_code_rejected(self):
        with pytest.raises(TopologyError, match="code"):
            load_topology("1|2|7")

    def test_bad_asn_rejected(self):
        with pytest.raises(TopologyError, match="ASN"):
            load_topology("0|2|-1")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1|2|-1\nbogus\n", "line 2: malformed record 'bogus'"),
            ("1|2\n", "line 1: malformed record '1|2'"),
            ("1|x|-1\n", "line 1: invalid literal for int() with base 10: 'x'"),
            ("# c\n0|2|-1\n", "line 2: invalid ASN 0: must be a positive 32-bit integer"),
            ("1|4294967296|-1\n",
             "line 1: invalid ASN 4294967296: must be a positive 32-bit integer"),
            ("-1|2|0\n", "line 1: invalid ASN -1: must be a positive 32-bit integer"),
            ("0|0|7\n", "line 1: invalid ASN 0: must be a positive 32-bit integer"),
            ("1|2|-1\n\n3|3|0\n", "line 3: self-loop on AS3"),
            ("1|2|7\n", "line 1: unknown relationship code 7"),
            ("1|1|7\n", "line 1: self-loop on AS1"),
            # only \n, \r\n and \r end a line
            ("1|2|-1\r\nbogus\r\n", "line 2: malformed record 'bogus'"),
            ("1|2|-1\rbogus\r", "line 2: malformed record 'bogus'"),
            ("1|2|-1\r\r\n\nbogus\n", "line 4: malformed record 'bogus'"),
            ("# x\x0cy\x85z\n1|2|-1\nbogus\n", "line 3: malformed record 'bogus'"),
            # bytes that are not UTF-8, lines counted alike
            (b"1|2|-1\n2|\xff3|-1\n", "line 2: not UTF-8 text (invalid start byte)"),
            (b"1|2|-1\r\n2|3|-1\r# caf\xc3\xa9\n3|4|-1\xe2\x82",
             "line 4: not UTF-8 text (unexpected end of data)"),
        ],
    )
    def test_per_line_error_text(self, text, message):
        for load in (load_topology, oracle_load_topology):
            with pytest.raises(TopologyError) as excinfo:
                load(text)
            assert str(excinfo.value) == message

    # (text, line the loader names or None, message); a case's id is its
    # text and message.
    GRAPH_ERRORS = [
        ("1|2|-1\n2|1|0", 2, "duplicate edge between AS2 and AS1"),
        ("1|2|-1\n2|3|-1\n1|2|0", 3, "duplicate edge between AS1 and AS2"),
        ("1|2|-1\n2|3|-1\n1|2|-1", 3, "duplicate edge between AS1 and AS2"),
        ("1|2|-1\n2|1|-1", 2, "provider-customer cycle through AS2 and AS1"),
        # a longer cycle is named on no line
        ("1|2|-1\n2|3|-1\n3|1|-1", None, "provider-customer cycle through AS1 and AS3"),
        # the walk starts at the first AS to appear, not the lowest
        ("3|1|-1\n1|2|-1\n2|3|-1", None, "provider-customer cycle through AS3 and AS2"),
    ]

    @pytest.mark.parametrize(
        "text,line,message", GRAPH_ERRORS, ids=[f"{t}-{m}" for t, _, m in GRAPH_ERRORS]
    )
    def test_graph_error_text(self, text, line, message):
        # The loader names the line of a repeated pair; records have none.
        where = "" if line is None else f"line {line}: "
        for build, want in (
            (load_topology, where + message),
            (oracle_load_topology, where + message),
            (lambda t: Topology.from_records(
                tuple(int(f) for f in line.split("|")) for line in t.splitlines()
            ), message),
        ):
            with pytest.raises(TopologyError) as excinfo:
                build(text)
            assert str(excinfo.value) == want

    def test_fourth_field_and_spaces_ignored(self):
        topo = load_topology(" 1 | 2 | -1 |bgp\n2|3|0|mlp\n")
        assert topo == Topology.from_records([(1, 2, -1), (2, 3, 0)])

    def test_matches_from_records_on_random_topologies(self):
        # Shuffled record order, either direction for peerings, and an
        # optional source field: the parsed text and the record list must
        # build the same graph, and bad graphs must fail with the same text,
        # the loader's on the line of the repeated pair.
        rng = random.Random(97)
        for trial in range(200):
            base = random_topology(rng, rng.randint(2, 300), rng.randint(0, 300))
            records = [
                (b, a, code) if code == 0 and rng.random() < 0.5 else (a, b, code)
                for a, b, code in base.records()
            ]
            rng.shuffle(records)
            if trial % 10 == 9:
                a, b, code = rng.choice(records)
                records.insert(rng.randrange(len(records) + 1), (b, a, rng.choice((-1, 0))))
            lines = [
                "|".join(map(str, rec)) + rng.choice(("", "", "|bgp", "|mlp"))
                for rec in records
            ]
            text = "# serial-1\n" + "\n".join(lines) + "\n"
            try:
                want = Topology.from_records(records)
            except TopologyError as exc:
                with pytest.raises(TopologyError) as excinfo:
                    load_topology(text)
                # The text's first line is a comment.
                line = 2 + max(i for i, r in enumerate(records) if {r[0], r[1]} == {a, b})
                assert str(excinfo.value) == f"line {line}: {exc}"
                continue
            got = load_topology(text)
            assert got == want
            assert got.customers == want.customers

    @pytest.mark.parametrize(
        "text,message",
        [
            # pipe totals that balance to three fields a line
            ("1|2\n3|4|0|5\n", "line 1: malformed record '1|2'"),
            ("3|4|0|5\n1|2\n", "line 2: malformed record '1|2'"),
            ("1|2|-1|bgp\n3\n5|6|0|mlp|x\n", "line 2: malformed record '3'"),
            ("1|2|-1|x\n3|4\n5|6|0\n", "line 2: malformed record '3|4'"),
            # a form feed does not end a line
            ("1|2|-1\x0c2|3|0\n",
             "line 1: invalid literal for int() with base 10: '-1\\x0c2'"),
        ],
    )
    def test_uneven_line_error_text(self, text, message):
        for load in (load_topology, oracle_load_topology):
            with pytest.raises(TopologyError) as excinfo:
                load(text)
            assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "text",
        [
            "1|2|-1|bgp\n2|3|0|mlp\n3|4|-1|bgp\n",
            "1|2|-1|bgp\n2|3|0\n3|4|-1\n",
            "1|2|-1|bgp|x\n2|3|0|mlp|y\n",
            "1|2|-1|bgp|x\n2|3|0\n3|4|-1|mlp\n",
            "1|2|-1|\n2|3|0||\n",
            "1 |\t2|\x0c-1 |bgp\n2\x0c| 3\t|0\x0c|\x0cmlp\n",
        ],
    )
    def test_extra_fields_match_per_line_oracle(self, text):
        # Source tags on every line, on some lines, or two extra fields,
        # and spaces, tabs and form feeds inside fields.
        got, want = load_topology(text), oracle_load_topology(text)
        assert got == want
        for name in ("providers", "customers", "peers"):
            assert list(getattr(got, name).items()) == list(getattr(want, name).items())

    @pytest.mark.parametrize(
        "text",
        ["# exported by tool\x0cv2\n1|2|-1\n", "# c\x85omment\n1|2|-1\n",
         "# a\u2028b\x1cc\x1dd\x1ee\x0bf\u2029g\n1|2|-1\n"],
    )
    def test_only_newlines_end_a_line(self, text):
        # Form feed, NEL and the other breaks str.splitlines knows stay
        # inside the comment they appear in.
        assert load_topology(text) == Topology.from_records([(1, 2, -1)])

    def test_matches_per_line_oracle(self):
        # The bulk loader against the per-line one on seeded texts: the
        # same Topology (down to the maps' key order) or the same error.
        rng = random.Random(2024)
        kinds = ["valid", "valid", "fields", "non-int", "asn 0", "asn 2**32",
                 "self-loop", "code", "duplicate", "reversed p2c", "cycle"]
        for trial in range(330):
            kind = kinds[trial % len(kinds)]
            faults = [] if kind == "valid" else [kind]
            if faults and rng.random() < 0.25:
                faults.append(rng.choice(kinds[2:]))  # which one is reported first
            text = _render(rng, _records(rng, *faults), empty=trial % 30 == 0)
            source = text.encode() if rng.random() < 0.2 else text
            try:
                want = oracle_load_topology(source)
            except TopologyError as exc:
                with pytest.raises(TopologyError) as excinfo:
                    load_topology(source)
                assert str(excinfo.value) == str(exc), (kind, text)
                continue
            got = load_topology(source)
            assert got == want, (kind, text)
            for name in ("providers", "customers", "peers"):
                assert list(getattr(got, name).items()) == list(getattr(want, name).items())

    def test_wide_lines_match_per_line_oracle(self):
        # The bulk loader against the per-line one on seeded texts whose
        # lines have three to five fields (on every line or on some), with
        # whitespace inside fields; a short line may have its missing pipes
        # made up by another line, so the pipe total still balances.
        rng = random.Random(2028)
        pads = ("", "", " ", "\t", "\x0c")
        for trial in range(200):
            fields = _records(rng, *(["fields"] if trial % 4 == 3 else []))
            widths = rng.choice(((3,), (4,), (5,), (3, 4), (3, 5), (3, 4, 5)))
            lines = [f + ["bgp", "x"][: rng.choice(widths) - 3] for f in fields]
            for short in [line for line in lines if len(line) < 3]:
                if rng.random() < 0.5:
                    rng.choice(lines).extend(["x"] * (3 - len(short)))
            text = "".join(
                "|".join(rng.choice(pads) + f + rng.choice(pads) for f in line) + "\n"
                for line in lines
            )
            try:
                want = oracle_load_topology(text)
            except TopologyError as exc:
                with pytest.raises(TopologyError) as excinfo:
                    load_topology(text)
                assert str(excinfo.value) == str(exc), text
                continue
            got = load_topology(text)
            assert got == want, text
            for name in ("providers", "customers", "peers"):
                assert list(getattr(got, name).items()) == list(getattr(want, name).items())

    @pytest.mark.parametrize(
        "text,message",
        [
            # ids kept from before the loader named a repeated pair's line
            pytest.param("7|8|-1\n07|8|0\n", "line 2: duplicate edge between AS7 and AS8",
                         id="7|8|-1\n07|8|0\n-duplicate edge between AS7 and AS8"),
            ("1|2|-1\n5|05|0\n", "line 2: self-loop on AS5"),
            pytest.param("7|8|-1\n8|+7|-1\n", "line 2: provider-customer cycle through AS8 and AS7",
                         id="7|8|-1\n8|+7|-1\n-provider-customer cycle through AS8 and AS7"),
            pytest.param("7|8|-1\n8| 07 |0\n", "line 2: duplicate edge between AS8 and AS7",
                         id="7|8|-1\n8| 07 |0\n-duplicate edge between AS8 and AS7"),
        ],
    )
    def test_asn_spellings_error_text(self, text, message):
        # One ASN spelled as 7, 07, +7 and ' 7 ' is one AS: equal ints from
        # different field texts must meet in the checks as in the oracle.
        with pytest.raises(TopologyError) as excinfo:
            oracle_load_topology(text)
        assert str(excinfo.value) == message
        with pytest.raises(TopologyError) as excinfo:
            load_topology(text)
        assert str(excinfo.value) == message

    def test_asn_spellings_match_per_line_oracle(self):
        text = "07|8|-1\n7|9|-1\n+9| 10 |-1\n8|009|0\n10|+11|0|bgp\n011| 7 |-1\n"
        got, want = load_topology(text), oracle_load_topology(text)
        assert got == want
        assert got.asns == {7, 8, 9, 10, 11}
        for name in ("providers", "customers", "peers"):
            assert list(getattr(got, name).items()) == list(getattr(want, name).items())

    def test_adjacency_shares_the_key_ints(self):
        # Pins a memory and lookup property, not behaviour: with each ASN
        # spelled one way, every occurrence of it in the adjacency sets is
        # the int object that keys the maps.
        records = random_topology(random.Random(5), 300, 200).records()
        text = "".join(f"{a + 64500}|{b + 64500}|{code}\n" for a, b, code in records)
        loaded = load_topology(text)
        key = {a: a for a in loaded.providers}
        for name in ("providers", "customers", "peers"):
            for a, neighbors in getattr(loaded, name).items():
                assert a is key[a]
                assert all(b is key[b] for b in neighbors)

    def test_load_peak_stays_near_the_graph(self):
        # Pins a memory property, not behaviour: the load's traced peak is at
        # most 1.6 times the graph it returns (about 1.3 times here).  Keeping
        # a field list per line, or each adjacency map mutable and frozen at
        # once, takes it to about 2.4 times.
        records = random_topology(random.Random(11), 2000, 6000).records()
        text = "".join(f"{a + 64500}|{b + 64500}|{code}\n" for a, b, code in records)
        load_topology(text)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loaded = load_topology(text)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded.asns) == 2000
        assert peak - base <= 1.6 * (current - base)

    @pytest.mark.parametrize(
        "text", ["1|2|-1\n2|3|0\n", "1|2|-1\nbogus\n", "1|2|-1\n2|1|-1\n", ""]
    )
    def test_collector_state_is_restored(self, text):
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                try:
                    load_topology(text)
                except TopologyError:
                    pass
                assert gc.isenabled() is enabled
                try:
                    Topology.from_records([(1, 2, -1), (2, 1, -1)])
                except TopologyError:
                    pass
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_roundtrip(self):
        topo = load_topology("1|2|-1\n2|3|-1\n4|2|0\n3|5|-1\n4|5|0")
        assert load_topology(serialize_topology(topo)) == topo

    def test_random_roundtrip(self):
        rng = random.Random(7)
        for _ in range(20):
            topo = random_topology(rng, rng.randint(2, 20), rng.randint(0, 8))
            assert load_topology(serialize_topology(topo)) == topo


def _records(rng: random.Random, *faults: str) -> list[list[str]]:
    """Seeded serial-1 records as field lists, with one line of each fault
    kind inserted at a random position."""
    topo = random_topology(rng, rng.randint(2, 40), rng.randint(0, 25))
    records = [
        [b, a, code] if code == 0 and rng.random() < 0.5 else [a, b, code]
        for a, b, code in topo.records()
    ]
    rng.shuffle(records)
    fields = [list(map(str, rec)) for rec in records]
    for kind in faults:
        a, b, code = rng.choice(records)
        bad = [a, b, code]
        if kind == "fields":
            bad = bad[: rng.randint(1, 2)]
        elif kind == "non-int":
            bad[rng.randrange(3)] = rng.choice(("x", "1.5", "", "AS7"))
        elif kind in ("asn 0", "asn 2**32"):
            bad[rng.randrange(2)] = 0 if kind == "asn 0" else 2**32
        elif kind == "self-loop":
            bad = [a, a, rng.choice((-1, 0))]
        elif kind == "code":
            bad[2] = 7
        elif kind == "duplicate":
            bad = [*rng.choice(((a, b), (b, a))), rng.choice((-1, 0))]
        elif kind == "reversed p2c":
            a, b, _ = rng.choice([rec for rec in records if rec[2] == -1])
            bad = [b, a, -1]
        elif kind == "cycle":
            # A p2c edge from an AS up to a provider two or more hops above.
            below = {a: customer_cone(topo, a) - topo.customers_of(a) for a in topo.asns}
            tops = [a for a in sorted(below) if below[a]]
            if not tops:
                continue
            top = rng.choice(tops)
            bad = [rng.choice(sorted(below[top])), top, -1]
        fields.insert(rng.randrange(len(fields) + 1), list(map(str, bad)))
    return fields


def _render(rng: random.Random, fields: list[list[str]], empty: bool = False) -> str:
    """Serial-1 text with comments, blank lines, spaces, a source field and
    a random mix of line ends."""
    lines = [] if empty else [
        rng.choice(("", " ", "\t"))
        + rng.choice((" | ", "|\t", " |")).join(f) + rng.choice(("", "|bgp", "|mlp|x"))
        + rng.choice(("", " ", "\t"))
        if rng.random() < 0.3 else "|".join(f)
        for f in fields
    ]
    for _ in range(rng.randint(0, 4)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(
            ("", "   ", "# comment", "  # indented comment", "#", "# a|b|c\x0cx|y")
        ))
    ends = rng.choice((["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]))
    text = "".join(line + rng.choice(ends) for line in lines)
    return text if rng.random() < 0.8 else text.rstrip("\r\n")


class TestCustomerCone:
    def test_chain(self):
        topo = load_topology("1|2|-1\n2|3|-1")
        assert customer_cone(topo, 1) == {2, 3}
        assert customer_cone(topo, 2) == {3}

    def test_stub_is_empty(self):
        topo = load_topology("1|2|-1")
        assert customer_cone(topo, 2) == frozenset()

    def test_unknown_asn(self):
        topo = load_topology("1|2|-1")
        with pytest.raises(TopologyError, match="unknown"):
            customer_cone(topo, 99)

    def test_excludes_self_and_peers(self):
        topo = load_topology("1|2|-1\n1|3|0\n2|4|-1")
        cone = customer_cone(topo, 1)
        assert 1 not in cone
        assert 3 not in cone
        assert cone == {2, 4}

    def test_matches_dfs_oracle_on_random_topologies(self):
        rng = random.Random(42)
        for _ in range(50):
            topo = random_topology(rng, 12, rng.randint(0, 6))
            for asn in topo.asns:
                assert customer_cone(topo, asn) == dfs_customer_cone(topo, asn)

    def test_cone_sizes_match_the_cones(self):
        # The one-pass set unions against a walk per AS, on random graphs
        # and on every fixture's topology.
        rng = random.Random(44)
        topos = [random_topology(rng, n, rng.randint(0, n))
                 for n in [rng.randint(1, 300) for _ in range(40)]]
        topos += [load_topology(path.read_text())
                  for path in sorted(FIXTURES.glob("*/topology.txt"))]
        assert len(topos) > 40
        for topo in topos:
            sizes = topo.cone_sizes
            assert sizes == {a: len(customer_cone(topo, a)) for a in topo.asns}
            assert topo.cone_sizes is sizes  # computed once per graph


class TestTier1:
    def test_chain_single_top(self):
        topo = load_topology("1|2|-1\n2|3|-1")
        assert tier1_clique(topo) == {1}

    def test_meshed_pair_no_warning(self, caplog):
        topo = load_topology("1|2|-1\n5|2|-1\n1|5|0")
        with caplog.at_level("WARNING"):
            assert tier1_clique(topo) == {1, 5}
        assert not caplog.records
        assert tier1_mesh_gaps(topo) == []

    def test_unmeshed_pair_warns(self, caplog):
        topo = load_topology("1|2|-1\n5|2|-1")
        with caplog.at_level("WARNING"):
            assert tier1_clique(topo) == {1, 5}
        assert any("not peering" in r.message for r in caplog.records)
        assert tier1_mesh_gaps(topo) == [(1, 5)]

    def test_clique_members_have_no_providers(self):
        rng = random.Random(3)
        for _ in range(20):
            topo = random_topology(rng, 15, 5)
            for asn in tier1_clique(topo):
                assert not topo.providers_of(asn)
                for other in topo.asns:
                    assert asn not in topo.customers_of(other)


class TestIxAugmentation:
    def test_pairwise_closure(self):
        topo = Topology.from_records([(1, 2, -1), (1, 3, -1), (1, 4, -1), (2, 3, 0)])
        out = augment_with_ix_peering(topo, {"ix1": [2, 3, 4]})
        assert out.peers_of(2) == {3, 4}
        assert out.peers_of(3) == {2, 4}
        assert out.peers_of(4) == {2, 3}

    def test_c2p_never_overwritten(self):
        topo = Topology.from_records([(2, 3, -1)])
        out = augment_with_ix_peering(topo, {"ix1": [2, 3]})
        assert out.customers_of(2) == {3}
        assert out.peers_of(2) == frozenset()

    def test_requires_memberships(self):
        topo = Topology.from_records([(1, 2, -1)])
        with pytest.raises(TopologyError, match="IX"):
            augment_with_ix_peering(topo, {})

    @pytest.mark.parametrize("bad", [0, -5, 2**32, True, "7"])
    def test_invalid_member_asn_rejected(self, bad):
        topo = Topology.from_records([(1, 2, -1)])
        with pytest.raises(TopologyError, match="invalid ASN"):
            augment_with_ix_peering(topo, {"ix1": [1, bad]})

    def test_ix_only_member_joins_without_other_edges(self):
        topo = Topology.from_records([(1, 2, -1)])
        out = augment_with_ix_peering(topo, {"ix1": [2, 99], "ix2": [77]})
        assert out.asns == {1, 2, 77, 99}
        assert out.peers_of(99) == {2}
        assert not out.providers_of(99) and not out.customers_of(99)
        assert not out.neighbors_of(77)
        assert topo.asns == {1, 2}

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(20):
            topo = random_topology(rng, 10, 3)
            asns = sorted(topo.asns)
            ix = {
                f"ix{i}": rng.sample(asns, k=rng.randint(2, 5))
                for i in range(rng.randint(1, 3))
            }
            once = augment_with_ix_peering(topo, ix)
            twice = augment_with_ix_peering(once, ix)
            assert once == twice

    def test_edge_count_matches_pair_enumeration(self):
        rng = random.Random(13)
        for _ in range(30):
            topo = random_topology(rng, 12, 4)
            asns = sorted(topo.asns)
            ix = {
                f"ix{i}": frozenset(rng.sample(asns, k=rng.randint(2, 6)))
                for i in range(rng.randint(1, 3))
            }
            out = augment_with_ix_peering(topo, ix)

            # Brute-force pair enumeration over every IX.
            expected_new = set()
            for members in ix.values():
                for a in members:
                    for b in members:
                        if a >= b:
                            continue
                        pre_connected = (
                            b in topo.peers_of(a)
                            or b in topo.providers_of(a)
                            or b in topo.customers_of(a)
                        )
                        if not pre_connected:
                            expected_new.add((a, b))
            before = sum(len(topo.peers_of(a)) for a in topo.asns) // 2
            after = sum(len(out.peers_of(a)) for a in out.asns) // 2
            assert after - before == len(expected_new)


def test_load_ix_memberships():
    ix = load_ix_memberships("# hdr\nix1|2\nix1|3\nix2|4\n")
    assert ix == {"ix1": frozenset({2, 3}), "ix2": frozenset({4})}
    with pytest.raises(TopologyError, match="line 1"):
        load_ix_memberships("nonsense")
