import ipaddress
import random
import threading

import pytest

from zonesim.registry import (
    AspaRecord,
    AspaState,
    KycEntry,
    OriginVerdict,
    RegistryError,
    RegistrySet,
    Roa,
    RovState,
    aspa_pair_valid,
    load_aspas,
    load_irr,
    load_kyc,
    load_roas,
    parse_prefix,
    rov_validate,
    verify_customer_origin,
)

P = parse_prefix


class TestPrefix:
    def test_parse_canonical(self):
        assert P("192.0.30.0/23").prefixlen == 23
        assert P("2001:db8::/32").version == 6

    def test_host_bits_rejected(self):
        with pytest.raises(RegistryError, match="invalid prefix"):
            P("192.0.30.1/23")


class TestRoa:
    def test_maxlength_bounds(self):
        Roa(P("192.0.30.0/23"), 64500, 24)
        with pytest.raises(RegistryError, match="maxLength"):
            Roa(P("192.0.30.0/23"), 64500, 22)
        with pytest.raises(RegistryError, match="maxLength"):
            Roa(P("192.0.30.0/23"), 64500, 33)


class TestRovValidate:
    def test_maxlength_allows_more_specific(self):
        # A /23 ROA with maxLength 24 authorizes the /24 inside it.
        reg = RegistrySet(roas=[Roa(P("192.0.30.0/23"), 64500, 24)])
        assert rov_validate(reg, P("192.0.31.0/24"), 64500) is RovState.VALID

    def test_exceeding_maxlength_is_invalid(self):
        reg = RegistrySet(roas=[Roa(P("192.0.30.0/23"), 64500, 24)])
        assert rov_validate(reg, P("192.0.31.0/25"), 64500) is RovState.INVALID

    def test_empty_store_not_found(self):
        reg = RegistrySet()
        assert rov_validate(reg, P("192.0.31.0/24"), 64500) is RovState.NOT_FOUND

    def test_wrong_origin_invalid(self):
        reg = RegistrySet(roas=[Roa(P("192.0.30.0/23"), 64500)])
        assert rov_validate(reg, P("192.0.30.0/23"), 64501) is RovState.INVALID

    def test_absent_maxlength_means_exact_length(self):
        reg = RegistrySet(roas=[Roa(P("192.0.30.0/23"), 64500)])
        assert rov_validate(reg, P("192.0.30.0/23"), 64500) is RovState.VALID
        assert rov_validate(reg, P("192.0.30.0/24"), 64500) is RovState.INVALID

    def test_any_matching_roa_wins(self):
        reg = RegistrySet(
            roas=[
                Roa(P("192.0.30.0/23"), 64501),
                Roa(P("192.0.30.0/23"), 64500, 24),
            ]
        )
        assert rov_validate(reg, P("192.0.30.0/24"), 64500) is RovState.VALID

    def test_uncovered_prefix_not_found(self):
        reg = RegistrySet(roas=[Roa(P("192.0.30.0/23"), 64500)])
        assert rov_validate(reg, P("198.51.100.0/24"), 64500) is RovState.NOT_FOUND

    def test_exhaustive_subprefix_oracle(self):
        # Randomized ROA sets inside 10.64.0.0/20, checked against a
        # brute-force reimplementation over every /20../26 sub-prefix.
        rng = random.Random(97)
        base = ipaddress.ip_network("10.64.0.0/20")
        origins = [64500, 64501, 64502]

        def all_subprefixes():
            for length in range(20, 27):
                yield from base.subnets(new_prefix=length)

        def brute_force(roas, prefix, origin):
            covering = [
                r for r in roas
                if prefix.network_address >= r.prefix.network_address
                and prefix.broadcast_address <= r.prefix.broadcast_address
            ]
            if not covering:
                return RovState.NOT_FOUND
            for r in covering:
                limit = r.max_length if r.max_length is not None else r.prefix.prefixlen
                if r.origin_asn == origin and prefix.prefixlen <= limit:
                    return RovState.VALID
            return RovState.INVALID

        for _ in range(20):
            roas = []
            for _ in range(rng.randint(1, 5)):
                length = rng.randint(20, 26)
                net = rng.choice(list(base.subnets(new_prefix=length)))
                maxlen = rng.choice([None, rng.randint(length, 26)])
                roas.append(Roa(net, rng.choice(origins), maxlen))
            reg = RegistrySet(roas=roas)
            for prefix in all_subprefixes():
                for origin in origins:
                    assert rov_validate(reg, prefix, origin) == brute_force(
                        roas, prefix, origin
                    ), (roas, prefix, origin)

    def test_monotonicity_adding_roa(self):
        # Adding a ROA never flips a matching-origin query VALID -> INVALID.
        rng = random.Random(5)
        base = ipaddress.ip_network("10.64.0.0/22")
        queries = [
            (net, origin)
            for length in (22, 23, 24)
            for net in base.subnets(new_prefix=length)
            for origin in (64500, 64501)
        ]
        roas = []
        for _ in range(12):
            length = rng.randint(22, 24)
            new = Roa(
                rng.choice(list(base.subnets(new_prefix=length))),
                rng.choice([64500, 64501]),
                rng.choice([None, 24]),
            )
            before = RegistrySet(roas=roas)
            after = RegistrySet(roas=roas + [new])
            for prefix, origin in queries:
                state0 = rov_validate(before, prefix, origin)
                state1 = rov_validate(after, prefix, origin)
                if origin == new.origin_asn and state0 is RovState.VALID:
                    assert state1 is RovState.VALID
                if state0 is RovState.INVALID:
                    assert state1 in (RovState.INVALID, RovState.VALID)
            roas.append(new)


class TestRegistrySet:
    def test_roas_are_copied_and_the_memo_is_not_compared(self):
        prefix = P("192.0.2.0/24")
        roas = [Roa(prefix, 20)]
        reg = RegistrySet(roas=roas)
        assert reg == RegistrySet(roas=tuple(roas))
        roas.append(Roa(prefix, 30))
        assert rov_validate(reg, prefix, 30) is RovState.INVALID
        assert rov_validate(reg, prefix, 20) is RovState.VALID
        assert reg == RegistrySet(roas=(Roa(prefix, 20),))

    def test_memo_answers_as_a_fresh_registry(self):
        # Repeated, interleaved and equal-but-distinct prefix objects, from
        # several threads at once, each get the state a registry that has
        # never been asked before gives.
        roas = [Roa(P("10.0.0.0/16"), 20, 24), Roa(P("10.0.0.0/24"), 30)]
        queries = [
            (P(text), origin)
            for text in ("10.0.0.0/24", "10.0.0.0/25", "10.0.1.0/24", "10.1.0.0/24")
            for origin in (20, 30, 40)
        ]
        want = [rov_validate(RegistrySet(roas=roas), p, o) for p, o in queries]
        rng = random.Random(3)
        order = [rng.randrange(len(queries)) for _ in range(4000)]
        reg = RegistrySet(roas=roas)
        wrong = []

        def ask(shift):
            for i in order[shift:] + order[:shift]:
                prefix, origin = queries[i]
                if rov_validate(reg, P(str(prefix)) if i % 2 else prefix, origin) is not want[i]:
                    wrong.append(i)

        threads = [threading.Thread(target=ask, args=(shift,)) for shift in (0, 1, 2, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert wrong == []


class TestAspa:
    def test_confirmed(self):
        reg = RegistrySet(aspas={20: frozenset({10})})
        assert aspa_pair_valid(reg, 20, 10) is AspaState.CONFIRMED

    def test_contradicted(self):
        reg = RegistrySet(aspas={20: frozenset({10})})
        assert aspa_pair_valid(reg, 20, 30) is AspaState.CONTRADICTED

    def test_no_record(self):
        assert aspa_pair_valid(RegistrySet(), 20, 10) is AspaState.NO_RECORD

    def test_record_invariants(self):
        with pytest.raises(RegistryError):
            AspaRecord(20, frozenset())
        with pytest.raises(RegistryError):
            AspaRecord(20, frozenset({20}))


class TestVerifyCustomerOrigin:
    def test_roa_branch(self):
        reg = RegistrySet(roas=[Roa(P("192.0.2.0/24"), 20)])
        assert (
            verify_customer_origin(reg, 1, 20, P("192.0.2.0/24"), 20)
            is OriginVerdict.VERIFIED
        )

    def test_invalid_roa_rejects_despite_acl(self):
        reg = RegistrySet(
            roas=[Roa(P("192.0.2.0/24"), 99)],
            irr_prefixes={20: frozenset({P("192.0.2.0/24")})},
            kyc={(1, 20): KycEntry(allowed_prefixes=frozenset({P("192.0.2.0/24")}))},
        )
        assert (
            verify_customer_origin(reg, 1, 20, P("192.0.2.0/24"), 20)
            is OriginVerdict.REJECTED
        )

    def test_no_basis_is_unknown(self):
        reg = RegistrySet()
        assert (
            verify_customer_origin(reg, 1, 20, P("192.0.2.0/24"), 20)
            is OriginVerdict.UNKNOWN
        )

    def test_irr_branch(self):
        reg = RegistrySet(irr_prefixes={20: frozenset({P("192.0.2.0/24")})})
        assert (
            verify_customer_origin(reg, 1, 20, P("192.0.2.0/24"), 20)
            is OriginVerdict.VERIFIED
        )

    def test_kyc_prefix_branch(self):
        reg = RegistrySet(
            kyc={(1, 20): KycEntry(allowed_prefixes=frozenset({P("192.0.2.0/24")}))}
        )
        assert (
            verify_customer_origin(reg, 1, 20, P("192.0.2.0/24"), 20)
            is OriginVerdict.VERIFIED
        )

    def test_kyc_asn_list_rejects_unlisted_origin(self):
        reg = RegistrySet(
            roas=[Roa(P("192.0.2.0/24"), 20)],
            kyc={(1, 20): KycEntry(allowed_asns=frozenset({77}))},
        )
        assert (
            verify_customer_origin(reg, 1, 20, P("192.0.2.0/24"), 20)
            is OriginVerdict.REJECTED
        )

    def test_never_verified_when_rov_invalid(self):
        # Property: an INVALID origin beats every positive source.
        rng = random.Random(31)
        prefix = P("192.0.2.0/24")
        for _ in range(30):
            sources = {
                "roas": [Roa(P("192.0.2.0/23"), 99, 24)],
                "irr_prefixes": {20: frozenset({prefix})} if rng.random() < 0.5 else {},
                "kyc": (
                    {(1, 20): KycEntry(allowed_prefixes=frozenset({prefix}))}
                    if rng.random() < 0.5
                    else {}
                ),
            }
            reg = RegistrySet(**sources)
            assert rov_validate(reg, prefix, 20) is RovState.INVALID
            assert (
                verify_customer_origin(reg, 1, 20, prefix, 20)
                is OriginVerdict.REJECTED
            )


class TestLoaders:
    def test_roa_csv(self):
        roas = load_roas("prefix,maxlen,asn\n192.0.30.0/23,24,64500\n192.0.40.0/24,,64501\n")
        assert roas == (
            Roa(P("192.0.30.0/23"), 64500, 24),
            Roa(P("192.0.40.0/24"), 64501, None),
        )

    def test_roa_csv_bad_header(self):
        with pytest.raises(RegistryError, match="header"):
            load_roas("prefix,asn\n192.0.30.0/23,64500\n")

    def test_roa_csv_bad_row(self):
        with pytest.raises(RegistryError, match="line 2"):
            load_roas("prefix,maxlen,asn\nnot-a-prefix,24,64500\n")

    def test_comments_and_blank_lines(self):
        text = "# exported snapshot\nprefix,maxlen,asn\n\n# ours\n192.0.30.0/23,24,64500\n"
        assert load_roas(text) == (Roa(P("192.0.30.0/23"), 64500, 24),)
        with pytest.raises(RegistryError, match="line 6"):
            load_roas(text + "192.0.40.0/24\n")
        with pytest.raises(RegistryError, match="header"):
            load_roas("# header missing\n")

    def test_only_newlines_end_a_line(self):
        # A form feed or NEL inside a comment does not start a data line
        # (here it would have been taken for the header); CR and CRLF do.
        text = "# exported\x0cby tool\r\nprefix,maxlen,asn\r# c\x85d\n192.0.30.0/23,24,64500\r\n"
        assert load_roas(text) == (Roa(P("192.0.30.0/23"), 64500, 24),)
        with pytest.raises(RegistryError) as excinfo:
            load_roas(text + "# x\x0cy\rbad\n")
        assert str(excinfo.value).startswith("line 6: ")

    def test_aspa_csv(self):
        aspas = load_aspas("customer_asn,provider_asns\n20,10;11\n")
        assert aspas == {20: frozenset({10, 11})}

    def test_aspa_duplicate_customer(self):
        with pytest.raises(RegistryError, match="duplicate"):
            load_aspas("customer_asn,provider_asns\n20,10\n20,11\n")

    def test_irr_csv(self):
        irr = load_irr("asn,prefix\n20,192.0.2.0/24\n20,198.51.100.0/24\n")
        assert irr == {20: frozenset({P("192.0.2.0/24"), P("198.51.100.0/24")})}

    def test_kyc_csv(self):
        kyc = load_kyc(
            "member_asn,neighbor_asn,allowed_asns,allowed_prefixes\n"
            "1,20,20;21,192.0.2.0/24\n"
            "1,30,,\n"
        )
        assert kyc[(1, 20)] == KycEntry(
            frozenset({20, 21}), frozenset({P("192.0.2.0/24")})
        )
        assert kyc[(1, 30)] == KycEntry()

    def test_kyc_duplicate_pair(self):
        with pytest.raises(RegistryError, match=r"^line 3: duplicate entry for \(1, 20\)$"):
            load_kyc("member_asn,neighbor_asn,allowed_asns,allowed_prefixes\n1,20,,\n1,20,21,\n")

    # ASN fields take 0..2**32-1: AS0 is meaningful in RPKI objects.
    def test_roa_asn_range(self):
        header = "prefix,maxlen,asn\n"
        assert load_roas(header + "192.0.2.0/24,,0\n192.0.2.0/24,,4294967295\n") == (
            Roa(P("192.0.2.0/24"), 0), Roa(P("192.0.2.0/24"), 2**32 - 1),
        )
        for asn in ("-1", "4294967296"):
            with pytest.raises(RegistryError, match=f"^line 3: invalid ASN {asn}:"):
                load_roas(header + f"192.0.2.0/24,,1\n192.0.2.0/24,,{asn}\n")

    def test_aspa_asn_range(self):
        header = "customer_asn,provider_asns\n"
        assert load_aspas(header + "0,4294967295\n") == {0: frozenset({2**32 - 1})}
        for row in ("-1,10", "20,10;-1", "4294967296,10", "20,4294967296"):
            with pytest.raises(RegistryError, match="^line 2: invalid ASN"):
                load_aspas(header + row + "\n")

    def test_irr_asn_range(self):
        header = "asn,prefix\n"
        assert load_irr(header + "0,192.0.2.0/24\n") == {0: frozenset({P("192.0.2.0/24")})}
        for asn in ("-1", "4294967296"):
            with pytest.raises(RegistryError, match="^line 2: invalid ASN"):
                load_irr(header + f"{asn},192.0.2.0/24\n")

    def test_kyc_asn_range(self):
        header = "member_asn,neighbor_asn,allowed_asns,allowed_prefixes\n"
        assert load_kyc(header + "1,0,0;4294967295,\n") == {
            (1, 0): KycEntry(frozenset({0, 2**32 - 1})),
        }
        for row in ("-1,20,,", "1,-1,,", "1,20,21;-1,", "4294967296,20,,", "1,20,4294967296,"):
            with pytest.raises(RegistryError, match="^line 2: invalid ASN"):
                load_kyc(header + row + "\n")


class TestKycAdjacency:
    def test_adjacent_pairs_accepted(self):
        from zonesim.registry import check_kyc_adjacency
        from zonesim.topology import load_topology

        topo = load_topology("1|20|-1")
        check_kyc_adjacency({(1, 20): KycEntry()}, topo)

    def test_non_adjacent_pair_rejected(self):
        from zonesim.registry import check_kyc_adjacency
        from zonesim.topology import load_topology

        topo = load_topology("1|20|-1\n1|30|-1")
        with pytest.raises(RegistryError, match="non-adjacent"):
            check_kyc_adjacency({(20, 30): KycEntry()}, topo)


def test_rov_conflict_with_irr_logged(caplog):
    # A covering ROA with a different origin wins over the IRR entry, and
    # the contradiction is surfaced in the logs.
    prefix = P("192.0.2.0/24")
    reg = RegistrySet(
        roas=[Roa(P("192.0.2.0/23"), 99, 24)], irr_prefixes={20: frozenset({prefix})}
    )
    with caplog.at_level("WARNING"):
        verdict = verify_customer_origin(reg, 1, 20, prefix, 20)
    assert verdict is OriginVerdict.REJECTED
    assert any("RPKI-invalid despite" in r.message for r in caplog.records)
