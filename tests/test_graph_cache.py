"""The CLI's on-disk graph cache (``topology._load_cached``): a hit gives the
graph a parse gives, and every fault of the cache falls back to the parse."""

import hashlib
import marshal
import random

import pytest

from zonesim import analysis, topology
from zonesim.analysis import GrowthOrder
from zonesim.cli import main
from zonesim.registry import RegistrySet, Roa
from zonesim.routing import NonConvergenceError, dump_rib, propagate
from zonesim.vipzone import ZoneConfig, zone_policy

from oracles import (
    random_connected_members, random_originations, random_topology, serialize_topology,
)
from test_acceptance import FIXTURE_COMMANDS, expected_outputs, run_fixture

TEXT = b"1|2|-1\n1|3|-1\n2|20|-1\n3|30|-1\n3|40|-1\n2|3|0\n"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _no_parse(monkeypatch):
    def parse(source):
        raise AssertionError("parsed on a cache hit")

    monkeypatch.setattr(topology, "load_topology", parse)


def _entries(cache):
    return sorted(cache.glob("*.graph")) if cache.is_dir() else []


def test_miss_writes_one_entry_and_the_next_call_hits(graph_cache, monkeypatch):
    parsed = topology.load_topology(TEXT)
    assert topology._load_cached(TEXT, _digest(TEXT)) == parsed
    [entry] = _entries(graph_cache)
    assert not [p for p in graph_cache.iterdir() if p != entry]  # no temporary file left
    _no_parse(monkeypatch)
    assert topology._load_cached(TEXT, _digest(TEXT)) == parsed


def test_entry_keeps_one_int_per_asn(monkeypatch):
    topology._load_cached(TEXT, _digest(TEXT))
    _no_parse(monkeypatch)
    topo = topology._load_cached(TEXT, _digest(TEXT))
    keys = {id(a) for a in topo.providers}
    neighbors = {id(a) for m in (topo.providers, topo.customers, topo.peers)
                 for s in m.values() for a in s}
    assert neighbors <= keys == {id(a) for a in topo.customers} == {id(a) for a in topo.asns}


@pytest.mark.parametrize("bad", [
    lambda good: good[: len(good) // 2],  # truncated
    lambda good: b"\x00not a marshalled graph\xff" * 3,  # garbage
    lambda good: b"",
    lambda good: marshal.dumps([{}, {}, {}]),  # a list, not a tuple
    lambda good: marshal.dumps(({1: frozenset()}, {1: frozenset()})),  # two maps
    lambda good: marshal.dumps(({1: frozenset()}, {1: frozenset()}, {2: frozenset()})),
    lambda good: marshal.dumps(({1: frozenset()}, {1: set()}, {1: frozenset()})),
    lambda good: marshal.dumps(({1: frozenset()}, {1: frozenset()}, [1])),
], ids=["truncated", "garbage", "empty", "list", "two-maps", "key-sets", "set-value",
        "not-a-dict"])
def test_bad_entry_is_a_miss_and_is_rewritten(graph_cache, monkeypatch, bad):
    parsed = topology.load_topology(TEXT)
    topology._load_cached(TEXT, _digest(TEXT))
    [entry] = _entries(graph_cache)
    entry.write_bytes(bad(entry.read_bytes()))
    assert topology._load_cached(TEXT, _digest(TEXT)) == parsed
    assert _entries(graph_cache) == [entry]
    _no_parse(monkeypatch)
    assert topology._load_cached(TEXT, _digest(TEXT)) == parsed


def test_changed_loader_source_is_a_miss(graph_cache, monkeypatch):
    topology._load_cached(TEXT, _digest(TEXT))
    [first] = _entries(graph_cache)
    monkeypatch.setattr(topology, "_loader_digest", lambda: "another loader")
    parses = []
    load = topology.load_topology
    monkeypatch.setattr(topology, "load_topology", lambda source: parses.append(1) or load(source))
    assert topology._load_cached(TEXT, _digest(TEXT)) == load(TEXT)
    assert parses == [1]
    assert first in _entries(graph_cache) and len(_entries(graph_cache)) == 2


def test_other_text_is_another_entry(graph_cache):
    other = TEXT + b"40|41|-1\n"
    topology._load_cached(TEXT, _digest(TEXT))
    assert topology._load_cached(other, _digest(other)) == topology.load_topology(other)
    assert len(_entries(graph_cache)) == 2


@pytest.mark.parametrize("name", sorted(FIXTURE_COMMANDS))
def test_second_cli_call_reads_the_entry(name, graph_cache, tmp_path, monkeypatch):
    assert run_fixture(name, tmp_path / "a") == expected_outputs(name)
    assert len(_entries(graph_cache)) == 1
    _no_parse(monkeypatch)
    assert run_fixture(name, tmp_path / "b") == expected_outputs(name)


@pytest.mark.parametrize("name", sorted(FIXTURE_COMMANDS))
def test_unwritable_cache_gives_the_same_outputs(name, tmp_path, monkeypatch, capsys):
    # XDG_CACHE_HOME names a regular file, so no entry can be read or made.
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    for run in ("a", "b"):
        assert run_fixture(name, tmp_path / run) == expected_outputs(name)
        assert capsys.readouterr().err == ""
    assert blocker.read_text() == ""


def test_malformed_topology_writes_no_entry(graph_cache, tmp_path, capsys):
    topo = tmp_path / "topo.txt"
    topo.write_text("1|2|-1\n2|3|-1\n1|2|-1\n")
    roster = tmp_path / "roster.txt"
    roster.write_text("1\n")
    for run in ("a", "b"):
        code = main(["zone", "--topology", str(topo), "--roster", str(roster),
                     "--out-dir", str(tmp_path / run)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {topo}: line 3: duplicate edge between AS1 and AS2\n")
        assert _entries(graph_cache) == []


def _results(topo, rng):
    # What the analyses and a zone solve write, as text; a solve that does
    # not converge gives its message.
    members = random_connected_members(rng, topo)
    sizes = [0, 1, 3, len(topo.asns)]
    curve = analysis.zone_growth_curve(topo, GrowthOrder.GREEDY_PROTECTED_GAIN, sizes)
    dist = analysis.local_region_distribution(topo, sizes)
    origs = random_originations(rng, topo)
    reg = RegistrySet(roas=[Roa(o.prefix, o.asn) for o in origs])
    try:
        rib = dump_rib(propagate(topo, origs, zone_policy(topo, ZoneConfig(members), reg)))
    except NonConvergenceError as exc:
        rib = str(exc)
    return (
        analysis.cone_size_order(topo), analysis.growth_csv(curve),
        analysis.region_rows_csv(dist), analysis.region_summary_csv(dist), rib,
    )


@pytest.mark.parametrize("seed", range(12))
def test_cached_graph_gives_the_parsed_graphs_results(seed, monkeypatch):
    # A cached graph's frozensets may iterate in another order than the
    # parsed graph's; nothing that reads the graph may depend on it.
    rng = random.Random(seed)
    n = rng.randint(2, 300)
    data = serialize_topology(random_topology(rng, n, rng.randint(0, n))).encode()
    parsed = topology.load_topology(data)
    topology._load_cached(data, _digest(data))
    with monkeypatch.context() as patch:
        _no_parse(patch)
        cached = topology._load_cached(data, _digest(data))
    assert cached == parsed
    for maps in ("providers", "customers", "peers", "asns"):
        assert list(getattr(cached, maps)) == list(getattr(parsed, maps))
    assert _results(cached, random.Random(seed)) == _results(parsed, random.Random(seed))
