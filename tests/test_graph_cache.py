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
from zonesim.routing import NonConvergenceError, Origination, PolicyHooks, dump_rib, propagate
from zonesim.vipzone import ZoneConfig, zone_policy

from oracles import (
    random_connected_members, random_originations, random_topology, serialize_topology,
)
from test_acceptance import FIXTURE_COMMANDS, expected_outputs, run_fixture
from test_routing import _NoNeighborTiebreak

TEXT = b"1|2|-1\n1|3|-1\n2|20|-1\n3|30|-1\n3|40|-1\n2|3|0\n"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _no_parse(monkeypatch):
    def parse(source):
        raise AssertionError("parsed on a cache hit")

    monkeypatch.setattr(topology, "load_topology", parse)


def _no_cone_pass(monkeypatch):
    def cone_sizes(customers, providers):
        raise AssertionError("cone sizes computed")

    monkeypatch.setattr(topology, "_cone_sizes", cone_sizes)


def _entries(cache):
    return sorted(cache.glob("*.graph")) if cache.is_dir() else []


def _count_cone_passes(monkeypatch):
    passes = []
    cone_sizes = topology._cone_sizes
    monkeypatch.setattr(
        topology, "_cone_sizes", lambda customers, providers:
        passes.append(1) or cone_sizes(customers, providers))
    return passes


def test_miss_writes_one_entry_and_the_next_call_hits(graph_cache, monkeypatch):
    # A caller that reads no cone sizes has none computed or written.
    _no_cone_pass(monkeypatch)
    parsed = topology.load_topology(TEXT)
    assert topology._load_cached(TEXT, _digest(TEXT)) == parsed
    [entry] = _entries(graph_cache)
    assert not [p for p in graph_cache.iterdir() if p != entry]  # no temporary file left
    assert marshal.loads(entry.read_bytes())[-1] is None
    _no_parse(monkeypatch)
    assert topology._load_cached(TEXT, _digest(TEXT)) == parsed


def test_cone_sizes_are_added_once_and_then_read(graph_cache, monkeypatch):
    sizes = topology.load_topology(TEXT).cone_sizes
    passes = _count_cone_passes(monkeypatch)
    topology._load_cached(TEXT, _digest(TEXT))
    [entry] = _entries(graph_cache)
    _no_parse(monkeypatch)
    assert topology._load_cached(TEXT, _digest(TEXT), cone_sizes=True).cone_sizes == sizes
    assert passes == [1]  # the hit had none, so the entry was written again with them
    assert list(graph_cache.iterdir()) == [entry]
    assert topology._load_cached(TEXT, _digest(TEXT), cone_sizes=True).cone_sizes == sizes
    assert passes == [1]

    def preset(topo, sizes):
        raise AssertionError("cone sizes decoded")

    monkeypatch.setattr(topology, "_preset_cone_sizes", preset)
    topology._load_cached(TEXT, _digest(TEXT))  # a caller that reads none decodes none


def test_entry_keeps_one_int_per_asn(monkeypatch):
    # Each map is its own blob, so each decoded map has its own int per
    # ASN; the ASN set and the cone sizes share customers' ints.
    topology._load_cached(TEXT, _digest(TEXT), cone_sizes=True)
    _no_parse(monkeypatch)
    _no_cone_pass(monkeypatch)
    topo = topology._load_cached(TEXT, _digest(TEXT), cone_sizes=True)
    for adjacency in (topo.providers, topo.customers, topo.peers):
        keys = {id(a) for a in adjacency}
        assert {id(a) for s in adjacency.values() for a in s} <= keys
        assert len(keys) == len(topo.asns)
    keys = {id(a) for a in topo.customers}
    assert {id(a) for a in topo.asns} == keys == {id(a) for a in topo.cone_sizes}


def _entry_as(change):
    # The good entry, (digest, providers, customers, peers, sizes), changed.
    return lambda good: marshal.dumps(change(*marshal.loads(good)))


def _with_sizes(change):
    # The good entry with its last element, the cone sizes' digest and
    # blob, changed.
    def bad(good):
        *maps, sizes = marshal.loads(good)
        return marshal.dumps((*maps, change(sizes)))

    return bad


@pytest.mark.parametrize("bad", [
    lambda good: good[: len(good) // 2],  # truncated
    lambda good: b"\x00not a marshalled graph\xff" * 3,  # garbage
    lambda good: b"",
    lambda good: marshal.dumps(list(marshal.loads(good))),  # a list, not a tuple
    _entry_as(lambda digest, providers, customers, peers, sizes:
              (digest, providers, customers, sizes)),  # two maps
    # Blobs the digest is not over: another key set, a set value, not a dict.
    _entry_as(lambda digest, providers, customers, peers, sizes:
              (digest, providers, customers, marshal.dumps({2: frozenset()}), sizes)),
    _entry_as(lambda digest, providers, customers, peers, sizes:
              (digest, providers, marshal.dumps({1: set()}), peers, sizes)),
    _entry_as(lambda digest, providers, customers, peers, sizes:
              (digest, providers, customers, marshal.dumps([1]), sizes)),
    lambda good: marshal.dumps(marshal.loads(good)[:4]),  # no last element
    _with_sizes(lambda sizes: marshal.loads(sizes[1])),  # the sizes' tuple itself
    _with_sizes(lambda sizes: 0),
], ids=["truncated", "garbage", "empty", "list", "two-maps", "key-sets", "set-value",
        "not-a-dict", "no-sizes", "sizes-not-bytes", "sizes-int"])
def test_bad_entry_is_a_miss_and_is_rewritten(graph_cache, monkeypatch, bad):
    parsed = topology.load_topology(TEXT)
    sizes = parsed.cone_sizes
    topology._load_cached(TEXT, _digest(TEXT), cone_sizes=True)
    [entry] = _entries(graph_cache)
    entry.write_bytes(bad(entry.read_bytes()))
    assert topology._load_cached(TEXT, _digest(TEXT), cone_sizes=True) == parsed
    assert _entries(graph_cache) == [entry]
    _no_parse(monkeypatch)
    _no_cone_pass(monkeypatch)
    hit = topology._load_cached(TEXT, _digest(TEXT), cone_sizes=True)
    assert hit == parsed and hit.cone_sizes == sizes


def _sizes_as(change):
    # The good entry with its unmarshalled cone sizes changed, and their
    # digest not.
    return _with_sizes(lambda sizes: (sizes[0], marshal.dumps(change(marshal.loads(sizes[1])))))


@pytest.mark.parametrize("bad", [
    _with_sizes(lambda sizes: (sizes[0], b"\x00not marshalled\xff")),
    _with_sizes(lambda sizes: (sizes[0], sizes[1][:-1])),
    _sizes_as(list),
    _sizes_as(lambda sizes: sizes[1:]),
    _sizes_as(lambda sizes: sizes + (0,)),
    _sizes_as(lambda sizes: tuple(map(float, sizes))),
    _sizes_as(lambda sizes: (None, *sizes[1:])),
], ids=["garbage", "truncated", "list", "one-short", "one-over", "float", "none"])
def test_bad_cone_sizes_are_computed_and_rewritten(graph_cache, monkeypatch, bad):
    # The graph is still a hit; a caller that reads the sizes computes them
    # and writes the entry again.
    parsed = topology.load_topology(TEXT)
    sizes = parsed.cone_sizes
    topology._load_cached(TEXT, _digest(TEXT), cone_sizes=True)
    [entry] = _entries(graph_cache)
    entry.write_bytes(bad(entry.read_bytes()))
    _no_parse(monkeypatch)
    passes = _count_cone_passes(monkeypatch)
    assert topology._load_cached(TEXT, _digest(TEXT)) == parsed
    assert passes == []
    hit = topology._load_cached(TEXT, _digest(TEXT), cone_sizes=True)
    assert hit == parsed and hit.cone_sizes == sizes and passes == [1]
    assert _entries(graph_cache) == [entry]
    assert topology._load_cached(TEXT, _digest(TEXT), cone_sizes=True).cone_sizes == sizes
    assert passes == [1]


def _count_parses(monkeypatch):
    parses = []
    load = topology.load_topology
    monkeypatch.setattr(topology, "load_topology", lambda source: parses.append(1) or load(source))
    return parses


def _flip(blob):
    # `blob` with its middle byte's bits flipped.
    i = len(blob) // 2
    return blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:]


@pytest.mark.parametrize("where", [0, 1, 2, 3, (4, 0), (4, 1)],
                         ids=["digest", "providers", "customers", "peers", "sizes-digest", "sizes"])
def test_flipped_byte_is_a_miss_and_the_entry_is_rewritten(graph_cache, monkeypatch, where):
    # A flipped map blob or digest is a miss of the graph, which is parsed
    # again; flipped cone sizes are a miss of the sizes alone, which are
    # computed again.  Either way the entry is written again as it was.
    parsed = topology.load_topology(TEXT)
    sizes = parsed.cone_sizes
    topology._load_cached(TEXT, _digest(TEXT), cone_sizes=True)
    [entry] = _entries(graph_cache)
    good = entry.read_bytes()
    bad = list(marshal.loads(good))
    if isinstance(where, int):
        bad[where] = _flip(bad[where])
    else:
        digest, values = bad[4]
        bad[4] = (_flip(digest), values) if where[1] == 0 else (digest, _flip(values))
    entry.write_bytes(marshal.dumps(tuple(bad)))
    parses, passes = _count_parses(monkeypatch), _count_cone_passes(monkeypatch)
    hit = topology._load_cached(TEXT, _digest(TEXT), cone_sizes=True)
    assert hit == parsed and hit.cone_sizes == sizes
    assert (parses, passes) == (([], [1]) if isinstance(where, tuple) else ([1], [1]))
    assert _entries(graph_cache) == [entry] and entry.read_bytes() == good


def test_entry_of_four_dicts_is_a_miss(graph_cache, monkeypatch):
    # The layout before each map had its own blob: the three maps and the
    # cone sizes, in one marshal.
    parsed = topology.load_topology(TEXT)
    topology._load_cached(TEXT, _digest(TEXT), cone_sizes=True)
    [entry] = _entries(graph_cache)
    good = entry.read_bytes()
    sizes = marshal.dumps(tuple(map(parsed.cone_sizes.__getitem__, parsed.providers)))
    entry.write_bytes(marshal.dumps((parsed.providers, parsed.customers, parsed.peers, sizes)))
    parses = _count_parses(monkeypatch)
    assert topology._load_cached(TEXT, _digest(TEXT), cone_sizes=True) == parsed
    assert parses == [1] and entry.read_bytes() == good


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


def _outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_warm_cone_commands_run_no_cone_pass(graph_cache, tmp_path, monkeypatch):
    # zone writes the entry without cone sizes; the first command that
    # reads them adds them, and the warm calls of every such command take
    # them from there.
    topo, roster = tmp_path / "topo.txt", tmp_path / "roster.txt"
    topo.write_bytes(TEXT)
    roster.write_text("1\n2\n")
    commands = {
        "zone": ["zone", "--roster", str(roster)],
        "curve": ["curve", "--sizes", "0,1,3,9"],
        "greedy": ["curve", "--order", "greedy", "--sizes", "0,1,3,9"],
        "regions": ["local-region", "--sizes", "0,1,3"],
    }

    def run(name, out):
        argv = commands[name] + ["--topology", str(topo), "--out-dir", str(tmp_path / out)]
        assert main(argv) == 0
        return _outputs(tmp_path / out)

    passes = _count_cone_passes(monkeypatch)
    cold = {name: run(name, f"cold-{name}") for name in commands}
    assert passes == [1] and len(_entries(graph_cache)) == 1
    _no_parse(monkeypatch)
    _no_cone_pass(monkeypatch)
    assert {name: run(name, f"warm-{name}") for name in commands} == cold


def _count_decodes(monkeypatch):
    decoded = []
    decode = topology._CachedTopology._decode
    monkeypatch.setattr(topology._CachedTopology, "_decode",
                        lambda topo, name: decoded.append(name) or decode(topo, name))
    return decoded


@pytest.mark.parametrize("command, maps", [
    (["curve", "--sizes", "0,1,3,9"], ["customers"]),
    (["curve", "--order", "greedy", "--sizes", "0,1,3,9"], ["customers"]),
    (["zone", "--roster", "{roster}"], ["customers", "providers"]),
    (["zone", "--roster", "{unknown}"], ["customers"]),
    (["local-region", "--sizes", "0,1,3"], ["customers", "peers", "providers"]),
    (["simulate", "--originations", "{originations}"], ["customers", "peers", "providers"]),
], ids=["curve", "greedy", "zone", "zone-error", "local-region", "simulate"])
def test_hit_decodes_only_the_maps_its_command_reads(
        graph_cache, tmp_path, monkeypatch, capsys, command, maps):
    # Each map at most once; outputs, manifest.json, messages and the exit
    # code are those of a call that parses.
    files = {"topology": "1|2|-1\n1|3|-1\n2|20|-1\n3|30|-1\n3|40|-1\n2|3|0\n30|40|0\n",
             "roster": "1\n2\n", "unknown": "1\n99\n", "originations": "asn,prefix\n20,10.0.0.0/24\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format_map({name: tmp_path / name for name in files}) for arg in command]
    argv += ["--topology", str(tmp_path / "topology")]

    def run(out):
        code = main(argv + ["--out-dir", str(tmp_path / out)])
        written = _outputs(tmp_path / out) if (tmp_path / out).is_dir() else {}
        return code, written, capsys.readouterr()

    parsed = run("miss")
    assert len(_entries(graph_cache)) == 1
    _no_parse(monkeypatch)
    decoded = _count_decodes(monkeypatch)
    assert run("hit") == parsed
    assert sorted(decoded) == maps


def test_adding_cone_sizes_reuses_the_map_blobs(graph_cache, tmp_path, monkeypatch):
    # The first curve on an entry that zone wrote decodes only the maps the
    # cone pass reads, marshals no map, and writes the entry again with the
    # blobs it read.
    topo, roster = tmp_path / "topo.txt", tmp_path / "roster.txt"
    topo.write_bytes(TEXT)
    roster.write_text("1\n2\n")
    assert main(["zone", "--topology", str(topo), "--roster", str(roster),
                 "--out-dir", str(tmp_path / "zone")]) == 0
    [entry] = _entries(graph_cache)
    maps = marshal.loads(entry.read_bytes())[:4]
    _no_parse(monkeypatch)
    decoded = _count_decodes(monkeypatch)
    dumped = []
    dumps = marshal.dumps
    monkeypatch.setattr(marshal, "dumps", lambda value: dumped.append(type(value)) or dumps(value))
    assert main(["curve", "--topology", str(topo), "--sizes", "1,3",
                 "--out-dir", str(tmp_path / "curve")]) == 0
    assert sorted(decoded) == ["customers", "providers"]
    assert dumped == [tuple]  # the cone sizes alone
    *entry_maps, sizes = marshal.loads(entry.read_bytes())
    assert tuple(entry_maps) == maps and sizes is not None


def test_relative_xdg_cache_home_is_ignored(tmp_path, monkeypatch):
    # The XDG Base Directory spec calls a relative path invalid: the cache
    # is ~/.cache/zonesim, as when the variable is unset.
    home, cwd = tmp_path / "home", tmp_path / "cwd"
    cwd.mkdir()
    (cwd / "topo.txt").write_bytes(TEXT)
    (cwd / "roster.txt").write_text("1\n")
    monkeypatch.setenv("XDG_CACHE_HOME", "rel")
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.chdir(cwd)
    assert main(["zone", "--topology", "topo.txt", "--roster", "roster.txt",
                 "--out-dir", "out"]) == 0
    assert not (cwd / "rel").exists()
    assert len(_entries(home / ".cache" / "zonesim")) == 1


def test_unwritable_cache_runs_no_extra_cone_pass(tmp_path, monkeypatch, capsys):
    # An entry that cannot be written asks for no cone sizes: zone, which
    # reads none, runs no pass, and curve runs the one it reads.
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    passes = _count_cone_passes(monkeypatch)
    topo, roster = tmp_path / "topo.txt", tmp_path / "roster.txt"
    topo.write_bytes(TEXT)
    roster.write_text("1\n2\n")
    for run in ("a", "b"):
        assert main(["zone", "--topology", str(topo), "--roster", str(roster),
                     "--out-dir", str(tmp_path / run)]) == 0
    assert _outputs(tmp_path / "a") == _outputs(tmp_path / "b")
    assert passes == []
    assert main(["curve", "--topology", str(topo), "--sizes", "1,3",
                 "--out-dir", str(tmp_path / "c")]) == 0
    assert passes == [1]
    assert capsys.readouterr().err == ""


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


def _tied_solve(topo, origs):
    # Routes of one relationship and length from different neighbors tie,
    # and a tied pick follows the order entries reach a table.
    hooks = PolicyHooks(preference_for=lambda asn, order=_NoNeighborTiebreak(): order)
    try:
        return propagate(topo, origs, hooks)
    except NonConvergenceError as exc:
        return exc.oscillating


def test_tied_picks_do_not_follow_set_order(monkeypatch):
    # Under an order whose keys tie, a solve on a cached graph, whose
    # frozensets may iterate in another order than the parsed graph's,
    # picks what the parsed graph's solve picks: the engine walks each AS's
    # neighbors in ascending ASN order.  Large random ASNs make the two set
    # orders differ.
    reordered = tied = 0
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(20, 120)
        base = random_topology(rng, n, rng.randint(0, n))
        big = dict(zip(sorted(base.asns), rng.sample(range(1, 2**32), n)))
        data = "".join(f"{big[a]}|{big[b]}|{code}\n" for a, b, code in base.records()).encode()
        parsed = topology.load_topology(data)
        topology._load_cached(data, _digest(data))
        with monkeypatch.context() as patch:
            _no_parse(patch)
            cached = topology._load_cached(data, _digest(data))
        reordered += any(
            list(getattr(cached, maps)[asn]) != list(getattr(parsed, maps)[asn])
            for maps in ("providers", "customers", "peers") for asn in parsed.asns
        )
        origs = [Origination(asn, analysis.synthetic_prefix(asn))
                 for asn in rng.sample(sorted(parsed.asns), 4)]
        rib = _tied_solve(parsed, origs)
        assert _tied_solve(cached, origs) == rib
        order = _NoNeighborTiebreak()
        tied += any(
            len(ranked) > 1 and order.key(ranked[0]) == order.key(ranked[1])
            for orig in origs for asn in sorted(parsed.asns)
            for ranked in (rib.candidates(asn, orig.prefix),)
        )
    assert reordered >= 30 and tied >= 30
