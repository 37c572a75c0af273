"""Golden report hashes: refactors must not change a byte of a report.

Each (mode, spec, seed) pins the sha256 of the JSON report that `run_cli`
writes. The triangle-mode reports carry integers and strings only, so BLAS
builds cannot move their hashes. Their instances cover the branches the
enumeration takes: an all-sparse graph (case 1 only), sparse edges beside
one cluster, clusters with removed edges, a recursion level on the
leftover edges, and a level whose few sparse edges share triangles with
cluster edges (case-1 attribution beside case 2).

The `decompose` reports also pin floating-point results, through the
verifier's check booleans and the nibble search's lambda2 screen, so their
hashes assume the pinned numpy and BLAS build. Their instances cover one
cluster beside sparse edges (dense lambda2 and exact mixing), a walk cut
with removed edges, several clusters, an all-sparse graph, and a cluster
small enough for the brute-force sparsest cut.

The `nibble` reports pin the walk search itself: its sampling, walks,
sweeps and round charges. The lambda2 screen reads floats, so these hashes
assume the pinned BLAS as well. Their instances cover a cut found by the
walks, a search that walks every level and fails, and a search stopped by
the lambda2 screen before any walk.

The `subgraphs` reports and the library-level pins cover the
class-tuple listing shared by `enumerate_expander` and
`enumerate_subgraphs`. At desk scale the CLI runs take the heavy-collector
branch; the library pins raise the heavy threshold out of reach, so they
run the id, class, tuple-allocation and delivery phases, the expander one
with outward edges, and two of them list non-clique patterns (a 5-vertex
path, and an induced 4-cycle). Their reports hold integers only.

The two library-level `decompose` pins cover the partition's diameter
cuts, which no CLI pin reaches: a scaled caterpillar cut before any peel
(case1), and a caterpillar whose shortcut the peel removes before the cut
(case2a). They hash `decompose`'s own output rather than a CLI report, so
no file path enters the hash; the case2a pin reads lambda2 in its walk
searches and assumes the pinned BLAS.
"""

import hashlib
import json

import pytest

from congestlab import graphcore as gc
from congestlab.cli import run_cli
from congestlab.decomposition import decompose
from congestlab.triangle import (
    _triangles_of_edges,
    enumerate_expander,
    enumerate_subgraphs,
)

GOLDEN = {
    ("count", "er:n=120,p=0.06", 1): "5bd2e1cf34339a0f14e740838c4be3ad686eebf52b18f922ea5ed5d07d71a36b",
    ("triangles", "er:n=120,p=0.06", 1): "39b61c054a674ad01bb874d2b96b34f903b4d45c23de5193211154b63fa07bc2",
    ("count", "er:n=150,p=0.12", 2): "1f38a3f06980d517e995ef3fd2d30b562e606c00104025de2fe2c6e81b39c9cf",
    ("triangles", "er:n=150,p=0.12", 2): "29c82e2517087b855cda7b3b765811a69b87cf62eb98087fabceec5706e39ad9",
    ("count", "barbell:k=40,bridges=1", 1): "609839df683288947065cc816c787ed0fd30f6173b55fae409afd96cc513d44f",
    ("triangles", "barbell:k=40,bridges=1", 1): "793182dce136b93ee388bf79def63ba4c666ead237d0f6af7e6df6acc2c90f24",
    ("count", "caterpillar:blobs=4,blob_size=30", 1): "7f7e72e247e5f972b330568417745472eed60df47aaf030ed45001072b3b5014",
    ("triangles", "caterpillar:blobs=4,blob_size=30", 1): "faff688addd102d5606796bf04c0407dff43f3127deb55461933acf16cfe1ec4",
    ("count", "planted_cut:n=80,p=0.4,cross=3", 1): "a5f48bb5deb0762fe7824de3e484e3cea7a7b4f8722882e4ee18e9135c0853e8",
    ("triangles", "planted_cut:n=80,p=0.4,cross=3", 1): "6361f8a643a1ee6550f898fe7a64e5b18b2dbf85c97c71bafed39995a46fe7dd",
    ("count", "er:n=50,p=0.3", 0): "d56d4caf68ca8bff596a39616c226cf27be90bf10a7537f5e5eed0e9c51313d0",
    ("triangles", "er:n=50,p=0.3", 0): "6887e8e9369c8fdd0c93386f78097905fbf883f78e9eacd187b3d0d2dc7c2315",
    ("count", "er:n=50,p=0.3", 2): "26720138b150758d57f4db24250742ff9d2294ea9246187c46c91e816988b2a4",
    ("triangles", "er:n=50,p=0.3", 2): "271090321ecfa101ecf2a587073b3fab315e7446a827860c0414c07dcfa47897",
}

# Phase labels each instance must produce, so that a hash keeps covering
# the branch it was chosen for.
BRANCHES = {
    "er:n=120,p=0.06": {"triangle:case1:0"},
    "er:n=150,p=0.12": {"triangle:case1:0", "triangle:case2:0"},
    "barbell:k=40,bridges=1": {"triangle:case2:0"},
    "caterpillar:blobs=4,blob_size=30": {"triangle:case2:0"},
    "planted_cut:n=80,p=0.4,cross=3": {
        "triangle:case2:0", "triangle:decompose:1", "triangle:case1:1",
    },
    "er:n=50,p=0.3": {"triangle:case1:0", "triangle:case2:0"},
}

DECOMPOSE_GOLDEN = {
    ("er:n=150,p=0.12", 2): "86275497ba4a35f3648c6652051525ac4319e45a7f75b27effcf681270da2ea7",
    ("planted_cut:n=80,p=0.4,cross=3", 1): "2efba70a1ed1300a9e017e4ad83966d783e8db71a2bd0b3fa587b964b7e88fc8",
    ("caterpillar:blobs=4,blob_size=30", 1): "d08f02681481f9c7b2e7751c8fa7e12ce11a487737fc62c9ca4216a40b716739",
    ("path:n=60", 1): "e3961351ce8828c6c03dee9095465c472b8fb3aa50b14aaa9181be9b28cd7455",
    ("clique:n=16", 1): "3a84d0178bbef1049cc83a4aba6d33b9aab27c485ae2732104cf432526076bfd",
}

# (clusters, removed edges, sparse edges) each decompose instance must
# produce, so that a hash keeps covering the branch it was chosen for.
DECOMPOSE_BRANCHES = {
    "er:n=150,p=0.12": (1, 0, 170),
    "planted_cut:n=80,p=0.4,cross=3": (2, 3, 0),
    "caterpillar:blobs=4,blob_size=30": (4, 3, 0),
    "path:n=60": (0, 0, 59),
    "clique:n=16": (1, 0, 0),
}

NIBBLE_GOLDEN = {
    ("cycle:n=40", 1, "0.08"): "77ba066c53e95e821cba2f65f1bc1be057937f801af308846f46795e8b1c7ce4",
    ("er:n=60,p=0.3", 1, "0.03"): "0dbc6a862c406abff9b58c5ce0263dc3e13c8fa3ad25f9b0a3fb7835f95061cf",
    ("clique:n=30", 1, "0.01"): "1db7f9d78f0541c5e1bd60065037eb3cd52c999b9a2798d9e2d667948906a2ac",
}

# (status, phase labels) each nibble instance must produce, so that a hash
# keeps covering the branch it was chosen for.
NIBBLE_BRANCHES = {
    "cycle:n=40": ("cut", {"nibble:sample", "nibble:walk", "nibble:announce"}),
    "er:n=60,p=0.3": ("failed", {"nibble:sample", "nibble:walk"}),
    "clique:n=30": ("failed", {"nibble:screen"}),
}

SUBGRAPH_GOLDEN = {
    ("er:n=60,p=0.3", 1, 3): "8f07142d295153077ca669158d4baf53d18755c819fe338db4bff04953646019",
    ("er:n=24,p=0.5", 1, 4): "9e9d584dcdf828a64c9df41e2b8261aac5cbe6e6026de94613c0fb93c6d0f9ba",
}

DIAMETER_CUT_GOLDEN = {
    "case1": "63db5bab899a541e17875737b397053b89c4703de1920573538a82e5d45084bf",
    "case2a": "c1ba3b2cca58b9d3ea27d2c98164de619bd9220a258cb7572e1a9d54654cedda",
}

SUBGRAPH_TRIADS_GOLDEN = "2ad0546f7177d3c8bf26a7426e9c9418eb31b9fac0842cc12862dd31d6e0bd9b"
# (pattern name, induced): the hash of a non-clique listing on the triad path
SUBGRAPH_PATTERN_GOLDEN = {
    ("path5", False): "141bf6713144bf4824979b7fec8840e763153cf768c2ac1fe7794f426999dada",
    ("cycle4", True): "2c3a07e1cf7f20d6066168428bfd79a296d54a605be3df213e58d7ff99b71dde",
}
EXPANDER_TRIADS_GOLDEN = "5518614816e45b83a797b915efc1b422bb15623b1371d8564a2ece5379242e04"


def _report(tmp_path, capsys, mode, spec, seed, *extra) -> bytes:
    out = tmp_path / "report.json"
    assert run_cli(
        ["--mode", mode, "--gen", spec, "--seed", str(seed), "--out", str(out), *extra]
    ) == 0
    capsys.readouterr()
    return out.read_bytes()


@pytest.mark.parametrize("mode,spec,seed", sorted(GOLDEN))
def test_report_hash_is_pinned(tmp_path, capsys, mode, spec, seed):
    data = _report(tmp_path, capsys, mode, spec, seed)
    phases = json.loads(data)["runs"][0]["transcript"]["phases"]
    assert BRANCHES[spec] <= set(phases)
    if spec.startswith("er:n=120"):
        assert not any(k.startswith("triangle:case2") for k in phases)
    assert hashlib.sha256(data).hexdigest() == GOLDEN[(mode, spec, seed)]


@pytest.mark.parametrize("spec,seed", sorted(DECOMPOSE_GOLDEN))
def test_decompose_report_hash_is_pinned(tmp_path, capsys, spec, seed):
    data = _report(tmp_path, capsys, "decompose", spec, seed)
    run = json.loads(data)["runs"][0]
    dec = run["decomposition"]
    assert run["verify"]["ok"]
    assert (
        len(dec["clusters"]),
        len(dec["er"]),
        sum(len(part) for part in dec["es"].values()),
    ) == DECOMPOSE_BRANCHES[spec]
    assert hashlib.sha256(data).hexdigest() == DECOMPOSE_GOLDEN[(spec, seed)]


@pytest.mark.parametrize("spec,seed,phi", sorted(NIBBLE_GOLDEN))
def test_nibble_report_hash_is_pinned(tmp_path, capsys, spec, seed, phi):
    data = _report(tmp_path, capsys, "nibble", spec, seed, "--phi", phi)
    run = json.loads(data)["runs"][0]
    status, phases = NIBBLE_BRANCHES[spec]
    assert run["status"] == status
    assert set(run["transcript"]["phases"]) == phases
    assert hashlib.sha256(data).hexdigest() == NIBBLE_GOLDEN[(spec, seed, phi)]


@pytest.mark.parametrize("spec,seed,size", sorted(SUBGRAPH_GOLDEN))
def test_subgraphs_report_hash_is_pinned(tmp_path, capsys, spec, seed, size):
    data = _report(tmp_path, capsys, "subgraphs", spec, seed, "--mode-args", f"s={size}")
    run = json.loads(data)["runs"][0]
    assert set(run["transcript"]["phases"]) == {"subgraph:collect"}
    assert hashlib.sha256(data).hexdigest() == SUBGRAPH_GOLDEN[(spec, seed, size)]


def _listing_hash(result, transcript) -> str:
    doc = {
        "attribution": sorted([list(k), v] for k, v in result.attribution.items()),
        "transcript": transcript.as_json(),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_subgraphs_triad_path_is_pinned():
    res, t = enumerate_subgraphs(gc.gen_er(24, 0.5, seed=5), 4, seed=1, heavy_scale=1e9)
    assert set(t.phases) == {
        "flag:heavy_scale_millis", "subgraph:ids", "subgraph:classes", "subgraph:deliver",
    }
    assert res.count == 321
    assert _listing_hash(res, t) == SUBGRAPH_TRIADS_GOLDEN


@pytest.mark.parametrize(
    "name,induced,size,g,count",
    [
        ("path5", False, 5, gc.gen_er(20, 0.3, seed=4), 4505),
        ("cycle4", True, 4, gc.gen_er(24, 0.4, seed=6), 249),
    ],
    ids=["path5", "induced-cycle4"],
)
def test_subgraphs_pattern_listing_is_pinned(name, induced, size, g, count):
    pattern = {
        "path5": [(0, 1), (1, 2), (2, 3), (3, 4)],
        "cycle4": [(0, 1), (1, 2), (2, 3), (0, 3)],
    }[name]
    res, t = enumerate_subgraphs(
        g, size, pattern=pattern, seed=1, induced=induced, heavy_scale=1e9
    )
    assert "subgraph:deliver" in t.phases
    assert res.count == count
    assert _listing_hash(res, t) == SUBGRAPH_PATTERN_GOLDEN[(name, induced)]


def test_expander_triad_path_with_outward_edges_is_pinned():
    g = gc.generate("er:n=64,p=0.3", seed=3)
    inside = set(range(48))
    e_out = [e for e in g.edges() if (e[0] in inside) != (e[1] in inside)]
    assert len(e_out) == 239
    res, t = enumerate_expander(g, sorted(inside), e_out, seed=1, zeta_scale=1e9)
    assert set(t.phases) == {
        "flag:zeta_scale_millis", "triangle:ids", "triangle:classes", "triangle:deliver",
    }
    universe = [e for e in g.edges() if e[0] in inside or e[1] in inside]
    assert set(res.attribution) == set(map(tuple, _triangles_of_edges(universe).tolist()))
    assert res.count == 979
    assert _listing_hash(res, t) == EXPANDER_TRIADS_GOLDEN


def _decompose_hash(g, delta, threshold_scale, seed):
    d, t = decompose(g, delta, seed=seed, threshold_scale=threshold_scale)
    kinds = sorted(w["kind"] for w in d.certificates["witnesses"])
    doc = json.dumps([d.as_json(), t.as_json()], sort_keys=True)
    return d, kinds, hashlib.sha256(doc.encode()).hexdigest()


def test_case1_diameter_cuts_are_pinned():
    g = gc.generate("caterpillar:blobs=400,blob_size=2", seed=0)
    d, kinds, digest = _decompose_hash(g, 0.05, 0.05, 0)
    assert kinds == ["case1"] * 4
    assert d.certificates["partition_calls"] == 6
    assert digest == DIAMETER_CUT_GOLDEN["case1"]


def test_case2a_diameter_cut_is_pinned(case2a_graph):
    d, kinds, digest = _decompose_hash(case2a_graph, 0.3, 0.01, 1)
    assert kinds == ["case2a"] + ["case2b"] * 28
    assert len(d.clusters) == 30
    assert digest == DIAMETER_CUT_GOLDEN["case2a"]
