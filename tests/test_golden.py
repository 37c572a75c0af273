"""Golden report hashes: refactors must not change a byte of a report.

Each (mode, spec, seed) pins the sha256 of the JSON report that `run_cli`
writes. The triangle-mode reports carry integers and strings only, so BLAS
builds cannot move their hashes. Their instances cover the branches the
enumeration takes: an all-sparse graph (case 1 only), sparse edges beside
one cluster, clusters with removed edges, and a recursion level on the
leftover edges.

The `decompose` reports also pin floating-point results, through the
verifier's check booleans and the nibble search's lambda2 screen, so their
hashes assume the pinned numpy and BLAS build. Their instances cover one
cluster beside sparse edges (dense lambda2 and exact mixing), a walk cut
with removed edges, several clusters, an all-sparse graph, and a cluster
small enough for the brute-force sparsest cut.
"""

import hashlib
import json

import pytest

from congestlab.cli import run_cli

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


def _report(tmp_path, capsys, mode, spec, seed) -> bytes:
    out = tmp_path / "report.json"
    assert run_cli(
        ["--mode", mode, "--gen", spec, "--seed", str(seed), "--out", str(out)]
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
