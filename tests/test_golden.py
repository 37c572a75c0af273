"""Golden report hashes: refactors of the triangle path must not change a byte.

Each (mode, spec, seed) pins the sha256 of the JSON report that `run_cli`
writes. Only the triangle modes are pinned; their reports carry integers
and strings only, so BLAS builds cannot move a hash. The instances cover
the branches the enumeration takes: an all-sparse graph (case 1 only),
sparse edges beside one cluster, clusters with removed edges, and a
recursion level on the leftover edges.
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


@pytest.mark.parametrize("mode,spec,seed", sorted(GOLDEN))
def test_report_hash_is_pinned(tmp_path, capsys, mode, spec, seed):
    out = tmp_path / "report.json"
    assert run_cli(
        ["--mode", mode, "--gen", spec, "--seed", str(seed), "--out", str(out)]
    ) == 0
    capsys.readouterr()
    data = out.read_bytes()
    phases = json.loads(data)["runs"][0]["transcript"]["phases"]
    assert BRANCHES[spec] <= set(phases)
    if spec.startswith("er:n=120"):
        assert not any(k.startswith("triangle:case2") for k in phases)
    assert hashlib.sha256(data).hexdigest() == GOLDEN[(mode, spec, seed)]
