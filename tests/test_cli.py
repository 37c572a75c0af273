"""Exit codes, summaries, reports, and determinism of the command line."""

import io
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congestlab
from congestlab import cli
from congestlab.cli import run_cli


def _run(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_count_clique_summary(capsys):
    code, out, _ = _run(capsys, ["--mode", "count", "--gen", "clique:n=4", "--seed", "1"])
    assert code == 0
    assert out == "triangles=4"


def test_detect_and_subgraphs(capsys):
    code, out, _ = _run(capsys, ["--mode", "detect", "--gen", "path:n=40", "--seed", "0"])
    assert code == 0 and out == "detected=false"
    code, out, _ = _run(
        capsys,
        ["--mode", "subgraphs", "--gen", "clique:n=5", "--seed", "1", "--mode-args", "s=4"],
    )
    assert code == 0 and out == "subgraphs=5"


def test_decompose_report_and_verify(tmp_path, capsys):
    rpt = tmp_path / "r.json"
    code, out, _ = _run(
        capsys,
        [
            "--mode", "decompose", "--gen", "er:n=128,p=0.25",
            "--delta", "0.5", "--seed", "7", "--out", str(rpt),
        ],
    )
    assert code == 0
    assert "verified=true" in out
    doc = json.loads(rpt.read_text())
    assert doc["schema"] == "congestlab-report/1"
    run = doc["runs"][0]
    assert run["er_within_sixth"] is True
    assert run["decomposition"]["certificates"]
    assert doc["config"]["case1_threshold_scale"] == 1.0

    code, out, _ = _run(capsys, ["--mode", "verify", "--mode-args", str(rpt)])
    assert code == 0 and out == "verified=true"


def test_verify_tampered_report_exits_2(tmp_path, capsys):
    rpt = tmp_path / "r.json"
    assert run_cli(
        ["--mode", "decompose", "--gen", "er:n=64,p=0.3", "--seed", "2", "--out", str(rpt)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(rpt.read_text())
    d = doc["runs"][0]["decomposition"]
    c0 = d["clusters"][0]
    c0["edges"] = c0["edges"][:-2]  # partition no longer covers E
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["--mode", "verify", "--mode-args", str(bad)])
    assert code == 2
    assert out == "verified=false"


def test_verify_names_sparse_edge_filed_under_wrong_owner(tmp_path, capsys):
    rpt = tmp_path / "r.json"
    assert run_cli(
        ["--mode", "decompose", "--gen", "path:n=60", "--seed", "1", "--out", str(rpt)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(rpt.read_text())
    es = doc["runs"][0]["decomposition"]["es"]
    owner = next(v for v, part in es.items() if [0, 1] in part)
    es[owner].remove([0, 1])
    es.setdefault("30", []).append([0, 1])
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "verify.json"
    code, line, _ = _run(
        capsys, ["--mode", "verify", "--mode-args", str(bad), "--out", str(out)]
    )
    assert code == 2
    assert line == "verified=false"
    failures = json.loads(out.read_text())["runs"][0]["results"][0]["failures"]
    assert any("edge (0, 1) not incident to owner 30" in f for f in failures)



@pytest.mark.parametrize("tamper", ["delta", "threshold", "both"])
def test_verify_checks_report_delta_against_config(tmp_path, capsys, tamper):
    # Every edge moved into E_s under its smaller endpoint breaks the
    # sparse cap n^0.5; a report delta of 5.0 would lift that cap.
    rpt = tmp_path / "r.json"
    assert run_cli(
        ["--mode", "decompose", "--gen", "er:n=64,p=0.3", "--seed", "2", "--out", str(rpt)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(rpt.read_text())
    dec = doc["runs"][0]["decomposition"]
    edges = [e for c in dec["clusters"] for e in c["edges"]] + dec["er"]
    edges += [e for part in dec["es"].values() for e in part]
    dec["clusters"], dec["er"], dec["es"] = [], [], {}
    for u, v in sorted(edges):
        dec["es"].setdefault(str(u), []).append([u, v])
    if tamper in ("delta", "both"):
        dec["delta"] = 5.0
    if tamper in ("threshold", "both"):
        dec["threshold"] = 64.0 ** 5.0
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "verify.json"
    code, line, _ = _run(
        capsys, ["--mode", "verify", "--mode-args", str(bad), "--out", str(out)]
    )
    assert code == 2
    assert line == "verified=false"
    result = json.loads(out.read_text())["runs"][0]["results"][0]
    assert result["checks"]["config-delta"] is False
    assert result["checks"]["orientation"] is False
    assert any(f.startswith("config-delta: report delta") for f in result["failures"])


@pytest.mark.parametrize("delta", [5.0, 0.0, 1.0, "0.5", True, None])
def test_verify_config_delta_outside_unit_interval_exits_1(tmp_path, capsys, delta):
    rpt = tmp_path / "r.json"
    assert run_cli(
        ["--mode", "decompose", "--gen", "er:n=64,p=0.3", "--seed", "2", "--out", str(rpt)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(rpt.read_text())
    doc["config"]["delta"] = delta
    doc["runs"][0]["decomposition"]["delta"] = delta
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["--mode", "verify", "--mode-args", str(bad)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: report config delta")


@pytest.mark.parametrize(
    "field",
    ["owner", "vertex", "edge", "delta", "clusters", "es", "er", "decomposition"],
)
def test_verify_malformed_report_exits_1(tmp_path, capsys, field):
    rpt = tmp_path / "r.json"
    assert run_cli(
        ["--mode", "decompose", "--gen", "path:n=60", "--seed", "1", "--out", str(rpt)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(rpt.read_text())
    dec = doc["runs"][0]["decomposition"]
    es = dec["es"]
    first = next(iter(es))
    if field == "delta":
        dec["delta"] = "half"
    elif field == "clusters":
        dec["clusters"] = [5]
    elif field == "es":
        dec["es"] = [1]
    elif field == "er":
        dec["er"] = 5
    elif field == "decomposition":
        doc["runs"][0]["decomposition"] = 5
    elif field == "owner":
        es["x"] = es.pop(first)
    elif field == "vertex":
        es[first][0] = [0, "y"]
    else:
        es[first][0] = [0, 1, 2]
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["--mode", "verify", "--mode-args", str(bad)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "case, spec, seed, err",
    [
        ("edge", "barbell:k=12,bridges=1", 1, "error: edge (0, 1) is listed twice"),
        ("cluster", "barbell:k=12,bridges=1", 1, "error: cluster id 1 is listed twice"),
        ("owner", "er:n=50,p=0.3", 0, "error: owner 44 is listed twice"),
    ],
)
def test_verify_label_listed_twice_exits_1(tmp_path, capsys, case, spec, seed, err):
    rpt = tmp_path / "r.json"
    assert run_cli(
        ["--mode", "decompose", "--gen", spec, "--seed", str(seed), "--out", str(rpt)]
    ) == 0
    capsys.readouterr()
    code, out, _ = _run(capsys, ["--mode", "verify", "--mode-args", str(rpt)])
    assert code == 0 and out == "verified=true"
    doc = json.loads(rpt.read_text())
    dec = doc["runs"][0]["decomposition"]
    cluster = next(c for c in dec["clusters"] if c["id"] == 1)
    if case == "edge":
        # the repeat would overwrite the first listing with the same label
        cluster["edges"].append(cluster["edges"][0])
    elif case == "cluster":
        dec["clusters"].append(cluster)
    else:
        # "044" is owner 44 again, and its list would replace the first one
        dec["es"]["044"] = list(dec["es"]["44"])
    bad = tmp_path / "twice.json"
    bad.write_text(json.dumps(doc))
    code, out, msg = _run(capsys, ["--mode", "verify", "--mode-args", str(bad)])
    assert (code, out, msg) == (1, "", err)


@pytest.mark.parametrize("case", ["list", "config", "runs", "run", "seed"])
def test_verify_report_container_types_exit_1(tmp_path, capsys, case):
    rpt = tmp_path / "r.json"
    assert run_cli(
        ["--mode", "decompose", "--gen", "path:n=60", "--seed", "1", "--out", str(rpt)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(rpt.read_text())
    if case == "list":
        doc = [doc]
    elif case == "config":
        doc["config"] = None
    elif case == "runs":
        doc["runs"] = 5
    elif case == "run":
        doc["runs"] = [5]
    else:
        doc["runs"][0]["seed"] = [1]
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["--mode", "verify", "--mode-args", str(bad)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: report ")


def test_nibble_summary(capsys):
    code, out, _ = _run(
        capsys,
        [
            "--mode", "nibble", "--gen", "planted_cut:n=64,p=0.3,cross=4",
            "--phi", "0.02", "--seed", "3",
        ],
    )
    assert code == 0
    assert out.startswith("cut_size=") or out.startswith("cut=none")


def test_probe_summary(capsys):
    code, out, _ = _run(
        capsys,
        [
            "--mode", "probe", "--gen", "er:n=128,p=0.5", "--seed", "0",
            "--mode-args", "q=4,trials=5",
        ],
    )
    assert code == 0
    assert "ok_trials=5/5" in out


def test_usage_errors_exit_1(capsys):
    assert run_cli(["--mode", "count", "--gen", "clique:n=4"]) == 1  # no seed
    assert run_cli(["--mode", "count", "--seed", "1"]) == 1  # no graph
    assert run_cli(["--mode", "subgraphs", "--gen", "clique:n=5", "--seed", "1"]) == 1
    assert run_cli(["--mode", "probe", "--gen", "clique:n=5", "--seed", "1"]) == 1
    assert run_cli(["--mode", "verify"]) == 1
    assert run_cli(["--mode", "count", "--gen", "nosuch:n=4", "--seed", "1"]) == 1
    assert run_cli(["--mode", "count", "--gen", "er:n=5,p=x", "--seed", "1"]) == 1
    assert run_cli(["--mode", "bogus"]) == 1
    assert run_cli(["--mode", "count", "--gen", "clique:n=4", "--seed", "1", "--seeds", "0"]) == 1
    capsys.readouterr()


def test_fractional_count_exits_1(capsys):
    code, out, err = _run(capsys, ["--mode", "count", "--gen", "clique:n=4.5", "--seed", "1"])
    assert code == 1
    assert out == ""
    assert "'n'" in err


def test_unknown_generator_parameter_exits_1(capsys):
    code, out, err = _run(
        capsys, ["--mode", "count", "--gen", "barbell:k=10,bridge=3", "--seed", "1"]
    )
    assert code == 1
    assert out == ""
    assert "'bridge'" in err


def test_bad_thread_cap_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("CONGEST_LAB_THREADS", "two")
    argv = ["--mode", "count", "--gen", "clique:n=4", "--seed", "1", "--seeds", "2"]
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert "'two'" in err


@pytest.mark.parametrize("mode_args", [[], ["--mode-args", "s=4"]])
@pytest.mark.parametrize("kappa", ["0", "-2"])
def test_kappa_below_one_exits_1(capsys, mode_args, kappa):
    mode = "subgraphs" if mode_args else "triangles"
    argv = ["--mode", mode, "--gen", "barbell:k=16", "--seed", "1", "--kappa", kappa]
    code, out, err = _run(capsys, argv + mode_args)
    assert code == 1
    assert out == ""
    assert err == "error: kappa must be at least 1"


def test_edge_list_vertex_count_limit_exits_1(tmp_path, capsys):
    from congestlab.graphcore import MAX_VERTICES

    gf = tmp_path / "g.txt"
    gf.write_text(f"0 1\n0 {MAX_VERTICES}\n")
    code, out, err = _run(capsys, ["--mode", "count", "--graph", str(gf), "--seed", "1"])
    assert code == 1
    assert out == ""
    limit = f"vertex count {MAX_VERTICES + 1} exceeds the limit of {MAX_VERTICES}"
    assert err == f"error: {limit}"


def test_generator_vertex_count_limit_exits_1(capsys):
    from congestlab.graphcore import MAX_VERTICES

    argv = ["--mode", "count", "--gen", "er:n=2000000,p=0", "--seed", "1"]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: generator 'er' would build more than {MAX_VERTICES} vertices"


def test_graph_file_input(tmp_path, capsys):
    gf = tmp_path / "g.txt"
    gf.write_text("0 1\n1 2\n0 2\n2 3\n")
    code, out, _ = _run(capsys, ["--mode", "count", "--graph", str(gf), "--seed", "5"])
    assert code == 0 and out == "triangles=1"


def test_nibble_on_graph_file_without_vertices(tmp_path, capsys):
    gf = tmp_path / "g.txt"
    gf.write_text("# no edges\n# at all\n")
    rpt = tmp_path / "r.json"
    argv = ["--mode", "nibble", "--graph", str(gf), "--seed", "1", "--phi", "0.02"]
    code, out, _ = _run(capsys, argv + ["--out", str(rpt)])
    assert code == 0 and out == "cut=none status=failed"
    (run,) = json.loads(rpt.read_text())["runs"]
    assert run["n"] == 0 and run["component_size"] == 0
    assert run["status"] == "failed" and run["ok"]


def test_batch_csv_and_determinism(tmp_path, capsys):
    csv_path = tmp_path / "scale.csv"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = [
        "--mode", "count", "--gen", "er:n=128,p=0.0625",
        "--seed", "0", "--seeds", "3",
    ]
    assert run_cli(argv + ["--csv", str(csv_path), "--out", str(a)]) == 0
    capsys.readouterr()
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "seed,n,m,count,rounds,messages"
    assert len(rows) == 4
    assert run_cli(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_round_cap_failure(capsys):
    code, out, _ = _run(
        capsys,
        ["--mode", "triangles", "--gen", "clique:n=4", "--seed", "1", "--round-cap", "1"],
    )
    assert code == 2


def test_console_entry_point():
    # `python -m congestlab` must run without the runpy warning that
    # `-m congestlab.cli` prints, so warnings are errors here.
    cmds = [[sys.executable, "-W", "error", "-m", "congestlab"]]
    exe = shutil.which("congestlab")
    if exe:
        cmds.append([exe])
    for cmd in cmds:
        proc = subprocess.run(
            cmd + ["--mode", "count", "--gen", "clique:n=4", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "triangles=4"


def test_package_exports_resolve():
    missing = [name for name in congestlab.__all__ if not hasattr(congestlab, name)]
    assert missing == []
    assert len(set(congestlab.__all__)) == len(congestlab.__all__)


def test_missing_generator_parameter_exits_1(capsys):
    code, out, err = _run(capsys, ["--mode", "count", "--gen", "er:n=10", "--seed", "1"])
    assert code == 1
    assert out == ""
    assert err == "error: generator 'er' needs parameter 'p'"


# ---------------------------------------------------------------------------
# the report writer
# ---------------------------------------------------------------------------


def _written(doc) -> str:
    fh = io.StringIO()
    cli._write_json(doc, fh)
    return fh.getvalue()


ODD_DOCUMENTS = {
    "empty-dict": {},
    "empty-list": [],
    "nested-empty": {"a": [], "b": {}, "c": [[], {}, [[]]], "d": [{}]},
    "nested": {"x": [{"y": [1, [2, [3]]]}, ("t", 1)], "z": {"w": {"v": None}}},
    "floats": [0.1, 1e-7, 1e16, -0.0, 2.5e-300, float("nan"), float("inf"), -float("inf")],
    "float-rows": [[0.5, 1.0], [2.0, 3.5]],
    "non-ascii": {"é": "naïve ☃ \u2028 \U0001f600", "tab\tquote\"": "back\\slash\n"},
    "bool-keys": {True: 1, False: 2},
    "none-key": {None: 3},
    "int-keys": {10: "a", 2: "b", -1: "c"},
    "float-keys": {1.5: 0, float("inf"): 1, -2.0: 2},
    "bool-in-ints": [1, True],
    "bool-in-rows": [[1, 2], [3, False]],
    "mixed-widths": [[1, 2, 3], [4, 5]],
    "empty-rows": [[], []],
    "rows-and-ints": [[1, 2], 3],
    "int-and-float": [1, 2.0],
    "big-ints": [2**70, -(2**63), 0],
    "tuple-rows": [(1, 2, 3), [4, 5, 6]],
    "scalar": 7,
    "string": "s",
    "deep": {"runs": [{"triangles": [(0, 1, 2), (0, 1, 3)], "ok": True, "count": 2}]},
    "long-rows": [(i, i + 1, i + 2) for i in range(3 * cli._CHUNK + 5)],
    "long-ints": list(range(cli._CHUNK + 1)),
    "exactly-one-chunk": [[i, -i] for i in range(cli._CHUNK)],
}


@pytest.mark.parametrize("name", sorted(ODD_DOCUMENTS))
def test_writer_matches_json_dumps(name):
    doc = ODD_DOCUMENTS[name]
    assert _written(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_writer_fast_path_takes_only_exact_int_rows():
    assert cli._int_formatter([[1, 2], [3, 4]], 1) is not None
    assert cli._int_formatter([(1, 2, 3)], 1) is not None
    assert cli._int_formatter([1, 2], 1) is not None
    for items in ([1, True], [[1, True]], [[1, 2], [3]], [[], []], [1.0], [[1], 2]):
        assert cli._int_formatter(items, 1) is None


def test_writer_streams_in_chunks():
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)

    rows = [(i, i, i) for i in range(4 * cli._CHUNK)]
    cli._write_json({"triangles": rows}, Sink())
    assert "".join(writes) == json.dumps({"triangles": rows}, indent=2, sort_keys=True)
    assert max(map(len, writes)) < len("".join(writes)) / 3


def test_writer_rejects_what_json_rejects():
    for doc in ({(1, 2): 0}, {"a": object()}, [{1: 0, "b": 1}]):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _written(doc)


ARRAYS = {
    "empty-rows": np.zeros((0, 3), dtype=np.int64),
    "one-row": np.array([[0, 1, 2]], dtype=np.int64),
    "one-chunk": np.arange(3 * cli._CHUNK, dtype=np.int64).reshape(-1, 3),
    "one-chunk-and-a-row": np.arange(-7, 3 * cli._CHUNK - 4, dtype=np.int64).reshape(-1, 3),
    "int32": np.arange(-6, 6, dtype=np.int32).reshape(4, 3),
    "int64-extremes": np.array([[-(2**63), 2**63 - 1]], dtype=np.int64),
    "uint64-large": np.array([[2**64 - 1, 0]], dtype=np.uint64),
    "zero-width": np.zeros((2, 0), dtype=np.int64),
    "flat": np.arange(5),
    "cube": np.arange(8).reshape(2, 2, 2),
    "bool-rows": np.array([[True, False], [False, True]]),
    "float-rows": np.array([[1.0, 2.0], [0.5, -0.0]]),
    "whole-float-row": np.array([[1.0, 2.0, 3.0]]),
}


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_writer_arrays_match_json_dumps_of_tolist(name):
    arr = ARRAYS[name]
    assert _written(arr) == json.dumps(arr.tolist(), indent=2, sort_keys=True)
    doc = {"runs": [{"triangles": arr, "count": len(arr)}], "ok": True}
    plain = {"runs": [{"triangles": arr.tolist(), "count": len(arr)}], "ok": True}
    assert _written(doc) == json.dumps(plain, indent=2, sort_keys=True)


def test_writer_streams_array_rows_in_chunks():
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)

    rows = np.arange(12 * cli._CHUNK).reshape(-1, 3)
    cli._write_json({"triangles": rows}, Sink())
    want = json.dumps({"triangles": rows.tolist()}, indent=2, sort_keys=True)
    assert "".join(writes) == want
    assert max(map(len, writes)) < len(want) / 3


@given(
    st.integers(min_value=0, max_value=4).flatmap(
        lambda w: st.lists(
            st.lists(st.integers(-(2**63), 2**63 - 1), min_size=w, max_size=w),
            max_size=9,
        )
    ),
    st.sampled_from([np.int64, np.int32]),
)
@settings(max_examples=100, deadline=None)
def test_writer_int_array_property(rows, dtype):
    if dtype is np.int32:
        rows = [[x % 2**31 for x in row] for row in rows]
    arr = np.array(rows, dtype=dtype).reshape(len(rows), -1 if rows else 0)
    assert _written(arr) == json.dumps(arr.tolist(), indent=2, sort_keys=True)


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
_json_keys = st.text(max_size=6) | st.integers() | st.booleans() | st.none() | st.floats()
_json_docs = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=6)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.tuples(st.integers(), st.integers()), max_size=6)
    | st.lists(st.lists(st.integers(), min_size=3, max_size=3), max_size=6)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5)
    | st.dictionaries(_json_keys, inner, max_size=1),
    max_leaves=30,
)


@given(_json_docs)
@settings(max_examples=300, deadline=None)
def test_writer_property(doc):
    assert _written(doc) == json.dumps(doc, indent=2, sort_keys=True)


MODE_ARGV = {
    "decompose": ["--gen", "er:n=64,p=0.25", "--seed", "3"],
    "nibble": ["--gen", "planted_cut:n=40,p=0.4,cross=2", "--seed", "1", "--phi", "0.02"],
    "triangles": ["--gen", "barbell:k=12,bridges=1", "--seed", "1"],
    "count": ["--gen", "er:n=60,p=0.2", "--seed", "1", "--seeds", "2"],
    "detect": ["--gen", "path:n=10", "--seed", "0"],
    "subgraphs": ["--gen", "clique:n=6", "--seed", "1", "--mode-args", "s=4"],
    "probe": ["--gen", "er:n=40,p=0.3", "--seed", "2", "--mode-args", "q=4,trials=3"],
}


@pytest.mark.parametrize("mode", sorted(MODE_ARGV) + ["verify"])
def test_every_mode_report_matches_json_dumps(tmp_path, capsys, mode):
    rpt = tmp_path / "r.json"
    if mode == "verify":
        src = tmp_path / "src.json"
        run_cli(["--mode", "decompose", "--out", str(src)] + MODE_ARGV["decompose"])
        argv = ["--mode", "verify", "--mode-args", str(src)]
    else:
        argv = ["--mode", mode] + MODE_ARGV[mode]
    assert run_cli(argv + ["--out", str(rpt)]) == 0
    capsys.readouterr()
    text = rpt.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
