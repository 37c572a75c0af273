"""Exit codes, summaries, reports, and determinism of the command line."""

import json
import shutil
import subprocess
import sys

import pytest

import congestlab
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


def test_graph_file_input(tmp_path, capsys):
    gf = tmp_path / "g.txt"
    gf.write_text("0 1\n1 2\n0 2\n2 3\n")
    code, out, _ = _run(capsys, ["--mode", "count", "--graph", str(gf), "--seed", "5"])
    assert code == 0 and out == "triangles=1"


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
