"""Exit codes, summaries, reports, and determinism of the command line."""

import io
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congestlab
from congestlab import cli
from congestlab.cli import run_cli
from congestlab.decomposition import decompose, decomposition_from_json


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


def test_decompose_solves_lambda2_once_per_run(tmp_path, capsys, monkeypatch):
    # Above LAMBDA2_DENSE_LIMIT vertices lambda2 is a Lanczos solve. The
    # nibble screen, decompose's verify and the CLI's verify ask for it on
    # one graph content; each run solves it once, and no run reuses
    # another's value.
    import scipy.sparse.linalg as spla

    from congestlab.graphcore import generate, save_edge_list

    path = tmp_path / "g.edges"
    save_edge_list(generate("er:n=1600,p=0.1", seed=1), path)
    solves = []
    eigsh = spla.eigsh
    monkeypatch.setattr(spla, "eigsh", lambda *a, **k: solves.append(1) or eigsh(*a, **k))
    reports = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        argv = ["--mode", "decompose", "--graph", str(path), "--seed", "1", "--out", str(out)]
        assert _run(capsys, argv) == (0, "clusters=1 er_edges=0 verified=true", "")
        assert len(solves) == i + 1
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


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



@pytest.mark.parametrize(
    "owner, edge", [(61, [61, 62]), (10 ** 30, [10 ** 30, 10 ** 30 + 1])]
)
def test_verify_names_sparse_edge_outside_the_graph(tmp_path, capsys, owner, edge):
    # ends past the 60 vertices: the graph lookup must report, not crash
    rpt = tmp_path / "r.json"
    assert run_cli(
        ["--mode", "decompose", "--gen", "path:n=60", "--seed", "1", "--out", str(rpt)]
    ) == 0
    capsys.readouterr()
    doc = json.loads(rpt.read_text())
    doc["runs"][0]["decomposition"]["es"].setdefault(str(owner), []).append(edge)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "verify.json"
    code, line, _ = _run(
        capsys, ["--mode", "verify", "--mode-args", str(bad), "--out", str(out)]
    )
    assert code == 2
    assert line == "verified=false"
    result = json.loads(out.read_text())["runs"][0]["results"][0]
    assert result["checks"]["partition"] is False
    assert f"edge {tuple(edge)} not in graph" in "; ".join(result["failures"])


def test_graph_file_gives_the_runs_of_its_generator(tmp_path, capsys):
    # The file's "# n vertices" header keeps an isolated top vertex, as in
    # er:n=60,p=0.03 seed 1, so every spec comes back as the same graph.
    from test_golden import DECOMPOSE_GOLDEN

    from congestlab.graphcore import generate, load_edge_list, save_edge_list

    assert generate("er:n=60,p=0.03", seed=1).deg[59] == 0
    compared, kinds = 0, set()
    for spec, seed in sorted(DECOMPOSE_GOLDEN) + [("er:n=60,p=0.03", 1)]:
        g = generate(spec, seed=seed)
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        assert load_edge_list(path).n == g.n
        runs, reports = [], []
        for source in (["--gen", spec], ["--graph", str(path)]):
            rpt = tmp_path / "r.json"
            argv = ["--mode", "decompose", *source, "--seed", str(seed), "--out", str(rpt)]
            assert run_cli(argv) == 0
            runs.append(json.loads(rpt.read_text())["runs"])
            data = rpt.read_bytes()
            reports.append(data[data.index(b'\n  "runs": '):])  # all past the config
        assert runs[0] == runs[1]
        assert reports[0] == reports[1]
        kinds.add(spec.partition(":")[0])
        compared += 1
    assert {"er", "planted_cut"} <= kinds
    capsys.readouterr()
    assert compared == len(DECOMPOSE_GOLDEN) + 1


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


@pytest.mark.parametrize("case", ["list", "config", "runs", "no-runs", "run", "seed"])
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
    elif case == "no-runs":
        doc["runs"] = []
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


@pytest.mark.parametrize(
    "env,jobs,workers",
    [(None, 9, 4), ("64", 9, 4), ("2", 9, 2), ("0", 9, 1), ("64", 3, 3), (None, 1, 1)],
)
def test_worker_cap_never_exceeds_the_cpu_count(monkeypatch, env, jobs, workers):
    # the variable lowers the pool below the CPU count but never raises it
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    if env is None:
        monkeypatch.delenv("CONGEST_LAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("CONGEST_LAB_THREADS", env)
    assert cli._worker_cap(jobs) == workers


@pytest.mark.parametrize("mode_args", [[], ["--mode-args", "s=4"]])
@pytest.mark.parametrize("kappa", ["0", "-2"])
def test_kappa_below_one_exits_1(capsys, mode_args, kappa):
    mode = "subgraphs" if mode_args else "triangles"
    argv = ["--mode", mode, "--gen", "barbell:k=16", "--seed", "1", "--kappa", kappa]
    code, out, err = _run(capsys, argv + mode_args)
    assert code == 1
    assert out == ""
    assert err == "error: kappa must be at least 1"


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "count", "--gen", "path:n=10", "--kappa", "0"],
        ["--mode", "decompose", "--gen", "er:n=30,p=0.3", "--kappa", "-3"],
    ],
)
def test_kappa_below_one_exits_1_without_routing(capsys, argv):
    code, out, err = _run(capsys, argv + ["--seed", "1"])
    assert code == 1
    assert out == ""
    assert err == "error: kappa must be at least 1"


@pytest.mark.parametrize("cap", ["-1", "-5"])
def test_negative_round_cap_exits_1(capsys, cap):
    argv = ["--mode", "triangles", "--gen", "clique:n=4", "--seed", "1", "--round-cap", cap]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == "error: --round-cap must be nonnegative"


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


def test_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"0 1\n\xff 2\n")
    for argv in (
        ["--mode", "count", "--graph", str(bad), "--seed", "1"],
        ["--mode", "verify", "--mode-args", str(bad)],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {bad} is not UTF-8 text")


def test_repeated_generator_parameter_exits_1(capsys):
    argv = ["--mode", "count", "--gen", "er:n=10,n=20,p=0.5", "--seed", "1"]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == "error: generator parameter 'n' is given twice"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--mode", "subgraphs", "--mode-args", "s=3,s=5"], "--mode-args key 's' is given twice"),
        (["--mode", "probe", "--mode-args", "q=4,q=8"], "--mode-args key 'q' is given twice"),
        (
            ["--mode", "subgraphs", "--mode-args", "s=4,size=5"],
            "subgraphs takes no --mode-args key 'size'",
        ),
        (
            ["--mode", "probe", "--mode-args", "q=4,trails=3"],
            "probe takes no --mode-args key 'trails'",
        ),
        (["--mode", "count", "--mode-args", "s=4"], "count takes no --mode-args"),
        (["--mode", "triangles", "--mode-args", "s=4"], "triangles takes no --mode-args"),
        (["--mode", "detect", "--mode-args", "s=4"], "detect takes no --mode-args"),
        (["--mode", "decompose", "--mode-args", "s=4"], "decompose takes no --mode-args"),
        (
            ["--mode", "nibble", "--phi", "0.02", "--mode-args", "s=4"],
            "nibble takes no --mode-args",
        ),
    ],
    ids=[
        "s-twice", "q-twice", "subgraphs-size", "probe-trails",
        "count", "triangles", "detect", "decompose", "nibble",
    ],
)
def test_mode_args_refuses_repeated_and_unknown_keys(capsys, argv, message):
    code, out, err = _run(capsys, argv + ["--gen", "clique:n=5", "--seed", "1"])
    assert code == 1
    assert out == ""
    assert err == f"error: {message}"


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_output_exits_1(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "r.out"
    argv = ["--mode", "count", "--gen", "clique:n=4", "--seed", "1", flag, str(target)]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err


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


def test_round_cap_zero_fails_a_run_that_charges_rounds(tmp_path, capsys):
    rpt = tmp_path / "r.json"
    argv = ["--mode", "triangles", "--gen", "clique:n=4", "--seed", "1", "--round-cap", "0"]
    code, out, _ = _run(capsys, argv + ["--out", str(rpt)])
    assert code == 2 and out == "triangles=4"
    (run,) = json.loads(rpt.read_text())["runs"]
    assert run["transcript"]["rounds"] > 0
    assert run["round_cap_exceeded"] and not run["ok"]


def test_console_entry_point():
    # `python -m congestlab` must run without the runpy warning that
    # `-m congestlab.cli` prints, so warnings are errors here.
    # The child imports the package under test, as pytest's `pythonpath`
    # reaches only this process.
    src = os.path.dirname(os.path.dirname(congestlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    cmds = [[sys.executable, "-W", "error", "-m", "congestlab"]]
    exe = shutil.which("congestlab")
    if exe:
        cmds.append([exe])
    for cmd in cmds:
        proc = subprocess.run(
            cmd + ["--mode", "count", "--gen", "clique:n=4", "--seed", "1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "triangles=4"


def test_package_exports_resolve():
    missing = [name for name in congestlab.__all__ if not hasattr(congestlab, name)]
    assert missing == []
    assert len(set(congestlab.__all__)) == len(congestlab.__all__)
    namespace = {}
    exec("from congestlab import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(congestlab.__all__)
    # every public name the package imports is exported, and none besides
    public = {
        name
        for name, value in vars(congestlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(congestlab.__all__)


@pytest.mark.parametrize("p", ["2", "-1"])
def test_planted_cut_p_outside_unit_interval_exits_1(capsys, p):
    argv = ["--mode", "count", "--gen", f"planted_cut:n=10,p={p},cross=1", "--seed", "1"]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == "error: planted_cut needs n >= 1, p in [0, 1] and 0 <= cross <= n^2"


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_decompose_bad_threshold_scale_exits_1(capsys, scale):
    argv = ["--mode", "decompose", "--gen", "er:n=30,p=0.3", "--seed", "1"]
    code, out, err = _run(capsys, argv + ["--case1-threshold-scale", scale])
    assert code == 1
    assert out == ""
    assert err == "error: threshold_scale must be a positive finite number"


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


@pytest.mark.parametrize("past_int64", [False, True], ids=["int64", "past-int64"])
def test_writer_decomposition_entry_matches_json_dumps(monkeypatch, case2a_graph, past_int64):
    d, t = decompose(case2a_graph, 0.3, seed=1)
    assert d.em and d.es and len(d.er)
    if past_int64:
        # rows naming an id past int64 are object arrays: the tolist path
        doc = d.as_json()
        doc["clusters"][0]["edges"].append([2 ** 63, 2 ** 63 + 1])
        doc["er"].append([2 ** 64, 2 ** 64 + 1])
        d = decomposition_from_json(doc)
        assert d.em[doc["clusters"][0]["id"]].dtype == d.er.dtype == object
    monkeypatch.setattr(cli, "decompose", lambda *args, **kwargs: (d, t))
    cfg = {"delta": 0.3, "case1_threshold_scale": 1.0}
    entry = cli._run_decompose(cfg, 1, case2a_graph)["decomposition"]
    assert isinstance(entry["er"], np.ndarray)
    assert _written(entry) == json.dumps(d.as_json(), indent=2, sort_keys=True)


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


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_writer_int_array_window_property(data):
    # Values in a narrow window [lo, lo + span] take the offset table when
    # the window is narrower than the array and np.unique otherwise; a
    # small _CHUNK puts rows on both sides of chunk seams.
    dtype = data.draw(st.sampled_from([np.int64, np.int32, np.int8, np.uint64]))
    rows, width = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 4))
    span = data.draw(st.integers(0, 2 * rows * width))
    info = np.iinfo(dtype)
    lo = data.draw(st.integers(int(info.min), int(info.max) - span))
    values = st.integers(lo, lo + span)
    flat = data.draw(st.lists(values, min_size=rows * width, max_size=rows * width))
    arr = np.array(flat, dtype=dtype).reshape(rows, width)
    doc = {"runs": [{"triangles": arr}]}
    plain = {"runs": [{"triangles": arr.tolist()}]}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_CHUNK", data.draw(st.integers(1, 5)))
        assert _written(arr) == json.dumps(arr.tolist(), indent=2, sort_keys=True)
        assert _written(doc) == json.dumps(plain, indent=2, sort_keys=True)


@pytest.mark.parametrize("lo", [-(2**63), -7, 2**63 - 13])
@pytest.mark.parametrize("extra, unique_calls", [(0, 0), (1, 1)])
def test_writer_offset_table_never_outgrows_the_array(monkeypatch, lo, extra, unique_calls):
    # 12 values spanning 11 + extra: the offset table has at most one slot
    # per value, so a window as wide as the array goes to np.unique.
    arr = np.array([lo, lo + 11 + extra] * 6, dtype=np.int64).reshape(4, 3)
    calls = []
    unique = np.unique

    def counted_unique(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted_unique)
    assert _written(arr) == json.dumps(arr.tolist(), indent=2, sort_keys=True)
    assert len(calls) == unique_calls


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


def _mode_argv(tmp_path, mode):
    """MODE_ARGV[mode]; for verify, --mode-args naming a report of
    MODE_ARGV["decompose"] written into tmp_path, whose summary the caller
    still has to read off."""
    if mode != "verify":
        return MODE_ARGV[mode]
    src = tmp_path / "src.json"
    assert run_cli(["--mode", "decompose", "--out", str(src)] + MODE_ARGV["decompose"]) == 0
    return ["--mode-args", str(src)]


@pytest.mark.parametrize("mode", sorted(MODE_ARGV) + ["verify"])
def test_every_mode_report_matches_json_dumps(tmp_path, capsys, mode):
    rpt = tmp_path / "r.json"
    argv = ["--mode", mode] + _mode_argv(tmp_path, mode)
    assert run_cli(argv + ["--out", str(rpt)]) == 0
    capsys.readouterr()
    text = rpt.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


# The CSV header and the summary line of each mode on its MODE_ARGV; count
# runs two seeds.
MODE_OUTPUT = {
    "decompose": ("seed,n,m,clusters,er_edges,rounds,ok", "clusters=1 er_edges=0 verified=true"),
    "nibble": ("seed,n,m,status,cut_size,phi,rounds", "cut_size=28 phi=0.238095"),
    "triangles": ("seed,n,m,count,rounds,messages", "triangles=440"),
    "count": ("seed,n,m,count,rounds,messages", "triangles=255 seeds=2"),
    "detect": ("seed,n,m,detected,rounds,messages", "detected=false"),
    "subgraphs": ("seed,n,m,size,count,rounds", "subgraphs=15"),
    "probe": (
        "seed,n,m,q,trials,max_pair_edges,bound,ok_trials",
        "max_pair=49 bound=339 ok_trials=3/3",
    ),
    "verify": ("seed,ok", "verified=true"),
}


@pytest.mark.parametrize("mode", sorted(MODE_OUTPUT))
def test_every_mode_csv_header_summary_and_exit_code(tmp_path, capsys, mode):
    table = tmp_path / "r.csv"
    argv = ["--mode", mode] + _mode_argv(tmp_path, mode)
    capsys.readouterr()
    header, summary = MODE_OUTPUT[mode]
    assert _run(capsys, argv + ["--csv", str(table)]) == (0, summary, "")
    lines = table.read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    assert len(lines) == (3 if mode == "count" else 2)
    if mode == "nibble":
        # cut_size and phi are computed from the run's cut
        assert lines[1] == "1,80,666,cut,28,0.23809523809523808,912"


def _unread_option_cases():
    """(mode, option, value) for every mode that never reads the option."""
    values = {
        "phi": "0.05", "kappa": "7", "case1-threshold-scale": "0.01", "delta": "0.4",
        "round-cap": "100", "seeds": "2", "graph": "g.txt", "gen": "er:n=10,p=0.3",
    }
    not_verify = set(cli.MODES) - {"verify"}
    return [
        pytest.param(mode, option, values[option], id=f"{mode}-{option}")
        for option, readers in (
            ("phi", {"nibble"}),
            ("kappa", {"triangles", "count", "detect", "subgraphs"}),
            ("case1-threshold-scale", {"decompose"}),
            ("delta", {"decompose", "triangles", "count", "detect"}),
            ("round-cap", not_verify - {"probe"}),
            # verify reads the graph and its seeds from the report
            ("seeds", not_verify),
            ("graph", not_verify),
            ("gen", not_verify),
        )
        for mode in cli.MODES
        if mode not in readers
    ]


@pytest.mark.parametrize("mode,option,value", _unread_option_cases())
def test_option_a_mode_never_reads_exits_1(tmp_path, capsys, mode, option, value):
    rpt = tmp_path / "r.json"
    argv = _mode_argv(tmp_path, mode)
    capsys.readouterr()
    argv = ["--mode", mode, f"--{option}", value, "--out", str(rpt)] + argv
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {mode} takes no --{option}"
    assert not rpt.exists()


def test_triangles_report_across_chunks_and_digit_widths(tmp_path, capsys):
    # A 40-clique on ids of 1 to 4 digits: 9880 triangle rows, three chunks.
    ids = list(range(10)) + list(range(95, 105)) + list(range(995, 1015))
    gf = tmp_path / "g.txt"
    gf.write_text("".join(f"{u} {v}\n" for i, u in enumerate(ids) for v in ids[i + 1 :]))
    rpt = tmp_path / "r.json"
    argv = ["--mode", "triangles", "--graph", str(gf), "--seed", "1", "--out", str(rpt)]
    assert run_cli(argv) == 0
    capsys.readouterr()
    text = rpt.read_text(encoding="utf-8")
    report = json.loads(text)
    rows = report["runs"][0]["triangles"]
    assert len(rows) == 9880 > 2 * cli._CHUNK
    assert {len(str(v)) for row in rows for v in row} == {1, 2, 3, 4}
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
