"""Tests of the benchmark itself, on small versions of its workloads.

Run with: python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

run.import_program()

from congestlab import graphcore, triangle  # noqa: E402

SMALL = {
    "tri-sparse": run.Workload("tri-sparse", "count", ("er:n=80,p=0.1",), 2, "er:n=30,p=0.2"),
    "tri-clustered": run.Workload(
        "tri-clustered",
        "triangles",
        ("planted_cut:n=40,p=0.3,cross=2", "caterpillar:blobs=3,blob_size=10"),
        1,
        "planted_cut:n=20,p=0.3,cross=2",
    ),
    "decomp-dense": run.Workload("decomp-dense", "decompose", ("er:n=150,p=0.2",), 1, "er:n=40,p=0.3"),
}


def _measured(workload, tmp_path, seed=3):
    instances = run.plan(workload, seed, str(tmp_path))
    run.setup(workload, instances, str(tmp_path))
    return instances, run.measure(workload, instances, 0, trace=False)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_is_correct(name, tmp_path):
    line, detail = run.run_workload(
        SMALL[name], 3, 0, False, str(tmp_path), setups=[{"cpu": 1.0, "ref": 1.0}]
    )
    assert line["correct"], detail["failures"]
    assert line["failed"] == 0
    passes = detail["passes"]
    assert len(passes) == run.MIN_PASSES
    assert line["attempted"] == sum(len(p["calls"]) for p in passes)
    metrics = line["metrics"]
    assert list(metrics) == [m for m, _ in run.END_TO_END]
    assert metrics["ok_ratio"]["value"] == 1.0
    assert metrics["sim_rounds"]["value"] > 0
    assert metrics["pass_ref_s"]["value"] > 0
    assert all(c["ref"] > 0 for p in passes for c in p["calls"])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_oracle_of_another_seeds_graph_fails(name, tmp_path):
    workload = SMALL[name]
    instances, passes = _measured(workload, tmp_path)
    wrong = []
    for inst in instances:
        path = str(tmp_path / f"other{inst.index}.txt")
        graphcore.save_edge_list(graphcore.generate(inst.spec, seed=inst.seed + 1), path)
        wrong.append(replace(inst, graph=path))
    failures, _ = run.check(workload, wrong, passes)
    attempted, failed = run.count_failed(passes, failures)
    assert failures
    assert failed > 0
    assert (attempted - failed) / attempted < 1.0


def test_report_drift_between_passes_fails(tmp_path):
    workload = SMALL["tri-sparse"]
    instances, passes = _measured(workload, tmp_path)
    assert run.check(workload, instances, passes)[0] == {}
    passes[-1].calls[0].sha = "0" * 64
    failures, _ = run.check(workload, instances, passes)
    assert "differ" in failures[instances[0].index]


def test_traced_run_accounts_for_wall_time(tmp_path):
    line, detail = run.run_workload(
        SMALL["decomp-dense"], 3, 0, True, str(tmp_path)
    )
    assert line["correct"], detail["failures"]
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    assert metrics["trace.accounting_error"] <= run.ACCOUNTING_TOLERANCE
    # the CLI verifies the decomposition that decompose already verified
    assert metrics["decomposition.verify_calls"] == 2 * metrics["decomposition.decompose_calls"]
    assert metrics["graphcore.graph_init_calls"] > 0
    assert metrics["cli.report_bytes"] > 0
    # spans are gone after the run
    assert not hasattr(graphcore.Graph.__init__, "__wrapped_by_perfbench__")


def test_accounting_identity_catches_time_outside_every_span():
    # The identity only confirms that the outermost call is wrapped: self
    # times of nested spans telescope to it. Missed inner bindings are
    # caught by install()'s binding scan instead.
    tracer = spans.Tracer()
    inner = tracer.wrap("graphcore", "inner", lambda: None)

    def outer():
        end = time.perf_counter() + 0.02
        while time.perf_counter() < end:
            pass
        inner()

    def miss(fn):
        before = tracer.layer_total()
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        return abs(wall - (tracer.layer_total() - before)) / wall

    assert miss(outer) > run.ACCOUNTING_TOLERANCE
    assert miss(tracer.wrap("cli", "outer", outer)) < run.ACCOUNTING_TOLERANCE


def _busy(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_probe_measures_cpu_time_without_its_own_probes():
    p = probe.SpeedProbe()
    t0 = time.thread_time()
    p.start()
    _busy(0.2)
    cpu, ref, probes = p.stop()
    total = time.thread_time() - t0
    assert probes > 10
    assert 0.15 < cpu <= total
    assert ref > 0
    import signal

    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL


def test_probe_scales_each_stretch_by_the_speed_its_probe_saw(monkeypatch):
    # A host twice as slow doubles both the work's CPU time and the probe's
    # duration, so the reference time stays the same.
    def measure(slowdown):
        durations = iter([probe.REFERENCE_S * slowdown] * 1000)
        monkeypatch.setattr(probe, "_snippet", lambda: next(durations))
        p = probe.SpeedProbe()
        p.start()
        _busy(0.05 * slowdown)
        return p.stop()

    cpu1, ref1, _ = measure(1)
    cpu2, ref2, _ = measure(2)
    assert cpu2 > 1.5 * cpu1
    assert abs(ref1 - cpu1) < 1e-9
    assert abs(ref2 - cpu2 / 2) < 1e-9
    assert abs(ref2 - ref1) / ref1 < 0.2


def test_install_wraps_every_binding_and_restores():
    original = graphcore.induced_subgraph
    inst = spans.install()
    try:
        from congestlab import nibble, routing

        wrapped = graphcore.induced_subgraph
        assert wrapped is not original
        assert nibble.induced_subgraph is wrapped
        assert routing.induced_subgraph is wrapped
        assert triangle.induced_subgraph is wrapped
        graphcore.Graph(3, [(0, 1), (1, 2)])
        assert inst.tracer.counts["graphcore.graph_init_calls"] == 1
    finally:
        inst.uninstall()
    assert graphcore.induced_subgraph is original
    assert triangle.induced_subgraph is original


def test_install_rejects_a_binding_it_cannot_reach(monkeypatch):
    original = graphcore.bfs_levels
    monkeypatch.setattr(triangle, "_HIDDEN", {"levels": original}, raising=False)
    with pytest.raises(spans.TraceError, match="_HIDDEN"):
        spans.install()
    assert graphcore.bfs_levels is original


def test_benchmark_json_matches_the_metrics_printed():
    root = os.path.dirname(run.HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_exits_2_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(run.HERE, bench, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "tri-sparse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
