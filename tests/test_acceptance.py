"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with -v for the per-criterion pass/fail lines. The heavy corpora are
module-scoped fixtures so later criteria (certificates, bandwidth,
determinism) inspect the same runs that earlier criteria scored.
"""

import json
import random
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from congestlab import (
    brute_force_triangles,
    conductance,
    decompose,
    distributed_nibble,
    enumerate_general,
    generate,
    mixing_time_exact,
    sparsest_cut_bruteforce,
    sweep_cut,
    verify_decomposition,
)
from congestlab import nibble as nb
from conftest import lazy_step
import engine
from congestlab.cli import run_cli
from congestlab.decomposition import balanced_index, phi_star
from congestlab.graphcore import (
    gen_er,
    gen_planted_cut,
    is_connected,
    lambda2_normalized,
    log2m,
    subgraph_from_edges,
)
from congestlab.triangle import edge_concentration_probe

TRIANGLE_SPECS = (
    "clique:n=4",
    "cycle:n=5",
    "er:n=50,p=0.3",
    "er:n=200,p=0.2",
    "er:n=500,p=0.05",
    "barbell:k=16,bridges=1",
)
DECOMP_SPECS = (
    "er:n=512,p=0.25",
    "er:n=1024,p=0.02",
    "hypercube:d=9",
    "path:n=1000",
    "clique:n=64",
)


@pytest.fixture(scope="module")
def triangle_runs():
    start = time.time()
    runs = []
    for seed in range(20):
        for spec in TRIANGLE_SPECS:
            g = generate(spec, seed=seed)
            oracle = brute_force_triangles(g)
            res, transcript = enumerate_general(g, 0.5, seed=seed)
            runs.append((spec, seed, g, oracle, res, transcript))
    return runs, time.time() - start


@pytest.fixture(scope="module")
def decomposition_runs():
    start = time.time()
    runs = []
    for seed in range(10):
        for spec in DECOMP_SPECS:
            g = generate(spec, seed=seed)
            d, transcript = decompose(g, 0.5, seed=seed)
            report = verify_decomposition(g, 0.5, d)
            runs.append((spec, seed, g, d, report, transcript))
    return runs, time.time() - start


@pytest.fixture(scope="module")
def nibble_runs():
    start = time.time()
    phi = 1.0 / 50.0
    runs = []
    for seed in range(50):
        g = gen_planted_cut(64, 0.3, 4, seed=seed)
        res = distributed_nibble(g, range(g.n), phi, seed=seed)
        runs.append((seed, g, res))
    return runs, phi, time.time() - start


def test_criterion_01_triangle_exactness(triangle_runs):
    runs, elapsed = triangle_runs
    for spec, seed, g, oracle, res, _ in runs:
        assert res.triangles == oracle.triangles, f"{spec} seed {seed}"
        assert set(res.attribution) == oracle.triangles, f"{spec} seed {seed}"
        assert sum(res.reporter_counts().values()) == oracle.count
        assert all(0 <= v < g.n for v in res.attribution.values())
    assert elapsed <= 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"criterion 1: PASS ({len(runs)} runs exact, {elapsed:.1f}s)")


def test_criterion_02_decomposition_structure(decomposition_runs):
    runs, elapsed = decomposition_runs
    for spec, seed, g, d, report, _ in runs:
        assert report.ok, f"{spec} seed {seed}: {report.failures}"
        assert report.checks["partition"]
        assert report.checks["min-degree"]
        assert report.checks["orientation"]
        assert 6 * len(d.er) <= g.m, f"{spec} seed {seed}: removed too much"
        bar = g.n ** 0.5
        assert all(len(part) <= bar for part in d.es.values())
    assert elapsed <= 120.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"criterion 2: PASS ({len(runs)} runs verified, {elapsed:.1f}s)")


def test_criterion_03_cluster_certificates(decomposition_runs):
    runs, _ = decomposition_runs
    failures = []
    checked = 0
    for spec, seed, g, d, _, _ in runs:
        cap = max(log2m(g.n), 1.0) ** 4
        for cid in sorted(d.clusters):
            sub, _ = subgraph_from_edges(d.em[cid])
            floor = phi_star(g.m, sub.m)
            checked += 1
            if sub.n <= 24:
                if float(sparsest_cut_bruteforce(sub).phi) < floor:
                    failures.append(f"{spec}/{seed}/{cid}: brute conductance")
                continue
            if lambda2_normalized(sub) / 2.0 >= floor:
                continue
            if sub.n <= 2000 and is_connected(sub):
                if mixing_time_exact(sub) <= cap:
                    continue
            failures.append(f"{spec}/{seed}/{cid}: no expansion certificate")
    assert not failures, failures
    print(f"criterion 3: PASS ({checked} clusters certified)")


def test_criterion_04_nibble_soundness_and_recall(nibble_runs):
    runs, phi, elapsed = nibble_runs
    violations = 0
    qualifying = 0
    for seed, g, res in runs:
        if not res.found:
            continue
        got = conductance(g, res.cut.side)
        assert got.phi == res.cut.phi, f"seed {seed}: stored phi differs"
        if got.phi <= 12 * Fraction(phi):
            qualifying += 1
        else:
            violations += 1
    assert violations == 0
    assert qualifying >= 45, f"only {qualifying}/50 qualifying cuts"
    assert elapsed <= 90.0, f"criterion 4 took {elapsed:.1f}s"
    print(f"criterion 4: PASS ({qualifying}/50 cuts, 0 violations, {elapsed:.1f}s)")


def test_criterion_05_walk_symmetry():
    rng = random.Random(0)
    violations = 0
    for k in range(20):
        n = rng.randint(16, 64)
        g = gen_er(n, rng.uniform(0.1, 0.5), seed=100 + k)
        dists = {v: {v: 1.0} for v in range(g.n)}
        for _ in range(20):
            for v in range(g.n):
                dists[v] = lazy_step(g, dists[v])
            for u in range(g.n):
                if g.deg[u] == 0:
                    continue
                for v in range(u + 1, g.n):
                    if g.deg[v] == 0:
                        continue
                    a = dists[v].get(u, 0.0) / g.deg[u]
                    b = dists[u].get(v, 0.0) / g.deg[v]
                    if abs(a - b) > 1e-12:
                        violations += 1
    assert violations == 0
    print("criterion 5: PASS (20 graphs, t <= 20, 0 violations)")


def test_criterion_06_sweep_approximation():
    rng = random.Random(1)
    violations = 0
    graphs = 0
    while graphs < 50:
        n = rng.randint(8, 20)
        g = gen_er(n, rng.uniform(0.2, 0.5), seed=1000 + graphs * 7 + rng.randrange(7))
        if g.m < 4 or not is_connected(g):
            continue
        graphs += 1
        src = rng.randrange(g.n)
        p = {src: 1.0}
        for _ in range(rng.randint(0, 8)):
            p = lazy_step(g, p)
        order = sorted(p, key=lambda v: (-p[v] / g.deg[v], v))
        total = 2 * g.m
        for phi in (1.0 / 15.0, 1.0 / 20.0):
            qualifying = False
            vol = 0
            for j, v in enumerate(order, start=1):
                vol += g.deg[v]
                if vol == 0 or vol > (5.0 / 6.0) * total or vol == total:
                    continue
                if conductance(g, set(order[:j])).phi <= Fraction(phi).limit_denominator(10**9):
                    qualifying = True
                    break
            hit = sweep_cut(g, p, phi)
            if qualifying and hit is None:
                violations += 1
            if hit is not None and hit.phi > 12 * Fraction(phi).limit_denominator(10**9):
                violations += 1
    assert violations == 0
    print("criterion 6: PASS (50 graphs x 2 phi values, 0 violations)")


def test_criterion_07_balanced_index():
    rng = random.Random(11)
    for _ in range(100):
        d = rng.randint(4800, 6000)
        a = [rng.randint(1, 5) for _ in range(d)]
        j = balanced_index(a, 1024)
        assert d / 4 <= j <= 3 * d / 4
        prefix = sum(a[: j - 1])
        suffix = sum(a[j:])
        assert a[j - 1] * 12 * log2m(1024) <= min(prefix, suffix)
    print("criterion 7: PASS (100 sequences, 0 violations)")


def test_criterion_08_edge_concentration():
    g = gen_er(512, 0.5, seed=1)
    probe = edge_concentration_probe(g, 8, seed=0, trials=100)
    good = sum(1 for x in probe.per_trial if x <= probe.bound)
    assert good >= 99, f"only {good}/100 trials under the bound"
    print(f"criterion 8: PASS ({good}/100 trials under {probe.bound:.0f})")


def test_criterion_09_bandwidth_discipline(
    triangle_runs, decomposition_runs, nibble_runs
):
    transcripts = []
    transcripts += [t for *_, t in triangle_runs[0]]
    transcripts += [t for *_, t in decomposition_runs[0]]
    transcripts += [r.transcript for _, _, r in nibble_runs[0] if r.transcript]
    assert transcripts
    for t in transcripts:
        assert t.channel_load <= 1
        assert not t.cap_exhausted

    # direct engine run: flooding pushes exactly one word per channel
    class Flood(engine.VertexProgram):
        def init(self, ctx):
            ctx.state = ctx.v == 0
            if ctx.v == 0:
                for u in ctx.neighbors:
                    ctx.send(u, "tok")
                ctx.halt()

        def on_round(self, ctx, inbox):
            ctx.state = True
            for u in ctx.neighbors:
                ctx.send(u, "tok")
            ctx.halt()

    states, t = engine.run(gen_er(64, 0.2, seed=3), Flood(), seed=0)
    assert t.channel_load <= 1
    print(f"criterion 9: PASS ({len(transcripts)} transcripts, load <= 1)")


def test_criterion_10_scaling_envelope():
    start = time.time()
    medians = []
    for n in (128, 256, 512, 1024):
        rounds = []
        for seed in range(5):
            g = gen_er(n, 8.0 / n, seed=seed)
            _, transcript = enumerate_general(g, 0.5, seed=seed)
            rounds.append(transcript.rounds)
        medians.append((n, statistics.median(rounds)))
    xs = np.log2([n for n, _ in medians])
    ys = np.log2([max(r, 1) for _, r in medians])
    exponent = float(np.polyfit(xs, ys, 1)[0])
    elapsed = time.time() - start
    assert exponent <= 0.75, f"medians {medians} fit exponent {exponent:.2f}"
    assert elapsed <= 600.0
    print(f"criterion 10: PASS (exponent {exponent:.2f}, medians {medians})")


def test_criterion_11_determinism(tmp_path):
    argv = ["--mode", "triangles", "--gen", "er:n=128,p=0.1", "--seed", "6"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert run_cli(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    argv = ["--mode", "decompose", "--gen", "er:n=128,p=0.25", "--seed", "4"]
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    assert run_cli(argv + ["--out", str(c)]) == 0
    assert run_cli(argv + ["--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()

    g = generate("er:n=200,p=0.2", seed=9)
    r1, t1 = enumerate_general(g, 0.5, seed=9)
    r2, t2 = enumerate_general(g, 0.5, seed=9)
    assert json.dumps([r1.as_json(), t1.as_json()], sort_keys=True) == json.dumps(
        [r2.as_json(), t2.as_json()], sort_keys=True
    )
    print("criterion 11: PASS (reports byte-identical)")
