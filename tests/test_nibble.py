"""Walks, sweeps, sampling, and the local-cut search."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from congestlab import graphcore as gc
from congestlab import nibble as nb
from congestlab import runtime as rt
from conftest import lazy_step


def small_params(t0=20, eps=0.0):
    return nb.WalkParams(phi=1 / 20, m=10, b=1, t0=t0, eps=eps, k_b=4)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_walk_params_frozen_values():
    p = nb.make_walk_params(1 / 20, 100, 1)
    assert p.t0 == 168662
    assert p.eps == pytest.approx(3.075921671197807e-10, rel=1e-12)
    assert p.k_b == 2658


def test_walk_params_scale_halving():
    a = nb.make_walk_params(1 / 20, 100, 1)
    b = nb.make_walk_params(1 / 20, 100, 3)
    assert a.eps / b.eps == pytest.approx(4.0)
    assert a.t0 == b.t0
    assert a.t0 >= 1 and b.eps > 0


def test_walk_params_validation():
    with pytest.raises(gc.GraphError):
        nb.make_walk_params(0.2, 100, 1)
    with pytest.raises(gc.GraphError):
        nb.make_walk_params(-0.01, 100, 1)
    with pytest.raises(gc.GraphError):
        nb.make_walk_params(1 / 20, 0, 1)


# ---------------------------------------------------------------------------
# lazy steps and truncation
# ---------------------------------------------------------------------------


def test_lazy_step_k2():
    g = gc.gen_clique(2)
    assert lazy_step(g, {0: 1.0}) == {0: 0.5, 1: 0.5}


def test_lazy_step_k3():
    g = gc.gen_clique(3)
    out = lazy_step(g, {0: 1.0})
    assert out[0] == 0.5 and out[1] == 0.25 and out[2] == 0.25


def test_lazy_step_stationary_fixed_point():
    g = gc.gen_er(30, 0.3, seed=2)
    pi = {v: g.deg[v] / (2 * g.m) for v in range(g.n) if g.deg[v]}
    out = lazy_step(g, pi)
    for v, mass in pi.items():
        assert abs(out[v] - mass) <= 1e-12


def test_lazy_step_preserves_mass():
    g = gc.gen_er(25, 0.2, seed=9)
    p = {0: 0.5, 1: 0.25, 2: 0.25}
    for _ in range(30):
        p = lazy_step(g, p)
    assert abs(sum(p.values()) - 1.0) <= 1e-12


def _walks(g, sources, params):
    """Each walk's distributions as `_run_walk_level` hands them to its sweep.

    Returns ({column: {t: vector}}, trunc_free); a walk that retires or
    never starts stops appearing.
    """
    seen = {i: {} for i in range(len(sources))}

    def record(t, i, col):
        seen[i][t] = col.copy()

    _, trunc_free, _, _ = nb._run_walk_level(
        g, gc.lazy_walk_operator(g), sources, params, sweep_cb=record
    )
    return seen, trunc_free


def _as_dist(vec):
    return {v: float(x) for v, x in enumerate(vec) if x > 0.0}


def test_truncate_identity_and_threshold():
    g = gc.gen_path(3)  # one step from 0 puts 0.5 on vertex 1, of degree 2
    exact, free = _walks(g, [0], small_params(t0=1, eps=0.0))
    assert _as_dist(exact[0][1]) == lazy_step(g, {0: 1.0}) == {0: 0.5, 1: 0.5}
    assert free[0]
    # 2 * eps * deg(1) equals the mass exactly: kept
    at_bar, free = _walks(g, [0], small_params(t0=1, eps=0.125))
    assert _as_dist(at_bar[0][1]) == {0: 0.5, 1: 0.5}
    assert free[0]
    # just above it: dropped, and the walk is marked as truncated
    above, free = _walks(g, [0], small_params(t0=1, eps=0.13))
    assert _as_dist(above[0][1]) == {0: 0.5}
    assert not free[0]


def test_truncated_walk_dead_start():
    g = gc.gen_clique(4)
    params = small_params(t0=5, eps=0.2)  # 2 * 0.2 * 3 > 1
    seen, free = _walks(g, [0], params)
    # the dropped start already lost mass, so the walk is not truncation-free
    assert seen == {0: {}} and list(free) == [False]
    assert nb._run_walk_level(g, gc.lazy_walk_operator(g), [0], params)[2:] == (0, 0)
    # a unit mass exactly at 2 * eps * deg starts, then loses everything
    seen, free = _walks(gc.gen_path(3), [0], small_params(t0=5, eps=0.5))
    assert list(seen[0]) == [1]
    assert not seen[0][1].any() and not free[0]


def test_truncated_walk_exact_when_eps_zero():
    g = gc.gen_clique(4)
    seen, free = _walks(g, [0], small_params(t0=10, eps=0.0))
    assert list(seen[0]) == list(range(1, 11))
    p = {0: 1.0}
    for t in range(1, 11):
        p = lazy_step(g, p)
        got = _as_dist(seen[0][t])
        assert set(got) == set(p)
        assert all(abs(got[v] - p[v]) <= 1e-12 for v in p)
        assert abs(sum(got.values()) - 1.0) <= 1e-12
    assert free[0]


def test_truncated_walk_k4_example():
    g = gc.gen_clique(4)
    seen, _ = _walks(g, [0], small_params(t0=1, eps=1 / 64))
    p1 = _as_dist(seen[0][1])
    assert p1[0] == 0.5
    for v in (1, 2, 3):
        assert p1[v] == pytest.approx(1 / 6)
    assert len(p1) == 4
    # 2 * eps * 3 = 3/16 > 1/6: only the lazy half at the source survives
    seen, _ = _walks(g, [0], small_params(t0=1, eps=1 / 32))
    assert _as_dist(seen[0][1]) == {0: 0.5}


def test_truncation_monotone_and_substochastic():
    g = gc.gen_er(20, 0.25, seed=4)
    v = max(range(g.n), key=lambda u: g.deg[u])
    trunc, free = _walks(g, [v], small_params(t0=15, eps=0.002))
    exact, _ = _walks(g, [v], small_params(t0=15, eps=0.0))
    assert not free[0]
    assert list(exact[0]) == list(range(1, 16))
    last_mass = 1.0
    for t, pt in trunc[0].items():
        assert (pt <= exact[0][t] + 1e-12).all()
        total = pt.sum()
        assert total <= last_mass + 1e-12
        last_mass = total
    assert last_mass < 1.0 - 1e-6


def test_walk_reversal_symmetry():
    g = gc.gen_er(16, 0.3, seed=6)
    live = [v for v in range(g.n) if g.deg[v]]
    seen, _ = _walks(g, live, small_params(t0=20, eps=0.0))
    walks = {v: seen[i] for i, v in enumerate(live)}
    for t in (1, 5, 20):
        for v in live:
            for u in live:
                there, back = walks[v][t][u], walks[u][t][v]
                assert abs(there / g.deg[u] - back / g.deg[v]) <= 1e-12


# ---------------------------------------------------------------------------
# sweep cuts
# ---------------------------------------------------------------------------


def test_sweep_barbell_side():
    g = gc.gen_barbell(8, 1)
    p = {v: g.deg[v] / 57 for v in range(8)}
    got = nb.sweep_cut(g, p, 1 / 50)
    assert got is not None
    # the winning prefix sits inside the planted side and certifies
    assert set(got.side()) <= set(range(8))
    assert got.phi <= Fraction(12, 50)
    assert got.boundary_size == len(gc.boundary(g, set(got.side())))


def test_sweep_k8_finds_nothing():
    g = gc.gen_clique(8)
    p = {v: 1 / 8 for v in range(8)}
    assert nb.sweep_cut(g, p, 1 / 200) is None


def test_sweep_uniform_rho_orders_by_id():
    g = gc.gen_cycle(6)
    p = {v: 1 / 6 for v in range(6)}
    got = nb.sweep_cut(g, p, 1 / 12)
    assert got is not None
    assert got.order == (0, 1, 2, 3, 4, 5)
    again = nb.sweep_cut(g, p, 1 / 12)
    assert again == got


def test_sweep_rejects_empty():
    with pytest.raises(gc.GraphError):
        nb.sweep_cut(gc.gen_clique(3), {}, 1 / 20)


@pytest.mark.parametrize("v", [-1, 4])
def test_sweep_rejects_ids_outside_the_graph(v):
    with pytest.raises(gc.GraphError, match=rf"vertex {v} is not in 0\.\.3"):
        nb.sweep_cut(gc.gen_clique(4), {0: 0.5, v: 0.5}, 1 / 20)


@pytest.mark.parametrize("phi", [0.0, -0.1, math.nan, 1 / 11])
def test_sweep_rejects_phi_outside_its_range(phi):
    with pytest.raises(gc.GraphError, match=r"phi must lie in \(0, 1/12\]"):
        nb.sweep_cut(gc.gen_clique(4), {0: 1.0}, phi)


def test_sweep_respects_max_vol():
    g = gc.gen_barbell(8, 1)
    p = {v: g.deg[v] / 57 for v in range(8)}
    assert nb.sweep_cut(g, p, 1 / 50, max_vol=10) is None


def test_sweep_ladder_neighborhood_property():
    # a certified prefix keeps nearby larger prefixes within 12 * phi
    phi = 1 / 20
    for seed in range(8):
        g = gc.gen_er(14, 0.3, seed=seed)
        if g.m < 6 or not gc.is_connected(g):
            continue
        rng = random.Random(seed)
        src = rng.randrange(g.n)
        p = {src: 1.0}
        for t in range(rng.randint(1, 8)):
            p = lazy_step(g, p)
        order = sorted(p, key=lambda v: (-p[v] / max(g.deg[v], 1), v))
        total = 2 * g.m
        vols, phis = [], []
        run = 0
        for j, v in enumerate(order, start=1):
            run += g.deg[v]
            vols.append(run)
            side = set(order[:j])
            if run in (0, total):
                phis.append(None)
            else:
                phis.append(gc.conductance(g, side).phi)
        for j in range(len(order)):
            if phis[j] is None or phis[j] > Fraction(phi):
                continue
            if vols[j] > (5 / 6) * total:
                continue
            for j2 in range(j, len(order)):
                if vols[j2] <= (1 + phi) * vols[j] and phis[j2] is not None:
                    assert phis[j2] <= 12 * Fraction(phi)


def _reference_ladder(vols, j_max, phi, total_vol):
    """The materialised ladder: every target x in turn picks its largest
    fitting prefix j <= j_max; returns each j once, at its first x."""
    x_top = nb._ladder_limit(phi, total_vol)
    targets = (1.0 + phi) ** np.arange(x_top + 1)
    js = np.minimum(np.searchsorted(vols, targets, side="right"), j_max)
    tried, pairs = set(), []
    for x, j in enumerate(js):
        j = int(j)
        if j == 0 or j in tried:
            continue
        tried.add(j)
        pairs.append((j, x))
    return pairs


def _sweep_reference(g, p_vec, deg, phi, total_vol, max_vol):
    """The sequential ladder loop: every x in turn, each prefix length once."""
    order = nb._sweep_order(p_vec, deg)
    if len(order) == 0:
        return None
    vols = np.cumsum(deg[order])
    j_max = int(np.searchsorted(vols, max_vol, side="right"))
    if j_max == 0:
        return None
    screen = 12.0 * phi + nb.FLOAT_SLACK
    phi_cap = Fraction(12) * Fraction(phi)
    for j, x in _reference_ladder(vols, j_max, phi, total_vol):
        vol_j = int(vols[j - 1])
        small = min(vol_j, total_vol - vol_j)
        if small <= 0:
            continue
        bnd = len(gc.boundary(g, order[:j].tolist()))
        if bnd <= screen * small and Fraction(bnd, small) <= phi_cap:
            return order.tolist(), j, x, vol_j, bnd, Fraction(bnd, small)
    return None


SWEEP_GRAPHS = {
    "cycle": gc.gen_cycle(12),
    "barbell": gc.gen_barbell(6, 1),
    "planted_cut": gc.gen_planted_cut(24, 0.5, 2, seed=3),
    "isolated": gc.Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
}


def _random_distributions(g, rng, count):
    """Random masses on random supports, and lazy walks from random starts."""
    for _ in range(count):
        p_vec = np.zeros(g.n)
        for v in rng.sample(range(g.n), rng.randint(1, g.n)):
            p_vec[v] = rng.random()
        yield p_vec
        p = {rng.randrange(g.n): 1.0}
        for _ in range(rng.randint(1, 6)):
            p = lazy_step(g, p)
        p_vec = np.zeros(g.n)
        for v, mass in p.items():
            p_vec[v] = mass
        yield p_vec


@pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
def test_boundary_profile_matches_boundary(name):
    g = SWEEP_GRAPHS[name]
    rng = random.Random(name)
    for _ in range(20):
        order = np.array(rng.sample(range(g.n), rng.randint(1, g.n)))
        got = nb._boundary_profile(g, order)
        want = [len(gc.boundary(g, order[:j].tolist())) for j in range(1, len(order) + 1)]
        assert got.tolist() == want


@pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
def test_sweep_vec_matches_sequential_loop(name):
    g = SWEEP_GRAPHS[name]
    deg = np.array(g.deg, dtype=np.int64)
    total = 2 * g.m
    rng = random.Random(name)
    hits = 0
    for p_vec in _random_distributions(g, rng, 15):
        for phi in (1 / 12, 1 / 30, 1 / 200):
            # the default cap, and a cap below the full sorted volume
            for max_vol in ((5 / 6) * total, rng.uniform(1, total / 2)):
                want = _sweep_reference(g, p_vec, deg, phi, total, max_vol)
                ladder = nb._ladder(phi, total)
                got = nb._sweep_vec(g, p_vec, deg, phi, total, max_vol, ladder)
                if got is not None:
                    got = (got[0].tolist(),) + got[1:]
                assert got == want
                hits += want is not None
    assert hits > 0


# (vols, j_max, phi, total_vol): prefix volumes against the ladder's edge cases
LADDER_CASES = {
    # vol 1 equals target x = 0, (1 + phi)^0
    "unit_first_volume": ([1, 3, 4, 9], 4, 1 / 12, 40),
    # a degree-0 vertex second in the order: prefixes 1 and 2 share volume 2
    "degree_zero_vertex": ([2, 2, 5, 7], 4, 1 / 12, 40),
    # 100..103 all lie between targets 57 (95.8) and 58 (103.8)
    "prefixes_between_targets": ([1, 4, 100, 101, 102, 103, 200], 7, 1 / 12, 1000),
    # j_max cuts the support inside a run of prefixes sharing their first x
    "j_max_below_support": ([1, 4, 100, 101, 102, 103, 200], 4, 1 / 12, 1000),
    # the ladder tops out at x = 58 (103.8), below the last volume
    "x_top_below_last_volume": ([1, 4, 100, 101, 102, 200], 6, 1 / 12, 120),
    # a planted-cut search's ladder: 20,933 targets
    "long_ladder": (
        np.cumsum(random.Random(7).choices([0, 1, 2, 3, 40, 41], k=80)).tolist(),
        80,
        0.000492,
        35_522,
    ),
}


@pytest.mark.parametrize("name", sorted(LADDER_CASES))
def test_ladder_prefixes_match_materialised_ladder(name):
    vols, j_max, phi, total_vol = LADDER_CASES[name]
    vols = np.array(vols, dtype=np.int64)
    targets = nb._ladder(phi, total_vol)
    assert len(targets) == nb._ladder_limit(phi, total_vol) + 1
    js, xs = nb._ladder_prefixes(vols, j_max, targets)
    want = _reference_ladder(vols, j_max, phi, total_vol)
    assert list(zip(js.tolist(), xs.tolist())) == want
    assert want


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_exact_k2_chi_square():
    g = gc.gen_clique(2)
    draws = nb.sample_by_degree(g, 1, seed=0)
    counts = [0, 0]
    for i in range(10_000):
        v = nb.sample_by_degree(g, 1, seed=i)[0]
        counts[v] += 1
    chi2 = sum((c - 5000) ** 2 / 5000 for c in counts)
    assert chi2 < 10.83  # p > 0.001 at one degree of freedom
    assert draws == nb.sample_by_degree(g, 1, seed=0)


def test_sample_star_degree_law():
    g = gc.gen_star(5)
    hits = 0
    for i in range(10_000):
        if nb.sample_by_degree(g, 1, seed=i)[0] == 0:
            hits += 1
    assert abs(hits / 10_000 - 0.5) < 0.03  # center holds half the volume


def test_sample_zero_volume():
    g = gc.Graph(3, [])
    with pytest.raises(gc.GraphError):
        nb.sample_by_degree(g, 1, seed=0)


# ---------------------------------------------------------------------------
# the full search
# ---------------------------------------------------------------------------


def test_distributed_nibble_refuses_a_vertex_outside_the_graph():
    # the search once ran on an induced graph holding a phantom vertex 99
    with pytest.raises(gc.GraphError, match="^vertex 99 is not in 0..5$"):
        nb.distributed_nibble(gc.gen_clique(6), [0, 1, 2, 99], 0.05)


def test_distributed_nibble_refuses_a_disconnected_member_set():
    # two triangles: the BFS build that prices the sampling tree fails
    g = gc.Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(rt.CongestError, match=r"component is not connected"):
        nb.distributed_nibble(g, range(6), 1 / 50)


def test_distributed_nibble_names_a_disconnected_member_set_by_g_ids():
    # the search runs on the members' induced copy, ids 0..5 for 0, 1, 2, 7, 8, 9
    g = gc.Graph(10, [(0, 1), (1, 2), (0, 2), (7, 8), (8, 9), (7, 9), (3, 4)])
    with pytest.raises(rt.CongestError, match=r"^component is not connected: root 0 does not reach \[7, 8, 9\]$"):
        nb.distributed_nibble(g, [0, 1, 2, 7, 8, 9], 1 / 50)


def test_nibble_rejects_bad_phi():
    g = gc.gen_clique(4)
    with pytest.raises(gc.GraphError):
        nb.distributed_nibble(g, range(4), 0.2)


def test_nibble_planted_cut_success_rate():
    wins = 0
    for s in range(50):
        g = gc.gen_planted_cut(64, 0.3, 4, seed=1000 + s)
        res = nb.distributed_nibble(g, range(g.n), 1 / 50, seed=s)
        if res.found:
            wins += 1
            assert res.cut.phi <= Fraction(12, 50)
            side = set(res.cut.side)
            check = gc.conductance(g, side)
            assert check.phi == res.cut.phi
    assert wins >= 45


def test_nibble_k16_never_cuts():
    g = gc.gen_clique(16)
    for s in range(10):
        res = nb.distributed_nibble(g, range(16), 1 / 100, seed=s)
        assert res.status == "failed"


def test_nibble_cycle_exhausts_and_fails():
    # C8's cheapest cut is 1/4, just above 12/50; the spectral screen
    # cannot fire (gap/2 = 0.146 < 0.24) so every level actually runs
    g = gc.gen_cycle(8)
    res = nb.distributed_nibble(g, range(8), 1 / 50, seed=2)
    assert res.status == "failed"


def test_nibble_builds_one_walk_operator_per_search(monkeypatch):
    built = []

    def counting(g):
        built.append(g)
        return gc.lazy_walk_operator(g)

    calls = []
    real = nb._run_walk_level

    def walk(sub, t_mat, *args, **kwargs):
        calls.append(t_mat)
        return real(sub, t_mat, *args, **kwargs)

    monkeypatch.setattr(nb, "lazy_walk_operator", counting)
    monkeypatch.setattr(nb, "_run_walk_level", walk)
    # the ER search walks three levels and fails; the barbell's cut wins at
    # the first level
    er = gc.gen_er(150, 0.05, seed=1)
    for g, comp, seed, status, levels in (
        (er, max(gc.connected_components(er), key=len), 1, "failed", 3),
        (gc.gen_barbell(16, 1), range(32), 4, "cut", 1),
    ):
        built.clear()
        calls.clear()
        assert nb.distributed_nibble(g, comp, 1 / 50, seed=seed).status == status
        assert len(built) == 1 and len(calls) == levels
        assert all(t is calls[0] for t in calls)


def test_nibble_finds_barbell_side():
    g = gc.gen_barbell(16, 1)
    res = nb.distributed_nibble(g, range(32), 1 / 50, seed=4)
    assert res.found
    assert res.cut.phi <= Fraction(12, 50)
    assert res.certificate["phi_achieved"] == str(res.cut.phi)


def test_nibble_empty_component():
    g = gc.Graph(3, [])
    res = nb.distributed_nibble(g, range(3), 1 / 20, seed=0)
    assert res.status == "failed"


def test_nibble_simulated_sequential_agreement():
    for seed in (0, 1, 2):
        g = gc.gen_planted_cut(32, 0.4, 3, seed=seed)
        sim = nb.distributed_nibble(g, range(g.n), 1 / 50, seed=seed)
        if sim.status == "cut":
            assert sim.transcript.rounds > 0
            assert set(sim.transcript.phases) >= {"nibble:sample", "nibble:walk"}


def test_nibble_cut_is_component_scoped():
    # two far-apart cliques bridged: the cut's volumes refer to the component
    g = gc.gen_barbell(8, 1)
    extra = gc.Graph(g.n + 3, g.edge_list() + [(16, 17), (17, 18)])
    res = nb.distributed_nibble(extra, range(16), 1 / 50, seed=1)
    assert res.found
    assert res.cut.vol_side + res.cut.vol_complement == 2 * 57


# ---------------------------------------------------------------------------
# congestion
# ---------------------------------------------------------------------------


def _congestion(g, component, params, sources, weights=None):
    """Peak number of walks alive at one vertex, as the nibble search charges it."""
    sub, old_ids = gc.induced_subgraph(g, sorted(component))
    pos = {v: i for i, v in enumerate(old_ids)}
    _, _, max_cong, _ = nb._run_walk_level(
        sub, gc.lazy_walk_operator(sub), [pos[s] for s in sources], params, weights
    )
    return max_cong


def test_congestion_single_source():
    g = gc.gen_er(40, 0.2, seed=1)
    comp = max(gc.connected_components(g), key=len)
    params = nb.make_walk_params(1 / 20, g.m, 1)
    assert _congestion(g, comp, params, [comp[0]]) == 1


def test_congestion_dead_walks():
    g = gc.gen_clique(6)
    params = small_params(t0=5, eps=0.5)
    assert _congestion(g, range(6), params, [0, 1, 2]) == 0


def test_congestion_counts_multiplicity():
    g = gc.gen_er(40, 0.2, seed=1)
    comp = max(gc.connected_components(g), key=len)
    params = nb.make_walk_params(1 / 20, g.m, 1)
    one = _congestion(g, comp, params, comp[:5])
    tripled = _congestion(g, comp, params, comp[:5], weights=[3] * 5)
    assert tripled == 3 * one
