import json
import math
import random

import pytest

from congestlab.graphcore import (
    GraphError,
    Graph,
    bfs_levels,
    conductance,
    edge_key,
    gen_barbell,
    gen_caterpillar,
    gen_clique,
    gen_cycle,
    gen_er,
    gen_path,
    gen_star,
    log2m,
    subgraph_from_edges,
)
from congestlab.decomposition import (
    Decomposition,
    balanced_index,
    black_box_partition,
    decompose,
    high_diameter_cut,
    low_degree_peel,
    phi_star,
    verify_decomposition,
)


# ---------------------------------------------------------------------------
# balanced_index
# ---------------------------------------------------------------------------


def test_balanced_index_uniform_sequence():
    a = [1] * 4800
    j = balanced_index(a, 1024)
    assert j == 1200
    assert 4800 / 4 <= j <= 3 * 4800 / 4


def test_balanced_index_guarantee_random():
    rng = random.Random(7)
    for _ in range(100):
        d = 4800
        a = [rng.randint(1, 5) for _ in range(d)]
        j = balanced_index(a, 1024)
        assert d / 4 <= j <= 3 * d / 4
        prefix = sum(a[: j - 1])
        suffix = sum(a[j:])
        assert a[j - 1] * 12 * log2m(1024) <= min(prefix, suffix)


def test_balanced_index_reverses_on_heavy_prefix():
    d = 4800
    a = [50] * (d // 2) + [1] * (d // 2)
    j = balanced_index(a, 1024)
    assert j > d / 2
    prefix = sum(a[: j - 1])
    suffix = sum(a[j:])
    assert a[j - 1] * 120 <= min(prefix, suffix)


def test_balanced_index_skips_heavy_entries():
    d = 4800
    a = [1] * d
    for k in range(1200, 1300):
        a[k - 1] = 10 ** 9
    j = balanced_index(a, 1024)
    assert a[j - 1] * 120 <= min(sum(a[: j - 1]), sum(a[j:]))


def test_balanced_index_rejects_short_and_bad_input():
    with pytest.raises(GraphError):
        balanced_index([1] * 100, 1024)
    with pytest.raises(GraphError):
        balanced_index([], 4)
    with pytest.raises(GraphError):
        balanced_index([1] * 4799 + [0], 1024)


def test_balanced_index_concentrated_sequence_fails():
    # entries always double the running prefix, so no index ever qualifies
    a = []
    total = 1
    for i in range(4800):
        x = max(1, total)
        a.append(x)
        total += x
    with pytest.raises(GraphError):
        balanced_index(a, 1024)


# ---------------------------------------------------------------------------
# high_diameter_cut
# ---------------------------------------------------------------------------


def test_high_diameter_cut_caterpillar():
    g = gen_caterpillar(7000, 3)
    threshold = g.n ** 0.1
    cut, rounds = high_diameter_cut(g, range(g.n), 0, threshold)
    levels = bfs_levels(g, 0)
    d_tilde = max(levels)
    # side is a union of full BFS levels containing the root
    top = max(levels[v] for v in cut.side)
    assert 0 in cut.side
    assert cut.side == frozenset(v for v in range(g.n) if levels[v] <= top)
    # recomputed witness and balance floor
    again = conductance(g, cut.side)
    assert again.boundary_size == cut.boundary_size
    assert cut.boundary_size * 12 * log2m(g.m) <= min(
        cut.vol_side, cut.vol_complement
    )
    small = min(len(cut.side), g.n - len(cut.side))
    assert small >= (d_tilde / 32) * threshold
    assert 3 * d_tilde <= rounds <= 5 * d_tilde


def test_high_diameter_cut_deterministic():
    g = gen_caterpillar(7000, 3)
    t = g.n ** 0.1
    a, ra = high_diameter_cut(g, range(g.n), 0, t)
    b, rb = high_diameter_cut(g, range(g.n), 0, t)
    assert a.side == b.side and ra == rb


def test_high_diameter_cut_requires_long_diameter():
    g = gen_caterpillar(100, 3)
    with pytest.raises(GraphError, match="diameter bar"):
        high_diameter_cut(g, range(g.n), 0, g.n ** 0.1)


def test_high_diameter_cut_rejects_adjacent_low_degree():
    g = gen_path(10000)
    with pytest.raises(GraphError, match="low-degree"):
        high_diameter_cut(g, range(g.n), 0, 4.2)


def test_high_diameter_cut_scaled_bar():
    g = gen_caterpillar(150, 3)
    t = g.n ** 0.1
    with pytest.raises(GraphError):
        high_diameter_cut(g, range(g.n), 0, t, threshold_scale=0.1)
    cut, _ = high_diameter_cut(g, range(g.n), 0, t, threshold_scale=0.05)
    assert cut.boundary_size * 12 * log2m(g.m) <= min(
        cut.vol_side, cut.vol_complement
    )


def test_high_diameter_cut_root_outside():
    g = gen_caterpillar(7000, 3)
    with pytest.raises(GraphError, match="root"):
        high_diameter_cut(g, range(100), 200, 2.0)


# ---------------------------------------------------------------------------
# low_degree_peel
# ---------------------------------------------------------------------------


def test_peel_star_all_edges_to_leaves():
    g = gen_star(6)
    res = low_degree_peel(g, range(6), 4.0)
    assert res.e_diamond == []
    assert sorted(res.es_parts) == [1, 2, 3, 4, 5]
    for leaf, part in res.es_parts.items():
        assert part == [(0, leaf)]
    assert res.iterations == 1


def test_peel_clique_untouched():
    g = gen_clique(5)
    res = low_degree_peel(g, range(5), 2.0)
    assert res.es_parts == {}
    assert len(res.e_diamond) == 10
    assert res.iterations == 0


def test_peel_path_single_batch():
    g = gen_path(10)
    res = low_degree_peel(g, range(10), 4.0)
    assert res.e_diamond == []
    assert res.iterations == 1
    # every edge went to its smaller endpoint
    for v, part in res.es_parts.items():
        for e in part:
            assert min(e) == v


def test_peel_cascade_on_long_path():
    g = gen_path(800)
    res = low_degree_peel(g, range(800), 1.4)
    assert res.e_diamond == []
    assert res.iterations == 400
    assert sum(len(p) for p in res.es_parts.values()) == 799
    assert max(len(p) for p in res.es_parts.values()) == 1


def test_peel_remainder_degrees_above_half_threshold():
    g = gen_er(60, 0.15, seed=3)
    res = low_degree_peel(g, range(60), 6.0)
    deg = {}
    for u, v in res.e_diamond:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert all(d > 3.0 for d in deg.values())
    peeled = sum(len(p) for p in res.es_parts.values())
    assert peeled + len(res.e_diamond) == g.m


# ---------------------------------------------------------------------------
# black_box_partition
# ---------------------------------------------------------------------------


def _check_step_invariants(g, edges, delta, step):
    threshold = g.n ** delta
    incident = {v for e in edges for v in e}
    seen = set()
    for c in step.clusters:
        assert not (seen & c.vertices)
        seen |= c.vertices
        assert {v for e in c.edges for v in e} == set(c.vertices)
    assert seen | set(step.s_vertices) == incident
    assert seen & set(step.s_vertices) == set()

    em_deg = {}
    for c in step.clusters:
        for u, v in c.edges:
            em_deg[u] = em_deg.get(u, 0) + 1
            em_deg[v] = em_deg.get(v, 0) + 1
    for v, part in step.es_new.items():
        assert len(part) + em_deg.get(v, 0) <= threshold + 1e-9

    m_call = len(edges)
    sizes = [len(c.edges) for c in step.clusters]
    drop = m_call * math.log2(m_call) - sum(s * math.log2(s) for s in sizes if s > 1)
    assert 6 * log2m(g.m) * len(step.er_new) <= drop + 1e-9

    labeled = list(step.er_new)
    for part in step.es_new.values():
        labeled += part
    for c in step.clusters:
        labeled += list(c.edges)
    assert sorted(labeled) == sorted(edges)


def test_black_box_caterpillar_uses_long_cuts():
    # threshold = 21000**0.1 = 2.7: degree-3 spine vertices survive the
    # low-degree passes, so the long chain must be split by diameter cuts;
    # the leftover middle piece then sheds entirely through peeling.
    g = gen_caterpillar(7000, 3)
    step = black_box_partition(g, g.edge_list(), 0.1)
    assert any(w["kind"] == "case1" for w in step.witnesses)
    assert all(c.status == "C3-2" for c in step.clusters)
    assert step.clusters and step.es_new
    assert "partition:case1" in step.phases
    assert "partition:nibble" not in step.phases
    _check_step_invariants(g, g.edge_list(), 0.1, step)


def test_black_box_clique_single_terminal_cluster():
    g = gen_clique(64)
    step = black_box_partition(g, g.edge_list(), 0.5)
    assert len(step.clusters) == 1
    c = step.clusters[0]
    assert c.status == "C3-1"
    assert c.vertices == frozenset(range(64))
    assert step.er_new == [] and step.es_new == {}
    assert "partition:nibble" in step.phases
    _check_step_invariants(g, g.edge_list(), 0.5, step)


def test_black_box_barbell_cuts_bridge():
    g = gen_barbell(16, 1)
    step = black_box_partition(g, g.edge_list(), 0.5, seed=1)
    assert step.er_new == [(0, 16)]
    assert sorted(c.status for c in step.clusters) == ["C3-2", "C3-2"]
    sides = sorted(sorted(c.vertices) for c in step.clusters)
    assert sides == [list(range(16)), list(range(16, 32))]
    assert any(w["kind"] == "case2b" for w in step.witnesses)
    _check_step_invariants(g, g.edge_list(), 0.5, step)


def test_black_box_er_sparse_invariants():
    g = gen_er(256, 0.05, seed=2)
    edges = g.edge_list()
    step = black_box_partition(g, edges, 0.5)
    _check_step_invariants(g, edges, 0.5, step)
    assert step.es_new  # low-degree pairs shed their mutual edges


def test_black_box_deterministic():
    g = gen_er(128, 0.1, seed=5)
    a = black_box_partition(g, g.edge_list(), 0.5, seed=9)
    b = black_box_partition(g, g.edge_list(), 0.5, seed=9)
    assert a.er_new == b.er_new
    assert a.es_new == b.es_new
    assert [(sorted(c.vertices), c.status) for c in a.clusters] == [
        (sorted(c.vertices), c.status) for c in b.clusters
    ]
    assert a.halt_rounds == b.halt_rounds


def test_black_box_rejects_bad_input():
    g = gen_clique(4)
    with pytest.raises(GraphError):
        black_box_partition(g, [], 0.5)
    with pytest.raises(GraphError):
        black_box_partition(g, g.edge_list(), 1.5)
    with pytest.raises(GraphError):
        black_box_partition(g, [(0, 1), (1, 0)], 0.5)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_clique_one_cluster():
    g = gen_clique(64)
    deco, transcript = decompose(g, 0.5)
    assert list(deco.clusters) == [1]
    assert deco.clusters[1] == frozenset(range(64))
    assert len(deco.em) == g.m
    assert deco.es == {} and deco.er == []
    assert transcript.rounds > 0
    assert "partition:nibble" in transcript.phases
    report = verify_decomposition(g, 0.5, deco)
    assert report.ok and not report.flags


def test_decompose_path_all_sparse():
    g = gen_path(100)
    deco, _ = decompose(g, 0.5)
    assert deco.em == {} and deco.er == []
    assert sum(len(p) for p in deco.es.values()) == 99
    assert max(len(p) for p in deco.es.values()) <= 2
    # edges go to their smaller endpoint, so arrows climb the path
    for v, part in deco.es.items():
        for e in part:
            assert min(e) == v
    assert verify_decomposition(g, 0.5, deco).ok


def test_decompose_random_tree_all_sparse():
    rng = random.Random(11)
    n = 200
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    g = Graph(n, edges)
    deco, _ = decompose(g, 0.5)
    assert deco.em == {} and deco.er == []
    assert sum(len(p) for p in deco.es.values()) == n - 1
    assert verify_decomposition(g, 0.5, deco).ok


def test_decompose_dense_er_single_cluster():
    g = gen_er(512, 0.25, seed=1)
    deco, _ = decompose(g, 0.5)
    assert list(deco.clusters) == [1]
    assert len(deco.em) == g.m
    assert deco.er == []
    report = verify_decomposition(g, 0.5, deco)
    assert report.ok and not report.flags


def test_decompose_sparse_er_mixed_labels():
    g = gen_er(256, 0.05, seed=2)
    deco, transcript = decompose(g, 0.5, seed=4)
    report = verify_decomposition(g, 0.5, deco)
    assert report.ok
    assert deco.es
    assert all(len(p) <= 16 for p in deco.es.values())
    assert len(deco.er) <= g.m / 6
    assert deco.certificates["partition_calls"] >= 1


def test_decompose_barbell_two_clusters():
    g = gen_barbell(16, 1)
    deco, _ = decompose(g, 0.5, seed=3)
    assert deco.er == [(0, 16)]
    assert sorted(sorted(vs) for vs in deco.clusters.values()) == [
        list(range(16)),
        list(range(16, 32)),
    ]
    report = verify_decomposition(g, 0.5, deco)
    assert report.ok and not report.flags


def test_decompose_scaled_caterpillar_records_flag():
    g = gen_caterpillar(400, 2)
    deco, transcript = decompose(g, 0.05, threshold_scale=0.05)
    assert transcript.phases["flag:threshold_scale_millis"] == 50
    assert "partition:case1" in transcript.phases
    assert deco.em == {}
    assert 1 <= len(deco.er) <= g.m / 6
    assert verify_decomposition(g, 0.05, deco).ok


def test_decompose_unscaled_has_no_flag():
    g = gen_path(100)
    _, transcript = decompose(g, 0.5)
    assert not any(k.startswith("flag:") for k in transcript.phases)


def test_decompose_deterministic_json():
    g = gen_er(256, 0.05, seed=2)
    a, ta = decompose(g, 0.5, seed=7)
    b, tb = decompose(g, 0.5, seed=7)
    assert json.dumps(a.as_json(), sort_keys=True) == json.dumps(
        b.as_json(), sort_keys=True
    )
    assert ta.as_json() == tb.as_json()


def test_decompose_bad_delta():
    with pytest.raises(GraphError):
        decompose(gen_clique(4), 0.0)
    with pytest.raises(GraphError):
        decompose(gen_clique(4), 1.0)


def test_decompose_empty_graph():
    g = Graph(5, [])
    deco, transcript = decompose(g, 0.5)
    assert deco.em == {} and deco.es == {} and deco.er == []
    assert transcript.rounds == 0


# ---------------------------------------------------------------------------
# verifier tampering
# ---------------------------------------------------------------------------


def test_verifier_catches_unoriented_sparse_edge():
    g = gen_clique(64)
    deco, _ = decompose(g, 0.5)
    e = next(iter(deco.em))
    del deco.em[e]
    deco.es.setdefault(e[0], []).append(e)
    report = verify_decomposition(g, 0.5, deco)
    assert not report.ok
    assert report.checks["orientation"] is False


def test_verifier_catches_excess_removals():
    g = gen_path(100)
    deco, _ = decompose(g, 0.5)
    moved = 0
    for v in sorted(deco.es):
        while deco.es[v] and moved <= 17:
            deco.er.append(deco.es[v].pop())
            moved += 1
    deco.es = {v: p for v, p in deco.es.items() if p}
    report = verify_decomposition(g, 0.5, deco)
    assert report.checks["removed-fraction"] is False
    assert not report.ok


def test_verifier_catches_broken_cluster():
    g = gen_clique(64)
    deco, _ = decompose(g, 0.5)
    for e in [e for e in deco.em if 0 in e]:
        del deco.em[e]
        deco.er.append(e)
    report = verify_decomposition(g, 0.5, deco)
    assert report.checks["clusters-connected"] is False
    assert not report.ok


def test_verifier_catches_orientation_cycle():
    g = gen_cycle(8)
    deco, _ = decompose(g, 0.5)
    assert (0, 7) in deco.orientation.owned.get(0, [])
    deco.orientation.owned[0].remove((0, 7))
    deco.orientation.owned.setdefault(7, []).append((0, 7))
    deco.es[0].remove((0, 7))
    deco.es.setdefault(7, []).append((0, 7))
    deco.es = {v: p for v, p in deco.es.items() if p}
    report = verify_decomposition(g, 0.5, deco)
    assert report.checks["orientation"] is False


def test_verifier_catches_merged_clusters():
    g = gen_barbell(16, 1)
    deco, _ = decompose(g, 0.5, seed=3)
    assert sorted(deco.clusters) == [1, 2]
    deco.em = {e: 1 for e in deco.em}
    deco.clusters = {1: deco.clusters[1] | deco.clusters[2]}
    report = verify_decomposition(g, 0.5, deco)
    assert report.checks["clusters-connected"] is False
    assert report.checks["cluster-mixing"] is False
    assert "cluster 1: disconnected, mixing undefined" in report.flags
    assert not report.ok


def test_verifier_catches_sparse_edge_with_wrong_owner():
    g = gen_path(100)
    deco, _ = decompose(g, 0.5)
    deco.es[10].remove((10, 11))
    deco.es = {v: p for v, p in deco.es.items() if p}
    deco.es.setdefault(11, []).append((10, 11))
    report = verify_decomposition(g, 0.5, deco)
    assert report.checks["orientation"] is False
    assert not report.ok

def test_phi_star_is_tiny_but_positive():
    f = phi_star(2016, 2016)
    assert 0 < f < 1e-6
