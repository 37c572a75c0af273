import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestlab import decomposition as dc
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
    gen_hypercube,
    gen_path,
    gen_star,
    generate,
    lambda2_normalized,
    log2m,
    mixing_time_bound,
    mixing_time_exact,
    subgraph_from_edges,
)
from congestlab.decomposition import (
    Decomposition,
    balanced_index,
    black_box_partition,
    decompose,
    decomposition_from_json,
    high_diameter_cut,
    low_degree_peel,
    phi_star,
    verify_decomposition,
)
from conftest import oracle_adj
from test_golden import DECOMPOSE_GOLDEN


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
    levels = bfs_levels(g, 0)
    cut, rounds = high_diameter_cut(g, levels, threshold)
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
    a, ra = high_diameter_cut(g, bfs_levels(g, 0), t)
    b, rb = high_diameter_cut(g, bfs_levels(g, 0), t)
    assert a.side == b.side and ra == rb


def test_high_diameter_cut_requires_long_diameter():
    g = gen_caterpillar(100, 3)
    with pytest.raises(GraphError, match="diameter bar"):
        high_diameter_cut(g, bfs_levels(g, 0), g.n ** 0.1)


def test_high_diameter_cut_rejects_adjacent_low_degree():
    g = gen_path(10000)
    with pytest.raises(GraphError, match="low-degree"):
        high_diameter_cut(g, bfs_levels(g, 0), 4.2)


def test_high_diameter_cut_scaled_bar():
    g = gen_caterpillar(150, 3)
    t = g.n ** 0.1
    with pytest.raises(GraphError):
        high_diameter_cut(g, bfs_levels(g, 0), t, threshold_scale=0.1)
    cut, _ = high_diameter_cut(g, bfs_levels(g, 0), t, threshold_scale=0.05)
    assert cut.boundary_size * 12 * log2m(g.m) <= min(
        cut.vol_side, cut.vol_complement
    )


def test_high_diameter_cut_refuses_levels_of_another_shape_or_with_gaps():
    g = gen_caterpillar(100, 3)
    levels = bfs_levels(g, 0)
    for bad in (levels[:-1], np.append(levels, 1), levels[None, :], 0):
        with pytest.raises(GraphError, match=f"for a piece of {g.n} vertices"):
            high_diameter_cut(g, bad, 2.0)
    split = Graph(g.n + 1, g.edge_list())  # the last vertex is isolated
    with pytest.raises(GraphError, match="^component is not connected$"):
        high_diameter_cut(split, bfs_levels(split, 0), 2.0)


# ---------------------------------------------------------------------------
# low_degree_peel
# ---------------------------------------------------------------------------


def test_peel_star_all_edges_to_leaves():
    g = gen_star(6)
    res = low_degree_peel(g, 4.0)
    assert len(res.kept) == 0
    assert res.owners.tolist() == [1, 2, 3, 4, 5]
    assert res.peeled.tolist() == [[0, leaf] for leaf in range(1, 6)]
    assert res.iterations == 1


def test_peel_clique_untouched():
    g = gen_clique(5)
    res = low_degree_peel(g, 2.0)
    assert len(res.peeled) == len(res.owners) == 0
    assert len(res.kept) == 10
    assert res.iterations == 0


def test_peel_path_single_batch():
    g = gen_path(10)
    res = low_degree_peel(g, 4.0)
    assert len(res.kept) == 0
    assert res.iterations == 1
    # every edge went to its smaller endpoint
    assert res.owners.tolist() == res.peeled.min(axis=1).tolist()


def test_peel_cascade_on_long_path():
    g = gen_path(800)
    res = low_degree_peel(g, 1.4)
    assert len(res.kept) == 0
    assert res.iterations == 400
    assert len(res.peeled) == len(res.owners) == 799
    assert max(Counter(res.owners.tolist()).values()) == 1


def test_peel_remainder_degrees_above_half_threshold():
    g = gen_er(60, 0.15, seed=3)
    res = low_degree_peel(g, 6.0)
    deg = Counter(res.kept.ravel().tolist())
    assert all(d > 3.0 for d in deg.values())
    assert len(res.peeled) + len(res.kept) == g.m


# ---------------------------------------------------------------------------
# black_box_partition
# ---------------------------------------------------------------------------


def _check_step_invariants(g, edges, delta, step):
    threshold = g.n ** delta
    edges = [tuple(e) for e in np.asarray(edges).tolist()]
    incident = {v for e in edges for v in e}
    seen = set()
    for c in step.clusters:
        assert not (seen & c.vertices)
        seen |= c.vertices
        assert set(c.edges.ravel().tolist()) == set(c.vertices)
        # each cluster's rows are sorted canonical pairs
        rows = c.edges.tolist()
        assert rows == sorted(rows) and all(u < v for u, v in rows)
    assert seen | set(step.s_vertices) == incident
    assert seen & set(step.s_vertices) == set()

    es_rows, es_owners = step.es_new
    assert len(es_rows) == len(es_owners)
    assert all(v in e for v, e in zip(es_owners.tolist(), es_rows.tolist()))
    em_deg = Counter(v for c in step.clusters for v in c.edges.ravel().tolist())
    for v, count in Counter(es_owners.tolist()).items():
        assert count + em_deg[v] <= threshold + 1e-9

    m_call = len(edges)
    sizes = [len(c.edges) for c in step.clusters]
    drop = m_call * math.log2(m_call) - sum(s * math.log2(s) for s in sizes if s > 1)
    assert 6 * log2m(g.m) * len(step.er_new) <= drop + 1e-9

    labeled = step.er_new.tolist() + es_rows.tolist()
    for c in step.clusters:
        labeled += c.edges.tolist()
    assert sorted(map(tuple, labeled)) == sorted(edges)


def test_black_box_caterpillar_uses_long_cuts():
    # threshold = 21000**0.1 = 2.7: degree-3 spine vertices survive the
    # low-degree passes, so the long chain must be split by diameter cuts;
    # the leftover middle piece then sheds entirely through peeling.
    g = gen_caterpillar(7000, 3)
    step = black_box_partition(g, g.edge_list(), 0.1)
    assert any(w["kind"] == "case1" for w in step.witnesses)
    assert all(c.status == "C3-2" for c in step.clusters)
    assert step.clusters and len(step.es_new[0])
    assert "partition:case1" in step.transcript.phases
    assert "partition:nibble" not in step.transcript.phases
    _check_step_invariants(g, g.edge_list(), 0.1, step)


def test_black_box_clique_single_terminal_cluster():
    g = gen_clique(64)
    step = black_box_partition(g, g.edge_list(), 0.5)
    assert len(step.clusters) == 1
    c = step.clusters[0]
    assert c.status == "C3-1"
    assert c.vertices == frozenset(range(64))
    assert len(step.er_new) == len(step.es_new[0]) == 0
    assert "partition:nibble" in step.transcript.phases
    _check_step_invariants(g, g.edge_list(), 0.5, step)


def test_black_box_barbell_cuts_bridge():
    g = gen_barbell(16, 1)
    step = black_box_partition(g, g.edge_list(), 0.5, seed=1)
    assert step.er_new.tolist() == [[0, 16]]
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
    assert len(step.es_new[0])  # low-degree pairs shed their mutual edges


def test_black_box_deterministic():
    g = gen_er(128, 0.1, seed=5)
    a = black_box_partition(g, g.edge_list(), 0.5, seed=9)
    b = black_box_partition(g, g.edge_list(), 0.5, seed=9)
    assert np.array_equal(a.er_new, b.er_new)
    assert all(map(np.array_equal, a.es_new, b.es_new))
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


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(3, 3)], r"^edge \(3, 3\) is not an edge of the graph$"),
        ([(0, 999)], r"^vertex 999 is not in 0\.\.39$"),
        # (0, 44) would key as 44, the key of the edge (1, 4) at n = 40
        ([(0, 2), (0, 44)], r"^vertex 44 is not in 0\.\.39$"),
        ([(-1, 2)], r"^vertex -1 is not in 0\.\.39$"),
        ("non-edge", r"^edge \(0, 1\) is not an edge of the graph$"),
        ("repeat", r"^duplicate edges in input$"),
        ([(0, 1, 2)], r"^edges must be pairs of integer vertex ids$"),
    ],
    ids=["loop", "id-past-n", "aliasing-id", "negative-id", "non-edge", "repeat", "triple"],
)
def test_black_box_refuses_edges_that_are_not_edges_of_g(edges, message):
    # these were shed to E_s, or died in bincount, before the check
    g = generate("er:n=40,p=0.3", seed=1)
    if edges == "non-edge":
        assert (0, 1) not in set(g.edges())
        edges = g.edge_list()[:5] + [(0, 1)]
    elif edges == "repeat":
        edges = g.edge_list() + [g.edge_list()[7][::-1]]
    with pytest.raises(GraphError, match=message):
        black_box_partition(g, edges, 0.5)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_partition_rows_match_the_lexsort_oracle(data):
    # the partition's piece: the input edges, any subset (k = 0 included),
    # in any order and orientation, as canonical rows in lexicographic order
    g = generate("er:n=30,p=0.2", seed=data.draw(st.integers(0, 3)))
    edges = data.draw(st.lists(st.sampled_from(g.edge_list()), unique=True))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    pairs = np.array(
        [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)], dtype=np.int64
    ).reshape(-1, 2)
    rows = np.sort(pairs, axis=1)
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    got = dc._sorted_edge_rows(g, pairs)
    assert got.dtype == np.int64 and got.tolist() == rows.tolist()
    if len(edges):
        again = np.concatenate((pairs, pairs[-1:, ::-1]))
        with pytest.raises(GraphError, match="duplicate edges in input"):
            dc._sorted_edge_rows(g, again)


def test_black_box_reaches_case2a_after_peel(case2a_graph):
    g = case2a_graph
    step = black_box_partition(g, g.edge_list(), 0.3, seed=1, threshold_scale=0.01)
    kinds = [w["kind"] for w in step.witnesses]
    assert kinds == ["case2a", "case2b", "case2b", "case2b"]
    assert [c.status for c in step.clusters] == ["C3-2"] * 5
    # the peel took the shortcut and its 24 leaves into E_s
    assert {360, 373} <= set(step.es_new[1].tolist())
    assert "partition:case1" not in step.transcript.phases
    _check_step_invariants(g, g.edge_list(), 0.3, step)


def test_black_box_peeled_core_skips_the_half_size_exit():
    # K10 with 60 leaves on vertex 0: the component (105 edges) is above
    # half the input, its peeled core K10 (45 edges) below it. Only an
    # unpeeled component takes the half-size exit; the core is
    # walk-searched and ends terminal.
    g = Graph(70, gen_clique(10).edge_list() + [(0, v) for v in range(10, 70)])
    step = black_box_partition(g, g.edge_list(), 0.5, seed=0)
    assert [(c.vertices, c.status) for c in step.clusters] == [
        (frozenset(range(10)), "C3-1")
    ]
    assert "partition:nibble" in step.transcript.phases
    _check_step_invariants(g, g.edge_list(), 0.5, step)


# (graph, delta, threshold_scale, seed): together the steps reach every
# partition branch and at least two recursion levels.
BRANCH_CORPUS = [
    ("caterpillar:blobs=400,blob_size=2", 0.05, 0.05, 0),
    ("case2a", 0.3, 0.01, 1),
    ("barbell:k=16,bridges=1", 0.5, 1.0, 1),
    ("planted_cut:n=80,p=0.4,cross=3", 0.5, 1.0, 1),
]


def test_partition_branch_coverage(monkeypatch, case2a_graph):
    partition = dc.black_box_partition
    steps = []  # (graph, piece, delta, step)

    def recorded(g, piece, delta, **kwargs):
        step = partition(g, piece, delta, **kwargs)
        steps.append((g, piece, delta, step))
        return step

    monkeypatch.setattr(dc, "black_box_partition", recorded)
    for spec, delta, scale, seed in BRANCH_CORPUS:
        g = case2a_graph if spec == "case2a" else generate(spec, seed=seed)
        decompose(g, delta, seed=seed, threshold_scale=scale)

    # decompose hands each C3-2 cluster's rows to the next level
    level_of = {}
    levels = set()
    branches = set()
    for g, piece, delta, step in steps:
        level = level_of.setdefault(piece.tobytes(), 0)
        levels.add(level)
        for c in step.clusters:
            level_of[c.edges.tobytes()] = level + 1
        branches |= {w["kind"] for w in step.witnesses}
        branches |= {c.status for c in step.clusters}
        _check_step_invariants(g, piece, delta, step)
    assert branches == {"C3-2", "case1", "case2a", "case2b", "C3-1"}
    assert max(levels) >= 2


def test_removal_ledger_fires_after_a_cut(monkeypatch):
    g = gen_barbell(16, 1)
    monkeypatch.setattr(dc, "LEDGER_FACTOR", 1e6)
    with pytest.raises(AssertionError, match="removal ledger"):
        black_box_partition(g, g.edge_list(), 0.5, seed=1)


def test_partition_runs_one_bfs_per_split_component(monkeypatch):
    # the case1 pin's input: each diameter cut reads the levels its piece
    # got at Split-1 instead of running the wave again
    components, waves = [], []
    split, bfs = dc.edge_components, dc.bfs_levels

    def counted_split(piece):
        parts = list(split(piece))
        components.extend(cg.n for cg, _ in parts)
        return parts

    def counted_bfs(g, root):
        waves.append(g.n)
        return bfs(g, root)

    monkeypatch.setattr(dc, "edge_components", counted_split)
    monkeypatch.setattr(dc, "bfs_levels", counted_bfs)
    g = generate("caterpillar:blobs=400,blob_size=2", seed=0)
    d, _ = decompose(g, 0.05, seed=0, threshold_scale=0.05)
    assert [w["kind"] for w in d.certificates["witnesses"]] == ["case1"] * 4
    assert waves == components


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_clique_one_cluster():
    g = gen_clique(64)
    deco, transcript = decompose(g, 0.5)
    assert list(deco.clusters) == [1]
    assert deco.clusters[1] == frozenset(range(64))
    assert deco.em[1].tolist() == [list(e) for e in g.edges()]
    assert deco.es == {} and len(deco.er) == 0
    assert transcript.rounds > 0
    assert "partition:nibble" in transcript.phases
    report = verify_decomposition(g, 0.5, deco)
    assert report.ok and not report.flags


@pytest.mark.parametrize(
    "spec, delta", [("er:n=500,p=0.05", 0.5), ("barbell:k=16,bridges=1", 0.5), ("case2a", 0.3)]
)
def test_decompose_lists_es_and_er_as_the_lexsort_oracle(monkeypatch, case2a_graph, spec, delta):
    # E_s per owner, ascending, each owner's rows sorted; E_r sorted: the
    # partition steps' rows put in that order by lexsort
    partition = dc.black_box_partition
    steps = []

    def recorded(g, piece, delta, **kwargs):
        steps.append(partition(g, piece, delta, **kwargs))
        return steps[-1]

    monkeypatch.setattr(dc, "black_box_partition", recorded)
    g = case2a_graph if spec == "case2a" else generate(spec, seed=1)
    scale = 0.01 if spec == "case2a" else 1.0
    deco, _ = decompose(g, delta, seed=1, threshold_scale=scale)
    rows = np.concatenate([s.es_new[0] for s in steps])
    owners = np.concatenate([s.es_new[1] for s in steps])
    order = np.lexsort((rows[:, 1], rows[:, 0], owners))
    expect = {}
    for v, row in zip(owners[order].tolist(), rows[order].tolist()):
        expect.setdefault(v, []).append(row)
    assert {v: part.tolist() for v, part in deco.es.items()} == expect
    assert list(deco.es) == sorted(expect)
    er = np.concatenate([s.er_new for s in steps])
    assert deco.er.tolist() == er[np.lexsort((er[:, 1], er[:, 0]))].tolist()


def test_decompose_builds_each_piece_graph_once(monkeypatch):
    # one graph for the single Split-1 component, which the empty peel and
    # the walk search reuse, and one for the verifier's cluster check
    g = gen_clique(16)
    built = []
    init = Graph.__init__

    def counted(self, n, edges):
        built.append(n)
        init(self, n, edges)

    monkeypatch.setattr(Graph, "__init__", counted)
    deco, _ = decompose(g, 0.5, seed=1)
    assert list(deco.clusters) == [1]
    assert built == [16, 16]


def test_decompose_path_all_sparse():
    g = gen_path(100)
    deco, _ = decompose(g, 0.5)
    assert deco.em == {} and len(deco.er) == 0
    assert sum(len(p) for p in deco.es.values()) == 99
    assert max(len(p) for p in deco.es.values()) <= 2
    # edges go to their smaller endpoint, so arrows climb the path
    assert list(deco.es) == sorted(deco.es)
    for v, part in deco.es.items():
        assert (part.min(axis=1) == v).all()
    assert verify_decomposition(g, 0.5, deco).ok


def test_decompose_random_tree_all_sparse():
    rng = random.Random(11)
    n = 200
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    g = Graph(n, edges)
    deco, _ = decompose(g, 0.5)
    assert deco.em == {} and len(deco.er) == 0
    assert sum(len(p) for p in deco.es.values()) == n - 1
    assert verify_decomposition(g, 0.5, deco).ok


def test_decompose_dense_er_single_cluster():
    g = gen_er(512, 0.25, seed=1)
    deco, _ = decompose(g, 0.5)
    assert list(deco.clusters) == [1]
    assert len(deco.em[1]) == g.m
    assert len(deco.er) == 0
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
    assert deco.er.tolist() == [[0, 16]]
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


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
def test_decompose_refuses_a_non_positive_or_non_finite_scale(scale):
    with pytest.raises(GraphError, match="threshold_scale must be a positive finite number"):
        decompose(gen_clique(4), 0.5, threshold_scale=scale)


def test_decompose_empty_graph():
    g = Graph(5, [])
    deco, transcript = decompose(g, 0.5)
    assert deco.em == {} and deco.es == {} and len(deco.er) == 0
    assert transcript.rounds == 0


# ---------------------------------------------------------------------------
# verifier tampering
# ---------------------------------------------------------------------------


# A tampered decomposition takes the path of a tampered report: edit the
# as_json() dict, then read it back with decomposition_from_json.


def _tampered(g, delta, edit, seed=0):
    deco, _ = decompose(g, delta, seed=seed)
    doc = deco.as_json()
    edit(doc)
    return verify_decomposition(g, delta, decomposition_from_json(doc))


def test_verifier_catches_excess_removals():
    def move(doc):
        moved = 0
        for v in sorted(doc["es"], key=int):
            while doc["es"][v] and moved <= 17:
                doc["er"].append(doc["es"][v].pop())
                moved += 1
        doc["es"] = {v: p for v, p in doc["es"].items() if p}

    g = gen_path(100)
    report = _tampered(g, 0.5, move)
    assert report.checks["removed-fraction"] is False
    assert not report.ok


def test_verifier_catches_broken_cluster():
    def cut_out_0(doc):
        (cluster,) = doc["clusters"]
        doc["er"] += [e for e in cluster["edges"] if 0 in e]
        cluster["edges"] = [e for e in cluster["edges"] if 0 not in e]

    g = gen_clique(64)
    report = _tampered(g, 0.5, cut_out_0)
    assert report.checks["clusters-connected"] is False
    assert not report.ok


def test_verifier_fails_a_cluster_listed_without_edges():
    def empty(doc):
        cluster = doc["clusters"][1]
        doc["er"] += cluster["edges"]
        cluster["edges"] = []

    report = _tampered(gen_barbell(16, 1), 0.5, empty, seed=3)
    assert report.checks["clusters-connected"] is False
    assert report.checks["partition"] is True


def test_verifier_catches_orientation_cycle():
    def turn(doc):
        doc["es"]["0"].remove([0, 7])
        doc["es"].setdefault("7", []).append([0, 7])
        doc["es"] = {v: p for v, p in doc["es"].items() if p}

    g = gen_cycle(8)
    deco, _ = decompose(g, 0.5)
    assert [0, 7] in deco.es[0].tolist()
    report = _tampered(g, 0.5, turn)
    assert report.checks["orientation"] is False
    assert "orientation contains a directed cycle" in report.failures[0]


def test_verifier_catches_merged_clusters():
    def merge(doc):
        one, two = doc["clusters"]
        doc["clusters"] = [
            {
                "id": 1,
                "vertices": one["vertices"] + two["vertices"],
                "edges": one["edges"] + two["edges"],
            }
        ]

    g = gen_barbell(16, 1)
    deco, _ = decompose(g, 0.5, seed=3)
    assert sorted(deco.clusters) == [1, 2]
    report = _tampered(g, 0.5, merge, seed=3)
    assert report.checks["clusters-connected"] is False
    assert report.checks["cluster-mixing"] is False
    assert "cluster 1: disconnected, mixing undefined" in report.flags
    assert not report.ok


def test_verifier_catches_sparse_edge_not_in_graph():
    g = gen_path(100)
    report = _tampered(g, 0.5, lambda doc: doc["es"].setdefault("10", []).append([10, 50]))
    assert report.checks["orientation"] is False
    assert any("edge (10, 50) not in graph" in f for f in report.failures)
    assert not report.ok


NO_EDGES = np.empty((0, 2), dtype=np.int64)


def _count_exact_mixing(monkeypatch):
    calls = []

    def counted(sub):
        calls.append(sub.n)
        return mixing_time_exact(sub)

    monkeypatch.setattr(dc, "mixing_time_exact", counted)
    return calls


@pytest.mark.parametrize(
    "host_n, mixing_flags, exact_calls",
    [
        # cap 1296 < exact t 1746: the exact path fails it
        (64, ["cluster 1: mixing above 1296"], [60]),
        (128, [], [60]),  # cap 2401 < t_spec: the bound cannot decide
        (200, [], []),  # t_spec <= cap 3414: certified without powering
    ],
)
def test_verifier_mixing_certificate_on_c60(monkeypatch, host_n, mixing_flags, exact_calls):
    cycle = gen_cycle(60)._edge_array()
    g = Graph(host_n, cycle)
    deco = Decomposition(0.5, host_n ** 0.5, {1: cycle}, {}, NO_EDGES,
                         {1: frozenset(range(60))})
    sub = gen_cycle(60)
    t_spec = mixing_time_bound(sub, lambda2_normalized(sub))
    assert mixing_time_exact(sub) == 1746
    assert 2401 < t_spec <= 3414
    calls = _count_exact_mixing(monkeypatch)
    report = verify_decomposition(g, 0.5, deco)
    assert report.checks["cluster-mixing"] is (not mixing_flags)
    assert [f for f in report.flags if "mixing" in f] == mixing_flags
    assert calls == exact_calls


def _hypercube_pair(d):
    """Two copies of the d-cube joined by the single edge (0, 2^d)."""
    n = 1 << d
    cube = gen_hypercube(d).edge_list()
    return Graph(2 * n, cube + [(a + n, b + n) for a, b in cube] + [(0, n)])


@pytest.mark.parametrize(
    "g, mixing_flags",
    [
        (gen_hypercube(11), []),  # t_spec 160 <= cap 14641
        # t_spec 191909 > cap 14641, and no exact path above 2000 vertices
        (_hypercube_pair(10), ["cluster 1: mixing not certified above 2000 vertices"]),
    ],
    ids=["hypercube-11", "hypercube-10-pair"],
)
def test_verifier_mixing_above_exact_limit(monkeypatch, g, mixing_flags):
    assert g.n == 2048
    deco = Decomposition(0.15, g.n ** 0.15, {1: g._edge_array()}, {}, NO_EDGES,
                         {1: frozenset(range(g.n))})
    calls = _count_exact_mixing(monkeypatch)
    report = verify_decomposition(g, 0.15, deco)
    assert report.checks["cluster-mixing"] is (not mixing_flags)
    assert report.flags == mixing_flags
    assert report.ok is (not mixing_flags)
    assert calls == []


def test_decompose_certifies_mixing_without_powering(monkeypatch):
    calls = _count_exact_mixing(monkeypatch)
    deco, _ = decompose(gen_er(200, 0.2, seed=2), 0.5, seed=2)
    assert list(deco.clusters) == [1]
    assert calls == []


@pytest.mark.parametrize(
    "spec",
    [
        "planted_cut:n=300,p=0.2,cross=4",
        "caterpillar:blobs=8,blob_size=60",
        "barbell:k=100,bridges=1",
    ],
)
def test_mixing_bound_dominates_exact_on_clustered_specs(spec):
    deco, _ = decompose(generate(spec, seed=1), 0.5, seed=1)
    assert len(deco.em) >= 2
    for edges in deco.em.values():
        sub, _ = subgraph_from_edges(edges)
        t_spec = mixing_time_bound(sub, lambda2_normalized(sub))
        assert t_spec >= mixing_time_exact(sub)


def test_phi_star_is_tiny_but_positive():
    f = phi_star(2016, 2016)
    assert 0 < f < 1e-6


def test_dense_decompose_reads_no_per_vertex_view(monkeypatch):
    # the partition, the peel, the verifier and the report all read CSR
    # and edge arrays, never edge tuples
    def refused(self, *args):
        raise AssertionError("edge tuples were read")

    monkeypatch.setattr(Graph, "edges", refused)
    g = gen_er(300, 0.3, seed=1)
    deco, _ = decompose(g, 0.5, seed=1)
    assert list(deco.clusters) == [1]
    assert len(deco.as_json()["clusters"][0]["edges"]) == g.m
    assert verify_decomposition(g, 0.5, deco).ok


# ---------------------------------------------------------------------------
# array peel against the set-based peel
# ---------------------------------------------------------------------------


def _oracle_peel(g, threshold):
    """The set-based peel: one Python set per vertex, passes over range(n)."""
    adj = [set(a) for a in oracle_adj(g.n, g.edges())]
    es_parts = {}
    iterations = 0
    while True:
        z = [v for v in range(g.n) if 1 <= len(adj[v]) <= threshold]
        if not z:
            break
        iterations += 1
        for v in z:
            for u in sorted(adj[v]):
                es_parts.setdefault(v, []).append(edge_key(u, v))
                adj[u].discard(v)
            adj[v] = set()
        if len(z) <= threshold / 2.0:
            break
    remaining = sorted({edge_key(u, v) for v in range(g.n) for u in adj[v]})
    return remaining, es_parts, iterations


PEEL_SPECS = [
    "path:n=300",
    "star:n=40",
    "cycle:n=50",
    "hypercube:d=6",
    "barbell:k=12,bridges=3",
    "caterpillar:blobs=30,blob_size=4",
    "planted_cut:n=60,p=0.15,cross=5",
    "er:n=300,p=0.01",
    "er:n=200,p=0.03",
    "er:n=120,p=0.08",
    "er:n=1600,p=0.1",
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("spec", PEEL_SPECS)
def test_array_peel_matches_the_set_peel(spec, seed):
    g = generate(spec, seed=seed)
    for threshold in (1, 1.4, 2, 3, 4, 6, 10, g.n ** 0.3, g.n ** 0.5):
        res = low_degree_peel(g, threshold)
        remaining, es_parts, iterations = _oracle_peel(g, threshold)
        assert res.iterations == iterations
        assert res.kept.tolist() == [list(e) for e in remaining]
        # each owner's block, in the order the oracle first filed it
        assert res.owners.tolist() == [v for v, part in es_parts.items() for _ in part]
        assert res.peeled.tolist() == [list(e) for part in es_parts.values() for e in part]


# ---------------------------------------------------------------------------
# verifier: ids outside the graph
# ---------------------------------------------------------------------------


def test_verifier_rejects_an_id_that_aliases_a_key():
    # (0, 65) has the key 0 * 60 + 65 of (1, 5) on 60 vertices
    g = gen_path(60)
    report = _tampered(g, 0.5, lambda doc: doc["er"].append([0, 65]))
    assert report.checks["partition"] is False


def test_verifier_rejects_an_alias_in_place_of_an_edge():
    # (9, 71) stands in for the path edge (10, 11): both have the key 611,
    # so only the range check tells them apart
    def swap(doc):
        owner = next(v for v, part in doc["es"].items() if [10, 11] in part)
        doc["es"][owner].remove([10, 11])
        doc["er"].append([9, 71])

    g = gen_path(60)
    report = _tampered(g, 0.5, swap)
    assert report.checks["partition"] is False
    assert report.checks["removed-fraction"] is True


def test_verifier_rejects_a_cluster_edge_swapped_for_a_non_edge():
    g = gen_barbell(16, 1)
    assert 17 not in oracle_adj(g.n, g.edges())[0]
    deco, _ = decompose(g, 0.5, seed=3)
    doc = deco.as_json()
    edges = next(c["edges"] for c in doc["clusters"] if [0, 1] in c["edges"])
    edges[edges.index([0, 1])] = [0, 17]
    deco = decomposition_from_json(doc)
    report = verify_decomposition(g, 0.5, deco)
    assert sum(map(len, deco.em.values())) + len(deco.er) + sum(
        map(len, deco.es.values())
    ) == g.m
    assert report.checks["partition"] is False
    assert not report.ok


@pytest.mark.parametrize("big", [10 ** 30, 2 ** 63])
@pytest.mark.parametrize("label", ["em", "es", "er"])
@pytest.mark.parametrize("spec", ["path:n=60", "barbell:k=16,bridges=1"])
def test_verifier_reports_ids_past_int64(spec, label, big):
    g = generate(spec, seed=3)
    deco, _ = decompose(g, 0.5, seed=3)
    doc = deco.as_json()
    e = (big, big + 1)
    if label == "em":
        if not doc["clusters"]:
            doc["clusters"].append({"id": 1, "vertices": list(e), "edges": []})
        doc["clusters"][0]["edges"].append(list(e))
    elif label == "es":
        doc["es"][str(big)] = [list(e)]
    else:
        doc["er"].append(list(e))
    deco = decomposition_from_json(json.loads(json.dumps(doc)))
    # the reader keeps each id at its value, in rows of Python ints
    rows = {"em": lambda: deco.em[1], "es": lambda: deco.es[big], "er": lambda: deco.er}[label]()
    assert rows.dtype == object and tuple(rows[-1]) == e
    report = verify_decomposition(g, 0.5, deco)
    assert report.checks["partition"] is False
    assert not report.ok
    if label == "es":
        assert any(f"edge {e} not in graph" in f for f in report.failures)


@pytest.mark.parametrize(
    "spec, seed, delta, scale",
    [(spec, seed, 0.5, 1.0) for spec, seed in sorted(DECOMPOSE_GOLDEN)]
    + [("caterpillar:blobs=400,blob_size=2", 0, 0.05, 0.05), ("case2a", 1, 0.3, 0.01)],
)
def test_report_round_trip_gives_the_same_arrays(spec, seed, delta, scale, case2a_graph):
    g = case2a_graph if spec == "case2a" else generate(spec, seed=seed)
    d, _ = decompose(g, delta, seed=seed, threshold_scale=scale)
    back = decomposition_from_json(json.loads(json.dumps(d.as_json())))
    for got, want in ((back.em, d.em), (back.es, d.es)):
        assert list(got) == list(want)
        for key in want:
            assert got[key].dtype == np.int64 and np.array_equal(got[key], want[key])
    assert back.er.dtype == np.int64 and np.array_equal(back.er, d.er)
    assert back.as_json() == d.as_json()
    assert verify_decomposition(g, delta, back) == verify_decomposition(g, delta, d)
