"""Graph core: cut arithmetic, oracles, generators, file format."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestlab import graphcore as gc


def random_graph(n, p, seed):
    return gc.gen_er(n, p, seed=seed)


# ---------------------------------------------------------------------------
# Graph type invariants
# ---------------------------------------------------------------------------


def test_graph_rejects_self_loop():
    with pytest.raises(gc.GraphError):
        gc.Graph(3, [(0, 0)])


def test_graph_rejects_duplicate_edge():
    with pytest.raises(gc.GraphError):
        gc.Graph(3, [(0, 1), (1, 0)])


def test_graph_rejects_out_of_range():
    with pytest.raises(gc.GraphError):
        gc.Graph(2, [(0, 2)])


def test_adjacency_sorted_and_symmetric():
    g = gc.gen_er(40, 0.2, seed=7)
    for v in range(g.n):
        assert list(g.adj[v]) == sorted(g.adj[v])
        for u in g.adj[v]:
            assert v in g.adj[u]
    assert sum(g.deg) == 2 * g.m


# ---------------------------------------------------------------------------
# volume / boundary / conductance
# ---------------------------------------------------------------------------


def test_volume_examples():
    k4 = gc.gen_clique(4)
    assert gc.volume(k4, {0}) == 3
    p3 = gc.gen_path(3)
    assert gc.volume(p3, {1}) == 2
    assert gc.volume(k4, set()) == 0


def test_boundary_examples():
    k4 = gc.gen_clique(4)
    assert len(gc.boundary(k4, {0})) == 3
    assert gc.boundary(k4, set(range(4))) == []
    bar = gc.gen_barbell(4, 1)
    assert gc.boundary(bar, {0, 1, 2, 3}) == [(0, 4)]


def test_conductance_examples():
    k4 = gc.gen_clique(4)
    assert gc.conductance(k4, {0}).phi == 1
    bar = gc.gen_barbell(4, 1)
    cut = gc.conductance(bar, {0, 1, 2, 3})
    assert cut.phi == Fraction(1, 13)
    assert cut.vol_side == 13
    c8 = gc.gen_cycle(8)
    assert gc.conductance(c8, {0, 1, 2, 3}).phi == Fraction(1, 4)


def test_conductance_rejects_degenerate_sides():
    k4 = gc.gen_clique(4)
    with pytest.raises(gc.GraphError):
        gc.conductance(k4, set())
    with pytest.raises(gc.GraphError):
        gc.conductance(k4, {0, 1, 2, 3})


def test_conductance_exact_identity_random():
    # phi * min(vol, vol_complement) == boundary size, as exact rationals
    for seed in range(12):
        g = random_graph(18, 0.3, seed)
        if g.m == 0:
            continue
        rng = np.random.default_rng(seed)
        s = {int(v) for v in rng.choice(g.n, size=rng.integers(1, g.n), replace=False)}
        if len(s) in (0, g.n) or gc.volume(g, s) == 0 or gc.volume(g, s) == 2 * g.m:
            continue
        cut = gc.conductance(g, s)
        assert cut.phi * min(cut.vol_side, cut.vol_complement) == cut.boundary_size


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_conductance_singleton_property(n, seed):
    g = gc.gen_er(n, 0.6, seed=seed)
    if g.deg[0] == 0 or g.m == 0 or 2 * g.m == g.deg[0]:
        return
    cut = gc.conductance(g, {0})
    assert cut.boundary_size == g.deg[0]
    assert 0 <= cut.phi <= 1


# ---------------------------------------------------------------------------
# sparsest cut oracle
# ---------------------------------------------------------------------------


def test_sparsest_cut_k4():
    cut = gc.sparsest_cut_bruteforce(gc.gen_clique(4))
    assert cut.phi == Fraction(2, 3)
    assert sorted(cut.side) == [0, 1]


def test_sparsest_cut_barbell():
    cut = gc.sparsest_cut_bruteforce(gc.gen_barbell(4, 1))
    assert cut.phi == Fraction(1, 13)
    assert sorted(cut.side) == [0, 1, 2, 3]


def test_sparsest_cut_k2():
    cut = gc.sparsest_cut_bruteforce(gc.gen_clique(2))
    assert cut.phi == 1


def test_sparsest_cut_k8_half():
    cut = gc.sparsest_cut_bruteforce(gc.gen_clique(8))
    assert cut.phi == Fraction(4, 7)  # 16 boundary edges over volume 28


def test_sparsest_cut_size_guard():
    with pytest.raises(gc.GraphError):
        gc.sparsest_cut_bruteforce(gc.gen_er(25, 0.5, seed=0))


def test_sparsest_cut_matches_naive_enumeration():
    from itertools import combinations

    for seed in (0, 1, 2):
        g = random_graph(9, 0.4, seed)
        if g.m == 0:
            continue
        best = None
        for k in range(1, g.n):
            for combo in combinations(range(g.n), k):
                s = set(combo)
                vol = gc.volume(g, s)
                if vol == 0 or vol == 2 * g.m:
                    continue
                cut = gc.conductance(g, s)
                key = (cut.phi, tuple(sorted(min(s, set(range(g.n)) - s, key=sorted))))
                if best is None or cut.phi < best.phi:
                    best = cut
        got = gc.sparsest_cut_bruteforce(g)
        assert got.phi == best.phi


def test_sparsest_cut_tiebreak_lexicographic():
    # C4 has several phi = 1/2 cuts; the lex-smallest side is {0, 1}
    cut = gc.sparsest_cut_bruteforce(gc.gen_cycle(4))
    assert cut.phi == Fraction(1, 2)
    assert sorted(cut.side) == [0, 1]


# ---------------------------------------------------------------------------
# mixing time oracle
# ---------------------------------------------------------------------------


def test_mixing_k2():
    assert gc.mixing_time_exact(gc.gen_clique(2)) == 1


def test_mixing_k4():
    assert gc.mixing_time_exact(gc.gen_clique(4)) == 3


def test_mixing_c64_frozen():
    val = gc.mixing_time_exact(gc.gen_cycle(64))
    assert val == 2013
    assert 64 * 64 / 4 <= val <= 64 * 64


def test_mixing_disconnected_errors():
    g = gc.Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(gc.GraphError):
        gc.mixing_time_exact(g)


def test_mixing_monotone_after_threshold():
    for spec in ("clique:n=5", "cycle:n=9", "hypercube:d=3"):
        g = gc.generate(spec)
        t = gc.mixing_time_exact(g)
        assert not gc.mixing_time_check(g, t - 1) if t > 1 else True
        for t2 in range(t, 2 * t + 1):
            assert gc.mixing_time_check(g, t2)


def test_mixing_time_bound_dominates_exact():
    graphs = [gc.gen_clique(n) for n in (2, 3, 5, 30)]
    graphs += [gc.gen_cycle(n) for n in (9, 20, 31)]
    graphs += [gc.gen_hypercube(5)]
    graphs += [random_graph(60, 0.15, seed) for seed in range(3)]
    graphs += [random_graph(200, 0.2, 1)]
    for g in graphs:
        assert gc.is_connected(g)
        t_spec = gc.mixing_time_bound(g, gc.lambda2_normalized(g))
        assert t_spec >= gc.mixing_time_exact(g)


def test_mixing_time_bound_cannot_decide_without_a_gap():
    g = gc.Graph(4, [(0, 1), (2, 3)])
    assert gc.mixing_time_bound(g, gc.lambda2_normalized(g)) == math.inf
    assert gc.mixing_time_bound(gc.gen_clique(4), 0.0) == math.inf
    # an isolated vertex has stationary mass 0 and lambda2 0
    g = gc.Graph(3, [(0, 1)])
    assert gc.mixing_time_bound(g, gc.lambda2_normalized(g)) == math.inf
    # K2 mixes in one lazy step; lambda2 = 2 must not break the logarithm
    assert gc.mixing_time_bound(gc.gen_clique(2), 2.0) == 1


def test_stationarity_fixed_point():
    for seed in range(4):
        g = random_graph(30, 0.2, seed)
        if g.m == 0 or not gc.is_connected(g):
            continue
        t = g.lazy_walk_matrix()
        pi = np.array(g.deg, dtype=float) / (2 * g.m)
        assert np.abs(t @ pi - pi).max() <= 1e-12


def test_lazy_walk_symmetry_small_graphs():
    # p_t^v(u)/deg(u) == p_t^u(v)/deg(v) for all u, v and t <= 20
    for seed in range(5):
        g = random_graph(24, 0.25, seed)
        if g.m == 0:
            continue
        t = g.lazy_walk_matrix()
        degs = np.array(g.deg, dtype=float)
        degs[degs == 0] = 1.0
        cur = np.eye(g.n)
        for _ in range(20):
            cur = t @ cur
            rho = cur / degs[:, None]
            assert np.abs(rho - rho.T).max() <= 1e-12


def _is_canonical_csr(mat):
    # strictly increasing column indices in every row: sorted, no duplicates
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    same_row = rows[1:] == rows[:-1]
    return bool(np.all(np.diff(mat.indices)[same_row] > 0))


def test_walk_operators_match_dense_definitions():
    # T = (A D^-1 + I)/2 with mass kept at an isolated vertex, and
    # L = I - D^-1/2 A D^-1/2 with a zero row there; the walk's matvec
    # order follows the index order, so both must be canonical CSR
    graphs = [
        gc.gen_star(7),
        gc.gen_hypercube(3),
        gc.gen_barbell(5, 2),
        random_graph(30, 0.2, 4),
        gc.Graph(6, [(0, 1), (1, 2), (0, 2), (4, 5)]),  # vertex 3 isolated
    ]
    for g in graphs:
        a = np.zeros((g.n, g.n))
        for u, v in g.edges():
            a[u, v] = a[v, u] = 1.0
        deg = a.sum(axis=0)
        walk = np.diag(np.where(deg > 0, 0.5, 1.0))
        lap = np.diag((deg > 0).astype(float))
        for u, v in zip(*np.nonzero(a)):
            walk[u, v] = 0.5 / deg[v]
            lap[u, v] = -(1.0 / math.sqrt(deg[u])) * (1.0 / math.sqrt(deg[v]))
        got_walk = gc.lazy_walk_operator(g)
        got_lap = gc.normalized_laplacian(g)
        assert np.array_equal(got_walk.toarray(), walk)
        assert np.array_equal(got_lap.toarray(), lap)
        assert _is_canonical_csr(got_walk) and _is_canonical_csr(got_lap)
        assert got_walk.nnz == g.n + 2 * g.m
        assert got_lap.nnz == sum(1 for d in g.deg if d) + 2 * g.m


def test_lambda2_disconnected_above_dense_limit_is_zero():
    # two disjoint 10-cubes (2048 vertices) take the sparse path, where
    # Lanczos from the constant vector returned 0.2; one 11-cube keeps
    # its gap 2/11
    cube = gc.gen_hypercube(10)
    twins = gc.Graph(2048, list(cube.edges()) + [(u + 1024, v + 1024) for u, v in cube.edges()])
    assert gc.lambda2_normalized(twins) == 0.0
    assert gc.lambda2_normalized(gc.gen_hypercube(11)) == pytest.approx(2 / 11, abs=1e-9)


def test_cheeger_consistency_small():
    for seed in range(6):
        g = random_graph(12, 0.35, seed)
        if g.m == 0 or not gc.is_connected(g):
            continue
        phi = float(gc.sparsest_cut_bruteforce(g).phi)
        lam2 = gc.lambda2_normalized(g)
        assert lam2 / 2 <= phi + 1e-9
        assert phi <= math.sqrt(2 * lam2) + 1e-9


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_generate_clique():
    g = gc.generate("clique:n=4")
    assert g.n == 4 and g.m == 6


@pytest.mark.parametrize(
    "spec, name",
    [
        ("clique:n=4.5", "n"),
        ("cycle:n=6.5", "n"),
        ("path:n=3.2", "n"),
        ("star:n=5.5", "n"),
        ("hypercube:d=2.5", "d"),
        ("er:n=10.5,p=0.5", "n"),
        ("barbell:k=4.5", "k"),
        ("barbell:k=4,bridges=1.5", "bridges"),
        ("planted_cut:n=8,p=0.5,cross=2.5", "cross"),
        ("caterpillar:blobs=2.5,blob_size=3", "blobs"),
        ("caterpillar:blobs=2,blob_size=3.5", "blob_size"),
        ("clique:n=1e999", "n"),
    ],
)
def test_generate_rejects_fractional_counts(spec, name):
    with pytest.raises(gc.GraphError, match=f"'{name}' must be a whole number"):
        gc.generate(spec)


def test_generate_accepts_whole_float_counts():
    assert gc.generate("clique:n=4.0").m == 6
    assert gc.generate("clique", n=4.0).m == 6


@pytest.mark.parametrize(
    "spec, kwargs, name",
    [
        ("barbell:k=10,bridge=3", {}, "bridge"),
        ("clique:n=5,m=3", {}, "m"),
        ("er:n=10,p=0.5,keep_isolated=0", {}, "keep_isolated"),
        ("hypercube:d=3,n=8", {}, "n"),
        ("caterpillar", {"blobs": 3, "blob_size": 3, "size": 1}, "size"),
        ("planted_cut:n=8,p=0.5,cross=2,x=1,y=2", {}, "x"),
    ],
)
def test_generate_rejects_unknown_parameters(spec, kwargs, name):
    with pytest.raises(gc.GraphError, match=f"takes no parameter '{name}'"):
        gc.generate(spec, **kwargs)


def test_generate_hypercube():
    g = gc.generate("hypercube:d=3")
    assert g.n == 8 and g.m == 12
    assert all(d == 3 for d in g.deg)


def test_generate_er_frozen_edge_count():
    g = gc.gen_er(100, 0.3, seed=1)
    assert g.m == 1496
    assert 1044 <= g.m <= 1926  # +-6 sigma window around np(n-1)/2


def test_generate_deterministic():
    a = gc.gen_er(60, 0.2, seed=5)
    b = gc.gen_er(60, 0.2, seed=5)
    assert a.edge_list() == b.edge_list()
    c = gc.gen_er(60, 0.2, seed=6)
    assert a.edge_list() != c.edge_list()


def test_generate_planted_cut_budget():
    g = gc.gen_planted_cut(20, 0.4, 5, seed=9)
    cross = [e for e in g.edges() if (e[0] < 20) != (e[1] < 20)]
    assert len(cross) == 5
    assert g.n == 40


def test_generate_barbell_structure():
    g = gc.gen_barbell(4, 1)
    assert g.n == 8 and g.m == 13
    assert gc.conductance(g, set(range(4))).phi == Fraction(1, 13)


def test_generate_caterpillar():
    g = gc.gen_caterpillar(5, 3)
    assert g.n == 15
    assert g.m == 5 * 3 + 4
    assert max(gc.bfs_levels(g, 0)) >= 8


def test_generate_star():
    g = gc.gen_star(5)
    assert g.deg[0] == 4 and all(g.deg[v] == 1 for v in range(1, 5))


def test_generator_spec_errors():
    with pytest.raises(gc.GraphError):
        gc.generate("torus:n=3")
    with pytest.raises(gc.GraphError):
        gc.generate("er:n=10,p=2.0")
    with pytest.raises(gc.GraphError):
        gc.parse_generator_spec("er:n=")


# ---------------------------------------------------------------------------
# orientation verifier
# ---------------------------------------------------------------------------


def test_orientation_star_leaves_pass():
    g = gc.gen_star(5)
    owned = {leaf: [(0, leaf)] for leaf in range(1, 5)}
    rep = gc.verify_orientation(g, owned, cap=1)
    assert rep.ok


def test_orientation_cycle_fails():
    g = gc.gen_clique(3)
    owned = {0: [(0, 1)], 1: [(1, 2)], 2: [(0, 2)]}
    rep = gc.verify_orientation(g, owned, cap=5)
    assert not rep.ok
    assert any("cycle" in v for v in rep.violations)


def test_orientation_cap_fails():
    g = gc.gen_star(5)
    owned = {0: [(0, leaf) for leaf in range(1, 5)]}
    rep = gc.verify_orientation(g, owned, cap=3)
    assert not rep.ok
    assert any("cap" in v for v in rep.violations)


def test_orientation_double_ownership_fails():
    g = gc.gen_clique(3)
    owned = {0: [(0, 1)], 1: [(0, 1)]}
    rep = gc.verify_orientation(g, owned, cap=5)
    assert not rep.ok


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------


def test_edge_list_roundtrip(tmp_path):
    g = gc.gen_er(30, 0.2, seed=3)
    path = tmp_path / "g.edges"
    gc.save_edge_list(g, path)
    h = gc.load_edge_list(path)
    assert h.n == g.n and h.edge_list() == g.edge_list()


def test_edge_list_comments_and_blanks():
    g = gc.parse_edge_list("# header\n0 1\n\n1 2  # trailing\n")
    assert g.edge_list() == [(0, 1), (1, 2)]


def test_edge_list_rejects_self_loop_with_line():
    with pytest.raises(gc.GraphError, match="line 2"):
        gc.parse_edge_list("0 1\n3 3\n")


def test_edge_list_rejects_duplicate_with_line():
    with pytest.raises(gc.GraphError, match="line 3"):
        gc.parse_edge_list("0 1\n1 2\n1 0\n")


def test_edge_list_rejects_garbage():
    with pytest.raises(gc.GraphError, match="line 1"):
        gc.parse_edge_list("0 1 2\n")


# ---------------------------------------------------------------------------
# subgraph helpers
# ---------------------------------------------------------------------------


def test_induced_subgraph_monotone_relabel():
    g = gc.gen_clique(5)
    sub, old = gc.induced_subgraph(g, {1, 3, 4})
    assert old == [1, 3, 4]
    assert sub.n == 3 and sub.m == 3


def test_induced_subgraph_whole_vertex_set_is_the_graph():
    g = gc.gen_cycle(5)
    sub, old = gc.induced_subgraph(g, range(5))
    assert sub is g and old == [0, 1, 2, 3, 4]
    sub, old = gc.induced_subgraph(g, [0, 1, 2, 3])
    assert sub is not g and old == [0, 1, 2, 3]
    assert sub.edge_list() == [(0, 1), (1, 2), (2, 3)]
    # as many ids as vertices, but one lies outside 0..n-1
    for ids in ([0, 1, 2, 3, 5], [-1, 0, 1, 2, 3]):
        sub, old = gc.induced_subgraph(g, ids)
        assert sub is not g and old == ids
        assert sub.n == 5 and sub.m == 3


def test_edge_components_grouping():
    comps = gc.edge_components([(9, 8), (0, 1), (1, 2), (5, 6), (8, 5)])
    assert [old for _, old in comps] == [[0, 1, 2], [5, 6, 8, 9]]
    assert [c.edge_list() for c, _ in comps] == [
        [(0, 1), (1, 2)],
        [(0, 1), (0, 2), (2, 3)],
    ]
    (whole, old), = gc.edge_components([(4, 2), (2, 7)])
    assert old == [2, 4, 7] and whole.edge_list() == [(0, 1), (0, 2)]
    assert gc.edge_components([]) == []


def test_subgraph_from_edges():
    sub, old = gc.subgraph_from_edges([(4, 2), (2, 7)])
    assert old == [2, 4, 7]
    assert sub.edge_list() == [(0, 1), (0, 2)]
