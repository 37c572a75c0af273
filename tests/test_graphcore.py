"""Graph core: cut arithmetic, oracles, generators, file format."""

import math
import random
import re
import time
import warnings
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestlab import graphcore as gc
from conftest import oracle_adj


def random_graph(n, p, seed):
    return gc.gen_er(n, p, seed=seed)


def _rows(g):
    """g's CSR rows as lists."""
    return [g.indices[a:b].tolist() for a, b in zip(g.indptr, g.indptr[1:])]


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


def test_graph_holds_one_representation():
    # the CSR arrays and the degrees read off them; no second copy of the rows
    assert gc.Graph.__slots__ == ("n", "m", "deg", "indptr", "indices")


def test_graph_accepts_every_edge_container():
    g = gc.gen_er(30, 0.2, seed=3)
    es = g.edge_list()
    swapped = [(v, u) for u, v in es]
    for edges in (
        es,
        tuple(es),
        iter(es),
        (e for e in swapped),
        set(es),
        dict.fromkeys(swapped).keys(),
        [(np.int64(u), np.int32(v)) for u, v in es],
        np.array(swapped, dtype=np.uint16),
    ):
        h = gc.Graph(g.n, edges)
        assert (h.m, _rows(h), h.deg, h.edge_list()) == (g.m, oracle_adj(g.n, es), g.deg, es)
    assert gc.Graph(2, []).edge_list() == [] and gc.Graph(0, ()).n == 0


@pytest.mark.parametrize(
    "edges",
    [
        [0, 1, 1, 2],
        [(0, 1, 2), (0, 1, 2)],
        [(0, 1), (2,)],
        [(0, 1.0)],
        [(0.0, 1.0)],
        [("0", "1")],
        [(0, 1), None],
        [(0, 1), "12"],
        np.array([[0.0, 1.0]]),
    ],
)
@pytest.mark.parametrize(
    "build", [lambda es: gc.Graph(3, es), gc.subgraph_from_edges], ids=["graph", "sub"]
)
def test_graph_rejects_non_integer_pairs(edges, build):
    with pytest.raises(gc.GraphError, match="pairs? of integer vertex ids"):
        build(edges)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (3, 1)], "edge (3, 1) out of range for n=3"),
        ([(0, -1)], "edge (0, -1) out of range for n=3"),
        ([(0, 2 ** 70)], f"edge (0, {2 ** 70}) out of range for n=3"),
        (np.array([[0, 2 ** 63]], np.uint64), f"edge (0, {2 ** 63}) out of range for n=3"),
        (np.array([[2 ** 64 - 1, 1]], np.uint64), f"edge ({2 ** 64 - 1}, 1) out of range for n=3"),
        ([(0, 1), (2, 2)], "self-loop at vertex 2"),
        ([(2, 1), (0, 1), (1, 2)], "duplicate edge (1, 2)"),
        ([(np.int64(1), np.int64(0)), (0, 1)], "duplicate edge (0, 1)"),
        # the first faulty edge decides, whatever comes after it
        ([(0, 1), (1, 1), (0, 5), (1, 0)], "self-loop at vertex 1"),
        ([(0, 1), (1, 0), (1, 1), (0, 5)], "duplicate edge (0, 1)"),
        ([(0, 1), (0, 5), (1, 0), (1, 1)], "edge (0, 5) out of range for n=3"),
        ([(5, 5), (0, 1)], "edge (5, 5) out of range for n=3"),
        ([(1, 1), (0.5, 1)], "self-loop at vertex 1"),
        ([(0, 1), (1, 0), ("x", 1)], "duplicate edge (0, 1)"),
        # numpy reads uint64 beside int64 as float64: no integer array
        ([(np.uint64(0), np.int64(1))], "edge ids are not all of one integer type"),
    ],
)
def test_graph_names_the_first_faulty_edge(edges, message):
    with pytest.raises(gc.GraphError) as err:
        gc.Graph(3, edges)
    assert str(err.value) == message


def test_graph_vertex_count_limit():
    with pytest.raises(gc.GraphError, match="exceeds the limit"):
        gc.Graph(gc.MAX_VERTICES + 1, [])
    with pytest.raises(gc.GraphError, match="exceeds the limit"):
        gc.parse_edge_list(f"0 {gc.MAX_VERTICES}\n")


@pytest.mark.parametrize(
    "spec",
    [
        "path:n=1048577",
        "er:n=2000000,p=0",
        "clique:n=1048577",
        "hypercube:d=21",
        "hypercube:d=100000000",
        "barbell:k=524289",
        "planted_cut:n=524289,p=0,cross=0",
        "caterpillar:blobs=1025,blob_size=1024",
    ],
)
def test_generate_refuses_vertex_counts_above_the_limit_before_building(spec):
    start = time.process_time()
    with pytest.raises(gc.GraphError, match=f"more than {gc.MAX_VERTICES} vertices"):
        gc.generate(spec)
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize(
    "at_limit, above",
    [
        ("path:n=16", "path:n=17"),
        ("er:n=16,p=0.5", "er:n=17,p=0.5"),
        ("hypercube:d=4", "hypercube:d=5"),
        ("barbell:k=8", "barbell:k=9"),
        ("planted_cut:n=8,p=0.5,cross=3", "planted_cut:n=9,p=0.5,cross=3"),
        ("caterpillar:blobs=4,blob_size=4", "caterpillar:blobs=3,blob_size=6"),
    ],
)
def test_generate_vertex_limit_is_inclusive(monkeypatch, at_limit, above):
    monkeypatch.setattr(gc, "MAX_VERTICES", 16)
    assert gc.generate(at_limit, seed=1).n == 16
    with pytest.raises(gc.GraphError, match="more than 16 vertices"):
        gc.generate(above, seed=1)


def test_adjacency_sorted_and_symmetric():
    g = gc.gen_er(40, 0.2, seed=7)
    rows = _rows(g)
    assert rows == oracle_adj(g.n, g.edges())
    for v in range(g.n):
        assert rows[v] == sorted(rows[v])
        for u in rows[v]:
            assert v in rows[u]
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


@pytest.mark.parametrize("fn", [gc.volume, gc.boundary, gc.conductance])
@pytest.mark.parametrize("side", [{-1}, {5}, {7}, {0, -1}, {1, 2, 7}])
def test_cut_functions_reject_ids_outside_the_graph(fn, side):
    # star(5) has vertices 0..4: -1 once read as vertex 4 and 7 as an IndexError
    with pytest.raises(gc.GraphError, match=r"vertex (-1|5|7) is not in 0\.\.4"):
        fn(gc.gen_star(5), side)


def _oracle_cut(g, s):
    """The set-based cut: each member's neighbours outside s, read from the
    edge list; returns (volume, boundary edges)."""
    adj = oracle_adj(g.n, g.edges())
    vol = sum(len(adj[v]) for v in s)
    return vol, sorted({gc.edge_key(u, v) for v in s for u in adj[v] if u not in s})


@pytest.mark.parametrize("seed", range(8))
def test_cut_arithmetic_matches_the_set_count(seed):
    rng = np.random.default_rng(seed)
    g = gc.gen_er(int(rng.integers(2, 40)), float(rng.uniform(0.05, 0.5)), seed=seed)
    for _ in range(30):
        s = {int(v) for v in rng.choice(g.n, size=rng.integers(0, g.n + 1), replace=False)}
        vol, bnd = _oracle_cut(g, s)
        assert gc.volume(g, s) == vol
        assert gc.boundary(g, s) == bnd
        if not s or len(s) == g.n or min(vol, 2 * g.m - vol) == 0:
            with pytest.raises(gc.GraphError, match="empty side"):
                gc.conductance(g, s)
            continue
        cut = gc.conductance(g, s)
        assert (cut.side, cut.boundary_size, cut.vol_side, cut.vol_complement) == (
            frozenset(s), len(bnd), vol, 2 * g.m - vol
        )
        assert cut.phi == Fraction(len(bnd), min(vol, 2 * g.m - vol))


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


def mixing_time_check(g, t):
    """Does the Definition-1 inequality hold at exactly step t."""
    t_mat = gc.lazy_walk_operator(g).toarray()
    pi = np.array(g.deg, dtype=np.float64) / (2.0 * g.m)
    cur = np.linalg.matrix_power(t_mat, t)
    dev = np.abs(cur - pi[:, None]).max(axis=1)
    return bool(np.all(dev <= pi / g.n))


def test_mixing_monotone_after_threshold():
    for spec in ("clique:n=5", "cycle:n=9", "hypercube:d=3"):
        g = gc.generate(spec)
        t = gc.mixing_time_exact(g)
        assert not mixing_time_check(g, t - 1) if t > 1 else True
        for t2 in range(t, 2 * t + 1):
            assert mixing_time_check(g, t2)


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


def mixing_time_loop(g):
    """The Definition-1 scan one lazy step at a time from t = 1: the first
    t whose dense T^t has |T^t - pi| <= pi/n in every row."""
    t_mat = gc.lazy_walk_operator(g).toarray()
    pi = np.array(g.deg, dtype=np.float64) / (2.0 * g.m)
    tol = pi / g.n
    cur = np.eye(g.n)
    cap = min(max(1000, 40 * g.n * g.n), gc.MIXING_STEP_CAP)
    for t in range(1, cap + 1):
        cur = t_mat @ cur
        if bool(np.all(np.abs(cur - pi[:, None]).max(axis=1) <= tol)):
            return t
    raise gc.GraphError(f"mixing time exceeded step cap {cap}")


# Specs whose decomposition clusters join the mixing oracle's graphs, each
# at seeds 1-3: the triangle benchmark's three and two denser ones.
CLUSTER_SPECS = (
    "er:n=300,p=0.3",
    "planted_cut:n=200,p=0.3,cross=2",
    "planted_cut:n=300,p=0.2,cross=4",
    "caterpillar:blobs=8,blob_size=60",
    "barbell:k=100,bridges=1",
)


@pytest.fixture(scope="module")
def mixing_oracle():
    """[(name, graph, step-loop t)] over distinct connected graphs: small
    named ones, slow mixers and every cluster of CLUSTER_SPECS."""
    from congestlab.decomposition import decompose

    named = {f"K{n}": gc.gen_clique(n) for n in (2, 3, 4, 5, 6, 30)}
    named.update({f"C{n}": gc.gen_cycle(n) for n in (5, 6, 7, 9, 20, 31, 60, 64)})
    named.update({f"P{n}": gc.gen_path(n) for n in (3, 4, 10, 50)})
    named.update({f"star{n}": gc.gen_star(n) for n in (5, 12)})
    named.update({f"Q{d}": gc.gen_hypercube(d) for d in (2, 3, 4, 5)})
    named["barbell:k=16"] = gc.generate("barbell:k=16")
    named["barbell:k=5,bridges=2"] = gc.generate("barbell:k=5,bridges=2")
    for seed in range(10):
        named[f"er:n=40,p=0.2 s={seed}"] = gc.generate("er:n=40,p=0.2", seed=seed)
    for spec in CLUSTER_SPECS:
        for seed in (1, 2, 3):
            d, _ = decompose(gc.generate(spec, seed=seed), 0.5, seed=seed)
            for cid, rows in d.em.items():
                named[f"{spec} s={seed} cluster {cid}"] = gc._relabel(np.asarray(rows))[0]
    seen, out = set(), []
    for name, g in named.items():
        key = (g.n, g.indptr.tobytes(), g.indices.tobytes())
        if g.m and gc.is_connected(g) and key not in seen:
            seen.add(key)
            out.append((name, g, mixing_time_loop(g)))
    return out


def test_mixing_time_exact_matches_the_step_loop(mixing_oracle):
    assert len(mixing_oracle) >= 50
    for name, g, t in mixing_oracle:
        assert gc.mixing_time_exact(g) == t, name


def test_mixing_bounds_bracket_the_exact_time(mixing_oracle):
    for name, g, t in mixing_oracle:
        lam2 = gc.lambda2_normalized(g)
        assert gc.mixing_time_lower_bound(g, lam2) <= t <= gc.mixing_time_bound(g, lam2), name


@pytest.mark.parametrize("factor", [0.1, 10.0])
def test_a_wrong_lambda2_cannot_change_the_mixing_time(mixing_oracle, monkeypatch, factor):
    # a lambda2 10x too small puts t_low above t, one 10x too large puts
    # t_spec below it: the failed end check widens the bracket
    lambda2 = gc.lambda2_normalized
    monkeypatch.setattr(gc, "lambda2_normalized", lambda g: factor * lambda2(g))
    for name, g, t in mixing_oracle:
        assert gc.mixing_time_exact(g) == t, name


@pytest.mark.parametrize(
    "spec, cap, refused",
    [
        ("cycle:n=64", 100, True),
        ("cycle:n=20", 148, True),  # C20 mixes at 149
        ("cycle:n=20", 149, False),
        ("path:n=50", 4480, True),  # P50 mixes at 4481
        ("clique:n=30", 9, True),  # K30 mixes at 10
        ("clique:n=30", 10, False),
    ],
)
def test_mixing_step_cap_refuses_as_the_loop_does(monkeypatch, spec, cap, refused):
    g = gc.generate(spec)
    monkeypatch.setattr(gc, "MIXING_STEP_CAP", cap)
    try:
        want = mixing_time_loop(g)
    except gc.GraphError as exc:
        want = str(exc)
    try:
        got = gc.mixing_time_exact(g)
    except gc.GraphError as exc:
        got = str(exc)
    assert got == want
    assert (want == f"mixing time exceeded step cap {cap}") is refused


def test_stationarity_fixed_point():
    for seed in range(4):
        g = random_graph(30, 0.2, seed)
        if g.m == 0 or not gc.is_connected(g):
            continue
        t = gc.lazy_walk_operator(g).toarray()
        pi = np.array(g.deg, dtype=float) / (2 * g.m)
        assert np.abs(t @ pi - pi).max() <= 1e-12


def test_lazy_walk_symmetry_small_graphs():
    # p_t^v(u)/deg(u) == p_t^u(v)/deg(v) for all u, v and t <= 20
    for seed in range(5):
        g = random_graph(24, 0.25, seed)
        if g.m == 0:
            continue
        t = gc.lazy_walk_operator(g).toarray()
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
    # Lanczos from the constant vector returned 0.2, and so do two
    # 8-cubes, just above the dense limit; one 11-cube keeps its gap 2/11
    for d in (8, 10):
        cube = gc.gen_hypercube(d)
        half = cube.n
        twins = gc.Graph(2 * half, cube.edge_list() + [(u + half, v + half) for u, v in cube.edges()])
        assert twins.n > gc.LAMBDA2_DENSE_LIMIT
        assert gc.lambda2_normalized(twins) == 0.0
    assert gc.lambda2_normalized(gc.gen_hypercube(11)) == pytest.approx(2 / 11, abs=1e-9)


def _circulant(n, offsets):
    """The circulant graph on 0..n-1: i ~ i + o (mod n) for each offset o."""
    ids = np.arange(n)
    return gc.Graph(n, np.concatenate([np.column_stack((ids, (ids + o) % n)) for o in offsets]))


# Graphs above the dense limit, so lambda2 takes the deflated Lanczos path:
# a random graph, a 10-regular circulant with a tiny gap (lambda2 about
# 8.48e-5) and a 12-regular one with a wide gap (about 0.0912). On a
# regular graph the null vector D^1/2 1 is the constant vector.
LANCZOS_GRAPHS = {
    "er": lambda: gc.generate("er:n=1600,p=0.05", seed=1),
    "circulant-1..5": lambda: _circulant(1600, range(1, 6)),
    "circulant-7^k": lambda: _circulant(1600, [1, 7, 49, 343, 97, 531]),
}


@pytest.mark.parametrize("name", sorted(LANCZOS_GRAPHS))
def test_lambda2_above_the_dense_limit_matches_the_dense_solve(name):
    g = LANCZOS_GRAPHS[name]()
    dense = np.linalg.eigvalsh(gc.normalized_laplacian(g).toarray())[1]
    got = gc.lambda2_normalized(g)
    assert abs(got - dense) <= 1e-12
    assert gc.lambda2_normalized(g) == got  # a fixed start: the same value every call


def test_lambda2_lanczos_starts_off_the_null_vector(monkeypatch):
    # one plain Lanczos solve for the smallest eigenvalue of the deflated
    # operator, from a start vector orthogonal to the null vector; on a
    # regular graph a constant start would deflate to nothing
    import scipy.sparse.linalg as spla

    calls = []
    eigsh = spla.eigsh

    def recorded(a, **kwargs):
        calls.append(kwargs)
        return eigsh(a, **kwargs)

    monkeypatch.setattr(spla, "eigsh", recorded)
    g = LANCZOS_GRAPHS["circulant-1..5"]()
    gc.lambda2_normalized(g)
    (kwargs,) = calls
    assert "sigma" not in kwargs and kwargs["k"] == 1 and kwargs["which"] == "SA"
    v0 = kwargs["v0"]
    null = np.full(g.n, 1.0 / math.sqrt(g.n))
    assert np.linalg.norm(v0) >= 1.0
    assert abs(null @ v0) <= 1e-12 * np.linalg.norm(v0)


# Graphs just above LAMBDA2_DENSE_LIMIT: random ones, the planted-cut and
# caterpillar graphs whose walk cuts split them (tiny gaps), and the
# 9-cube, regular, where a constant start vector would be the null vector.
ABOVE_DENSE_LIMIT = {
    "er:n=401,p=0.05": lambda: gc.generate("er:n=401,p=0.05", seed=1),
    "er:n=450,p=0.3": lambda: gc.generate("er:n=450,p=0.3", seed=2),
    "planted_cut:n=300,p=0.2,cross=4": lambda: gc.generate("planted_cut:n=300,p=0.2,cross=4", seed=1),
    "planted_cut:n=210,p=0.3,cross=2": lambda: gc.generate("planted_cut:n=210,p=0.3,cross=2", seed=3),
    "caterpillar:blobs=8,blob_size=60": lambda: gc.generate("caterpillar:blobs=8,blob_size=60"),
    "caterpillar:blobs=7,blob_size=60": lambda: gc.generate("caterpillar:blobs=7,blob_size=60"),
    "hypercube:d=9": lambda: gc.gen_hypercube(9),
}


@pytest.mark.parametrize("name", sorted(ABOVE_DENSE_LIMIT))
def test_lambda2_lanczos_is_within_half_the_margin_above_the_dense_limit(name, monkeypatch):
    import scipy.sparse.linalg as spla

    g = ABOVE_DENSE_LIMIT[name]()
    assert gc.LAMBDA2_DENSE_LIMIT < g.n <= gc.LAMBDA2_DENSE_LIMIT + 200
    dense = np.linalg.eigvalsh(gc.normalized_laplacian(g).toarray())[1]
    calls = []
    eigsh = spla.eigsh

    def recorded(a, **kwargs):
        calls.append(kwargs)
        return eigsh(a, **kwargs)

    monkeypatch.setattr(spla, "eigsh", recorded)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)  # no dense solve above the limit
    assert abs(gc.lambda2_normalized(g) - dense) <= gc.LAMBDA2_MARGIN / 2
    assert calls[0]["tol"] == gc.LAMBDA2_MARGIN / 4


def _counted_solves(monkeypatch):
    """Count the solves behind lambda2_normalized and mixing_time_exact."""
    solves = {"lambda2": 0, "mixing": 0}
    for name, attr in (("lambda2", "_lambda2"), ("mixing", "_mixing_time")):
        solve = getattr(gc, attr)

        def counted(g, name=name, solve=solve):
            solves[name] += 1
            return solve(g)

        monkeypatch.setattr(gc, attr, counted)
    return solves


def test_spectral_memo_solves_byte_equal_graphs_once(monkeypatch):
    solves = _counted_solves(monkeypatch)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    want = gc.lambda2_normalized(gc.Graph(4, edges)), gc.mixing_time_exact(gc.Graph(4, edges))
    solves.update(lambda2=0, mixing=0)
    with gc._spectral_memo():
        # built separately, edges in another order: the same CSR bytes
        for g in (gc.Graph(4, edges), gc.Graph(4, [(v, u) for u, v in reversed(edges)])):
            assert (gc.lambda2_normalized(g), gc.mixing_time_exact(g)) == want
    assert solves == {"lambda2": 1, "mixing": 1}


def test_spectral_memo_keys_on_the_edges_not_the_sizes(monkeypatch):
    solves = _counted_solves(monkeypatch)
    cycle = gc.gen_cycle(5)
    swapped = gc.Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])  # (0, 4) -> (1, 4)
    assert (cycle.n, cycle.m) == (swapped.n, swapped.m)
    want = [(gc.lambda2_normalized(g), gc.mixing_time_exact(g)) for g in (cycle, swapped)]
    assert want[0] != want[1]
    solves.update(lambda2=0, mixing=0)
    with gc._spectral_memo():
        for _ in range(2):
            got = [(gc.lambda2_normalized(g), gc.mixing_time_exact(g)) for g in (cycle, swapped)]
            assert got == want
    assert solves == {"lambda2": 2, "mixing": 2}


def test_spectral_values_are_not_kept_outside_a_memo(monkeypatch):
    solves = _counted_solves(monkeypatch)
    g = gc.gen_cycle(6)
    with gc._spectral_memo():
        gc.lambda2_normalized(g)
        gc.mixing_time_exact(g)
    for _ in range(2):
        gc.lambda2_normalized(g)
        gc.mixing_time_exact(g)  # solves lambda2 again for its bracket
    assert solves == {"lambda2": 5, "mixing": 3}


def test_spectral_memo_raises_a_refusal_again(monkeypatch):
    solves = _counted_solves(monkeypatch)
    twins = gc.Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with gc._spectral_memo():
        for _ in range(2):
            with pytest.raises(gc.GraphError, match="graph is disconnected"):
                gc.mixing_time_exact(twins)
    assert solves["mixing"] == 2


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


@pytest.mark.parametrize(
    "spec, gen, name",
    [
        ("er:n=10", "er", "p"),
        ("barbell", "barbell", "k"),
        ("planted_cut:n=5,p=0.5", "planted_cut", "cross"),
    ],
)
def test_generate_names_missing_parameters(spec, gen, name):
    with pytest.raises(gc.GraphError, match=f"generator '{gen}' needs parameter '{name}'"):
        gc.generate(spec)


def test_generate_refuses_a_repeated_parameter():
    with pytest.raises(gc.GraphError, match="generator parameter 'n' is given twice"):
        gc.generate("er:n=10,n=20,p=0.5")
    with pytest.raises(gc.GraphError, match="'p' is given twice"):
        gc.parse_generator_spec("er:n=10,p=0.5,p=0.5")
    # keywords still override the spec's values
    assert gc.generate("er:n=10,p=0.5", n=12).n == 12


def test_generate_barbell_bridges_default_to_one():
    one = list(gc.generate("barbell:k=5,bridges=1").edges())
    assert list(gc.generate("barbell:k=5").edges()) == one
    assert list(gc.generate("barbell", k=5).edges()) == one


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


@pytest.mark.parametrize("p", [2.0, -1.0, 1.5, float("nan")])
def test_planted_cut_refuses_p_outside_unit_interval(p):
    with pytest.raises(gc.GraphError, match=r"p in \[0, 1\]"):
        gc.gen_planted_cut(10, p, 1, seed=1)


@pytest.mark.parametrize("k, bridges", [(1, 1), (1, 0), (5, 0), (5, 6)])
def test_barbell_error_names_its_check(k, bridges):
    with pytest.raises(gc.GraphError) as err:
        gc.gen_barbell(k, bridges)
    assert str(err.value) == "barbell needs k >= 2 and 1 <= bridges <= k"
    assert gc.gen_barbell(5, 1).m == 21 and gc.gen_barbell(5, 5).m == 25


# ---------------------------------------------------------------------------
# generators against their loop oracles
# ---------------------------------------------------------------------------


def _er_loop(rng, n, p, base=0):
    """One `rng.random()` per pair (i, j), i < j, in row-major order."""
    return [(base + i, base + j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def _oracle_generate(name, c, p, seed):
    """The loop generators: each graph's edges, as a list of pairs."""
    if name == "er":
        return _er_loop(gc._rng(seed, "er", c["n"], p), c["n"], p)
    if name == "planted_cut":
        n, cross = c["n"], c["cross"]
        rng = gc._rng(seed, "planted", n, p, cross)
        edges = _er_loop(rng, n, p) + _er_loop(rng, n, p, base=n)
        chosen = set()
        while len(chosen) < cross:
            u = rng.randrange(n)
            v = n + rng.randrange(n)
            if (u, v) not in chosen:
                chosen.add((u, v))
        return edges + sorted(chosen)
    if name == "clique":
        return [(i, j) for i in range(c["n"]) for j in range(i + 1, c["n"])]
    if name == "cycle":
        return [(i, (i + 1) % c["n"]) for i in range(c["n"])]
    if name == "path":
        return [(i, i + 1) for i in range(c["n"] - 1)]
    if name == "star":
        return [(0, i) for i in range(1, c["n"])]
    if name == "hypercube":
        n, d = 1 << c["d"], c["d"]
        return [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    if name == "barbell":
        k = c["k"]
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
        edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
        return edges + [(i, k + i) for i in range(c["bridges"])]
    assert name == "caterpillar"
    edges = []
    for b in range(c["blobs"]):
        base = b * c["blob_size"]
        edges += [
            (base + i, base + j)
            for i in range(c["blob_size"])
            for j in range(i + 1, c["blob_size"])
        ]
        if b + 1 < c["blobs"]:
            edges.append((base + c["blob_size"] - 1, base + c["blob_size"]))
    return edges


def _assert_generates_its_oracle(spec, seed):
    name, params = gc.parse_generator_spec(spec)
    params = {**gc._DEFAULTS.get(name, {}), **params}
    c = {key: int(v) for key, v in params.items() if key != "p"}
    want = sorted(gc.edge_key(*e) for e in _oracle_generate(name, c, float(params.get("p", 0)), seed))
    g = gc.generate(spec, seed=seed)
    assert np.array_equal(g._edge_array(), np.array(want, dtype=np.int64).reshape(-1, 2)), (spec, seed)


def _perfbench_specs():
    """Every spec the benchmark generates, warm-ups included."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    loader = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(run)
    return {s for w in run.WORKLOADS.values() for s in w.specs + (w.warmup,)}


def _golden_specs():
    import test_golden as tg

    keys = [k[1] for k in tg.GOLDEN] + [k[0] for k in tg.DECOMPOSE_GOLDEN]
    keys += [k[0] for k in tg.NIBBLE_GOLDEN] + [k[0] for k in tg.SUBGRAPH_GOLDEN]
    return set(keys)


# The er and planted_cut graphs the tests build, as specs.
_TEST_SPECS = {
    "er:n=1024,p=0.02", "er:n=120,p=0.06", "er:n=120,p=0.08", "er:n=120,p=0.2",
    "er:n=120,p=0.3", "er:n=128,p=0.0625", "er:n=128,p=0.1", "er:n=128,p=0.25",
    "er:n=128,p=0.5", "er:n=150,p=0.12", "er:n=16,p=0.5", "er:n=1600,p=0.1",
    "er:n=17,p=0.5", "er:n=200,p=0.03", "er:n=200,p=0.2", "er:n=24,p=0.5",
    "er:n=300,p=0.01", "er:n=40,p=0.08", "er:n=40,p=0.3", "er:n=50,p=0.3",
    "er:n=500,p=0.05", "er:n=512,p=0.25", "er:n=60,p=0.03", "er:n=60,p=0.05",
    "er:n=60,p=0.2", "er:n=60,p=0.3", "er:n=64,p=0.25", "er:n=64,p=0.3",
    "er:n=100,p=0.1", "er:n=100,p=0.3", "er:n=14,p=0.3", "er:n=150,p=0.05",
    "er:n=16,p=0.3", "er:n=20,p=0.25", "er:n=25,p=0.15", "er:n=25,p=0.2",
    "er:n=25,p=0.5", "er:n=256,p=0.05", "er:n=30,p=0.2", "er:n=30,p=0.3",
    "er:n=300,p=0.3", "er:n=40,p=0.2", "er:n=40,p=0.5", "er:n=400,p=0.05",
    "er:n=48,p=0.5", "er:n=512,p=0.5", "er:n=60,p=0.08", "er:n=60,p=0.15",
    "er:n=64,p=0.2", "er:n=64,p=0.4", "er:n=64,p=0.5", "er:n=80,p=0.1",
    "planted_cut:n=300,p=0.2,cross=4", "planted_cut:n=40,p=0.4,cross=2",
    "planted_cut:n=60,p=0.15,cross=5", "planted_cut:n=64,p=0.3,cross=4",
    "planted_cut:n=8,p=0.5,cross=3", "planted_cut:n=80,p=0.4,cross=3",
    "planted_cut:n=9,p=0.5,cross=3", "planted_cut:n=20,p=0.4,cross=5",
    "planted_cut:n=24,p=0.5,cross=2", "planted_cut:n=32,p=0.4,cross=3",
}
# n = 1 and 2, p = 0 and 1, and cross = n^2.
_EDGE_SPECS = {
    "er:n=1,p=0.5", "er:n=1,p=1", "er:n=2,p=0.5", "er:n=2,p=0", "er:n=2,p=1",
    "er:n=7,p=0", "er:n=7,p=1", "planted_cut:n=1,p=0.5,cross=1",
    "planted_cut:n=2,p=1,cross=4", "planted_cut:n=5,p=0.5,cross=25",
}
_SEEDED_SPECS = sorted(
    s for s in _TEST_SPECS | _EDGE_SPECS | _golden_specs() | _perfbench_specs()
    if s.startswith(("er:", "planted_cut:"))
)


@pytest.mark.parametrize("spec", _SEEDED_SPECS)
def test_seeded_generators_match_the_loop_oracle(spec):
    for seed in list(range(10)) + ["x"]:
        _assert_generates_its_oracle(spec, seed)


def test_seeded_corpus_covers_the_golden_and_benchmark_specs():
    assert {"er:n=1600,p=0.1", "er:n=120,p=0.2", "planted_cut:n=30,p=0.3,cross=2"} <= set(
        _SEEDED_SPECS
    )
    assert {"er:n=150,p=0.12", "planted_cut:n=80,p=0.4,cross=3"} <= set(_SEEDED_SPECS)


@pytest.mark.parametrize(
    "spec",
    [
        "clique:n=1", "clique:n=2", "clique:n=16", "cycle:n=3", "cycle:n=40",
        "path:n=1", "path:n=2", "path:n=60", "star:n=2", "star:n=9",
        "hypercube:d=1", "hypercube:d=6", "barbell:k=2", "barbell:k=2,bridges=2",
        "barbell:k=40,bridges=1", "barbell:k=100,bridges=1", "barbell:k=7,bridges=7",
        "caterpillar:blobs=2,blob_size=2", "caterpillar:blobs=4,blob_size=30",
        "caterpillar:blobs=8,blob_size=60",
    ],
)
def test_deterministic_generators_match_the_loop_oracle(spec):
    _assert_generates_its_oracle(spec, 0)


def test_er_1600_straddles_a_pair_chunk_and_spans_more_than_one_write_chunk():
    rows = np.arange(1601)
    before = rows * (2 * 1600 - 1 - rows) // 2  # a chunk boundary inside a row
    assert before[-1] > gc._PAIR_CHUNK and gc._PAIR_CHUNK not in before
    assert gc.generate("er:n=1600,p=0.1", seed=1).m > gc._WRITE_CHUNK


@pytest.mark.parametrize("chunk", [1, 3, 7, 64])
def test_seeded_generators_match_the_loop_oracle_across_small_chunks(monkeypatch, chunk):
    monkeypatch.setattr(gc, "_PAIR_CHUNK", chunk)
    for spec in ("er:n=1,p=0.5", "er:n=2,p=1", "er:n=13,p=0.4", "planted_cut:n=9,p=0.5,cross=3"):
        for seed in (0, 1, "x"):
            _assert_generates_its_oracle(spec, seed)


@pytest.mark.parametrize("n, p", [(1, 0.5), (2, 0.5), (13, 0.0), (13, 1.0), (40, 0.3), (1449, 0.01)])
@pytest.mark.parametrize("seed", ["x", 7])
def test_coin_pairs_hands_the_stream_back_where_the_loop_leaves_it(n, p, seed):
    mine, loop = random.Random(seed), random.Random(seed)
    mine.gauss(0, 1)  # a cached gauss value rides along in the state
    loop.gauss(0, 1)
    pairs = gc._coin_pairs(mine, n, p)
    assert pairs.tolist() == [list(e) for e in _er_loop(loop, n, p)]
    assert mine.getstate() == loop.getstate()
    assert [mine.random(), mine.randrange(n)] == [loop.random(), loop.randrange(n)]


# ---------------------------------------------------------------------------
# orientation verifier
# ---------------------------------------------------------------------------


def _orient(g, owned, cap):
    """verify_orientation on an owner -> edges map, its rows stacked in the
    map's order with the owner of each."""
    rows = [e for part in owned.values() for e in part]
    owners = [v for v, part in owned.items() for _ in part]
    return gc.verify_orientation(
        g, gc._exact_ints(rows).reshape(-1, 2), gc._exact_ints(owners), cap
    )


def test_orientation_star_leaves_pass():
    g = gc.gen_star(5)
    owned = {leaf: [(0, leaf)] for leaf in range(1, 5)}
    rep = _orient(g, owned, cap=1)
    assert rep.ok


def test_orientation_cycle_fails():
    g = gc.gen_clique(3)
    owned = {0: [(0, 1)], 1: [(1, 2)], 2: [(0, 2)]}
    rep = _orient(g, owned, cap=5)
    assert not rep.ok
    assert any("cycle" in v for v in rep.violations)


def test_orientation_cap_fails():
    g = gc.gen_star(5)
    owned = {0: [(0, leaf) for leaf in range(1, 5)]}
    rep = _orient(g, owned, cap=3)
    assert not rep.ok
    assert any("cap" in v for v in rep.violations)


def test_orientation_double_ownership_fails():
    g = gc.gen_clique(3)
    owned = {0: [(0, 1)], 1: [(0, 1)]}
    rep = _orient(g, owned, cap=5)
    assert not rep.ok


def _oracle_orientation(g, owned, cap):
    """The per-edge orientation check: a neighbour-set lookup per listed
    edge and Kahn's toposort over the owner -> other end arcs; returns
    (violations, max out-degree)."""
    from collections import deque

    adj = [set(a) for a in oracle_adj(g.n, g.edges())]
    violations = []
    seen = {}
    max_out = 0
    for v, es in sorted(owned.items()):
        max_out = max(max_out, len(es))
        if len(es) > cap:
            violations.append(f"vertex {v} owns {len(es)} edges, cap {cap:g}")
        for e in es:
            if v not in e:
                violations.append(f"edge {e} not incident to owner {v}")
                continue
            if not (0 <= e[0] < g.n and e[1] in adj[e[0]]):
                violations.append(f"edge {e} not in graph")
            if e in seen:
                violations.append(f"edge {e} owned by both {seen[e]} and {v}")
            seen[e] = v
    indeg, succ, verts = {}, {}, set()
    for v, es in owned.items():
        for e in es:
            if v not in e:
                continue
            w = e[0] if e[1] == v else e[1]
            succ.setdefault(v, []).append(w)
            indeg[w] = indeg.get(w, 0) + 1
            verts |= {v, w}
    dq = deque(sorted(x for x in verts if indeg.get(x, 0) == 0))
    done = 0
    while dq:
        x = dq.popleft()
        done += 1
        for w in succ.get(x, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                dq.append(w)
    if done != len(verts):
        violations.append("orientation contains a directed cycle")
    return violations, max_out


ORIENTATION_CASES = {
    "star": (gc.gen_star(5), {leaf: [(0, leaf)] for leaf in range(1, 5)}, 1),
    "3-cycle": (gc.gen_clique(3), {0: [(0, 1)], 1: [(1, 2)], 2: [(0, 2)]}, 5),
    "cap excess": (gc.gen_star(5), {0: [(0, leaf) for leaf in range(1, 5)]}, 3),
    "owned twice": (gc.gen_clique(3), {1: [(0, 1)], 0: [(0, 1)]}, 5),
    "owned three times": (gc.gen_clique(4), {1: [(0, 1), (1, 2), (0, 1)], 0: [(0, 1)]}, 5),
    "not incident": (gc.gen_clique(4), {3: [(0, 1)], 0: [(0, 2)]}, 5),
    "not in g": (gc.gen_path(4), {0: [(0, 2)], 1: [(1, 2)]}, 5),
    "self-loop": (gc.gen_path(4), {2: [(2, 2)], 0: [(0, 1)]}, 5),
    # (0, 11) has the key 0 * 8 + 11 of the edge (1, 3)
    "alias": (gc.gen_clique(8), {0: [(0, 11), (0, 1)]}, 5),
    "mixed": (
        gc.gen_clique(5),
        {4: [(3, 4), (0, 1), (2, 4), (1, 4)], 1: [(1, 4), (1, 7)], 0: [(0, 9)]},
        2,
    ),
    **{
        f"id {big}": (gc.gen_path(4), {big: [(big, big + 1)], 1: [(big, 1), (1, 2)]}, 5)
        for big in (10 ** 30, 2 ** 63)
    },
}


@pytest.mark.parametrize("case", sorted(ORIENTATION_CASES))
def test_orientation_on_arrays_matches_the_per_edge_check(case):
    g, owned, cap = ORIENTATION_CASES[case]
    violations, max_out = _oracle_orientation(g, owned, cap)
    assert bool(violations) == (case != "star")
    # owners in the map's order, and grouped ascending as a decomposition holds them
    for form in (owned, dict(sorted(owned.items()))):
        rep = _orient(g, form, cap)
        assert rep.violations == tuple(violations)
        assert rep.max_out_degree == max_out
        assert rep.ok is (not violations)


def test_orientation_names_the_previous_owner():
    g, owned, cap = ORIENTATION_CASES["owned three times"]
    assert _orient(g, owned, cap).violations == (
        "edge (0, 1) owned by both 0 and 1",
        "edge (0, 1) owned by both 1 and 1",
        "orientation contains a directed cycle",  # 0 -> 1 and 1 -> 0
    )


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------


def test_edge_list_roundtrip(tmp_path):
    g = gc.gen_er(30, 0.2, seed=3)
    path = tmp_path / "g.edges"
    gc.save_edge_list(g, path)
    h = gc.load_edge_list(path)
    assert h.n == g.n and h.edge_list() == g.edge_list()


def test_edge_list_header_keeps_an_isolated_top_vertex(tmp_path):
    g = gc.generate("er:n=60,p=0.03", seed=1)
    assert g.deg[g.n - 1] == 0
    path = tmp_path / "g.edges"
    gc.save_edge_list(g, path)
    h = gc.load_edge_list(path)
    assert (h.n, h.edge_list()) == (60, g.edge_list())


def test_load_edge_list_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "g.edges"
    path.write_bytes(b"0 1\n\xff 2\n")
    with pytest.raises(gc.GraphError, match=rf"^{re.escape(str(path))} is not UTF-8 text"):
        gc.load_edge_list(path)


def _loop_save(g, path):
    """The per-edge writer that `save_edge_list` replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {g.n} vertices, {g.m} edges\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


@pytest.mark.parametrize(
    "g",
    [
        gc.Graph(0, []),
        gc.Graph(5, []),
        gc.generate("er:n=60,p=0.03", seed=1),  # isolated top vertex
        gc.generate("er:n=1600,p=0.1", seed=1),  # more than one chunk
        gc.gen_clique(1),
    ],
    ids=["empty", "m0", "isolated-top", "er1600", "k1"],
)
def test_save_edge_list_writes_the_loop_writers_bytes(tmp_path, g):
    mine, loop = tmp_path / "mine.edges", tmp_path / "loop.edges"
    gc.save_edge_list(g, mine)
    _loop_save(g, loop)
    assert mine.read_bytes() == loop.read_bytes()
    h = gc.load_edge_list(mine)
    assert h.n == g.n
    assert h.indptr.tolist() == g.indptr.tolist() and h.indices.tolist() == g.indices.tolist()


@pytest.mark.parametrize("chunk", [1, 4, 5])
def test_save_edge_list_matches_the_loop_writer_across_small_chunks(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(gc, "_WRITE_CHUNK", chunk)
    for g in (gc.gen_path(5), gc.gen_path(6), gc.gen_star(9), gc.gen_er(30, 0.2, seed=3)):
        mine, loop = tmp_path / "mine.edges", tmp_path / "loop.edges"
        gc.save_edge_list(g, mine)
        _loop_save(g, loop)
        assert mine.read_bytes() == loop.read_bytes()


def test_edge_list_header_sets_n_on_both_parses(monkeypatch):
    assert gc.parse_edge_list("# 4 vertices, 0 edges\n").n == 4
    # only a leading header counts
    assert gc.parse_edge_list("0 1\n# 7 vertices, 1 edges\n").n == 2
    # a lone surrogate in a comment sends the text to the line parse
    for text in ("# 7 vertices, 1 edges\n0 1\n", "# 7 vertices, 1 edges\n0 1 # \ud800\n"):
        g = gc.parse_edge_list(text)
        assert (g.n, g.edge_list()) == (7, [(0, 1)])


def test_edge_list_id_past_the_header_names_its_line():
    for text in ("# 3 vertices, 2 edges\n0 1\n1 3\n", "# 3 vertices\n0 1\n1 3 # \ud800\n"):
        with pytest.raises(gc.GraphError) as err:
            gc.parse_edge_list(text)
        assert str(err.value) == "line 3: vertex id 3 is not below the header's 3 vertices"


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


def _oracle_parse(text):
    """The line-by-line edge-list parse: (n, edges) or the GraphError text."""
    edges, seen, max_v = [], {}, -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            return f"line {lineno}: expected 'u v', got '{raw.strip()}'"
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            return f"line {lineno}: non-integer vertex id"
        if u < 0 or v < 0:
            return f"line {lineno}: negative vertex id"
        if u == v:
            return f"line {lineno}: self-loop at vertex {u}"
        k = gc.edge_key(u, v)
        if k in seen:
            return f"line {lineno}: duplicate of edge {k} first seen on line {seen[k]}"
        seen[k] = lineno
        edges.append(k)
        max_v = max(max_v, u, v)
    n = max_v + 1 if edges else 0
    if n > gc.MAX_VERTICES:
        return f"vertex count {n} exceeds the limit of {gc.MAX_VERTICES}"
    return n, edges


def _parsed(text):
    """parse_edge_list(text) as (n, CSR arrays) or its GraphError text."""
    try:
        g = gc.parse_edge_list(text)
    except gc.GraphError as exc:
        return str(exc)
    return g.n, g.indptr.tolist(), g.indices.tolist()


def _expected(text):
    got = _oracle_parse(text)
    if isinstance(got, str):
        return got
    g = gc.Graph(*got)
    return g.n, g.indptr.tolist(), g.indices.tolist()


# Plain text, once its comments are cut: ASCII digits and C's six spaces.
WELL_FORMED_PLAIN = [
    "",
    "# only a comment\n\n",
    "# header\n0 1\n\n1 2  # trailing\n",
    "0\t1\n1 \t 2\n",
    "0 1\r\n1 2\r\n# c\r\n",
    "007 0008\n",
    "  4 2   \n\n\n2 7#x#y\n",
    "# caf\u00e9\n0 1\n",  # a non-ASCII comment
]
WELL_FORMED_OTHER = [
    "+3 1\n1_0 2\n",
    "\u0663 \u0661\n\u0967 9\n",  # Arabic-Indic and Devanagari digits
    "0 1\x0c2 3\u20284 5\x855 6",  # form feed, line and next-line separators
]


@pytest.mark.parametrize("text", WELL_FORMED_PLAIN + WELL_FORMED_OTHER)
def test_edge_list_array_parse_matches_the_line_parse(monkeypatch, text):
    # plain text stays on the array read; any other text reaches the line
    # parse once, and its graph is the line parse's
    expect = _expected(text)
    assert not isinstance(expect, str)
    line_parse, calls = gc._parse_lines, []

    def spy(text, n):
        calls.append(text)
        return line_parse(text, n)

    monkeypatch.setattr(gc, "_parse_lines", spy)
    assert _parsed(text) == expect
    assert calls == ([text] if text in WELL_FORMED_OTHER else [])


# The line boundaries of str.splitlines, all of them in the BMP.
LINE_BREAKS = [c for c in map(chr, range(0x10000)) if len(f"a{c}b".splitlines()) == 2]


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_edge_list_comment_ends_at_every_line_break(brk):
    assert gc.parse_edge_list("# c" + brk + "0 1\n").edge_list() == [(0, 1)]


FAULTS = [
    "0 1.5",
    "1e3 0",
    "0x10 1",
    "0 " + "9" * 25,
    "-4 2",
    "5 5",
    "1 0",  # reverses the edge on line 1
    "7",
    "0 1 2",
    "0 \ud800",
]


@pytest.mark.parametrize("later", ["", "2 2\n"])
@pytest.mark.parametrize("fault", FAULTS)
def test_edge_list_fault_named_as_the_line_parse_names_it(fault, later):
    # the fault sits on line 4; a self-loop may follow on line 5
    text = "0 1\n# comment\n\n" + fault + "\n" + later
    expect = _oracle_parse(text)
    assert isinstance(expect, str)
    assert _parsed(text) == expect


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\n1 2\n1 2\n", "line 3: duplicate of edge (1, 2) first seen on line 2"),
        ("0 1\n2 1\n1 2\n", "line 3: duplicate of edge (1, 2) first seen on line 2"),
        ("0 1\n3 3\n", "line 2: self-loop at vertex 3"),
        ("# 3 vertices\n0 1\n1 3\n", "line 3: vertex id 3 is not below the header's 3 vertices"),
        (f"0 {gc.MAX_VERTICES}\n", f"vertex count {gc.MAX_VERTICES + 1} exceeds the limit of {gc.MAX_VERTICES}"),
    ],
)
def test_edge_list_refused_by_the_array_check_skips_the_row_loop(text, message, monkeypatch):
    # text the array read takes in but the array check refuses goes to the
    # line parse straight away, without Graph's per-row search for a fault
    assert gc._id_rows(gc._COMMENT.sub("", text)) is not None

    def row_loop(rows, n):
        raise AssertionError("_first_fault ran on parsed text")

    monkeypatch.setattr(gc, "_first_fault", row_loop)
    assert _parsed(text) == message


def test_edge_list_array_parse_reads_a_saved_graph(tmp_path):
    g = gc.gen_er(400, 0.05, seed=1)
    path = tmp_path / "g.edges"
    gc.save_edge_list(g, path)
    text = path.read_text()
    assert _parsed(text) == _expected(text) == (g.n, g.indptr.tolist(), g.indices.tolist())


@given(st.text(alphabet="0123 \t\n\r#-+_.x\u0663\x0c", max_size=60))
@settings(max_examples=300, deadline=None)
def test_edge_list_parse_matches_the_line_parse_on_any_text(text):
    assert _parsed(text) == _expected(text)


# Pieces aimed at the np.fromstring read: leading zeros, the six C
# spaces, the separators U+001C..U+001F (whitespace to str.split, not to
# C), words int() reads that C does not, and ids around int64's top.
PLAIN_PIECES = [
    "0", "1", "2", "007", "0008", "00",
    " ", "\t", "\n", "\v", "\f", "\r", "\r\n", "   \n\n",
    "\x1c", "\x1d", "\x1e", "\x1f",
    "#", "# c\n", "+", "+3", "_", "1_0", "\u0663", "-",
    "1" + "0" * 17, "9" * 18, "1" + "0" * 18, "9" * 19,
    "9223372036854775807", "9223372036854775808", "1" + "0" * 19, "9" * 20,
]
_plain_texts = st.lists(st.sampled_from(PLAIN_PIECES), max_size=14).map("".join)


@given(_plain_texts)
@settings(max_examples=400, deadline=None)
def test_edge_list_parse_matches_the_line_parse_on_plain_ids(text):
    assert _parsed(text) == _expected(text)


def _oracle_id_rows(text):
    """The ids str.split and int() read from text, or None unless every
    line holds none or two words and each id fits int64."""
    if any(len(line.split()) not in (0, 2) for line in text.splitlines()):
        return None
    try:
        ids = [int(word) for word in text.split()]
    except ValueError:
        return None
    return ids if all(-(2 ** 63) <= i < 2 ** 63 for i in ids) else None


@given(_plain_texts)
@settings(max_examples=400, deadline=None)
def test_id_rows_read_the_ids_int_reads(text):
    # None leaves the text to the line parse; plain text the oracle reads
    # is declined only for an id of INT64_MAX, what an overflow reads as
    got = gc._id_rows(text)
    want = _oracle_id_rows(text)
    if got is not None:
        assert got.ravel().tolist() == want
    elif want is not None and set(text) <= set("0123456789 \t\n\v\f\r"):
        assert 2 ** 63 - 1 in want


def test_saved_edge_list_is_read_without_int(tmp_path, monkeypatch):
    g = gc.gen_er(400, 0.05, seed=1)
    path = tmp_path / "g.edges"
    gc.save_edge_list(g, path)

    def refused(*args):
        raise AssertionError("a saved edge list left the np.fromstring read")

    monkeypatch.setattr(gc, "_parse_lines", refused)
    h = gc.load_edge_list(path)
    assert (h.n, h.indptr.tolist(), h.indices.tolist()) == (
        g.n, g.indptr.tolist(), g.indices.tolist()
    )


def test_edge_list_parse_warns_nothing(tmp_path):
    # a numpy that deprecates np.fromstring's text mode fails here
    g = gc.gen_er(60, 0.1, seed=2)
    path = tmp_path / "g.edges"
    gc.save_edge_list(g, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gc.load_edge_list(path).edge_list() == g.edge_list()
        for text in ("", "   \n\n", " \t\n\v\f\r"):
            assert gc.parse_edge_list(text).n == 0
            assert gc._id_rows(text).shape == (0, 2)


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
    for ids, bad in (([0, 1, 2, 3, 5], 5), ([-1, 0, 1, 2, 3], -1)):
        with pytest.raises(gc.GraphError, match=f"^vertex {bad} is not in 0..4$"):
            gc.induced_subgraph(g, ids)


@pytest.mark.parametrize("ids, bad", [([0, 1, 99], 99), ([0, 1, -3], -3), ([2 ** 70], 2 ** 70)])
def test_induced_subgraph_refuses_ids_outside_the_graph(ids, bad):
    # the ids once came back as a graph with a phantom vertex
    with pytest.raises(gc.GraphError, match=f"^vertex {bad} is not in 0..5$"):
        gc.induced_subgraph(gc.gen_clique(6), ids)


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


# ---------------------------------------------------------------------------
# csgraph traversals and the shared relabel step against plain-Python oracles
# ---------------------------------------------------------------------------


def _oracle_components(n, edges):
    """Depth-first search; components as sorted lists by smallest vertex."""
    adj = oracle_adj(n, edges)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        stack = [s]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def _oracle_levels(n, edges, root):
    """Frontier BFS: level per vertex, -1 if unreachable."""
    adj = oracle_adj(n, edges)
    lev = [-1] * n
    lev[root] = 0
    frontier = [root]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if lev[u] < 0:
                    lev[u] = d
                    nxt.append(u)
        frontier = nxt
    return lev


def _oracle_relabel(old, edges):
    """(n, sorted canonical edges, old ids) of the edges among `old`."""
    idx = {v: i for i, v in enumerate(old)}
    es = sorted(
        gc.edge_key(idx[u], idx[v]) for u, v in edges if u in idx and v in idx
    )
    return len(old), es, list(old)


def _oracle_from_edges(edges):
    es = {gc.edge_key(u, v) for u, v in edges}
    return _oracle_relabel(sorted({v for e in es for v in e}), es)


def _shape(graph, old):
    return graph.n, graph.edge_list(), old


@st.composite
def graphs(draw):
    """Small graphs: empty, single-vertex, isolated vertices, disconnected."""
    n = draw(st.integers(min_value=0, max_value=14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # a canonical pair may arrive in either orientation
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]


@given(graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_structure_queries_match_oracles(case, data):
    n, edges = case
    g = gc.Graph(n, edges)
    canonical = sorted(gc.edge_key(u, v) for u, v in edges)
    assert g.edge_list() == canonical
    assert _rows(g) == oracle_adj(n, edges)
    assert g.deg == tuple(len(a) for a in oracle_adj(n, edges))
    dense = np.zeros((n, n))
    for u, v in edges:
        dense[u, v] = dense[v, u] = 1.0
    adj = gc._adjacency(g)
    assert np.array_equal(adj.toarray(), dense) and _is_canonical_csr(adj)

    comps = _oracle_components(n, edges)
    assert gc.connected_components(g) == comps
    assert gc.is_connected(g) == (len(comps) <= 1)
    for root in range(n):
        assert gc.bfs_levels(g, root).tolist() == _oracle_levels(n, edges, root)

    keep = data.draw(st.sets(st.integers(min_value=0, max_value=max(n - 1, 0))))
    keep = {v for v in keep if v < n}
    assert _shape(*gc.induced_subgraph(g, keep)) == _oracle_relabel(sorted(keep), edges)
    assert _shape(*gc.subgraph_from_edges(edges)) == _oracle_from_edges(edges)
    # an edge listed again, in the other orientation, is still one edge
    twice = edges + [(v, u) for u, v in edges]
    assert _shape(*gc.subgraph_from_edges(twice)) == _oracle_from_edges(edges)
    # edge components: one per component with an edge, by smallest vertex
    expect = [
        _oracle_from_edges([e for e in edges if e[0] in comp])
        for comp in comps
        if len(comp) > 1
    ]
    assert [_shape(*c) for c in gc.edge_components(edges)] == expect
    # shifted ids: the relabel is monotone, whatever the original ids
    shifted = [(3 * u + 7, 3 * v + 7) for u, v in edges]
    assert [_shape(*c)[:2] for c in gc.edge_components(shifted)] == [
        c[:2] for c in expect
    ]


@given(graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_bfs_levels_match_the_loop_oracle(case, data):
    n, edges = case
    if n == 0:
        return
    g = gc.Graph(n, edges)
    root = data.draw(st.integers(min_value=0, max_value=n - 1))
    got = gc.bfs_levels(g, root)
    assert got.dtype == np.int64
    assert got.tolist() == _oracle_levels(n, edges, root)


@st.composite
def pair_rows(draw):
    """(n, (k, 2) int64 rows over 0..n-1): k = 0, loops, either
    orientation and repeated rows, in any order."""
    n = draw(st.integers(min_value=1, max_value=12))
    ids = st.integers(min_value=0, max_value=n - 1)
    rows = draw(st.lists(st.tuples(ids, ids), max_size=30))
    rows += draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else []
    return n, np.array(rows, dtype=np.int64).reshape(-1, 2)


@given(pair_rows())
@settings(max_examples=200, deadline=None)
def test_edge_keys_match_the_row_reduction_oracle(case):
    n, pairs = case
    lo, hi = gc._lo_hi(pairs)
    assert lo.tolist() == pairs.min(axis=1).tolist()
    assert hi.tolist() == pairs.max(axis=1).tolist()
    # the distinct canonical rows in lexicographic order, as keys
    rows = np.unique(np.sort(pairs, axis=1), axis=0)
    assert gc._edge_keys(pairs, n).tolist() == (rows[:, 0] * n + rows[:, 1]).tolist()


_vertex_draws = st.lists(st.lists(st.integers(0, 30), min_size=5, max_size=5), max_size=20)


@given(st.integers(2, 5), _vertex_draws)
@settings(max_examples=100, deadline=None)
def test_pair_keys_and_find_match_the_combinations_oracle(s, draws):
    """Ascending rows of s ids below n = 31; `_find` looks every pair key up
    among the distinct keys of every other row."""
    n = 31
    rows = [sorted(set(d))[:s] for d in draws if len(set(d)) >= s]
    rows = np.array(rows, dtype=np.int64).reshape(-1, s)
    want = [[a * n + b for a, b in combinations(r, 2)] for r in rows.tolist()]
    keys = gc._pair_keys(rows, n)
    assert keys.shape == (len(rows), s * (s - 1) // 2) and keys.tolist() == want
    sorted_keys = np.unique(keys[::2])
    at, hit = gc._find(sorted_keys, keys)
    assert hit.tolist() == [[k in set(sorted_keys.tolist()) for k in r] for r in want]
    assert (sorted_keys[at[hit]] == keys[hit]).all()
    assert gc._members(sorted_keys, keys).tolist() == hit.tolist()


def _oracle_relabel_rows(pairs, extra):
    """The relabel by np.unique ranks and row-sorted pairs: (n, sorted
    distinct edges, sorted ids)."""
    ends = np.concatenate((pairs.ravel(), np.asarray(extra, dtype=np.int64)))
    ids, pos = np.unique(ends, return_inverse=True)
    ranked = np.sort(pos[: pairs.size].reshape(-1, 2), axis=1)
    rows = sorted(set(map(tuple, ranked.tolist())))
    return len(ids), rows, ids.tolist()


def _relabel_both_ways(pairs, extra):
    """_relabel's (n, edges, ids) with ids ranked by sorting, then with the
    rank table allowed for any nonnegative ids below a million times their
    count."""
    out = []
    for factor in (0, 10 ** 6):
        with mock.patch.object(gc, "_RANK_TABLE_FACTOR", factor):
            sub, ids = gc._relabel(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), extra)
        out.append((sub.n, sub.edge_list(), ids.tolist()))
    return out


BIG = 2 ** 40


@pytest.mark.parametrize(
    "pairs, extra, n, edges",
    [
        ([], [], 0, []),
        ([], [4, 2], 2, []),
        # gaps between the ids
        ([(3, 10), (10, 7), (3, 7), (7, 3)], [], 3, [(0, 1), (0, 2), (1, 2)]),
        # extra ids absent from the pairs
        ([(5, 1)], [0, 9, 5], 4, [(1, 2)]),
        # ids past the table: ranked by sorting
        ([(BIG, 5), (2 * BIG, BIG)], [BIG * 32], 4, [(0, 1), (1, 2)]),
    ],
    ids=["empty", "extra-only", "gaps", "extra-absent", "huge"],
)
def test_relabel_ranks_the_same_on_both_paths(pairs, extra, n, edges):
    expect = _oracle_relabel_rows(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), extra)
    assert expect[:2] == (n, edges)
    assert _relabel_both_ways(pairs, extra) == [expect, expect]


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]),
        max_size=25,
    ),
    st.lists(st.integers(0, 9), max_size=4),
    st.sampled_from([1, 3, 50, BIG]),
)
@settings(max_examples=200, deadline=None)
def test_relabel_matches_the_unique_oracle(edges, extra, scale):
    # ids spread by `scale`: 3 leaves gaps the table still ranks, BIG
    # forces the sort; edges repeat and come in either orientation
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2) * scale + 1
    extra = [x * scale for x in extra]
    expect = _oracle_relabel_rows(pairs, extra)
    assert _relabel_both_ways(pairs, extra) == [expect, expect]


def _oracle_induced(g, keep):
    """induced_subgraph by row reduction: rows with both ends kept, ranked
    among the kept ids and lexsorted."""
    old = sorted(keep)
    pairs = g._edge_array()
    inside = pairs[np.isin(pairs, old).all(axis=1)]
    ranked = np.searchsorted(old, inside)
    ranked = ranked[np.lexsort((ranked[:, 1], ranked[:, 0]))]
    return len(old), list(map(tuple, ranked.tolist())), old


@given(graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_induced_subgraph_matches_the_row_reduction_oracle(case, data):
    n, edges = case
    g = gc.Graph(n, edges)
    keep = data.draw(st.sets(st.integers(min_value=0, max_value=max(n - 1, 0))))
    keep = {v for v in keep if v < n}
    assert _shape(*gc.induced_subgraph(g, keep)) == _oracle_induced(g, keep)


@pytest.mark.parametrize("root", [-1, 3])
def test_bfs_levels_refuse_a_root_outside_the_graph(root):
    with pytest.raises(gc.GraphError, match=rf"root {root} is not a vertex of the graph \(n=3\)"):
        gc.bfs_levels(gc.gen_path(3), root)
