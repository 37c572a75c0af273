"""Triangle and subgraph enumeration against the brute-force oracles."""

import json
import re
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congestlab import runtime as rt
from congestlab import triangle as tr
from congestlab.decomposition import Decomposition
from congestlab.graphcore import (
    MAX_VERTICES,
    Graph,
    GraphError,
    connected_components,
    edge_key,
    gen_barbell,
    gen_clique,
    gen_cycle,
    gen_er,
    gen_path,
)
from congestlab.routing import assign_degree_class_ids
from congestlab.triangle import (
    TriangleSet,
    _allocate_tuples,
    _triangles_of_edges,
    brute_force_triangles,
    case1_report_owner,
    count_triangles,
    detect_triangle,
    edge_concentration_probe,
    enumerate_expander,
    enumerate_general,
    enumerate_subgraphs,
)


# -- oracle ------------------------------------------------------------------


def test_oracle_small_counts():
    assert brute_force_triangles(gen_clique(4)).count == 4
    assert brute_force_triangles(gen_cycle(5)).count == 0
    assert brute_force_triangles(gen_clique(5)).count == 10


def test_oracle_triples_canonical():
    res = brute_force_triangles(gen_clique(4))
    assert all(a < b < c for a, b, c in res.triangles)
    assert set(res.attribution) == res.triangles


def test_oracle_edge_cap(monkeypatch):
    monkeypatch.setattr(tr, "ORACLE_EDGE_CAP", 5)
    with pytest.raises(GraphError):
        brute_force_triangles(gen_clique(5))


def test_triangle_set_rejects_double_report():
    s = TriangleSet()
    s.add((0, 1, 2), 0)
    with pytest.raises(GraphError):
        s.add((0, 1, 2), 1)


def test_triangle_set_extend_refuses_a_repeat_within_one_batch():
    s = TriangleSet()
    with pytest.raises(GraphError, match=re.escape("triangle (1, 2, 5) reported twice")):
        s.extend([(0, 1, 2), (1, 2, 5), (0, 3, 4), (1, 2, 5)], [0, 1, 0, 2])
    assert s.count == 0


def test_triangle_set_extend_refuses_a_repeat_across_batches():
    s = TriangleSet()
    s.extend([(0, 1, 2), (3, 4, 5)], [0, 3])
    with pytest.raises(GraphError, match=re.escape("triangle (3, 4, 5) reported twice")):
        s.extend([(6, 7, 8), (3, 4, 5)], [6, 4])
    assert s.count == 2
    top = (MAX_VERTICES - 3, MAX_VERTICES - 2, MAX_VERTICES - 1)
    s.add(top, top[0])
    with pytest.raises(GraphError, match=re.escape(f"triangle {top} reported twice")):
        s.add(top, top[2])


@pytest.mark.parametrize(
    "row", [(1, 0, 2), (0, 0, 1), (0, 2, 1), (-1, 0, 1), (0, 1, MAX_VERTICES)]
)
def test_triangle_set_refuses_rows_that_are_not_sorted_vertex_triples(row):
    with pytest.raises(GraphError, match="a < b < c"):
        TriangleSet().extend([row], [0])


def test_triangle_set_needs_one_owner_per_row():
    with pytest.raises(GraphError, match="2 owners for 1 triangles"):
        TriangleSet().extend([(0, 1, 2)], [0, 1])


def test_triangle_set_rows_sorted_with_aligned_owners():
    s = TriangleSet()
    s.extend([(2, 3, 4), (0, 1, 5)], [3, 1])
    s.add((0, 1, 2), 2)
    s.extend(np.empty((0, 3), dtype=np.int64), [])
    top = (MAX_VERTICES - 3, MAX_VERTICES - 2, MAX_VERTICES - 1)
    s.add(top, top[1])
    assert s.rows().tolist() == [[0, 1, 2], [0, 1, 5], [2, 3, 4], list(top)]
    assert s.owners().tolist() == [2, 1, 3, top[1]]
    assert dict(s.attribution) == {(0, 1, 2): 2, (0, 1, 5): 1, (2, 3, 4): 3, top: top[1]}
    assert s.triangles == {(0, 1, 2), (0, 1, 5), (2, 3, 4), top}
    assert s.reporter_counts() == {1: 1, 2: 1, 3: 1, top[1]: 1}
    with pytest.raises(ValueError):
        s.owners()[0] = 7
    with pytest.raises(TypeError):
        s.attribution[(0, 1, 2)] = 7
    assert s.owners().tolist() == [2, 1, 3, top[1]]


def test_triangle_set_json_is_plain_lists_and_counts_sum_to_count():
    res, _ = enumerate_general(gen_er(60, 0.3, seed=4), 0.5, seed=2)
    counts = res.reporter_counts()
    assert sum(counts.values()) == res.count > 0
    assert list(counts) == sorted(counts)
    doc = res.as_json()
    assert type(doc["triangles"]) is list
    assert all(type(row) is list and len(row) == 3 for row in doc["triangles"])
    assert {type(x) for row in doc["triangles"] for x in row} == {int}
    assert doc["triangles"] == sorted(doc["triangles"])
    assert doc["attribution"] == {str(v): c for v, c in counts.items()}
    assert json.loads(json.dumps(doc)) == doc


# -- the wedge lister --------------------------------------------------------


def _listed(rows):
    assert rows.dtype == np.int64 and rows.ndim == 2 and rows.shape[1] == 3
    listed = [tuple(r) for r in rows.tolist()]
    assert listed == sorted(set(listed)), "rows must be sorted and unique"
    assert all(a < b < c for a, b, c in listed)
    return listed


def _oracle_rows(edges, through=None):
    """Brute-force triangles of an edge list with any ids and repeats."""
    canon = {edge_key(u, v) for u, v in edges}
    n = max((v for e in canon for v in e), default=-1) + 1
    rows = sorted(brute_force_triangles(Graph(n, canon)).triangles)
    if through is None:
        return rows
    picked = {edge_key(u, v) for u, v in through}
    return [t for t in rows if picked & {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])}]


_edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(lambda e: e[0] != e[1]),
    max_size=70,
)


@given(_edge_lists, st.data())
@settings(max_examples=200, deadline=None)
def test_lister_matches_brute_force(edges, data):
    assert _listed(_triangles_of_edges(edges)) == _oracle_rows(edges)
    through = data.draw(st.lists(st.sampled_from(edges), max_size=len(edges))) if edges else []
    assert _listed(_triangles_of_edges(edges, through)) == _oracle_rows(edges, through)


K5 = list(combinations(range(5), 2))


@pytest.mark.parametrize(
    "edges, want",
    [
        ([], []),
        ([(3, 7)], []),
        ([(0, 1), (1, 0), (1, 2), (2, 1), (2, 0)], [(0, 1, 2)]),
        ([(0, 1), (0, 1), (1, 2), (0, 2)], [(0, 1, 2)]),
        ([(900, 40), (40, 77), (77, 900), (900, 5)], [(40, 77, 900)]),
        (K5, list(combinations(range(5), 3))),
        (np.array(K5, dtype=np.int32), list(combinations(range(5), 3))),
    ],
    ids=["empty", "one-edge", "both-orientations", "repeats", "sparse-ids", "K5", "K5-int32"],
)
def test_lister_cases(edges, want):
    assert _listed(_triangles_of_edges(edges)) == want
    assert _listed(_triangles_of_edges(edges, through=edges)) == want


def test_lister_keeps_the_rows_with_a_through_edge():
    one = _listed(_triangles_of_edges(K5, through=[(1, 3)]))
    assert one == [(0, 1, 3), (1, 2, 3), (1, 3, 4)]
    # each triangle here holds one of these as its first, second or third edge
    three = [(0, 2), (4, 1), (2, 3)]
    assert _listed(_triangles_of_edges(K5, through=three)) == _oracle_rows(K5, three)
    # (0, 9) is no edge; keyed with K5's ids alone (n = 7) it would read as (1, 2)
    assert _listed(_triangles_of_edges(K5 + [(5, 6)], through=[(5, 6), (0, 9)])) == []
    assert _listed(_triangles_of_edges(K5, through=[])) == []


def test_lister_expands_wedges_in_blocks(monkeypatch):
    g = gen_er(40, 0.5, seed=2)
    want = _listed(_triangles_of_edges(g.edge_list()))
    monkeypatch.setattr(tr, "WEDGE_BLOCK", 7)
    assert _listed(_triangles_of_edges(g.edge_list())) == want
    assert _listed(_triangles_of_edges(g.edge_list(), g.edge_list()[::9])) == (
        _oracle_rows(g.edge_list(), g.edge_list()[::9])
    )


# -- triad allocation --------------------------------------------------------


def test_triad_counts_and_order():
    g = gen_cycle(16)
    ids, _ = assign_degree_class_ids(g, range(16))
    alloc = _allocate_tuples(ids, g, 2, 3)
    assert alloc.tuples == ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2))
    alloc3 = _allocate_tuples(ids, g, 3, 3)
    assert len(alloc3.tuples) == 10


def test_triad_ranges_partition_regular_graph():
    # every cycle vertex has degree 2 = average, so each allocated vertex
    # takes a block of 4 until the list runs out
    g = gen_cycle(16)
    ids, _ = assign_degree_class_ids(g, range(16))
    alloc = _allocate_tuples(ids, g, 3, 3)
    spans = sorted(alloc.ranges.values())
    assert spans[0][0] == 0
    assert spans[-1][1] == len(alloc.tuples)
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert b == c
    assert [hi - lo for lo, hi in spans] == [4, 4, 2]
    owners = {alloc.owner_of(t) for t in alloc.tuples}
    assert owners == set(alloc.ranges)


def test_triad_class_zero_gets_nothing():
    # star center holds nearly all degree; leaves sit below half average
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)])
    ids, _ = assign_degree_class_ids(g, range(6))
    alloc = _allocate_tuples(ids, g, 2, 3)
    for v, (lo, hi) in alloc.ranges.items():
        assert alloc.classes[v] >= 1
    for v in range(6):
        if alloc.classes[v] == 0:
            assert v not in alloc.ranges


def test_triad_capacity_error():
    g = gen_cycle(8)
    ids, _ = assign_degree_class_ids(g, range(8))
    with pytest.raises(GraphError):
        _allocate_tuples(ids, g, 50, 3)


def _linear_owner(alloc, class_tuple):
    # reference rule: the last range, in start order, that starts at or
    # before the tuple's index, provided the index lies inside it
    idx = alloc.tuples.index(tuple(sorted(class_tuple)))
    owner = None
    for lo, v in sorted((lo, v) for v, (lo, hi) in alloc.ranges.items()):
        if lo <= idx:
            owner = v
        else:
            break
    if owner is None or idx >= alloc.ranges[owner][1]:
        return None
    return owner


def test_triad_owner_of_matches_linear_rule():
    core_and_leaves = Graph(
        20,
        [(a, b) for a in range(10) for b in range(a + 1, 10)]
        + [(a, a + 10) for a in range(10)],
    )
    sparse = gen_er(40, 0.2, seed=2)
    dense = gen_er(64, 0.3, seed=1)
    allocs = []
    for g, q, size in (
        (core_and_leaves, 2, 3),
        (core_and_leaves, 3, 3),
        (core_and_leaves, 2, 4),
        (sparse, 3, 3),
        (dense, 4, 3),
        (dense, 3, 4),
    ):
        members = [v for v in range(g.n) if g.deg[v] > 0]
        ids, _ = assign_degree_class_ids(g, members)
        allocs.append(tr._allocate_tuples(ids, g, q, size))
    assert sum(1 for a in allocs if 0 in a.classes.values()) >= 4
    for alloc in allocs:
        for t in alloc.tuples:
            assert alloc.owner_of(t) == _linear_owner(alloc, t)
            assert alloc.owner_of(t[::-1]) == alloc.owner_of(t)


def test_triad_owner_of_unallocated_indices():
    # hand-made ranges with holes before, between and after them
    tuples = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2))
    for ranges in ({7: (1, 2)}, {7: (1, 2), 8: (3, 4)}, {5: (0, 1), 6: (2, 3)}):
        alloc = tr.TriadAllocation(2, 3, tuples, ranges, {}, 1)
        for t in tuples:
            expected = _linear_owner(alloc, t)
            if expected is None:
                with pytest.raises(GraphError, match="never allocated"):
                    alloc.owner_of(t)
            else:
                assert alloc.owner_of(t) == expected
    with pytest.raises(GraphError, match="not a class tuple"):
        alloc.owner_of((1, 3, 1))


# -- sparse-edge owner rules -------------------------------------------------


def test_case1_published_examples():
    # common apex with two outgoing edges: smaller-id head reports
    assert case1_report_owner((1, 2, 3), {(1, 2), (1, 3)}) == 2
    # no oriented edge: not handled here
    assert case1_report_owner((1, 2, 3), set()) is None
    # common sink, unoriented opposite edge: smaller-id tail reports
    assert case1_report_owner((2, 5, 9), {(5, 9), (2, 9)}) == 2


def test_case1_single_edge_and_path():
    assert case1_report_owner((1, 2, 3), {(1, 3)}) == 2
    assert case1_report_owner((1, 2, 3), {(1, 3), (3, 2)}) == 2


def test_case1_exhaustive_acyclic_patterns():
    # every acyclic pattern with an oriented edge has exactly one owner,
    # and the owner's opposite edge is oriented so the owner hears of it
    verts = (10, 20, 30)
    edges = [(10, 20), (10, 30), (20, 30)]
    seen = 0
    for states in product((0, 1, 2), repeat=3):
        oriented = set()
        for (u, v), st in zip(edges, states):
            if st == 1:
                oriented.add((u, v))
            elif st == 2:
                oriented.add((v, u))
        if not oriented:
            continue
        heads = [b for _, b in oriented]
        if len(oriented) == 3 and all(heads.count(v) == 1 for v in verts):
            continue  # cyclic
        seen += 1
        owner = case1_report_owner(verts, oriented)
        assert owner in verts
        opposite = edge_key(*[v for v in verts if v != owner])
        assert opposite in {edge_key(a, b) for a, b in oriented}
    assert seen == 24


# -- expander path -----------------------------------------------------------


def test_expander_k4_no_out_edges():
    g = gen_clique(4)
    res, t = enumerate_expander(g, range(4), [])
    assert res.triangles == brute_force_triangles(g).triangles
    assert t.rounds > 0


def test_expander_out_edge_forms_no_triangle():
    g = Graph(4, [(0, 1), (0, 2), (1, 2)])
    res, _ = enumerate_expander(g, [0, 1, 2], [(0, 3)])
    assert res.triangles == {(0, 1, 2)}


def test_expander_out_edges_complete_triangles():
    # triangle across the boundary: one inside edge plus two outward edges
    g = Graph(4, [(0, 1), (0, 2), (1, 2)])
    res, _ = enumerate_expander(g, [0, 1, 2], [(0, 3), (1, 3)])
    assert res.triangles == {(0, 1, 2), (0, 1, 3)}


def test_expander_er64_matches_oracle_ten_seeds():
    g = gen_er(64, 0.4, seed=3)
    comp = max(connected_components(g), key=len)
    inside = set(comp)
    oracle = {
        t for t in brute_force_triangles(g).triangles if set(t) <= inside
    }
    for seed in range(10):
        res, _ = enumerate_expander(g, comp, [], seed=seed)
        assert res.triangles == oracle


def test_expander_partition_path_exact():
    g = gen_er(64, 0.4, seed=3)
    comp = max(connected_components(g), key=len)
    inside = set(comp)
    oracle = {
        t for t in brute_force_triangles(g).triangles if set(t) <= inside
    }
    res, t = enumerate_expander(g, comp, [], seed=5, zeta_scale=1e9)
    assert res.triangles == oracle
    assert "triangle:deliver" in t.phases
    assert "flag:zeta_scale_millis" in t.phases
    assert len(res.reporter_counts()) > 1
    assert set(res.attribution.values()) <= inside


def test_expander_partition_deterministic():
    g = gen_er(64, 0.4, seed=3)
    comp = max(connected_components(g), key=len)
    a, ta = enumerate_expander(g, comp, [], seed=7, zeta_scale=1e9)
    b, tb = enumerate_expander(g, comp, [], seed=7, zeta_scale=1e9)
    assert a.attribution == b.attribution
    assert ta.phases == tb.phases


class _OwnerFlip:
    """Allocation fake: one owner for the first `sends` lookups, then another."""

    def __init__(self, sends, first, then):
        self.sends, self.first, self.then, self.calls = sends, first, then, 0

    def owner_of(self, class_tuple):
        self.calls += 1
        return self.first if self.calls <= self.sends else self.then


@pytest.mark.parametrize("flip", [False, True])
def test_triad_owner_missing_an_edge_trips_the_assert(monkeypatch, flip):
    g = gen_er(64, 0.4, seed=3)
    comp = max(connected_components(g), key=len)
    first = comp[0]
    then = comp[-1] if flip else first
    inner = sum(1 for u, v in g.edges() if u in comp and v in comp)
    # The send loop asks once per edge and per class triad holding its two
    # parts (q of them at size 3); every edge goes to `first`, so `then`
    # knows only its own incident edges when the occurrences are owned.
    monkeypatch.setattr(
        tr,
        "_allocate_tuples",
        lambda ids, g_in, q, size: _OwnerFlip(inner * q, first, then),
    )
    if flip:
        with pytest.raises(AssertionError, match="owner missed an edge"):
            enumerate_expander(g, comp, [], seed=5, zeta_scale=1e9)
    else:
        res, t = enumerate_expander(g, comp, [], seed=5, zeta_scale=1e9)
        assert res.reporter_counts() == {first: res.count}
        assert "triangle:deliver" in t.phases


@pytest.mark.parametrize("zeta_scale, phase", [(1.0, "collect"), (1e9, "deliver")])
def test_load_envelope_check_can_fail(monkeypatch, zeta_scale, phase):
    g = gen_er(64, 0.4, seed=3)
    comp = max(connected_components(g), key=len)
    mults = []

    def spy(*args, **kwargs):
        charged, mult = route(*args, **kwargs)
        mults.append(mult)
        return charged, mult

    route = tr.route
    monkeypatch.setattr(tr, "route", spy)
    want, t = enumerate_expander(g, comp, [], seed=5, zeta_scale=zeta_scale)
    assert f"triangle:{phase}" in t.phases
    (mult,) = mults
    assert mult >= 1
    # envelope = LOAD_ENVELOPE * 9 q at tuple size 3; Fraction keeps it exact
    per_unit = 9 * tr._iceil_root(len(comp), 3)
    monkeypatch.setattr(tr, "LOAD_ENVELOPE", Fraction(mult, per_unit))
    res, _ = enumerate_expander(g, comp, [], seed=5, zeta_scale=zeta_scale)
    assert res.attribution == want.attribution
    monkeypatch.setattr(tr, "LOAD_ENVELOPE", Fraction(mult - 1, per_unit))
    match = f"routing load multiplier {mult} exceeds the envelope {mult - 1}$"
    with pytest.raises(GraphError, match=match):
        enumerate_expander(g, comp, [], seed=5, zeta_scale=zeta_scale)


def test_expander_rejects_bad_out_edges():
    g = Graph(5, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(GraphError):
        enumerate_expander(g, [0, 1, 2], [(0, 1)])
    with pytest.raises(GraphError):
        enumerate_expander(g, [0, 1, 2], [(3, 4)])
    # (0, 2) is not an edge of the path, yet both ends lie in the component;
    # accepting it would report the triangle (0, 1, 2), which g lacks.
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(GraphError, match="already lies inside"):
        enumerate_expander(path, [0, 1, 2], [(0, 2)])
    # Vertex 0 has inward degree 2 and cannot send three outward edges; the
    # check holds on the heavy-collector branch as well as the triad one.
    g6 = Graph(6, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(GraphError, match="sending capacity"):
        enumerate_expander(g6, [0, 1, 2], [(0, 3), (0, 4), (0, 5)])


@pytest.mark.parametrize("kappa", [0, -2])
def test_expander_rejects_kappa_below_one(kappa):
    g = gen_clique(6)
    with pytest.raises(GraphError, match="kappa must be at least 1"):
        enumerate_expander(g, range(6), [], kappa=kappa)


def test_expander_heavy_collector_is_a_member():
    # A C5 whose members all reach an outside hub 5: the hub has the most
    # incident edges, but the collector routes inside the component, so it
    # is a member (the smallest of the tied ones) and reports everything.
    g = Graph(6, [(i, (i + 1) % 5) for i in range(5)])
    res, t = enumerate_expander(g, range(5), [(i, 5) for i in range(5)])
    assert res.triangles == {(0, 1, 5), (0, 4, 5), (1, 2, 5), (2, 3, 5), (3, 4, 5)}
    assert set(res.attribution.values()) == {0}
    assert "triangle:collect" in t.phases


def test_expander_empty_component():
    g = Graph(3, [])
    res, t = enumerate_expander(g, [0], [])
    assert res.count == 0 and t.rounds == 0


# -- concentration probe -----------------------------------------------------


def test_probe_acceptance_instance():
    g = gen_er(512, 0.5, seed=1)
    pr = edge_concentration_probe(g, 8, seed=0, trials=20)
    assert pr.bound == pytest.approx(24.0 * g.m / 64.0)
    assert all(x <= pr.bound for x in pr.per_trial)
    assert pr.degree_ok is False  # recorded, not raised


def test_probe_single_class_sees_everything():
    g = gen_clique(10)
    pr = edge_concentration_probe(g, 1, seed=0, trials=3)
    assert pr.per_trial == [g.m] * 3


def test_probe_empty_graph():
    pr = edge_concentration_probe(Graph(5, []), 4, trials=2)
    assert pr.max_pair_edges == 0


def test_probe_rejects_bad_q():
    with pytest.raises(GraphError):
        edge_concentration_probe(gen_clique(4), 0)


# -- general enumeration -----------------------------------------------------


def test_general_small_graphs():
    res, _ = enumerate_general(gen_clique(4), 0.5, seed=1)
    assert res.count == 4
    res, _ = enumerate_general(gen_cycle(5), 0.5, seed=1)
    assert res.count == 0


def test_general_er200_exact_ten_seeds():
    g = gen_er(200, 0.2, seed=7)
    oracle = brute_force_triangles(g).triangles
    for seed in range(10):
        res, _ = enumerate_general(g, 0.5, seed=seed)
        assert res.triangles == oracle
        assert sum(res.reporter_counts().values()) == res.count


def test_general_barbell_exact():
    g = gen_barbell(16, 1)
    res, t = enumerate_general(g, 0.5, seed=2)
    assert res.triangles == brute_force_triangles(g).triangles
    assert res.count == 1120
    assert "triangle:case2:0" in t.phases


def test_general_sparse_er_exact():
    g = gen_er(500, 0.05, seed=0)
    res, _ = enumerate_general(g, 0.5, seed=11)
    assert res.triangles == brute_force_triangles(g).triangles


def test_general_sparse_regime_is_case1_only():
    # below-threshold degrees push every edge into the oriented sparse set
    g = gen_er(128, 8.0 / 128, seed=4)
    res, t = enumerate_general(g, 0.5, seed=4)
    assert res.triangles == brute_force_triangles(g).triangles
    assert not any(k.startswith("triangle:case2") for k in t.phases)


def test_general_case1_calls_get_only_own_pairs(monkeypatch):
    # each case-1 call sees the triangle's own oriented edges, never all
    # of E_s, so the cost per triangle stays constant
    sizes = []
    real = tr.case1_report_owner

    def spy(triangle, oriented):
        sizes.append(len(oriented))
        return real(triangle, oriented)

    monkeypatch.setattr(tr, "case1_report_owner", spy)
    g = gen_er(128, 8.0 / 128, seed=4)
    res, _ = enumerate_general(g, 0.5, seed=4)
    assert res.triangles == brute_force_triangles(g).triangles
    assert len(sizes) == res.count > 0
    assert max(sizes) <= 3 and min(sizes) >= 1


def _clique_with_apex():
    # a 20-clique (one cluster) plus apex 20 joined to clique vertices 0
    # and 1; both apex edges are sparse and owned by the apex, while (0, 1)
    # stays a cluster edge, so triangle (0, 1, 20) mixes E_s and E_m
    edges = [(a, b) for a in range(20) for b in range(a + 1, 20)]
    return Graph(21, edges + [(0, 20), (1, 20)])


def test_general_case1_owner_knowledge_check_fires(monkeypatch):
    g = _clique_with_apex()
    res, t = enumerate_general(g, 0.5, seed=3)
    assert res.triangles == brute_force_triangles(g).triangles
    assert {"triangle:case1:0", "triangle:case2:0"} <= set(t.phases)
    # 20 has out-degree 2, so the smaller head reports; it hears of the
    # sparse edge (1, 20) through 20's announcement
    assert res.attribution[(0, 1, 20)] == 0

    # the apex's opposite edge (0, 1) is a cluster edge that nobody
    # announced to it, so reporting from the apex must trip the check
    real = tr.case1_report_owner

    def apex_reports(triangle, oriented):
        return 20 if 20 in triangle else real(triangle, oriented)

    monkeypatch.setattr(tr, "case1_report_owner", apex_reports)
    with pytest.raises(AssertionError, match="opposite edge"):
        enumerate_general(g, 0.5, seed=3)


def test_general_builds_each_cluster_graph_once(monkeypatch):
    # g_m once per level, one routing extraction per delivery, and no
    # extra graph for the heavy collector
    g = gen_barbell(12, 1)
    oracle = brute_force_triangles(g).triangles
    built = []
    init = Graph.__init__

    def counted(self, n, edges):
        built.append(n)
        init(self, n, edges)

    monkeypatch.setattr(Graph, "__init__", counted)
    res, _ = enumerate_general(g, 0.5, seed=1)
    assert res.triangles == oracle
    assert len(built) <= 11


def test_expander_triad_branch_builds_one_graph_per_member_set(monkeypatch):
    # the isolated pad keeps range(64) from being the whole graph, so the
    # id assignment and the routing would each extract it
    g = Graph(65, gen_er(64, 0.4, seed=3).edges())
    oracle = brute_force_triangles(g).triangles
    built = []
    init = Graph.__init__

    def counted(self, n, edges):
        built.append(n)
        init(self, n, edges)

    monkeypatch.setattr(Graph, "__init__", counted)
    res, t = enumerate_expander(g, range(64), [], seed=5, zeta_scale=1e9)
    assert "triangle:ids" in t.phases
    assert res.triangles == oracle
    assert built == [64]


def _halving_decompose(g, delta, seed=0):
    # a stand-in decomposition with no clusters: the first ceil(m/2)
    # sorted edges go to E_s under their smaller endpoint (an acyclic
    # orientation) and the rest to E_r, so every level drops its lowest
    # vertices and relabels the survivors
    edges = g.edge_list()
    half = -(-len(edges) // 2)
    es = {}
    for u, v in edges[:half]:
        es.setdefault(u, []).append((u, v))
    t = rt.Transcript(seed=seed)
    t.charge("partition", 1)
    return Decomposition(delta, g.n ** delta, {}, es, edges[half:], {}), t


def test_general_deep_levels_map_back_to_g(monkeypatch):
    # no corpus instance reaches level 2, so the stand-in forces eight
    # levels; each level's ids must be composed back to g's
    monkeypatch.setattr(tr, "decompose", _halving_decompose)
    g = gen_er(40, 0.5, seed=1)
    res, t = enumerate_general(g, 0.5, seed=1)
    assert res.triangles == brute_force_triangles(g).triangles
    assert all(owner in tri for tri, owner in res.attribution.items())
    levels = {k.rsplit(":", 1)[1] for k in t.phases if k.startswith("triangle:decompose:")}
    assert levels == {str(i) for i in range(8)}


def _filter_instance():
    """K12 on 0..11 as one cluster; 0 and 1 each carry 13 removed edges to
    the outside vertices 12..25, more than their cluster degree 11, and
    the outside path 12-13-...-25 is E_s under its smaller ends.

    So every cluster edge at 0 or 1 is left to the next level, and each
    cluster triangle (0, 1, x) has all three edges left there.
    """
    cluster = list(combinations(range(12), 2))
    er = [(0, o) for o in range(12, 25)] + [(1, o) for o in range(13, 26)]
    es = {o: [(o, o + 1)] for o in range(12, 25)}
    g = Graph(26, cluster + er + [e for part in es.values() for e in part])
    decomp = Decomposition(
        0.5, g.n ** 0.5, dict.fromkeys(cluster, 0), es, er, {0: frozenset(range(12))}
    )
    return g, decomp


def test_general_recursion_filter_drops_the_next_levels_triangles(monkeypatch):
    g, level0 = _filter_instance()
    oracle = brute_force_triangles(g).triangles
    assert len(oracle) == 220 + 12 + 24

    def decompose(h, delta, seed=0):
        if seed.endswith(":L0"):
            return level0, rt.Transcript(seed=seed)
        return _halving_decompose(h, delta, seed)

    events = []
    lister, expander, extend = tr._triangles_of_edges, tr.enumerate_expander, TriangleSet.extend

    def case1(edges, through=None):
        rows = lister(edges, through)
        if through is not None:
            events.append(("case1", len(rows)))
        return rows

    def listed(*args, **kwargs):
        res, t = expander(*args, **kwargs)
        events.append(("listed", res.count))
        return res, t

    def kept(self, rows, owners):
        events.append(("kept", len(rows)))
        extend(self, rows, owners)

    monkeypatch.setattr(tr, "decompose", decompose)
    monkeypatch.setattr(tr, "_triangles_of_edges", case1)
    monkeypatch.setattr(tr, "enumerate_expander", listed)
    monkeypatch.setattr(TriangleSet, "extend", kept)
    res, t = enumerate_general(g, 0.5, seed=3)
    assert res.triangles == oracle
    assert res.count == len(oracle) == sum(res.reporter_counts().values())
    assert "triangle:decompose:1" in t.phases
    # level 0: the 24 case-1 triangles, then the expander's own set of 220;
    # later levels have no clusters, and one batch at the end holds them all
    assert events[:3] == [("case1", 24), ("kept", 220), ("listed", 220)]
    assert events[-1] == ("kept", len(oracle))
    assert sum(1 for what, _ in events if what == "kept") == 2
    # the filter drops the ten (0, 1, x) cluster rows that the next level reports
    listed_rows = sum(k for what, k in events if what in ("case1", "listed"))
    assert listed_rows - len(oracle) == 10


def test_general_attribution_exactly_once():
    g = gen_er(50, 0.3, seed=9)
    oracle = brute_force_triangles(g).triangles
    for seed in range(20):
        res, _ = enumerate_general(g, 0.5, seed=seed)
        assert res.triangles == oracle
        assert set(res.attribution) == oracle
        assert sum(res.reporter_counts().values()) == len(oracle)


def test_general_deterministic_json():
    import json

    g = gen_er(100, 0.1, seed=3)
    a, ta = enumerate_general(g, 0.5, seed=6)
    b, tb = enumerate_general(g, 0.5, seed=6)
    assert json.dumps([a.as_json(), ta.as_json()], sort_keys=True) == json.dumps(
        [b.as_json(), tb.as_json()], sort_keys=True
    )


def test_count_and_detect():
    g = gen_er(200, 0.2, seed=1)
    assert count_triangles(g, 0.5, seed=0) == brute_force_triangles(g).count
    assert detect_triangle(g, 0.5, seed=0) is True
    assert detect_triangle(gen_path(40), 0.5, seed=0) is False


# -- subgraph listing --------------------------------------------------------


def test_subgraphs_k5_four_cliques():
    res, _ = enumerate_subgraphs(gen_clique(5), 4, seed=1)
    assert res.occurrences == set(combinations(range(5), 4))


def test_subgraphs_triangle_reduction():
    g = gen_er(64, 0.5, seed=2)
    res, _ = enumerate_subgraphs(g, 3, seed=3)
    assert res.occurrences == brute_force_triangles(g).triangles


def test_subgraphs_er48_four_cliques_match_bruteforce():
    g = gen_er(48, 0.5, seed=2)
    res, t = enumerate_subgraphs(g, 4, seed=3)
    brute = {
        vs
        for vs in combinations(range(g.n), 4)
        if all(g.has_edge(a, b) for a, b in combinations(vs, 2))
    }
    assert res.occurrences == brute
    assert t.rounds > 0


def test_subgraphs_path_pattern_induced_flag():
    g = gen_clique(4)
    path4 = [(0, 1), (1, 2), (2, 3)]
    loose, _ = enumerate_subgraphs(g, 4, pattern=path4, seed=0)
    assert loose.occurrences == {(0, 1, 2, 3)}
    strict, _ = enumerate_subgraphs(g, 4, pattern=path4, seed=0, induced=True)
    assert strict.count == 0


def test_subgraphs_partition_path_exact():
    g = gen_er(24, 0.5, seed=5)
    brute = {
        vs
        for vs in combinations(range(g.n), 4)
        if all(g.has_edge(a, b) for a, b in combinations(vs, 2))
    }
    res, t = enumerate_subgraphs(g, 4, seed=1, heavy_scale=1e9)
    assert res.occurrences == brute
    assert "subgraph:deliver" in t.phases


@pytest.mark.parametrize("induced", [False, True])
def test_subgraphs_occurrence_with_isolated_vertex(induced):
    # vertex 6 has no edges, yet with one pattern edge over three slots it
    # sits in occurrences; the class-tuple path must give it a part too
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2)])
    central = {
        vs
        for vs in combinations(range(g.n), 3)
        if (sum(g.has_edge(a, b) for a, b in combinations(vs, 2)) == 1
            if induced else any(g.has_edge(a, b) for a, b in combinations(vs, 2)))
    }
    assert any(6 in vs for vs in central)
    for heavy_scale in (1, 1e9):
        res, t = enumerate_subgraphs(
            g, 3, pattern=[(0, 1)], induced=induced, heavy_scale=heavy_scale
        )
        assert res.occurrences == central
    assert "subgraph:deliver" in t.phases


def test_subgraphs_rejects_bad_size_and_pattern():
    g = gen_clique(5)
    with pytest.raises(GraphError):
        enumerate_subgraphs(g, 2)
    with pytest.raises(GraphError):
        enumerate_subgraphs(g, 6)
    with pytest.raises(GraphError):
        enumerate_subgraphs(g, 4, pattern=[(0, 4)])
