"""Triangle and subgraph enumeration against the brute-force oracles."""

import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congestlab import runtime as rt
from conftest import oracle_adj
from congestlab import triangle as tr
from congestlab.decomposition import Decomposition
from congestlab.graphcore import (
    MAX_VERTICES,
    Edge,
    Graph,
    GraphError,
    connected_components,
    edge_key,
    gen_barbell,
    gen_clique,
    gen_cycle,
    gen_er,
    gen_path,
    gen_planted_cut,
    generate,
    induced_subgraph,
)
from congestlab.cli import run_cli
from congestlab.routing import IdAssignment, assign_degree_class_ids
from test_routing import class_of_new_id
from congestlab.triangle import (
    TriangleSet,
    _allocate_tuples,
    _case1_owners,
    _triangles_of_edges,
    brute_force_triangles,
    count_triangles,
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


def _oracle_rows(edges):
    """Brute-force triangles of an edge list with any ids and repeats."""
    canon = {edge_key(u, v) for u, v in edges}
    n = max((v for e in canon for v in e), default=-1) + 1
    return sorted(brute_force_triangles(Graph(n, canon)).triangles)


_edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(lambda e: e[0] != e[1]),
    max_size=70,
)


@given(_edge_lists)
@settings(max_examples=200, deadline=None)
def test_lister_matches_brute_force(edges):
    assert _listed(_triangles_of_edges(edges)) == _oracle_rows(edges)


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


def test_lister_expands_wedges_in_blocks(monkeypatch):
    g = gen_er(40, 0.5, seed=2)
    want = _listed(_triangles_of_edges(g.edge_list()))
    monkeypatch.setattr(tr, "WEDGE_BLOCK", 7)
    assert _listed(_triangles_of_edges(g.edge_list())) == want


# -- triad allocation --------------------------------------------------------


# The allocation and the triad branch as they were written before the owner
# table: a dict entry per class tuple, one owner_of call per (edge, rest)
# pair and per occurrence, and one known set per member. They are the
# oracle that the owner table and the array branch are held to.


@dataclass
class _LoopAllocation:
    """Ownership map from sorted class tuples to vertices.

    Built locally from the degree-class id assignment: the average degree
    rounded down to a power of two fixes every vertex's class, and the
    tuples are handed out in blocks of 2^class along the new-id order.
    """

    q: int
    size: int
    tuples: Tuple[Tuple[int, ...], ...]
    ranges: Dict[int, Tuple[int, int]]
    classes: Dict[int, int]
    delta_bar: int
    _owner: Dict[Tuple[int, ...], Optional[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Every class tuple maps to its owner, or to None outside all ranges.
        self._owner = dict.fromkeys(self.tuples)
        for v, (lo, hi) in self.ranges.items():
            self._owner.update(dict.fromkeys(self.tuples[lo:hi], v))

    def owner_of(self, class_tuple: Sequence[int]) -> int:
        key = tuple(sorted(class_tuple))
        if key not in self._owner:
            raise GraphError(f"{key} is not a class tuple for q={self.q}")
        owner = self._owner[key]
        if owner is None:
            raise GraphError(f"class tuple {key} was never allocated")
        return owner


def _loop_allocate_tuples(ids, g_in: Graph, q: int, size: int) -> _LoopAllocation:
    order = ids.order.tolist()
    members = sorted(order)
    n = len(members)
    total_deg = sum(g_in.deg[v] for v in members)
    if total_deg == 0:
        raise GraphError("tuple allocation needs at least one edge")
    m = total_deg // 2
    j = int(math.floor(math.log2(2.0 * m / n)))
    delta_bar = 2 ** j

    # Degree class c is floor(log2 deg); against average 2^j the vertex
    # class becomes c - j + 2, with everything below average/2 in class 0.
    classes: Dict[int, int] = {}
    for new, v in enumerate(order, 1):
        classes[v] = max(class_of_new_id(new, ids.counts) - j + 2, 0)

    tuples = tuple(combinations_with_replacement(range(1, q + 1), size))
    ranges: Dict[int, Tuple[int, int]] = {}
    ptr = 0
    for v in order:
        if ptr >= len(tuples):
            break
        i = classes[v]
        if i == 0:
            continue
        take = min(2 ** i, len(tuples) - ptr)
        ranges[v] = (ptr, ptr + take)
        ptr += take
    if ptr < len(tuples):
        raise GraphError(
            f"class capacity covers {ptr} of {len(tuples)} tuples; "
            "the input violates the average-degree counting fact"
        )
    return _LoopAllocation(q, size, tuples, ranges, classes, delta_bar)


def _class_ids(g, members):
    """The degree-class ids of the members' induced graph, as the triad
    branch computes them, with the order mapped back to g's ids."""
    sub, ids = induced_subgraph(g, members)
    asg, rounds = assign_degree_class_ids(sub)
    return IdAssignment(np.asarray(ids)[asg.order], asg.counts), rounds


def _loop_triad_branch(g, members, edges, occurrences, s, seed, part_tag):
    """The triad branch's (request rows, occurrence owners), pair by pair."""
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    sends = np.isin(ends, np.asarray(members, dtype=np.int64))
    occurrences = np.asarray(occurrences, dtype=np.int64).reshape(-1, s)
    q = tr._iceil_root(len(members), s)
    ids, _ = _class_ids(g, members)
    parts = {
        v: random.Random(f"{seed}:{v}:{part_tag}").randint(1, q)
        for v in set(ends.ravel().tolist()).union(occurrences.ravel().tolist())
    }
    alloc = _loop_allocate_tuples(ids, g, q, s)

    # A member knows its incident edges and every edge sent to it.
    rests = list(combinations_with_replacement(range(1, q + 1), s - 2))
    known: Dict[int, Set[Edge]] = {v: set() for v in members}
    rows: List[Tuple[int, int]] = []
    pairs = list(map(tuple, ends.tolist()))
    for e, sent in zip(pairs, sends.tolist()):
        u, v = e
        senders = [x for x, member in zip(e, sent) if member]
        for sender in senders:
            known[sender].add(e)
        for rest in rests:
            owner = alloc.owner_of((parts[u], parts[v]) + rest)
            for sender in senders:
                rows.append((sender, owner))
                known[owner].add(e)
    requests = np.array(rows, dtype=np.int64).reshape(-1, 2)

    edge_set = set(pairs)
    owner_list = []
    for occ in occurrences.tolist():
        owner = alloc.owner_of(tuple(parts[v] for v in occ))
        for e in combinations(occ, 2):
            if e in edge_set:
                assert e in known[owner], "owner missed an edge"
        owner_list.append(owner)
    return requests, np.array(owner_list, dtype=np.int64)


def _array_triad_branch(g, members, edges, occurrences, s, seed, part_tag):
    """The same pair from `_list_by_class_tuples`, forced onto the triad
    branch, with `route` stubbed to hand back the requests unpriced."""
    sent = []
    with pytest.MonkeyPatch.context() as mp:
        # the requests reach route in the members' induced ids; map them back
        mp.setattr(tr, "route", lambda sub, requests, kappa: sent.append(
            np.asarray(members)[requests]) or (0, 1))
        owners = tr._list_by_class_tuples(
            rt.Transcript(), g, *induced_subgraph(g, members),
            np.asarray(edges, dtype=np.int64).reshape(-1, 2),
            np.asarray(occurrences, dtype=np.int64).reshape(-1, s),
            s, seed, part_tag, "triad", 1e9, None,
        )
    (requests,) = sent
    return requests, owners


def _table_owner(alloc, class_tuple):
    """A 1-based class tuple's owner, read through the owner table."""
    return int(alloc.owners[alloc.rank[tuple(sorted(p - 1 for p in class_tuple))]])


def _same_allocation(ids, g, q, size):
    """Check the owner table against the loop allocation, or that both
    refuse the instance with the same message."""
    try:
        loop = _loop_allocate_tuples(ids, g, q, size)
    except GraphError as exc:
        with pytest.raises(GraphError, match=f"^{re.escape(str(exc))}$"):
            _allocate_tuples(ids, g, q, size)
        return None
    alloc = _allocate_tuples(ids, g, q, size)
    assert alloc.rank.shape == (q,) * size
    assert len(alloc.owners) == len(loop.tuples)
    for r, t in enumerate(loop.tuples):
        assert alloc.rank[tuple(p - 1 for p in t)] == r
        assert _table_owner(alloc, t) == loop.owner_of(t)
    return loop


@st.composite
def _triad_instances(draw):
    """Members spanning one connected core with extra inner edges,
    outward edges to the other vertices (edges of g or not), a tuple size,
    sorted occurrence rows over the edges' ends, and a class count q for
    the allocation on its own, large enough at times to break capacity."""
    n = draw(st.integers(3, 16))
    order = draw(st.permutations(range(n)))
    core = order[: draw(st.integers(2, n))]
    inner = {edge_key(v, core[draw(st.integers(0, i - 1))]) for i, v in enumerate(core) if i}
    inner |= draw(st.sets(st.sampled_from(list(combinations(sorted(core), 2)))))
    rest = order[len(core):]
    outward = set()
    if rest:
        outward = draw(st.sets(st.tuples(st.sampled_from(core), st.sampled_from(rest)).map(
            lambda e: edge_key(*e))))
    g = Graph(n, sorted(inner | outward) if draw(st.booleans()) else sorted(inner))
    edges = sorted(inner | outward)
    s = draw(st.integers(3, 5))
    ends = sorted({v for e in edges for v in e})
    occurrences = []
    if len(ends) >= s:
        occurrences = draw(st.lists(
            st.lists(st.sampled_from(ends), min_size=s, max_size=s, unique=True).map(sorted),
            max_size=25, unique_by=tuple,
        ))
    return g, sorted(core), edges, occurrences, s, draw(st.integers(1, 9))


_CORE_AND_LEAVES = Graph(
    20, [(a, b) for a in range(10) for b in range(a + 1, 10)] + [(a, a + 10) for a in range(10)]
)


@given(_triad_instances(), st.integers(0, 3))
@example((_CORE_AND_LEAVES, list(range(20)), _CORE_AND_LEAVES.edge_list(),
          [(0, 1, 2), (0, 1, 10), (3, 4, 5)], 3, 4), 1)
@example((_CORE_AND_LEAVES, list(range(10)), _CORE_AND_LEAVES.edge_list(),
          [(0, 1, 2, 3), (0, 1, 2, 12)], 4, 3), 2)
@example((gen_cycle(8), list(range(8)), gen_cycle(8).edge_list(), [], 3, 50), 0)
@settings(max_examples=200, deadline=None)
def test_triad_array_branch_matches_the_loop(instance, seed):
    # examples: class-0 leaves in and out of the members (outward edges at
    # s = 4), and a cycle at q = 50, past the class capacity
    g, members, edges, occurrences, s, q = instance
    _same_allocation(_class_ids(g, members)[0], g, q, s)
    try:
        want = _loop_triad_branch(g, members, edges, occurrences, s, seed, "t")
    except GraphError as exc:
        with pytest.raises(GraphError, match=f"^{re.escape(str(exc))}$"):
            _array_triad_branch(g, members, edges, occurrences, s, seed, "t")
        return
    requests, owners = _array_triad_branch(g, members, edges, occurrences, s, seed, "t")
    assert requests.tolist() == want[0].tolist()
    assert owners.tolist() == want[1].tolist()


def test_triad_counts_and_order():
    g = gen_cycle(16)
    ids, _ = assign_degree_class_ids(g)
    alloc = _allocate_tuples(ids, g, 2, 3)
    ranks = {t: int(alloc.rank[t]) for t in product(range(2), repeat=3) if alloc.rank[t] >= 0}
    assert ranks == {(0, 0, 0): 0, (0, 0, 1): 1, (0, 1, 1): 2, (1, 1, 1): 3}
    assert len(alloc.owners) == 4
    alloc3 = _allocate_tuples(ids, g, 3, 3)
    assert len(alloc3.owners) == 10
    assert sorted(alloc3.rank[alloc3.rank >= 0].tolist()) == list(range(10))


def test_triad_ranges_partition_regular_graph():
    # every cycle vertex has degree 2 = average, so each allocated vertex
    # takes a block of 4 along the new-id order until the tuples run out
    g = gen_cycle(16)
    ids, _ = assign_degree_class_ids(g)
    alloc = _allocate_tuples(ids, g, 3, 3)
    first = ids.order[:3].tolist()
    assert alloc.owners.tolist() == [first[0]] * 4 + [first[1]] * 4 + [first[2]] * 2


def test_triad_class_zero_gets_nothing():
    # The leaves of a 10-clique sit below half the average degree 5.5, so
    # they are class 0; they come first in the new-id order and own nothing.
    g = _CORE_AND_LEAVES
    ids, _ = assign_degree_class_ids(g)
    j = 2  # floor(log2(2 * 55 / 20))
    order = ids.order.tolist()
    zero = {v for new, v in enumerate(order, 1) if class_of_new_id(new, ids.counts) - j + 2 <= 0}
    assert zero == set(range(10, 20))
    assert order[:10] == list(range(10, 20))
    for q, size in ((2, 3), (3, 3), (2, 4)):
        owners = set(_allocate_tuples(ids, g, q, size).owners.tolist())
        assert owners and not owners & zero


def test_triad_capacity_error():
    g = gen_cycle(8)
    ids, _ = assign_degree_class_ids(g)
    with pytest.raises(GraphError, match="class capacity covers 32 of 22100 tuples"):
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


def test_triad_owner_table_matches_linear_rule():
    sparse = gen_er(40, 0.2, seed=2)
    dense = gen_er(64, 0.3, seed=1)
    loops = []
    for g, q, size in (
        (_CORE_AND_LEAVES, 2, 3),
        (_CORE_AND_LEAVES, 3, 3),
        (_CORE_AND_LEAVES, 2, 4),
        (sparse, 3, 3),
        (dense, 4, 3),
        (dense, 3, 4),
    ):
        members = [v for v in range(g.n) if g.deg[v] > 0]
        ids, _ = _class_ids(g, members)
        loops.append((tr._allocate_tuples(ids, g, q, size), _same_allocation(ids, g, q, size)))
    assert sum(1 for _, loop in loops if 0 in loop.classes.values()) >= 4
    for alloc, loop in loops:
        for t in loop.tuples:
            assert _table_owner(alloc, t) == _linear_owner(loop, t)
            assert _table_owner(alloc, t[::-1]) == _table_owner(alloc, t)


# -- sparse-edge owner rules -------------------------------------------------


def case1_report_owner(triangle, oriented):
    """Pick the unique reporter of a triangle touching oriented edges.

    `oriented` holds (tail, head) pairs for the triangle's oriented edges;
    absent pairs are unoriented, and pairs off the triangle are ignored.
    A one-row call to `_case1_owners`: returns None when no edge is
    oriented or the pattern is cyclic, an edge oriented both ways
    included.
    """
    verts = tuple(sorted(set(triangle)))
    if len(verts) != 3:
        raise GraphError("a triangle needs three distinct vertices")
    sides = dict(zip(combinations(verts, 2), range(3)))
    tails = [-1] * 3
    for a, b in set(oriented):
        j = sides.get(edge_key(a, b))
        if j is None:
            continue
        if tails[j] >= 0:
            return None
        tails[j] = a
    owner = int(_case1_owners(verts, tails)[0])
    return owner if owner >= 0 else None


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


def _oracle_case1_owner(triangle, oriented):
    """The published owner rules over sets, one triangle at a time."""
    verts = tuple(sorted(set(triangle)))
    if len(verts) != 3:
        raise GraphError("a triangle needs three distinct vertices")
    vset = set(verts)
    pairs = {(a, b) for a, b in oriented if a in vset and b in vset and a != b}
    if not pairs:
        return None
    out = {v: sorted(b for a, b in pairs if a == v) for v in verts}
    inn = {v: sorted(a for a, b in pairs if b == v) for v in verts}

    for v in verts:
        if len(out[v]) == 2:
            return out[v][0]
    # A sink here has its opposite edge unoriented, or an end would be an apex.
    for v in verts:
        if len(inn[v]) == 2:
            return inn[v][0]
    if len(pairs) == 1:
        ((a, b),) = pairs
        return next(v for v in verts if v not in (a, b))
    if len(pairs) == 2:
        # Neither an apex nor a sink, so a directed path a -> z -> b.
        (z,) = {b for _, b in pairs} & {a for a, _ in pairs}
        return out[z][0]
    return None


def _oracle_case1_owners(rows, tails):
    """`tr._case1_owners` as a loop over the set-based oracle."""
    owners = []
    for t, tail in zip(rows.tolist(), tails.tolist()):
        sides = ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
        pairs = [(x, e[0] + e[1] - x) for e, x in zip(sides, tail) if x >= 0]
        owner = _oracle_case1_owner(t, pairs)
        owners.append(-1 if owner is None else owner)
    return np.array(owners, dtype=np.int64).reshape(-1)


def _patterns():
    """Every orientation of the triangle's three edges, under each of the
    6 id orders of its vertices: (sorted row, tails of ab, ac, bc, pairs)."""
    for ids in permutations((10, 20, 30)):
        x, y, z = ids
        for states in product((0, 1, 2), repeat=3):
            pairs = [
                (u, v) if st == 1 else (v, u)
                for (u, v), st in zip(((x, y), (x, z), (y, z)), states)
                if st
            ]
            row = tuple(sorted(ids))
            tails = [
                next((a for a, b in pairs if {a, b} == {u, v}), -1)
                for u, v in combinations(row, 2)
            ]
            yield row, tails, pairs


def _is_cyclic(pairs):
    return len(pairs) == 3 and len({b for _, b in pairs}) == 3


def test_case1_array_rule_matches_oracle_on_every_pattern():
    # all 24 acyclic patterns under all 6 id orders, so that every vertex
    # takes each of the a < b < c roles
    cases = [(r, t, p) for r, t, p in _patterns() if p and not _is_cyclic(p)]
    assert len(cases) == 24 * 6
    rows = np.array([r for r, _, _ in cases])
    tails = np.array([t for _, t, _ in cases])
    expected = [_oracle_case1_owner(r, p) for r, _, p in cases]
    assert None not in expected
    assert tr._case1_owners(rows, tails).tolist() == expected
    assert [case1_report_owner(r, p) for r, _, p in cases] == expected


def test_case1_cyclic_and_empty_patterns_get_no_owner():
    cases = [(r, t, p) for r, t, p in _patterns() if not p or _is_cyclic(p)]
    # per id order: the empty pattern and the two directed cycles
    assert len(cases) == 3 * 6
    rows = np.array([r for r, _, _ in cases])
    tails = np.array([t for _, t, _ in cases])
    assert tr._case1_owners(rows, tails).tolist() == [-1] * len(cases)
    for r, _, p in cases:
        assert _oracle_case1_owner(r, p) is None
        assert case1_report_owner(r, p) is None
    # an edge oriented both ways is a cycle too
    assert case1_report_owner((1, 2, 3), {(1, 2), (2, 1)}) is None


def _general_owners_match_oracle(monkeypatch, g, seed):
    res, t = enumerate_general(g, 0.5, seed=seed)
    assert any(k.startswith("triangle:case1") for k in t.phases)
    calls = []

    def oracle(rows, tails):
        calls.append(len(rows))
        return _oracle_case1_owners(rows, tails)

    monkeypatch.setattr(tr, "_case1_owners", oracle)
    looped, t_looped = enumerate_general(g, 0.5, seed=seed)
    monkeypatch.undo()
    assert sum(calls) > 0
    assert dict(looped.attribution) == dict(res.attribution)
    assert t_looped.as_json() == t.as_json()
    return res, t


@pytest.mark.parametrize(
    "spec,seed",
    [
        ("er:n=120,p=0.06", 1),
        ("er:n=150,p=0.12", 2),
        ("er:n=50,p=0.3", 0),
        ("er:n=50,p=0.3", 2),
    ],
)
def test_general_case1_owners_match_oracle_loop(monkeypatch, spec, seed):
    # the golden count specs with case-1 triangles, and two levels whose
    # E_s is a few of about 400 edges, beside case 2
    _general_owners_match_oracle(monkeypatch, generate(spec, seed=seed), seed)


def test_general_case1_owners_match_oracle_loop_on_mixed_triangle(monkeypatch):
    res, _ = _general_owners_match_oracle(monkeypatch, _clique_with_apex(), 3)
    assert res.attribution[(0, 1, 20)] == 0


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
    """Allocation fake over a real one's rank table: the first read of the
    owner table (the edge sends) finds `first` owning every tuple, each
    later read (the occurrences) finds `then`."""

    def __init__(self, alloc, first, then):
        self.rank, self.size = alloc.rank, len(alloc.owners)
        self.first, self.then, self.reads = first, then, 0

    @property
    def owners(self):
        self.reads += 1
        return np.full(self.size, self.first if self.reads == 1 else self.then)


@pytest.mark.parametrize("flip", [False, True])
def test_triad_owner_missing_an_edge_trips_the_assert(monkeypatch, flip):
    g = gen_er(64, 0.4, seed=3)
    comp = max(connected_components(g), key=len)
    first = comp[0]
    then = comp[-1] if flip else first
    # Every edge goes to `first`, so `then` knows only its own incident
    # edges when the occurrences are owned.
    real = tr._allocate_tuples
    fakes = []
    monkeypatch.setattr(
        tr,
        "_allocate_tuples",
        lambda *args: fakes.append(_OwnerFlip(real(*args), first, then)) or fakes[-1],
    )
    if flip:
        with pytest.raises(AssertionError, match="owner missed an edge"):
            enumerate_expander(g, comp, [], seed=5, zeta_scale=1e9)
    else:
        res, t = enumerate_expander(g, comp, [], seed=5, zeta_scale=1e9)
        assert res.reporter_counts() == {first: res.count}
        assert "triangle:deliver" in t.phases
    assert [f.reads for f in fakes] == [2]


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


@pytest.mark.parametrize(
    "component, e_out, bad",
    [
        ([0, 1, 99], [], 99),
        ([0, 1, -1], [], -1),
        ([0, 1, 2], [(0, 2 ** 40)], 2 ** 40),
        ([0, 1, 2], [(0, -1)], -1),
    ],
)
def test_expander_refuses_ids_outside_the_graph(component, e_out, bad):
    # once an IndexError, an "infinite mixing time", an 8 TiB allocation in
    # the lister, and an accepted edge
    with pytest.raises(GraphError, match=f"^vertex {bad} is not in 0..5$"):
        enumerate_expander(gen_clique(6), component, e_out)


def test_expander_bad_out_edge_errors_name_the_first_offender():
    # the first bad edge in e_out's order, of either kind, is named
    g = Graph(6, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(GraphError, match=re.escape("outward edge (3, 4) does not touch")):
        enumerate_expander(g, [0, 1, 2], [(0, 3), (4, 3), (1, 0)])
    with pytest.raises(GraphError, match=re.escape("outward edge (0, 1) already lies inside")):
        enumerate_expander(g, [0, 1, 2], [(0, 3), (1, 0), (4, 3)])
    # capacity is read in sorted edge order: 0 may send two of its edges,
    # so (0, 5), its third, is refused, not (1, 3) or (0, 3)
    match = re.escape("outward edge (0, 5) exceeds the sending capacity of 0")
    with pytest.raises(GraphError, match=match + "$"):
        enumerate_expander(g, [0, 1, 2], [(5, 0), (1, 3), (0, 4), (0, 3), (3, 1)])
    with pytest.raises(GraphError, match=re.escape("(2, 5) exceeds the sending capacity of 2")):
        enumerate_expander(g, [0, 1, 2], [(2, 5), (2, 4), (2, 3), (0, 5), (0, 3)])


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


def _oracle_probe(g, q, seed, trials):
    """The dict count: one (min part, max part) key per edge, per trial."""
    per_trial = []
    for t in range(trials):
        rng = random.Random(f"{seed}:probe:{t}")
        part = [rng.randint(1, q) for _ in range(g.n)]
        counts = {}
        for u, v in g.edges():
            key = (min(part[u], part[v]), max(part[u], part[v]))
            counts[key] = counts.get(key, 0) + 1
        per_trial.append(max(counts.values()) if counts else 0)
    return per_trial


@pytest.mark.parametrize("spec", ["er:n=120,p=0.2", "barbell:k=9,bridges=2", "star:n=30"])
@pytest.mark.parametrize("q", [1, 2, 3, 8, 10**6, 10**30])
def test_probe_matches_the_dict_count(spec, q):
    # a q past int64 still counts exactly, and no table of q^2 slots is built
    g = generate(spec, seed=2)
    assert edge_concentration_probe(g, q, seed=5, trials=6).per_trial == _oracle_probe(g, q, 5, 6)


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
    # the owner rule sees each case-1 triangle once, with only its own
    # three edges' tails, never all of E_s, so the cost per triangle stays
    # constant
    calls = []
    real = tr._case1_owners

    def spy(rows, tails):
        calls.append((rows, tails))
        return real(rows, tails)

    monkeypatch.setattr(tr, "_case1_owners", spy)
    g = gen_er(128, 8.0 / 128, seed=4)
    res, _ = enumerate_general(g, 0.5, seed=4)
    assert res.triangles == brute_force_triangles(g).triangles
    ((rows, tails),) = calls
    assert rows.shape == tails.shape == (res.count, 3)
    assert res.count > 0
    ends = rows[:, [[0, 1], [0, 2], [1, 2]]]  # the ends of edges ab, ac, bc
    oriented = tails >= 0
    assert oriented.any(axis=1).all()
    assert (ends == tails[:, :, None]).any(axis=2)[oriented].all()


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
    real = tr._case1_owners

    def apex_reports(rows, tails):
        return np.where((rows == 20).any(axis=1), 20, real(rows, tails))

    monkeypatch.setattr(tr, "_case1_owners", apex_reports)
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
    edges = g._edge_array()
    half = -(-len(edges) // 2)
    owners, starts = np.unique(edges[:half, 0], return_index=True)
    es = dict(zip(owners.tolist(), np.split(edges[:half], starts[1:])))
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
    cluster = np.array(list(combinations(range(12), 2)))
    er = np.array([(0, o) for o in range(12, 25)] + [(1, o) for o in range(13, 26)])
    es = {o: np.array([(o, o + 1)]) for o in range(12, 25)}
    g = Graph(26, np.concatenate([cluster, er, *es.values()]))
    decomp = Decomposition(
        0.5, g.n ** 0.5, {0: cluster}, es, er, {0: frozenset(range(12))}
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
    owners, expander, extend = tr._case1_owners, tr.enumerate_expander, TriangleSet.extend

    def case1(rows, tails):
        events.append(("case1", len(rows)))
        return owners(rows, tails)

    def listed(*args, **kwargs):
        res, t = expander(*args, **kwargs)
        events.append(("listed", res.count))
        return res, t

    def kept(self, rows, owners):
        events.append(("kept", len(rows)))
        extend(self, rows, owners)

    monkeypatch.setattr(tr, "decompose", decompose)
    monkeypatch.setattr(tr, "_case1_owners", case1)
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


@given(
    st.one_of(
        st.builds(gen_er, st.integers(4, 30), st.floats(0.1, 0.9), st.integers(0, 10 ** 6)),
        st.builds(gen_planted_cut, st.integers(8, 20), st.floats(0.3, 0.9),
                  st.integers(1, 3), st.integers(0, 10 ** 6)),
    ).filter(lambda g: g.m > 0),
    # at delta 0.7, decompose itself can stop with "no vertex progress"
    # (er:n=38,p=0.3 at seed 16), a fault outside case 1
    st.sampled_from([0.3, 0.5]),
    st.integers(0, 10 ** 6),
)
@settings(max_examples=60, deadline=None)
def test_case1_rows_are_the_level_triangles_with_a_sparse_edge(g, delta, seed):
    """At level 0, the rows `_case1_owners` gets are exactly the brute-force
    triangles that hold an E_s edge of that level's decomposition."""
    decomps, reached = [], []
    decompose, owners = tr.decompose, tr._case1_owners

    def recorded(h, d, seed=0):
        decomp, dtx = decompose(h, d, seed=seed)
        decomps.append(decomp)
        return decomp, dtx

    def case1(rows, tails):
        if len(decomps) == 1:
            reached.append(rows.copy())
        return owners(rows, tails)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr, "decompose", recorded)
        mp.setattr(tr, "_case1_owners", case1)
        res, _ = enumerate_general(g, delta, seed=seed)
    oracle = brute_force_triangles(g).triangles
    assert res.triangles == oracle
    es = {edge_key(u, v) for rows in decomps[0].es.values() for u, v in rows.tolist()}
    want = [t for t in sorted(oracle) if es & {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])}]
    assert len(reached) == (1 if es else 0)
    assert [tuple(r) for rows in reached for r in rows.tolist()] == want


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


def detect_triangle(g, delta=0.5, seed=0):
    return count_triangles(g, delta, seed) > 0


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
    adj = [set(a) for a in oracle_adj(g.n, g.edges())]
    brute = {
        vs
        for vs in combinations(range(g.n), 4)
        if all(b in adj[a] for a, b in combinations(vs, 2))
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
    adj = [set(a) for a in oracle_adj(g.n, g.edges())]
    brute = {
        vs
        for vs in combinations(range(g.n), 4)
        if all(b in adj[a] for a, b in combinations(vs, 2))
    }
    res, t = enumerate_subgraphs(g, 4, seed=1, heavy_scale=1e9)
    assert res.occurrences == brute
    assert "subgraph:deliver" in t.phases


@pytest.mark.parametrize("induced", [False, True])
def test_subgraphs_occurrence_with_isolated_vertex(induced):
    # vertex 6 has no edges, yet with one pattern edge over three slots it
    # sits in occurrences; the class-tuple path must give it a part too
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2)])
    adj = [set(a) for a in oracle_adj(g.n, g.edges())]
    central = {
        vs
        for vs in combinations(range(g.n), 3)
        if (sum(b in adj[a] for a, b in combinations(vs, 2)) == 1
            if induced else any(b in adj[a] for a, b in combinations(vs, 2)))
    }
    assert any(6 in vs for vs in central)
    for heavy_scale in (1, 1e9):
        res, t = enumerate_subgraphs(
            g, 3, pattern=[(0, 1)], induced=induced, heavy_scale=heavy_scale
        )
        assert res.occurrences == central
    assert "subgraph:deliver" in t.phases


def _matches(pattern: Sequence[Edge], verts: Sequence[int], adj: list, induced: bool) -> bool:
    s = len(verts)
    pat = {edge_key(a, b) for a, b in pattern}
    for perm in permutations(range(s)):
        ok = True
        for a in range(s):
            for b in range(a + 1, s):
                present = adj[verts[perm[a]]][verts[perm[b]]]
                wanted = edge_key(a, b) in pat
                if wanted and not present:
                    ok = False
                    break
                if induced and present and not wanted:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


@st.composite
def _pattern_instances(draw):
    """A graph on at most 9 vertices whose edges span one connected core
    (the listing routes over it) beside isolated vertices, a tuple size,
    and a pattern over its slots, the empty pattern included."""
    n = draw(st.integers(2, 9))
    order = draw(st.permutations(range(n)))
    core = order[: draw(st.integers(2, n))]
    edges = {edge_key(v, core[draw(st.integers(0, i - 1))]) for i, v in enumerate(core) if i}
    edges |= draw(st.sets(st.sampled_from(list(combinations(sorted(core), 2)))))
    s = draw(st.integers(3, 5))
    pattern = draw(st.lists(st.sampled_from(list(combinations(range(s), 2))), unique=True))
    return Graph(n, sorted(edges)), s, [draw(st.permutations(e)) for e in pattern]


@given(_pattern_instances(), st.booleans())
@example((Graph(6, [(0, 1), (1, 2), (0, 2), (2, 4)]), 3, []), True)
@example((Graph(6, [(0, 1), (1, 2), (0, 2), (2, 4)]), 4, [(1, 0)]), False)
@settings(max_examples=150, deadline=None)
def test_subgraphs_match_the_permutation_oracle(instance, induced):
    # vertices 3 and 5 of the examples are isolated, as are many drawn ones
    g, s, pattern = instance
    adj = [[False] * g.n for _ in range(g.n)]
    for u, v in g.edges():
        adj[u][v] = adj[v][u] = True
    want = {vs for vs in combinations(range(g.n), s) if _matches(pattern, vs, adj, induced)}
    res, _ = enumerate_subgraphs(g, s, pattern=pattern, seed=2, induced=induced)
    assert res.occurrences == want


def test_subgraphs_cli_lists_each_edge_component(tmp_path, capsys):
    # the graph's edges span several components, which each route apart
    out = tmp_path / "r.json"
    argv = ["--mode", "subgraphs", "--gen", "er:n=40,p=0.05", "--mode-args", "s=3"]
    assert run_cli(argv + ["--seed", "1", "--out", str(out)]) == 0
    (run,) = json.loads(out.read_text())["runs"]
    g = generate("er:n=40,p=0.05", seed=1)
    assert len([c for c in connected_components(g) if len(c) > 1]) > 1
    adj = [[False] * g.n for _ in range(g.n)]
    for u, v in g.edges():
        adj[u][v] = adj[v][u] = True
    clique = list(combinations(range(3), 2))
    want = [list(vs) for vs in combinations(range(g.n), 3) if _matches(clique, vs, adj, False)]
    assert want and run["occurrences"] == want
    assert capsys.readouterr().out == f"subgraphs={len(want)}\n"


@pytest.mark.parametrize("heavy_scale", [1.0, 1e9])
def test_subgraphs_list_per_edge_component(monkeypatch, heavy_scale):
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    runs = []

    def spy(tx, g_, sub, ids_of, *args):
        runs.append((list(ids_of), tx))
        return core(tx, g_, sub, ids_of, *args)

    core = tr._list_by_class_tuples
    monkeypatch.setattr(tr, "_list_by_class_tuples", spy)
    res, t = enumerate_subgraphs(g, 3, heavy_scale=heavy_scale)
    assert res.attribution == {(0, 1, 2): 0}
    assert [m for m, _ in runs] == [[0, 1, 2], [3, 4]]
    # the component with the most rounds, the first on a tie, sets the
    # phases; every component's messages count
    top = max((tx for _, tx in runs), key=lambda tx: tx.rounds)
    assert t.rounds == top.rounds
    assert {k: v for k, v in t.phases.items() if not k.startswith("flag:")} == top.phases
    assert t.message_count == sum(tx.message_count for _, tx in runs) > 0
    phase = "subgraph:collect" if heavy_scale == 1 else "subgraph:deliver"
    assert phase in t.phases
    # a pattern that is not connected could span the components
    for pattern in ([(0, 1)], []):
        with pytest.raises(GraphError, match="disconnected pattern can span the 2 edge"):
            enumerate_subgraphs(g, 3, pattern=pattern, heavy_scale=heavy_scale)


def test_class_tuple_core_names_a_disconnected_member_set_by_g_ids():
    # two triangles as one component: the degree-class ids' BFS build, on
    # the members' induced copy, names the missed members by g's ids
    g = Graph(10, [(0, 1), (1, 2), (0, 2), (7, 8), (8, 9), (7, 9), (3, 4)])
    with pytest.raises(rt.CongestError, match=r"^component is not connected: root 0 does not reach \[7, 8, 9\]$"):
        enumerate_expander(g, [0, 1, 2, 7, 8, 9], [], zeta_scale=1e9)


def test_subgraphs_rejects_bad_size_and_pattern():
    g = gen_clique(5)
    with pytest.raises(GraphError):
        enumerate_subgraphs(g, 2)
    with pytest.raises(GraphError):
        enumerate_subgraphs(g, 6)
    with pytest.raises(GraphError):
        enumerate_subgraphs(g, 4, pattern=[(0, 4)])
