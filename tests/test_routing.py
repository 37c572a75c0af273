"""Degree-class ids and the routing cost oracle."""

import math
import random

import pytest

from congestlab import graphcore as gc
from congestlab import routing as rta
from conftest import oracle_adj


def degree_class(deg: int) -> int:
    """Oracle: floor(log2 deg), with degrees 0 and 1 in class 0."""
    return 0 if deg <= 1 else int(math.log2(deg))


def class_of_new_id(new_id: int, counts) -> int:
    """Oracle: a vertex's degree class from its new id and the class counts."""
    upper = 0
    for cls, cnt in enumerate(counts):
        upper += cnt
        if new_id <= upper:
            return cls
    raise ValueError(f"new id {new_id} exceeds the assignment size {upper}")


def test_star_assignment():
    g = gc.gen_star(5)
    asg, charged = rta.assign_degree_class_ids(g)
    # leaves are class 0 and take ids 1..4; the center is class 2 with id 5
    assert asg.order.tolist() == [1, 2, 3, 4, 0]
    assert asg.counts.tolist() == [4, 0, 1]
    # BFS build from 0: depth 1, 2 rounds; then a convergecast and a
    # broadcast of k = floor(log2 5) + 1 = 3 counts, 1 + 3 - 1 rounds each
    assert charged == 2 + 3 + 3


def test_regular_graph_assignment():
    g = gc.gen_hypercube(3)
    asg, _ = rta.assign_degree_class_ids(g)
    # degree 3 is class floor(log2 3) = 1 for all eight vertices
    assert asg.order.tolist() == list(range(8))
    assert asg.counts.tolist() == [0, 8, 0, 0]


def test_class_decode_from_counts():
    # a path's two ends have degree 1 and its inner vertices degree 2: the
    # counts make new ids 1..2 class 0 and 3..6 class 1
    g = gc.gen_path(6)
    asg, _ = rta.assign_degree_class_ids(g)
    assert asg.order.tolist() == [0, 5, 1, 2, 3, 4]
    assert asg.counts.tolist() == [2, 4, 0]
    assert [class_of_new_id(i, asg.counts) for i in range(1, 7)] == [0, 0, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        class_of_new_id(7, asg.counts)


def test_assignment_respects_class_order():
    g = gc.gen_er(80, 0.1, seed=3)
    comp = max(gc.connected_components(g), key=len)
    sub, old = gc.induced_subgraph(g, comp)
    asg, _ = rta.assign_degree_class_ids(sub)
    deg = {old[i]: sub.deg[i] for i in range(sub.n)}
    by_new = [old[i] for i in asg.order]
    assert sorted(by_new) == sorted(comp)
    for a, b in zip(by_new, by_new[1:]):
        assert degree_class(deg[a]) <= degree_class(deg[b])
    for new, v in enumerate(by_new, 1):
        assert class_of_new_id(new, asg.counts) == degree_class(deg[v])
    assert asg.counts.sum() == len(comp)


def test_assignment_tiebreak_by_old_id():
    g = gc.gen_cycle(6)
    asg, _ = rta.assign_degree_class_ids(g)
    assert asg.order.tolist() == [0, 1, 2, 3, 4, 5]


def test_assignment_rejects_disconnected():
    g = gc.Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(gc.GraphError):
        rta.assign_degree_class_ids(g)


def _oracle_assignment(g, members):
    """The set count: each member's neighbours intersected with the members;
    returns (member degrees, members in new-id order, class counts)."""
    adj = oracle_adj(g.n, g.edges())
    deg_of = {v: len(set(adj[v]) & members) for v in members}
    counts = [0] * (int(gc.log2m(len(members))) + 1)
    for v in members:
        counts[degree_class(deg_of[v])] += 1
    order = sorted(members, key=lambda v: (degree_class(deg_of[v]), v))
    return deg_of, order, counts


def test_assignment_matches_the_set_count():
    # members are BFS balls inside larger graphs, so most have non-member
    # neighbours that their member degree must not count
    rng = random.Random(4)
    differs = 0
    for k in range(30):
        g = gc.gen_er(rng.randint(20, 90), rng.uniform(0.05, 0.3), seed=k)
        adj = oracle_adj(g.n, g.edges())
        members = {rng.randrange(g.n)}
        for _ in range(rng.randint(1, 2)):
            members |= {u for v in members for u in adj[v]}
        sub, ids = gc.induced_subgraph(g, members)
        asg, _ = rta.assign_degree_class_ids(sub)
        deg_of, order, counts = _oracle_assignment(g, members)
        assert ([ids[i] for i in asg.order], asg.counts.tolist()) == (order, counts)
        differs += any(
            degree_class(deg_of[v]) != degree_class(g.deg[v]) for v in members
        )
    assert differs > 10


def test_kappa_default():
    assert rta.kappa_default(4) == 4
    assert rta.kappa_default(1024) == 16
    assert rta.kappa_default(1) == 1


def _all_pairs(n):
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def test_route_empty():
    g = gc.gen_clique(4)
    assert rta.route(g, []) == (0, 0)


def test_route_k4_full_load():
    g = gc.gen_clique(4)
    # every vertex sends 3 and receives 3: load 6 = deg 3 * kappa 2
    rounds, mult = rta.route(g, _all_pairs(4), kappa=2)
    assert (rounds, mult) == (6, 1)  # mixing time 3 times kappa 2


def test_route_star_leaf_stretches_kappa():
    g = gc.gen_star(5)
    # leaf 1 has degree 1 and load 3 against its kappa-2 cap of 2
    rounds, mult = rta.route(g, [(0, 1)] * 3, kappa=2)
    assert mult == 2
    assert rounds == rta.mixing_estimate(g) * 2 * 2


def test_route_mult_matches_a_python_oracle():
    g = gc.gen_er(40, 0.3, seed=6)
    comp = max(gc.connected_components(g), key=len)
    rng = random.Random(5)
    reqs = [tuple(rng.sample(comp, 2)) for _ in range(400)]
    load = {}
    for u, v in reqs:
        load[u] = load.get(u, 0) + 1
        load[v] = load.get(v, 0) + 1
    members = set(comp)
    adj = oracle_adj(g.n, g.edges())
    kappa = 2
    want = max(
        math.ceil(l / (len(set(adj[v]) & members) * kappa))
        for v, l in load.items()
    )
    assert want > 1
    sub, ids = gc.induced_subgraph(g, comp)
    reqs = [(ids.index(u), ids.index(v)) for u, v in reqs]
    rounds, mult = rta.route(sub, reqs, kappa=kappa)
    assert mult == want
    assert rounds == rta.mixing_estimate(sub) * kappa * want
    # the stretched kappa fits the batch at multiplier 1 and the same price
    assert rta.route(sub, reqs, kappa=kappa * want) == (rounds, 1)


def test_route_rounds_monotone_in_load():
    g = gc.gen_clique(8)
    light = [(0, 1)]
    heavy = _all_pairs(8) * 3
    r0, _ = rta.route(g, [], kappa=4)
    r1, _ = rta.route(g, light, kappa=4)
    r2, m2 = rta.route(g, heavy, kappa=4)
    assert r0 <= r1 < r2 and m2 == 2


def test_route_rejects_outside_component():
    # one clique of the barbell as its own graph: 6 is the other clique's
    sub, _ = gc.induced_subgraph(gc.gen_barbell(4, 1), range(4))
    with pytest.raises(gc.GraphError, match=r"vertex 6 is not in 0\.\.3"):
        rta.route(sub, [(0, 6)], kappa=4)


@pytest.mark.parametrize("v", [-1, 4])
def test_route_refuses_a_request_id_outside_the_component_graph(v):
    with pytest.raises(gc.GraphError, match=rf"vertex {v} is not in 0\.\.3"):
        rta.route(gc.gen_clique(4), [(0, 1), (v, 2)])


def test_route_rejects_a_loaded_vertex_without_member_edges():
    sub, _ = gc.induced_subgraph(gc.Graph(4, [(0, 1), (2, 3)]), [0, 1, 2])
    with pytest.raises(gc.GraphError, match="vertex 2 has no edges to route over"):
        rta.route(sub, [(0, 1), (1, 2)], kappa=4)


@pytest.mark.parametrize("kappa", [0, -1])
def test_route_rejects_kappa_below_one(kappa):
    g = gc.gen_clique(3)
    with pytest.raises(gc.GraphError, match="kappa must be at least 1"):
        rta.route(g, [], kappa=kappa)


def test_mixing_estimate_exact_small():
    g = gc.gen_clique(4)
    assert rta.mixing_estimate(g) == 3


def test_mixing_estimate_above_exact_limit_is_the_spectral_bound():
    g = gc.gen_hypercube(11)
    assert g.n > gc.EXACT_MIXING_LIMIT
    lam2 = gc.lambda2_normalized(g)
    assert rta.mixing_estimate(g) == gc.mixing_time_bound(g, lam2) == 160
    # the former estimate, ceil(4 log2 n / lambda2^2), bounds neither side
    assert math.ceil(4.0 * math.log2(g.n) / lam2 ** 2) == 1332


def test_mixing_estimate_without_a_spectral_gap_raises(monkeypatch):
    monkeypatch.setattr(rta, "lambda2_normalized", lambda sub: 0.0)
    with pytest.raises(gc.GraphError, match="does not mix"):
        rta.mixing_estimate(gc.gen_hypercube(11))
