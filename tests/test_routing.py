"""Degree-class ids and the routing cost oracle."""

import math

import pytest

from congestlab import graphcore as gc
from congestlab import routing as rta


def test_star_assignment():
    g = gc.gen_star(5)
    asg, charged = rta.assign_degree_class_ids(g, range(5))
    # leaves are class 0 and take ids 1..4; the center is class 2 with id 5
    assert sorted(asg.new_id[v] for v in range(1, 5)) == [1, 2, 3, 4]
    assert asg.new_id[0] == 5
    assert asg.counts[0] == 4 and asg.counts[2] == 1
    assert asg.class_of_vertex(0) == 2
    assert charged >= 1


def test_regular_graph_assignment():
    g = gc.gen_hypercube(3)
    asg, _ = rta.assign_degree_class_ids(g, range(8))
    assert sorted(asg.new_id.values()) == list(range(1, 9))
    assert all(asg.class_of_vertex(v) == 1 for v in range(8))


def test_class_decode_from_counts():
    # counts for degree multiset {1 x6, 3 x2}: six class-0 ids then two class-1
    counts = [6, 2, 0, 0]
    assert rta.class_of_new_id(7, counts) == 1
    assert rta.class_of_new_id(6, counts) == 0
    assert rta.class_of_new_id(8, counts) == 1
    with pytest.raises(gc.GraphError):
        rta.class_of_new_id(9, counts)


def test_assignment_respects_class_order():
    g = gc.gen_er(80, 0.1, seed=3)
    comp = max(gc.connected_components(g), key=len)
    asg, _ = rta.assign_degree_class_ids(g, comp)
    sub, old = gc.induced_subgraph(g, comp)
    deg = {old[i]: sub.deg[i] for i in range(sub.n)}
    by_new = sorted(comp, key=lambda v: asg.new_id[v])
    for a, b in zip(by_new, by_new[1:]):
        assert rta.degree_class(deg[a]) <= rta.degree_class(deg[b])
    for v in comp:
        assert asg.class_of_vertex(v) == rta.degree_class(deg[v])
    assert sorted(asg.new_id.values()) == list(range(1, len(comp) + 1))
    for new, v in asg.old_id.items():
        assert asg.new_id[v] == new


def test_assignment_tiebreak_by_old_id():
    g = gc.gen_cycle(6)
    asg, _ = rta.assign_degree_class_ids(g, range(6))
    assert [asg.old_id[i] for i in range(1, 7)] == [0, 1, 2, 3, 4, 5]


def test_assignment_rejects_disconnected():
    g = gc.Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(gc.GraphError):
        rta.assign_degree_class_ids(g, range(4))


def test_assignment_rejects_vertex_outside_graph():
    g = gc.gen_path(4)
    with pytest.raises(gc.GraphError, match="outside"):
        rta.assign_degree_class_ids(g, [2, 3, 4])


def test_kappa_default():
    assert rta.kappa_default(4) == 4
    assert rta.kappa_default(1024) == 16
    assert rta.kappa_default(1) == 1


def test_route_empty():
    g = gc.gen_clique(4)
    delivery, rounds = rta.route(g, range(4), [])
    assert delivery == {} and rounds == 0


def test_route_k4_full_load():
    g = gc.gen_clique(4)
    reqs = [
        rta.RoutingRequest(u, v, (u, v))
        for u in range(4)
        for v in range(4)
        if u != v
    ]
    delivery, rounds = rta.route(g, range(4), reqs, kappa=2)
    assert rounds == 6  # mixing time 3 times kappa 2
    assert sum(len(v) for v in delivery.values()) == 12
    for dst, box in delivery.items():
        assert [s for s, _ in box] == sorted(s for s, _ in box)
        for src, payload in box:
            assert payload == (src, dst)


def test_route_overload_names_vertex():
    g = gc.gen_star(5)
    reqs = [rta.RoutingRequest(0, 1, (i,)) for i in range(3)]
    # leaf 1 has degree 1; with kappa=2 its cap is 2, load is 3
    with pytest.raises(gc.GraphError, match="vertex 1"):
        rta.route(g, range(5), reqs, kappa=2)


def test_route_multiset_preserved():
    g = gc.gen_er(40, 0.3, seed=6)
    comp = max(gc.connected_components(g), key=len)
    import random

    rng = random.Random(5)
    reqs = []
    for i in range(60):
        u, v = rng.sample(comp, 2)
        reqs.append(rta.RoutingRequest(u, v, (i,)))
    delivery, rounds = rta.route(g, comp, reqs, kappa=8)
    got = sorted(p for box in delivery.values() for _, p in box)
    assert got == sorted(r.payload for r in reqs)
    assert rounds > 0


def test_route_rounds_monotone_in_load():
    g = gc.gen_clique(8)
    light = [rta.RoutingRequest(0, 1, (1,))]
    heavy = [
        rta.RoutingRequest(u, v, (u,)) for u in range(8) for v in range(8) if u != v
    ]
    _, r0 = rta.route(g, range(8), [], kappa=4)
    _, r1 = rta.route(g, range(8), light, kappa=4)
    _, r2 = rta.route(g, range(8), heavy, kappa=4)
    assert r0 <= r1 <= r2


def test_route_rejects_outside_component():
    g = gc.gen_barbell(4, 1)
    with pytest.raises(gc.GraphError):
        rta.route(g, range(4), [rta.RoutingRequest(0, 6, ())], kappa=4)


def test_route_payload_width():
    g = gc.gen_clique(3)
    with pytest.raises(gc.GraphError):
        rta.route(g, range(3), [rta.RoutingRequest(0, 1, (1, 2, 3, 4, 5))])


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
