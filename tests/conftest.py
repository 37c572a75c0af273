"""Shared test graphs and the neighbour-list and lazy-step oracles."""

import pytest

from congestlab.graphcore import Graph, gen_caterpillar


def oracle_adj(n, edges):
    """Each vertex's neighbours, ascending, from the edge list alone.

    A Graph keeps only its CSR arrays; the tests read neighbours from here
    when they need them independently of those arrays.
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(a) for a in adj]


def lazy_step(g, p):
    """One application of the lazy walk: half stays, half splits to neighbors.

    The sequential reference that the walk tests hold `_run_walk_level` to.
    """
    out = {}
    ptr, flat = g.indptr.tolist(), g.indices.tolist()
    for x, mass in p.items():
        out[x] = out.get(x, 0.0) + mass / 2.0
        d = g.deg[x]
        if d:
            share = mass / (2.0 * d)
            for y in flat[ptr[x] : ptr[x + 1]]:
                out[y] = out.get(y, 0.0) + share
    return {x: v for x, v in out.items() if v > 0.0}


@pytest.fixture
def case2a_graph() -> Graph:
    """gen_caterpillar(30, 12) plus the shortcut path 0-360-373-180.

    Vertices 360 and 373 each carry 12 pendant leaves (n = 386, m = 2036).
    At delta 0.3 the shortcut survives Remove-1 (degree 14 against a
    threshold of 5.97), the peel sheds it in two passes, and with
    threshold_scale 0.01 the core's BFS depth clears the diameter bar of
    58.0, so the partition takes the post-peel diameter cut (case2a).
    """
    edges = gen_caterpillar(30, 12).edge_list()
    edges += [(0, 360), (360, 373), (373, 180)]
    edges += [(hub, hub + k) for hub in (360, 373) for k in range(1, 13)]
    return Graph(386, edges)
