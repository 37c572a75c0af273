"""Shared test graphs and the neighbour-list oracle."""

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
