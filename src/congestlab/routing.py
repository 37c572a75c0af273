"""Degree-class id assignment and a load-priced routing cost oracle.

Both helpers take a connected component as its own graph, vertices
0..n-1. The assignment is two int arrays: the vertices in new-id order
and the vertex count of each degree class.

Routing on a well-mixing component is priced, not packet-simulated: the
oracle counts every vertex's load, stretches kappa by the least integer
multiplier that fits the loads into the degree caps, and charges rounds
against the component's mixing-time estimate.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .graphcore import (
    EXACT_MIXING_LIMIT,
    Graph,
    GraphError,
    _require_vertices,
    induced_subgraph,  # unused here; perfbench checks it wraps this binding
    lambda2_normalized,
    log2m,
    mixing_time_bound,
    mixing_time_exact,
)
from . import runtime as rt


def kappa_default(n: int) -> int:
    """Congestion knob: 2 to the ceiling of sqrt(log2 n)."""
    if n <= 1:
        return 1
    return 2 ** math.ceil(math.sqrt(math.log2(n)))


@dataclass
class IdAssignment:
    """Vertices in new-id order (new id i + 1 is `order[i]`) and the vertex
    count of each degree class, the histogram the tree exchanges."""

    order: np.ndarray
    counts: np.ndarray


def assign_degree_class_ids(sub: Graph, old_ids=None) -> Tuple[IdAssignment, int]:
    """Relabel a connected component, given as its own graph, with ids
    sorted by degree class.

    Vertices are numbered 1..n so that smaller ids never sit in a higher
    degree class, floor(log2 deg) with deg 0 in class 0; ties inside a
    class go by sub's id. The BFS build rejects a disconnected component,
    naming its vertices by `old_ids` when given (see `rt.bfs_build`).
    The round charge prices the tree-based histogram exchange: one BFS
    build plus a convergecast and broadcast of the class counts.
    """
    if not sub.n:
        raise GraphError("component is empty")
    _, bfs_rounds = rt.bfs_build(sub, old_ids)
    depth = bfs_rounds - 1
    # frexp's exponent of d >= 1 is floor(log2 d) + 1, exactly
    classes = np.frexp(np.maximum(sub.deg, 1))[1] - 1
    order = np.argsort(classes, kind="stable")

    k = int(log2m(sub.n)) + 1
    charged = (
        bfs_rounds
        + rt.pipelined_convergecast(depth, k)
        + rt.broadcast(depth, k)
    )
    return IdAssignment(order, np.bincount(classes, minlength=k)), charged


def mixing_estimate(sub: Graph) -> int:
    """Mixing time of a component graph: exact when small, spectral above.

    `sub` is the component itself, as `route` receives it.
    Above EXACT_MIXING_LIMIT vertices the estimate is the verifier's
    spectral upper bound, mixing_time_bound at the component's lambda2.
    """
    if sub.m == 0:
        raise GraphError("mixing estimate needs at least one edge")
    if sub.n <= EXACT_MIXING_LIMIT:
        return mixing_time_exact(sub)
    tau = mixing_time_bound(sub, lambda2_normalized(sub))
    if tau == math.inf:
        raise GraphError("component does not mix (zero spectral gap)")
    return tau


def route(sub: Graph, requests, kappa: Optional[int] = None) -> Tuple[int, int]:
    """Price one batch of point-to-point requests inside a component.

    `sub` is the connected component as its own graph, and `requests` is a
    (k, 2) int array-like of (source, destination) ids of sub. Each request
    carries one edge, two O(log n)-bit ids, which fit one CONGEST message.
    A vertex's load counts its source and destination slots. The batch runs at the least
    integer multiplier mult >= 1 with load(v) <= deg(v) * kappa * mult at
    every vertex v, and costs tau * kappa * mult rounds, with tau the
    component's mixing-time estimate (Ghaffari, Kuhn and Su, PODC 2017).
    Returns (rounds, mult); an empty batch is (0, 0).
    """
    if kappa is None:
        kappa = kappa_default(sub.n)
    if kappa < 1:
        raise GraphError("kappa must be at least 1")
    pairs = np.asarray(requests, dtype=np.int64).reshape(-1, 2)
    if not len(pairs):
        return 0, 0

    _require_vertices(sub, pairs)
    load = np.bincount(pairs.ravel(), minlength=sub.n)
    cap = np.asarray(sub.deg, dtype=np.int64) * kappa
    busy = load > 0
    stranded = busy & (cap == 0)
    if stranded.any():
        raise GraphError(f"vertex {stranded.argmax()} has no edges to route over")
    mult = int((-(-load[busy] // cap[busy])).max())
    return mixing_estimate(sub) * kappa * mult, mult
