"""Degree-class id assignment and a load-priced routing cost oracle.

The assignment is two int arrays: the members in new-id order and the
member count of each degree class.

Routing on a well-mixing component is priced, not packet-simulated: the
oracle counts every vertex's load, stretches kappa by the least integer
multiplier that fits the loads into the degree caps, and charges rounds
against the component's mixing-time estimate.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .graphcore import (
    EXACT_MIXING_LIMIT,
    Graph,
    GraphError,
    _require_vertices,
    induced_subgraph,
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
    """Members in new-id order (new id i + 1 is `order[i]`) and the member
    count of each degree class, the histogram the tree exchanges."""

    order: np.ndarray
    counts: np.ndarray


def assign_degree_class_ids(
    g: Graph, component: Iterable[int]
) -> Tuple[IdAssignment, int]:
    """Relabel a connected component with ids sorted by degree class.

    Vertices are numbered 1..n so that smaller ids never sit in a higher
    degree class, floor(log2 deg) with deg 0 in class 0; ties inside a
    class go by old id. Degrees count member neighbors only, and the BFS
    build rejects a disconnected component. The round charge prices the
    tree-based histogram exchange: one BFS build plus a convergecast and
    broadcast of the class counts.
    """
    members = sorted(set(component))
    if not members:
        raise GraphError("component is empty")
    _require_vertices(g, members)
    _, bfs_rounds = rt.bfs_build(g, members, members[0])
    depth = bfs_rounds - 1
    inside = np.zeros(g.n, dtype=bool)
    inside[members] = True
    e = g._edge_array()
    deg = np.bincount(e[inside[e].all(axis=1)].ravel(), minlength=g.n)[members]
    # frexp's exponent of d >= 1 is floor(log2 d) + 1, exactly
    classes = np.frexp(np.maximum(deg, 1))[1] - 1
    order = np.asarray(members, dtype=np.int64)[np.argsort(classes, kind="stable")]

    k = int(log2m(len(members))) + 1
    charged = (
        bfs_rounds
        + rt.pipelined_convergecast(depth, k)
        + rt.broadcast(depth, k)
    )
    return IdAssignment(order, np.bincount(classes, minlength=k)), charged


def mixing_estimate(sub: Graph) -> int:
    """Mixing time of a component graph: exact when small, spectral above.

    `sub` is the component itself, as `route` has already extracted it.
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


def route(
    g: Graph,
    component: Sequence[int],
    requests,
    kappa: Optional[int] = None,
) -> Tuple[int, int]:
    """Price one batch of point-to-point requests inside a component.

    `requests` is a (k, 2) int array-like of (source, destination) member
    ids. Each request carries one edge, 2 words, within rt.DEFAULT_WORDS.
    A vertex's load counts its source and destination slots. The batch
    runs at the least integer multiplier mult >= 1 with load(v) <= deg(v)
    * kappa * mult at every member v, deg counting member neighbors, and
    costs tau * kappa * mult rounds, with tau the component's mixing-time
    estimate (Ghaffari, Kuhn and Su, PODC 2017). Returns (rounds, mult);
    an empty batch is (0, 0).
    """
    members = sorted(set(component))
    if kappa is None:
        kappa = kappa_default(len(members))
    if kappa < 1:
        raise GraphError("kappa must be at least 1")
    pairs = np.asarray(requests, dtype=np.int64).reshape(-1, 2)
    if not len(pairs):
        return 0, 0

    sub, old_ids = induced_subgraph(g, members)
    ids = np.asarray(old_ids, dtype=np.int64)
    inside = np.isin(pairs, ids).all(axis=1)
    if not inside.all():
        u, v = pairs[inside.argmin()].tolist()
        raise GraphError(f"request {u}->{v} leaves the component")
    load = np.bincount(np.searchsorted(ids, pairs).ravel(), minlength=sub.n)
    cap = np.asarray(sub.deg, dtype=np.int64) * kappa
    busy = load > 0
    stranded = busy & (cap == 0)
    if stranded.any():
        v = old_ids[stranded.argmax()]
        raise GraphError(f"vertex {v} has no edges to route over")
    mult = int((-(-load[busy] // cap[busy])).max())
    return mixing_estimate(sub) * kappa * mult, mult
